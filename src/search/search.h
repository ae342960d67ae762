#ifndef FOOFAH_SEARCH_SEARCH_H_
#define FOOFAH_SEARCH_SEARCH_H_

#include <array>
#include <cstdint>
#include <string>

#include "heuristic/heuristic.h"
#include "ops/registry.h"
#include "program/program.h"
#include "search/pruning.h"
#include "table/table.h"
#include "table/table_diff.h"
#include "util/status.h"

namespace foofah {

class SearchObserver;      // search/trace.h
class HeuristicCache;      // heuristic/heuristic_cache.h
class CancellationToken;   // util/cancellation.h
class CandidateGuide;      // search/guide.h

/// How the state space graph of Definition 4.1 is explored (§5.3).
enum class SearchStrategy {
  /// Best-first on f(n) = g(n) + h(n), the paper's A*-inspired search.
  kAStar = 0,
  /// Breadth-first (FIFO) expansion; "BFS" and "BFS NoPrune" in Fig 11c.
  kBfs,
};

/// "astar" / "bfs".
const char* SearchStrategyName(SearchStrategy strategy);

/// Everything configurable about one synthesis run. The defaults are the
/// paper's configuration: A* + TED Batch + all pruning rules + the default
/// operator library.
struct SearchOptions {
  SearchStrategy strategy = SearchStrategy::kAStar;
  HeuristicKind heuristic = HeuristicKind::kTedBatch;
  PruningConfig pruning = PruningConfig::Full();
  /// Operator library; when null, OperatorRegistry::Default() is used.
  const OperatorRegistry* registry = nullptr;

  /// Wall-clock budget in milliseconds; 0 disables the time limit.
  /// (The paper uses 60 s per interaction in §5.2 and 300 s in §5.3.)
  /// Enforced through a CancellationToken polled per expansion, per
  /// candidate, and inside the TED heuristics' inner loops, so the
  /// overshoot past the deadline is bounded by one indivisible evaluation
  /// step (well under the documented 250 ms epsilon) rather than by a
  /// whole expansion round.
  int64_t timeout_ms = 60'000;

  /// Optional shared cancellation token (see util/cancellation.h); not
  /// owned, must outlive the search. Lets a driver impose one protocol-
  /// wide deadline / node / memory budget across rounds, or a UI thread
  /// abort a running synthesis. When timeout_ms > 0 the search tightens
  /// this token's deadline (creating a private token when none is given),
  /// so both limits apply — the stricter wins. A fired token ends the
  /// search cooperatively; the partial frontier is surfaced through
  /// SearchResult::anytime.
  CancellationToken* cancel = nullptr;

  /// Generated-node budget charged through the cancellation token
  /// (CancellationToken::SetNodeBudget); 0 leaves the token's own budget
  /// untouched. Unlike max_expansions (a plain counter check between
  /// expansions), the token budget composes with an externally shared
  /// token and surfaces as CancelReason::kNodeBudget — the degradation
  /// ladder uses it as its deterministic per-rung budget. When set on a
  /// search with a shared token, it overrides that token's node budget.
  uint64_t node_budget = 0;

  /// Approximate memory budget in bytes charged through the token
  /// (CancellationToken::SetMemoryBudget); 0 leaves the token untouched.
  /// Same composition rules as node_budget.
  uint64_t memory_budget = 0;

  /// Maximum number of node expansions; 0 disables the cap.
  uint64_t max_expansions = 200'000;
  /// Maximum number of generated (kept) states; 0 disables the cap.
  /// Guards BFS-NoPrune against memory blowups.
  uint64_t max_generated = 2'000'000;
  /// States wider/taller than this are discarded outright; intermediate
  /// tables bigger than a small multiple of the example sizes can never be
  /// on a minimal path and only burn heuristic time.
  size_t max_state_cells = 4096;

  /// Number of distinct correct programs to collect before stopping. With
  /// the default of 1 the search returns at the first goal, as in the
  /// paper; larger values keep searching and fill SearchResult::
  /// alternatives — useful for the §4.5 validation workflow, where a user
  /// inspects candidate programs and picks the one matching their intent.
  int max_solutions = 1;

  /// Goal-test relaxation: a state with the goal's shape and at most this
  /// many differing cells is accepted as a goal. 0 (the default) is the
  /// paper's exact semantics. Non-zero values implement the §7 future-work
  /// direction of tolerating user mistakes in the example — used through
  /// SynthesizeTolerant, which reports the differing cells back to the
  /// user as suspected example errors.
  size_t goal_tolerance = 0;

  /// Weight w in f(n) = g(n) + w * h(n) for the A* strategy. 1.0 is the
  /// paper's configuration. Values > 1 trust the (inadmissible) heuristic
  /// more — greedier, usually faster, possibly longer programs; values < 1
  /// discount it toward uniform-cost search. Ablated in
  /// bench/ablation_search_design.
  double heuristic_weight = 1.0;

  /// When true (the default, and the paper's implicit assumption — the
  /// state space is a graph, Definition 4.1), previously generated states
  /// are recognized and skipped. Disabling turns the search into a tree
  /// search that re-explores shared substructure; ablated in
  /// bench/ablation_search_design.
  bool deduplicate_states = true;

  /// Optional exploration observer (see search/trace.h); not owned, must
  /// outlive the search. Null disables all callbacks at zero cost.
  /// Callbacks are always invoked serially on the expansion thread, in the
  /// same candidate order as the single-threaded engine, regardless of
  /// num_threads.
  SearchObserver* observer = nullptr;

  /// Threads used to evaluate and estimate the candidates of one
  /// expansion (pruning + apply + size filter + goal test + hash, then
  /// the heuristic of each admitted child) in parallel. 0 means "use
  /// hardware_concurrency"; 1 runs without a pool, one candidate at a
  /// time. Any value yields bit-identical programs, statistics and
  /// observer events: results land in per-candidate slots, and admission,
  /// accounting and frontier pushes run serially in candidate order.
  int num_threads = 0;

  /// Has no effect: the search always expands one frontier node at a
  /// time. Kept only because perfbench/src/replay.cc still reads it.
  int expansion_width = 1;

  /// Memoize heuristic estimates by (state hash, goal hash). States
  /// estimated by an earlier search sharing the cache — and every
  /// re-expansion when deduplicate_states is false — then skip the TED
  /// dynamic program entirely. Estimates are pure functions of the key,
  /// so caching never changes results; hit/miss counts land in
  /// SearchStats. A memo is kept only where it can hit: the caller's
  /// shared heuristic_cache, or a private one when deduplicate_states is
  /// false. A deduplicating search estimates each distinct state once at
  /// any thread count, so without a shared cache it keeps none.
  bool cache_heuristic = true;

  /// Entry bound for the internally created heuristic cache (ignored when
  /// heuristic_cache is supplied).
  size_t heuristic_cache_capacity = 1u << 20;

  /// Optional externally owned cache shared across searches (the §5.2
  /// driver reuses one across its interaction rounds; goal hashes keep
  /// different goals from colliding). Not owned, must outlive the search.
  /// Used whenever cache_heuristic is true under A*, at any thread count.
  /// When null, only a search without deduplication creates a private
  /// cache for its own duration.
  HeuristicCache* heuristic_cache = nullptr;

  /// Optional learned candidate guide (see search/guide.h and
  /// learn/guidance.h); not owned, must outlive the search. Non-null turns
  /// the run into a STAGED search: a guided phase first explores the
  /// subgraph of candidates the guide keeps (deferred candidates are still
  /// applied and goal-tested in enumeration order, but never estimated or
  /// pushed), capped at guided_max_expansions; if that phase ends without
  /// a program — subgraph exhausted or budget spent — the exact unguided
  /// search reruns from scratch with the same options (the admissible
  /// fallback), sharing one cancellation token and one heuristic memo
  /// across both phases so overall deadlines/budgets still bind and
  /// fallback re-estimates mostly hit the memo. A guided-phase win returns
  /// immediately. SearchStats::guided_* / guidance_* record the split.
  /// Null (the default) is exactly the paper's single-phase search.
  const CandidateGuide* guidance = nullptr;

  /// Expansion cap of the guided phase (plain counter, like
  /// max_expansions); values <= 0 use the built-in default. Only consulted
  /// when `guidance` is set. The cap bounds how much a misguided prior can
  /// cost: the staged search spends at most this many extra expansions
  /// before the exact fallback takes over (token-armed node/memory budgets
  /// and deadlines are shared across phases and never exceeded).
  uint64_t guided_max_expansions = 1'024;

  /// Generated-state cap of the guided phase (plain counter, like
  /// max_generated); values <= 0 use the built-in default. Only consulted
  /// when `guidance` is set. Candidate enumeration — not expansion — is
  /// where search time goes, so this is the knob that bounds the cost of a
  /// fruitless guided phase: a miss costs at most this many generated
  /// states before the exact fallback reruns with the caller's full
  /// max_generated.
  uint64_t guided_max_generated = 4'096;
};

/// Counters describing one search run.
struct SearchStats {
  uint64_t nodes_expanded = 0;
  uint64_t nodes_generated = 0;  ///< States kept on the frontier.
  uint64_t candidates_tried = 0;  ///< Arcs considered before pruning.
  uint64_t duplicates_skipped = 0;
  uint64_t oversize_skipped = 0;
  uint64_t apply_failures = 0;  ///< Candidates with out-of-domain params.
  std::array<uint64_t, kNumPruneReasons> pruned_by_reason{};
  /// Heuristic memoization counters (0/0 when cache_heuristic is off or
  /// the strategy is BFS). hits + misses is the number of estimates the
  /// search requested: a search that keeps no memo (deduplicating, with
  /// no caller's cache) counts every estimate it computes as a miss.
  /// Like every other counter they are identical at any thread count,
  /// with one exception: without deduplication, pool workers may estimate
  /// two equal children of one expansion at once, so the hit/miss split
  /// (not the sum) can shift.
  uint64_t heuristic_cache_hits = 0;
  uint64_t heuristic_cache_misses = 0;
  /// Staged-guidance accounting (all zero/false when SearchOptions::
  /// guidance is null). In a staged search every result-bearing counter
  /// above sums BOTH phases, so expansion/latency comparisons against an
  /// unguided run stay honest; these fields record the split. Like every
  /// other counter they are bit-identical across num_threads.
  uint64_t guided_expansions = 0;  ///< Expansions spent in the guided phase.
  uint64_t guidance_deferred = 0;  ///< Candidates the guide deferred.
  uint32_t guidance_fallbacks = 0; ///< 1 when the exact fallback phase ran.
  bool guided_win = false;         ///< Program found by the guided phase.
  double elapsed_ms = 0;
  bool timed_out = false;
  bool budget_exhausted = false;
  /// True when an external RequestCancel() (not a deadline or budget)
  /// ended the search.
  bool cancelled = false;
  /// How far past the armed deadline the search ran before the expiry was
  /// observed, in ms. Only meaningful when timed_out; the robustness suite
  /// asserts this stays under 250 ms corpus-wide even with a slowed-down
  /// heuristic.
  double overshoot_ms = 0;

  uint64_t total_pruned() const {
    uint64_t total = 0;
    for (int i = 1; i < kNumPruneReasons; ++i) total += pruned_by_reason[i];
    return total;
  }

  /// One-line summary for experiment logs.
  std::string ToString() const;
};

/// Best-effort partial answer from a search that ran out of budget: the
/// program of the frontier node the heuristic judged closest to the goal,
/// plus the table it produces and the residual diff still separating that
/// table from the goal. This is what the §4.5 user-effort loop needs to
/// degrade gracefully — the user (or core/approximate and core/diagnose)
/// can accept the partial program and work on the residual instead of
/// getting a bare timeout.
struct AnytimeResult {
  /// True when the search ended prematurely (deadline, budget, external
  /// cancel) with at least one explored state strictly closer to the goal
  /// (lower h) than the input itself. A* only: BFS carries no h.
  bool available = false;
  /// Path from the input to the best frontier state; never empty when
  /// `available` (the input itself never qualifies).
  Program program;
  /// The best frontier state — `program` applied to the input.
  Table table;
  /// Heuristic distance from `table` to the goal; strictly less than
  /// `input_h`.
  double h = 0;
  /// Heuristic distance from the untransformed input to the goal, for
  /// progress reporting ("reduced estimated distance from 14 to 5").
  double input_h = 0;
  /// Cell-level diff of goal vs `table`: what the partial program still
  /// fails to produce. Bounded to the differ's default cap.
  TableDiff residual;
};

/// Outcome of one synthesis search.
struct SearchResult {
  /// True when a program transforming the input example into the output
  /// example was found within budget.
  bool found = false;
  /// The synthesized program (guaranteed correct on the example pair,
  /// §4.5); empty unless `found`.
  Program program;
  /// All distinct correct programs collected (the first is `program`), in
  /// discovery order — best-first order under the active strategy. Has
  /// more than one element only when SearchOptions::max_solutions > 1.
  std::vector<Program> alternatives;
  /// Partial progress when the search ended on a deadline / budget /
  /// cancel without finding an exact program. Unset (`available == false`)
  /// whenever `found` is true or the search exhausted the space cleanly.
  AnytimeResult anytime;
  SearchStats stats;
};

/// Synthesizes a data transformation program turning `input` into `goal` by
/// heuristic search over the state space graph (Definition 4.1): vertices
/// are intermediate tables, arcs are parameterized operations, and the
/// returned program is the arc sequence of the discovered path.
SearchResult SynthesizeProgram(const Table& input, const Table& goal,
                               const SearchOptions& options = {});

}  // namespace foofah

#endif  // FOOFAH_SEARCH_SEARCH_H_
