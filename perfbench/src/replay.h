#ifndef FOOFAH_PERFBENCH_REPLAY_H_
#define FOOFAH_PERFBENCH_REPLAY_H_

// Layer timing for the search, measured from outside the library. A
// SearchObserver records every state the search expanded; the replay then
// drives each of them through the same public calls the serial search
// makes -- EnumerateCandidates, PruneBeforeApply, ApplyOperation, the size
// filter, PruneAfterApply, the state-set check, and the heuristic memo /
// Heuristic::Estimate -- timing each call and counting its allocations.
// The replay stops where the search stopped (at the first goal child, or
// when the generated-state budget runs out), so its counters must equal
// the search's SearchStats exactly; Reconcile() lists any disagreement.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "search/search.h"
#include "search/trace.h"

namespace perfbench {

/// Keeps every expanded state, in expansion order, and the estimate the
/// search computed for every generated non-goal child.
class ExpansionRecorder : public foofah::SearchObserver {
 public:
  void OnExpand(int node, const foofah::Table& state,
                uint32_t depth) override;
  void OnGenerate(int node, int parent, const foofah::Operation& operation,
                  double heuristic, bool is_goal) override;

  std::vector<foofah::Table> expanded;
  std::vector<double> estimates;
};

/// Time, calls and allocations of one layer across a replay.
struct LayerTotals {
  double ms = 0;
  uint64_t calls = 0;
  uint64_t allocs = 0;
  Clock::time_point first{};
  Clock::time_point last{};

  void Add(Clock::time_point start, Clock::time_point end, uint64_t allocs);
};

struct ReplayResult {
  /// Empty when the search configuration can be replayed.
  std::string unsupported;

  uint64_t expanded = 0;
  uint64_t tried = 0;       ///< Candidates considered before the stop.
  uint64_t kept = 0;        ///< Survived both pruning checks.
  uint64_t generated = 0;
  uint64_t duplicates = 0;
  uint64_t oversize = 0;
  uint64_t apply_failures = 0;
  std::array<uint64_t, foofah::kNumPruneReasons> pruned{};
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  std::vector<double> estimates;  ///< Per generated non-goal child.

  LayerTotals enumerate;
  LayerTotals prune;
  LayerTotals apply;
  LayerTotals estimate;  ///< Heuristic::Estimate on memo misses.
};

/// Replays one search. `options` must describe a serial (num_threads 1,
/// expansion_width 1), unguided A* search with state deduplication, the
/// heuristic memo, one solution and no goal tolerance; anything else is
/// reported through ReplayResult::unsupported.
ReplayResult ReplaySearch(const foofah::Table& input,
                          const foofah::Table& goal,
                          const foofah::SearchOptions& options,
                          const std::vector<foofah::Table>& expanded);

/// Candidates that survived both pruning checks, from a search's own
/// statistics: tried minus pruned, failed to apply, or oversize.
uint64_t KeptCandidates(const foofah::SearchStats& stats);

/// Compares every counter the replay reproduces with the search's own
/// statistics and estimates. Returns one line per disagreement; empty
/// means they reconcile.
std::vector<std::string> Reconcile(const ReplayResult& replay,
                                   const foofah::SearchStats& stats,
                                   const std::vector<double>& estimates);

}  // namespace perfbench

#endif  // FOOFAH_PERFBENCH_REPLAY_H_
