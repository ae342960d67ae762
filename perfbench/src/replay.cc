#include "replay.h"

#include <memory>
#include <unordered_map>

#include "heuristic/heuristic.h"
#include "heuristic/heuristic_cache.h"
#include "ops/enumerate.h"
#include "ops/operators.h"
#include "search/pruning.h"

namespace perfbench {

using foofah::Operation;
using foofah::PruneReason;
using foofah::Table;

void ExpansionRecorder::OnExpand(int, const Table& state, uint32_t) {
  expanded.push_back(state);
}

void ExpansionRecorder::OnGenerate(int, int, const Operation&,
                                   double heuristic, bool is_goal) {
  if (!is_goal) estimates.push_back(heuristic);
}

void LayerTotals::Add(Clock::time_point start, Clock::time_point end,
                      uint64_t call_allocs) {
  if (calls == 0) first = start;
  last = end;
  ms += MsBetween(start, end);
  ++calls;
  allocs += call_allocs;
}

namespace {

// The search's exact-membership state set: hash buckets with full-table
// comparison.
class StateSet {
 public:
  bool Insert(const Table& table) {
    auto [it, inserted] = buckets_.try_emplace(table.Hash());
    if (!inserted) {
      for (const Table& existing : it->second) {
        if (existing.ContentEquals(table)) return false;
      }
    }
    it->second.push_back(table);
    return true;
  }

 private:
  std::unordered_map<uint64_t, std::vector<Table>> buckets_;
};

std::string Unsupported(const foofah::SearchOptions& o) {
  if (o.strategy != foofah::SearchStrategy::kAStar) return "strategy";
  if (o.num_threads != 1) return "num_threads";
  if (o.expansion_width > 1) return "expansion_width";
  if (o.guidance != nullptr) return "guidance";
  if (!o.deduplicate_states) return "deduplicate_states";
  if (!o.cache_heuristic || o.heuristic_cache != nullptr) return "memo";
  if (o.max_solutions != 1) return "max_solutions";
  if (o.goal_tolerance != 0) return "goal_tolerance";
  if (o.registry != nullptr) return "registry";
  return "";
}

}  // namespace

ReplayResult ReplaySearch(const Table& input, const Table& goal,
                          const foofah::SearchOptions& options,
                          const std::vector<Table>& expanded) {
  ReplayResult r;
  r.unsupported = Unsupported(options);
  if (!r.unsupported.empty()) return r;

  const foofah::OperatorRegistry registry =
      foofah::OperatorRegistry::Default();
  const std::unique_ptr<foofah::Heuristic> heuristic =
      foofah::MakeHeuristic(options.heuristic);
  foofah::HeuristicCache memo(options.heuristic_cache_capacity);
  const uint64_t goal_hash = goal.Hash();
  const foofah::GoalCharSets goal_chars = foofah::GoalCharSets::From(goal);

  // Memo lookup, and Heuristic::Estimate on a miss (the timed layer).
  auto estimate = [&](const Table& state) {
    const uint64_t hash = state.Hash();
    const uint64_t fingerprint = state.ShapeFingerprint();
    if (std::optional<double> hit = memo.Lookup(hash, goal_hash, fingerprint)) {
      ++r.memo_hits;
      return *hit;
    }
    const uint64_t allocs = ThreadAllocs();
    const Clock::time_point start = Clock::now();
    const double h = heuristic->Estimate(state, goal);
    r.estimate.Add(start, Clock::now(), ThreadAllocs() - allocs);
    memo.Insert(hash, goal_hash, fingerprint, h);
    ++r.memo_misses;
    return h;
  };

  if (input.ContentEquals(goal)) return r;
  StateSet seen;
  seen.Insert(input);
  estimate(input);

  for (const Table& state : expanded) {
    ++r.expanded;
    uint64_t allocs = ThreadAllocs();
    Clock::time_point start = Clock::now();
    const std::vector<Operation> candidates =
        foofah::EnumerateCandidates(state, goal, registry);
    r.enumerate.Add(start, Clock::now(), ThreadAllocs() - allocs);

    allocs = ThreadAllocs();
    start = Clock::now();
    const foofah::ParentContext context = foofah::ParentContext::From(state);
    r.prune.Add(start, Clock::now(), ThreadAllocs() - allocs);

    for (const Operation& candidate : candidates) {
      ++r.tried;
      allocs = ThreadAllocs();
      start = Clock::now();
      PruneReason reason =
          foofah::PruneBeforeApply(state, candidate, options.pruning);
      r.prune.Add(start, Clock::now(), ThreadAllocs() - allocs);
      if (reason != PruneReason::kKept) {
        ++r.pruned[static_cast<int>(reason)];
        continue;
      }

      allocs = ThreadAllocs();
      start = Clock::now();
      foofah::Result<Table> applied = foofah::ApplyOperation(state, candidate);
      r.apply.Add(start, Clock::now(), ThreadAllocs() - allocs);
      if (!applied.ok()) {
        ++r.apply_failures;
        continue;
      }
      const Table child = std::move(applied).value();
      if (child.num_cells() > options.max_state_cells) {
        ++r.oversize;
        continue;
      }

      allocs = ThreadAllocs();
      start = Clock::now();
      reason = foofah::PruneAfterApply(context, child, candidate, goal_chars,
                                       options.pruning);
      r.prune.Add(start, Clock::now(), ThreadAllocs() - allocs);
      if (reason != PruneReason::kKept) {
        ++r.pruned[static_cast<int>(reason)];
        continue;
      }
      ++r.kept;

      const bool is_goal = child.ContentEquals(goal);
      if (!is_goal && !seen.Insert(child)) {
        ++r.duplicates;
        continue;
      }
      ++r.generated;
      // The search returns at its first goal child and when the generated
      // budget runs out, mid-expansion; the replay stops at the same
      // candidate.
      if (is_goal) return r;
      if (options.max_generated > 0 && r.generated >= options.max_generated) {
        return r;
      }
      r.estimates.push_back(estimate(child));
    }
  }
  return r;
}

uint64_t KeptCandidates(const foofah::SearchStats& stats) {
  return stats.candidates_tried - stats.total_pruned() - stats.apply_failures -
         stats.oversize_skipped;
}

std::vector<std::string> Reconcile(const ReplayResult& replay,
                                   const foofah::SearchStats& stats,
                                   const std::vector<double>& estimates) {
  std::vector<std::string> mismatches;
  if (!replay.unsupported.empty()) {
    mismatches.push_back("search options not replayable: " +
                         replay.unsupported);
    return mismatches;
  }
  auto check = [&](const char* name, uint64_t replayed, uint64_t searched) {
    if (replayed != searched) {
      mismatches.push_back(Format("%s: replay %llu, search %llu", name,
                                  static_cast<unsigned long long>(replayed),
                                  static_cast<unsigned long long>(searched)));
    }
  };
  check("nodes_expanded", replay.expanded, stats.nodes_expanded);
  check("candidates_tried", replay.tried, stats.candidates_tried);
  check("kept", replay.kept, KeptCandidates(stats));
  check("nodes_generated", replay.generated, stats.nodes_generated);
  check("duplicates_skipped", replay.duplicates, stats.duplicates_skipped);
  check("oversize_skipped", replay.oversize, stats.oversize_skipped);
  check("apply_failures", replay.apply_failures, stats.apply_failures);
  for (int i = 1; i < foofah::kNumPruneReasons; ++i) {
    check(foofah::PruneReasonName(static_cast<PruneReason>(i)),
          replay.pruned[i], stats.pruned_by_reason[i]);
  }
  check("heuristic_cache_hits", replay.memo_hits, stats.heuristic_cache_hits);
  check("heuristic_cache_misses", replay.memo_misses,
        stats.heuristic_cache_misses);
  if (replay.estimates != estimates) {
    mismatches.push_back(Format("estimates: replay computed %zu, search %zu, "
                                "or their values differ",
                                replay.estimates.size(), estimates.size()));
  }
  return mismatches;
}

}  // namespace perfbench
