#ifndef FOOFAH_HEURISTIC_HEURISTIC_H_
#define FOOFAH_HEURISTIC_HEURISTIC_H_

#include <memory>
#include <string>

#include "table/table.h"

namespace foofah {

class CancellationToken;

/// Which heuristic function h(n) guides the A* search (§4.2, §5.3).
enum class HeuristicKind {
  /// Table Edit Distance Batch (Algorithm 2) — the paper's contribution.
  kTedBatch = 0,
  /// Raw greedy Table Edit Distance (Algorithm 1), unbatched. Operates at
  /// cell scale, so it over-weights large tables; included for ablation.
  kTed,
  /// The rule-based naive heuristic of Appendix C ("Rule" in Fig 11c/12a).
  kNaiveRule,
  /// h = 0 everywhere: A* degenerates to uniform-cost search.
  kZero,
};

/// "ted_batch" / "ted" / "rule" / "zero".
const char* HeuristicKindName(HeuristicKind kind);

/// Estimates the remaining cost (number of Potter's Wheel operations) from
/// `state` to `goal`. Estimates are pure functions of (state, goal), and
/// implementations are thread-compatible. The TED family reuses
/// per-thread scratch buffers across calls; a thread's scratch stays as
/// large as the largest tables it has estimated.
class Heuristic {
 public:
  virtual ~Heuristic() = default;

  /// h(state); may return kInfiniteCost when no transformation without new
  /// information can reach `goal`.
  ///
  /// `cancel` (optional, not owned) is polled inside the costlier
  /// implementations' inner loops (TED's greedy matching, TED-Batch's
  /// per-pattern scan) so a deadline interrupts an estimate mid-DP. When
  /// the token fires the returned value is garbage — callers must check
  /// the token and discard (in particular: never cache) such an estimate.
  /// The default argument keeps the interface source-compatible for
  /// callers that never cancel. Overrides inherit the default through the
  /// base declaration; they do not restate it.
  virtual double Estimate(const Table& state, const Table& goal,
                          const CancellationToken* cancel = nullptr) const = 0;

  /// Stable identifier for experiment output.
  virtual std::string name() const = 0;
};

/// Factory for the built-in heuristics.
std::unique_ptr<Heuristic> MakeHeuristic(HeuristicKind kind);

}  // namespace foofah

#endif  // FOOFAH_HEURISTIC_HEURISTIC_H_
