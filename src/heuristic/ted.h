#ifndef FOOFAH_HEURISTIC_TED_H_
#define FOOFAH_HEURISTIC_TED_H_

#include <string>

#include "heuristic/edit_op.h"
#include "table/table.h"

namespace foofah {

class CancellationToken;

/// Result of the greedy Table Edit Distance approximation.
struct TedResult {
  /// Total cost of the discovered edit path; kInfiniteCost when some output
  /// cell cannot be formulated from the input at all (the goal contains
  /// information the input lacks).
  double cost = 0;
  EditPath path;
};

/// The cost of the cheapest Transform/Move sequence turning input cell
/// content `src` at (src_row, src_col) into output cell content `dst` at
/// (dst_row, dst_col) — the paper's AddCandTransform:
///   contents equal  & coords equal -> 0
///   contents equal  & coords differ -> 1 (Move)
///   contents differ & containment  -> 1 or 2 (Transform [+ Move])
///   contents differ & no containment, or exactly one side empty -> infinity
double TransformSequenceCost(const std::string& src, int src_row, int src_col,
                             const std::string& dst, int dst_row, int dst_col);

/// Greedy approximate Table Edit Distance (§4.2.1, Algorithm 1).
///
/// Walks the output table's cells in row-major order; for each, greedily
/// picks the cheapest way to formulate it: a Transform/Move sequence from a
/// not-yet-used input cell (ties broken by the input cell's row-major
/// order), an Add (only feasible for empty output cells), or — when all of
/// those are infinite — a Transform/Move from an already-used input cell
/// (the paper's lines 13–18 fallback). Finally, every unused input cell is
/// Deleted.
///
/// Reproduces the paper's worked example exactly: for the task of Figure 9
/// the discovered paths for (ei, c1, c2) cost 12, 9 and 18 (our unit tests
/// assert these values).
///
/// `cancel` (optional, not owned) is polled every few output cells so a
/// deadline interrupts the O(cells^2) greedy matching mid-table. When the
/// token fires the function returns promptly with cost = kInfiniteCost and
/// a truncated path; callers must treat that result as garbage — check the
/// token, never cache or act on an estimate computed under cancellation.
TedResult GreedyTed(const Table& input, const Table& output,
                    const CancellationToken* cancel = nullptr);

/// The same matching, writing the edit path into `*path` (cleared first)
/// and returning its cost. The matching runs over per-thread scratch that
/// is kept between calls, so once `*path` and that scratch have grown to
/// the tables' size a call allocates nothing; the TED heuristics pass a
/// reused path here on every estimate.
double GreedyTed(const Table& input, const Table& output, EditPath* path,
                 const CancellationToken* cancel = nullptr);

}  // namespace foofah

#endif  // FOOFAH_HEURISTIC_TED_H_
