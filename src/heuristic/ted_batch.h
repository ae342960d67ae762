#ifndef FOOFAH_HEURISTIC_TED_BATCH_H_
#define FOOFAH_HEURISTIC_TED_BATCH_H_

#include <vector>

#include "heuristic/edit_op.h"
#include "table/table.h"

namespace foofah {

class CancellationToken;

/// The geometric patterns of Table 4, applied to the (src, dst) coordinate
/// deltas of consecutive ops in a candidate batch. `kAddHorizontal` /
/// `kAddVertical` extend the table's Remove patterns to Add ops (which the
/// paper leaves implicit); they batch dst-only edits the same way Remove
/// batches src-only edits.
enum class GeometricPattern {
  kHorizontalToHorizontal = 0,
  kHorizontalToVertical,
  kVerticalToHorizontal,
  kVerticalToVertical,
  kOneToHorizontal,
  kOneToVertical,
  kRemoveHorizontal,
  kRemoveVertical,
  kAddHorizontal,
  kAddVertical,
};

/// A finalized batch: indexes into the edit path, all of one edit type,
/// following one geometric pattern.
struct EditBatch {
  GeometricPattern pattern = GeometricPattern::kVerticalToVertical;
  std::vector<size_t> op_indices;
};

/// Result of batching an edit path.
struct TedBatchResult {
  /// Sum over batches of the mean op cost within the batch — with unit op
  /// costs, simply the number of batches. This is the TED Batch heuristic
  /// value (§4.2.2).
  double cost = 0;
  std::vector<EditBatch> batches;
};

/// Table Edit Distance Batch (Algorithm 2). Groups the edit path's ops by
/// edit type, generates candidate batches as maximal chains under each
/// geometric pattern, finalizes greedily by descending batch size
/// (singletons complete the cover), and sums each batch's mean cost.
///
/// On the paper's worked example (Figure 9/10) this compacts path costs
/// 12 / 9 / 18 to 4 / 3 / 6, as our tests assert.
///
/// The work runs in per-thread scratch shared with TedBatchCost, so only
/// the returned batches are allocated once that scratch has grown to the
/// path's length.
///
/// `cancel` (optional, not owned) is polled before each Table 4 pattern's
/// chain scan of a type group, so a deadline interrupts the batching
/// mid-path. A result computed under a fired token is garbage (cost forced
/// to kInfiniteCost, batches empty) — callers must check the token before
/// using or caching it.
TedBatchResult BatchEditPath(const EditPath& path,
                             const CancellationToken* cancel = nullptr);

/// GreedyTed + BatchEditPath's cover, summed without building batches:
/// the TED Batch heuristic value. Allocates nothing once the calling
/// thread's scratch has grown to the tables' size. Returns kInfiniteCost
/// when the greedy TED is infeasible, or when `cancel` fires
/// mid-computation (the caller distinguishes the two by checking the
/// token).
double TedBatchCost(const Table& input, const Table& output,
                    const CancellationToken* cancel = nullptr);

}  // namespace foofah

#endif  // FOOFAH_HEURISTIC_TED_BATCH_H_
