#ifndef FOOFAH_OPS_ROW_KERNELS_H_
#define FOOFAH_OPS_ROW_KERNELS_H_

#include <cstddef>
#include <memory>

#include "ops/operation.h"
#include "ops/row_io.h"
#include "util/status.h"

namespace foofah {

/// The row-local operators (Drop, Move, Copy, Merge, Split, Fold, Fill,
/// Divide, Delete, Extract, DeleteRow, WrapEvery) are kernels: a kernel
/// receives one row's stored cells, pads a short row to the input width,
/// and pushes its output row(s) on. A row it forwards unchanged is the
/// very array it received, so a TableSink can share the input row.
/// `operation` must be valid for the input's shape (ValidateOperation).

/// Runs row-local `operation` over `input` into `output`, with the kernel
/// on the stack and per-thread scratch for its output row. Fails for the
/// blocking operators.
Status RunRowKernel(const Operation& operation, RowSource& input,
                    RowSink& output);

/// The kernel of row-local `operation` on the heap, with scratch of its
/// own, over rows of width `width`, pushing into `next` (not owned; must
/// outlive the kernel): a link of the streaming executor's chains. Fails
/// for the blocking operators.
Result<std::unique_ptr<RowSink>> MakeRowKernel(const Operation& operation,
                                               size_t width, RowSink* next);

}  // namespace foofah

#endif  // FOOFAH_OPS_ROW_KERNELS_H_
