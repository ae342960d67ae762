#ifndef FOOFAH_OPS_OPERATORS_H_
#define FOOFAH_OPS_OPERATORS_H_

#include <cstddef>
#include <regex>
#include <string>
#include <string_view>

#include "ops/operation.h"
#include "ops/row_io.h"
#include "table/table.h"
#include "util/status.h"

namespace foofah {

/// Applies one parameterized operation to `input`, returning the transformed
/// table or an InvalidArgument status when the parameters are outside the
/// operator's domain (bad column index, k < 2 for WrapEvery, malformed
/// regex, ...).
///
/// All operators are *total* over their parameter domain: an operation with
/// valid parameters always succeeds, even when it produces a useless result
/// (e.g., Split with an absent delimiter yields an empty right column;
/// Unfold with nulls in the header column yields ""-named columns, the
/// broken Figure 4 situation). Usefulness filtering is the job of the
/// pruning rules (§4.3), which must be able to observe these states for the
/// Figure 12b ablation.
///
/// Semantics follow Appendix A with two documented deviations:
///  - Split and Divide place their result columns *in place of* the source
///    column rather than appending them at the end. This matches the
///    worked example of Figures 9-10 (whose edit-path costs 12/9/18 are
///    reproduced in our tests) and Wrangler's behaviour; Appendix A's
///    formula appends, contradicting the paper's own figure.
///  - Unfold emits a header row whose key-column cells are empty and whose
///    new-column cells are the unique header values, as in Figure 2.
///
/// Runs the one definition of the operator (RunOperation) over the
/// table, into a TableSink. Rows the operator leaves unchanged (Delete,
/// DeleteRow, Fill on a set cell) are shared with `input`, not copied.
Result<Table> ApplyOperation(const Table& input, const Operation& operation);

/// Runs `operation` over `input` into `output`: the single definition of
/// each operator, shared by every row source (a Table, the executor's
/// CSV stream and its relation, in memory or spilled). `operation` must
/// be valid for `input`'s shape (ValidateOperation). Row-local operators
/// push each row through their kernel (ops/row_kernels.h); the blocking
/// ones (Unfold, Transpose, WrapColumn, WrapAll, SplitAll) scan `input`
/// as often as they need. Transpose reads a source that is a Table in
/// place, one column at a time, and any other in column tiles. Fails
/// only on a failure of the source or sink.
Status RunOperation(const Operation& operation, RowSource& input,
                    RowSink& output);

/// Validates `operation`'s parameters against a table shape WITHOUT
/// executing it: returns exactly the Status ApplyOperation would return
/// for a table with `num_cols` columns and `num_rows` rows, OK when the
/// operation would execute. ApplyOperation routes through this, and the
/// streaming exec runner (src/exec/) calls it against its symbolically
/// propagated intermediate shapes — one shared predicate, so the two
/// execution backends can never drift on domain errors or their
/// messages. For Extract this compiles (and caches) the regex, so
/// malformed patterns are reported here.
Status ValidateOperation(const Operation& operation, size_t num_cols,
                         size_t num_rows);

/// The process-wide compiled-regex cache behind Extract (reader/writer
/// locked; entries are never invalidated). Returns a pointer valid for
/// the process lifetime, or InvalidArgument for a malformed pattern.
/// Shared by ValidateOperation and the Extract kernel, so every path
/// compiles a pattern exactly once.
Result<const std::regex*> CompileCachedRegex(const std::string& regex);

/// Evaluates a Divide predicate on one cell value.
bool EvalDividePredicate(DividePredicate predicate, std::string_view value);

}  // namespace foofah

#endif  // FOOFAH_OPS_OPERATORS_H_
