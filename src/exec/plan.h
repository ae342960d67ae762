#ifndef FOOFAH_EXEC_PLAN_H_
#define FOOFAH_EXEC_PLAN_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "ops/operation.h"
#include "ops/registry.h"
#include "program/program.h"
#include "util/status.h"

namespace foofah {
namespace exec {

/// Plan compilation for the streaming executor (see runner.h for the
/// entry points). A synthesized Program is compiled against the *shape*
/// of the input relation — never its contents — into a pipeline of
/// row kernels (kernels.h) covering the longest streamable prefix,
/// optionally followed by a materialized suffix for blocking operators.
/// Kernels and the suffix run the operators' own definitions
/// (ops/operators.h), the code Program::Execute runs.
///
/// Byte-identity contract: the executor's output must equal
/// ToCsv(Program::Execute(ParseCsv(bytes))) byte for byte. Because
/// ToCsv writes exactly each row's STORED cells (ragged rows print
/// fewer cells), the plan must reproduce not just cell contents but the
/// stored width of every intermediate row — which is why shapes are
/// first-class here.

/// The logical shape of a relation between pipeline stages: `cols` is
/// Table::num_cols() (the width of the widest stored row) and `rows` is
/// Table::num_rows(). Inherits Table's width invariant: rows == 0
/// implies cols == 0.
struct Shape {
  uint64_t rows = 0;
  uint64_t cols = 0;

  friend bool operator==(const Shape& a, const Shape& b) {
    return a.rows == b.rows && a.cols == b.cols;
  }
  friend bool operator!=(const Shape& a, const Shape& b) { return !(a == b); }
};

/// Symbolically computes the output shape of `op` applied to a relation
/// of shape `in`, or nullopt when the output width cannot be known
/// without looking at the data: Delete drops the rows whose cell is
/// null and DeleteRow may remove the unique widest row — both can
/// narrow the relation, and Table::num_cols() tracks the stored width
/// exactly (never a stale over-approximation). Width-dynamic steps are
/// resolved by a measuring pass over the real input instead.
///
/// `op` must already be valid for `in` (ValidateOperation). The
/// transition table mirrors the kernels' padding behavior (the
/// operators' stored-row widths); the differential tests enforce that
/// the two agree.
std::optional<Shape> PropagateShape(const Operation& op, const Shape& in);

/// Length of the maximal program prefix executable as a streaming
/// pipeline: every operation up to (excluding) the first one whose
/// StreamabilityOf is kBlocking. Operations at and after that index run
/// over the materialized relation (exec/spill.h): the blocking operator
/// must see every row before it can emit, and may scan them again.
size_t StreamingPrefixLength(const Program& program);

/// One resolved streaming step.
struct StepPlan {
  Operation op;
  Streamability strategy = Streamability::kStreaming;
  Shape in;
  Shape out;
  bool out_measured = false;  ///< Width came from a measuring pass.
};

/// Callback running a measuring pass: streams the whole input through
/// the kernels of `steps` (the resolved plan so far; the LAST step is
/// the width-dynamic one being measured — its `in` shape is set, its
/// `out` is not) and returns the observed output shape (row count, max
/// stored row width).
using MeasureFn =
    std::function<Result<Shape>(const std::vector<StepPlan>& steps)>;

/// Validates and shape-resolves the streaming prefix in program order.
/// Each operation is checked with the shared ValidateOperation
/// predicate against the shape it will receive — the identical check
/// the Table executor performs step by step at execution time — so an
/// invalid program fails here with the exact same Status before any
/// output is written. Width-dynamic steps invoke `measure` (there is
/// one measuring pass per Delete/DeleteRow in the prefix, each cheaper
/// than the last since row-dropping only shrinks the relation).
Result<std::vector<StepPlan>> ResolveStreamingShapes(const Program& program,
                                                     size_t prefix_len,
                                                     const Shape& input,
                                                     const MeasureFn& measure);

}  // namespace exec
}  // namespace foofah

#endif  // FOOFAH_EXEC_PLAN_H_
