#include "exec/plan.h"

#include <algorithm>

#include "ops/operators.h"

namespace foofah {
namespace exec {

namespace {

// Rebuilding operators produce an empty table from an empty table, and
// Table's width invariant pins an empty table's width to 0.
Shape Rectangular(uint64_t rows, uint64_t cols) {
  Shape s;
  s.rows = rows;
  s.cols = rows > 0 ? cols : 0;
  return s;
}

}  // namespace

std::optional<Shape> PropagateShape(const Operation& op, const Shape& in) {
  switch (op.op) {
    case OpCode::kDrop:
    case OpCode::kMerge:
      // Row-rebuilding: every output row has exactly W-1 stored cells
      // (Drop/Merge iterate the full padded width and remove one/two
      // columns, appending Merge's glued cell).
      return Rectangular(in.rows, in.cols - 1);
    case OpCode::kMove:
      // Move pads each row to W before rearranging.
      return Rectangular(in.rows, in.cols);
    case OpCode::kCopy:
    case OpCode::kSplit:
    case OpCode::kDivide:
    case OpCode::kExtract:
      // One column becomes two (or one is appended): padded to W+1.
      return Rectangular(in.rows, in.cols + 1);
    case OpCode::kFill:
      // Copy-on-write on the input table: stored widths are preserved
      // except rows extended to col+1 <= W, so num_cols is unchanged.
      return Shape{in.rows, in.cols};
    case OpCode::kFold: {
      // Each data row emits (W - first_col) rows of width
      // first_col + header? + 1; the header row (when folded with a
      // header) is consumed, not emitted.
      const uint64_t hdr = op.int_param != 0 ? 1 : 0;
      const uint64_t data_rows = in.rows > hdr ? in.rows - hdr : 0;
      const uint64_t emitted_per_row =
          in.cols > static_cast<uint64_t>(op.col1)
              ? in.cols - static_cast<uint64_t>(op.col1)
              : 0;
      return Rectangular(data_rows * emitted_per_row,
                         static_cast<uint64_t>(op.col1) + hdr + 1);
    }
    case OpCode::kWrapEvery: {
      // Groups of k padded rows concatenate into one row of
      // group_size * W stored cells; the widest group has
      // min(k, rows) rows.
      const uint64_t k = static_cast<uint64_t>(op.int_param);
      const uint64_t groups = (in.rows + k - 1) / k;
      return Rectangular(groups, std::min(k, in.rows) * in.cols);
    }
    case OpCode::kDelete:
    case OpCode::kDeleteRow:
      // Survivors keep their stored (possibly ragged) widths, and the
      // result's num_cols is recomputed from them — dropping the widest
      // row narrows the relation. Data-dependent: measure.
      return std::nullopt;
    case OpCode::kUnfold:
    case OpCode::kTranspose:
    case OpCode::kWrapColumn:
    case OpCode::kWrapAll:
    case OpCode::kSplitAll:
      // Blocking operators never reach shape propagation: the plan cuts
      // the streaming prefix before the first one.
      return std::nullopt;
  }
  return std::nullopt;
}

size_t StreamingPrefixLength(const Program& program) {
  for (size_t i = 0; i < program.size(); ++i) {
    if (StreamabilityOf(program.operation(i).op) == Streamability::kBlocking) {
      return i;
    }
  }
  return program.size();
}

Result<std::vector<StepPlan>> ResolveStreamingShapes(const Program& program,
                                                     size_t prefix_len,
                                                     const Shape& input,
                                                     const MeasureFn& measure) {
  std::vector<StepPlan> steps;
  steps.reserve(prefix_len);
  Shape shape = input;
  for (size_t i = 0; i < prefix_len; ++i) {
    const Operation& op = program.operation(i);
    Status valid = ValidateOperation(op, static_cast<size_t>(shape.cols),
                                     static_cast<size_t>(shape.rows));
    if (!valid.ok()) return valid;

    StepPlan step;
    step.op = op;
    step.strategy = StreamabilityOf(op.op);
    step.in = shape;
    std::optional<Shape> out = PropagateShape(op, shape);
    if (out.has_value()) {
      step.out = *out;
      steps.push_back(step);
    } else {
      steps.push_back(step);
      Result<Shape> measured = measure(steps);
      if (!measured.ok()) return measured.status();
      steps.back().out = *measured;
      steps.back().out_measured = true;
    }
    shape = steps.back().out;
  }
  return steps;
}

}  // namespace exec
}  // namespace foofah
