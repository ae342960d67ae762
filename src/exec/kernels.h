#ifndef FOOFAH_EXEC_KERNELS_H_
#define FOOFAH_EXEC_KERNELS_H_

#include <cstdint>
#include <memory>
#include <string_view>

#include "exec/plan.h"
#include "ops/operation.h"
#include "ops/row_io.h"
#include "ops/row_kernels.h"
#include "table/csv_stream.h"
#include "util/status.h"

namespace foofah {
namespace exec {

/// The push-model row consumer the plan compiler chains into a
/// pipeline: the operators' own sink interface (ops/row_io.h).
using RowSink = foofah::RowSink;

/// Builds the kernel implementing streaming/windowed `op` over inputs
/// of shape `in`, pushing transformed rows into `next` (not owned;
/// must outlive the kernel). The kernel is the operator's one
/// definition (ops/row_kernels.h), the same code ApplyOperation runs.
/// `op` must already be validated against `in` (ValidateOperation).
/// Fails for blocking operators, which the plan never routes here.
inline Result<std::unique_ptr<RowSink>> MakeKernel(const Operation& op,
                                                   const Shape& in,
                                                   RowSink* next) {
  return MakeRowKernel(op, static_cast<size_t>(in.cols), next);
}

/// Terminal sink recording the observed output shape (row count and
/// max stored width) — the measuring pass behind width-dynamic
/// operators (Delete, DeleteRow).
class MeasureSink : public RowSink {
 public:
  Status Push(const std::string_view* cells, size_t num_cells) override {
    (void)cells;
    ++shape_.rows;
    if (num_cells > shape_.cols) shape_.cols = num_cells;
    return Status();
  }
  Status Finish() override { return Status(); }

  const Shape& shape() const { return shape_; }

 private:
  Shape shape_;
};

/// Terminal sink writing rows to the output CSV, whole (Push) or cell by
/// cell (AppendCell/EndRow: the writer may flush mid-row, so a row of
/// any width stays O(buffer)). Counts the rows written.
class CsvSink : public RowSink {
 public:
  explicit CsvSink(CsvChunkWriter* writer) : writer_(writer) {}

  Status Push(const std::string_view* cells, size_t num_cells) override {
    ++rows_;
    return writer_->WriteRow(cells, num_cells);
  }
  Status AppendCell(std::string_view cell) override {
    return writer_->WriteCell(cell);
  }
  Status EndRow() override {
    ++rows_;
    return writer_->EndRow();
  }
  Status Finish() override { return Status(); }
  uint64_t bytes_buffered() const override { return writer_->buffered_bytes(); }

  uint64_t rows() const { return rows_; }

 private:
  CsvChunkWriter* writer_;
  uint64_t rows_ = 0;
};

}  // namespace exec
}  // namespace foofah

#endif  // FOOFAH_EXEC_KERNELS_H_
