#ifndef FOOFAH_OPS_ROW_IO_H_
#define FOOFAH_OPS_ROW_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "table/table.h"
#include "util/function_ref.h"
#include "util/status.h"

namespace foofah {

/// Where every operator writes its output, and the unit the streaming
/// executor chains kernels with. A row is pushed as its STORED cells:
/// the same stored lengths the Table would keep, because ToCsv writes
/// exactly the stored cells and ragged rows must stay ragged. Cell views
/// are valid only for the duration of the call; a sink that keeps rows
/// must copy them.
class RowSink {
 public:
  RowSink() = default;
  RowSink(const RowSink&) = delete;
  RowSink& operator=(const RowSink&) = delete;
  virtual ~RowSink() = default;

  virtual Status Push(const std::string_view* cells, size_t num_cells) = 0;

  /// End of input: flush any buffered window downstream, then cascade
  /// Finish to the next sink. Called exactly once, after the last row.
  virtual Status Finish() = 0;

  /// The cell-at-a-time form of Push, for producers of rows too wide to
  /// hold (the blocking operators): AppendCell for each cell, then
  /// EndRow. Only sinks that a blocking operator writes into (TableSink,
  /// the executor's relation builder and CSV writer) override these; the
  /// default fails.
  virtual Status AppendCell(std::string_view cell);
  virtual Status EndRow();

  /// Resident bytes the sink holds, for the executor's memory gauge.
  virtual uint64_t bytes_buffered() const { return 0; }
};

/// The cell `c` of a stored row of `n` cells, "" past its end: the
/// padding Table::cell performs for ragged rows.
inline std::string_view PaddedCell(const std::string_view* cells, size_t n,
                                   size_t c) {
  return c < n ? cells[c] : std::string_view();
}

/// The per-row callback of a scan.
using RowFn = FunctionRef<Status(const std::string_view* cells,
                                 size_t num_cells)>;

/// A relation an operator reads: its shape, and a scan that replays its
/// rows in order, any number of times. Sources: a Table (rescans cost
/// nothing), and the executor's relation, which may be a spilled run on
/// disk (exec/spill.h).
class RowSource {
 public:
  RowSource() = default;
  RowSource(const RowSource&) = delete;
  RowSource& operator=(const RowSource&) = delete;
  virtual ~RowSource() = default;

  /// Table::num_rows() and Table::num_cols() of the relation.
  virtual uint64_t num_rows() const = 0;
  virtual uint64_t num_cols() const = 0;

  /// Pushes every row's stored cells, in order, to `on_row` (views valid
  /// during the call). `held` reports the bytes the caller keeps
  /// resident between rows — its own state plus its sink's buffer — for
  /// a source that charges them to a memory budget.
  virtual Status Scan(RowFn on_row, FunctionRef<uint64_t()> held) = 0;

  /// The rows as a resident Table, which an operator may read in place;
  /// null for a source that can only be scanned.
  virtual const Table* table() const { return nullptr; }

  /// Bytes an operator may hold resident at once (Transpose's column
  /// tiles), and the bytes one scan reads (to size those tiles).
  virtual uint64_t tile_budget() const { return UINT64_MAX; }
  virtual uint64_t scan_bytes() const { return 0; }
};

/// A Table as a RowSource.
class TableSource : public RowSource {
 public:
  explicit TableSource(const Table& table) : table_(table) {}

  uint64_t num_rows() const override { return table_.num_rows(); }
  uint64_t num_cols() const override { return table_.num_cols(); }
  const Table* table() const override { return &table_; }

  /// Scans in place, with per-thread scratch for the row's cell views
  /// (scans on one thread must not nest); never charges `held`.
  Status Scan(RowFn on_row, FunctionRef<uint64_t()> held) override;

  /// The handle of the row being scanned when `cells` is that row's own
  /// view array, i.e. a kernel passed the row through unchanged; null
  /// otherwise. TableSink shares such rows instead of copying them.
  Table::RowHandle ScannedRow(const std::string_view* cells,
                              size_t num_cells) const {
    if (cells != cells_ || num_cells != num_cells_ || cells_ == nullptr) {
      return nullptr;
    }
    return table_.row_handle(row_);
  }

 private:
  const Table& table_;
  const std::string_view* cells_ = nullptr;  ///< Null outside a scan.
  size_t num_cells_ = 0;
  size_t row_ = 0;
};

/// The one Table builder: collects rows into a Table with their exact
/// stored widths, and counts the resident bytes they take.
class TableSink : public RowSink {
 public:
  /// Rows that `share_from` is scanning and that reach Push unchanged
  /// are appended by handle, so copy-on-write sharing survives the
  /// operator (Delete, DeleteRow, Fill on a set cell).
  explicit TableSink(const TableSource* share_from = nullptr)
      : share_from_(share_from) {}

  Status Push(const std::string_view* cells, size_t num_cells) override;
  Status AppendCell(std::string_view cell) override;
  Status EndRow() override;
  Status Finish() override { return Status(); }

  /// Approximate heap bytes of the rows held, the open row included.
  uint64_t bytes_buffered() const override { return bytes_; }

  void ReserveRows(size_t rows) { table_.ReserveRows(rows); }

  /// The rows ended so far, and the cells appended since the last EndRow.
  const Table& table() const { return table_; }
  const Table::Row& open_row() const { return open_row_; }

  /// Hands over the table and starts empty again.
  Table Take();

 private:
  const TableSource* share_from_;
  Table table_;
  Table::Row open_row_;
  size_t last_width_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace foofah

#endif  // FOOFAH_OPS_ROW_IO_H_
