#include "ops/row_io.h"

#include <utility>

namespace foofah {

namespace {

// The resident-bytes estimate of stored rows: each cell's bytes plus its
// string object, and per row the vector plus the row handle.
constexpr uint64_t CellBytes(size_t size) { return size + sizeof(std::string); }
constexpr uint64_t kRowBytes = sizeof(Table::Row) + sizeof(void*);

}  // namespace

Status RowSink::AppendCell(std::string_view) {
  return Status::Internal("this sink takes whole rows");
}

Status RowSink::EndRow() {
  return Status::Internal("this sink takes whole rows");
}

Status TableSource::Scan(RowFn on_row, FunctionRef<uint64_t()>) {
  thread_local std::vector<std::string_view> views;
  // Never a null array, even for an empty row: ScannedRow matches on
  // the array's address.
  if (views.capacity() == 0) views.reserve(16);
  Status status;
  for (row_ = 0; row_ < table_.num_rows() && status.ok(); ++row_) {
    const Table::Row& row = table_.row(row_);
    views.assign(row.begin(), row.end());
    cells_ = views.data();
    num_cells_ = views.size();
    status = on_row(cells_, num_cells_);
  }
  cells_ = nullptr;
  return status;
}

Status TableSink::Push(const std::string_view* cells, size_t num_cells) {
  if (share_from_ != nullptr) {
    if (Table::RowHandle row = share_from_->ScannedRow(cells, num_cells)) {
      for (const std::string& cell : *row) bytes_ += CellBytes(cell.size());
      bytes_ += kRowBytes;
      table_.AppendSharedRow(std::move(row));
      return Status();
    }
  }
  Table::Row row;
  row.reserve(num_cells);
  for (size_t c = 0; c < num_cells; ++c) {
    row.emplace_back(cells[c]);
    bytes_ += CellBytes(cells[c].size());
  }
  bytes_ += kRowBytes;
  table_.AppendRow(std::move(row));
  return Status();
}

Status TableSink::AppendCell(std::string_view cell) {
  // Rows of one output mostly share a width: size a new row like the
  // last one.
  if (open_row_.capacity() == 0) open_row_.reserve(last_width_);
  open_row_.emplace_back(cell);
  bytes_ += CellBytes(cell.size());
  return Status();
}

Status TableSink::EndRow() {
  last_width_ = open_row_.size();
  bytes_ += kRowBytes;
  table_.AppendRow(std::move(open_row_));
  open_row_ = Table::Row();
  return Status();
}

Table TableSink::Take() {
  Table out = std::move(table_);
  table_ = Table();
  open_row_ = Table::Row();
  last_width_ = 0;
  bytes_ = 0;
  return out;
}

}  // namespace foofah
