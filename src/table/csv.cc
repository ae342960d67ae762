#include "table/csv.h"

#include <string>
#include <utility>
#include <vector>

#include "table/csv_stream.h"

namespace foofah {

namespace {

constexpr size_t kRowsPerChunk = 4096;

Result<Table> ReadTable(CsvChunkReader* reader) {
  std::vector<Table::Row> rows;
  CsvChunk chunk;
  for (;;) {
    Result<bool> got = reader->ReadChunk(kRowsPerChunk, &chunk);
    if (!got.ok()) return got.status();
    if (!got.value()) break;
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      const CsvRowView row = chunk.row(r);
      rows.emplace_back(row.cells, row.cells + row.num_cells);
    }
  }
  return Table(std::move(rows));
}

Status WriteTable(const Table& table, CsvChunkWriter* writer) {
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (const std::string& cell : table.row(r)) {
      Status status = writer->WriteCell(cell);
      if (!status.ok()) return status;
    }
    Status status = writer->EndRow();
    if (!status.ok()) return status;
  }
  return writer->Close();
}

}  // namespace

Result<Table> ParseCsv(std::string_view text, const CsvOptions& options) {
  // A buffer as large as the text parses it in place.
  CsvChunkReader reader(text, options, text.size());
  return ReadTable(&reader);
}

std::string ToCsv(const Table& table, const CsvOptions& options) {
  std::string out;
  CsvChunkWriter writer(&out, options);
  WriteTable(table, &writer);  // A string sink cannot fail.
  return out;
}

Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options) {
  CsvChunkReader reader(path, options);
  return ReadTable(&reader);
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options) {
  CsvChunkWriter writer(path, options);
  return WriteTable(table, &writer);
}

}  // namespace foofah
