#ifndef FOOFAH_TABLE_CSV_STREAM_H_
#define FOOFAH_TABLE_CSV_STREAM_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "table/csv.h"
#include "util/arena.h"
#include "util/status.h"

namespace foofah {

/// The CSV layer's one parser and one writer. CsvChunkReader scans
/// input in runs and hands out each cell as a view into its I/O buffer;
/// ParseCsv and ReadCsvFile (table/csv.h) are loops over it, as ToCsv
/// and WriteCsvFile are over CsvChunkWriter. The streaming exec backend
/// (src/exec/) uses both directly to pass multi-GB files through a
/// fixed-size window.
///
/// Every failure is a typed ParseError with the line/column of the
/// offending byte: an embedded NUL, the opening quote of an unterminated
/// cell, or the start of a cell longer than CsvOptions::max_cell_bytes.
/// When the input has several, the first in byte order is reported.
/// tests/csv_stream_test.cc checks rows and messages against a
/// byte-at-a-time transcription of the earlier state machine, at buffer
/// and chunk sizes down to one.

/// One parsed record: a span of cell views. Views point into the
/// reader's I/O buffer or per-chunk arena and are valid until the next
/// ReadChunk call on the same reader (or its destruction).
struct CsvRowView {
  const std::string_view* cells = nullptr;
  size_t num_cells = 0;

  size_t size() const { return num_cells; }
  std::string_view operator[](size_t i) const { return cells[i]; }
};

/// Reusable storage for one chunk of parsed rows. ReadChunk rewinds and
/// refills it; steady-state reading performs no per-chunk heap growth.
class CsvChunk {
 public:
  size_t num_rows() const { return rows_.size(); }
  CsvRowView row(size_t r) const {
    const RowSpan& span = rows_[r];
    return CsvRowView{cells_.data() + span.first, span.count};
  }

  /// Approximate heap footprint of the container spine (cell bytes are
  /// accounted by the owning reader).
  size_t buffered_bytes() const {
    return cells_.capacity() * sizeof(std::string_view) +
           rows_.capacity() * sizeof(RowSpan);
  }

 private:
  friend class CsvChunkReader;
  struct RowSpan {
    size_t first;
    size_t count;
  };
  std::vector<std::string_view> cells_;
  std::vector<RowSpan> rows_;
};

/// Incremental CSV reader: pulls bytes through an I/O buffer and yields
/// up to N records per ReadChunk call. It finds the next byte that
/// matters (outside quotes a delimiter, CR, LF or NUL; inside quotes a
/// quote, LF or NUL) and takes the run before it in one step, so a cell
/// is a view into the buffer. Only a cell with doubled quotes, or with
/// bytes after its closing quote, is assembled in a per-chunk arena.
///
/// A record never straddles chunks: a chunk ends early, with fewer than
/// N rows, when the next record does not fit in the buffered bytes. The
/// buffer is compacted and refilled only before a chunk's first record,
/// so no view of the chunk moves, and grows only for a record wider than
/// it. Memory is max(io buffer, widest record) plus the chunk spine and
/// the escaped cells; it never scales with file size. A warm ReadChunk
/// over unquoted input allocates nothing.
class CsvChunkReader {
 public:
  static constexpr size_t kDefaultIoBufferBytes = 256u << 10;

  /// Reads from a file. Open failures surface as NotFound from the first
  /// ReadChunk.
  explicit CsvChunkReader(const std::string& path, CsvOptions options = {},
                          size_t io_buffer_bytes = kDefaultIoBufferBytes);

  /// The earlier (path, options, intern_cells) form, with a default-sized
  /// buffer: nothing is interned any more, and the flag is ignored. Only
  /// perfbench/src/apply.cc:151 still calls it; the template keeps a
  /// `bool` from converting to io_buffer_bytes. Remove with the next
  /// benchmark change.
  template <typename Flag,
            typename = std::enable_if_t<std::is_same_v<Flag, bool>>>
  CsvChunkReader(const std::string& path, CsvOptions options,
                 Flag /*intern_cells*/)
      : CsvChunkReader(path, options) {}

  /// Reads from an in-memory buffer which must outlive the reader. A
  /// buffer of at least `text.size()` bytes (ParseCsv passes exactly
  /// that) parses the text in place, without a copy; a smaller one pulls
  /// the text through it as a file would be read (tests use this to put
  /// buffer boundaries anywhere).
  explicit CsvChunkReader(std::string_view text, CsvOptions options = {},
                          size_t io_buffer_bytes = kDefaultIoBufferBytes);

  ~CsvChunkReader();
  CsvChunkReader(const CsvChunkReader&) = delete;
  CsvChunkReader& operator=(const CsvChunkReader&) = delete;

  /// Parses up to `max_rows` records into `*chunk` (storage reused;
  /// previous contents and views invalidated). Returns true when at least
  /// one row was produced, false at clean end of input. Errors are
  /// terminal and repeat on subsequent calls.
  Result<bool> ReadChunk(size_t max_rows, CsvChunk* chunk);

  /// Input bytes consumed so far: the offset just past the last record
  /// handed out.
  uint64_t bytes_consumed() const { return base_ + pos_; }

  /// Resident memory held by the reader (I/O buffer, escaped-cell
  /// storage) — fed into the exec backend's memory gauge.
  size_t buffered_bytes() const;

 private:
  enum class Step { kRecord, kNeedMore, kEnd, kError };

  void Refill();  ///< Compacts the unconsumed bytes, then tops up.
  void Grow();    ///< Doubles the buffer for a record wider than it.
  Step ParseRecord(CsvChunk* chunk);
  /// The first byte at or after `p` equal to `a`, `b`, `c` or NUL, or
  /// fill_ when there is none.
  size_t FindStop(size_t p, char a, char b, char c) const;
  std::string AtOffset(size_t p) const;
  Step Fail(Status status);

  CsvOptions options_;

  // Source: a file, or text pulled through the buffer, or text parsed in
  // place (data_ points into it and the source starts at EOF).
  std::FILE* file_ = nullptr;
  std::string_view text_;
  size_t text_pos_ = 0;
  Status open_status_;

  std::unique_ptr<char[]> buffer_;
  size_t capacity_ = 0;
  const char* data_ = nullptr;  ///< buffer_.get(), or the in-place text.
  size_t pos_ = 0;   ///< Start of the next record in data_.
  size_t fill_ = 0;  ///< Valid bytes in data_.
  uint64_t base_ = 0;  ///< Input offset of data_[0].
  bool source_eof_ = false;
  bool finished_ = false;  ///< Final record emitted (or error latched).
  bool any_bytes_ = false;
  Status error_;  ///< Terminal parse error, repeated forever.

  // Diagnostics: the current line's number and input offset of its first
  // byte. A column is an offset minus line_start_, computed only when an
  // error message is built.
  uint64_t line_ = 1;
  uint64_t line_start_ = 0;

  std::string scratch_;  ///< Assembles one escaped cell.
  Arena arena_;          ///< Escaped cells of the current chunk.
};

/// Buffered CSV writer, the one behind ToCsv and WriteCsvFile: cells
/// containing the delimiter, the quote character, or newlines are quoted
/// with doubled-quote escapes, rows end in '\n'.
///
/// I/O failures (open, short write, close) are typed kUnavailable,
/// latched on first occurrence — a full disk surfaces as an error, never
/// a silent truncation. The csv/stream_write fault point simulates a
/// short write at each file flush.
class CsvChunkWriter {
 public:
  static constexpr size_t kDefaultBufferBytes = 256u << 10;

  /// Writes to a file (created/truncated). Open failures surface from
  /// the first WriteRow/Flush.
  explicit CsvChunkWriter(const std::string& path, CsvOptions options = {},
                          size_t buffer_bytes = kDefaultBufferBytes);

  /// Appends to an in-memory string (ToCsv, tests), in place: nothing is
  /// staged, so buffered_bytes() is 0. `out` must outlive the writer.
  explicit CsvChunkWriter(std::string* out, CsvOptions options = {});

  /// Flushes and closes quietly; call Close() first to observe errors.
  ~CsvChunkWriter();
  CsvChunkWriter(const CsvChunkWriter&) = delete;
  CsvChunkWriter& operator=(const CsvChunkWriter&) = delete;

  Status WriteRow(const std::string_view* cells, size_t num_cells);
  Status WriteRow(const CsvRowView& row) {
    return WriteRow(row.cells, row.num_cells);
  }

  /// Incremental row assembly for producers whose rows are too wide to
  /// hold as a cell array (the spill executor's streamed Transpose):
  /// WriteCell appends one cell to the open row, EndRow terminates it.
  /// Byte-identical to a single WriteRow over the same cells; the
  /// buffer may flush mid-row, so an open row never accumulates.
  Status WriteCell(std::string_view cell);
  Status EndRow();

  Status Flush();
  /// Flushes and closes the file; further writes are an error.
  Status Close();

  uint64_t bytes_written() const { return bytes_written_; }
  size_t buffered_bytes() const { return buffer_.capacity(); }

 private:
  Status FlushLocked();
  void AppendCellLocked(std::string_view cell);

  CsvOptions options_;
  std::FILE* file_ = nullptr;
  std::string* out_ = nullptr;
  size_t out_start_ = 0;  ///< out_->size() when the writer was made.
  std::string path_;
  Status status_;
  bool closed_ = false;
  size_t cells_in_row_ = 0;  ///< Cells of the currently open row.
  std::string buffer_;       ///< File sink: bytes not yet flushed.
  std::string* sink_ = &buffer_;  ///< Where cells go: buffer_ or *out_.
  size_t buffer_bytes_ = kDefaultBufferBytes;
  uint64_t bytes_written_ = 0;
};

}  // namespace foofah

#endif  // FOOFAH_TABLE_CSV_STREAM_H_
