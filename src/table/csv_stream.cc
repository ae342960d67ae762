#include "table/csv_stream.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/fault_injection.h"

namespace foofah {

namespace {

std::string AtPosition(uint64_t line, uint64_t col) {
  return "line " + std::to_string(line) + ", column " + std::to_string(col);
}

// Word-at-a-time search: each mask marks the bytes of `word` equal to
// one byte value. A mask can also mark bytes above the first true match
// (the subtraction's borrow), never below it, so on a little-endian host
// the lowest marked byte of the union is the first match.
constexpr uint64_t kOnes = 0x0101010101010101ull;
constexpr uint64_t kHighBits = 0x8080808080808080ull;
constexpr bool kLittleEndian = std::endian::native == std::endian::little;

constexpr uint64_t Broadcast(char c) {
  return kOnes * static_cast<unsigned char>(c);
}

constexpr uint64_t Matches(uint64_t word, uint64_t pattern) {
  const uint64_t x = word ^ pattern;
  return (x - kOnes) & ~x & kHighBits;
}

}  // namespace

CsvChunkReader::CsvChunkReader(const std::string& path, CsvOptions options,
                               size_t io_buffer_bytes)
    : options_(options) {
  capacity_ = std::max<size_t>(io_buffer_bytes, 1);
  buffer_ = std::make_unique_for_overwrite<char[]>(capacity_);
  data_ = buffer_.get();
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    open_status_ = Status::NotFound("cannot open file: " + path);
  }
}

CsvChunkReader::CsvChunkReader(std::string_view text, CsvOptions options,
                               size_t io_buffer_bytes)
    : options_(options), text_(text), any_bytes_(!text.empty()) {
  if (io_buffer_bytes >= text.size()) {
    data_ = text.data();
    fill_ = text.size();
    source_eof_ = true;
    return;
  }
  capacity_ = std::max<size_t>(io_buffer_bytes, 1);
  buffer_ = std::make_unique_for_overwrite<char[]>(capacity_);
  data_ = buffer_.get();
}

CsvChunkReader::~CsvChunkReader() {
  if (file_ != nullptr) std::fclose(file_);
}

void CsvChunkReader::Refill() {
  if (source_eof_) return;
  if (pos_ > 0) {
    std::memmove(buffer_.get(), buffer_.get() + pos_, fill_ - pos_);
    base_ += pos_;
    fill_ -= pos_;
    pos_ = 0;
  }
  while (fill_ < capacity_ && !source_eof_) {
    size_t got;
    if (file_ != nullptr) {
      got = std::fread(buffer_.get() + fill_, 1, capacity_ - fill_, file_);
      if (got > 0) any_bytes_ = true;
      source_eof_ = got == 0;
    } else {
      got = std::min(capacity_ - fill_, text_.size() - text_pos_);
      std::memcpy(buffer_.get() + fill_, text_.data() + text_pos_, got);
      text_pos_ += got;
      source_eof_ = text_pos_ == text_.size();
    }
    fill_ += got;
  }
}

void CsvChunkReader::Grow() {
  auto bigger = std::make_unique_for_overwrite<char[]>(capacity_ * 2);
  std::memcpy(bigger.get(), buffer_.get(), fill_);
  buffer_ = std::move(bigger);
  capacity_ *= 2;
  data_ = buffer_.get();
}

size_t CsvChunkReader::FindStop(size_t p, char a, char b, char c) const {
  if constexpr (kLittleEndian) {
    const uint64_t as = Broadcast(a), bs = Broadcast(b), cs = Broadcast(c);
    for (; p + 8 <= fill_; p += 8) {
      uint64_t word;
      std::memcpy(&word, data_ + p, 8);
      const uint64_t hits = Matches(word, as) | Matches(word, bs) |
                            Matches(word, cs) | Matches(word, 0);
      if (hits != 0) return p + std::countr_zero(hits) / 8;
    }
  }
  for (; p < fill_; ++p) {
    const char x = data_[p];
    if (x == a || x == b || x == c || x == '\0') break;
  }
  return p;
}

std::string CsvChunkReader::AtOffset(size_t p) const {
  return AtPosition(line_, base_ + p - line_start_ + 1);
}

CsvChunkReader::Step CsvChunkReader::Fail(Status status) {
  error_ = std::move(status);
  finished_ = true;
  return Step::kError;
}

// Parses the record at pos_ into `chunk`. kNeedMore leaves the chunk,
// pos_ and the line counters as they were, so the record is parsed again
// from its start once more bytes are buffered.
CsvChunkReader::Step CsvChunkReader::ParseRecord(CsvChunk* chunk) {
  const size_t end = fill_;
  size_t p = pos_;
  if (p == end) return source_eof_ ? Step::kEnd : Step::kNeedMore;

  const char quote = options_.quote;
  const char delimiter = options_.delimiter;
  const size_t cap = options_.max_cell_bytes;
  const uint64_t record_line = line_;
  const uint64_t record_line_start = line_start_;
  const size_t first_cell = chunk->cells_.size();
  auto need_more = [&] {
    chunk->cells_.resize(first_cell);
    line_ = record_line;
    line_start_ = record_line_start;
    return Step::kNeedMore;
  };
  auto over_cap = [cap](size_t bytes) { return cap != 0 && bytes > cap; };
  auto cap_error = [&](const std::string& cell_start) {
    return Fail(Status::ParseError("cell starting at " + cell_start +
                                   " exceeds max_cell_bytes (" +
                                   std::to_string(cap) + ")"));
  };

  for (;;) {
    std::string_view cell;
    size_t q;  // The byte that ends the cell, or `end`.
    if (p == end || data_[p] != quote) {
      q = FindStop(p, delimiter, '\n', '\r');
      if (over_cap(q - p)) return cap_error(AtOffset(p));
      if (q == end && !source_eof_) return need_more();
      cell = std::string_view(data_ + p, q - p);
    } else {
      // A quoted cell: content runs to the closing quote; a doubled
      // quote is one quote of content, and LF starts a new line.
      const size_t open = p;
      const uint64_t open_line = line_;
      const uint64_t open_line_start = line_start_;
      auto open_at = [&] {
        return AtPosition(open_line, base_ + open - open_line_start + 1);
      };
      size_t content = 0;     // Cell bytes so far.
      size_t seg = open + 1;  // Start of the bytes not yet in scratch_.
      bool escaped = false;   // Content is being assembled in scratch_.
      p = open + 1;
      for (;;) {
        q = FindStop(p, quote, '\n', '\n');
        if (over_cap(content + (q - p))) return cap_error(open_at());
        content += q - p;
        if (q == end) {
          if (!source_eof_) return need_more();
          return Fail(Status::ParseError(
              "unterminated quoted cell in CSV input (quote opened at " +
              open_at() + ")"));
        }
        if (data_[q] == '\0') {
          return Fail(Status::ParseError("embedded NUL byte at " +
                                         AtOffset(q)));
        }
        if (data_[q] == '\n') {
          if (over_cap(content + 1)) return cap_error(open_at());
          ++content;
          ++line_;
          line_start_ = base_ + q + 1;
          p = q + 1;
          continue;
        }
        // A quote: doubled, or closing. One byte of lookahead decides.
        if (q + 1 == end && !source_eof_) return need_more();
        if (q + 1 == end || data_[q + 1] != quote) break;
        if (over_cap(content + 1)) return cap_error(open_at());
        ++content;
        if (!escaped) scratch_.clear();
        escaped = true;
        scratch_.append(data_ + seg, q + 1 - seg);
        seg = q + 2;
        p = q + 2;
      }
      const size_t close = q;
      // Bytes after the closing quote, up to the cell's end, join the
      // cell. When the quoted part was empty, the cell is reported as
      // starting at the first of them.
      p = close + 1;
      q = FindStop(p, delimiter, '\n', '\r');
      if (over_cap(content + (q - p))) {
        return cap_error(content == 0 ? AtOffset(p) : open_at());
      }
      if (q == end && !source_eof_) return need_more();
      if (q > p || escaped) {
        if (!escaped) scratch_.clear();
        scratch_.append(data_ + seg, close - seg);
        scratch_.append(data_ + p, q - p);
        cell = arena_.CopyString(scratch_);
      } else {
        cell = std::string_view(data_ + open + 1, close - open - 1);
      }
    }

    if (q < end && data_[q] == '\0') {
      return Fail(Status::ParseError("embedded NUL byte at " + AtOffset(q)));
    }
    if (q < end && data_[q] == '\r' && q + 1 == end && !source_eof_) {
      return need_more();  // CR or CRLF: one byte of lookahead decides.
    }
    chunk->cells_.push_back(cell);
    if (q < end && data_[q] == delimiter) {
      p = q + 1;
      continue;
    }
    chunk->rows_.push_back(
        CsvChunk::RowSpan{first_cell, chunk->cells_.size() - first_cell});
    if (q == end) {  // The input ends without a record terminator.
      pos_ = end;
      finished_ = true;
      return Step::kRecord;
    }
    // LF, CRLF, or a lone CR ends the record and the line.
    size_t next = q + 1;
    if (data_[q] == '\r' && next < end && data_[next] == '\n') ++next;
    ++line_;
    line_start_ = base_ + next;
    pos_ = next;
    return Step::kRecord;
  }
}

Result<bool> CsvChunkReader::ReadChunk(size_t max_rows, CsvChunk* chunk) {
  if (!open_status_.ok()) return open_status_;
  if (!error_.ok()) return error_;

  chunk->cells_.clear();
  chunk->rows_.clear();
  arena_.Reset();
  if (finished_) return false;

  while (!finished_ && chunk->rows_.size() < max_rows) {
    Step step = ParseRecord(chunk);
    if (step == Step::kRecord) continue;
    if (step == Step::kError) return error_;
    if (step == Step::kEnd) {
      // Input ends after a record terminator: no further record, unless
      // the trailing newline is kept as one empty cell.
      if (!options_.ignore_trailing_newline && any_bytes_) {
        chunk->rows_.push_back(CsvChunk::RowSpan{chunk->cells_.size(), 1});
        chunk->cells_.push_back(std::string_view());
      }
      finished_ = true;
      break;
    }
    // The next record runs past the buffered bytes. Hand out the complete
    // ones first: compacting the buffer would move the bytes they view.
    if (!chunk->rows_.empty()) break;
    arena_.Reset();
    if (pos_ == 0 && fill_ == capacity_) Grow();
    Refill();
  }
  return !chunk->rows_.empty();
}

size_t CsvChunkReader::buffered_bytes() const {
  return capacity_ + scratch_.capacity() + arena_.bytes_reserved();
}

// ---------------------------------------------------------------------------

namespace {

bool NeedsQuoting(std::string_view cell, const CsvOptions& options) {
  for (char c : cell) {
    if (c == options.delimiter || c == options.quote || c == '\n' ||
        c == '\r') {
      return true;
    }
  }
  return false;
}

}  // namespace

CsvChunkWriter::CsvChunkWriter(const std::string& path, CsvOptions options,
                               size_t buffer_bytes)
    : options_(options), path_(path), buffer_bytes_(buffer_bytes) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    status_ = Status::Unavailable("cannot open file for writing: " + path);
  }
  buffer_.reserve(buffer_bytes_);
}

// Appends in place: there is nothing to stage, so nothing ever flushes.
CsvChunkWriter::CsvChunkWriter(std::string* out, CsvOptions options)
    : options_(options),
      out_(out),
      out_start_(out->size()),
      sink_(out),
      buffer_bytes_(SIZE_MAX) {}

CsvChunkWriter::~CsvChunkWriter() {
  if (!closed_) Close();
}

void CsvChunkWriter::AppendCellLocked(std::string_view cell) {
  std::string& sink = *sink_;
  if (cells_in_row_ > 0) sink += options_.delimiter;
  ++cells_in_row_;
  if (NeedsQuoting(cell, options_)) {
    sink += options_.quote;
    for (char ch : cell) {
      sink += ch;
      if (ch == options_.quote) sink += options_.quote;
    }
    sink += options_.quote;
  } else {
    sink.append(cell.data(), cell.size());
  }
}

Status CsvChunkWriter::WriteRow(const std::string_view* cells,
                                size_t num_cells) {
  if (!status_.ok()) return status_;
  if (closed_) return Status::Internal("write after Close: " + path_);
  for (size_t c = 0; c < num_cells; ++c) AppendCellLocked(cells[c]);
  cells_in_row_ = 0;
  *sink_ += '\n';
  if (sink_->size() >= buffer_bytes_) return FlushLocked();
  return Status::OK();
}

Status CsvChunkWriter::WriteCell(std::string_view cell) {
  if (!status_.ok()) return status_;
  if (closed_) return Status::Internal("write after Close: " + path_);
  AppendCellLocked(cell);
  if (sink_->size() >= buffer_bytes_) return FlushLocked();
  return Status::OK();
}

Status CsvChunkWriter::EndRow() {
  if (!status_.ok()) return status_;
  if (closed_) return Status::Internal("write after Close: " + path_);
  cells_in_row_ = 0;
  *sink_ += '\n';
  if (sink_->size() >= buffer_bytes_) return FlushLocked();
  return Status::OK();
}

Status CsvChunkWriter::FlushLocked() {
  if (!status_.ok()) return status_;
  if (out_ != nullptr) {
    bytes_written_ = out_->size() - out_start_;
    return Status::OK();
  }
  if (buffer_.empty()) return Status::OK();
  // Injected short write: a full disk accepts part of the buffer and
  // errors — the typed failure must latch exactly as the real one.
  size_t written = FOOFAH_FAULT_FAIL(fault_points::kCsvStreamWrite)
                       ? buffer_.size() / 2
                       : std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
  if (written != buffer_.size()) {
    status_ = Status::Unavailable("write failed: " + path_);
    return status_;
  }
  // Push the bytes through stdio so disk-full errors surface at this
  // flush, not silently at close.
  if (std::fflush(file_) != 0) {
    status_ = Status::Unavailable("write failed: " + path_);
    return status_;
  }
  bytes_written_ += buffer_.size();
  buffer_.clear();
  return Status::OK();
}

Status CsvChunkWriter::Flush() { return FlushLocked(); }

Status CsvChunkWriter::Close() {
  if (closed_) return status_;
  Status flushed = FlushLocked();
  closed_ = true;
  if (file_ != nullptr) {
    if (std::fclose(file_) != 0 && status_.ok()) {
      status_ = Status::Unavailable("write failed: " + path_);
    }
    file_ = nullptr;
  }
  return status_.ok() ? flushed : status_;
}

}  // namespace foofah
