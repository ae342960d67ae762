#include "table/csv_stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "table/csv.h"
#include "table/table.h"
#include "testing/alloc_count.h"
#include "util/rng.h"

namespace foofah {
namespace {

using Rows = std::vector<std::vector<std::string>>;

std::string AtPosition(size_t line, size_t col) {
  return "line " + std::to_string(line) + ", column " + std::to_string(col);
}

// The oracle: a byte-at-a-time transcription of the reader that scanning
// in runs replaced. One state-machine step per byte, every cell copied
// into a string, line and column advanced on every byte, and the text
// pulled through an `io_buffer`-byte window (pinned to >= 2 bytes for
// the one-byte lookahead) that is refilled whenever it runs dry.
class OracleReader {
 public:
  OracleReader(std::string_view text, CsvOptions options, size_t io_buffer)
      : options_(options),
        text_(text),
        buffer_(std::max<size_t>(io_buffer, 2)) {}

  // Appends up to `max_rows` records to `*rows`; false at clean end of
  // input. Errors are terminal and repeat.
  Result<bool> ReadChunk(size_t max_rows, Rows* rows) {
    if (!error_.ok()) return error_;
    if (finished_) return false;
    const char quote = options_.quote;
    const char delimiter = options_.delimiter;
    size_t produced = 0;
    auto emit_cell = [&] {
      row_.push_back(cell_);
      cell_.clear();
    };
    auto emit_row = [&] {
      rows->push_back(std::move(row_));
      row_.clear();
      row_started_ = false;
      ++produced;
    };
    auto over_cap = [&] {
      return options_.max_cell_bytes != 0 &&
             cell_.size() > options_.max_cell_bytes;
    };
    auto cap_error = [&] {
      return Fail(Status::ParseError(
          "cell starting at " + AtPosition(cell_line_, cell_col_) +
          " exceeds max_cell_bytes (" +
          std::to_string(options_.max_cell_bytes) + ")"));
    };
    auto start_next_cell = [&] {
      cell_line_ = line_;
      cell_col_ = col_;
    };

    while (produced < max_rows) {
      if (pos_ >= fill_) {
        if (!source_eof_) Refill();
        if (pos_ >= fill_ && source_eof_) break;
        if (pos_ >= fill_) continue;
      }
      const char c = buffer_[pos_];
      if (c == '\0') {
        return Fail(Status::ParseError("embedded NUL byte at " +
                                       AtPosition(line_, col_)));
      }
      if (in_quotes_) {
        if (c == quote) {
          if (pos_ + 1 >= fill_ && !source_eof_) {
            Refill();
            continue;
          }
          if (pos_ + 1 < fill_ && buffer_[pos_ + 1] == quote) {
            cell_ += quote;
            if (over_cap()) return cap_error();
            Advance(quote);
            Advance(quote);
            continue;
          }
          in_quotes_ = false;
          Advance(c);
          continue;
        }
        cell_ += c;
        if (over_cap()) return cap_error();
        Advance(c);
        continue;
      }
      if (c == quote && cell_.empty()) {
        in_quotes_ = true;
        row_started_ = true;
        quote_line_ = cell_line_ = line_;
        quote_col_ = cell_col_ = col_;
        Advance(c);
        continue;
      }
      if (c == delimiter) {
        emit_cell();
        row_started_ = true;
        Advance(c);
        start_next_cell();
        continue;
      }
      if (c == '\r') {
        if (pos_ + 1 >= fill_ && !source_eof_) {
          Refill();
          continue;
        }
        ++pos_;
        ++col_;
        if (pos_ >= fill_ || buffer_[pos_] != '\n') {
          emit_cell();
          emit_row();
          ++line_;
          col_ = 1;
          start_next_cell();
        }
        continue;
      }
      if (c == '\n') {
        emit_cell();
        emit_row();
        Advance(c);
        start_next_cell();
        continue;
      }
      if (cell_.empty()) start_next_cell();
      cell_ += c;
      if (over_cap()) return cap_error();
      row_started_ = true;
      Advance(c);
    }

    if (source_eof_ && pos_ >= fill_ && produced < max_rows) {
      if (in_quotes_) {
        return Fail(Status::ParseError(
            "unterminated quoted cell in CSV input (quote opened at " +
            AtPosition(quote_line_, quote_col_) + ")"));
      }
      if (row_started_ || !cell_.empty() || !row_.empty()) {
        emit_cell();
        emit_row();
      } else if (!options_.ignore_trailing_newline && !text_.empty()) {
        emit_cell();
        emit_row();
      }
      finished_ = true;
    }
    return produced > 0;
  }

 private:
  void Refill() {
    const size_t leftover = fill_ - pos_;
    std::copy(buffer_.begin() + pos_, buffer_.begin() + fill_,
              buffer_.begin());
    pos_ = 0;
    fill_ = leftover;
    const size_t got =
        std::min(buffer_.size() - fill_, text_.size() - text_pos_);
    std::copy_n(text_.data() + text_pos_, got, buffer_.begin() + fill_);
    text_pos_ += got;
    fill_ += got;
    if (got == 0) source_eof_ = true;
  }

  void Advance(char c) {
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  Result<bool> Fail(Status status) {
    error_ = status;
    return error_;
  }

  CsvOptions options_;
  std::string_view text_;
  size_t text_pos_ = 0;
  std::vector<char> buffer_;
  size_t pos_ = 0, fill_ = 0;
  bool source_eof_ = false, finished_ = false;
  Status error_;
  bool in_quotes_ = false, row_started_ = false;
  std::string cell_;
  std::vector<std::string> row_;
  size_t line_ = 1, col_ = 1;
  size_t cell_line_ = 1, cell_col_ = 1;
  size_t quote_line_ = 1, quote_col_ = 1;
};

// Every row a reader hands out, and how it stopped (OK at clean end).
struct Outcome {
  Rows rows;
  Status status;
};

Outcome ReadWithOracle(std::string_view text, const CsvOptions& options,
                       size_t io_buffer, size_t max_rows) {
  OracleReader reader(text, options, io_buffer);
  Outcome out;
  for (;;) {
    Result<bool> got = reader.ReadChunk(max_rows, &out.rows);
    if (!got.ok()) {
      out.status = got.status();
      return out;
    }
    if (!got.value()) return out;
  }
}

Outcome ReadChunked(std::string_view text, size_t io_buffer, size_t max_rows,
                    const CsvOptions& options = {}) {
  CsvChunkReader reader(text, options, io_buffer);
  CsvChunk chunk;
  Outcome out;
  for (;;) {
    Result<bool> got = reader.ReadChunk(max_rows, &chunk);
    if (!got.ok()) {
      out.status = got.status();
      Result<bool> again = reader.ReadChunk(max_rows, &chunk);
      EXPECT_EQ(again.status().ToString(), out.status.ToString());
      return out;
    }
    if (!got.value()) return out;
    EXPECT_GE(chunk.num_rows(), 1u);
    EXPECT_LE(chunk.num_rows(), max_rows);
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      const CsvRowView row = chunk.row(r);
      out.rows.emplace_back(row.cells, row.cells + row.size());
    }
  }
}

std::string Describe(std::string_view text) {
  std::string out;
  for (unsigned char c : text) {
    if (c >= 0x20 && c < 0x7f && c != '\\') {
      out += static_cast<char>(c);
    } else {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\x%02x", c);
      out += hex;
    }
  }
  return out;
}

void ExpectSameOutcome(const Outcome& got, const Outcome& want,
                       const Rows& rows_before_error) {
  if (!want.status.ok()) {
    ASSERT_FALSE(got.status.ok()) << "expected " << want.status.ToString();
    EXPECT_EQ(got.status.code(), want.status.code());
    EXPECT_EQ(got.status.message(), want.status.message());
    // The rows handed out before the error are complete rows the oracle
    // also parses ahead of it.
    ASSERT_LE(got.rows.size(), rows_before_error.size());
    for (size_t r = 0; r < got.rows.size(); ++r) {
      EXPECT_EQ(got.rows[r], rows_before_error[r]) << "row " << r;
    }
    return;
  }
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  EXPECT_EQ(got.rows, want.rows);
}

// The contract under test: for any byte sequence, buffer size and chunk
// size, the reader yields exactly the oracle's rows, or fails with the
// same typed Status (code and message, positions included). ParseCsv,
// a loop over the reader, must agree too.
void ExpectEquivalent(std::string_view text, CsvOptions options = {}) {
  SCOPED_TRACE("text=\"" + Describe(text) + "\"");
  const Outcome whole =
      ReadWithOracle(text, options, text.size() + 1, SIZE_MAX);
  const Rows rows_before_error = ReadWithOracle(text, options, 2, 1).rows;
  Result<Table> parsed = ParseCsv(text, options);
  if (!whole.status.ok()) {
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), whole.status.code());
    EXPECT_EQ(parsed.status().message(), whole.status.message());
  } else {
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    Rows rows;
    for (size_t r = 0; r < parsed->num_rows(); ++r) {
      rows.push_back(parsed->row(r));
    }
    EXPECT_EQ(rows, whole.rows);
  }
  for (size_t io_buffer : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                           size_t{64}, size_t{4096},
                           CsvChunkReader::kDefaultIoBufferBytes}) {
    for (size_t max_rows : {1u, 2u, 1000u}) {
      SCOPED_TRACE("io_buffer=" + std::to_string(io_buffer) +
                   " max_rows=" + std::to_string(max_rows));
      const Outcome want = ReadWithOracle(text, options, io_buffer, max_rows);
      ASSERT_EQ(want.status.ToString(), whole.status.ToString());
      ExpectSameOutcome(ReadChunked(text, io_buffer, max_rows, options), want,
                        rows_before_error);
    }
  }
}

TEST(CsvStreamEquivalenceTest, SimpleGrid) {
  ExpectEquivalent("a,b,c\nd,e,f\ng,h,i\n");
}

TEST(CsvStreamEquivalenceTest, RaggedRowsAndEmptyCells) {
  ExpectEquivalent("a,,c\nd\n,,\nx,y\n");
}

TEST(CsvStreamEquivalenceTest, QuotedCellsSpanningBufferBoundaries) {
  // Quoted delimiters, embedded newlines, escaped quotes — with a
  // 1-byte I/O buffer every record outgrows the buffer.
  ExpectEquivalent("\"a,b\",\"c\nd\"\n\"say \"\"hi\"\"\",plain\n");
}

TEST(CsvStreamEquivalenceTest, CrLfAndLoneCr) {
  ExpectEquivalent("a,b\r\nc,d\r\n");
  // A lone CR terminates the record.
  ExpectEquivalent("a,b\rc,d\n");
  ExpectEquivalent("a\r");
  ExpectEquivalent("a\r\r\nb");
}

TEST(CsvStreamEquivalenceTest, TrailingNewlineHandling) {
  ExpectEquivalent("a,b\nc,d");
  ExpectEquivalent("a,b\nc,d\n");
  CsvOptions keep;
  keep.ignore_trailing_newline = false;
  ExpectEquivalent("a,b\nc,d\n", keep);
  ExpectEquivalent("a,b\nc,d", keep);
  ExpectEquivalent("\n", keep);
  ExpectEquivalent("", keep);
}

TEST(CsvStreamEquivalenceTest, EmptyAndDegenerateInputs) {
  ExpectEquivalent("");
  ExpectEquivalent("\n");
  ExpectEquivalent("\n\n\n");
  ExpectEquivalent(",");
  ExpectEquivalent("\"\"");
  ExpectEquivalent("x");
}

TEST(CsvStreamEquivalenceTest, QuoteOnlyOpensAtCellStart) {
  // A quote mid-cell is literal content.
  ExpectEquivalent("ab\"cd,e\n");
  ExpectEquivalent("a\"\"b\n");
}

TEST(CsvStreamEquivalenceTest, BytesAfterClosingQuoteJoinTheCell) {
  ExpectEquivalent("\"ab\"cd,\"\"x\"y\n");
  ExpectEquivalent("\"a\"\"b\"c\"d\",e\r\n");
  CsvOptions capped;
  capped.max_cell_bytes = 3;
  // The cap counts the quoted part and the bytes after it; when the
  // quoted part is empty, the cell is reported as starting after it.
  ExpectEquivalent("x,\"ab\"cd\n", capped);
  ExpectEquivalent("x,\"\"abcd\n", capped);
  ExpectEquivalent("x,\"a\"\"b\"\"c\"\n", capped);
}

// --- Adversarial inputs: exact positional diagnostics --------------------

TEST(CsvStreamAdversarialTest, EmbeddedNulReportsItsPosition) {
  std::string text = "ok,row\nbad";
  text.push_back('\0');
  text += "cell\n";
  ExpectEquivalent(text);
  Outcome r = ReadChunked(text, 4, 1000);
  EXPECT_EQ(r.status.code(), StatusCode::kParseError);
  EXPECT_EQ(r.status.message(), "embedded NUL byte at line 2, column 4");
}

TEST(CsvStreamAdversarialTest, UnterminatedQuoteReportsOpeningPosition) {
  std::string text = "a,b\nc,\"unclosed...\nmore";
  ExpectEquivalent(text);
  Outcome r = ReadChunked(text, 3, 2);
  EXPECT_EQ(r.status.code(), StatusCode::kParseError);
  EXPECT_EQ(r.status.message(),
            "unterminated quoted cell in CSV input (quote opened at line 2, "
            "column 3)");
}

TEST(CsvStreamAdversarialTest, OverlongCellReportsItsStart) {
  CsvOptions options;
  options.max_cell_bytes = 8;
  std::string text = "short,this cell is far too long\n";
  ExpectEquivalent(text, options);
  Outcome r = ReadChunked(text, 4, 1000, options);
  EXPECT_EQ(r.status.code(), StatusCode::kParseError);
  EXPECT_EQ(r.status.message(),
            "cell starting at line 1, column 7 exceeds max_cell_bytes (8)");
}

TEST(CsvStreamAdversarialTest, FirstErrorInByteOrderWins) {
  CsvOptions options;
  options.max_cell_bytes = 4;
  // The cap is exceeded at the fifth byte, before the NUL.
  std::string cap_first = "a,abcdef";
  cap_first.push_back('\0');
  ExpectEquivalent(cap_first, options);
  // The NUL comes first when the cell is still under the cap.
  std::string nul_first = "a,abc";
  nul_first.push_back('\0');
  nul_first += "defgh\n";
  ExpectEquivalent(nul_first, options);
  // Inside quotes, past a newline.
  std::string quoted = "a\n\"x\nyz";
  quoted.push_back('\0');
  ExpectEquivalent(quoted, options);
  ExpectEquivalent("a\n\"x\nyzzz", options);
  std::string quoted_cap_first = "a\n\"xyzzy";
  quoted_cap_first.push_back('\0');
  ExpectEquivalent(quoted_cap_first, options);
}

TEST(CsvStreamAdversarialTest, ErrorsAreTerminalAndRepeat) {
  std::string text = "a\n\"unclosed";
  CsvChunkReader reader{std::string_view(text)};
  CsvChunk chunk;
  Result<bool> first = reader.ReadChunk(1000, &chunk);
  ASSERT_FALSE(first.ok());
  Result<bool> second = reader.ReadChunk(1000, &chunk);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(first.status().message(), second.status().message());
}

// --- Property sweep against the oracle -----------------------------------

// Random byte strings weighted toward the bytes the reader treats
// specially under any of the option variants, plus multi-byte UTF-8.
std::string RandomBytes(Lcg& rng) {
  static const char* const kPieces[] = {
      ",", ",", "\"", "\"", "\"\"", "\r", "\n", "\n", "\r\n", ";", "'",
      "a", "b", "xy", " ", "\xc3\xa9", "\xe2\x82\xac", "\xf0\x9f\x98\x80"};
  constexpr size_t kNumPieces = sizeof(kPieces) / sizeof(kPieces[0]);
  // Mostly short strings; some run past the 64-byte buffer.
  const size_t pieces = rng.Chance(25) ? 40 + rng.Next(80) : rng.Next(24);
  std::string text;
  for (size_t i = 0; i < pieces; ++i) {
    if (rng.Chance(2)) {
      text.push_back('\0');
    } else {
      text += kPieces[rng.Next(kNumPieces)];
    }
  }
  return text;
}

// Mostly well-formed CSV under `options`: plain, quoted and escaped
// cells, CRLF or lone-CR endings, and now and then one stray byte.
std::string RandomRecords(Lcg& rng, const CsvOptions& options) {
  static const char* const kWords[] = {
      "", "a", "bc", "d e", "\xc3\xa9t\xc3\xa9", "12345", "xyzzy-long-cell"};
  static const char* const kEnds[] = {"\n", "\n", "\r\n", "\r"};
  static const char kStray[] = {',', ';', '"', '\'', '\r', '\n', '\0', 'q'};
  const std::string q(1, options.quote);
  std::string text;
  const size_t rows = rng.Next(12);
  for (size_t r = 0; r < rows; ++r) {
    const size_t cells = 1 + rng.Next(4);
    for (size_t c = 0; c < cells; ++c) {
      if (c > 0) text += options.delimiter;
      std::string word = kWords[rng.Next(7)];
      switch (rng.Next(4)) {
        case 0:
          text += q + word + q;
          break;
        case 1:
          text += q + word + q + q + "\n" + word + q;
          break;
        case 2:
          text += q + word + q + "tail";
          break;
        default:
          text += word;
      }
    }
    if (r + 1 < rows || rng.Chance(50)) text += kEnds[rng.Next(4)];
  }
  if (!text.empty() && rng.Chance(20)) {
    text.insert(text.begin() + rng.Next(static_cast<uint32_t>(text.size())),
                kStray[rng.Next(sizeof(kStray))]);
  }
  return text;
}

std::vector<CsvOptions> OptionVariants() {
  std::vector<CsvOptions> variants(4);
  variants[1].delimiter = ';';
  variants[2].quote = '\'';
  variants[3].ignore_trailing_newline = false;
  for (size_t cap = 1; cap <= 8; ++cap) {
    CsvOptions capped;
    capped.max_cell_bytes = cap;
    variants.push_back(capped);
  }
  CsvOptions all;
  all.delimiter = ';';
  all.quote = '\'';
  all.ignore_trailing_newline = false;
  all.max_cell_bytes = 5;
  variants.push_back(all);
  return variants;
}

class CsvOracleSweep : public ::testing::TestWithParam<int> {};

TEST_P(CsvOracleSweep, MatchesOracle) {
  Lcg rng(0xC5F00D + static_cast<uint64_t>(GetParam()));
  const std::vector<CsvOptions> variants = OptionVariants();
  for (int i = 0; i < 20; ++i) {
    for (size_t v = 0; v < variants.size(); ++v) {
      SCOPED_TRACE("variant=" + std::to_string(v));
      const std::string bytes = RandomBytes(rng);
      ExpectEquivalent(bytes, variants[v]);
      const std::string records = RandomRecords(rng, variants[v]);
      ExpectEquivalent(records, variants[v]);
      if (HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvOracleSweep, ::testing::Range(0, 40));

// --- Reader mechanics ----------------------------------------------------

TEST(CsvStreamReaderTest, RowsNeverStraddleChunks) {
  CsvChunkReader reader{std::string_view("a,b\nc,d\ne,f\n")};
  CsvChunk chunk;
  Result<bool> got = reader.ReadChunk(2, &chunk);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got.value());
  EXPECT_EQ(chunk.num_rows(), 2u);
  EXPECT_EQ(chunk.row(0)[0], "a");
  EXPECT_EQ(chunk.row(1)[1], "d");
  got = reader.ReadChunk(2, &chunk);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(chunk.num_rows(), 1u);
  EXPECT_EQ(chunk.row(0)[0], "e");
  got = reader.ReadChunk(2, &chunk);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value());
}

TEST(CsvStreamReaderTest, CellsAreViewsIntoTheText) {
  const std::string text = "ab,\"c,d\",\"e\"\"f\"\n";
  CsvChunkReader reader{std::string_view(text)};
  CsvChunk chunk;
  ASSERT_TRUE(reader.ReadChunk(10, &chunk).ok());
  const CsvRowView row = chunk.row(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].data(), text.data());
  EXPECT_EQ(row[1].data(), text.data() + 4);  // Quoted, no escapes.
  EXPECT_EQ(row[1], "c,d");
  EXPECT_EQ(row[2], "e\"f");  // Escaped: assembled in the chunk's arena.
  EXPECT_TRUE(row[2].data() < text.data() ||
              row[2].data() >= text.data() + text.size());
}

TEST(CsvStreamReaderTest, ChunkEndsEarlyWhenTheNextRecordDoesNotFit) {
  // An 8-byte buffer holds the first record exactly; the second record
  // waits for the next call even though max_rows allows more.
  CsvChunkReader reader(std::string_view("aaa,bbb\nccc,ddd\n"), CsvOptions{},
                        8);
  CsvChunk chunk;
  Result<bool> got = reader.ReadChunk(1000, &chunk);
  ASSERT_TRUE(got.ok() && got.value());
  ASSERT_EQ(chunk.num_rows(), 1u);
  EXPECT_EQ(chunk.row(0)[1], "bbb");
  EXPECT_EQ(reader.bytes_consumed(), 8u);
  got = reader.ReadChunk(1000, &chunk);
  ASSERT_TRUE(got.ok() && got.value());
  ASSERT_EQ(chunk.num_rows(), 1u);
  EXPECT_EQ(chunk.row(0)[0], "ccc");
}

TEST(CsvStreamReaderTest, BufferGrowsOnlyForAWiderRecord) {
  const std::string wide(1000, 'w');
  const std::string text = "a,b\n" + wide + "\nc,d\n";
  CsvChunkReader reader(std::string_view(text), CsvOptions{}, 16);
  EXPECT_LT(reader.buffered_bytes(), 64u);
  Outcome out;
  CsvChunk chunk;
  for (;;) {
    Result<bool> got = reader.ReadChunk(1000, &chunk);
    ASSERT_TRUE(got.ok());
    if (!got.value()) break;
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      out.rows.emplace_back(chunk.row(r).cells,
                            chunk.row(r).cells + chunk.row(r).size());
    }
  }
  EXPECT_EQ(out.rows, (Rows{{"a", "b"}, {wide}, {"c", "d"}}));
  EXPECT_GE(reader.buffered_bytes(), wide.size() + 1);
  EXPECT_LT(reader.buffered_bytes(), 2 * (wide.size() + 1) + 64);
}

TEST(CsvStreamReaderTest, WarmReadChunkOverUnquotedInputAllocatesNothing) {
  std::string text;
  for (int i = 0; i < 2000; ++i) {
    text += 'C';
    text += std::to_string(i % 400);
    text += ",red,2015-03-12,alpha,Oslo\n";
  }
  // A buffer smaller than the text, so chunks also end at refills.
  CsvChunkReader reader(std::string_view(text), CsvOptions{}, 4096);
  CsvChunk chunk;
  ASSERT_TRUE(reader.ReadChunk(64, &chunk).ok());  // Sizes the chunk spine.
  const uint64_t before = testing::ThreadAllocations();
  uint64_t rows = chunk.num_rows();
  for (;;) {
    Result<bool> got = reader.ReadChunk(64, &chunk);
    ASSERT_TRUE(got.ok());
    if (!got.value()) break;
    rows += chunk.num_rows();
  }
  EXPECT_EQ(testing::ThreadAllocations() - before, 0u);
  EXPECT_EQ(rows, 2000u);
  EXPECT_EQ(reader.bytes_consumed(), text.size());
}

TEST(CsvStreamReaderTest, MissingFileIsNotFound) {
  CsvChunkReader reader(std::string("/nonexistent/foofah.csv"));
  CsvChunk chunk;
  Result<bool> got = reader.ReadChunk(10, &chunk);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(got.status().message(),
            "cannot open file: /nonexistent/foofah.csv");
}

TEST(CsvStreamReaderTest, FileSourceMatchesTextSource) {
  const std::string text = "a,\"b\nc\"\r\nd,e\rf\n";
  const std::string path = ::testing::TempDir() + "/csv_stream_reader_test.csv";
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  std::fwrite(text.data(), 1, text.size(), file);
  std::fclose(file);
  for (size_t io_buffer : {size_t{1}, size_t{5}, size_t{4096}}) {
    CsvChunkReader reader(path, CsvOptions{}, io_buffer);
    CsvChunk chunk;
    Rows rows;
    for (;;) {
      Result<bool> got = reader.ReadChunk(2, &chunk);
      ASSERT_TRUE(got.ok());
      if (!got.value()) break;
      for (size_t r = 0; r < chunk.num_rows(); ++r) {
        rows.emplace_back(chunk.row(r).cells,
                          chunk.row(r).cells + chunk.row(r).size());
      }
    }
    EXPECT_EQ(rows, ReadChunked(text, 4096, 1000).rows);
    EXPECT_EQ(reader.bytes_consumed(), text.size());
  }
  std::remove(path.c_str());
}

TEST(CsvStreamReaderTest, BytesConsumedTracksInput) {
  std::string text = "a,b\nc,d\n";
  CsvChunkReader reader{std::string_view(text)};
  CsvChunk chunk;
  while (true) {
    Result<bool> got = reader.ReadChunk(1, &chunk);
    ASSERT_TRUE(got.ok());
    if (!got.value()) break;
  }
  EXPECT_EQ(reader.bytes_consumed(), text.size());
}

// --- Writer --------------------------------------------------------------

std::string WriteRows(const std::vector<std::vector<std::string>>& rows) {
  std::string written;
  CsvChunkWriter writer(&written);
  std::vector<std::string_view> views;
  for (const std::vector<std::string>& row : rows) {
    views.assign(row.begin(), row.end());
    EXPECT_TRUE(writer.WriteRow(views.data(), views.size()).ok());
  }
  EXPECT_TRUE(writer.Close().ok());
  return written;
}

TEST(CsvStreamWriterTest, QuotesCellsWithDelimiterQuoteOrLineBreak) {
  EXPECT_EQ(WriteRows({{"plain", "with,comma"},
                       {"with\"quote", "with\nnewline"},
                       {"with\rreturn", ""},
                       {"", "trailing"}}),
            "plain,\"with,comma\"\n"
            "\"with\"\"quote\",\"with\nnewline\"\n"
            "\"with\rreturn\",\n"
            ",trailing\n");
}

TEST(CsvStreamWriterTest, RaggedRowsWriteStoredCellsOnly) {
  EXPECT_EQ(WriteRows({{"a", "b", "c"}, {"d"}, {}, {"e", "f"}}),
            "a,b,c\nd\n\ne,f\n");
}

TEST(CsvStreamWriterTest, RoundTripsThroughReader) {
  Table table({{"a,b", "c\nd"}, {"say \"hi\"", "plain"}});
  std::string written;
  {
    CsvChunkWriter writer(&written);
    std::vector<std::string_view> views;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      views.clear();
      for (const std::string& cell : table.row(r)) views.push_back(cell);
      ASSERT_TRUE(writer.WriteRow(views.data(), views.size()).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
  }
  Result<Table> back = ParseCsv(written);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ContentEquals(table));
}

TEST(CsvStreamWriterTest, FileVariantWritesAndReports) {
  std::string path = ::testing::TempDir() + "/csv_stream_writer_test.csv";
  {
    CsvChunkWriter writer(path);
    std::vector<std::string_view> cells = {"x", "y"};
    ASSERT_TRUE(writer.WriteRow(cells.data(), cells.size()).ok());
    ASSERT_TRUE(writer.Close().ok());
    EXPECT_EQ(writer.bytes_written(), 4u);  // "x,y\n"
  }
  Result<Table> back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->cell(0, 1), "y");
  std::remove(path.c_str());
}

TEST(CsvStreamWriterTest, UnwritablePathIsUnavailable) {
  CsvChunkWriter writer(std::string("/nonexistent/dir/out.csv"));
  std::vector<std::string_view> cells = {"x"};
  Status status = writer.WriteRow(cells.data(), cells.size());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(status.message(),
            "cannot open file for writing: /nonexistent/dir/out.csv");
  Status whole = WriteCsvFile(Table({{"x"}}), "/nonexistent/dir/out.csv");
  EXPECT_EQ(whole.ToString(), status.ToString());
}

}  // namespace
}  // namespace foofah
