#include "ops/operators.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <locale>
#include <map>
#include <memory>
#include <mutex>
#include <regex>
#include <shared_mutex>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "ops/row_kernels.h"
#include "util/fault_injection.h"
#include "util/string_util.h"

namespace foofah {

namespace {

// libstdc++'s classic-locale ctype<char> facet fills its narrow()/widen()
// caches lazily and without synchronization, and std::regex compilation
// drives both. When several pool workers hit a pattern's first
// compilation at once (the cache below admits that on purpose — compiles
// run outside the lock), the lazy fills race on the shared global facet.
// Touching every char once at static-initialization time — strictly
// single-threaded, sequenced before any ThreadPool exists — completes the
// caches up front, so workers only ever read them.
[[maybe_unused]] const bool kCtypeCachesWarmed = [] {
  const auto& facet = std::use_facet<std::ctype<char>>(std::locale::classic());
  for (int c = 0; c < 256; ++c) {
    facet.narrow(static_cast<char>(c), '\0');
    facet.widen(static_cast<char>(c));
  }
  return true;
}();

Status BadColumn(const char* op, int col, size_t ncols) {
  std::ostringstream msg;
  msg << op << ": column " << col << " out of range [0, " << ncols << ")";
  return Status::InvalidArgument(msg.str());
}

bool ColumnInRange(int col, size_t ncols) {
  return col >= 0 && static_cast<size_t>(col) < ncols;
}

// ---------------------------------------------------------------------------
// The blocking operators (the row-local ones are kernels, in
// ops/row_kernels.cc). Each reads the whole relation before it can emit,
// re-scanning it as needed, and reports what it holds between rows to
// the scan, which charges it to the memory budget when the source has
// one. Parameters are already validated (ValidateOperation).

// Dense ids for byte strings in order of first appearance: the index
// Unfold and WrapColumn keep. Output order comes from first appearance,
// so the index needs no order of its own. Keys are stored end to end in
// one string; an open-addressing table maps a key to its id.
class FirstAppearance {
 public:
  explicit FirstAppearance(size_t expected) {
    ends_.reserve(expected);
    size_t slots = 8;
    while (slots < 2 * expected) slots *= 2;
    Rehash(slots);
  }

  // The id of `key`: the next unused one on its first appearance.
  size_t Intern(std::string_view key) {
    if (2 * (ends_.size() + 1) > slots_.size()) Rehash(2 * slots_.size());
    const size_t mask = slots_.size() - 1;
    for (size_t i = Slot(key, mask);; i = (i + 1) & mask) {
      if (slots_[i] == 0) {
        blob_.append(key);
        ends_.push_back(blob_.size());
        slots_[i] = ends_.size();
        return ends_.size() - 1;
      }
      if (this->key(slots_[i] - 1) == key) return slots_[i] - 1;
    }
  }

  size_t size() const { return ends_.size(); }

  std::string_view key(size_t id) const {
    const size_t begin = id == 0 ? 0 : ends_[id - 1];
    return std::string_view(blob_).substr(begin, ends_[id] - begin);
  }

  uint64_t bytes() const {
    return blob_.capacity() + (ends_.capacity() + slots_.capacity()) *
                                  sizeof(size_t);
  }

 private:
  void Rehash(size_t num_slots) {
    slots_.assign(num_slots, 0);
    const size_t mask = num_slots - 1;
    for (size_t id = 0; id < ends_.size(); ++id) {
      size_t i = Slot(key(id), mask);
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = id + 1;
    }
  }

  // FNV-1a's low bits see only the low bits of each byte: fold the high
  // half in before masking.
  static size_t Slot(std::string_view key, size_t mask) {
    const uint64_t hash = Fnv1aHash(key);
    return static_cast<size_t>(hash ^ (hash >> 32)) & mask;
  }

  std::string blob_;
  std::vector<size_t> ends_;   ///< End of key `id` in blob_.
  std::vector<size_t> slots_;  ///< id + 1, or 0 for an empty slot.
};

// The expected number of distinct keys, for sizing an index: a scanned
// relation may be huge with few keys, so the guess is capped.
size_t ExpectedKeys(const RowSource& in) {
  return static_cast<size_t>(std::min<uint64_t>(in.num_rows(), 1024));
}

// Unfold's group keys: the key cells of a row, each length-prefixed, so
// the encoding of a tuple is unique.
void AppendKeyCell(std::string* key, std::string_view cell) {
  const uint32_t size = static_cast<uint32_t>(cell.size());
  key->append(reinterpret_cast<const char*>(&size), sizeof(size));
  key->append(cell);
}

std::string_view NextKeyCell(std::string_view* key) {
  uint32_t size = 0;
  std::memcpy(&size, key->data(), sizeof(size));
  std::string_view cell = key->substr(sizeof(size), size);
  key->remove_prefix(sizeof(size) + size);
  return cell;
}

Status Unfold(const Operation& op, RowSource& in, RowSink& out) {
  const size_t width = static_cast<size_t>(in.num_cols());
  const size_t header_col = static_cast<size_t>(op.col1);
  const size_t value_col = static_cast<size_t>(op.col2);
  // The key is every column other than header_col and value_col, in
  // order. Unique header values become the new columns, and unique keys
  // the output rows, both in order of first appearance.
  FirstAppearance columns(ExpectedKeys(in));
  FirstAppearance groups(ExpectedKeys(in));
  // One entry per row: the output cell its value lands in, the row's
  // index, and where the value's bytes are.
  struct Entry {
    size_t group;
    size_t column;
    size_t row;
    size_t begin;
    size_t end;
  };
  std::vector<Entry> entries;
  entries.reserve(ExpectedKeys(in));
  std::string values;
  std::string key;

  Status scanned = in.Scan(
      [&](const std::string_view* cells, size_t n) {
        // A null header value becomes a column literally named "null" —
        // the broken Figure 4 situation, where missing values surface as
        // "null" identifiers in the unfolded output. Keeping the breakage
        // *visible* matters: the Null-In-Column pruning rule (§4.3) is
        // only lossless because such states can never silently equal a
        // clean goal table.
        std::string_view header = PaddedCell(cells, n, header_col);
        const size_t column = columns.Intern(header.empty() ? "null" : header);
        key.clear();
        for (size_t c = 0; c < width; ++c) {
          if (c != header_col && c != value_col) {
            AppendKeyCell(&key, PaddedCell(cells, n, c));
          }
        }
        const size_t group = groups.Intern(key);
        const size_t row = entries.size();
        const size_t begin = values.size();
        values.append(PaddedCell(cells, n, value_col));
        entries.push_back({group, column, row, begin, values.size()});
        return Status();
      },
      [&] {
        return columns.bytes() + groups.bytes() + values.capacity() +
               key.capacity() + entries.capacity() * sizeof(Entry) +
               out.bytes_buffered();
      });
  if (!scanned.ok()) return scanned;

  // By output cell, then row, so the last row's value for a cell wins (a
  // later row overwrites an earlier value). The row index makes the order
  // total: empty values share their byte offset with the next row's.
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.group != b.group) return a.group < b.group;
    if (a.column != b.column) return a.column < b.column;
    return a.row < b.row;
  });

  // Header row: empty cells over the key columns, then the new column
  // names (Figure 2: "Tel Fax" with an empty cell above the human names).
  for (size_t c = 0; c + 2 < width; ++c) {
    Status appended = out.AppendCell(std::string_view());
    if (!appended.ok()) return appended;
  }
  for (size_t column = 0; column < columns.size(); ++column) {
    Status appended = out.AppendCell(columns.key(column));
    if (!appended.ok()) return appended;
  }
  Status ended = out.EndRow();
  if (!ended.ok()) return ended;

  size_t e = 0;
  for (size_t group = 0; group < groups.size(); ++group) {
    std::string_view encoded = groups.key(group);
    while (!encoded.empty()) {
      Status appended = out.AppendCell(NextKeyCell(&encoded));
      if (!appended.ok()) return appended;
    }
    for (size_t column = 0; column < columns.size(); ++column) {
      std::string_view value;
      for (; e < entries.size() && entries[e].group == group &&
             entries[e].column == column;
           ++e) {
        value = std::string_view(values).substr(
            entries[e].begin, entries[e].end - entries[e].begin);
      }
      Status appended = out.AppendCell(value);
      if (!appended.ok()) return appended;
    }
    Status row_ended = out.EndRow();
    if (!row_ended.ok()) return row_ended;
  }
  return Status();
}

Status Transpose(RowSource& in, RowSink& out) {
  const uint64_t num_rows = in.num_rows();
  const uint64_t num_cols = in.num_cols();
  // Output row c is input column c.
  if (const Table* table = in.table()) {
    // Resident rows: read each column in place.
    thread_local std::vector<std::string_view> column;
    for (size_t c = 0; c < num_cols; ++c) {
      column.clear();
      for (size_t r = 0; r < num_rows; ++r) column.push_back(table->cell(r, c));
      Status pushed = out.Push(column.data(), column.size());
      if (!pushed.ok()) return pushed;
    }
    return Status();
  }
  if (num_cols == 0) return Status();
  // A scanned source: columns are buffered T at a time (T from the tile
  // budget), so the pass count is ceil(C / T). When even one column
  // exceeds the budget, T degrades to a zero-buffer mode that streams
  // one column per pass straight into the sink: O(1) memory, C passes.
  const uint64_t tile_budget = in.tile_budget();
  const uint64_t col_est =
      in.scan_bytes() / num_cols + num_rows * 16;  // bytes + slop per cell
  if (col_est > tile_budget) {
    for (uint64_t c = 0; c < num_cols; ++c) {
      Status scanned = in.Scan(
          [&](const std::string_view* cells, size_t n) {
            return out.AppendCell(PaddedCell(cells, n, c));
          },
          [&] { return out.bytes_buffered(); });
      if (!scanned.ok()) return scanned;
      Status ended = out.EndRow();
      if (!ended.ok()) return ended;
    }
    return Status();
  }
  const uint64_t tile = std::min<uint64_t>(
      num_cols,
      std::max<uint64_t>(1, tile_budget / std::max<uint64_t>(col_est, 1)));
  for (uint64_t c0 = 0; c0 < num_cols; c0 += tile) {
    const size_t k =
        static_cast<size_t>(std::min<uint64_t>(tile, num_cols - c0));
    // Flat per-column buffers (bytes blob + cell sizes), not
    // vector<string>: per-cell container overhead would dwarf short
    // cells at the scales that spill in the first place.
    std::vector<std::string> blobs(k);
    std::vector<std::vector<uint32_t>> sizes(k);
    Status scanned = in.Scan(
        [&](const std::string_view* cells, size_t n) {
          for (size_t j = 0; j < k; ++j) {
            std::string_view cell = PaddedCell(cells, n, c0 + j);
            blobs[j].append(cell.data(), cell.size());
            sizes[j].push_back(static_cast<uint32_t>(cell.size()));
          }
          return Status();
        },
        [&] {
          uint64_t bytes = out.bytes_buffered();
          for (size_t j = 0; j < k; ++j) {
            bytes += blobs[j].capacity() +
                     sizes[j].capacity() * sizeof(uint32_t);
          }
          return bytes;
        });
    if (!scanned.ok()) return scanned;
    for (size_t j = 0; j < k; ++j) {
      size_t offset = 0;
      for (uint32_t size : sizes[j]) {
        Status appended =
            out.AppendCell(std::string_view(blobs[j]).substr(offset, size));
        if (!appended.ok()) return appended;
        offset += size;
      }
      Status ended = out.EndRow();
      if (!ended.ok()) return ended;
    }
  }
  return Status();
}

Status WrapColumn(const Operation& op, RowSource& in, RowSink& out) {
  const size_t width = static_cast<size_t>(in.num_cols());
  const size_t col = static_cast<size_t>(op.col1);
  // Rows with equal values in `col` are concatenated, padded, in order
  // of first appearance of the value (Appendix A, Wrap variant 1).
  FirstAppearance keys(ExpectedKeys(in));
  std::vector<size_t> group_of;  // Each row's group.
  std::string cells;             // Every padded cell, row after row.
  std::vector<size_t> ends;      // Where each of those cells ends.
  Status scanned = in.Scan(
      [&](const std::string_view* row, size_t n) {
        group_of.push_back(keys.Intern(PaddedCell(row, n, col)));
        for (size_t c = 0; c < width; ++c) {
          cells.append(PaddedCell(row, n, c));
          ends.push_back(cells.size());
        }
        return Status();
      },
      [&] {
        return keys.bytes() + cells.capacity() +
               (group_of.capacity() + ends.capacity()) * sizeof(size_t) +
               out.bytes_buffered();
      });
  if (!scanned.ok()) return scanned;

  // The rows by group, each group in row order.
  std::vector<size_t> order(group_of.size());
  for (size_t r = 0; r < order.size(); ++r) order[r] = r;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return group_of[a] != group_of[b] ? group_of[a] < group_of[b] : a < b;
  });
  for (size_t i = 0; i < order.size(); ++i) {
    const size_t r = order[i];
    for (size_t cell = r * width; cell < (r + 1) * width; ++cell) {
      const size_t begin = cell == 0 ? 0 : ends[cell - 1];
      Status appended = out.AppendCell(
          std::string_view(cells).substr(begin, ends[cell] - begin));
      if (!appended.ok()) return appended;
    }
    if (i + 1 == order.size() || group_of[order[i + 1]] != group_of[r]) {
      Status ended = out.EndRow();
      if (!ended.ok()) return ended;
    }
  }
  return Status();
}

Status WrapAll(RowSource& in, RowSink& out) {
  // Every padded cell of every row, in one output row; no row at all
  // when there is no cell.
  const size_t width = static_cast<size_t>(in.num_cols());
  if (in.num_rows() == 0 || width == 0) return Status();
  Status scanned = in.Scan(
      [&](const std::string_view* cells, size_t n) {
        for (size_t c = 0; c < width; ++c) {
          Status appended = out.AppendCell(PaddedCell(cells, n, c));
          if (!appended.ok()) return appended;
        }
        return Status();
      },
      [&] { return out.bytes_buffered(); });
  if (!scanned.ok()) return scanned;
  return out.EndRow();
}

Status SplitAll(const Operation& op, RowSource& in, RowSink& out) {
  const size_t width = static_cast<size_t>(in.num_cols());
  const size_t col = static_cast<size_t>(op.col1);
  const std::string_view delim = op.text;
  // The widest split sets how many columns replace column `col`; shorter
  // splits pad with empty cells. One scan measures, a second emits.
  size_t parts = 1;
  Status measured = in.Scan(
      [&](const std::string_view* cells, size_t n) {
        std::string_view value = PaddedCell(cells, n, col);
        size_t pieces = 1;
        for (size_t pos = value.find(delim); pos != std::string_view::npos;
             pos = value.find(delim, pos + delim.size())) {
          ++pieces;
        }
        parts = std::max(parts, pieces);
        return Status();
      },
      [&] { return out.bytes_buffered(); });
  if (!measured.ok()) return measured;

  return in.Scan(
      [&](const std::string_view* cells, size_t n) {
        for (size_t c = 0; c < width; ++c) {
          std::string_view value = PaddedCell(cells, n, c);
          if (c != col) {
            Status appended = out.AppendCell(value);
            if (!appended.ok()) return appended;
            continue;
          }
          size_t pieces = 0;
          for (;;) {
            const size_t pos = value.find(delim);
            Status appended = out.AppendCell(value.substr(0, pos));
            if (!appended.ok()) return appended;
            ++pieces;
            if (pos == std::string_view::npos) break;
            value.remove_prefix(pos + delim.size());
          }
          for (; pieces < parts; ++pieces) {
            Status appended = out.AppendCell(std::string_view());
            if (!appended.ok()) return appended;
          }
        }
        return out.EndRow();
      },
      [&] { return out.bytes_buffered(); });
}

}  // namespace

Result<const std::regex*> CompileCachedRegex(const std::string& regex) {
  // Compiled patterns are cached: the search loop re-applies the same small
  // set of Extract candidates across many states, and the parallel engine
  // calls in from several pool workers at once, so the cache is guarded by
  // a reader/writer lock. std::map never invalidates references on insert,
  // so a pointer obtained under the lock stays valid for the caller's match
  // loop (matching against a const std::regex is thread-safe). Leaked
  // statics per the style guide's static-storage-duration rules (never
  // destroyed).
  static std::shared_mutex& cache_mu = *new std::shared_mutex();
  static auto& cache = *new std::map<std::string, std::regex>();
  {
    std::shared_lock<std::shared_mutex> lock(cache_mu);
    auto it = cache.find(regex);
    if (it != cache.end()) return &it->second;
  }
  std::regex compiled;
  // Injected compile failure, taking the same error path a malformed
  // pattern would (the point sits before the cache insert, so the
  // failure is not sticky for later calls with the same pattern).
  if (FOOFAH_FAULT_FAIL(fault_points::kRegexCompile)) {
    return Status::InvalidArgument(
        "extract: bad regex: injected compile failure");
  }
  // std::regex reports malformed patterns via regex_error; translate to a
  // Status to keep the library exception-free at API boundaries. Compile
  // outside the lock: only the map insert needs exclusivity.
  try {
    compiled.assign(regex, std::regex::ECMAScript);
  } catch (const std::regex_error& e) {
    return Status::InvalidArgument(std::string("extract: bad regex: ") +
                                   e.what());
  }
  std::unique_lock<std::shared_mutex> lock(cache_mu);
  // try_emplace keeps the first compilation if another thread raced us
  // here; both compiled from the same string, so either is correct.
  return &cache.try_emplace(regex, std::move(compiled)).first->second;
}

Status ValidateOperation(const Operation& operation, size_t num_cols,
                         size_t num_rows) {
  const int col1 = operation.col1;
  const int col2 = operation.col2;
  switch (operation.op) {
    case OpCode::kDrop:
      if (!ColumnInRange(col1, num_cols)) {
        return BadColumn("drop", col1, num_cols);
      }
      return Status::OK();
    case OpCode::kMove:
      if (!ColumnInRange(col1, num_cols)) {
        return BadColumn("move", col1, num_cols);
      }
      if (!ColumnInRange(col2, num_cols)) {
        return BadColumn("move", col2, num_cols);
      }
      if (col1 == col2) {
        return Status::InvalidArgument("move: source equals destination");
      }
      return Status::OK();
    case OpCode::kCopy:
      if (!ColumnInRange(col1, num_cols)) {
        return BadColumn("copy", col1, num_cols);
      }
      return Status::OK();
    case OpCode::kMerge:
      if (!ColumnInRange(col1, num_cols)) {
        return BadColumn("merge", col1, num_cols);
      }
      if (!ColumnInRange(col2, num_cols)) {
        return BadColumn("merge", col2, num_cols);
      }
      if (col1 == col2) {
        return Status::InvalidArgument("merge: columns must differ");
      }
      return Status::OK();
    case OpCode::kSplit:
      if (!ColumnInRange(col1, num_cols)) {
        return BadColumn("split", col1, num_cols);
      }
      if (operation.text.empty()) {
        return Status::InvalidArgument("split: delimiter must be non-empty");
      }
      return Status::OK();
    case OpCode::kFold:
      if (!ColumnInRange(col1, num_cols)) {
        return BadColumn("fold", col1, num_cols);
      }
      if (operation.int_param != 0 && num_rows < 1) {
        return Status::InvalidArgument(
            "fold: header variant needs a header row");
      }
      return Status::OK();
    case OpCode::kUnfold:
      if (!ColumnInRange(col1, num_cols)) {
        return BadColumn("unfold", col1, num_cols);
      }
      if (!ColumnInRange(col2, num_cols)) {
        return BadColumn("unfold", col2, num_cols);
      }
      if (col1 == col2) {
        return Status::InvalidArgument("unfold: columns must differ");
      }
      return Status::OK();
    case OpCode::kFill:
      if (!ColumnInRange(col1, num_cols)) {
        return BadColumn("fill", col1, num_cols);
      }
      return Status::OK();
    case OpCode::kDivide:
      if (!ColumnInRange(col1, num_cols)) {
        return BadColumn("divide", col1, num_cols);
      }
      return Status::OK();
    case OpCode::kDelete:
      if (!ColumnInRange(col1, num_cols)) {
        return BadColumn("delete", col1, num_cols);
      }
      return Status::OK();
    case OpCode::kExtract: {
      if (!ColumnInRange(col1, num_cols)) {
        return BadColumn("extract", col1, num_cols);
      }
      Result<const std::regex*> compiled = CompileCachedRegex(operation.text);
      if (!compiled.ok()) return compiled.status();
      return Status::OK();
    }
    case OpCode::kTranspose:
      return Status::OK();
    case OpCode::kWrapColumn:
      if (!ColumnInRange(col1, num_cols)) {
        return BadColumn("wrap", col1, num_cols);
      }
      return Status::OK();
    case OpCode::kWrapEvery:
      if (operation.int_param < 2) {
        return Status::InvalidArgument("wrapevery: k must be >= 2");
      }
      return Status::OK();
    case OpCode::kWrapAll:
      return Status::OK();
    case OpCode::kSplitAll:
      if (!ColumnInRange(col1, num_cols)) {
        return BadColumn("splitall", col1, num_cols);
      }
      if (operation.text.empty()) {
        return Status::InvalidArgument(
            "splitall: delimiter must be non-empty");
      }
      return Status::OK();
    case OpCode::kDeleteRow:
      if (operation.int_param < 0 ||
          static_cast<size_t>(operation.int_param) >= num_rows) {
        std::ostringstream msg;
        msg << "deleterow: row " << operation.int_param << " out of range [0, "
            << num_rows << ")";
        return Status::InvalidArgument(msg.str());
      }
      return Status::OK();
  }
  return Status::Internal("unknown operation code");
}

bool EvalDividePredicate(DividePredicate predicate, std::string_view value) {
  switch (predicate) {
    case DividePredicate::kAllDigits:
      return AllDigits(value);
    case DividePredicate::kAllAlpha:
      return AllAlpha(value);
    case DividePredicate::kAllAlnum:
      return AllAlnum(value);
  }
  return false;
}

Status RunOperation(const Operation& operation, RowSource& input,
                    RowSink& output) {
  switch (operation.op) {
    case OpCode::kUnfold:
      return Unfold(operation, input, output);
    case OpCode::kTranspose:
      return Transpose(input, output);
    case OpCode::kWrapColumn:
      return WrapColumn(operation, input, output);
    case OpCode::kWrapAll:
      return WrapAll(input, output);
    case OpCode::kSplitAll:
      return SplitAll(operation, input, output);
    default:
      break;
  }
  return RunRowKernel(operation, input, output);
}

Result<Table> ApplyOperation(const Table& input, const Operation& operation) {
  Status valid =
      ValidateOperation(operation, input.num_cols(), input.num_rows());
  if (!valid.ok()) return valid;
  TableSource source(input);
  TableSink sink(&source);
  // Enough for every output but Fold's: at most one row more than the
  // input (Unfold's header), or one per column (Transpose).
  sink.ReserveRows(std::max(input.num_rows() + 1, input.num_cols()));
  Status ran = RunOperation(operation, source, sink);
  if (!ran.ok()) return ran;
  return sink.Take();
}

}  // namespace foofah
