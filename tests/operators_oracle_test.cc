// An oracle for the operators: a transcription of the Table-only bodies
// the operators had before each was defined once over row sources and
// sinks (ops/operators.cc), kept here as the reference the one
// definition must reproduce, as csv_stream_test's OracleReader is for
// the CSV reader. The sweep applies every candidate EnumerateCandidates
// yields under the widest registry, plus out-of-range parameters, to
// seeded generated tables, their ragged and hole-punched variants, and
// longer tables with repeated cells, and requires ApplyOperation to equal the oracle in Status (code and
// message), every stored row, num_cols() and Hash(); to share the rows
// Delete, DeleteRow and Fill leave unchanged with the input; and to
// leave the input untouched.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <regex>
#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "ops/enumerate.h"
#include "ops/operation.h"
#include "ops/operators.h"
#include "ops/registry.h"
#include "program/describe.h"
#include "table/table.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace foofah {
namespace {

using Row = Table::Row;

// ---------------------------------------------------------------------------
// The reference: one Table-only body per operator.

// Reads the full-width row `r` of `t` (padding ragged rows with "").
Row FullRow(const Table& t, size_t r, size_t ncols) {
  Row row;
  row.reserve(ncols);
  for (size_t c = 0; c < ncols; ++c) row.push_back(t.cell(r, c));
  return row;
}

Result<Table> OracleDrop(const Table& t, int col) {
  size_t ncols = t.num_cols();
  std::vector<Row> rows;
  rows.reserve(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    Row row;
    row.reserve(ncols - 1);
    for (size_t c = 0; c < ncols; ++c) {
      if (c != static_cast<size_t>(col)) row.push_back(t.cell(r, c));
    }
    rows.push_back(std::move(row));
  }
  return Table(std::move(rows));
}

Result<Table> OracleMove(const Table& t, int from, int to) {
  size_t ncols = t.num_cols();
  std::vector<Row> rows;
  rows.reserve(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    Row row = FullRow(t, r, ncols);
    std::string cell = std::move(row[from]);
    row.erase(row.begin() + from);
    row.insert(row.begin() + to, std::move(cell));
    rows.push_back(std::move(row));
  }
  return Table(std::move(rows));
}

Result<Table> OracleCopy(const Table& t, int col) {
  size_t ncols = t.num_cols();
  std::vector<Row> rows;
  rows.reserve(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    Row row = FullRow(t, r, ncols);
    row.push_back(t.cell(r, col));
    rows.push_back(std::move(row));
  }
  return Table(std::move(rows));
}

Result<Table> OracleMerge(const Table& t, int col1, int col2,
                         const std::string& glue) {
  size_t ncols = t.num_cols();
  std::vector<Row> rows;
  rows.reserve(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    Row row;
    row.reserve(ncols - 1);
    for (size_t c = 0; c < ncols; ++c) {
      if (c != static_cast<size_t>(col1) && c != static_cast<size_t>(col2)) {
        row.push_back(t.cell(r, c));
      }
    }
    row.push_back(t.cell(r, col1) + glue + t.cell(r, col2));
    rows.push_back(std::move(row));
  }
  return Table(std::move(rows));
}

Result<Table> OracleSplit(const Table& t, int col, const std::string& delim) {
  size_t ncols = t.num_cols();
  std::vector<Row> rows;
  rows.reserve(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    Row row;
    row.reserve(ncols + 1);
    for (size_t c = 0; c < ncols; ++c) {
      if (c == static_cast<size_t>(col)) {
        auto [left, right] = SplitFirst(t.cell(r, c), delim);
        row.push_back(std::move(left));
        row.push_back(std::move(right));
      } else {
        row.push_back(t.cell(r, c));
      }
    }
    rows.push_back(std::move(row));
  }
  return Table(std::move(rows));
}

Result<Table> OracleFold(const Table& t, int first_col, bool with_header) {
  size_t ncols = t.num_cols();
  std::vector<Row> rows;
  size_t first_data_row = with_header ? 1 : 0;
  for (size_t r = first_data_row; r < t.num_rows(); ++r) {
    for (size_t c = static_cast<size_t>(first_col); c < ncols; ++c) {
      Row row;
      row.reserve(first_col + 2);
      for (size_t keep = 0; keep < static_cast<size_t>(first_col); ++keep) {
        row.push_back(t.cell(r, keep));
      }
      if (with_header) row.push_back(t.cell(0, c));
      row.push_back(t.cell(r, c));
      rows.push_back(std::move(row));
    }
  }
  return Table(std::move(rows));
}

Result<Table> OracleUnfold(const Table& t, int header_col, int value_col) {
  size_t ncols = t.num_cols();
  // Key = all columns other than header_col and value_col, in order.
  std::vector<size_t> key_cols;
  for (size_t c = 0; c < ncols; ++c) {
    if (c != static_cast<size_t>(header_col) &&
        c != static_cast<size_t>(value_col)) {
      key_cols.push_back(c);
    }
  }

  // Unique header values in order of first appearance become new columns.
  std::vector<std::string> new_columns;
  std::map<std::string, size_t> column_index;
  // Groups (by key tuple) in order of first appearance.
  std::vector<Row> group_keys;
  std::map<Row, size_t> group_index;
  std::vector<std::map<size_t, std::string>> group_values;

  for (size_t r = 0; r < t.num_rows(); ++r) {
    // A null header value becomes a column literally named "null" — the
    // broken Figure 4 situation, where missing values surface as "null"
    // identifiers in the unfolded output. Keeping the breakage *visible*
    // matters: the Null-In-Column pruning rule (§4.3) is only lossless
    // because such states can never silently equal a clean goal table.
    const std::string& header_cell = t.cell(r, header_col);
    const std::string header = header_cell.empty() ? "null" : header_cell;
    auto [cit, cinserted] = column_index.try_emplace(header, new_columns.size());
    if (cinserted) new_columns.push_back(header);

    Row key;
    key.reserve(key_cols.size());
    for (size_t c : key_cols) key.push_back(t.cell(r, c));
    auto [git, ginserted] = group_index.try_emplace(key, group_keys.size());
    if (ginserted) {
      group_keys.push_back(key);
      group_values.emplace_back();
    }
    group_values[git->second][cit->second] = t.cell(r, value_col);
  }

  std::vector<Row> rows;
  rows.reserve(group_keys.size() + 1);
  // Header row: empty cells for the key columns, then the new column names
  // (Figure 2: "Tel Fax" with an empty cell above the human names).
  Row header_row(key_cols.size());
  for (const std::string& name : new_columns) header_row.push_back(name);
  rows.push_back(std::move(header_row));

  for (size_t g = 0; g < group_keys.size(); ++g) {
    Row row = group_keys[g];
    row.resize(key_cols.size() + new_columns.size());
    for (const auto& [col, value] : group_values[g]) {
      row[key_cols.size() + col] = value;
    }
    rows.push_back(std::move(row));
  }
  return Table(std::move(rows));
}

Result<Table> OracleFill(const Table& t, int col) {
  // Copy-on-write: start from an O(1) snapshot of the parent and detach
  // only the rows actually filled. Rows whose cell is already set — and
  // empty cells with nothing above them to fill from — stay shared.
  Table out = t;
  std::string last;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const std::string& value = t.cell(r, static_cast<size_t>(col));
    if (value.empty()) {
      if (!last.empty()) out.set_cell(r, static_cast<size_t>(col), last);
    } else {
      last = value;
    }
  }
  return out;
}

Result<Table> OracleDivide(const Table& t, int col, DividePredicate predicate) {
  size_t ncols = t.num_cols();
  std::vector<Row> rows;
  rows.reserve(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    Row row;
    row.reserve(ncols + 1);
    for (size_t c = 0; c < ncols; ++c) {
      if (c == static_cast<size_t>(col)) {
        const std::string& value = t.cell(r, c);
        if (EvalDividePredicate(predicate, value)) {
          row.push_back(value);
          row.push_back("");
        } else {
          row.push_back("");
          row.push_back(value);
        }
      } else {
        row.push_back(t.cell(r, c));
      }
    }
    rows.push_back(std::move(row));
  }
  return Table(std::move(rows));
}

Result<Table> OracleDelete(const Table& t, int col) {
  // Copy-on-write: survivors are shared handles, not padded deep copies.
  // The child's num_cols() is recomputed from the survivors, so dropping
  // the widest rows narrows the table instead of inheriting a stale
  // parent width (see Table's width invariant).
  Table out;
  out.ReserveRows(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (t.cell(r, static_cast<size_t>(col)).empty()) continue;
    out.AppendSharedRow(t.row_handle(r));
  }
  return out;
}

Result<Table> OracleExtract(const Table& t, int col, const std::string& regex) {
  size_t ncols = t.num_cols();
  // ValidateOperation already compiled (and cached) the pattern, so this
  // re-fetch is a shared-lock cache hit.
  Result<const std::regex*> compiled = CompileCachedRegex(regex);
  if (!compiled.ok()) return compiled.status();
  const std::regex* re = compiled.value();
  std::vector<Row> rows;
  rows.reserve(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    Row row;
    row.reserve(ncols + 1);
    for (size_t c = 0; c < ncols; ++c) {
      row.push_back(t.cell(r, c));
      if (c == static_cast<size_t>(col)) {
        std::smatch match;
        const std::string& value = t.cell(r, c);
        std::string extracted;
        if (std::regex_search(value, match, *re)) {
          // A capture group, when present, selects the extracted portion
          // (supports the Appendix B "prefix/suffix" usage).
          extracted = match.size() > 1 && match[1].matched
                          ? match[1].str()
                          : match[0].str();
        }
        row.push_back(std::move(extracted));
      }
    }
    rows.push_back(std::move(row));
  }
  return Table(std::move(rows));
}

Result<Table> OracleTranspose(const Table& t) {
  size_t nrows = t.num_rows();
  size_t ncols = t.num_cols();
  std::vector<Row> rows(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    rows[c].reserve(nrows);
    for (size_t r = 0; r < nrows; ++r) {
      rows[c].push_back(t.cell(r, c));
    }
  }
  return Table(std::move(rows));
}

Result<Table> OracleWrapColumn(const Table& t, int col) {
  size_t ncols = t.num_cols();
  // Rows with equal values in `col` are concatenated, in order of first
  // appearance of the value (Appendix A, Wrap variant 1).
  std::vector<std::string> keys;
  std::map<std::string, size_t> key_index;
  std::vector<Row> groups;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const std::string& key = t.cell(r, col);
    auto [it, inserted] = key_index.try_emplace(key, keys.size());
    if (inserted) {
      keys.push_back(key);
      groups.emplace_back();
    }
    Row row = FullRow(t, r, ncols);
    Row& group = groups[it->second];
    group.insert(group.end(), std::make_move_iterator(row.begin()),
                 std::make_move_iterator(row.end()));
  }
  return Table(std::move(groups));
}

Result<Table> OracleWrapEvery(const Table& t, int k) {
  size_t ncols = t.num_cols();
  std::vector<Row> rows;
  for (size_t r = 0; r < t.num_rows(); r += static_cast<size_t>(k)) {
    Row combined;
    for (size_t i = r; i < std::min(t.num_rows(), r + static_cast<size_t>(k));
         ++i) {
      Row row = FullRow(t, i, ncols);
      combined.insert(combined.end(), std::make_move_iterator(row.begin()),
                      std::make_move_iterator(row.end()));
    }
    rows.push_back(std::move(combined));
  }
  return Table(std::move(rows));
}

Result<Table> OracleSplitAll(const Table& t, int col,
                            const std::string& delim) {
  size_t ncols = t.num_cols();
  // The widest split determines how many columns replace column `col`;
  // shorter splits pad with empty cells.
  size_t parts = 1;
  std::vector<std::vector<std::string>> split_cells;
  split_cells.reserve(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    split_cells.push_back(SplitAll(t.cell(r, col), delim));
    parts = std::max(parts, split_cells.back().size());
  }
  std::vector<Row> rows;
  rows.reserve(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    Row row;
    row.reserve(ncols + parts - 1);
    for (size_t c = 0; c < ncols; ++c) {
      if (c == static_cast<size_t>(col)) {
        std::vector<std::string>& pieces = split_cells[r];
        pieces.resize(parts);
        for (std::string& piece : pieces) row.push_back(std::move(piece));
      } else {
        row.push_back(t.cell(r, c));
      }
    }
    rows.push_back(std::move(row));
  }
  return Table(std::move(rows));
}

Result<Table> OracleDeleteRow(const Table& t, int row_index) {
  // Copy-on-write: O(1) snapshot, then drop the one row. Survivors stay
  // shared and unpadded; RemoveRow recomputes the width from them.
  Table out = t;
  out.RemoveRow(static_cast<size_t>(row_index));
  return out;
}

Result<Table> OracleWrapAll(const Table& t) {
  size_t ncols = t.num_cols();
  Row combined;
  combined.reserve(t.num_rows() * ncols);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    Row row = FullRow(t, r, ncols);
    combined.insert(combined.end(), std::make_move_iterator(row.begin()),
                    std::make_move_iterator(row.end()));
  }
  std::vector<Row> rows;
  if (!combined.empty()) rows.push_back(std::move(combined));
  return Table(std::move(rows));
}

Result<Table> OracleApply(const Table& input, const Operation& operation) {
  Status valid =
      ValidateOperation(operation, input.num_cols(), input.num_rows());
  if (!valid.ok()) return valid;
  switch (operation.op) {
    case OpCode::kDrop:
      return OracleDrop(input, operation.col1);
    case OpCode::kMove:
      return OracleMove(input, operation.col1, operation.col2);
    case OpCode::kCopy:
      return OracleCopy(input, operation.col1);
    case OpCode::kMerge:
      return OracleMerge(input, operation.col1, operation.col2,
                         operation.text);
    case OpCode::kSplit:
      return OracleSplit(input, operation.col1, operation.text);
    case OpCode::kFold:
      return OracleFold(input, operation.col1, operation.int_param != 0);
    case OpCode::kUnfold:
      return OracleUnfold(input, operation.col1, operation.col2);
    case OpCode::kFill:
      return OracleFill(input, operation.col1);
    case OpCode::kDivide:
      return OracleDivide(input, operation.col1,
                          static_cast<DividePredicate>(operation.int_param));
    case OpCode::kDelete:
      return OracleDelete(input, operation.col1);
    case OpCode::kExtract:
      return OracleExtract(input, operation.col1, operation.text);
    case OpCode::kTranspose:
      return OracleTranspose(input);
    case OpCode::kWrapColumn:
      return OracleWrapColumn(input, operation.col1);
    case OpCode::kWrapEvery:
      return OracleWrapEvery(input, operation.int_param);
    case OpCode::kWrapAll:
      return OracleWrapAll(input);
    case OpCode::kSplitAll:
      return OracleSplitAll(input, operation.col1, operation.text);
    case OpCode::kDeleteRow:
      return OracleDeleteRow(input, operation.int_param);
  }
  return Status::Internal("unknown operation code");
}

// ---------------------------------------------------------------------------
// The sweep.

// A copy of `t` with some rows stored short: trailing cells cut.
Table Ragged(const Table& t, Lcg* rng) {
  std::vector<Row> rows = t.CopyRows();
  for (Row& row : rows) {
    if (!row.empty() && rng->Chance(40)) {
      row.resize(rng->Next(static_cast<uint32_t>(row.size())));
    }
  }
  return Table(std::move(rows));
}

// A copy of `t` with empty cells punched in.
Table HolePunched(const Table& t, Lcg* rng) {
  std::vector<Row> rows = t.CopyRows();
  for (Row& row : rows) {
    for (std::string& cell : row) {
      if (rng->Chance(25)) cell.clear();
    }
  }
  return Table(std::move(rows));
}

// Parameters just outside each operator's domain, its edges, and a
// malformed regex; plus Extract patterns with and without a group.
std::vector<Operation> EdgeParameters(const Table& t) {
  const int cols = static_cast<int>(t.num_cols());
  const int rows = static_cast<int>(t.num_rows());
  return {Drop(cols),
          Drop(-1),
          Move(0, cols),
          Move(cols, 0),
          Move(0, 0),
          Copy(cols),
          Merge(0, 0),
          Merge(cols, 0),
          Merge(0, cols, "-"),
          Split(cols, ","),
          Split(0, ""),
          Split(0, "ab"),
          Fold(cols),
          Fold(0, true),
          Fold(cols - 1, true),
          Unfold(0, 0),
          Unfold(cols, 0),
          Unfold(0, cols),
          Fill(cols),
          Fill(-1),
          Divide(cols, DividePredicate::kAllDigits),
          DeleteRows(cols),
          Extract(cols, "[0-9]+"),
          Extract(0, "(unclosed"),
          Extract(0, "([a-z]+)?[0-9]*"),
          Extract(0, "[a-z]"),
          Transpose(),
          WrapColumn(cols),
          WrapColumn(-1),
          WrapEvery(1),
          WrapEvery(2),
          WrapEvery(rows + 1),
          WrapAll(),
          SplitAll(cols, ","),
          SplitAll(0, ""),
          SplitAll(0, " "),
          DeleteRow(rows),
          DeleteRow(-1),
          DeleteRow(rows - 1)};
}

// Pairs (output row, input row) of the rows `operation` leaves unchanged
// and must share with `input`: Delete's and DeleteRow's survivors, and
// Fill's rows whose cell is set or has nothing above to fill from.
std::vector<std::pair<size_t, size_t>> UnchangedRows(const Table& input,
                                                     const Operation& op) {
  std::vector<std::pair<size_t, size_t>> pairs;
  const size_t col = static_cast<size_t>(op.col1);
  size_t out = 0;
  bool seen_value = false;
  for (size_t r = 0; r < input.num_rows(); ++r) {
    const bool empty = input.cell(r, col).empty();
    switch (op.op) {
      case OpCode::kDelete:
        if (!empty) pairs.emplace_back(out++, r);
        break;
      case OpCode::kDeleteRow:
        if (r != static_cast<size_t>(op.int_param)) {
          pairs.emplace_back(out++, r);
        }
        break;
      case OpCode::kFill:
        if (!empty || !seen_value) pairs.emplace_back(r, r);
        seen_value = seen_value || !empty;
        break;
      default:
        return pairs;
    }
  }
  return pairs;
}

// Empty when `got` equals `want` in Status code and message, every
// stored row, num_cols() and Hash(); otherwise what differs.
std::string Difference(const Result<Table>& got, const Result<Table>& want) {
  if (got.ok() != want.ok() || got.status().code() != want.status().code() ||
      got.status().message() != want.status().message()) {
    return "status " + got.status().ToString() + ", oracle " +
           want.status().ToString();
  }
  if (!got.ok()) return "";
  if (got->num_rows() != want->num_rows()) return "row count";
  for (size_t r = 0; r < got->num_rows(); ++r) {
    if (got->row(r) != want->row(r)) return "row " + std::to_string(r);
  }
  if (got->num_cols() != want->num_cols()) return "num_cols";
  if (got->Hash() != want->Hash()) return "Hash";
  return "";
}

class OperatorOracleTest : public testing::Test {
 protected:
  // Applies `op` to `input` both ways and records any disagreement.
  void Check(const Table& input, const Operation& op) {
    const std::vector<Row> before = input.CopyRows();
    const size_t cols_before = input.num_cols();
    Result<Table> got = ApplyOperation(input, op);
    Result<Table> want = OracleApply(input, op);
    std::string diff = Difference(got, want);
    if (diff.empty() && got.ok()) {
      for (const auto& [out_row, in_row] : UnchangedRows(input, op)) {
        if (got->row_handle(out_row) != input.row_handle(in_row)) {
          diff = "row " + std::to_string(out_row) + " copied, not shared";
          break;
        }
      }
    }
    if (diff.empty() &&
        (input.CopyRows() != before || input.num_cols() != cols_before)) {
      diff = "input mutated";
    }
    ++checked_;
    if (got.ok()) ++applied_[op.op];
    if (!diff.empty() && ++failures_ <= 20) {
      ADD_FAILURE() << DescribeOperation(op) << ": " << diff << "\ninput:\n"
                    << input.ToString();
    }
  }

  size_t checked_ = 0;
  size_t failures_ = 0;
  std::map<OpCode, size_t> applied_;
};

TEST_F(OperatorOracleTest, EveryCandidateOnGeneratedTablesMatchesTheOracle) {
  const OperatorRegistry registry = OperatorRegistry::WithExtensions();
  fuzz::ScenarioGenerator generator;
  Lcg rng(20261019);
  for (int i = 0; i < 150; ++i) {
    const fuzz::GeneratedScenario scenario = generator.Generate(i);
    for (const Table& base : {scenario.input, scenario.output}) {
      for (const Table& table :
           {base, Ragged(base, &rng), HolePunched(base, &rng)}) {
        std::vector<Operation> ops =
            EnumerateCandidates(table, scenario.output, registry);
        for (const Operation& op : EdgeParameters(table)) ops.push_back(op);
        for (const Operation& op : ops) Check(table, op);
      }
    }
  }
  EXPECT_EQ(failures_, 0u) << "of " << checked_ << " applications";
  // Every operator produced results, not only errors.
  for (int code = 0; code < kNumOpCodes; ++code) {
    EXPECT_GT(applied_[static_cast<OpCode>(code)], 0u)
        << OpCodeName(static_cast<OpCode>(code));
  }
}

TEST_F(OperatorOracleTest, DegenerateTablesMatchTheOracle) {
  // No rows; rows with no cells; one cell; a single wide row over
  // one-cell rows; a column of nulls.
  const std::vector<Table> tables = {
      Table(),
      Table(std::vector<Row>{{}, {}}),
      Table({{"a"}}),
      Table({{"a", "b", "c", "d"}, {"e"}, {}, {"f"}}),
      Table({{"", "x"}, {"", "y"}, {"", ""}}),
  };
  for (const Table& table : tables) {
    std::vector<Operation> ops = EnumerateCandidates(
        table, table, OperatorRegistry::WithExtensions());
    for (const Operation& op : EdgeParameters(table)) ops.push_back(op);
    for (const Operation& op : ops) Check(table, op);
  }
  EXPECT_EQ(failures_, 0u) << "of " << checked_ << " applications";
}

TEST_F(OperatorOracleTest, LongTablesWithRepeatedCellsMatchTheOracle) {
  // Tables of over 16 rows, where std::sort is no longer an insertion
  // sort. First, an empty value followed by a set one for the same
  // (key, header) cell: Unfold must keep the later, set value.
  std::vector<Row> repeated = {{"k0", "h", ""}, {"k0", "h", "v"}};
  for (int k = 2; k < 40; ++k) {
    std::string key = "k";
    key += std::to_string(k);
    repeated.push_back({key, "h", "x"});
  }
  Check(Table(std::move(repeated)), Unfold(1, 2));

  // Then tables of 17 to 300 rows over a small alphabet, so keys,
  // headers and (key, header) cells repeat and many values are empty:
  // every candidate.
  const OperatorRegistry registry = OperatorRegistry::WithExtensions();
  const std::vector<std::string> alphabet = {"", "", "a", "b", "1", "2 3",
                                             "a,b"};
  Lcg rng(20261020);
  for (int i = 0; i < 12; ++i) {
    const size_t num_rows = 17 + rng.Next(284);
    const size_t width = 2 + rng.Next(3);
    std::vector<Row> rows(num_rows);
    for (Row& row : rows) {
      for (size_t c = 0; c < width; ++c) {
        row.push_back(
            alphabet[rng.Next(static_cast<uint32_t>(alphabet.size()))]);
      }
    }
    const Table base(std::move(rows));
    for (const Table& table : {base, Ragged(base, &rng)}) {
      std::vector<Operation> ops =
          EnumerateCandidates(table, table, registry);
      for (const Operation& op : EdgeParameters(table)) ops.push_back(op);
      for (const Operation& op : ops) Check(table, op);
    }
  }
  EXPECT_EQ(failures_, 0u) << "of " << checked_ << " applications";
  EXPECT_GT(applied_[OpCode::kUnfold], 0u);
}

}  // namespace
}  // namespace foofah
