#include "heuristic/ted.h"

#include <vector>

#include "util/cancellation.h"
#include "util/string_util.h"

namespace foofah {

namespace {

const std::string& EmptyCell() {
  static const std::string kEmpty;
  return kEmpty;
}

/// An input cell flattened out of its table, remembering its coordinates.
struct Cell {
  int row;
  int col;
  const std::string* content;
};

/// The greedy matching's per-thread buffers. They grow to the largest
/// input table the thread has matched and are reused by every later call,
/// so a warm GreedyTed allocates nothing (the caller owns the path).
struct MatchScratch {
  std::vector<Cell> in_cells;
  std::vector<char> used;
};

void Flatten(const Table& t, std::vector<Cell>* cells) {
  cells->clear();
  int nrows = static_cast<int>(t.num_rows());
  int ncols = static_cast<int>(t.num_cols());
  for (int r = 0; r < nrows; ++r) {
    // Zero-copy row view into the (possibly shared) CoW storage: one
    // bounds decision per row instead of two per cell(r, c) call.
    const Table::Row& row = t.row(static_cast<size_t>(r));
    int stored = static_cast<int>(row.size());
    for (int c = 0; c < ncols; ++c) {
      cells->push_back(Cell{r, c, c < stored ? &row[c] : &EmptyCell()});
    }
  }
}

constexpr size_t kNoCell = static_cast<size_t>(-1);

struct Match {
  double cost = kInfiniteCost;
  size_t index = kNoCell;
};

/// Algorithm 1's argmin for one output cell: the cheapest Transform/Move
/// sequence from an input cell whose used flag equals `used_flag`, the
/// earliest in row-major order on ties.
///
/// Cost 0 needs equal content at equal coordinates, so only `same` (the
/// input cell at the output cell's coordinates, or kNoCell) can have it;
/// it is tried first. Past it every candidate costs at least 1, so the
/// scan stops at the first cost-1 cell, which is the cell a full scan
/// would pick. While a cost-2 cell is held, a cell at other coordinates
/// can only win as a cost-1 Move, which needs equal content, so the
/// containment test is skipped for it.
Match Cheapest(const std::vector<Cell>& in_cells, const std::vector<char>& used,
               char used_flag, size_t same, const std::string& content,
               int row, int col) {
  if (same != kNoCell && used[same] == used_flag &&
      *in_cells[same].content == content) {
    return {0, same};
  }
  Match best;
  for (size_t i = 0; i < in_cells.size(); ++i) {
    if (used[i] != used_flag) continue;
    const Cell& in = in_cells[i];
    if (best.cost == 2 && i != same) {
      if (*in.content == content) return {1, i};
      continue;
    }
    double cost =
        TransformSequenceCost(*in.content, in.row, in.col, content, row, col);
    if (cost < best.cost) {
      best = {cost, i};
      if (cost == 1) break;
    }
  }
  return best;
}

// Appends the Transform and/or Move ops for matching `src` to the output
// cell (`content` at (row, col)) to `path`. Caller guarantees the pair
// cost is finite.
void AppendTransformSequence(const Cell& src, const std::string& content,
                             int row, int col, EditPath* path) {
  EditOp op;
  op.src_row = src.row;
  op.src_col = src.col;
  op.dst_row = row;
  op.dst_col = col;
  if (*src.content != content) {
    op.type = EditType::kTransform;
    path->push_back(op);
  }
  if (src.row != row || src.col != col) {
    op.type = EditType::kMove;
    path->push_back(op);
  }
}

}  // namespace

double TransformSequenceCost(const std::string& src, int src_row, int src_col,
                             const std::string& dst, int dst_row,
                             int dst_col) {
  double cost = 0;
  if (src != dst) {
    // A Transform may only reuse information already in the cell: the paper
    // assigns infinite cost without a string containment relationship. An
    // empty cell on exactly one side has no content in common with the
    // other, so it is likewise infeasible.
    if (src.empty() || dst.empty() || !StringContainment(src, dst)) {
      return kInfiniteCost;
    }
    cost += 1;
  }
  if (src_row != dst_row || src_col != dst_col) cost += 1;
  return cost;
}

double GreedyTed(const Table& input, const Table& output, EditPath* path,
                 const CancellationToken* cancel) {
  thread_local MatchScratch scratch;
  path->clear();
  Flatten(input, &scratch.in_cells);
  const std::vector<Cell>& in_cells = scratch.in_cells;
  std::vector<char>& used = scratch.used;
  used.assign(in_cells.size(), 0);
  const int in_rows = static_cast<int>(input.num_rows());
  const int in_cols = static_cast<int>(input.num_cols());
  const int out_rows = static_cast<int>(output.num_rows());
  const int out_cols = static_cast<int>(output.num_cols());
  double total = 0;

  // Poll the token on a stride: each output cell costs an O(input cells)
  // scan, so checking every 8th keeps both the overshoot and the polling
  // overhead (one clock read per check) negligible.
  size_t polls = 0;
  for (int r = 0; r < out_rows; ++r) {
    const Table::Row& out_row = output.row(static_cast<size_t>(r));
    const int stored = static_cast<int>(out_row.size());
    for (int c = 0; c < out_cols; ++c) {
      if (cancel != nullptr && (++polls & 0x7) == 0 &&
          cancel->IsCancelled()) {
        return kInfiniteCost;
      }
      const std::string& content = c < stored ? out_row[c] : EmptyCell();
      const size_t same =
          r < in_rows && c < in_cols
              ? static_cast<size_t>(r) * static_cast<size_t>(in_cols) + c
              : kNoCell;
      // Pass 1 (Algorithm 1 lines 8–12): an unused input cell.
      Match best = Cheapest(in_cells, used, 0, same, content, r, c);
      // Add is only feasible for empty output cells (infinite otherwise):
      // transformations must not introduce new information (§4.2.1). A
      // strict improvement is required, so transforms win ties, matching
      // the pseudocode's argmin over a list with transforms first.
      bool use_add = content.empty() && 1.0 < best.cost;

      if (!use_add && best.cost == kInfiniteCost) {
        // Fallback (lines 13–18): allow already-used input cells, and
        // re-offer Add against them.
        best = Cheapest(in_cells, used, 1, same, content, r, c);
        use_add = content.empty() && 1.0 < best.cost;
      }

      if (use_add) {
        EditOp op;
        op.type = EditType::kAdd;
        op.dst_row = r;
        op.dst_col = c;
        path->push_back(op);
        total += 1;
        continue;
      }
      if (best.cost == kInfiniteCost) {
        // No way to formulate this output cell: the whole path is
        // infeasible.
        return kInfiniteCost;
      }
      AppendTransformSequence(in_cells[best.index], content, r, c, path);
      total += best.cost;
      used[best.index] = 1;
    }
  }

  // Step 2 (lines 20–22): delete every input cell not used by the path.
  for (size_t i = 0; i < in_cells.size(); ++i) {
    if (used[i]) continue;
    EditOp op;
    op.type = EditType::kDelete;
    op.src_row = in_cells[i].row;
    op.src_col = in_cells[i].col;
    path->push_back(op);
    total += 1;
  }
  return total;
}

TedResult GreedyTed(const Table& input, const Table& output,
                    const CancellationToken* cancel) {
  TedResult result;
  // Most output cells contribute one edit op (plus Deletes for unused
  // input); reserving the common case keeps this to one growth at most.
  result.path.reserve(output.num_rows() * output.num_cols());
  result.cost = GreedyTed(input, output, &result.path, cancel);
  return result;
}

}  // namespace foofah
