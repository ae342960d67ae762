#include "heuristic/ted.h"

#include <gtest/gtest.h>

namespace foofah {
namespace {

// The worked example of §4.2.1 (Figures 9 and 10): the input example, its
// two child states c1 = drop(0) and c2 = split(0, ' '), and the output
// example. The paper reports edit-path costs 12, 9 and 18.
class Figure9Test : public testing::Test {
 protected:
  Table ei_ = {{"Niles C.", "Tel:(800)645-8397"},
               {"Jean H.", "Tel:(918)781-4600"},
               {"Frank K.", "Tel:(615)564-6500"}};
  Table c1_ = {{"Tel:(800)645-8397"},
               {"Tel:(918)781-4600"},
               {"Tel:(615)564-6500"}};
  Table c2_ = {{"Niles", "C.", "Tel:(800)645-8397"},
               {"Jean", "H.", "Tel:(918)781-4600"},
               {"Frank", "K.", "Tel:(615)564-6500"}};
  Table eo_ = {{"Tel", "(800)645-8397"},
               {"Tel", "(918)781-4600"},
               {"Tel", "(615)564-6500"}};
};

TEST_F(Figure9Test, PathCostsMatchPaper) {
  EXPECT_EQ(GreedyTed(ei_, eo_).cost, 12);
  EXPECT_EQ(GreedyTed(c1_, eo_).cost, 9);
  EXPECT_EQ(GreedyTed(c2_, eo_).cost, 18);
}

TEST_F(Figure9Test, CostOrderingPrioritizesDropOverSplit) {
  // "the child state c1 ... is closer to the goal than both its parent ei
  // and its sibling c2" (§4.2.1).
  double parent = GreedyTed(ei_, eo_).cost;
  double drop_child = GreedyTed(c1_, eo_).cost;
  double split_child = GreedyTed(c2_, eo_).cost;
  EXPECT_LT(drop_child, parent);
  EXPECT_LT(parent, split_child);
}

TEST_F(Figure9Test, P0PathShape) {
  // P0 (ei -> eo): 6 transforms, 3 moves, 3 deletes of the name column.
  TedResult r = GreedyTed(ei_, eo_);
  int transforms = 0, moves = 0, deletes = 0, adds = 0;
  for (const EditOp& op : r.path) {
    switch (op.type) {
      case EditType::kTransform: ++transforms; break;
      case EditType::kMove: ++moves; break;
      case EditType::kDelete: ++deletes; break;
      case EditType::kAdd: ++adds; break;
    }
  }
  EXPECT_EQ(transforms, 6);
  EXPECT_EQ(moves, 3);
  EXPECT_EQ(deletes, 3);
  EXPECT_EQ(adds, 0);
  EXPECT_EQ(PathCost(r.path), r.cost);
}

TEST_F(Figure9Test, P0MatchesThePaperEditForEdit) {
  // The paper lists P0 explicitly (§4.2.1, 1-indexed coordinates):
  //   Transform((1,2),(1,1)), Move((1,2),(1,1)), Transform((1,2),(1,2)),
  //   Transform((2,2),(2,1)), Move((2,2),(2,1)), Transform((2,2),(2,2)),
  //   Transform((3,2),(3,1)), Move((3,2),(3,1)), Transform((3,2),(3,2)),
  //   Delete((1,1)), Delete((2,1)), Delete((3,1)).
  // Our coordinates are 0-indexed; the multiset must match exactly.
  auto edit = [](EditType type, int sr, int sc, int dr, int dc) {
    EditOp op;
    op.type = type;
    op.src_row = sr;
    op.src_col = sc;
    op.dst_row = dr;
    op.dst_col = dc;
    return op;
  };
  std::vector<EditOp> expected;
  for (int r = 0; r < 3; ++r) {
    expected.push_back(edit(EditType::kTransform, r, 1, r, 0));
    expected.push_back(edit(EditType::kMove, r, 1, r, 0));
    expected.push_back(edit(EditType::kTransform, r, 1, r, 1));
    expected.push_back(edit(EditType::kDelete, r, 0, -1, -1));
  }
  TedResult r = GreedyTed(ei_, eo_);
  ASSERT_EQ(r.path.size(), expected.size());
  for (const EditOp& want : expected) {
    EXPECT_NE(std::find(r.path.begin(), r.path.end(), want), r.path.end())
        << "missing " << want.ToString();
  }
}

TEST(TransformSequenceCostTest, CostModel) {
  // Equal content, equal coords: free.
  EXPECT_EQ(TransformSequenceCost("x", 0, 0, "x", 0, 0), 0);
  // Equal content, different coords: one Move.
  EXPECT_EQ(TransformSequenceCost("x", 0, 0, "x", 1, 0), 1);
  // Containment, same coords: one Transform.
  EXPECT_EQ(TransformSequenceCost("Tel:(800)", 0, 0, "Tel", 0, 0), 1);
  // Containment, different coords: Transform + Move.
  EXPECT_EQ(TransformSequenceCost("Tel:(800)", 0, 1, "Tel", 0, 0), 2);
  // No containment: infeasible.
  EXPECT_EQ(TransformSequenceCost("abc", 0, 0, "xyz", 0, 0), kInfiniteCost);
  // One side empty: infeasible (no information in common).
  EXPECT_EQ(TransformSequenceCost("", 0, 0, "x", 0, 0), kInfiniteCost);
  EXPECT_EQ(TransformSequenceCost("x", 0, 0, "", 0, 0), kInfiniteCost);
  // Both empty, different coords: a plain Move.
  EXPECT_EQ(TransformSequenceCost("", 0, 0, "", 1, 1), 1);
}

TEST(GreedyTedTest, IdenticalTablesCostZero) {
  Table t = {{"a", "b"}, {"c", ""}};
  TedResult r = GreedyTed(t, t);
  EXPECT_EQ(r.cost, 0);
  EXPECT_TRUE(r.path.empty());
}

TEST(GreedyTedTest, PureDeletion) {
  Table in = {{"a", "b", "c"}};
  Table out = {{"a"}};
  EXPECT_EQ(GreedyTed(in, out).cost, 2);  // Delete b, delete c.
}

TEST(GreedyTedTest, AddOnlyFeasibleForEmptyOutputCells) {
  // Output needs an empty cell the input cannot supply: Add costs 1.
  Table in = {{"a"}};
  Table out = {{"a", ""}, {"", ""}};
  TedResult r = GreedyTed(in, out);
  EXPECT_NE(r.cost, kInfiniteCost);
  // Output needs content the input lacks entirely: infeasible.
  Table impossible = {{"zzz"}};
  EXPECT_EQ(GreedyTed(in, impossible).cost, kInfiniteCost);
}

TEST(GreedyTedTest, FallbackReusesProcessedCells) {
  // Both output cells can only come from the single input cell: the second
  // match must fall back to the already-used cell (Alg 1 lines 13-18).
  Table in = {{"Tel:(800)"}};
  Table out = {{"Tel", "(800)"}};
  TedResult r = GreedyTed(in, out);
  EXPECT_NE(r.cost, kInfiniteCost);
  // Transform (1) + [Transform+Move] (2) = 3.
  EXPECT_EQ(r.cost, 3);
}

TEST(GreedyTedTest, TieBreaksByRowMajorInputOrder) {
  // Both input cells contain "x"; the earlier one must be chosen for the
  // first output cell.
  Table in = {{"ax"}, {"bx"}};
  Table out = {{"x"}};
  TedResult r = GreedyTed(in, out);
  ASSERT_FALSE(r.path.empty());
  EXPECT_EQ(r.path[0].type, EditType::kTransform);
  EXPECT_EQ(r.path[0].src_row, 0);

  // Output (1,0) = "x" has two cost-1 sources: a Move from (0,0) and a
  // Transform of "ax" in place at (1,0). The Move's cell comes first in
  // row-major order, so it wins; output (0,0) = "" has no source and is
  // an Add, and the unused "ax" is deleted.
  r = GreedyTed(Table({{"x"}, {"ax"}}), Table({{""}, {"x"}}));
  ASSERT_EQ(r.path.size(), 3u);
  EXPECT_EQ(r.path[0].type, EditType::kAdd);
  EXPECT_EQ(r.path[1].type, EditType::kMove);
  EXPECT_EQ(r.path[1].src_row, 0);
  EXPECT_EQ(r.path[1].dst_row, 1);
  EXPECT_EQ(r.path[2].type, EditType::kDelete);
  EXPECT_EQ(r.path[2].src_row, 1);
  EXPECT_EQ(r.cost, 3);

  // Output (0,0) takes input (0,0) in place and output (0,1) moves input
  // (1,0) up, so when output (1,0) = "x" comes, every unused cell ("q",
  // and the padding "") is infeasible and the fallback pass runs over the
  // used ones. There a cost-1 Move from (0,0) comes first in row-major
  // order, but the same-coordinate (1,0) matches at cost 0 and must win.
  r = GreedyTed(Table({{"x", "q"}, {"x"}}), Table({{"x", "x"}, {"x"}}));
  ASSERT_EQ(r.path.size(), 2u);
  EXPECT_EQ(r.path[0].type, EditType::kMove);
  EXPECT_EQ(r.path[0].src_row, 1);
  EXPECT_EQ(r.path[0].src_col, 0);
  EXPECT_EQ(r.path[0].dst_row, 0);
  EXPECT_EQ(r.path[0].dst_col, 1);
  EXPECT_EQ(r.path[1].type, EditType::kDelete);
  EXPECT_EQ(r.path[1].src_col, 1);
  EXPECT_EQ(r.cost, 2);
}

TEST(GreedyTedTest, EmptyTables) {
  EXPECT_EQ(GreedyTed(Table(), Table()).cost, 0);
  // Empty input, non-empty output: infeasible unless output is all empty.
  EXPECT_EQ(GreedyTed(Table(), Table({{"x"}})).cost, kInfiniteCost);
  // Non-empty input, empty output: delete everything.
  EXPECT_EQ(GreedyTed(Table({{"a", "b"}}), Table()).cost, 2);
}

TEST(EditOpTest, ToStringFormats) {
  EditOp add;
  add.type = EditType::kAdd;
  add.dst_row = 1;
  add.dst_col = 2;
  EXPECT_EQ(add.ToString(), "add((1,2))");
  EditOp del;
  del.type = EditType::kDelete;
  del.src_row = 0;
  del.src_col = 3;
  EXPECT_EQ(del.ToString(), "delete((0,3))");
  EditOp mv;
  mv.type = EditType::kMove;
  mv.src_row = 0;
  mv.src_col = 1;
  mv.dst_row = 2;
  mv.dst_col = 3;
  EXPECT_EQ(mv.ToString(), "move((0,1)->(2,3))");
}

}  // namespace
}  // namespace foofah
