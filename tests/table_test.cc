#include "table/table.h"

#include <gtest/gtest.h>

namespace foofah {
namespace {

TEST(TableTest, EmptyTable) {
  Table t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_EQ(t.num_cols(), 0u);
  EXPECT_EQ(t.num_cells(), 0u);
  EXPECT_TRUE(t.IsRectangular());
}

TEST(TableTest, LiteralBuilder) {
  Table t = {{"a", "b"}, {"c", "d"}};
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_cols(), 2u);
  EXPECT_EQ(t.cell(1, 0), "c");
}

TEST(TableTest, RaggedRowsReadAsEmpty) {
  Table t = {{"a", "b", "c"}, {"d"}};
  EXPECT_EQ(t.num_cols(), 3u);
  EXPECT_EQ(t.cell(1, 1), "");
  EXPECT_EQ(t.cell(1, 2), "");
  EXPECT_EQ(t.cell(9, 9), "");  // Fully out of range.
  EXPECT_FALSE(t.IsRectangular());
}

TEST(TableTest, SetCellExtendsRow) {
  Table t = {{"a"}};
  t.set_cell(0, 2, "z");
  EXPECT_EQ(t.cell(0, 2), "z");
  EXPECT_EQ(t.cell(0, 1), "");
}

TEST(TableTest, RectangularizePadsAllRows) {
  Table t = {{"a", "b"}, {"c"}};
  t.Rectangularize();
  EXPECT_TRUE(t.IsRectangular());
  EXPECT_EQ(t.row(1).size(), 2u);
}

TEST(TableTest, ColumnPredicates) {
  Table t = {{"a", ""}, {"b", ""}, {"c", "x"}};
  EXPECT_TRUE(t.ColumnHasNoNulls(0));
  EXPECT_FALSE(t.ColumnHasNoNulls(1));
  EXPECT_FALSE(t.ColumnIsEmpty(1));
  Table u = {{"a", ""}, {"b", ""}};
  EXPECT_TRUE(u.ColumnIsEmpty(1));
  // Out-of-range columns read as all-empty.
  EXPECT_FALSE(t.ColumnHasNoNulls(5));
}

TEST(TableTest, ColumnExtraction) {
  Table t = {{"a", "1"}, {"b", "2"}, {"c"}};
  std::vector<std::string> col = t.Column(1);
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col[0], "1");
  EXPECT_EQ(col[2], "");
}

TEST(TableTest, CharSets) {
  Table t = {{"Tel:", "a1"}};
  auto alnum = t.AlnumCharSet();
  EXPECT_TRUE(alnum.count('T'));
  EXPECT_TRUE(alnum.count('1'));
  EXPECT_FALSE(alnum.count(':'));
  auto symbols = t.SymbolCharSet();
  EXPECT_TRUE(symbols.count(':'));
  EXPECT_EQ(symbols.size(), 1u);
}

TEST(TableTest, ContentEqualsIgnoresTrailingEmptyCells) {
  Table a = {{"x", ""}, {"y"}};
  Table b = {{"x"}, {"y", "", ""}};
  EXPECT_TRUE(a.ContentEquals(b));
  EXPECT_TRUE(a == b);
}

TEST(TableTest, ContentEqualsDetectsDifferences) {
  Table a = {{"x", "y"}};
  EXPECT_FALSE(a.ContentEquals(Table({{"x", "z"}})));
  EXPECT_FALSE(a.ContentEquals(Table({{"x"}})));        // Width differs.
  EXPECT_FALSE(a.ContentEquals(Table({{"x", "y"}, {}})));  // Height differs.
  // Leading empty cells are significant.
  EXPECT_FALSE(Table({{"", "x"}}).ContentEquals(Table({{"x"}})));
}

TEST(TableTest, HashConsistentWithContentEquals) {
  Table a = {{"x", ""}, {"y"}};
  Table b = {{"x"}, {"y", ""}};
  EXPECT_EQ(a.Hash(), b.Hash());
  Table c = {{"x"}, {"z"}};
  EXPECT_NE(a.Hash(), c.Hash());
}

TEST(TableTest, HashDistinguishesCellBoundaries) {
  // "ab"+"c" vs "a"+"bc" must hash differently.
  Table a = {{"ab", "c"}};
  Table b = {{"a", "bc"}};
  EXPECT_NE(a.Hash(), b.Hash());
  // One row of two cells vs two rows of one cell.
  Table c = {{"a", "b"}};
  Table d = {{"a"}, {"b"}};
  EXPECT_NE(c.Hash(), d.Hash());
}

TEST(TableTest, HashValueIsPinned) {
  // Guidance snapshots persist Table::Hash() values, so the function may
  // not change. The value is FNV-1a over "table", then each row's cells up
  // to its last non-empty one, each followed by 0x1f, then 0x1e per row.
  Table t = {{"Niles C.", "Tel:(800)645-8397", ""},
             {"", "Fax:(907)586-7252"},
             {""},
             {"Jean H."}};
  EXPECT_EQ(t.Hash(), 0x77745ef2ad87da1bull);
}

TEST(TableTest, AppendRow) {
  Table t;
  t.AppendRow({"a", "b"});
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.cell(0, 1), "b");
}

TEST(TableTest, NumColsTracksEveryMutationPath) {
  // num_cols is maintained eagerly (O(1) reads on the search's hot size
  // filter); every widening mutation must keep it current.
  Table t;
  EXPECT_EQ(t.num_cols(), 0u);
  t.AppendRow({"a"});
  EXPECT_EQ(t.num_cols(), 1u);
  t.AppendRow({"b", "c", "d"});
  EXPECT_EQ(t.num_cols(), 3u);
  t.set_cell(0, 4, "wide");
  EXPECT_EQ(t.num_cols(), 5u);
  EXPECT_EQ(t.num_cells(), 10u);
  t.Rectangularize();
  EXPECT_EQ(t.num_cols(), 5u);

  Table from_rows(std::vector<Table::Row>{{"x"}, {"y", "z"}});
  EXPECT_EQ(from_rows.num_cols(), 2u);
  Table from_list = {{"p", "q", "r"}, {"s"}};
  EXPECT_EQ(from_list.num_cols(), 3u);
}

TEST(TableTest, ColumnViewMatchesColumnWithoutCopying) {
  Table t = {{"a", "b"}, {"c"}, {"d", "e"}};
  std::vector<std::string_view> view = t.ColumnView(1);
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0], "b");
  EXPECT_EQ(view[1], "");  // Short row reads as empty.
  EXPECT_EQ(view[2], "e");
  // Views alias the table's storage, not copies of it.
  EXPECT_EQ(view[0].data(), t.cell(0, 1).data());
}

TEST(TableTest, CopyIsHandleSharingNotCellCopying) {
  Table parent = {{"a", "b"}, {"c", "d"}};
  Table child = parent;
  // The copy shares the parent's immutable row blocks — same handles,
  // same addresses, no cells cloned.
  EXPECT_EQ(child.row_handle(0).get(), parent.row_handle(0).get());
  EXPECT_EQ(child.row_handle(1).get(), parent.row_handle(1).get());
  EXPECT_EQ(&child.row(0), &parent.row(0));
}

TEST(TableTest, SetCellDetachesOnlyTheWrittenRow) {
  Table parent = {{"a", "b"}, {"c", "d"}, {"e", "f"}};
  Table child = parent;
  child.set_cell(1, 0, "X");
  // The written row detached; the others still share storage.
  EXPECT_NE(child.row_handle(1).get(), parent.row_handle(1).get());
  EXPECT_EQ(child.row_handle(0).get(), parent.row_handle(0).get());
  EXPECT_EQ(child.row_handle(2).get(), parent.row_handle(2).get());
  // And the parent never sees the write.
  EXPECT_EQ(parent.cell(1, 0), "c");
  EXPECT_EQ(child.cell(1, 0), "X");
}

TEST(TableTest, AppendSharedRowSharesTheHandle) {
  Table src = {{"a", "b", "c"}};
  Table dst = {{"x"}};
  dst.AppendSharedRow(src.row_handle(0));
  EXPECT_EQ(dst.row_handle(1).get(), src.row_handle(0).get());
  EXPECT_EQ(dst.num_cols(), 3u);  // Width grew to the shared row's length.
  // Writing through dst detaches its copy; src is untouched.
  dst.set_cell(1, 0, "MUT");
  EXPECT_EQ(src.cell(0, 0), "a");
  EXPECT_NE(dst.row_handle(1).get(), src.row_handle(0).get());
}

TEST(TableTest, RemoveRowShrinksNumCols) {
  // num_cols always equals the widest *stored* row — removing the widest
  // row narrows the table (the invariant documented in table.h; the
  // pre-CoW implementation left num_cols stale here).
  Table t = {{"a", "b", "c", "d"}, {"x", "y"}, {"z"}};
  EXPECT_EQ(t.num_cols(), 4u);
  t.RemoveRow(0);
  EXPECT_EQ(t.num_cols(), 2u);
  t.RemoveRow(0);
  EXPECT_EQ(t.num_cols(), 1u);
  t.RemoveRow(0);
  EXPECT_EQ(t.num_cols(), 0u);
  EXPECT_TRUE(t.empty());
}

TEST(TableTest, RectangularizeDetachesOnlyShortRows) {
  Table parent = {{"a", "b"}, {"c"}};
  Table child = parent;
  child.Rectangularize();
  // The full-width row is untouched and still shared; only the padded row
  // was detached.
  EXPECT_EQ(child.row_handle(0).get(), parent.row_handle(0).get());
  EXPECT_NE(child.row_handle(1).get(), parent.row_handle(1).get());
  EXPECT_EQ(parent.row(1).size(), 1u);  // Parent layout unchanged.
  EXPECT_EQ(child.row(1).size(), 2u);
}

TEST(TableTest, MutationAfterCopyNeverLeaksEitherDirection) {
  Table original = {{"a", "b"}, {"c", "d"}};
  Table copy = original;
  original.AppendRow({"e", "f"});
  original.set_cell(0, 0, "A");
  EXPECT_EQ(copy.num_rows(), 2u);
  EXPECT_EQ(copy.cell(0, 0), "a");
  copy.RemoveRow(1);
  copy.set_cell(0, 1, "B");
  EXPECT_EQ(original.num_rows(), 3u);
  EXPECT_EQ(original.cell(0, 0), "A");
  EXPECT_EQ(original.cell(0, 1), "b");
  EXPECT_EQ(original.cell(1, 0), "c");
}

TEST(TableTest, CopyRowsIsADeepSnapshot) {
  Table t = {{"a", "b"}, {"c"}};
  std::vector<Table::Row> rows = t.CopyRows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1].size(), 1u);  // Stored layout, not padded.
  rows[0][0] = "MUT";
  EXPECT_EQ(t.cell(0, 0), "a");  // Snapshot does not alias the table.
}

TEST(TableTest, ToStringRendersGrid) {
  Table t = {{"ab", "c"}};
  std::string s = t.ToString();
  EXPECT_NE(s.find("ab"), std::string::npos);
  EXPECT_NE(s.find("|"), std::string::npos);
  EXPECT_EQ(Table().ToString(), "(empty table)\n");
}

}  // namespace
}  // namespace foofah
