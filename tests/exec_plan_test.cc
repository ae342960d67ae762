#include "exec/plan.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "ops/operation.h"
#include "ops/operators.h"
#include "program/program.h"
#include "table/table.h"

namespace foofah {
namespace exec {
namespace {

Shape S(uint64_t rows, uint64_t cols) { return Shape{rows, cols}; }

// Ground truth for a shape transition: run the real Table operator on a
// rectangular rows x cols table and read back the stored shape.
Shape ExecutedShape(const Operation& op, uint64_t rows, uint64_t cols) {
  std::vector<Table::Row> data;
  for (uint64_t r = 0; r < rows; ++r) {
    Table::Row row;
    for (uint64_t c = 0; c < cols; ++c) {
      std::string cell = "r";
      cell += std::to_string(r);
      cell += 'c';
      cell += std::to_string(c);
      row.push_back(std::move(cell));
    }
    data.push_back(std::move(row));
  }
  Result<Table> out = ApplyOperation(Table(std::move(data)), op);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return Shape{out->num_rows(), out->num_cols()};
}

// PropagateShape must agree with the Table executor on every transition
// it claims to know statically.
void ExpectMatchesExecutor(const Operation& op, uint64_t rows, uint64_t cols) {
  std::optional<Shape> predicted = PropagateShape(op, S(rows, cols));
  ASSERT_TRUE(predicted.has_value()) << op.ToString();
  EXPECT_EQ(*predicted, ExecutedShape(op, rows, cols))
      << op.ToString() << " on " << rows << "x" << cols;
}

TEST(PropagateShapeTest, RowLocalTransitionsMatchTableExecutor) {
  ExpectMatchesExecutor(Drop(1), 3, 4);
  ExpectMatchesExecutor(Move(0, 2), 3, 4);
  ExpectMatchesExecutor(Copy(2), 3, 4);
  ExpectMatchesExecutor(Merge(0, 1, " "), 3, 4);
  ExpectMatchesExecutor(Split(1, "c"), 3, 4);
  ExpectMatchesExecutor(Divide(1, DividePredicate::kAllDigits), 3, 4);
  ExpectMatchesExecutor(Extract(1, "[0-9]+"), 3, 4);
  ExpectMatchesExecutor(Fill(2), 3, 4);
}

TEST(PropagateShapeTest, FoldMathMatchesTableExecutor) {
  // No header: every row emits (W - first_col) rows.
  ExpectMatchesExecutor(Fold(1), 4, 5);
  ExpectMatchesExecutor(Fold(2), 3, 3);
  // With header: the header row is consumed, rows gain the header cell.
  ExpectMatchesExecutor(Fold(1, /*with_header=*/true), 4, 5);
  ExpectMatchesExecutor(Fold(0, /*with_header=*/true), 2, 3);
}

TEST(PropagateShapeTest, WrapEveryMathMatchesTableExecutor) {
  ExpectMatchesExecutor(WrapEvery(2), 6, 3);   // Exact groups.
  ExpectMatchesExecutor(WrapEvery(4), 6, 3);   // Ragged last group.
  ExpectMatchesExecutor(WrapEvery(10), 6, 3);  // One short group: k > rows.
}

TEST(PropagateShapeTest, EmptyRelationPinsWidthToZero) {
  // Table's invariant: rows == 0 implies cols == 0. A rebuilding
  // operator on an empty relation yields an empty relation.
  EXPECT_EQ(*PropagateShape(Drop(0), S(0, 0)), S(0, 0));
  EXPECT_EQ(*PropagateShape(Copy(0), S(0, 0)), S(0, 0));
  // Fold-with-header on a single row consumes the header and emits
  // nothing; the empty result pins its width to 0 too.
  ExpectMatchesExecutor(Fold(0, /*with_header=*/true), 1, 2);
  EXPECT_EQ(*PropagateShape(Fold(0, true), S(1, 2)), S(0, 0));
}

TEST(PropagateShapeTest, WidthDynamicOperatorsRequireMeasurement) {
  EXPECT_FALSE(PropagateShape(DeleteRows(0), S(3, 2)).has_value());
  EXPECT_FALSE(PropagateShape(DeleteRow(1), S(3, 2)).has_value());
}

TEST(StreamingPrefixTest, CutsAtFirstBlockingOperator) {
  Program all_streaming({Drop(0), Split(0, ":"), Fill(1)});
  EXPECT_EQ(StreamingPrefixLength(all_streaming), 3u);

  Program blocked_mid({Drop(0), Transpose(), Fill(0)});
  EXPECT_EQ(StreamingPrefixLength(blocked_mid), 1u);

  Program blocked_first({WrapAll(), Drop(0)});
  EXPECT_EQ(StreamingPrefixLength(blocked_first), 0u);

  // Windowed operators stream (bounded buffers), so they don't cut.
  Program windowed({Fold(1), WrapEvery(2)});
  EXPECT_EQ(StreamingPrefixLength(windowed), 2u);

  EXPECT_EQ(StreamingPrefixLength(Program()), 0u);
}

TEST(ResolveTest, ChainsShapesThroughThePrefix) {
  Program program({Split(0, ":"), Drop(1), Move(0, 1)});
  int measure_calls = 0;
  MeasureFn measure = [&](const std::vector<StepPlan>&) -> Result<Shape> {
    ++measure_calls;
    return Shape{0, 0};
  };
  Result<std::vector<StepPlan>> plan =
      ResolveStreamingShapes(program, 3, S(10, 2), measure);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(measure_calls, 0);
  ASSERT_EQ(plan->size(), 3u);
  EXPECT_EQ((*plan)[0].in, S(10, 2));
  EXPECT_EQ((*plan)[0].out, S(10, 3));  // Split widens.
  EXPECT_EQ((*plan)[1].in, S(10, 3));
  EXPECT_EQ((*plan)[1].out, S(10, 2));  // Drop narrows.
  EXPECT_EQ((*plan)[2].out, S(10, 2));  // Move preserves.
  EXPECT_FALSE((*plan)[0].out_measured);
  EXPECT_EQ((*plan)[1].strategy, Streamability::kStreaming);
}

TEST(ResolveTest, MeasuresEachWidthDynamicStep) {
  Program program({DeleteRows(1), Drop(0), DeleteRow(0)});
  std::vector<size_t> measured_lengths;
  MeasureFn measure =
      [&](const std::vector<StepPlan>& steps) -> Result<Shape> {
    measured_lengths.push_back(steps.size());
    // The last step is the one being measured; its input is resolved.
    EXPECT_FALSE(steps.back().out_measured);
    if (steps.size() == 1) {
      EXPECT_EQ(steps.back().op.op, OpCode::kDelete);
      EXPECT_EQ(steps.back().in, S(10, 3));
      return Shape{6, 2};  // Pretend Delete dropped the widest rows.
    }
    EXPECT_EQ(steps.back().op.op, OpCode::kDeleteRow);
    EXPECT_EQ(steps.back().in, S(6, 1));  // After the measured 6x2, Drop.
    return Shape{5, 1};
  };
  Result<std::vector<StepPlan>> plan =
      ResolveStreamingShapes(program, 3, S(10, 3), measure);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(measured_lengths.size(), 2u);
  EXPECT_EQ(measured_lengths[0], 1u);
  EXPECT_EQ(measured_lengths[1], 3u);
  EXPECT_TRUE((*plan)[0].out_measured);
  EXPECT_EQ((*plan)[0].out, S(6, 2));
  EXPECT_FALSE((*plan)[1].out_measured);
  EXPECT_EQ((*plan)[1].out, S(6, 1));
  EXPECT_TRUE((*plan)[2].out_measured);
  EXPECT_EQ((*plan)[2].out, S(5, 1));
}

TEST(ResolveTest, MeasureFailurePropagates) {
  Program program({DeleteRows(0)});
  MeasureFn measure = [](const std::vector<StepPlan>&) -> Result<Shape> {
    return Status::Internal("measuring pass exploded");
  };
  Result<std::vector<StepPlan>> plan =
      ResolveStreamingShapes(program, 1, S(3, 1), measure);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().message(), "measuring pass exploded");
}

TEST(ResolveTest, ValidationErrorsMatchTheTableExecutorExactly) {
  // The plan validates each step against the shape it will receive with
  // the same predicate ApplyOperation uses, so an invalid program fails
  // with the IDENTICAL Status before any output is written.
  struct Case {
    Program program;
    Shape input;
    Table table;
  };
  std::vector<Case> cases;
  cases.push_back({Program({Drop(5)}), S(2, 2), Table({{"a", "b"}, {"c", "d"}})});
  cases.push_back({Program({Move(0, 0)}), S(1, 2), Table({{"a", "b"}})});
  cases.push_back(
      {Program({Split(0, "")}), S(1, 2), Table({{"a", "b"}})});
  cases.push_back({Program({Drop(0), Drop(0)}), S(1, 1), Table({{"a"}})});
  cases.push_back({Program({Extract(0, "(unclosed")}), S(1, 1), Table({{"a"}})});
  cases.push_back({Program({Fold(0, true)}), S(0, 0), Table()});

  MeasureFn never = [](const std::vector<StepPlan>&) -> Result<Shape> {
    ADD_FAILURE() << "measure must not run for invalid programs";
    return Shape{};
  };
  for (const Case& c : cases) {
    Result<std::vector<StepPlan>> plan = ResolveStreamingShapes(
        c.program, StreamingPrefixLength(c.program), c.input, never);
    Result<Table> executed = c.program.Execute(c.table);
    ASSERT_FALSE(plan.ok());
    ASSERT_FALSE(executed.ok());
    EXPECT_EQ(plan.status().code(), executed.status().code());
    EXPECT_EQ(plan.status().message(), executed.status().message());
  }
}

TEST(ResolveTest, EmptyProgramYieldsEmptyPlan) {
  MeasureFn never = [](const std::vector<StepPlan>&) -> Result<Shape> {
    return Shape{};
  };
  Result<std::vector<StepPlan>> plan =
      ResolveStreamingShapes(Program(), 0, S(5, 2), never);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->empty());
}

}  // namespace
}  // namespace exec
}  // namespace foofah
