// Differential harness for the streaming executor: on every corpus
// scenario and on generated large inputs, ApplyProgramToCsvText must be
// byte-identical to ToCsv(Program::Execute(ParseCsv(bytes))) at every
// chunk size. This is the subsystem's ground-truth contract — the Table
// executor is the specification.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/driver.h"
#include "exec/runner.h"
#include "ops/operation.h"
#include "program/program.h"
#include "scenarios/corpus.h"
#include "scenarios/scenario.h"
#include "table/csv.h"
#include "table/table.h"

namespace foofah {
namespace exec {
namespace {

// Runs both executors on the same bytes and requires identical results:
// same output bytes on success, same Status (code and message) on
// failure. `base` carries option overrides (spill thresholds in the
// sweeps below); chunk size is applied on top of it.
void ExpectDiffIdentical(const Program& program, const std::string& input_bytes,
                         const std::vector<size_t>& chunk_sizes,
                         const ApplyOptions& base = {}) {
  std::string expected;
  Status expected_failure = Status::OK();
  Result<Table> parsed = ParseCsv(input_bytes);
  if (!parsed.ok()) {
    expected_failure = parsed.status();
  } else {
    Result<Table> out = program.Execute(*parsed);
    if (!out.ok()) {
      expected_failure = out.status();
    } else {
      expected = ToCsv(*out);
    }
  }

  for (size_t chunk_rows : chunk_sizes) {
    SCOPED_TRACE("chunk_rows=" + std::to_string(chunk_rows));
    ApplyOptions options = base;
    options.chunk_rows = chunk_rows;
    std::string output;
    Result<ApplyStats> stats =
        ApplyProgramToCsvText(program, input_bytes, &output, options);
    if (!expected_failure.ok()) {
      EXPECT_FALSE(stats.ok());
      if (!stats.ok()) {
        EXPECT_EQ(stats.status().code(), expected_failure.code());
        EXPECT_EQ(stats.status().message(), expected_failure.message());
      }
      continue;
    }
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_EQ(output, expected);
  }
}

// --- All 50 corpus scenarios --------------------------------------------

class CorpusDiffTest : public testing::TestWithParam<const Scenario*> {};

TEST_P(CorpusDiffTest, StreamingMatchesTableExecutorByteForByte) {
  const Scenario& scenario = *GetParam();
  if (!scenario.truth().has_value()) {
    GTEST_SKIP() << "oracle-only scenario (no ground-truth program)";
  }
  const std::string input_bytes = ToCsv(scenario.FullInput());
  ExpectDiffIdentical(*scenario.truth(), input_bytes, {1, 3, 17, 4096});
}

// The spill path must be invisible in the bytes: the same corpus-wide
// identity holds with the spill threshold forced to zero ("spill
// everything" — every blocking suffix runs entirely off disk runs) and
// at 1 MB (spills only where a relation actually outgrows it).
TEST_P(CorpusDiffTest, SpillThresholdsPreserveByteIdentity) {
  const Scenario& scenario = *GetParam();
  if (!scenario.truth().has_value()) {
    GTEST_SKIP() << "oracle-only scenario (no ground-truth program)";
  }
  const std::string input_bytes = ToCsv(scenario.FullInput());
  for (uint64_t threshold : {uint64_t{0}, uint64_t{1} << 20}) {
    SCOPED_TRACE("spill_threshold=" + std::to_string(threshold));
    ApplyOptions base;
    base.spill_threshold_bytes = threshold;
    ExpectDiffIdentical(*scenario.truth(), input_bytes, {1, 4096}, base);
  }
}

// The skip above is silent per-case, so drift would be invisible: if a
// corpus edit dropped a truth script, that scenario would quietly fall
// out of the differential net. Pin the skip set to exactly the four
// intentionally oracle-only scenarios (the fifth unsolvable scenario,
// pfe_double_divide, ships a truth script — it is "unsolvable" in the
// search-times-out sense — so it IS diffed above).
TEST(CorpusDiffCoverageTest, OnlyTheFourOracleOnlyScenariosAreSkipped) {
  int skipped = 0;
  std::string names;
  for (const Scenario& scenario : Corpus()) {
    if (scenario.truth().has_value()) continue;
    ++skipped;
    names += scenario.name() + " ";
    // Every scenario without a truth program must be there by design —
    // i.e. tagged unsolvable — never because a truth script went missing.
    EXPECT_FALSE(scenario.tags().solvable)
        << scenario.name() << " lost its truth program";
  }
  std::printf("oracle-only scenarios skipped by the diff net: %d (%s)\n",
              skipped, names.c_str());
  EXPECT_EQ(skipped, 4) << "the differential net's coverage changed: "
                        << names;
}

std::string ScenarioName(const testing::TestParamInfo<const Scenario*>& info) {
  return info.param->name();
}

std::vector<const Scenario*> AllScenarios() {
  std::vector<const Scenario*> out;
  for (const Scenario& s : Corpus()) out.push_back(&s);
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllFifty, CorpusDiffTest,
                         testing::ValuesIn(AllScenarios()), ScenarioName);

// --- Synthesize, then stream --------------------------------------------

// The deployment story end to end: synthesize from a small example with
// the parallel engine, then apply the synthesized (not ground-truth)
// program to the full dataset through the streaming executor.
TEST(SynthesizeThenStreamTest, SynthesizedProgramsStreamIdentically) {
  DriverOptions options;
  options.search.timeout_ms = 10'000;
  options.max_records = 3;
  int synthesized = 0;
  for (const Scenario& scenario : Corpus()) {
    if (!scenario.tags().solvable || !scenario.truth().has_value()) continue;
    if (scenario.truth()->size() > 2) continue;  // Keep the suite fast.
    DriverResult result =
        FindPerfectProgram(scenario.AsExampleBuilder(), scenario.FullInput(),
                           scenario.FullOutput(), options);
    ASSERT_TRUE(result.perfect) << scenario.name();
    ExpectDiffIdentical(result.program, ToCsv(scenario.FullInput()),
                        {2, 4096});
    if (++synthesized == 3) break;
  }
  EXPECT_EQ(synthesized, 3);
}

// --- Generalization probes: larger-than-example data ---------------------

// Scenario record generators are total functions of the index, so the
// same corpus programs can be diffed on inputs far larger than the raw
// benchmark data.
TEST(LargeInputDiffTest, CorpusProgramsOnGeneralizationProbes) {
  int probed = 0;
  for (const Scenario& scenario : Corpus()) {
    if (!scenario.truth().has_value()) continue;
    ExamplePair big = scenario.GeneralizationProbe(200);
    Result<Table> reference = scenario.truth()->Execute(big.input);
    if (!reference.ok()) continue;  // Truth need not generalize (§4.5).
    ExpectDiffIdentical(*scenario.truth(), ToCsv(big.input), {7, 1024});
    if (++probed == 10) break;
  }
  EXPECT_EQ(probed, 10);
}

// --- Generated ~100k-row inputs per operator class -----------------------

std::string GeneratedCsv(int rows, bool with_holes) {
  std::string csv;
  csv.reserve(static_cast<size_t>(rows) * 32);
  for (int i = 0; i < rows; ++i) {
    csv += "id-" + std::to_string(i);
    csv += with_holes && (i % 7 == 0) ? "," : ",v" + std::to_string(i % 13);
    csv += ",2024-0" + std::to_string(1 + i % 9) + "-1" + std::to_string(i % 9);
    csv += i % 3 == 0 ? ",42\n" : ",word\n";
  }
  return csv;
}

TEST(LargeInputDiffTest, StreamingOperators100kRows) {
  const std::string csv = GeneratedCsv(100'000, /*with_holes=*/false);
  ExpectDiffIdentical(Program({Split(2, "-"), Merge(0, 1, " "), Drop(2),
                               Extract(0, "[0-9]+"),
                               Divide(2, DividePredicate::kAllDigits)}),
                      csv, {512, 8192});
}

TEST(LargeInputDiffTest, FillAndHoles100kRows) {
  const std::string csv = GeneratedCsv(100'000, /*with_holes=*/true);
  ExpectDiffIdentical(Program({Fill(1), Move(3, 0)}), csv, {777, 8192});
}

TEST(LargeInputDiffTest, WindowedOperators100kRows) {
  const std::string csv = GeneratedCsv(100'000, /*with_holes=*/false);
  ExpectDiffIdentical(Program({Fold(2)}), csv, {512, 8192});
  ExpectDiffIdentical(Program({WrapEvery(3)}), csv, {512, 8192});
  // Group size deliberately coprime with the chunk size.
  ExpectDiffIdentical(Program({WrapEvery(7)}), csv, {512, 8192});
}

TEST(LargeInputDiffTest, WidthDynamicOperators100kRows) {
  const std::string csv = GeneratedCsv(100'000, /*with_holes=*/true);
  ExpectDiffIdentical(Program({DeleteRows(1)}), csv, {512, 8192});
  ExpectDiffIdentical(Program({DeleteRow(0), DeleteRows(1), Drop(2)}), csv,
                      {512, 8192});
}

TEST(LargeInputDiffTest, BlockingSuffix5kRows) {
  // Transpose turns rows into (very wide) columns; keep the row count
  // moderate so the reference executor's output stays printable.
  const std::string csv = GeneratedCsv(5'000, /*with_holes=*/false);
  ExpectDiffIdentical(Program({Drop(3), Transpose()}), csv, {512, 8192});
  ExpectDiffIdentical(Program({Merge(0, 1, "|"), WrapEvery(500), WrapAll()}),
                      csv, {512, 8192});
}

// --- Generated blocking-op scenarios at every spill threshold -------------

// One program per blocking operator (the five ops with spill-aware
// executors), swept at thresholds {0, 1 MB, default} × chunks {1, 4096}.
// Threshold 0 forces every inter-stage relation onto disk; 1 MB mixes
// spilled and in-memory stages; the default (no budget → never spill)
// pins the sweep to the in-memory reference path.
TEST(LargeInputDiffTest, BlockingOperatorsAcrossSpillThresholds) {
  const std::string csv = GeneratedCsv(2'000, /*with_holes=*/true);
  const std::vector<Program> programs = {
      Program({Drop(3), Transpose()}),
      Program({Transpose(), Fill(0), Transpose()}),
      Program({Unfold(1, 2)}),
      Program({WrapColumn(1)}),
      Program({Merge(0, 1, "|"), WrapAll()}),
      Program({SplitAll(2, "-")}),
      Program({SplitAll(2, "-"), Transpose(), DeleteRows(1)}),
  };
  const std::vector<uint64_t> thresholds = {
      0, uint64_t{1} << 20, ApplyOptions::kSpillAuto};
  for (size_t p = 0; p < programs.size(); ++p) {
    for (uint64_t threshold : thresholds) {
      SCOPED_TRACE("program=" + std::to_string(p) +
                   " spill_threshold=" + std::to_string(threshold));
      ApplyOptions base;
      base.spill_threshold_bytes = threshold;
      ExpectDiffIdentical(programs[p], csv, {1, 4096}, base);
    }
  }
}

// --- The bounded-memory claim, as a unit assertion -----------------------

TEST(BoundedMemoryTest, PeakTrackedBytesDoNotScaleWithInputSize) {
  // A pure streaming pipeline's tracked peak is dominated by fixed-size
  // buffers (I/O buffer, chunk spine). Growing the input 8x
  // must not grow the peak anywhere near 8x. (check.sh stage 7 gates the
  // same ratio on real multi-hundred-MB files via the CLI.)
  Program program({Split(2, "-"), Drop(1), Fill(0)});
  ApplyOptions options;
  options.chunk_rows = 2048;

  std::string small_csv = GeneratedCsv(25'000, false);
  std::string big_csv = GeneratedCsv(200'000, false);
  std::string out_small, out_big;
  Result<ApplyStats> small =
      ApplyProgramToCsvText(program, small_csv, &out_small, options);
  Result<ApplyStats> big =
      ApplyProgramToCsvText(program, big_csv, &out_big, options);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(big.ok());
  EXPECT_GE(big->bytes_in, 8 * small->bytes_in);
  EXPECT_LT(big->peak_tracked_bytes, 2 * small->peak_tracked_bytes)
      << "peak " << small->peak_tracked_bytes << " -> "
      << big->peak_tracked_bytes << " for an 8x input";
}

}  // namespace
}  // namespace exec
}  // namespace foofah
