// Randomized (but fully deterministic) synthesis fuzzing: build a random
// table, apply a random short chain of in-domain operations to produce a
// goal, and check the search's contract over the whole distribution:
//
//  - every program the search returns replays to the goal exactly (§4.5's
//    correctness guarantee — must hold for EVERY case);
//  - single-operation goals are always rediscovered, and usually with a
//    program no longer than the construction (the heuristic is
//    inadmissible, so minimality holds statistically, not per case —
//    §4.2 explicitly accepts "slightly longer" programs);
//  - across random two-operation goals — many of which are adversarial
//    reshapes unlike any real wrangling task — a healthy majority is
//    still solved within budget.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ops/enumerate.h"
#include "ops/operators.h"
#include "scenarios/corpus.h"
#include "search/search.h"
#include "testing/random_tables.h"
#include "testing/search_outcome.h"
#include "util/rng.h"

namespace foofah {
namespace {

using testing::RandomRaggedTable;
using testing::RandomTable;

struct FuzzCase {
  Table input;
  Table goal;
  int applied = 0;
  /// A Divide is part of the construction. Divide's cell movements follow
  /// no geometric pattern, so TED Batch overestimates paths through it —
  /// the paper's own §5.2 failure analysis — and the search legitimately
  /// routes around it with longer programs.
  bool used_divide = false;
};

/// Applies up to `max_ops` random in-domain operations to fuzz.goal.
void BuildGoal(FuzzCase* fuzz, Lcg* rng, int max_ops);

FuzzCase MakeCase(int seed, int max_ops) {
  Lcg rng(static_cast<uint64_t>(seed) + 17);
  FuzzCase fuzz;
  fuzz.input = RandomTable(&rng);
  fuzz.goal = fuzz.input;
  BuildGoal(&fuzz, &rng, max_ops);
  return fuzz;
}

FuzzCase MakeRaggedCase(int seed, int max_ops) {
  Lcg rng(static_cast<uint64_t>(seed) + 4242);
  FuzzCase fuzz;
  fuzz.input = RandomRaggedTable(&rng);
  fuzz.goal = fuzz.input;
  BuildGoal(&fuzz, &rng, max_ops);
  return fuzz;
}

void BuildGoal(FuzzCase* fuzz_ptr, Lcg* rng_ptr, int max_ops) {
  FuzzCase& fuzz = *fuzz_ptr;
  Lcg& rng = *rng_ptr;
  OperatorRegistry registry = OperatorRegistry::Default();
  for (int step = 0; step < max_ops; ++step) {
    std::vector<Operation> candidates =
        EnumerateCandidates(fuzz.goal, fuzz.goal, registry);
    if (candidates.empty()) break;
    const Operation& chosen =
        candidates[rng.Next(static_cast<uint32_t>(candidates.size()))];
    Result<Table> next = ApplyOperation(fuzz.goal, chosen);
    if (!next.ok()) break;
    if (next->num_cells() > 40 || next->num_rows() == 0 ||
        next->num_cols() == 0) {
      break;
    }
    fuzz.goal = std::move(next).value();
    fuzz.used_divide = fuzz.used_divide || chosen.op == OpCode::kDivide;
    ++fuzz.applied;
  }
}

SearchOptions FuzzOptions() {
  SearchOptions options;
  // The expansion budget is the real fuzz bound — it is what makes these
  // tests deterministic. The wall clock is only a runaway safety net, and
  // it must be generous enough never to bind when the machine is slow:
  // sanitizers cost 3-10x, and a parallel ctest run contends for cores
  // (a 2 s limit here failed a single-op case under `ctest -j4` purely
  // from scheduling noise).
  options.timeout_ms = 60'000;
  options.max_expansions = 8'000;
  return options;
}

TEST(SynthesisFuzzTest, SingleOpGoalsAlwaysRediscovered) {
  int attempted = 0;
  int near_minimal = 0;
  for (int seed = 0; seed < 40; ++seed) {
    FuzzCase fuzz = MakeCase(seed, /*max_ops=*/1);
    if (fuzz.applied == 0 || fuzz.input.ContentEquals(fuzz.goal)) continue;
    ++attempted;
    SearchResult r = SynthesizeProgram(fuzz.input, fuzz.goal, FuzzOptions());
    ASSERT_TRUE(r.found) << "seed " << seed << "\ninput:\n"
                         << fuzz.input.ToString() << "goal:\n"
                         << fuzz.goal.ToString();
    Result<Table> replay = r.program.Execute(fuzz.input);
    ASSERT_TRUE(replay.ok()) << r.program.ToScript();
    EXPECT_EQ(*replay, fuzz.goal) << "seed " << seed;
    if (r.program.size() <= 2) ++near_minimal;
  }
  ASSERT_GT(attempted, 20);
  // Minimality is statistical, not per-case (inadmissible heuristic).
  EXPECT_GE(near_minimal * 100, attempted * 80)
      << near_minimal << "/" << attempted << " near-minimal";
}

TEST(SynthesisFuzzTest, TwoOpGoalsMostlySolvedAndAlwaysCorrect) {
  int attempted = 0;
  int solved = 0;
  for (int seed = 0; seed < 40; ++seed) {
    FuzzCase fuzz = MakeCase(seed, /*max_ops=*/2);
    if (fuzz.applied == 0 || fuzz.input.ContentEquals(fuzz.goal)) continue;
    ++attempted;
    SearchResult r = SynthesizeProgram(fuzz.input, fuzz.goal, FuzzOptions());
    if (!r.found) continue;
    ++solved;
    // The hard guarantee: whatever is returned is correct.
    Result<Table> replay = r.program.Execute(fuzz.input);
    ASSERT_TRUE(replay.ok()) << "seed " << seed << "\n"
                             << r.program.ToScript();
    EXPECT_EQ(*replay, fuzz.goal) << "seed " << seed;
  }
  ASSERT_GT(attempted, 15);
  // Random reshapes are adversarial; a healthy majority must still work.
  EXPECT_GE(solved * 100, attempted * 70)
      << "solved " << solved << "/" << attempted;
}

TEST(SynthesisFuzzTest, RaggedUnicodeGoalsIdenticalAcrossThreadCounts) {
  // Ragged rows + empty cells + multi-byte UTF-8 drive the CoW sharing
  // paths hardest: short rows are read past their stored length, Delete
  // shares survivor handles unpadded, and Fill detaches individual rows.
  // The parallel engine must stay bit-identical to serial on all of it.
  int attempted = 0;
  for (int seed = 0; seed < 20; ++seed) {
    FuzzCase fuzz = MakeRaggedCase(seed, /*max_ops=*/2);
    if (fuzz.input.ContentEquals(fuzz.goal)) continue;
    ++attempted;
    // A small budget keeps unsolved adversarial goals cheap (identical
    // budget exhaustion is part of the contract); the ~10x tsan run
    // shares this bound.
    SearchOptions options = testing::DeterministicOptions(1);
    options.max_expansions = 400;
    SearchResult serial = SynthesizeProgram(fuzz.input, fuzz.goal, options);
    options.num_threads = 8;
    SearchResult threaded = SynthesizeProgram(fuzz.input, fuzz.goal, options);
    std::string context = "ragged seed " + std::to_string(seed);
    testing::ExpectIdenticalOutcome(serial, threaded, context);
    if (serial.found) {
      Result<Table> replay = serial.program.Execute(fuzz.input);
      ASSERT_TRUE(replay.ok()) << context << "\n" << serial.program.ToScript();
      EXPECT_EQ(*replay, fuzz.goal) << context;
    }
  }
  ASSERT_GT(attempted, 12);
}

TEST(SynthesisFuzzTest, CorpusSweepIdenticalAcrossThreadCounts) {
  // Every corpus scenario, 1 thread vs 8: the CoW substrate shares each
  // expanded state's rows across all pool workers simultaneously, and the
  // programs and stats must not notice. The expansion cap keeps unsolved
  // scenarios bounded (and tsan runtime tolerable); identical budget
  // exhaustion is itself part of the contract being checked.
  int scenarios = 0;
  for (const Scenario& scenario : Corpus()) {
    Result<ExamplePair> example =
        scenario.MakeExample(std::min(2, scenario.total_records()));
    ASSERT_TRUE(example.ok()) << scenario.name();
    ++scenarios;
    SearchOptions options = testing::DeterministicOptions(1);
    options.max_expansions = 250;
    SearchResult serial =
        SynthesizeProgram(example->input, example->output, options);
    options.num_threads = 8;
    SearchResult threaded =
        SynthesizeProgram(example->input, example->output, options);
    testing::ExpectIdenticalOutcome(serial, threaded, scenario.name());
  }
  EXPECT_EQ(scenarios, 50);
}

}  // namespace
}  // namespace foofah
