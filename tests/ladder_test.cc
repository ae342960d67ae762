#include "server/ladder.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenarios/corpus.h"
#include "scenarios/generated.h"
#include "testing/budget_profile.h"
#include "util/cancellation.h"

namespace foofah {
namespace {

// A §2-style pair complex enough that a dozen-node budget truncates every
// rung: Split + Fill + Unfold territory.
Table HardInput() {
  return {
      {"Niles C.", "Tel:(800)645-8397"},
      {"", "Fax:(907)586-7252"},
      {"Jean H.", "Tel:(918)781-4600"},
      {"", "Fax:(918)781-4604"},
  };
}

Table HardGoal() {
  return {
      {"Niles C.", "(800)645-8397", "(907)586-7252"},
      {"Jean H.", "(918)781-4600", "(918)781-4604"},
  };
}

TEST(LadderTest, FindsOnRungZeroForEasyTask) {
  Table input = {{"a", "junk"}, {"b", "junk"}};
  Table goal = {{"a"}, {"b"}};
  LadderResult result = RunDegradationLadder(input, goal);
  ASSERT_TRUE(result.found);
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.winning_rung, 0);
  EXPECT_EQ(result.attempts.size(), 1u);
  EXPECT_TRUE(result.attempts[0].found);
  EXPECT_FALSE(result.anytime.available);
}

TEST(LadderTest, DescendsWithScaledBudgetsWhenTruncated) {
  LadderOptions options;
  options.base.node_budget = 12;
  options.base.timeout_ms = 0;  // Deterministic: node budget only.
  LadderResult result = RunDegradationLadder(HardInput(), HardGoal(), options);

  ASSERT_FALSE(result.found);
  ASSERT_EQ(result.attempts.size(), 3u) << "every rung should be attempted";
  const std::vector<LadderRung> rungs = DefaultLadderRungs();
  for (size_t i = 0; i < result.attempts.size(); ++i) {
    const LadderAttempt& attempt = result.attempts[i];
    EXPECT_TRUE(attempt.truncated) << "rung " << i;
    EXPECT_EQ(attempt.heuristic, rungs[i].heuristic) << "rung " << i;
    EXPECT_EQ(attempt.node_budget,
              static_cast<uint64_t>(12 * rungs[i].budget_scale))
        << "rung " << i;
    if (i > 0) {
      EXPECT_LE(attempt.node_budget, result.attempts[i - 1].node_budget)
          << "budgets must shrink down the ladder";
    }
  }
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
}

TEST(LadderTest, DisabledBudgetStaysDisabledAcrossRungs) {
  LadderOptions options;
  options.base.node_budget = 40;
  options.base.memory_budget = 0;  // Disabled, must not become "1 byte".
  options.base.timeout_ms = 0;
  LadderResult result = RunDegradationLadder(HardInput(), HardGoal(), options);
  for (const LadderAttempt& attempt : result.attempts) {
    EXPECT_EQ(attempt.memory_budget, 0u);
    EXPECT_GE(attempt.node_budget, 1u);
  }
}

TEST(LadderTest, PreFiredRequestTokenShortCircuits) {
  CancellationToken cancel;
  cancel.RequestCancel();
  LadderOptions options;
  options.cancel = &cancel;
  LadderResult result = RunDegradationLadder(HardInput(), HardGoal(), options);
  EXPECT_FALSE(result.found);
  EXPECT_TRUE(result.attempts.empty());
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
}

TEST(LadderTest, EmptyRungListBehavesLikeSingleFullStrengthRung) {
  LadderOptions options;
  options.rungs.clear();
  Table input = {{"a", "junk"}, {"b", "junk"}};
  Table goal = {{"a"}, {"b"}};
  LadderResult result = RunDegradationLadder(input, goal, options);
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.winning_rung, 0);
  EXPECT_EQ(result.attempts.size(), 1u);
}

TEST(LadderTest, RungTokenHookSeesActiveThenInactive) {
  LadderOptions options;
  options.base.node_budget = 5;
  options.base.timeout_ms = 0;
  // Each rung publishes its token active, then inactive, with a stable
  // non-null pointer both times and its own rung index.
  struct Publish {
    int rung;
    const CancellationToken* token;
    bool active;
  };
  std::vector<Publish> publishes;
  options.on_rung_token = [&](int rung, CancellationToken* token,
                              bool active) {
    ASSERT_NE(token, nullptr);
    publishes.push_back(Publish{rung, token, active});
  };
  LadderResult result = RunDegradationLadder(HardInput(), HardGoal(), options);
  ASSERT_EQ(publishes.size(), result.attempts.size() * 2);
  for (size_t i = 0; i < publishes.size(); i += 2) {
    EXPECT_EQ(publishes[i].rung, static_cast<int>(i / 2));
    EXPECT_EQ(publishes[i + 1].rung, static_cast<int>(i / 2));
    EXPECT_TRUE(publishes[i].active);
    EXPECT_FALSE(publishes[i + 1].active);
    EXPECT_EQ(publishes[i].token, publishes[i + 1].token)
        << "active and inactive publishes must carry the same token";
  }
}

TEST(LadderTest, ExternalCancelThroughHookStopsDescent) {
  LadderOptions options;
  options.base.node_budget = 50;
  options.base.timeout_ms = 0;
  CancellationToken request_token;
  options.cancel = &request_token;
  // Simulate a service cancelling mid-rung: fire the request token and the
  // published rung token the moment the first rung starts.
  options.on_rung_token = [&](int /*rung*/, CancellationToken* token,
                              bool active) {
    if (active) {
      request_token.RequestCancel();
      token->RequestCancel();
    }
  };
  LadderResult result = RunDegradationLadder(HardInput(), HardGoal(), options);
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.attempts.size(), 1u) << "descent must stop on cancel";
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
}

// --- Corpus-wide properties ---------------------------------------------
//
// Over every scenario in the benchmark corpus, under a node budget tight
// enough to truncate the hard ones:
//  1. The result is one of the three typed shapes (program / anytime
//     partial / typed failure), with a status matching the shape.
//  2. Whatever a truncated descent salvages is never worse than failing
//     outright: an anytime partial is strictly closer to the goal (lower
//     h) than the untransformed input.
//  3. The whole ladder run is bit-identical between single-threaded and
//     multi-threaded search engines (node budgets, no wall clock).

struct LadderFingerprint {
  bool found = false;
  int winning_rung = -1;
  std::string script;
  size_t attempt_count = 0;
  std::vector<uint64_t> nodes_expanded;
  bool anytime_available = false;
  double anytime_h = 0;
  StatusCode code = StatusCode::kOk;

  bool operator==(const LadderFingerprint& other) const {
    return found == other.found && winning_rung == other.winning_rung &&
           script == other.script && attempt_count == other.attempt_count &&
           nodes_expanded == other.nodes_expanded &&
           anytime_available == other.anytime_available &&
           anytime_h == other.anytime_h && code == other.code;
  }
};

LadderFingerprint Fingerprint(const LadderResult& result) {
  LadderFingerprint fp;
  fp.found = result.found;
  fp.winning_rung = result.winning_rung;
  fp.script = result.program.ToScript();
  fp.attempt_count = result.attempts.size();
  for (const LadderAttempt& attempt : result.attempts) {
    fp.nodes_expanded.push_back(attempt.stats.nodes_expanded);
  }
  fp.anytime_available = result.anytime.available;
  fp.anytime_h = result.anytime.available ? result.anytime.h : 0;
  fp.code = result.status.code();
  return fp;
}

LadderResult RunScenarioLadder(const Scenario& scenario, int num_threads) {
  auto example = scenario.MakeExample(1);
  EXPECT_TRUE(example.ok()) << scenario.name();
  LadderOptions options;
  options.base = testing::WallClockFreeSearchOptions(/*node_budget=*/1'500);
  options.base.num_threads = num_threads;
  return RunDegradationLadder(example->input, example->output, options);
}

TEST(LadderCorpusPropertyTest, EveryScenarioReturnsATypedShape) {
  for (const Scenario& scenario : Corpus()) {
    LadderResult result = RunScenarioLadder(scenario, 1);
    ASSERT_FALSE(result.attempts.empty()) << scenario.name();

    if (result.found) {
      EXPECT_TRUE(result.status.ok()) << scenario.name();
      EXPECT_GE(result.winning_rung, 0) << scenario.name();
      EXPECT_FALSE(result.anytime.available) << scenario.name();
      // The winning program really maps input to output: re-checked by the
      // search's own goal test, but the rung index must be in range.
      EXPECT_LT(result.winning_rung,
                static_cast<int>(result.attempts.size()))
          << scenario.name();
    } else {
      EXPECT_FALSE(result.status.ok()) << scenario.name();
      const StatusCode code = result.status.code();
      EXPECT_TRUE(code == StatusCode::kResourceExhausted ||
                  code == StatusCode::kNotFound)
          << scenario.name() << ": " << result.status.ToString();
      if (result.anytime.available) {
        // Property 2: the salvaged partial beats doing nothing.
        EXPECT_LT(result.anytime.h, result.anytime.input_h)
            << scenario.name();
        EXPECT_FALSE(result.anytime.program.empty()) << scenario.name();
      }
      if (code == StatusCode::kNotFound) {
        // A clean exhaustion means no rung was truncated at the end — the
        // descent stopped because more budget provably would not help.
        EXPECT_FALSE(result.attempts.back().truncated) << scenario.name();
      }
    }
  }
}

TEST(LadderCorpusPropertyTest, DeterministicAcrossThreadCounts) {
  for (const Scenario& scenario : Corpus()) {
    const LadderFingerprint serial =
        Fingerprint(RunScenarioLadder(scenario, 1));
    const LadderFingerprint parallel =
        Fingerprint(RunScenarioLadder(scenario, 8));
    EXPECT_TRUE(serial == parallel)
        << scenario.name() << ": ladder diverged between thread counts "
        << "(serial rung " << serial.winning_rung << " vs parallel rung "
        << parallel.winning_rung << ")";
  }
}

// The typed-shape and thread-count-determinism contracts extend to a
// fuzzer-generated corpus when one is supplied (check.sh stage 8).
TEST(LadderGeneratedCorpusTest, TypedShapeAndThreadDeterminism) {
  const std::vector<Scenario>& corpus = GeneratedCorpusFromEnv();
  if (corpus.empty()) {
    GTEST_SKIP() << "FOOFAH_GENERATED_CORPUS not set";
  }
  for (const Scenario& scenario : corpus) {
    LadderResult result = RunScenarioLadder(scenario, 1);
    ASSERT_FALSE(result.attempts.empty()) << scenario.name();
    if (result.found) {
      EXPECT_TRUE(result.status.ok()) << scenario.name();
      EXPECT_GE(result.winning_rung, 0) << scenario.name();
    } else {
      const StatusCode code = result.status.code();
      EXPECT_TRUE(code == StatusCode::kResourceExhausted ||
                  code == StatusCode::kNotFound)
          << scenario.name() << ": " << result.status.ToString();
    }
    const LadderFingerprint parallel =
        Fingerprint(RunScenarioLadder(scenario, 8));
    EXPECT_TRUE(Fingerprint(result) == parallel)
        << scenario.name() << ": ladder diverged between thread counts";
  }
}

}  // namespace
}  // namespace foofah
