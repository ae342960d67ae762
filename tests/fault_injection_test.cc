// The deterministic fault-injection registry and the robustness suite built
// on it: registry semantics (nth-hit arming, always-fail, callbacks, hit
// accounting), injected failures at each library failure point, the
// cancel-at-every-failure-point sweep, and the corpus-wide deadline
// overshoot regression with an artificially slowed heuristic (the
// satellite fix for the formerly coarse per-expansion timeout check).
//
// Everything here needs the failure points compiled in; without
// -DFOOFAH_FAULT_INJECTION=ON the suite reduces to one skip.
// scripts/check.sh stages 2 (TSan) and 4 (ASan) run it for real.

#include "util/fault_injection.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/driver.h"
#include "exec/runner.h"
#include "heuristic/heuristic_cache.h"
#include "ops/operation.h"
#include "ops/operators.h"
#include "scenarios/corpus.h"
#include "search/search.h"
#include "server/service.h"
#include "table/table.h"
#include "util/cancellation.h"
#include "wrangler/session.h"

namespace foofah {
namespace {

#ifndef FOOFAH_FAULT_INJECTION

TEST(FaultInjectionTest, RequiresFaultInjectionBuild) {
  GTEST_SKIP() << "built without -DFOOFAH_FAULT_INJECTION=ON; "
                  "scripts/check.sh stages 2 and 4 run this suite for real";
}

#else  // FOOFAH_FAULT_INJECTION

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Resets the global registry on entry and exit so tests cannot leak armed
// faults into each other.
class FaultInjectionTest : public testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

// ---------------------------------------------------------------------------
// Registry semantics (synthetic points; no library involvement).
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, KnownPointsAreSortedAndUnique) {
  const std::vector<std::string>& points = FaultInjector::KnownPoints();
  ASSERT_FALSE(points.empty());
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_LT(points[i - 1], points[i]);
  }
}

TEST_F(FaultInjectionTest, UnarmedPointNeverFails) {
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(FaultInjector::Instance().ShouldFail("test/unarmed"));
  }
  EXPECT_EQ(FaultInjector::Instance().HitCount("test/unarmed"), 100u);
}

TEST_F(FaultInjectionTest, ArmFailureFiresExactlyOnTheNthHit) {
  FaultInjector::Instance().ArmFailure("test/nth", 2);
  EXPECT_FALSE(FaultInjector::Instance().ShouldFail("test/nth"));
  EXPECT_TRUE(FaultInjector::Instance().ShouldFail("test/nth"));
  // One-shot: subsequent hits pass again.
  EXPECT_FALSE(FaultInjector::Instance().ShouldFail("test/nth"));
}

TEST_F(FaultInjectionTest, ArmFailureIsRelativeToCurrentHitCount) {
  // Arming mid-run counts from "now", not from hit zero — so a test can
  // let setup traffic through and target the next occurrence.
  FaultInjector::Instance().ShouldFail("test/relative");
  FaultInjector::Instance().ShouldFail("test/relative");
  FaultInjector::Instance().ArmFailure("test/relative", 1);
  EXPECT_TRUE(FaultInjector::Instance().ShouldFail("test/relative"));
}

TEST_F(FaultInjectionTest, ArmFailureAlwaysAndDisarm) {
  FaultInjector::Instance().ArmFailureAlways("test/always");
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(FaultInjector::Instance().ShouldFail("test/always"));
  }
  FaultInjector::Instance().Disarm("test/always");
  EXPECT_FALSE(FaultInjector::Instance().ShouldFail("test/always"));
}

TEST_F(FaultInjectionTest, CallbackRunsOnEveryHitWithoutFailing) {
  std::atomic<int> calls{0};
  FaultInjector::Instance().ArmCallback("test/callback",
                                        [&calls] { ++calls; });
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(FaultInjector::Instance().ShouldFail("test/callback"));
  }
  EXPECT_EQ(calls.load(), 5);
}

TEST_F(FaultInjectionTest, CallbackMayHitAnotherPointWithoutDeadlock) {
  // Callbacks run outside the registry lock, so a callback that itself
  // trips a fault point (as the cancel-sweep below does, transitively)
  // must not self-deadlock.
  FaultInjector::Instance().ArmCallback("test/outer", [] {
    (void)FaultInjector::Instance().ShouldFail("test/inner");
  });
  EXPECT_FALSE(FaultInjector::Instance().ShouldFail("test/outer"));
  EXPECT_EQ(FaultInjector::Instance().HitCount("test/inner"), 1u);
}

TEST_F(FaultInjectionTest, ResetClearsArmingAndHitCounts) {
  FaultInjector::Instance().ArmFailureAlways("test/reset");
  FaultInjector::Instance().ShouldFail("test/reset");
  FaultInjector::Instance().Reset();
  EXPECT_EQ(FaultInjector::Instance().HitCount("test/reset"), 0u);
  EXPECT_FALSE(FaultInjector::Instance().ShouldFail("test/reset"));
}

// ---------------------------------------------------------------------------
// Library failure points.
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, TableDetachPointsAreExercisedByCopyOnWrite) {
  // Writing to a copy whose storage is shared with the original detaches
  // the spine and the written row; removing a row from another copy
  // detaches that copy's spine. The original never changes.
  Table original({{"a", "b"}, {"", "c"}});
  Table written = original;
  written.set_cell(1, 0, "a");
  EXPECT_EQ(
      FaultInjector::Instance().HitCount(fault_points::kTableDetachSpine), 1u);
  EXPECT_EQ(FaultInjector::Instance().HitCount(fault_points::kTableDetachRow),
            1u);
  Table removed = original;
  removed.RemoveRow(0);
  EXPECT_EQ(
      FaultInjector::Instance().HitCount(fault_points::kTableDetachSpine), 2u);
  EXPECT_EQ(original, Table({{"a", "b"}, {"", "c"}}));
}

TEST_F(FaultInjectionTest, InjectedRegexCompileFailureIsCleanAndNotSticky) {
  // Unique pattern so the process-wide regex cache cannot satisfy the
  // lookup before the compile point is reached.
  const std::string pattern = "qz[0-9]{2}x_faultprobe";
  Table table({{"qz12x_faultprobe"}});

  FaultInjector::Instance().ArmFailure(fault_points::kRegexCompile, 1);
  Result<Table> injected = ApplyOperation(table, Extract(0, pattern));
  ASSERT_FALSE(injected.ok());
  EXPECT_NE(injected.status().message().find("injected"), std::string::npos);

  // The failure must not poison the cache: the identical call now
  // compiles, caches, and extracts normally.
  Result<Table> clean = ApplyOperation(table, Extract(0, pattern));
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->cell(0, 0), "qz12x_faultprobe");
}

// A small solvable synthesis workload used by the sweep tests below.
struct Workload {
  ExamplePair example;
  SearchResult clean;  // Fault-free reference run.
};

const Workload& SolvableWorkload() {
  static const Workload* workload = [] {
    const Scenario* chosen = nullptr;
    for (const Scenario& s : Corpus()) {
      if (s.tags().solvable) {
        chosen = &s;
        break;
      }
    }
    EXPECT_NE(chosen, nullptr);
    Result<ExamplePair> ex = chosen->MakeExample(1);
    EXPECT_TRUE(ex.ok());
    SearchOptions options;
    options.timeout_ms = 10'000;
    SearchResult clean = SynthesizeProgram(ex->input, ex->output, options);
    EXPECT_TRUE(clean.found);
    return new Workload{*ex, std::move(clean)};
  }();
  return *workload;
}

TEST_F(FaultInjectionTest, DroppedCacheInsertsDoNotChangeTheSearchOutcome) {
  // Failing every heuristic-cache insert degrades the memoization to a
  // no-op; estimates are recomputed, so the search outcome — program,
  // expansion and generation counts — must be bit-identical.
  const Workload& workload = SolvableWorkload();
  FaultInjector::Instance().Reset();
  FaultInjector::Instance().ArmFailureAlways(
      fault_points::kHeuristicCacheInsert);
  // A caller-owned memo is used at any thread count, so the insert point
  // is reached however many cores the host has.
  HeuristicCache cache;
  SearchOptions options;
  options.timeout_ms = 10'000;
  options.heuristic_cache = &cache;
  SearchResult degraded = SynthesizeProgram(workload.example.input,
                                            workload.example.output, options);
  EXPECT_GT(FaultInjector::Instance().HitCount(
                fault_points::kHeuristicCacheInsert),
            0u);
  ASSERT_TRUE(degraded.found);
  EXPECT_EQ(degraded.program, workload.clean.program);
  EXPECT_EQ(degraded.stats.nodes_expanded, workload.clean.stats.nodes_expanded);
  EXPECT_EQ(degraded.stats.nodes_generated,
            workload.clean.stats.nodes_generated);
  // Every lookup now misses on re-visited states; no estimate may be served
  // from a cache that never accepted an insert.
  EXPECT_EQ(degraded.stats.heuristic_cache_hits, 0u);
}

TEST_F(FaultInjectionTest, CancelFiredAtEveryFailurePointTerminatesCleanly) {
  // The tentpole's crash-robustness sweep: for each registered failure
  // point, arm a callback that fires an external cancel the moment the
  // point is hit, then push a realistic mixed workload (direct operator
  // application + a threaded synthesis) through the library. Whatever is
  // mid-flight when the token fires must unwind cooperatively — no hang,
  // no crash; ASan and TSan audit the rest.
  const Workload& workload = SolvableWorkload();

  // Streaming-executor traffic for the exec/csv failure points: a
  // spill-everything file apply with a blocking Transpose suffix touches
  // spill write/read, the durable output commit, temp-dir cleanup, and
  // the chunked CSV writer's flush.
  const char* tmp_env = std::getenv("TMPDIR");
  std::string exec_dir(tmp_env != nullptr && *tmp_env != '\0' ? tmp_env
                                                              : "/tmp");
  std::string exec_in = exec_dir + "/fault_sweep_exec_in.csv";
  std::string exec_out = exec_dir + "/fault_sweep_exec_out.csv";
  {
    std::FILE* file = std::fopen(exec_in.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    for (int r = 0; r < 64; ++r) std::fprintf(file, "a%d,b%d,c%d\n", r, r, r);
    std::fclose(file);
  }
  const Program exec_program({Transpose()});

  const std::vector<std::string>& points = FaultInjector::KnownPoints();
  for (size_t i = 0; i < points.size(); ++i) {
    const std::string& point = points[i];
    SCOPED_TRACE(point);
    FaultInjector::Instance().Reset();
    CancellationToken token;
    FaultInjector::Instance().ArmCallback(
        point, [&token] { token.RequestCancel(); });

    // Direct table traffic: a write to a copy detaches the shared spine
    // and row, and a removal from another copy its spine. Then operator
    // traffic: a regex compile with a per-iteration pattern (unique so
    // the process-wide compile cache cannot skip the compile point on
    // later sweep iterations).
    Table shared({{"k1 v", ""}, {"k2 w", "y"}});
    Table written = shared;
    written.set_cell(0, 1, "x");
    Table removed = shared;
    removed.RemoveRow(1);
    (void)ApplyOperation(shared, Fill(1));
    std::string pattern = "sw[0-9]point" + std::to_string(i);
    (void)ApplyOperation(shared, Extract(0, pattern));

    // Single-owner session traffic (wrangler/apply) and one admission-
    // controlled service request (server/admit, then server/dispatch on
    // the worker). Whatever the armed point does, the service must hand
    // back a typed response rather than hang or crash.
    WranglerSession session(shared);
    (void)session.Apply(Fill(1));
    {
      ServiceOptions service_options;
      service_options.num_workers = 1;
      SynthesisService sweep_service(service_options);
      SynthesisRequest request;
      request.input = Table({{"a", "junk"}, {"b", "junk"}});
      request.output = Table({{"a"}, {"b"}});
      ServiceResponse response = sweep_service.Synthesize(std::move(request));
      EXPECT_NE(response.status.code(), StatusCode::kInternal);
    }

    // A spill-backed file apply under the same token: whether the cancel
    // lands mid-spill, mid-read, or mid-commit, the apply must unwind to
    // a typed status with no torn output and no leaked temp dirs.
    {
      exec::ApplyOptions apply_options;
      apply_options.spill_threshold_bytes = 0;
      apply_options.cancel = &token;
      (void)exec::ApplyProgramToCsvFile(exec_program, exec_in, exec_out,
                                        apply_options);
    }

    // A threaded synthesis under the same token.
    SearchOptions options;
    options.timeout_ms = 10'000;
    options.num_threads = 4;
    options.cancel = &token;
    SearchResult result = SynthesizeProgram(workload.example.input,
                                            workload.example.output, options);
    // The run either finished before the point was reached or stopped on
    // the external cancel; nothing else is acceptable.
    EXPECT_TRUE(result.found || result.stats.cancelled);
    EXPECT_GT(FaultInjector::Instance().HitCount(point), 0u)
        << "sweep never exercised this failure point";
  }
  FaultInjector::Instance().Reset();
  std::remove(exec_in.c_str());
  std::remove(exec_out.c_str());
}

// ---------------------------------------------------------------------------
// Satellite regression: the deadline must interrupt the search *inside* a
// slow heuristic evaluation. Before the CancellationToken refactor the
// timeout was checked once per expansion, so one slow expansion round could
// overshoot the deadline by its full duration; with per-estimate and
// per-pattern polling the overshoot stays bounded even when every single
// estimate is artificially slowed.
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, SlowHeuristicDeadlineOvershootBoundedOnCorpus) {
  constexpr int64_t kDeadlineMs = 75;
  constexpr double kMaxOvershootMs = 250;
  // Each estimate sleeps long enough that the deadline, not the work
  // between estimates, ends most searches in every build flavour; at
  // 500 us an optimized build solved all but five scenarios in time.
  FaultInjector::Instance().ArmCallback(
      fault_points::kHeuristicEstimate,
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(3)); });

  int timed_out_runs = 0;
  int anytime_runs = 0;
  for (const Scenario& scenario : Corpus()) {
    Result<ExamplePair> example = scenario.MakeExample(1);
    ASSERT_TRUE(example.ok()) << scenario.name();
    SearchOptions options;
    options.timeout_ms = kDeadlineMs;
    options.max_expansions = 0;
    Clock::time_point start = Clock::now();
    SearchResult result = SynthesizeProgram(example->input, example->output,
                                            options);
    double wall_ms = ElapsedMs(start);

    // The bound under test, per scenario: deadline + epsilon, measured
    // both by wall clock and by the token's own overshoot record.
    EXPECT_LE(wall_ms, kDeadlineMs + kMaxOvershootMs) << scenario.name();
    EXPECT_LE(result.stats.overshoot_ms, kMaxOvershootMs) << scenario.name();

    if (!result.stats.timed_out) continue;
    ++timed_out_runs;
    EXPECT_FALSE(result.found) << scenario.name();
    if (result.anytime.available) {
      ++anytime_runs;
      // The partial answer is real: the program replays to the reported
      // table and strictly reduces the estimated distance to the goal.
      EXPECT_FALSE(result.anytime.program.empty()) << scenario.name();
      Result<Table> replayed =
          result.anytime.program.Execute(example->input);
      ASSERT_TRUE(replayed.ok()) << scenario.name();
      EXPECT_EQ(*replayed, result.anytime.table) << scenario.name();
      EXPECT_LT(result.anytime.h, result.anytime.input_h) << scenario.name();
      EXPECT_FALSE(result.anytime.residual.equal) << scenario.name();
    }
  }
  // The slowed heuristic must actually have forced deadline stops, and a
  // healthy share of those stops must degrade into anytime results — a
  // sweep where neither happens is not testing the overshoot path.
  EXPECT_GT(timed_out_runs, 5);
  EXPECT_GT(anytime_runs, 0);
}

#endif  // FOOFAH_FAULT_INJECTION

}  // namespace
}  // namespace foofah
