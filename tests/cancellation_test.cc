// The cooperative-cancellation substrate end to end: CancellationToken
// semantics, ThreadPool mid-job cancellation, deadline / node-budget /
// external stops of the A* search with bounded overshoot, anytime-result
// validity and determinism, the timeout-monotonicity property, the §5.2
// driver's protocol-wide deadline, and the cancel paths of the wrangler
// assistant and the tolerant synthesizer.

#include "util/cancellation.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "core/approximate.h"
#include "core/diagnose.h"
#include "core/driver.h"
#include "heuristic/edit_op.h"
#include "heuristic/ted_batch.h"
#include "scenarios/corpus.h"
#include "search/search.h"
#include "search/trace.h"
#include "table/table_diff.h"
#include "util/thread_pool.h"
#include "wrangler/session.h"

namespace foofah {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// CancellationToken unit semantics.
// ---------------------------------------------------------------------------

TEST(CancellationTokenTest, DefaultIsNotCancelled) {
  CancellationToken token;
  EXPECT_FALSE(token.IsCancelled());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
  EXPECT_FALSE(token.has_deadline());
  EXPECT_EQ(token.OvershootMs(), 0);
}

TEST(CancellationTokenTest, ExternalCancelLatches) {
  CancellationToken token;
  token.RequestCancel();
  EXPECT_TRUE(token.IsCancelled());
  EXPECT_EQ(token.reason(), CancelReason::kExternal);
  // Latched: a later (expired) deadline cannot overwrite the first reason.
  token.TightenDeadlineAfterMs(-10);
  EXPECT_TRUE(token.IsCancelled());
  EXPECT_EQ(token.reason(), CancelReason::kExternal);
}

TEST(CancellationTokenTest, ExpiredDeadlineTripsOnPoll) {
  CancellationToken token;
  token.TightenDeadlineAfterMs(-5);  // Already in the past.
  EXPECT_TRUE(token.has_deadline());
  EXPECT_TRUE(token.IsCancelled());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
  EXPECT_GE(token.OvershootMs(), 0);
}

TEST(CancellationTokenTest, FutureDeadlineDoesNotTrip) {
  CancellationToken token;
  token.TightenDeadlineAfterMs(60'000);
  EXPECT_TRUE(token.has_deadline());
  EXPECT_FALSE(token.IsCancelled());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
}

TEST(CancellationTokenTest, TightenOnlyEverShortensTheDeadline) {
  CancellationToken token;
  token.TightenDeadlineAfterMs(-5);      // Expired...
  token.TightenDeadlineAfterMs(60'000);  // ...a later deadline cannot loosen.
  EXPECT_TRUE(token.IsCancelled());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);

  CancellationToken other;
  other.TightenDeadlineAfterMs(60'000);
  other.TightenDeadlineAfterMs(-5);  // The stricter of the two wins.
  EXPECT_TRUE(other.IsCancelled());
}

TEST(CancellationTokenTest, NodeBudgetTripsOnlyPastTheLimit) {
  CancellationToken token;
  token.SetNodeBudget(5);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(token.CountNode()) << "node " << i;
  }
  EXPECT_TRUE(token.CountNode());  // Sixth node exceeds the budget.
  EXPECT_EQ(token.reason(), CancelReason::kNodeBudget);
  EXPECT_EQ(token.nodes_charged(), 6u);
}

TEST(CancellationTokenTest, MemoryBudgetTripsOnlyPastTheLimit) {
  CancellationToken token;
  token.SetMemoryBudget(1000);
  EXPECT_FALSE(token.ChargeMemory(600));
  EXPECT_FALSE(token.ChargeMemory(400));  // Exactly at budget: still fine.
  EXPECT_TRUE(token.ChargeMemory(1));
  EXPECT_EQ(token.reason(), CancelReason::kMemoryBudget);
  EXPECT_EQ(token.memory_charged(), 1001u);
}

TEST(CancellationTokenTest, ZeroBudgetsAreDisabled) {
  CancellationToken token;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(token.CountNode());
    EXPECT_FALSE(token.ChargeMemory(1 << 20));
  }
  EXPECT_EQ(token.reason(), CancelReason::kNone);
}

TEST(CancellationTokenTest, ReasonNamesAreStable) {
  EXPECT_STREQ(CancelReasonName(CancelReason::kNone), "none");
  EXPECT_STREQ(CancelReasonName(CancelReason::kExternal), "external");
  EXPECT_STREQ(CancelReasonName(CancelReason::kDeadline), "deadline");
  EXPECT_STREQ(CancelReasonName(CancelReason::kNodeBudget), "node_budget");
  EXPECT_STREQ(CancelReasonName(CancelReason::kMemoryBudget),
               "memory_budget");
}

TEST(CancellationTokenTest, ConcurrentPollsAgreeOnOneReason) {
  CancellationToken token;
  token.TightenDeadlineAfterMs(1);
  std::atomic<int> deadline_seen{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&token, &deadline_seen] {
      while (!token.IsCancelled()) {
      }
      if (token.reason() == CancelReason::kDeadline) ++deadline_seen;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(deadline_seen.load(), 4);
  EXPECT_GE(token.OvershootMs(), 0);
}

// ---------------------------------------------------------------------------
// ThreadPool cancellation (satellite: shutdown/cancel with queued work).
// ---------------------------------------------------------------------------

TEST(ThreadPoolCancelTest, PreCancelledJobRunsNoBodies) {
  CancellationToken token;
  token.RequestCancel();
  std::atomic<size_t> ran{0};
  ThreadPool pool(4);
  pool.ParallelFor(
      1000, [&ran](size_t) { ++ran; }, &token);
  EXPECT_EQ(ran.load(), 0u);
}

TEST(ThreadPoolCancelTest, PreCancelledSerialFallbackRunsNoBodies) {
  CancellationToken token;
  token.RequestCancel();
  std::atomic<size_t> ran{0};
  ThreadPool pool(1);  // No workers: the serial fallback path.
  pool.ParallelFor(
      1000, [&ran](size_t) { ++ran; }, &token);
  EXPECT_EQ(ran.load(), 0u);
}

TEST(ThreadPoolCancelTest, MidJobCancelAbandonsQueuedIndices) {
  // A body fires the token partway through a large job: the queued tail
  // must be abandoned (far fewer than `count` bodies run), ParallelFor must
  // still return (no deadlock), and the pool must be reusable.
  constexpr size_t kCount = 100'000;
  CancellationToken token;
  std::atomic<size_t> ran{0};
  ThreadPool pool(4);
  pool.ParallelFor(
      kCount,
      [&ran, &token](size_t) {
        if (++ran == 64) token.RequestCancel();
      },
      &token);
  EXPECT_GE(ran.load(), 64u);
  // In-flight bodies may complete after the trip, but the abandoned tail
  // dominates: nowhere near the full index range runs.
  EXPECT_LT(ran.load(), kCount / 2);

  // The pool serves the next (uncancelled) job in full.
  std::atomic<size_t> second{0};
  pool.ParallelFor(1000, [&second](size_t) { ++second; });
  EXPECT_EQ(second.load(), 1000u);
}

TEST(ThreadPoolCancelTest, MidJobCancelThenImmediateDestruction) {
  // Cancel with queued work, then destroy the pool right away: no deadlock,
  // no leaked worker (ASan/TSan verify the rest).
  CancellationToken token;
  std::atomic<size_t> ran{0};
  {
    ThreadPool pool(4);
    pool.ParallelFor(
        50'000,
        [&ran, &token](size_t) {
          if (++ran == 16) token.RequestCancel();
        },
        &token);
  }
  EXPECT_GE(ran.load(), 16u);
}

TEST(ThreadPoolCancelTest, SerialFallbackStopsMidLoop) {
  CancellationToken token;
  size_t ran = 0;
  ThreadPool pool(1);
  pool.ParallelFor(
      1000,
      [&ran, &token](size_t) {
        if (++ran == 10) token.RequestCancel();
      },
      &token);
  EXPECT_EQ(ran, 10u);
}

TEST(ThreadPoolCancelTest, NullTokenRunsEveryIndex) {
  std::atomic<size_t> ran{0};
  ThreadPool pool(4);
  pool.ParallelFor(10'000, [&ran](size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 10'000u);
}

// ---------------------------------------------------------------------------
// Search-level cancellation. The budget and deadline tests need a workload
// the search grinds on for seconds: no corpus scenario qualifies at the
// *search* level (the five unsolvable ones either have an infinite
// heuristic — instant clean failure — or per-example programs that exist
// but fail to generalize to the full data), so they use a synthetic 5x5
// scrambled grid. Every cell is movable (finite TED Batch estimate, h0 =
// 25), but the scramble needs a long operator sequence the search does not
// discover within seconds — plenty of room for budgets to interrupt it.
// ---------------------------------------------------------------------------

ExamplePair HardExample() {
  return ExamplePair{
      Table({{"aa", "bb", "cc", "dd", "ee"},
             {"ff", "gg", "hh", "ii", "jj"},
             {"kk", "ll", "mm", "nn", "oo"},
             {"pp", "qq", "rr", "ss", "tt"},
             {"uu", "vv", "ww", "xx", "yy"}}),
      Table({{"gg", "uu", "nn", "cc", "qq"},
             {"yy", "aa", "ll", "tt", "hh"},
             {"dd", "rr", "jj", "vv", "kk"},
             {"oo", "ee", "ww", "bb", "ss"},
             {"mm", "xx", "ff", "ii", "pp"}})};
}

// §5.2-style example builder over the hard pair (the example is the whole
// dataset at any record count, like pfe_collapse_fields).
ExampleBuilder HardBuilder() {
  return [](int) -> Result<ExamplePair> { return HardExample(); };
}

// The heuristic must consider the scramble feasible — otherwise the search
// would fail instantly instead of grinding and these tests would assert
// nothing.
TEST(HardExampleTest, HeuristicConsidersTheScrambleFeasible) {
  ExamplePair example = HardExample();
  double h0 = TedBatchCost(example.input, example.output);
  EXPECT_GT(h0, 0);
  EXPECT_LT(h0, kInfiniteCost);
}

// Observer that fires an external cancel after a fixed number of
// expansions.
class CancelAfterExpansions : public SearchObserver {
 public:
  CancelAfterExpansions(CancellationToken* token, uint64_t limit)
      : token_(token), limit_(limit) {}
  void OnExpand(int, const Table&, uint32_t) override {
    if (++expansions_ >= limit_) token_->RequestCancel();
  }
  uint64_t expansions() const { return expansions_; }

 private:
  CancellationToken* token_;
  uint64_t limit_;
  uint64_t expansions_ = 0;
};

TEST(SearchCancellationTest, ExternalCancelStopsTheSearch) {
  ExamplePair example = HardExample();
  CancellationToken token;
  CancelAfterExpansions observer(&token, 3);
  SearchOptions options;
  options.timeout_ms = 0;  // Only the external token can stop this run.
  options.max_expansions = 0;
  options.cancel = &token;
  options.observer = &observer;
  SearchResult result = SynthesizeProgram(example.input, example.output,
                                          options);
  EXPECT_FALSE(result.found);
  EXPECT_TRUE(result.stats.cancelled);
  EXPECT_FALSE(result.stats.timed_out);
  // The poll sits at the top of the expansion loop: at most one extra
  // expansion can slip through after the trip.
  EXPECT_LE(result.stats.nodes_expanded, 4u);
}

TEST(SearchCancellationTest, PreCancelledTokenReturnsImmediately) {
  ExamplePair example = HardExample();
  CancellationToken token;
  token.RequestCancel();
  SearchOptions options;
  options.timeout_ms = 0;
  options.cancel = &token;
  SearchResult result = SynthesizeProgram(example.input, example.output,
                                          options);
  EXPECT_FALSE(result.found);
  EXPECT_TRUE(result.stats.cancelled);
  EXPECT_EQ(result.stats.nodes_expanded, 0u);
}

TEST(SearchCancellationTest, NodeBudgetOnTokenStopsTheSearch) {
  ExamplePair example = HardExample();
  CancellationToken token;
  token.SetNodeBudget(20);
  SearchOptions options;
  options.timeout_ms = 0;
  options.max_expansions = 0;
  options.cancel = &token;
  SearchResult result = SynthesizeProgram(example.input, example.output,
                                          options);
  EXPECT_FALSE(result.found);
  EXPECT_TRUE(result.stats.budget_exhausted);
  EXPECT_LE(result.stats.nodes_expanded, 21u);
}

TEST(SearchCancellationTest, MemoryBudgetOnTokenStopsTheSearch) {
  ExamplePair example = HardExample();
  CancellationToken token;
  token.SetMemoryBudget(64 << 10);  // Far below what the run generates.
  SearchOptions options;
  options.timeout_ms = 0;
  options.max_expansions = 0;
  options.cancel = &token;
  SearchResult result = SynthesizeProgram(example.input, example.output,
                                          options);
  EXPECT_FALSE(result.found);
  EXPECT_TRUE(result.stats.budget_exhausted);
  EXPECT_GT(token.memory_charged(), 64u << 10);
}

// A budget that trips on the root expansion's first kept child leaves the
// frontier empty. The stop must still be reported as a budget stop, not
// as an exhausted search (which the degradation ladder reads as "no
// program exists"), at any thread count.
TEST(SearchCancellationTest, MemoryBudgetTrippedAtTheRootIsReported) {
  ExamplePair example = HardExample();
  for (int threads : {1, 4}) {
    SearchOptions options;
    options.timeout_ms = 0;
    options.max_expansions = 0;
    options.memory_budget = 1;
    options.num_threads = threads;
    SearchResult result = SynthesizeProgram(example.input, example.output,
                                            options);
    EXPECT_FALSE(result.found) << "threads=" << threads;
    EXPECT_TRUE(result.stats.budget_exhausted) << "threads=" << threads;
    EXPECT_EQ(result.stats.nodes_expanded, 1u) << "threads=" << threads;
  }
}

TEST(SearchCancellationTest, DeadlineSetsTimedOutWithRecordedOvershoot) {
  ExamplePair example = HardExample();
  SearchOptions options;
  options.timeout_ms = 30;
  options.max_expansions = 0;
  Clock::time_point start = Clock::now();
  SearchResult result = SynthesizeProgram(example.input, example.output,
                                          options);
  double wall_ms = ElapsedMs(start);
  EXPECT_FALSE(result.found);
  EXPECT_TRUE(result.stats.timed_out);
  EXPECT_FALSE(result.stats.cancelled);
  // The documented corpus-wide bound, with margin to spare on a normal
  // (un-slowed) heuristic.
  EXPECT_LT(result.stats.overshoot_ms, 250);
  EXPECT_LT(wall_ms, 30 + 250);
}

// Every scenario in the corpus respects the deadline + 250 ms bound — the
// fault-injection suite repeats this sweep with an artificially slowed
// heuristic.
TEST(SearchCancellationTest, TightDeadlineBoundedOvershootAcrossCorpus) {
  for (const Scenario& scenario : Corpus()) {
    Result<ExamplePair> example = scenario.MakeExample(1);
    ASSERT_TRUE(example.ok()) << scenario.name();
    SearchOptions options;
    options.timeout_ms = 5;
    options.max_expansions = 0;
    Clock::time_point start = Clock::now();
    SearchResult result = SynthesizeProgram(example->input, example->output,
                                            options);
    double wall_ms = ElapsedMs(start);
    EXPECT_LT(wall_ms, 5 + 250) << scenario.name();
    if (result.stats.timed_out) {
      EXPECT_LT(result.stats.overshoot_ms, 250) << scenario.name();
    }
  }
}

// ---------------------------------------------------------------------------
// Anytime results.
// ---------------------------------------------------------------------------

// Deterministic budget-truncated run on the hard example; node budgets make
// the anytime result reproducible across machines and thread counts.
SearchResult TruncatedRun(const ExamplePair& example, int num_threads,
                          uint64_t max_expansions = 30) {
  SearchOptions options;
  options.timeout_ms = 0;
  options.max_expansions = max_expansions;
  options.num_threads = num_threads;
  return SynthesizeProgram(example.input, example.output, options);
}

TEST(AnytimeResultTest, BudgetStopYieldsAValidAnytimeResult) {
  ExamplePair example = HardExample();
  SearchResult result = TruncatedRun(example, /*num_threads=*/1);
  ASSERT_FALSE(result.found);
  EXPECT_TRUE(result.stats.budget_exhausted);
  ASSERT_TRUE(result.anytime.available);

  const AnytimeResult& anytime = result.anytime;
  // The program is a real, non-empty path from the input...
  EXPECT_FALSE(anytime.program.empty());
  Result<Table> replayed = anytime.program.Execute(example.input);
  ASSERT_TRUE(replayed.ok());
  // ...to exactly the reported frontier table...
  EXPECT_EQ(*replayed, anytime.table);
  // ...which the heuristic judges strictly closer to the goal than the
  // untransformed input.
  EXPECT_LT(anytime.h, anytime.input_h);
  EXPECT_GT(anytime.input_h, 0);

  // The residual diff is the genuine goal-vs-frontier diff: not equal (an
  // equal table would have been the goal), and reproducible.
  EXPECT_FALSE(anytime.residual.equal);
  TableDiff recomputed = DiffTables(example.output, anytime.table,
                                    /*max_cell_diffs=*/64);
  EXPECT_EQ(anytime.residual.equal, recomputed.equal);
  EXPECT_EQ(anytime.residual.shape_mismatch, recomputed.shape_mismatch);
  EXPECT_EQ(anytime.residual.cell_diffs.size(),
            recomputed.cell_diffs.size());
}

TEST(AnytimeResultTest, UnsetWhenTheSearchSucceeds) {
  // A solvable scenario within generous budget: found, no anytime result.
  const Scenario* scenario = FindScenario("ex1_contact_unfold");
  if (scenario == nullptr) {
    for (const Scenario& s : Corpus()) {
      if (s.tags().solvable) {
        scenario = &s;
        break;
      }
    }
  }
  ASSERT_NE(scenario, nullptr);
  Result<ExamplePair> example = scenario->MakeExample(1);
  ASSERT_TRUE(example.ok());
  SearchResult result = SynthesizeProgram(example->input, example->output);
  ASSERT_TRUE(result.found) << scenario->name();
  EXPECT_FALSE(result.anytime.available);
  EXPECT_TRUE(result.anytime.program.empty());
}

TEST(AnytimeResultTest, DeterministicAcrossThreadCounts) {
  ExamplePair example = HardExample();
  SearchResult serial = TruncatedRun(example, /*num_threads=*/1);
  SearchResult parallel = TruncatedRun(example, /*num_threads=*/4);
  ASSERT_EQ(serial.anytime.available, parallel.anytime.available);
  if (serial.anytime.available) {
    EXPECT_EQ(serial.anytime.program, parallel.anytime.program);
    EXPECT_EQ(serial.anytime.h, parallel.anytime.h);
    EXPECT_EQ(serial.anytime.input_h, parallel.anytime.input_h);
    EXPECT_EQ(serial.anytime.table, parallel.anytime.table);
  }
}

// Satellite property: a larger timeout never yields a worse result. Cost
// orders exact programs (by length) strictly below anytime results (by
// remaining heuristic distance), which sit strictly below "nothing".
double ResultCost(const SearchResult& result) {
  if (result.found) return static_cast<double>(result.program.size());
  if (result.anytime.available) return 1e6 + result.anytime.h;
  return 1e12;
}

TEST(AnytimeResultTest, LargerTimeoutNeverYieldsWorseResult) {
  // Serial engine: the explored prefix grows monotonically with time, so
  // the property holds exactly despite wall-clock jitter. Verified on both
  // a hard (never-solved) example and a solvable one.
  std::vector<ExamplePair> examples;
  examples.push_back(HardExample());
  for (const Scenario& s : Corpus()) {
    if (!s.tags().solvable) continue;
    Result<ExamplePair> ex = s.MakeExample(1);
    ASSERT_TRUE(ex.ok());
    examples.push_back(*ex);
    break;
  }
  for (const ExamplePair& example : examples) {
    double previous_cost = 1e18;
    for (int64_t timeout_ms : {30, 300, 3000}) {
      SearchOptions options;
      options.timeout_ms = timeout_ms;
      options.max_expansions = 0;
      options.num_threads = 1;
      SearchResult result = SynthesizeProgram(example.input, example.output,
                                              options);
      double cost = ResultCost(result);
      EXPECT_LE(cost, previous_cost)
          << "timeout " << timeout_ms << " ms worsened the result";
      previous_cost = cost;
    }
  }
}

TEST(AnytimeResultTest, StatsToStringNamesTheStopReason) {
  ExamplePair example = HardExample();

  SearchOptions deadline;
  deadline.timeout_ms = 20;
  deadline.max_expansions = 0;
  SearchResult timed = SynthesizeProgram(example.input, example.output,
                                         deadline);
  ASSERT_TRUE(timed.stats.timed_out);
  EXPECT_NE(timed.stats.ToString().find("TIMEOUT"), std::string::npos);

  CancellationToken token;
  token.RequestCancel();
  SearchOptions cancelled;
  cancelled.timeout_ms = 0;
  cancelled.cancel = &token;
  SearchResult ext = SynthesizeProgram(example.input, example.output,
                                       cancelled);
  ASSERT_TRUE(ext.stats.cancelled);
  EXPECT_NE(ext.stats.ToString().find("CANCELLED"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Driver: protocol-wide deadline and anytime carry-over.
// ---------------------------------------------------------------------------

TEST(DriverCancellationTest, ProtocolDeadlineBoundsTheWholeRun) {
  ExamplePair hard = HardExample();
  DriverOptions options;
  options.search.timeout_ms = 60'000;  // Per-round limit far beyond...
  options.search.max_expansions = 0;
  options.total_timeout_ms = 100;      // ...the protocol-wide one.
  options.max_records = 3;
  Clock::time_point start = Clock::now();
  DriverResult result = FindPerfectProgram(HardBuilder(), hard.input,
                                           hard.output, options);
  double wall_ms = ElapsedMs(start);
  EXPECT_FALSE(result.perfect);
  EXPECT_TRUE(result.cancelled);
  // One shared token spans rounds: the protocol deadline interrupts
  // whichever round is running, within the same overshoot bound.
  EXPECT_LT(wall_ms, 100 + 250);
  // The truncated round surfaced its partial progress.
  EXPECT_TRUE(result.anytime.available);
  EXPECT_LT(result.anytime.h, result.anytime.input_h);
}

TEST(DriverCancellationTest, PreCancelledTokenSkipsAllRounds) {
  ExamplePair hard = HardExample();
  CancellationToken token;
  token.RequestCancel();
  DriverOptions options;
  options.cancel = &token;
  DriverResult result = FindPerfectProgram(HardBuilder(), hard.input,
                                           hard.output, options);
  EXPECT_FALSE(result.perfect);
  EXPECT_TRUE(result.cancelled);
  EXPECT_TRUE(result.rounds.empty());
}

TEST(DriverCancellationTest, SuccessfulRunReportsNoAnytime) {
  const Scenario* solvable = nullptr;
  for (const Scenario& s : Corpus()) {
    if (s.tags().solvable) {
      solvable = &s;
      break;
    }
  }
  ASSERT_NE(solvable, nullptr);
  DriverOptions options;
  options.search.timeout_ms = 10'000;
  options.search.max_expansions = 30'000;
  DriverResult result =
      FindPerfectProgram(solvable->AsExampleBuilder(), solvable->FullInput(),
                         solvable->FullOutput(), options);
  ASSERT_TRUE(result.perfect) << solvable->name();
  EXPECT_FALSE(result.cancelled);
  EXPECT_FALSE(result.anytime.available);
}

// ---------------------------------------------------------------------------
// Downstream consumers: tolerant synthesis and residual diagnostics.
// ---------------------------------------------------------------------------

TEST(ApproximateCancellationTest, TruncatedTolerantRunCarriesAnytime) {
  ExamplePair example = HardExample();
  TolerantOptions options;
  options.search.timeout_ms = 0;
  options.search.max_expansions = 30;
  options.max_example_errors = 1;
  TolerantResult result = SynthesizeTolerant(example.input, example.output,
                                             options);
  if (result.found) GTEST_SKIP() << "tolerant phase solved the hard example";
  ASSERT_TRUE(result.anytime.available);
  EXPECT_LT(result.anytime.h, result.anytime.input_h);

  // DiagnoseResidual turns it into user-facing next actions: one summary
  // plus one anchored entry per residual cell.
  std::vector<ExampleDiagnostic> diagnostics =
      DiagnoseResidual(result.anytime);
  ASSERT_FALSE(diagnostics.empty());
  EXPECT_FALSE(diagnostics.front().cell_anchored);
  EXPECT_NE(diagnostics.front().message.find("partial program"),
            std::string::npos);
  size_t anchored = 0;
  for (const ExampleDiagnostic& d : diagnostics) {
    if (!d.cell_anchored) continue;
    ++anchored;
    EXPECT_EQ(d.kind, DiagnosticKind::kResidualCell);
  }
  EXPECT_EQ(anchored, result.anytime.residual.cell_diffs.size());
}

TEST(DiagnoseResidualTest, EmptyWhenNoAnytimeResult) {
  AnytimeResult none;
  EXPECT_TRUE(DiagnoseResidual(none).empty());
}

// ---------------------------------------------------------------------------
// Wrangler assistant.
// ---------------------------------------------------------------------------

TEST(WranglerCancellationTest, PreCancelledTokenReturnsNoSuggestions) {
  ExamplePair example = HardExample();
  WranglerSession session(example.input);

  std::vector<Suggestion> unconstrained =
      session.SuggestNext(example.output, 5);
  CancellationToken token;
  token.RequestCancel();
  std::vector<Suggestion> cancelled =
      session.SuggestNext(example.output, 5, &token);
  EXPECT_TRUE(cancelled.empty());
  // Sanity: without the token the same call produces suggestions, so the
  // empty result above really is the cancel path.
  EXPECT_FALSE(unconstrained.empty());
}

}  // namespace
}  // namespace foofah
