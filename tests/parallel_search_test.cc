// Determinism contract of the search's expansion body on full runs: any
// thread count must produce bit-identical programs, search statistics
// (the heuristic memo's hits and misses included, except for their split
// under tree search) and anytime results. Runs cut short by a node budget
// or a deadline are checked in
// frontier_parallel_test. Also exercises the ThreadPool primitive
// directly, since the search only ever drives it with well-behaved
// batches.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "ops/operators.h"
#include "profile/structure.h"
#include "scenarios/corpus.h"
#include "search/search.h"
#include "testing/search_outcome.h"
#include "util/thread_pool.h"

namespace foofah {
namespace {

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  constexpr size_t kCount = 10'000;
  std::vector<std::atomic<int>> touched(kCount);
  pool.ParallelFor(kCount, [&](size_t i) {
    touched[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, HandlesFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> sum{0};
  pool.ParallelFor(3, [&](size_t i) {
    sum.fetch_add(static_cast<int>(i) + 1, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 6);
  pool.ParallelFor(0, [&](size_t) { FAIL() << "empty job ran a body"; });
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  ThreadPool pool(3);
  std::atomic<uint64_t> total{0};
  for (int job = 0; job < 200; ++job) {
    pool.ParallelFor(17, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 200u * 17u);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  int sum = 0;  // No atomics needed: everything runs on this thread.
  pool.ParallelFor(100, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 4950);
}

using testing::DeterministicOptions;
using testing::ExpectIdenticalOutcome;

// The full 50-scenario corpus, searched with 1, 2 and 8 threads: programs
// and every pruning/accounting counter must match. Unsolvable scenarios
// are included deliberately — they exhaust the expansion budget, so they
// check that budget exits land on the identical candidate too.
TEST(ParallelSearchTest, ThreadCountsAgreeOnFullCorpus) {
  int covered = 0;
  for (const Scenario& scenario : Corpus()) {
    Result<ExamplePair> example =
        scenario.MakeExample(std::min(2, scenario.total_records()));
    ASSERT_TRUE(example.ok()) << scenario.name();

    SearchOptions options = DeterministicOptions(1);
    // Budget-bound runs (the unsolvable five) are the slow ones; a smaller
    // deterministic cap keeps the full-corpus sweep fast without losing
    // the budget-exit coverage.
    if (!scenario.tags().solvable) options.max_expansions = 2'000;

    SearchResult serial =
        SynthesizeProgram(example->input, example->output, options);
    for (int threads : {2, 8}) {
      options.num_threads = threads;
      SearchResult parallel =
          SynthesizeProgram(example->input, example->output, options);
      ExpectIdenticalOutcome(
          serial, parallel,
          scenario.name() + " threads=" + std::to_string(threads));
    }
    ++covered;
  }
  EXPECT_EQ(covered, 50);
}

// Tree-search mode (deduplication off) re-expands shared substructure —
// the configuration the heuristic memo exists for — and must stay
// deterministic too. Only the memo's hit/miss split may move: pool
// workers can estimate two equal children of one expansion at once.
TEST(ParallelSearchTest, AgreesWithDeduplicationDisabled) {
  const Scenario* scenario = nullptr;
  for (const Scenario& s : Corpus()) {
    if (s.tags().solvable) {
      scenario = &s;
      break;
    }
  }
  ASSERT_NE(scenario, nullptr);
  Result<ExamplePair> example = scenario->MakeExample(1);
  ASSERT_TRUE(example.ok());

  SearchOptions serial_options = DeterministicOptions(1);
  serial_options.deduplicate_states = false;
  serial_options.max_expansions = 2'000;
  SearchOptions parallel_options = serial_options;
  parallel_options.num_threads = 4;

  SearchResult serial =
      SynthesizeProgram(example->input, example->output, serial_options);
  SearchResult parallel =
      SynthesizeProgram(example->input, example->output, parallel_options);
  ExpectIdenticalOutcome(serial, parallel, scenario->name() + " no-dedup",
                         testing::MemoCounts::kSameTotal);
}

// BFS takes the non-heuristic frontier path; the phase split must not
// disturb its FIFO order either.
TEST(ParallelSearchTest, AgreesUnderBfsStrategy) {
  const Scenario* scenario = nullptr;
  for (const Scenario& s : Corpus()) {
    if (s.tags().solvable) {
      scenario = &s;
      break;
    }
  }
  ASSERT_NE(scenario, nullptr);
  Result<ExamplePair> example = scenario->MakeExample(1);
  ASSERT_TRUE(example.ok());

  SearchOptions serial_options = DeterministicOptions(1);
  serial_options.strategy = SearchStrategy::kBfs;
  serial_options.max_expansions = 3'000;
  SearchOptions parallel_options = serial_options;
  parallel_options.num_threads = 4;

  SearchResult serial =
      SynthesizeProgram(example->input, example->output, serial_options);
  SearchResult parallel =
      SynthesizeProgram(example->input, example->output, parallel_options);
  ExpectIdenticalOutcome(serial, parallel, scenario->name() + " bfs");
}

// Extract memoizes compiled regexes in a process-wide cache that the
// pool workers read and populate concurrently. Hammering it with patterns
// no other test uses puts several workers in the same pattern's
// first-compilation window at once — the exact find/emplace race the
// reader/writer lock exists for (and the path the TSAN run must see).
TEST(ParallelSearchTest, ExtractRegexCacheIsThreadSafe) {
  ThreadPool pool(8);
  Table t({{"a1"}, {"b22"}, {"c333"}});
  constexpr size_t kJobs = 64;
  std::atomic<int> failures{0};
  pool.ParallelFor(kJobs, [&](size_t i) {
    // 8 distinct fresh patterns, each requested by ~8 jobs.
    std::string pattern = "x?[0-9]{" + std::to_string(i % 8 + 1) + ",}";
    Result<Table> out = ApplyOperation(t, Extract(0, pattern));
    if (!out.ok()) failures.fetch_add(1, std::memory_order_relaxed);
    // Malformed patterns exercise the compile-failure path concurrently;
    // they must report InvalidArgument without poisoning the cache.
    Result<Table> bad = ApplyOperation(t, Extract(0, "(unclosed"));
    if (bad.ok()) failures.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(failures.load(), 0);
}

// End-to-end Extract coverage for the parallel engine: inferred patterns
// are unique to this input, and the highest thread count runs first, so
// each pattern's first compilation happens inside a parallel expansion.
TEST(ParallelSearchTest, InferredExtractPatternsAgreeAcrossThreads) {
  Table input({{"ab:12"}, {"cd:34"}, {"ef:56"}});
  Table goal({{"ab:12", "12"}, {"cd:34", "34"}, {"ef:56", "56"}});
  OperatorRegistry registry =
      RegistryWithInferredPatterns(input, OperatorRegistry::Default());
  ASSERT_GT(registry.extract_patterns().size(),
            OperatorRegistry::Default().extract_patterns().size());

  SearchOptions options = DeterministicOptions(8);
  options.registry = &registry;
  SearchResult eight = SynthesizeProgram(input, goal, options);
  EXPECT_TRUE(eight.found);
  for (int threads : {2, 1}) {
    options.num_threads = threads;
    SearchResult other = SynthesizeProgram(input, goal, options);
    ExpectIdenticalOutcome(other, eight,
                           "inferred-extract threads=" +
                               std::to_string(threads) + " vs 8");
  }
}

// The memo must be purely an accelerator: disabling it cannot change the
// discovered program or the exploration statistics.
TEST(ParallelSearchTest, HeuristicCacheDoesNotChangeResults) {
  int covered = 0;
  for (const Scenario& scenario : Corpus()) {
    if (!scenario.tags().solvable) continue;
    Result<ExamplePair> example = scenario.MakeExample(2);
    ASSERT_TRUE(example.ok()) << scenario.name();

    SearchOptions cached = DeterministicOptions(4);
    SearchOptions uncached = cached;
    uncached.cache_heuristic = false;

    SearchResult with_cache =
        SynthesizeProgram(example->input, example->output, cached);
    SearchResult without_cache =
        SynthesizeProgram(example->input, example->output, uncached);
    ExpectIdenticalOutcome(without_cache, with_cache,
                           scenario.name() + " cache ablation",
                           testing::MemoCounts::kIgnored);
    EXPECT_EQ(without_cache.stats.heuristic_cache_hits, 0u);
    EXPECT_EQ(without_cache.stats.heuristic_cache_misses, 0u);
    if (++covered == 5) break;
  }
  EXPECT_EQ(covered, 5);
}

}  // namespace
}  // namespace foofah
