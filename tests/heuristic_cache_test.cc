#include "heuristic/heuristic_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "scenarios/corpus.h"
#include "search/search.h"
#include "search/trace.h"
#include "testing/search_outcome.h"

namespace foofah {
namespace {

TEST(HeuristicCacheTest, MissThenHitAccounting) {
  HeuristicCache cache;
  EXPECT_FALSE(cache.Lookup(1, 2, 0).has_value());
  cache.Insert(1, 2, 0, 3.5);
  auto hit = cache.Lookup(1, 2, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 3.5);

  HeuristicCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(HeuristicCacheTest, GoalHashSeparatesSearches) {
  // The same state under two different goals must not share an estimate —
  // this is what makes one cache safe to share across driver rounds.
  HeuristicCache cache;
  cache.Insert(/*state_hash=*/7, /*goal_hash=*/100, /*checksum=*/0, 1.0);
  cache.Insert(/*state_hash=*/7, /*goal_hash=*/200, /*checksum=*/0, 9.0);
  EXPECT_EQ(cache.Lookup(7, 100, 0).value(), 1.0);
  EXPECT_EQ(cache.Lookup(7, 200, 0).value(), 9.0);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(HeuristicCacheTest, InsertOverwritesExistingKey) {
  HeuristicCache cache;
  cache.Insert(1, 1, 0, 2.0);
  cache.Insert(1, 1, 0, 4.0);
  EXPECT_EQ(cache.Lookup(1, 1, 0).value(), 4.0);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(HeuristicCacheTest, ChecksumMismatchRejectsCollidingEntry) {
  // Two distinct states colliding in the 64-bit content hash present the
  // same key with different shape fingerprints: the resident entry must
  // not be served for the other state.
  HeuristicCache cache;
  cache.Insert(/*state_hash=*/11, /*goal_hash=*/5, /*checksum=*/100, 2.0);
  EXPECT_FALSE(cache.Lookup(11, 5, /*checksum=*/999).has_value());
  EXPECT_EQ(cache.Lookup(11, 5, /*checksum=*/100).value(), 2.0);

  HeuristicCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.collisions, 1u);
  EXPECT_EQ(stats.misses, 1u);  // The rejected lookup counts as a miss.
  EXPECT_EQ(stats.hits, 1u);

  // The colliding state's own insert overwrites (last-writer-wins) and is
  // then served under its checksum only.
  cache.Insert(11, 5, /*checksum=*/999, 7.0);
  EXPECT_EQ(cache.Lookup(11, 5, 999).value(), 7.0);
  EXPECT_FALSE(cache.Lookup(11, 5, 100).has_value());
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(HeuristicCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  HeuristicCache cache(/*capacity=*/1024, /*num_shards=*/5);
  EXPECT_EQ(cache.num_shards(), 8);
  HeuristicCache one_shard(/*capacity=*/16, /*num_shards=*/1);
  EXPECT_EQ(one_shard.num_shards(), 1);
}

TEST(HeuristicCacheTest, EvictionCapBoundsResidency) {
  // Tiny cache: total capacity 32 spread over 4 shards. Inserting far more
  // distinct keys must keep residency at or below capacity and report the
  // displaced entries as evictions.
  HeuristicCache cache(/*capacity=*/32, /*num_shards=*/4);
  constexpr uint64_t kKeys = 10'000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    cache.Insert(k, /*goal_hash=*/42, /*checksum=*/0, static_cast<double>(k));
  }
  HeuristicCache::Stats stats = cache.stats();
  EXPECT_LE(stats.entries, cache.capacity());
  EXPECT_GT(stats.entries, 0u);
  EXPECT_EQ(stats.evictions, kKeys - stats.entries);

  // Resident survivors still return their exact value.
  uint64_t verified = 0;
  for (uint64_t k = 0; k < kKeys; ++k) {
    if (auto v = cache.Lookup(k, 42, 0)) {
      EXPECT_EQ(*v, static_cast<double>(k));
      ++verified;
    }
  }
  EXPECT_EQ(verified, stats.entries);
}

TEST(HeuristicCacheTest, ClearResetsEntriesAndCounters) {
  HeuristicCache cache;
  cache.Insert(1, 1, 0, 1.0);
  cache.Lookup(1, 1, 0);
  cache.Lookup(2, 2, 0);
  cache.Clear();
  HeuristicCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_FALSE(cache.Lookup(1, 1, 0).has_value());
}

TEST(HeuristicCacheTest, ConcurrentMixedUseIsSafeAndExact) {
  // Hammer one cache from several threads with overlapping key ranges;
  // every hit must carry the exact value its key was inserted with (the
  // search relies on memo hits being indistinguishable from recomputes).
  HeuristicCache cache(/*capacity=*/4096, /*num_shards=*/8);
  constexpr int kThreads = 4;
  constexpr uint64_t kKeysPerThread = 2'000;
  std::vector<std::thread> threads;
  std::atomic<uint64_t> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &mismatches, t] {
      for (uint64_t i = 0; i < kKeysPerThread; ++i) {
        uint64_t key = (i + static_cast<uint64_t>(t) * 500) % 3'000;
        if (auto v = cache.Lookup(key, 7, key)) {
          if (*v != static_cast<double>(key) * 2.0) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          cache.Insert(key, 7, key, static_cast<double>(key) * 2.0);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  HeuristicCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kKeysPerThread);
}

// --- When a search keeps a memo --------------------------------------------

// Counts the estimates a search requests: the input's, then one for each
// kept child that is not a goal.
class EstimateCounter : public SearchObserver {
 public:
  void OnGenerate(int, int, const Operation&, double, bool is_goal) override {
    if (!is_goal) ++estimates;
  }
  uint64_t estimates = 1;
};

// The paper's motivating example (Figure 1), solved by a four-step program.
const Table& MotivatingInput() {
  static const Table* table = new Table{{"Bureau of I.A."},
                                        {"Regional Director Numbers"},
                                        {"Niles C.", "Tel:(800)645-8397"},
                                        {"", "Fax:(907)586-7252"},
                                        {""},
                                        {"Jean H.", "Tel:(918)781-4600"},
                                        {"", "Fax:(918)781-4604"}};
  return *table;
}
const Table& MotivatingGoal() {
  static const Table* table =
      new Table{{"", "Tel", "Fax"},
                {"Niles C.", "(800)645-8397", "(907)586-7252"},
                {"Jean H.", "(918)781-4600", "(918)781-4604"}};
  return *table;
}

SearchOptions SerialOptions() {
  SearchOptions options;
  options.num_threads = 1;
  options.timeout_ms = 0;
  return options;
}

TEST(SearchMemoTest, SerialSearchFillsACallerOwnedCache) {
  HeuristicCache cache;
  SearchOptions options = SerialOptions();
  options.heuristic_cache = &cache;
  const SearchResult first =
      SynthesizeProgram(MotivatingInput(), MotivatingGoal(), options);
  ASSERT_TRUE(first.found);
  EXPECT_EQ(first.stats.heuristic_cache_hits, 0u);
  EXPECT_GT(first.stats.heuristic_cache_misses, 0u);
  EXPECT_EQ(cache.stats().entries, first.stats.heuristic_cache_misses);

  // The same search again: every estimate comes from the memo.
  const SearchResult second =
      SynthesizeProgram(MotivatingInput(), MotivatingGoal(), options);
  testing::ExpectIdenticalOutcome(first, second, "second search");
  EXPECT_EQ(second.stats.heuristic_cache_hits,
            first.stats.heuristic_cache_misses);
  EXPECT_EQ(second.stats.heuristic_cache_misses, 0u);
}

TEST(SearchMemoTest, SerialSearchWithoutASharedCacheCountsEstimatesAsMisses) {
  // A serial deduplicating search estimates each distinct state once, so
  // it keeps no memo; every estimate it computes counts as a miss.
  EstimateCounter counter;
  SearchOptions options = SerialOptions();
  options.observer = &counter;
  const SearchResult result =
      SynthesizeProgram(MotivatingInput(), MotivatingGoal(), options);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.stats.heuristic_cache_hits, 0u);
  EXPECT_EQ(result.stats.heuristic_cache_misses, counter.estimates);
}

TEST(SearchMemoTest, PrivateMemoStaysWhereItCanHit) {
  // Without deduplication a re-visited state is estimated again, and the
  // parallel engine estimates duplicates before dropping them: both keep
  // a private memo, and it hits.
  SearchOptions tree = SerialOptions();
  tree.deduplicate_states = false;
  tree.max_generated = 20'000;
  const SearchResult tree_result =
      SynthesizeProgram(MotivatingInput(), MotivatingGoal(), tree);
  ASSERT_TRUE(tree_result.found);
  EXPECT_GT(tree_result.stats.heuristic_cache_hits, 0u);

  // A duplicate of a state estimated in an earlier expansion hits at any
  // thread interleaving; this scenario has such duplicates.
  const Scenario* scenario = nullptr;
  for (const Scenario& s : Corpus()) {
    if (s.name() == "wrangler_dept_salaries") scenario = &s;
  }
  ASSERT_NE(scenario, nullptr);
  Result<ExamplePair> example = scenario->MakeExample(2);
  ASSERT_TRUE(example.ok());
  const SearchResult parallel = SynthesizeProgram(
      example->input, example->output, testing::DeterministicOptions(4));
  testing::ExpectIdenticalOutcome(
      SynthesizeProgram(example->input, example->output,
                        testing::DeterministicOptions(1)),
      parallel, scenario->name());
  EXPECT_GT(parallel.stats.heuristic_cache_hits, 0u);
}

}  // namespace
}  // namespace foofah
