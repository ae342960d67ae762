#ifndef FOOFAH_TESTS_TESTING_SEARCH_OUTCOME_H_
#define FOOFAH_TESTS_TESTING_SEARCH_OUTCOME_H_

// The thread-count determinism contract of the search, shared by the
// suites that check it (parallel_search_test for full runs,
// frontier_parallel_test for runs cut short by a budget or a deadline).

#include <gtest/gtest.h>

#include <string>

#include "search/search.h"

namespace foofah {
namespace testing {

/// Wall-clock limits off, expansion budget on, so every run explores the
/// exact same graph prefix.
inline SearchOptions DeterministicOptions(int num_threads) {
  SearchOptions options;
  options.timeout_ms = 0;
  options.max_expansions = 30'000;
  options.num_threads = num_threads;
  return options;
}

/// Everything except elapsed_ms and the heuristic-cache hit/miss split
/// (which legitimately shifts because the parallel engine estimates before
/// deduplication) must match bit-for-bit.
inline void ExpectIdenticalOutcome(const SearchResult& serial,
                                   const SearchResult& parallel,
                                   const std::string& label) {
  EXPECT_EQ(serial.found, parallel.found) << label;
  EXPECT_EQ(serial.program, parallel.program) << label;
  ASSERT_EQ(serial.alternatives.size(), parallel.alternatives.size()) << label;
  for (size_t i = 0; i < serial.alternatives.size(); ++i) {
    EXPECT_EQ(serial.alternatives[i], parallel.alternatives[i]) << label;
  }
  EXPECT_EQ(serial.stats.nodes_expanded, parallel.stats.nodes_expanded)
      << label;
  EXPECT_EQ(serial.stats.nodes_generated, parallel.stats.nodes_generated)
      << label;
  EXPECT_EQ(serial.stats.candidates_tried, parallel.stats.candidates_tried)
      << label;
  EXPECT_EQ(serial.stats.duplicates_skipped, parallel.stats.duplicates_skipped)
      << label;
  EXPECT_EQ(serial.stats.oversize_skipped, parallel.stats.oversize_skipped)
      << label;
  EXPECT_EQ(serial.stats.apply_failures, parallel.stats.apply_failures)
      << label;
  for (int r = 0; r < kNumPruneReasons; ++r) {
    EXPECT_EQ(serial.stats.pruned_by_reason[r],
              parallel.stats.pruned_by_reason[r])
        << label << " prune reason " << r;
  }
  EXPECT_EQ(serial.stats.timed_out, parallel.stats.timed_out) << label;
  EXPECT_EQ(serial.stats.budget_exhausted, parallel.stats.budget_exhausted)
      << label;
  EXPECT_EQ(serial.stats.cancelled, parallel.stats.cancelled) << label;
  // Anytime results are selected at serial push time, so they are part of
  // the bit-identical contract too.
  EXPECT_EQ(serial.anytime.available, parallel.anytime.available) << label;
  if (serial.anytime.available && parallel.anytime.available) {
    EXPECT_EQ(serial.anytime.program, parallel.anytime.program) << label;
    EXPECT_EQ(serial.anytime.h, parallel.anytime.h) << label;
    EXPECT_EQ(serial.anytime.input_h, parallel.anytime.input_h) << label;
    EXPECT_TRUE(serial.anytime.table.ContentEquals(parallel.anytime.table))
        << label;
  }
}

}  // namespace testing
}  // namespace foofah

#endif  // FOOFAH_TESTS_TESTING_SEARCH_OUTCOME_H_
