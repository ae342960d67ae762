#ifndef FOOFAH_TESTS_TESTING_ALLOC_COUNT_H_
#define FOOFAH_TESTS_TESTING_ALLOC_COUNT_H_

// Per-thread heap-allocation counters for tests that assert a code path
// allocates nothing, or little. Linking alloc_count.cc into a test binary
// replaces the global operator new/delete with counting wrappers around
// malloc/free (tests/CMakeLists.txt does this for property_test and
// csv_stream_test).

#include <cstdint>

namespace foofah {
namespace testing {

/// Calls to operator new / new[] on the calling thread so far.
uint64_t ThreadAllocations();

/// Bytes those calls requested.
uint64_t ThreadAllocatedBytes();

}  // namespace testing
}  // namespace foofah

#endif  // FOOFAH_TESTS_TESTING_ALLOC_COUNT_H_
