#ifndef FOOFAH_PERFBENCH_TRACE_H_
#define FOOFAH_PERFBENCH_TRACE_H_

// Spans of the traced run. Each span records its name, start, end, the
// span that caused it and the request (task, request or file) it belongs
// to. Spans are kept in memory and written out once, when the run ends.
// Layers whose calls are too fine-grained for one span per call (the
// search's per-candidate calls) get one span per task and layer, from the
// first call's start to the last call's end, carrying the summed busy time
// and the call and allocation counts.

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a root span.
  uint64_t request = 0;
  const char* name = "";
  double start_us = 0;  ///< Since the recorder's origin.
  double end_us = 0;
  /// Aggregated layer spans only: summed call time, calls, allocations.
  double busy_us = -1;
  uint64_t calls = 0;
  uint64_t allocs = 0;
  /// Free-form attributes ("rung=1 found=0 ...").
  std::string detail;
};

/// Single-threaded: every span of a run is recorded by the benchmark's
/// own driving thread. `name` must be a string literal.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  uint64_t Add(const char* name, uint64_t parent, uint64_t request,
               Clock::time_point start, Clock::time_point end,
               std::string detail = "");
  uint64_t AddAggregate(const char* name, uint64_t parent, uint64_t request,
                        Clock::time_point first_start,
                        Clock::time_point last_end, double busy_ms,
                        uint64_t calls, uint64_t allocs);

  /// Moves the end of span `id` (for a parent recorded before its
  /// children).
  void SetEnd(uint64_t id, Clock::time_point end) {
    spans_[id - 1].end_us = SinceOrigin(end);
  }

  /// Writes one JSON object per line; false when the file cannot be
  /// written.
  bool Write(const std::string& path) const;

 private:
  double SinceOrigin(Clock::time_point t) const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // FOOFAH_PERFBENCH_TRACE_H_
