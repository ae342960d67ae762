#ifndef FOOFAH_PERFBENCH_STATS_H_
#define FOOFAH_PERFBENCH_STATS_H_

// The benchmark's own statistics. They are chosen so that a short burst
// of host contention cannot move a per-run figure: medians over many
// samples, a tail percentile that always keeps at least ten samples
// beyond it, and per-task medians over repeated passes.

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 if empty.
double Median(std::vector<double> values);

/// Arithmetic mean; 0 if empty. Used where the host's speed phases, which
/// last tens of seconds, mix within one run: a median over a few passes
/// jumps from one phase to the other, a mean moves with the share of time
/// spent in each.
double Mean(const std::vector<double>& values);

/// Nearest-rank percentile: the smallest sample with at least `percent`%
/// of the samples at or below it. 0 if empty.
double Percentile(std::vector<double> values, double percent);

/// Samples strictly beyond the nearest-rank `percent` of `n` samples.
size_t SamplesBeyond(size_t n, double percent);

/// The percentiles the tail is chosen from, highest first.
inline constexpr double kTailLadder[] = {99.9, 99.5, 99, 98, 95, 90, 80, 75,
                                         50};

/// latency_tail_ms: the highest percentile of kTailLadder with at least
/// `min_beyond` samples beyond it, its value, and the sample count. With
/// fewer than 2 * min_beyond samples no percentile qualifies and the
/// median is used (`percent` = 50, `beyond` says how many lie past it).
struct Tail {
  double percent = 50;
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
};
Tail TailLatency(const std::vector<double>& values, size_t min_beyond = 10);

/// One open-loop request: when it was due, when the generator actually
/// called Submit, and the service's own queue and run times. All in ms
/// on the same clock origin.
struct OpenLoopSample {
  double scheduled_ms = 0;
  double submitted_ms = 0;
  double queue_ms = 0;
  double run_ms = 0;
};

/// How late the generator sent the request (never negative).
double SendLatenessMs(const OpenLoopSample& sample);

/// Latency measured from the scheduled send time: send lateness + queue
/// wait + run time. A generator stall therefore counts against every
/// request it delayed, not only the one it was sending.
double OpenLoopLatencyMs(const OpenLoopSample& sample);

}  // namespace perfbench

#endif  // FOOFAH_PERFBENCH_STATS_H_
