#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / values.size();
}

namespace {

// 1-based nearest rank of `percent` among n samples.
size_t NearestRank(size_t n, double percent) {
  size_t rank = static_cast<size_t>(std::ceil(percent / 100.0 * n - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double percent) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[NearestRank(values.size(), percent) - 1];
}

size_t SamplesBeyond(size_t n, double percent) {
  return n == 0 ? 0 : n - NearestRank(n, percent);
}

Tail TailLatency(const std::vector<double>& values, size_t min_beyond) {
  Tail tail;
  tail.samples = values.size();
  for (double percent : kTailLadder) {
    if (SamplesBeyond(values.size(), percent) >= min_beyond) {
      tail.percent = percent;
      break;
    }
  }
  tail.beyond = SamplesBeyond(values.size(), tail.percent);
  tail.value = Percentile(values, tail.percent);
  return tail;
}

double SendLatenessMs(const OpenLoopSample& sample) {
  return std::max(0.0, sample.submitted_ms - sample.scheduled_ms);
}

double OpenLoopLatencyMs(const OpenLoopSample& sample) {
  return SendLatenessMs(sample) + sample.queue_ms + sample.run_ms;
}

}  // namespace perfbench
