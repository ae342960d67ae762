#ifndef FOOFAH_PERFBENCH_COMMON_H_
#define FOOFAH_PERFBENCH_COMMON_H_

// Shared plumbing of the benchmark: clocks, process counters, the
// allocation counter, digests, and the per-run report every workload
// fills in.

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time of the whole process (all threads), in milliseconds.
double ProcessCpuMs();
/// CPU time of the calling thread, in milliseconds.
double ThreadCpuMs();

/// Peak resident set size of the process so far, in MiB.
double PeakRssMb();

/// Heap allocations made by the calling thread so far (operator new
/// calls; alloc_count.cc replaces the global allocation functions).
uint64_t ThreadAllocs();

/// Cumulative host CPU ticks from the first line of /proc/stat; both are
/// zero when the file cannot be read.
struct HostTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
HostTicks ReadHostTicks();
/// Steal ticks / all ticks between two readings (0 when unavailable).
double StealFraction(const HostTicks& before, const HostTicks& after);

/// Digest of a whole file (foofah::Fnv1aHash over its bytes, the digest
/// the correctness checks compare outputs by); false when it cannot be
/// read.
bool DigestFile(const std::string& path, uint64_t* digest);

/// Command line of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for generated inputs and outputs; the run works in
  /// a private foofah::ScopedTempDir under it, which it removes before it
  /// exits (a killed run's directory is reaped by the next run).
  std::string work_dir = ".bench_build/work";
  /// Where the traced run writes its spans.
  std::string trace_dir = ".bench_build/traces";
};

/// What one workload run hands back to main(): its metric values by name
/// (end-to-end names for an untraced run, per-layer names for a traced
/// one), the operation counts, correctness failures, and free-form notes
/// printed above the result line.
struct Report {
  std::map<std::string, double> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::string> notes;

  void Fail(std::string message) { errors.push_back(std::move(message)); }
  bool correct() const { return errors.empty(); }

  /// Reports the per-layer metrics of layers this workload does not run
  /// as 0. Every workload names each per-layer metric it does not measure
  /// explicitly, so a traced result that lacks a metric is an error.
  void Bypass(std::span<const char* const> names) {
    for (const char* name : names) metrics[name] = 0;
  }
  /// Reports as 0, with a note saying so, the per-layer metrics of layers
  /// this workload runs but does not time.
  void NotMeasured(std::span<const char* const> names,
                   const std::string& why);
};

/// The per-layer metrics of the layers only one workload runs, for
/// Report::Bypass in the others.
/// synth_batch: ops, search, heuristic and the thread-pool baseline.
inline constexpr const char* kSearchLayerMetrics[] = {
    "ops.enumerate_ms",          "ops.candidates",
    "ops.apply_ms",              "ops.apply_allocs",
    "search.prune_ms",           "search.kept_frac",
    "search.frontier_ms",        "search.nodes_expanded",
    "search.nodes_generated",    "search.allocs_per_task",
    "heuristic.estimate_ms",     "heuristic.estimate_calls",
    "heuristic.estimate_allocs", "heuristic.memo_hit_frac",
    "util.pool_start_us"};
/// serve_open: learn, server and the load generator.
inline constexpr const char* kServiceLayerMetrics[] = {
    "learn.snapshot_load_ms",   "learn.guided_win_frac",
    "learn.fallback_frac",      "learn.guided_expansions",
    "server.admit_us",          "server.queue_ms_p50",
    "server.queue_ms_tail",     "server.run_ms_p50",
    "server.run_ms_tail",       "server.shed_frac",
    "server.rungs_per_request", "server.degraded_frac",
    "load.lag_ms_p50",          "load.lag_ms_max"};
/// apply_stream and apply_spill: table I/O and the executor.
inline constexpr const char* kExecutorLayerMetrics[] = {
    "table.read_parse_ms",    "table.read_mb_per_s",
    "exec.kernels_ms",        "exec.measure_pass_ms",
    "exec.passes",            "table.write_ms",
    "exec.commit_ms",         "exec.interner_hit_frac",
    "exec.spill_write_ms",    "exec.spill_mb",
    "exec.spill_runs",        "exec.suffix_ms",
    "exec.peak_disk_mb",      "exec.peak_tracked_mb"};

/// Runs `setup` `runs` times and returns the median duration in seconds
/// (setup_s); the state the last call leaves behind is what gets
/// measured. The first set-ups in a process run slower than the rest, so
/// short set-ups need more runs for the median to pass them.
template <typename Fn>
double MedianSetupSeconds(int runs, Fn&& setup);

/// printf into a std::string.
std::string Format(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

template <typename Fn>
double MedianSetupSeconds(int runs, Fn&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < runs; ++i) {
    const Clock::time_point start = Clock::now();
    setup();
    seconds.push_back(MsBetween(start, Clock::now()) / 1000.0);
  }
  return Median(seconds);
}

}  // namespace perfbench

#endif  // FOOFAH_PERFBENCH_COMMON_H_
