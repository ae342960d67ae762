#ifndef FOOFAH_UTIL_FAULT_INJECTION_H_
#define FOOFAH_UTIL_FAULT_INJECTION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace foofah {

/// Canonical names of the failure points compiled into the library. Tests
/// arm these by name; KnownPoints() returns the same list so sweeps can
/// iterate every point without hard-coding strings twice.
namespace fault_points {
/// Table copy-on-write detach of the row-handle spine (table/table.cc).
inline constexpr const char* kTableDetachSpine = "table/detach_spine";
/// Table copy-on-write detach of a single row (table/table.cc).
inline constexpr const char* kTableDetachRow = "table/detach_row";
/// std::regex compilation on an Extract cache miss (ops/operators.cc).
/// Failure here makes the compile behave as if the pattern were invalid.
inline constexpr const char* kRegexCompile = "ops/regex_compile";
/// ThreadPool job dispatch, hit once per ParallelFor with workers
/// (util/thread_pool.cc).
inline constexpr const char* kPoolDispatch = "pool/dispatch";
/// Heuristic-cache insert after a fresh estimate (search/search.cc).
/// Failure here silently skips the insert — the cache is a pure
/// accelerator, so results must not change.
inline constexpr const char* kHeuristicCacheInsert = "heuristic/cache_insert";
/// Every heuristic estimate computed by the search (search/search.cc).
/// Callbacks here are how tests plant a slow heuristic for deadline
/// overshoot regressions.
inline constexpr const char* kHeuristicEstimate = "search/heuristic_estimate";
/// SynthesisService admission check (server/service.cc), hit once per
/// Submit considered for admission. A forced failure sheds the request as
/// if the queue were full; callbacks let tests pin admission interleaving.
inline constexpr const char* kServerAdmit = "server/admit";
/// SynthesisService worker dispatch of a popped request
/// (server/service.cc), hit after the request leaves the queue and before
/// the ladder runs. A forced failure drops the dispatch: the request
/// completes with a typed kUnavailable instead of running; callbacks are
/// how tests park every worker to pin queue occupancy.
inline constexpr const char* kServerDispatch = "server/dispatch";
/// WranglerSession::Apply between the single-owner guard acquire and the
/// history mutation (wrangler/session.cc). Callbacks let tests hold one
/// call open while a second thread's call must observe kUnavailable.
inline constexpr const char* kWranglerApply = "wrangler/apply";
/// Degradation-ladder rung start (server/ladder.cc), hit once per rung
/// just before the rung publishes its token and its search launches.
/// Callbacks let tests park a rung there — e.g. land a Ticket::Cancel
/// before the publish, then assert the fresh rung token still fired.
inline constexpr const char* kLadderRungStart = "ladder/rung_start";
/// Spill run-file page write in the streaming executor (exec/spill.cc),
/// hit once per page flushed (open failures take the first hit). A
/// forced failure simulates a short write / ENOSPC: the page is treated
/// as unwritten and the apply fails with typed kUnavailable.
inline constexpr const char* kExecSpillWrite = "exec/spill_write";
/// Spill run-file page read (exec/spill.cc), hit once per page header
/// read. A forced failure simulates EIO mid-scan: typed kUnavailable,
/// same path a CRC mismatch takes.
inline constexpr const char* kExecSpillRead = "exec/spill_read";
/// Crash-safe output commit of foofah_apply's result
/// (util/tempfile.cc): hit twice per commit — before the fsync of the
/// temp output and before the atomic rename onto the final path. A
/// forced failure at either ordinal leaves the final path untouched.
inline constexpr const char* kExecOutputCommit = "exec/output_commit";
/// Recursive removal of a per-run temp directory (util/tempfile.cc),
/// hit once per ScopedTempDir cleanup. A forced failure simulates a
/// crash before cleanup: the directory is left behind and must be
/// reaped by the next invocation's ReapOrphanedTempDirs.
inline constexpr const char* kExecTempCleanup = "exec/temp_cleanup";
/// CsvChunkWriter page flush to a file (table/csv_stream.cc), hit once
/// per buffer flush. A forced failure simulates a short write on a full
/// disk: typed kUnavailable, latched like a real fwrite failure.
inline constexpr const char* kCsvStreamWrite = "csv/stream_write";
}  // namespace fault_points

/// Deterministic fault-injection registry.
///
/// Production code marks interesting failure points with the
/// FOOFAH_FAULT_HIT / FOOFAH_FAULT_FAIL macros below. When the library is
/// built with -DFOOFAH_FAULT_INJECTION=ON those macros consult this
/// process-wide registry; otherwise they compile to nothing (FAIL to a
/// constant false), so release builds carry zero overhead.
///
/// Tests arm a point by name before running the code under test:
///
///   FaultInjector::Instance().Reset();                  // per-test seed
///   FaultInjector::Instance().ArmFailure(
///       fault_points::kRegexCompile, /*nth_hit=*/1);    // fail 1st hit
///   ...
///   EXPECT_GT(FaultInjector::Instance().HitCount(
///       fault_points::kRegexCompile), 0u);
///
/// Determinism: a failure is keyed to an exact hit ordinal (countdown),
/// not to randomness, so a seeded test fires the same fault at the same
/// site on every run. Callbacks run on whichever thread hits the point —
/// they must be thread-safe and must not block on the registry (the
/// registry lock is released before the callback runs, so callbacks may
/// themselves hit further fault points).
class FaultInjector {
 public:
  /// The process-wide registry used by the macros.
  static FaultInjector& Instance();

  /// Every point name compiled into the library, sorted. Stable across
  /// builds; used by cancel-at-every-point sweep tests.
  static const std::vector<std::string>& KnownPoints();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arms `point` to fail exactly on its `nth_hit`-th hit (1-based) after
  /// this call, once. Replaces any previous failure arming for the point.
  void ArmFailure(std::string_view point, uint64_t nth_hit);

  /// Arms `point` to fail on every hit until disarmed.
  void ArmFailureAlways(std::string_view point);

  /// Runs `callback` on every hit of `point` (on the hitting thread,
  /// outside the registry lock). Replaces any previous callback.
  void ArmCallback(std::string_view point, std::function<void()> callback);

  /// Clears failure arming and callback for one point; hit counts stay.
  void Disarm(std::string_view point);

  /// Clears all arming and all hit counts — call from test SetUp so each
  /// test starts from the same seed state.
  void Reset();

  /// Hits observed at `point` since the last Reset().
  uint64_t HitCount(std::string_view point) const;

  /// Instrumentation entry (use the macros, not this directly): records a
  /// hit, runs the armed callback if any, and returns whether the armed
  /// failure schedule says this hit should fail.
  bool ShouldFail(const char* point);

 private:
  FaultInjector() = default;

  struct PointState {
    uint64_t hits = 0;
    uint64_t fail_at_hit = 0;  ///< 1-based ordinal; 0 = no one-shot failure.
    bool fail_always = false;
    std::shared_ptr<std::function<void()>> callback;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, PointState> points_;
};

}  // namespace foofah

#ifdef FOOFAH_FAULT_INJECTION
/// Records a hit at `point` and runs any armed callback. Statement.
#define FOOFAH_FAULT_HIT(point) \
  (void)::foofah::FaultInjector::Instance().ShouldFail(point)
/// Records a hit, runs any armed callback, and evaluates to true when the
/// armed failure schedule fires. Expression usable in an if().
#define FOOFAH_FAULT_FAIL(point) \
  ::foofah::FaultInjector::Instance().ShouldFail(point)
#else
#define FOOFAH_FAULT_HIT(point) \
  do {                          \
  } while (false)
#define FOOFAH_FAULT_FAIL(point) false
#endif  // FOOFAH_FAULT_INJECTION

#endif  // FOOFAH_UTIL_FAULT_INJECTION_H_
