#ifndef FOOFAH_EXEC_RUNNER_H_
#define FOOFAH_EXEC_RUNNER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "program/program.h"
#include "table/csv.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace foofah {
namespace exec {

/// The streaming executor's entry points: apply a synthesized Program
/// to CSV input of arbitrary size with memory bounded by
/// O(io buffer + chunk + widest record + bounded windows), never
/// O(file). Output is byte-identical to
/// ToCsv(Program::Execute(ParseCsv(input))) — the differential tests
/// enforce this corpus-wide at multiple chunk sizes.
///
/// Execution makes a small number of sequential passes over the input:
///   1. a profile pass (row count + widest record → the input Shape),
///   2. one measuring pass per width-dynamic operator (Delete,
///      DeleteRow) in the streaming prefix, and
///   3. the final pass, streaming rows through the fused kernel chain
///      into the writer — or, when the program contains a blocking
///      operator (Unfold, Transpose, Wrap*, SplitAll), into a
///      materialized relation over which the remaining operations run
///      under the memory budget. The relation, and each step's output,
///      stays in memory while it fits the spill threshold and moves to
///      an on-disk run file (exec/spill.h) past it, so blocking
///      suffixes degrade in-memory → spill → typed failure instead of
///      OOMing.
///
/// The file variant is crash-safe: output is written to a temp file in
/// a per-run temp directory next to the output path, fsynced, and
/// atomically renamed into place on success — the output path either
/// holds the complete previous content or the complete new content,
/// never a torn write. Orphaned temp directories from crashed runs are
/// reaped on the next invocation (util/tempfile.h).
///
/// Failures are typed and reuse the library's diagnostics unchanged:
/// CSV problems are the reader's ParseErrors with positional context
/// (the ones ParseCsv reports), invalid operations are
/// ValidateOperation's InvalidArgument messages, and budget/cancel stops
/// map through the canonical StatusFromCancelReason table (memory
/// budget → kResourceExhausted).

/// Progress snapshot handed to ApplyOptions::progress.
struct ApplyProgress {
  int pass = 0;         ///< 1 = profile, then measuring passes, then final.
  int total_passes = 0;  ///< Known after planning; estimated before.
  uint64_t rows_in = 0;   ///< Input records consumed in this pass.
  uint64_t bytes_in = 0;  ///< Input bytes consumed in this pass.
  uint64_t rows_out = 0;  ///< Records written so far (final pass only).
};

using ProgressFn = std::function<void(const ApplyProgress&)>;

struct ApplyOptions {
  CsvOptions csv;

  /// Records parsed per ReadChunk call — the unit of memory/latency
  /// trade-off. Peak resident memory scales with this, not file size.
  size_t chunk_rows = 4096;

  /// Approximate cap on tracked resident bytes (reader buffers, bounded
  /// windows, materialized tables for blocking suffixes); exceeded →
  /// kResourceExhausted via the cancellation machinery. 0 disables.
  uint64_t memory_budget_bytes = 0;

  /// Blocking-suffix spill control: once the materialized relation's
  /// tracked bytes exceed this threshold, rows move to an on-disk run
  /// file and the suffix executes spill-aware (exec/spill.h). 0 spills
  /// everything (the differential sweeps prove byte-identity there);
  /// kSpillAuto derives memory_budget_bytes / 2 when a budget is set
  /// and never spills otherwise; kSpillNever forces the pure in-memory
  /// path regardless of budget.
  static constexpr uint64_t kSpillAuto = UINT64_MAX;
  static constexpr uint64_t kSpillNever = UINT64_MAX - 1;
  uint64_t spill_threshold_bytes = kSpillAuto;

  /// Cap on peak concurrent spill bytes on disk; exceeded → typed
  /// kResourceExhausted ("disk budget exhausted") — with both budgets
  /// exhausted the executor fails typed, it never OOMs or fills the
  /// disk unboundedly. 0 disables.
  uint64_t disk_budget_bytes = 0;

  /// Parent directory for the per-run temp directory (spill runs + the
  /// crash-safe output temp file). Empty derives it: the output file's
  /// directory for the file variant (same filesystem, so the commit
  /// rename is atomic), $TMPDIR or /tmp for the text variant.
  std::string spill_dir;

  /// Optional externally owned token (not owned, must outlive the
  /// call): lets callers abort mid-file and compose deadlines. When
  /// null a private token enforces just the memory budget.
  CancellationToken* cancel = nullptr;

  /// Invoked at most every `progress_every_rows` input records (plus
  /// once per pass end). Null disables.
  ProgressFn progress;
  uint64_t progress_every_rows = 1u << 18;
};

struct ApplyStats {
  uint64_t rows_in = 0;    ///< Input records (per pass; the input's N).
  uint64_t bytes_in = 0;   ///< Input bytes (one pass's worth).
  uint64_t rows_out = 0;   ///< Records written.
  uint64_t bytes_out = 0;  ///< Output bytes written.
  int passes = 0;          ///< Total passes over the input.
  size_t streaming_steps = 0;  ///< Operations run as streaming kernels.
  size_t blocking_steps = 0;   ///< Operations run on the materialized relation.
  /// High-water mark of tracked resident bytes (the gauge charged
  /// against the memory budget). The bounded-memory claim check.sh
  /// stage 7 gates on compares this across input sizes.
  uint64_t peak_tracked_bytes = 0;
  uint64_t spill_runs = 0;           ///< Run files written by the spill path.
  uint64_t spill_bytes_written = 0;  ///< Total bytes written to run files.
  /// High-water mark of concurrent spill bytes on disk (the gauge
  /// charged against the disk budget). 0 when nothing spilled.
  uint64_t peak_disk_bytes = 0;
  /// Always zero: cells are views into the reader's buffer and nothing
  /// is interned. Kept only because perfbench/src/apply.cc:479-482 reads
  /// `lookups` and `hits`; remove with the next benchmark change.
  struct InternerStats {
    uint64_t lookups = 0;
    uint64_t hits = 0;
  };
  InternerStats interner;
};

/// Applies `program` to the CSV file at `input_path`, writing the
/// result to `output_path` crash-safely: the result is staged in a
/// temp directory next to the output and atomically renamed into place
/// only on success, so a partial file never looks like a result — even
/// across a crash or power loss. Stale temp directories from previous
/// crashed runs are reaped first.
Result<ApplyStats> ApplyProgramToCsvFile(const Program& program,
                                         const std::string& input_path,
                                         const std::string& output_path,
                                         const ApplyOptions& options = {});

/// In-memory variant (tests, small inputs): reads CSV from `input`,
/// appends the transformed CSV to `*output`.
Result<ApplyStats> ApplyProgramToCsvText(const Program& program,
                                         std::string_view input,
                                         std::string* output,
                                         const ApplyOptions& options = {});

}  // namespace exec
}  // namespace foofah

#endif  // FOOFAH_EXEC_RUNNER_H_
