#ifndef FOOFAH_EXEC_SPILL_H_
#define FOOFAH_EXEC_SPILL_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exec/kernels.h"
#include "exec/plan.h"
#include "ops/row_io.h"
#include "program/program.h"
#include "table/csv_stream.h"
#include "table/table.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace foofah {
namespace exec {

/// Spill-to-disk graceful degradation for the blocking suffix (see
/// runner.h for the executor's entry points). The suffix's relation is
/// held in memory while it fits the spill threshold and moves to a
/// chunked on-disk run file past it. Every suffix step runs the
/// operator's one definition (RunOperation, ops/operators.h) over the
/// relation, whichever kind it is, and writes into a
/// SpillableRelationBuilder (the last step into the CSV writer), so a
/// step whose output outgrows the threshold spills too. Over a run,
/// row-local steps scan it through their kernels, Transpose reads it in
/// column tiles (degrading to one streamed column per pass when a
/// single column exceeds the tile budget), SplitAll in a measure + map
/// scan pair, and Unfold/Wrap* in a single scan with only their
/// group/output state resident. Spilled bytes are charged to a
/// DiskGauge against the disk budget, completing the degradation
/// ladder: in-memory → spill → typed kResourceExhausted, never OOM.
///
/// Run file format: a sequence of pages, each
///   [u32le payload_len][u32le crc32][payload]
/// where the payload is a sequence of records — 0x01 + u32le len +
/// bytes for one cell, 0x02 for end-of-row. Records never straddle a
/// page boundary (a page is closed only between records), so a torn
/// page is detected by the CRC and a truncated file by a partial
/// header. All spill I/O failures are typed kUnavailable; the
/// exec/spill_write and exec/spill_read fault points simulate
/// ENOSPC/EIO at every page boundary.
///
/// Byte identity with ToCsv(Program::Execute(...)) needs no mirror:
/// Program::Execute runs the same definitions over a Table. A run keeps
/// each row's stored cells, so ragged rows stay ragged across a spill.

/// High-water gauge of tracked resident bytes, charged as growth deltas
/// against the token's memory budget (so total-charged == peak). Every
/// Update also polls the token, turning a tripped budget / deadline /
/// external cancel into the canonical typed Status.
class MemoryGauge {
 public:
  explicit MemoryGauge(CancellationToken* token) : token_(token) {}

  Status Update(uint64_t current_resident_bytes) {
    if (current_resident_bytes > high_water_) {
      token_->ChargeMemory(current_resident_bytes - high_water_);
      high_water_ = current_resident_bytes;
    }
    if (token_->IsCancelled()) {
      return StatusFromCancelReason(token_->reason(), "apply");
    }
    return Status();
  }

  uint64_t high_water() const { return high_water_; }

 private:
  CancellationToken* token_;
  uint64_t high_water_ = 0;
};

/// Live + high-water tracking of spill bytes on disk, charged as growth
/// deltas against the token's disk budget. Release() (run file deleted)
/// lets the budget cap *peak concurrent* spill usage, not the total
/// ever written.
class DiskGauge {
 public:
  explicit DiskGauge(CancellationToken* token) : token_(token) {}

  Status Charge(uint64_t bytes) {
    live_ += bytes;
    if (live_ > high_water_) {
      token_->ChargeDisk(live_ - high_water_);
      high_water_ = live_;
    }
    if (token_->IsCancelled()) {
      return StatusFromCancelReason(token_->reason(), "apply");
    }
    return Status();
  }

  void Release(uint64_t bytes) { live_ -= bytes < live_ ? bytes : live_; }

  uint64_t live() const { return live_; }
  uint64_t high_water() const { return high_water_; }

 private:
  CancellationToken* token_;
  uint64_t live_ = 0;
  uint64_t high_water_ = 0;
};

/// Sentinel thresholds for SpillContext (mirrored by
/// ApplyOptions::spill_threshold_bytes).
inline constexpr uint64_t kNeverSpill = UINT64_MAX;

/// Appends rows to one on-disk run. Cells may be written incrementally
/// (AppendCell / EndRow) so a producer never has to hold a giant row —
/// the streamed-Transpose output path depends on this.
class SpillRunWriter {
 public:
  static constexpr size_t kDefaultPageBytes = 256u << 10;

  SpillRunWriter(std::string path, DiskGauge* gauge,
                 size_t page_bytes = kDefaultPageBytes);
  ~SpillRunWriter();
  SpillRunWriter(const SpillRunWriter&) = delete;
  SpillRunWriter& operator=(const SpillRunWriter&) = delete;

  Status AppendCell(std::string_view cell);
  Status EndRow();
  Status AppendRow(const std::string_view* cells, size_t num_cells);

  /// Flushes the final page and closes the file. Must be called before
  /// reading the run; errors latch.
  Status Finish();

  const std::string& path() const { return path_; }
  uint64_t rows() const { return rows_; }
  uint64_t max_width() const { return max_width_; }
  uint64_t bytes_written() const { return bytes_written_; }
  size_t buffered_bytes() const { return page_.capacity(); }

 private:
  Status FlushPage();

  std::string path_;
  std::FILE* file_ = nullptr;
  DiskGauge* gauge_;
  size_t page_bytes_;
  std::string page_;
  Status status_;
  bool finished_ = false;
  uint64_t rows_ = 0;
  uint64_t max_width_ = 0;
  size_t cells_in_row_ = 0;
  uint64_t bytes_written_ = 0;
};

/// Sequential row scan over a finished run file. Cell views are valid
/// until the next NextRow call. CRC mismatches, truncation, and read
/// errors are typed kUnavailable.
class SpillRunReader {
 public:
  explicit SpillRunReader(const std::string& path);
  ~SpillRunReader();
  SpillRunReader(const SpillRunReader&) = delete;
  SpillRunReader& operator=(const SpillRunReader&) = delete;

  /// Yields the next row, or false at clean end of run.
  Result<bool> NextRow(const std::string_view** cells, size_t* num_cells);

  /// Resident bytes (page buffer + row scratch), fed to the memory
  /// gauge during scans.
  size_t buffered_bytes() const;

 private:
  Result<bool> NextPage();

  std::string path_;
  std::FILE* file_ = nullptr;
  Status status_;
  bool eof_ = false;
  std::string page_;
  size_t pos_ = 0;
  std::vector<std::string> cell_storage_;
  std::vector<std::string_view> views_;
  size_t row_bytes_ = 0;
};

/// A finished, immutable run on disk.
struct SpilledRun {
  std::string path;
  Shape shape;
  uint64_t bytes = 0;  ///< On-disk size (released from the gauge on discard).
};

/// The relation between blocking-suffix stages: in memory until spilled.
class Relation {
 public:
  static Relation FromTable(Table table) {
    Relation r;
    r.table_ = std::move(table);
    return r;
  }
  static Relation FromRun(SpilledRun run) {
    Relation r;
    r.spilled_ = true;
    r.run_ = std::move(run);
    return r;
  }

  bool spilled() const { return spilled_; }
  Table& table() { return table_; }
  const SpilledRun& run() const { return run_; }
  Shape shape() const {
    if (spilled_) return run_.shape;
    return Shape{table_.num_rows(), table_.num_cols()};
  }

 private:
  bool spilled_ = false;
  Table table_;
  SpilledRun run_;
};

struct SpillStats {
  uint64_t runs = 0;   ///< Run files written.
  uint64_t bytes = 0;  ///< Total bytes written to run files.
};

/// Lazily creates (and owns the naming of) the per-apply temp
/// directory; returns its path. The directory's lifetime — and crash
/// cleanup — belong to the caller (runner.cc's ScopedTempDir).
using TempDirProvider = std::function<Result<std::string>()>;

/// Shared plumbing for one apply run's spill activity: gauges, the
/// resolved threshold, run-file naming, and accumulated stats.
class SpillContext {
 public:
  SpillContext(CancellationToken* token, MemoryGauge* memory,
               uint64_t spill_threshold_bytes, uint64_t memory_budget_bytes,
               TempDirProvider temp_dir,
               size_t page_bytes = SpillRunWriter::kDefaultPageBytes)
      : token_(token),
        memory_(memory),
        disk_(token),
        threshold_(spill_threshold_bytes),
        memory_budget_(memory_budget_bytes),
        temp_dir_(std::move(temp_dir)),
        page_bytes_(page_bytes) {}

  bool spill_enabled() const { return threshold_ != kNeverSpill; }
  uint64_t threshold() const { return threshold_; }
  size_t page_bytes() const { return page_bytes_; }

  /// Bytes a spill-aware operator may hold resident (Transpose tiles):
  /// half the memory budget when one is set, else the threshold, else a
  /// 16 MB default.
  uint64_t tile_budget() const;

  CancellationToken* token() { return token_; }
  MemoryGauge* memory() { return memory_; }
  DiskGauge& disk() { return disk_; }
  SpillStats& stats() { return stats_; }

  /// Opens the next run file under the per-run temp directory.
  Result<std::unique_ptr<SpillRunWriter>> NewRunWriter();

  /// Deletes a consumed run file and releases its bytes from the disk
  /// gauge (removal failures are ignored: the temp dir sweep owns the
  /// backstop).
  void DiscardRun(const SpilledRun& run);

 private:
  CancellationToken* token_;
  MemoryGauge* memory_;
  DiskGauge disk_;
  uint64_t threshold_;
  uint64_t memory_budget_;
  TempDirProvider temp_dir_;
  size_t page_bytes_;
  uint64_t next_run_id_ = 0;
  SpillStats stats_;
};

/// Where a suffix step writes the relation it produces, and the
/// materialization pass's terminal: accumulates rows in memory (a
/// TableSink) and converts them to an on-disk run the moment the
/// tracked bytes exceed the spill threshold (threshold 0 spills on the
/// first cell; kNeverSpill never spills). Once spilled, cells stream
/// straight to the run writer, so giant rows never become resident.
class SpillableRelationBuilder : public RowSink {
 public:
  explicit SpillableRelationBuilder(SpillContext* ctx) : ctx_(ctx) {}

  Status Push(const std::string_view* cells, size_t num_cells) override;
  Status AppendCell(std::string_view cell) override;
  Status EndRow() override;
  Status Finish() override { return Status(); }

  /// In-memory resident bytes: the rows held before a spill, or the run
  /// writer's page buffer once spilled.
  uint64_t bytes_buffered() const override;

  bool spilled() const { return writer_ != nullptr; }

  /// Finalizes into a Relation; the builder is exhausted afterwards.
  Result<Relation> Take();

 private:
  Status SpillNow();
  Status SpillIfOver();

  SpillContext* ctx_;
  TableSink rows_in_memory_;
  uint64_t rows_ = 0;
  uint64_t max_width_ = 0;
  size_t cells_in_row_ = 0;
  std::unique_ptr<SpillRunWriter> writer_;
  Status status_;
};

/// Executes program operations [prefix, size) over the materialized
/// relation, one loop for every kind of relation: each step validates
/// against the relation's shape, runs the operator over it (file
/// comment), and writes into a SpillableRelationBuilder, the last step
/// into `writer` (`*rows_out` counts its rows). Consumed run files are
/// deleted as execution advances.
Status ExecuteBlockingSuffix(const Program& program, size_t prefix,
                             Relation relation, SpillContext* ctx,
                             CsvChunkWriter* writer, uint64_t* rows_out);

}  // namespace exec
}  // namespace foofah

#endif  // FOOFAH_EXEC_SPILL_H_
