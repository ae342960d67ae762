#include "exec/runner.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "exec/kernels.h"
#include "exec/plan.h"
#include "exec/spill.h"
#include "ops/operators.h"
#include "table/csv_stream.h"
#include "util/tempfile.h"

namespace foofah {
namespace exec {

namespace {

// Builds the kernel chain for steps [0, count), ending at `terminal`.
// Kernels are constructed back to front; `*head` receives the entry
// sink (== terminal when count is 0, i.e. an empty program prefix).
Result<std::vector<std::unique_ptr<RowSink>>> BuildChain(
    const std::vector<StepPlan>& steps, size_t count, RowSink* terminal,
    RowSink** head) {
  std::vector<std::unique_ptr<RowSink>> owned;
  owned.reserve(count);
  RowSink* next = terminal;
  for (size_t i = count; i-- > 0;) {
    Result<std::unique_ptr<RowSink>> made =
        MakeKernel(steps[i].op, steps[i].in, next);
    if (!made.ok()) return made.status();
    std::unique_ptr<RowSink> kernel = std::move(made).value();
    next = kernel.get();
    owned.push_back(std::move(kernel));
  }
  *head = next;
  return owned;
}

struct PassIo {
  uint64_t rows = 0;
  uint64_t bytes = 0;
};

// Streams the whole input through `head`, one chunk at a time: the
// read -> transform -> (write|measure|materialize) loop every pass
// shares. `extra_resident` reports sink-side resident bytes (writer
// buffer, materialized rows) for the gauge; `rows_out` feeds progress.
Status DrivePipeline(CsvChunkReader* reader, RowSink* head,
                     const ApplyOptions& options, MemoryGauge* gauge, int pass,
                     int total_passes,
                     const std::function<uint64_t()>& extra_resident,
                     const std::function<uint64_t()>& rows_out, PassIo* io) {
  CsvChunk chunk;
  uint64_t next_progress = options.progress_every_rows;
  for (;;) {
    Result<bool> got = reader->ReadChunk(options.chunk_rows, &chunk);
    if (!got.ok()) return got.status();
    if (!got.value()) break;
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      CsvRowView row = chunk.row(r);
      Status pushed = head->Push(row.cells, row.num_cells);
      if (!pushed.ok()) return pushed;
    }
    io->rows += chunk.num_rows();
    io->bytes = reader->bytes_consumed();
    uint64_t resident = reader->buffered_bytes() + chunk.buffered_bytes() +
                        (extra_resident ? extra_resident() : 0);
    Status mem = gauge->Update(resident);
    if (!mem.ok()) return mem;
    if (options.progress && io->rows >= next_progress) {
      ApplyProgress p;
      p.pass = pass;
      p.total_passes = total_passes;
      p.rows_in = io->rows;
      p.bytes_in = io->bytes;
      p.rows_out = rows_out ? rows_out() : 0;
      options.progress(p);
      next_progress = io->rows + options.progress_every_rows;
    }
  }
  Status finished = head->Finish();
  if (!finished.ok()) return finished;
  if (options.progress) {
    ApplyProgress p;
    p.pass = pass;
    p.total_passes = total_passes;
    p.rows_in = io->rows;
    p.bytes_in = io->bytes;
    p.rows_out = rows_out ? rows_out() : 0;
    options.progress(p);
  }
  return Status();
}

// Resolves ApplyOptions::spill_threshold_bytes sentinels into the
// SpillContext's threshold domain (kNeverSpill disables spilling).
uint64_t ResolveSpillThreshold(const ApplyOptions& options) {
  if (options.spill_threshold_bytes == ApplyOptions::kSpillAuto) {
    return options.memory_budget_bytes > 0 ? options.memory_budget_bytes / 2
                                           : kNeverSpill;
  }
  if (options.spill_threshold_bytes == ApplyOptions::kSpillNever) {
    return kNeverSpill;
  }
  return options.spill_threshold_bytes;
}

using ReaderFactory = std::function<std::unique_ptr<CsvChunkReader>()>;

Result<ApplyStats> ApplyImpl(const Program& program,
                             const ReaderFactory& make_reader,
                             CsvChunkWriter* writer,
                             const ApplyOptions& options,
                             const TempDirProvider& temp_dir) {
  ApplyStats stats;
  CancellationToken local_token;
  CancellationToken* token =
      options.cancel != nullptr ? options.cancel : &local_token;
  if (options.memory_budget_bytes > 0) {
    token->SetMemoryBudget(options.memory_budget_bytes);
  }
  if (options.disk_budget_bytes > 0) {
    token->SetDiskBudget(options.disk_budget_bytes);
  }
  MemoryGauge gauge(token);
  SpillContext spill_ctx(token, &gauge, ResolveSpillThreshold(options),
                         options.memory_budget_bytes, temp_dir);

  const size_t prefix = StreamingPrefixLength(program);
  // profile + final, plus one measuring pass per width-dynamic prefix
  // operator (exactly the ops PropagateShape cannot resolve).
  int total_passes = 2;
  for (size_t i = 0; i < prefix; ++i) {
    OpCode code = program.operation(i).op;
    if (code == OpCode::kDelete || code == OpCode::kDeleteRow) ++total_passes;
  }

  int pass = 0;

  // ---- Profile pass: the input's Shape (row count, widest record).
  Shape input_shape;
  {
    ++pass;
    std::unique_ptr<CsvChunkReader> reader = make_reader();
    MeasureSink profile;
    PassIo io;
    Status driven = DrivePipeline(reader.get(), &profile, options, &gauge,
                                  pass, total_passes, {}, {}, &io);
    if (!driven.ok()) return driven;
    input_shape = profile.shape();
    stats.rows_in = io.rows;
    stats.bytes_in = io.bytes;
  }

  // ---- Plan: validate + resolve shapes, measuring where needed.
  MeasureFn measure =
      [&](const std::vector<StepPlan>& steps) -> Result<Shape> {
    ++pass;
    MeasureSink sink;
    RowSink* head = nullptr;
    Result<std::vector<std::unique_ptr<RowSink>>> chain =
        BuildChain(steps, steps.size(), &sink, &head);
    if (!chain.ok()) return chain.status();
    std::unique_ptr<CsvChunkReader> reader = make_reader();
    PassIo io;
    Status driven = DrivePipeline(reader.get(), head, options, &gauge, pass,
                                  total_passes, {}, {}, &io);
    if (!driven.ok()) return driven;
    return sink.shape();
  };
  Result<std::vector<StepPlan>> resolved =
      ResolveStreamingShapes(program, prefix, input_shape, measure);
  if (!resolved.ok()) return resolved.status();
  const std::vector<StepPlan>& steps = resolved.value();
  stats.streaming_steps = steps.size();
  stats.blocking_steps = program.size() - prefix;

  // ---- Final pass.
  ++pass;
  if (prefix == program.size()) {
    // Pure streaming: kernels feed the writer directly.
    CsvSink out_sink(writer);
    RowSink* head = nullptr;
    Result<std::vector<std::unique_ptr<RowSink>>> chain =
        BuildChain(steps, steps.size(), &out_sink, &head);
    if (!chain.ok()) return chain.status();
    std::unique_ptr<CsvChunkReader> reader = make_reader();
    PassIo io;
    Status driven = DrivePipeline(
        reader.get(), head, options, &gauge, pass, total_passes,
        [&] { return static_cast<uint64_t>(writer->buffered_bytes()); },
        [&] { return out_sink.rows(); }, &io);
    if (!driven.ok()) return driven;
    stats.rows_out = out_sink.rows();
  } else {
    // Blocking suffix: materialize the prefix output under the memory
    // budget — into a Table while it fits the spill threshold, onto an
    // on-disk run past it — then run the remaining operations over that
    // relation (exec/spill.h). Every step runs the operator's one
    // definition, the code Program::Execute runs, and writes into a
    // builder that spills in turn, so memory stays bounded in every
    // step, not just the materialization.
    SpillableRelationBuilder materialize(&spill_ctx);
    RowSink* head = nullptr;
    Result<std::vector<std::unique_ptr<RowSink>>> chain =
        BuildChain(steps, steps.size(), &materialize, &head);
    if (!chain.ok()) return chain.status();
    std::unique_ptr<CsvChunkReader> reader = make_reader();
    PassIo io;
    Status driven = DrivePipeline(
        reader.get(), head, options, &gauge, pass, total_passes,
        [&] { return materialize.bytes_buffered(); }, {}, &io);
    if (!driven.ok()) return driven;

    Result<Relation> taken = materialize.Take();
    if (!taken.ok()) return taken.status();
    uint64_t rows_out = 0;
    Status done = ExecuteBlockingSuffix(program, prefix,
                                        std::move(taken).value(), &spill_ctx,
                                        writer, &rows_out);
    if (!done.ok()) return done;
    stats.rows_out = rows_out;
  }

  Status closed = writer->Close();
  if (!closed.ok()) return closed;
  stats.bytes_out = writer->bytes_written();
  stats.passes = pass;
  stats.peak_tracked_bytes = gauge.high_water();
  stats.spill_runs = spill_ctx.stats().runs;
  stats.spill_bytes_written = spill_ctx.stats().bytes;
  stats.peak_disk_bytes = spill_ctx.disk().high_water();
  return stats;
}

}  // namespace

Result<ApplyStats> ApplyProgramToCsvFile(const Program& program,
                                         const std::string& input_path,
                                         const std::string& output_path,
                                         const ApplyOptions& options) {
  // The output stages in a per-run temp directory inside the output's
  // own directory: the commit rename never crosses a filesystem, and a
  // crash at any point leaves the previous output untouched plus a
  // flock-marked temp dir the next invocation reaps here.
  const std::string out_parent = DirNameOf(output_path);
  ReapOrphanedTempDirs(out_parent);
  if (!options.spill_dir.empty() && options.spill_dir != out_parent) {
    ReapOrphanedTempDirs(options.spill_dir);
  }
  Result<ScopedTempDir> staged = ScopedTempDir::CreateIn(out_parent);
  if (!staged.ok()) return staged.status();
  const std::string tmp_out = staged.value().path() + "/out.csv.tmp";

  // Spill runs share the staging directory unless redirected; the
  // override's directory is created lazily — a run that never spills
  // never touches it.
  std::optional<ScopedTempDir> spill_home;
  TempDirProvider temp_dir = [&]() -> Result<std::string> {
    if (options.spill_dir.empty()) return staged.value().path();
    if (!spill_home.has_value()) {
      Result<ScopedTempDir> made = ScopedTempDir::CreateIn(options.spill_dir);
      if (!made.ok()) return made.status();
      spill_home.emplace(std::move(made).value());
    }
    return spill_home->path();
  };

  CsvChunkWriter writer(tmp_out, options.csv);
  ReaderFactory make_reader = [&] {
    return std::make_unique<CsvChunkReader>(input_path, options.csv);
  };
  Result<ApplyStats> result =
      ApplyImpl(program, make_reader, &writer, options, temp_dir);
  if (!result.ok()) {
    // No partial output: the temp directories remove the staged file
    // and any leftover spill runs; output_path was never written.
    writer.Close();
    return result;
  }
  Status committed = CommitFileDurably(tmp_out, output_path);
  if (!committed.ok()) return committed;
  return result;
}

Result<ApplyStats> ApplyProgramToCsvText(const Program& program,
                                         std::string_view input,
                                         std::string* output,
                                         const ApplyOptions& options) {
  const size_t original_size = output->size();
  CsvChunkWriter writer(output, options.csv);
  ReaderFactory make_reader = [&] {
    return std::make_unique<CsvChunkReader>(input, options.csv);
  };
  // No output file to stage next to; spill runs (if any) go under the
  // override, else $TMPDIR, else /tmp — created only when needed.
  std::optional<ScopedTempDir> spill_home;
  TempDirProvider temp_dir = [&]() -> Result<std::string> {
    if (!spill_home.has_value()) {
      std::string parent = options.spill_dir;
      if (parent.empty()) {
        const char* env = std::getenv("TMPDIR");
        parent = (env != nullptr && env[0] != '\0') ? env : "/tmp";
      }
      ReapOrphanedTempDirs(parent);
      Result<ScopedTempDir> made = ScopedTempDir::CreateIn(parent);
      if (!made.ok()) return made.status();
      spill_home.emplace(std::move(made).value());
    }
    return spill_home->path();
  };
  Result<ApplyStats> result =
      ApplyImpl(program, make_reader, &writer, options, temp_dir);
  if (!result.ok()) {
    // Same contract as the file variant: no partial output on failure.
    writer.Close();
    output->resize(original_size);
  }
  return result;
}

}  // namespace exec
}  // namespace foofah
