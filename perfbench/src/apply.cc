// apply_stream and apply_spill: exec::ApplyProgramToCsvFile over a seeded
// CSV of fixed size, repeated until the run's time is used. Every output
// is committed and then compared, by digest, with the table executor's
// ToCsv(Program::Execute(ParseCsv(input))), computed once per seed in
// set-up.
//
// apply_stream runs a streaming-only program (Fill, Split, Merge, Drop and
// a width-dynamic Delete, so a measuring pass runs) over repetitive
// columnar data: read+parse, the kernels, the writer and the commit do the
// work. apply_spill runs a streaming step followed by a blocking
// Transpose + WrapAll suffix over mostly distinct cells, under a memory
// budget that makes every run spill: the spill writer and reader and the
// disk-run operators do most of the work.
//
// The traced run alternates each untraced apply with a re-drive of the
// same input through the executor's public pieces, one layer at a time.

#include <algorithm>
#include <memory>

#include "exec/kernels.h"
#include "exec/plan.h"
#include "exec/runner.h"
#include "exec/spill.h"
#include "ops/operation.h"
#include "program/program.h"
#include "table/csv.h"
#include "table/csv_stream.h"
#include "trace.h"
#include "util/cancellation.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/tempfile.h"
#include "workloads.h"

namespace perfbench {
namespace {

using foofah::Program;
using foofah::Status;
using foofah::exec::RowSink;
using foofah::exec::Shape;
using foofah::exec::StepPlan;

constexpr uint64_t kStreamRows = 150'000;
constexpr uint64_t kSpillRows = 60'000;
// Half of it is the spill threshold: the prefix output is several times
// larger, so every run spills.
constexpr uint64_t kSpillMemoryBudget = 8u << 20;
// limit_met_frac: files applied correctly within this latency.
constexpr double kLimitMs = 2000;
// Each set-up takes about 0.4 s. Over ten runs the median of 9 set-ups
// spread less than the median of 5 (apply_spill 0.12 against 0.24,
// apply_stream 0.23 against 0.28).
constexpr int kSetupRuns = 9;

struct Workload {
  const char* name;
  uint64_t rows;
  Program program;
  foofah::exec::ApplyOptions options;
};

Workload MakeWorkload(bool spill) {
  using namespace foofah;
  if (!spill) {
    return {"apply_stream", kStreamRows,
            Program({Fill(1), Split(2, "-"), Merge(0, 1, " "), Drop(0),
                     DeleteRows(2)}),
            {}};
  }
  exec::ApplyOptions options;
  options.memory_budget_bytes = kSpillMemoryBudget;
  return {"apply_spill", kSpillRows,
          Program({Split(3, "-"), Transpose(), WrapAll()}), options};
}

// Seeded input. apply_stream: a code from 400 values, a category with
// holes (Fill), a date (Split), a word or number, and a city with holes
// (Delete) -- columnar and repetitive, so the interner hits. apply_spill:
// mostly distinct cells.
Status GenerateInput(bool spill, uint64_t seed, uint64_t rows,
                     const std::string& path) {
  static const char* const kCategories[] = {"red", "green", "blue", "amber",
                                            "teal", "plum", "sand"};
  static const char* const kCities[] = {"Oslo",  "Lima", "Pune", "Kyiv",
                                        "Nara",  "Cork", "Tula", "Graz",
                                        "Bern",  "Perth"};
  static const char* const kWords[] = {"alpha", "beta", "gamma", "delta",
                                       "omega", "sigma"};
  foofah::Lcg rng(seed);
  foofah::CsvChunkWriter writer(path);
  std::string cells[5];
  std::string_view views[5];
  for (uint64_t r = 0; r < rows; ++r) {
    if (!spill) {
      cells[0] = Format("C%u", rng.Next(400));
      cells[1] = rng.Chance(15) ? "" : kCategories[rng.Next(7)];
      cells[2] = Format("20%02u-%02u-%02u", 10 + rng.Next(15),
                        1 + rng.Next(12), 1 + rng.Next(28));
      cells[3] = rng.Chance(40) ? std::to_string(rng.Next(100))
                                : kWords[rng.Next(6)];
      cells[4] = rng.Chance(10) ? "" : kCities[rng.Next(10)];
    } else {
      cells[0] = Format("r%llu", static_cast<unsigned long long>(r));
      cells[1] = Format("k%08x", rng.Next(1u << 31));
      cells[2] = std::to_string(rng.Next(1000000));
      cells[3] = Format("%05u-%05u", rng.Next(100000), rng.Next(100000));
      cells[4] = Format("v%06x", rng.Next(1u << 24));
    }
    for (int c = 0; c < 5; ++c) views[c] = cells[c];
    Status status = writer.WriteRow(views, 5);
    if (!status.ok()) return status;
  }
  return writer.Close();
}

// Digest of the table executor's output on the same input.
foofah::Result<uint64_t> ReferenceDigest(const Program& program,
                                         const std::string& path) {
  foofah::Result<foofah::Table> input = foofah::ReadCsvFile(path);
  if (!input.ok()) return input.status();
  foofah::Result<foofah::Table> output = program.Execute(*input);
  if (!output.ok()) return output.status();
  return foofah::Fnv1aHash(foofah::ToCsv(*output));
}

class DiscardSink : public RowSink {
 public:
  Status Push(const std::string_view*, size_t) override { return Status(); }
  Status Finish() override { return Status(); }
};

class WriteSink : public RowSink {
 public:
  explicit WriteSink(foofah::CsvChunkWriter* writer) : writer_(writer) {}
  Status Push(const std::string_view* cells, size_t n) override {
    return writer_->WriteRow(cells, n);
  }
  Status Finish() override { return Status(); }

 private:
  foofah::CsvChunkWriter* writer_;
};

// One pass over the input file into `head` (nullptr: parse only), the
// loop every executor pass shares. Like the executor, only the final pass
// interns cells. Returns the input shape.
foofah::Result<Shape> Drive(const std::string& path, size_t chunk_rows,
                            bool intern, RowSink* head) {
  foofah::CsvChunkReader reader(path, foofah::CsvOptions{}, intern);
  foofah::CsvChunk chunk;
  Shape shape;
  for (;;) {
    foofah::Result<bool> got = reader.ReadChunk(chunk_rows, &chunk);
    if (!got.ok()) return got.status();
    if (!got.value()) break;
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      const foofah::CsvRowView row = chunk.row(r);
      ++shape.rows;
      shape.cols = std::max<uint64_t>(shape.cols, row.num_cells);
      if (head == nullptr) continue;
      Status pushed = head->Push(row.cells, row.num_cells);
      if (!pushed.ok()) return pushed;
    }
  }
  if (head != nullptr) {
    Status finished = head->Finish();
    if (!finished.ok()) return finished;
  }
  return shape;
}

// The kernels of `steps`, back to front, ending at `terminal`.
foofah::Result<std::vector<std::unique_ptr<RowSink>>> BuildChain(
    const std::vector<StepPlan>& steps, RowSink* terminal, RowSink** head) {
  std::vector<std::unique_ptr<RowSink>> owned;
  RowSink* next = terminal;
  for (size_t i = steps.size(); i-- > 0;) {
    foofah::Result<std::unique_ptr<RowSink>> made =
        foofah::exec::MakeKernel(steps[i].op, steps[i].in, next);
    if (!made.ok()) return made.status();
    next = made.value().get();
    owned.push_back(std::move(made).value());
  }
  *head = next;
  return owned;
}

// Per-file layer times of one re-drive, in ms.
struct Layers {
  double profile = 0;  ///< Read+parse without interning.
  double read_parse = 0;
  double measure_pass = 0;
  double kernels = 0;
  double write = 0;
  double spill_write = 0;
  double suffix = 0;
  double commit = 0;

  // The passes the executor itself makes: the profile pass, the measuring
  // pass, and the final pass.
  double sum() const {
    return profile + measure_pass + read_parse + kernels + write +
           spill_write + suffix + commit;
  }
};

// Re-drives the input through the executor's public pieces one layer at a
// time; each layer's time is its pass minus the passes it builds on.
// Writes the result to `output_path` and returns the layer times.
foofah::Result<Layers> ReDrive(const Workload& w, const std::string& input,
                               const std::string& work_dir,
                               const std::string& output_path,
                               SpanRecorder* spans, uint64_t file) {
  Layers layers;
  const size_t chunk_rows = w.options.chunk_rows;
  const uint64_t root = spans->Add("apply.file", 0, file, Clock::now(),
                                   Clock::now());
  auto timed = [&](const char* name, auto&& fn) {
    const Clock::time_point start = Clock::now();
    auto result = fn();
    spans->Add(name, root, file, start, Clock::now());
    return std::make_pair(MsBetween(start, Clock::now()), std::move(result));
  };

  // The profile pass, then read+parse alone as the final pass does it.
  auto [profile_ms, shape] = timed("exec.profile_pass", [&] {
    return Drive(input, chunk_rows, /*intern=*/false, nullptr);
  });
  if (!shape.ok()) return shape.status();
  layers.profile = profile_ms;
  auto [read_ms, read] = timed("table.read_parse", [&] {
    return Drive(input, chunk_rows, /*intern=*/true, nullptr);
  });
  if (!read.ok()) return read.status();
  layers.read_parse = read_ms;

  // Plan, with the measuring pass of each width-dynamic step.
  const size_t prefix = foofah::exec::StreamingPrefixLength(w.program);
  foofah::exec::MeasureFn measure =
      [&](const std::vector<StepPlan>& steps) -> foofah::Result<Shape> {
    foofah::exec::MeasureSink sink;
    RowSink* head = nullptr;
    auto chain = BuildChain(steps, &sink, &head);
    if (!chain.ok()) return chain.status();
    auto [ms, driven] = timed("exec.measure_pass", [&] {
      return Drive(input, chunk_rows, /*intern=*/false, head);
    });
    layers.measure_pass += ms;
    if (!driven.ok()) return driven.status();
    return sink.shape();
  };
  foofah::Result<std::vector<StepPlan>> steps =
      foofah::exec::ResolveStreamingShapes(w.program, prefix, *shape,
                                           measure);
  if (!steps.ok()) return steps.status();

  // Kernels into a discarding sink.
  DiscardSink discard;
  RowSink* head = nullptr;
  auto chain = BuildChain(*steps, &discard, &head);
  if (!chain.ok()) return chain.status();
  auto [kernel_ms, kernels] = timed("exec.kernels", [&] {
    return Drive(input, chunk_rows, /*intern=*/true, head);
  });
  if (!kernels.ok()) return kernels.status();
  layers.kernels = kernel_ms - layers.read_parse;

  const std::string tmp_path = work_dir + "/layered.csv.tmp";
  foofah::CsvChunkWriter writer(tmp_path);
  if (prefix == w.program.size()) {
    WriteSink write(&writer);
    auto write_chain = BuildChain(*steps, &write, &head);
    if (!write_chain.ok()) return write_chain.status();
    auto [write_ms, written] = timed("table.write", [&] {
      foofah::Result<Shape> driven =
          Drive(input, chunk_rows, /*intern=*/true, head);
      Status closed = writer.Close();
      return driven.ok() && !closed.ok() ? foofah::Result<Shape>(closed)
                                         : driven;
    });
    if (!written.ok()) return written.status();
    layers.write = write_ms - kernel_ms;
  } else {
    foofah::CancellationToken token;
    if (w.options.memory_budget_bytes > 0) {
      token.SetMemoryBudget(w.options.memory_budget_bytes);
    }
    foofah::exec::MemoryGauge gauge(&token);
    foofah::Result<foofah::ScopedTempDir> spill_dir =
        foofah::ScopedTempDir::CreateIn(work_dir);
    if (!spill_dir.ok()) return spill_dir.status();
    foofah::exec::SpillContext ctx(
        &token, &gauge, w.options.memory_budget_bytes / 2,
        w.options.memory_budget_bytes,
        [&]() -> foofah::Result<std::string> { return spill_dir->path(); });
    foofah::exec::SpillableRelationBuilder builder(&ctx);
    auto spill_chain = BuildChain(*steps, &builder, &head);
    if (!spill_chain.ok()) return spill_chain.status();
    auto [spill_ms, relation] = timed("exec.spill_write", [&] {
      foofah::Result<Shape> driven =
          Drive(input, chunk_rows, /*intern=*/true, head);
      return driven.ok() ? builder.Take()
                         : foofah::Result<foofah::exec::Relation>(
                               driven.status());
    });
    if (!relation.ok()) return relation.status();
    layers.spill_write = spill_ms - kernel_ms;
    uint64_t rows_out = 0;
    auto [suffix_ms, done] = timed("exec.suffix", [&] {
      Status status = foofah::exec::ExecuteBlockingSuffix(
          w.program, prefix, std::move(relation).value(), &ctx, &writer,
          &rows_out);
      Status closed = writer.Close();
      return status.ok() ? closed : status;
    });
    if (!done.ok()) return done;
    layers.suffix = suffix_ms;
  }

  auto [commit_ms, committed] = timed("exec.commit", [&] {
    return foofah::CommitFileDurably(tmp_path, output_path);
  });
  if (!committed.ok()) return committed;
  layers.commit = commit_ms;
  spans->SetEnd(root, Clock::now());
  return layers;
}

}  // namespace

Report RunApply(const Args& args, bool spill) {
  Report report;
  const Workload w = MakeWorkload(spill);
  const std::string input = args.work_dir + "/input.csv";
  const std::string output = args.work_dir + "/output.csv";
  // Digest of the warm-up output: every measured output must equal it,
  // and after the loop it must equal the table executor's. Computing the
  // reference last keeps the table executor out of peak_rss_mb.
  uint64_t expected = 0;

  const double setup_s = MedianSetupSeconds(kSetupRuns, [&] {
    Status generated = GenerateInput(spill, args.seed, w.rows, input);
    if (!generated.ok()) report.Fail("input: " + generated.ToString());
    foofah::Result<foofah::exec::ApplyStats> warmup =
        foofah::exec::ApplyProgramToCsvFile(w.program, input, output,
                                            w.options);
    if (!warmup.ok() || !DigestFile(output, &expected)) {
      report.Fail("warm-up apply failed");
    }
  });
  if (!report.correct()) return report;

  std::vector<double> file_ms, cpu_ms;
  std::vector<Layers> layer_runs;
  foofah::exec::ApplyStats stats;
  size_t correct_files = 0, within_limit = 0;
  SpanRecorder spans;
  const HostTicks ticks_before = ReadHostTicks();
  const Clock::time_point loop_start = Clock::now();
  double longest_s = 0;
  for (uint64_t file = 0;; ++file) {
    const double elapsed_s = MsBetween(loop_start, Clock::now()) / 1000.0;
    const uint64_t min_files = args.trace ? 2 : 1;
    if (file >= min_files && elapsed_s + longest_s > args.seconds) break;
    const Clock::time_point iteration_start = Clock::now();

    ++report.attempted;
    const double cpu_before = ProcessCpuMs();
    const Clock::time_point start = Clock::now();
    foofah::Result<foofah::exec::ApplyStats> applied =
        foofah::exec::ApplyProgramToCsvFile(w.program, input, output,
                                            w.options);
    const double ms = MsBetween(start, Clock::now());
    cpu_ms.push_back(ProcessCpuMs() - cpu_before);
    file_ms.push_back(ms);
    uint64_t digest = 0;
    if (!applied.ok()) {
      ++report.failed;
      report.Fail("apply: " + applied.status().ToString());
      break;
    }
    stats = *applied;
    if (spill && stats.spill_runs == 0) {
      ++report.failed;
      report.Fail("the budgeted run did not spill");
      break;
    }
    if (!DigestFile(output, &digest) || digest != expected) {
      ++report.failed;
      report.Fail("output differs from the warm-up run's");
      break;
    }
    ++correct_files;
    within_limit += ms <= kLimitMs;

    if (args.trace) {
      foofah::Result<Layers> layers =
          ReDrive(w, input, args.work_dir, output, &spans, file);
      if (!layers.ok()) {
        report.Fail("layered re-drive: " + layers.status().ToString());
        break;
      }
      if (!DigestFile(output, &digest) || digest != expected) {
        report.Fail("layered re-drive output differs");
        break;
      }
      layer_runs.push_back(*layers);
    }
    longest_s = std::max(longest_s,
                         MsBetween(iteration_start, Clock::now()) / 1000.0);
  }
  const double steal = StealFraction(ticks_before, ReadHostTicks());
  const double peak_rss_mb = PeakRssMb();
  if (!report.correct()) return report;

  foofah::Result<uint64_t> reference = ReferenceDigest(w.program, input);
  if (!reference.ok() || *reference != expected) {
    report.Fail("output differs from the table executor's");
    correct_files = within_limit = 0;
  }
  if (spill) {
    // The spilled output must also equal the unbudgeted in-memory run.
    foofah::exec::ApplyOptions in_memory;
    in_memory.spill_threshold_bytes = foofah::exec::ApplyOptions::kSpillNever;
    foofah::Result<foofah::exec::ApplyStats> applied =
        foofah::exec::ApplyProgramToCsvFile(w.program, input, output,
                                            in_memory);
    uint64_t digest = 0;
    if (!applied.ok() || applied->spill_runs != 0 ||
        !DigestFile(output, &digest) || digest != expected) {
      report.Fail("the spilled output differs from the in-memory run's");
      correct_files = within_limit = 0;
    }
  }

  const Tail tail = TailLatency(file_ms);
  const double p50 = Median(file_ms);
  const double mean_ms = Mean(file_ms);
  report.notes.push_back(Format(
      "%s rows=%llu bytes=%llu passes=%d files=%zu tail=p%g of %zu samples "
      "(%zu beyond) limit=%gms",
      w.name, static_cast<unsigned long long>(stats.rows_in),
      static_cast<unsigned long long>(stats.bytes_in), stats.passes,
      file_ms.size(), tail.percent, tail.samples, tail.beyond, kLimitMs));

  const double n = static_cast<double>(file_ms.size());
  if (!args.trace) {
    report.metrics["setup_s"] = setup_s;
    report.metrics["latency_p50_ms"] = p50;
    report.metrics["latency_tail_ms"] = tail.value;
    report.metrics["tasks_per_s"] = 1000.0 / mean_ms;
    report.metrics["rows_per_s"] = stats.rows_in / mean_ms * 1000.0;
    report.metrics["solved_frac"] = correct_files / n;
    report.metrics["limit_met_frac"] = within_limit / n;
    report.metrics["cpu_ms_per_task"] = Mean(cpu_ms);
    report.metrics["peak_rss_mb"] = peak_rss_mb;
    return report;
  }

  auto median_of = [&](double Layers::*field) {
    std::vector<double> values;
    for (const Layers& l : layer_runs) values.push_back(l.*field);
    return Median(values);
  };
  std::vector<double> sums;
  for (const Layers& l : layer_runs) sums.push_back(l.sum());
  const double read_ms = median_of(&Layers::read_parse);
  constexpr double kMiB = 1024.0 * 1024.0;
  report.metrics["table.read_parse_ms"] = read_ms;
  report.metrics["table.read_mb_per_s"] =
      stats.bytes_in / kMiB / read_ms * 1000.0;
  report.metrics["exec.kernels_ms"] = median_of(&Layers::kernels);
  report.metrics["exec.measure_pass_ms"] = median_of(&Layers::measure_pass);
  report.metrics["exec.passes"] = stats.passes;
  report.metrics["table.write_ms"] = median_of(&Layers::write);
  report.metrics["exec.commit_ms"] = median_of(&Layers::commit);
  report.metrics["exec.interner_hit_frac"] =
      stats.interner.lookups == 0
          ? 0
          : static_cast<double>(stats.interner.hits) / stats.interner.lookups;
  report.metrics["exec.spill_write_ms"] = median_of(&Layers::spill_write);
  report.metrics["exec.spill_mb"] = stats.spill_bytes_written / kMiB;
  report.metrics["exec.spill_runs"] = stats.spill_runs;
  report.metrics["exec.suffix_ms"] = median_of(&Layers::suffix);
  report.metrics["exec.peak_disk_mb"] = stats.peak_disk_bytes / kMiB;
  report.metrics["exec.peak_tracked_mb"] = stats.peak_tracked_bytes / kMiB;
  report.Bypass(kSearchLayerMetrics);
  report.Bypass(kServiceLayerMetrics);
  report.metrics["host.steal_frac"] = steal;
  // The layer-by-layer re-drive against the untraced apply of the same
  // input.
  report.metrics["trace.overhead_frac"] = Median(sums) / p50 - 1.0;
  if (!spans.Write(args.trace_dir + "/" + w.name + "-seed" +
                   std::to_string(args.seed) + ".jsonl")) {
    report.Fail("cannot write the span file");
  }
  return report;
}

}  // namespace perfbench
