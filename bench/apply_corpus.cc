// Throughput + bounded-memory benchmark for the streaming executor
// (src/exec/). Sweeps generated CSV inputs across a 16x size range,
// applies one representative program per operator class through
// ApplyProgramToCsvFile, and writes BENCH_apply.json with rows/sec,
// MB/sec, the executor's tracked memory peak, and process peak RSS per
// size — the O(chunk)-not-O(file) evidence scripts/check.sh stage 7
// gates on.
//
// Modes:
//   apply_corpus [--out PATH] [--sizes r1,r2,...] [--chunk-rows N]
//       full sweep, writes the JSON report (default BENCH_apply.json)
//   apply_corpus --gen ROWS PATH
//       just generate a ROWS-record CSV file at PATH (used by check.sh
//       to build the large input the CLI is then run on under a cap)
//   apply_corpus --memcheck
//       quick gate: run the streaming workload on a small and a 16x
//       input; exit 1 if the tracked-memory peak or the process RSS
//       scales with the input instead of the chunk size.
//   apply_corpus --spillcheck
//       graceful-degradation gate: run a Transpose-suffixed program
//       over an input whose materialization cannot fit an 8 MB memory
//       budget; the run must succeed by spilling to disk, stay under
//       the budget, and produce bytes identical to the unbudgeted
//       in-memory run.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "exec/runner.h"
#include "ops/operation.h"
#include "program/program.h"
#include "table/csv_stream.h"

namespace foofah::bench {
namespace {

using exec::ApplyOptions;
using exec::ApplyProgramToCsvFile;
using exec::ApplyStats;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Deterministic columnar data: an id column (all distinct), an enum-like
// column (13 values), a date column with a '-' structure (exercising
// Split), and a mixed digits/words column (exercising Divide/Delete).
// ~34 bytes per record.
Status GenerateCsv(const std::string& path, uint64_t rows) {
  CsvChunkWriter writer(path);
  std::string_view cells[4];
  std::string id, val, date;
  for (uint64_t i = 0; i < rows; ++i) {
    id = "id-";
    id += std::to_string(i);
    val.clear();
    if (i % 7 != 0) {
      val += 'v';
      val += std::to_string(i % 13);
    }
    date = "2024-0";
    date += std::to_string(1 + i % 9);
    date += "-1";
    date += std::to_string(i % 9);
    cells[0] = id;
    cells[1] = val;
    cells[2] = date;
    cells[3] = i % 3 == 0 ? "42" : "word";
    Status status = writer.WriteRow(cells, 4);
    if (!status.ok()) return status;
  }
  return writer.Close();
}

struct Workload {
  const char* name;
  Program program;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> w;
  w.push_back({"identity", Program()});
  w.push_back({"streaming",
               Program({Split(2, "-"), Merge(0, 1, " "), Drop(2), Fill(1)})});
  w.push_back({"windowed", Program({WrapEvery(3)})});
  w.push_back({"measuring", Program({DeleteRows(1)})});
  return w;
}

struct RunResult {
  double ms = 0;
  ApplyStats stats;
};

Result<RunResult> RunOne(const Program& program, const std::string& in_path,
                         const std::string& out_path, size_t chunk_rows,
                         ApplyOptions options = {}) {
  options.chunk_rows = chunk_rows;
  RunResult run;
  double start = NowMs();
  Result<ApplyStats> stats =
      ApplyProgramToCsvFile(program, in_path, out_path, options);
  run.ms = NowMs() - start;
  if (!stats.ok()) return stats.status();
  run.stats = *stats;
  return run;
}

std::string TempPath(const char* leaf) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr && *dir != '\0' ? dir : "/tmp") + "/" +
         leaf;
}

int RunSweep(const char* out_path, const std::vector<uint64_t>& sizes,
             size_t chunk_rows) {
  std::string in_path = TempPath("foofah_apply_bench_in.csv");
  std::string tmp_out = TempPath("foofah_apply_bench_out.csv");
  std::FILE* json = std::fopen(out_path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"apply_corpus\",\n");
  // The executor is single-threaded; the core count says which host the
  // numbers come from.
  std::fprintf(json, "  \"host_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(json, "  \"chunk_rows\": %zu,\n  \"sizes\": [\n", chunk_rows);

  // For the bounded-memory ratio: the streaming workload's tracked peak
  // at the smallest and largest size.
  uint64_t peak_small = 0, peak_big = 0;
  uint64_t bytes_small = 0, bytes_big = 0;

  for (size_t s = 0; s < sizes.size(); ++s) {
    uint64_t rows = sizes[s];
    Status generated = GenerateCsv(in_path, rows);
    if (!generated.ok()) {
      std::fprintf(stderr, "generate failed: %s\n",
                   generated.ToString().c_str());
      std::fclose(json);
      return 1;
    }
    std::fprintf(json, "    {\"rows\": %llu, \"workloads\": [\n",
                 static_cast<unsigned long long>(rows));
    const std::vector<Workload> workloads = Workloads();
    for (size_t w = 0; w < workloads.size(); ++w) {
      const Workload& workload = workloads[w];
      Result<RunResult> run =
          RunOne(workload.program, in_path, tmp_out, chunk_rows);
      if (!run.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", workload.name,
                     run.status().ToString().c_str());
        std::fclose(json);
        return 1;
      }
      const ApplyStats& st = run->stats;
      double secs = run->ms / 1000.0;
      double rows_per_sec = secs > 0 ? st.rows_in / secs : 0;
      double mb = static_cast<double>(st.bytes_in) / (1024.0 * 1024.0);
      double mb_per_sec = secs > 0 ? mb * st.passes / secs : 0;
      std::fprintf(json,
                   "      {\"name\": \"%s\", \"ms\": %.1f, \"rows_per_sec\": "
                   "%.0f, \"mb_per_sec\": %.1f, \"input_mb\": %.1f, "
                   "\"passes\": %d, \"rows_out\": %llu, "
                   "\"peak_tracked_bytes\": %llu}%s\n",
                   workload.name, run->ms, rows_per_sec, mb_per_sec, mb,
                   st.passes, static_cast<unsigned long long>(st.rows_out),
                   static_cast<unsigned long long>(st.peak_tracked_bytes),
                   w + 1 < workloads.size() ? "," : "");
      std::printf("rows=%-9llu %-10s %8.1f ms  %10.0f rows/s  %7.1f MB/s  "
                  "peak_tracked=%.2f MB\n",
                  static_cast<unsigned long long>(rows), workload.name,
                  run->ms, rows_per_sec, mb_per_sec,
                  static_cast<double>(st.peak_tracked_bytes) /
                      (1024.0 * 1024.0));
      if (std::strcmp(workload.name, "streaming") == 0) {
        if (s == 0) {
          peak_small = st.peak_tracked_bytes;
          bytes_small = st.bytes_in;
        }
        if (s + 1 == sizes.size()) {
          peak_big = st.peak_tracked_bytes;
          bytes_big = st.bytes_in;
        }
      }
    }
    // Monotone process-wide peak: with bounded memory this curve stays
    // flat as input sizes grow 16x (sizes run smallest to largest).
    std::fprintf(json, "    ], \"peak_rss_kb_after\": %zu}%s\n", PeakRssKb(),
                 s + 1 < sizes.size() ? "," : "");
  }

  double input_ratio =
      bytes_small > 0 ? static_cast<double>(bytes_big) / bytes_small : 0;
  double peak_ratio =
      peak_small > 0 ? static_cast<double>(peak_big) / peak_small : 0;
  std::fprintf(json,
               "  ],\n  \"memory\": {\"input_ratio\": %.1f, "
               "\"peak_tracked_ratio\": %.2f}\n}\n",
               input_ratio, peak_ratio);
  std::fclose(json);
  std::printf("memory: input grew %.1fx, tracked peak grew %.2fx -> %s\n",
              input_ratio, peak_ratio, out_path);
  std::remove(in_path.c_str());
  std::remove(tmp_out.c_str());
  return 0;
}

int RunMemcheck() {
  std::string in_path = TempPath("foofah_apply_memcheck.csv");
  std::string tmp_out = TempPath("foofah_apply_memcheck_out.csv");
  const Program program({Split(2, "-"), Merge(0, 1, " "), Drop(2), Fill(1)});
  const uint64_t small_rows = 100'000, big_rows = 1'600'000;

  Status generated = GenerateCsv(in_path, small_rows);
  if (!generated.ok()) return 1;
  Result<RunResult> small = RunOne(program, in_path, tmp_out, 4096);
  size_t rss_after_small = PeakRssKb();
  if (!small.ok()) return 1;

  generated = GenerateCsv(in_path, big_rows);
  if (!generated.ok()) return 1;
  Result<RunResult> big = RunOne(program, in_path, tmp_out, 4096);
  size_t rss_after_big = PeakRssKb();
  std::remove(in_path.c_str());
  std::remove(tmp_out.c_str());
  if (!big.ok()) return 1;

  double tracked_ratio =
      small->stats.peak_tracked_bytes > 0
          ? static_cast<double>(big->stats.peak_tracked_bytes) /
                static_cast<double>(small->stats.peak_tracked_bytes)
          : 0;
  double rss_ratio = rss_after_small > 0
                         ? static_cast<double>(rss_after_big) /
                               static_cast<double>(rss_after_small)
                         : 0;
  std::printf("memcheck: input 16x, tracked peak %.2fx (%.2f -> %.2f MB), "
              "process peak RSS %.2fx (%zu -> %zu KB)\n",
              tracked_ratio,
              static_cast<double>(small->stats.peak_tracked_bytes) / 1048576.0,
              static_cast<double>(big->stats.peak_tracked_bytes) / 1048576.0,
              rss_ratio, rss_after_small, rss_after_big);
  // A file-proportional executor would show ~16x here; a chunk-bounded
  // one shows ~1x. The thresholds leave room for allocator noise.
  if (tracked_ratio > 1.5 || rss_ratio > 1.5) {
    std::fprintf(stderr, "memcheck FAILED: memory scales with input size\n");
    return 1;
  }
  std::printf("memcheck ok: memory bounded by chunk, not file\n");
  return 0;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::Unavailable("cannot open " + path);
  }
  std::string bytes;
  char buffer[1 << 16];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    bytes.append(buffer, got);
  }
  std::fclose(file);
  return bytes;
}

int RunSpillcheck() {
  std::string in_path = TempPath("foofah_apply_spillcheck.csv");
  std::string ref_out = TempPath("foofah_apply_spillcheck_ref.csv");
  std::string spill_out = TempPath("foofah_apply_spillcheck_spill.csv");
  // ~13.6 MB of input; Drop strips the mixed column, Transpose makes the
  // suffix blocking so the whole table must materialize.
  const uint64_t rows = 400'000;
  const uint64_t budget = 8ull << 20;
  const Program program({Drop(3), Transpose()});

  Status generated = GenerateCsv(in_path, rows);
  if (!generated.ok()) {
    std::fprintf(stderr, "generate failed: %s\n", generated.ToString().c_str());
    return 1;
  }

  Result<RunResult> reference = RunOne(program, in_path, ref_out, 4096);
  if (!reference.ok()) {
    std::fprintf(stderr, "unbudgeted run failed: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }

  ApplyOptions budgeted;
  budgeted.memory_budget_bytes = budget;  // auto spill threshold = budget/2
  Result<RunResult> spilled = RunOne(program, in_path, spill_out, 4096, budgeted);
  std::remove(in_path.c_str());
  if (!spilled.ok()) {
    std::fprintf(stderr, "spillcheck FAILED: budgeted run did not degrade "
                 "gracefully: %s\n", spilled.status().ToString().c_str());
    return 1;
  }
  const ApplyStats& st = spilled->stats;
  std::printf("spillcheck: %.1f MB input under %.0f MB budget: %.1f ms, "
              "spill_runs=%llu spilled %.1f MB (peak on disk %.1f MB), "
              "peak_tracked %.2f MB\n",
              static_cast<double>(st.bytes_in) / 1048576.0,
              static_cast<double>(budget) / 1048576.0, spilled->ms,
              static_cast<unsigned long long>(st.spill_runs),
              static_cast<double>(st.spill_bytes_written) / 1048576.0,
              static_cast<double>(st.peak_disk_bytes) / 1048576.0,
              static_cast<double>(st.peak_tracked_bytes) / 1048576.0);
  int rc = 0;
  if (st.spill_runs == 0) {
    std::fprintf(stderr, "spillcheck FAILED: budgeted run never spilled\n");
    rc = 1;
  }
  if (st.peak_tracked_bytes > budget) {
    std::fprintf(stderr, "spillcheck FAILED: tracked peak %llu > budget\n",
                 static_cast<unsigned long long>(st.peak_tracked_bytes));
    rc = 1;
  }
  Result<std::string> ref_bytes = ReadFileBytes(ref_out);
  Result<std::string> spill_bytes = ReadFileBytes(spill_out);
  std::remove(ref_out.c_str());
  std::remove(spill_out.c_str());
  if (!ref_bytes.ok() || !spill_bytes.ok() || *ref_bytes != *spill_bytes) {
    std::fprintf(stderr,
                 "spillcheck FAILED: spilled output differs from in-memory\n");
    rc = 1;
  }
  if (rc == 0) {
    std::printf("spillcheck ok: spilled run byte-identical under budget\n");
  }
  return rc;
}

}  // namespace
}  // namespace foofah::bench

int main(int argc, char** argv) {
  const char* out_path = "BENCH_apply.json";
  std::vector<uint64_t> sizes = {250'000, 1'000'000, 4'000'000};
  size_t chunk_rows = 4096;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--chunk-rows") == 0 && i + 1 < argc) {
      chunk_rows = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--sizes") == 0 && i + 1 < argc) {
      sizes.clear();
      for (const char* p = argv[++i]; *p != '\0';) {
        sizes.push_back(std::strtoull(p, const_cast<char**>(&p), 10));
        if (*p == ',') ++p;
      }
    } else if (std::strcmp(argv[i], "--gen") == 0 && i + 2 < argc) {
      uint64_t rows = std::strtoull(argv[i + 1], nullptr, 10);
      foofah::Status status = foofah::bench::GenerateCsv(argv[i + 2], rows);
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
      return 0;
    } else if (std::strcmp(argv[i], "--memcheck") == 0) {
      return foofah::bench::RunMemcheck();
    } else if (std::strcmp(argv[i], "--spillcheck") == 0) {
      return foofah::bench::RunSpillcheck();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out PATH] [--sizes r1,r2,...] "
                   "[--chunk-rows N] | --gen ROWS PATH | --memcheck | "
                   "--spillcheck\n",
                   argv[0]);
      return 2;
    }
  }
  if (sizes.empty()) return 2;
  return foofah::bench::RunSweep(out_path, sizes, chunk_rows);
}
