// foofah_apply: the deployment half of programming-by-example. The
// synthesizer learns a program from a 2-row example; this tool runs
// that program over the full dataset — files far larger than memory —
// through the streaming executor (src/exec/), with output guaranteed
// byte-identical to the in-memory Table executor.
//
//   foofah_apply PROGRAM.txt INPUT.csv OUTPUT.csv [options]
//       Options:
//         --chunk-rows N        records per pipeline chunk (default 4096)
//         --memory-budget N[KMG]  cap on tracked resident bytes; exceeding
//                               it fails with ResourceExhausted instead of
//                               scaling with the file (default: unlimited)
//         --spill-threshold N[KMG]  materialized bytes above which a
//                               blocking suffix spills to disk runs
//                               (default: memory budget / 2 when one is
//                               set, else never; 0 spills everything)
//         --no-spill            never spill; blocking suffixes that
//                               breach the budget fail typed instead
//         --disk-budget N[KMG]  cap on peak concurrent spill bytes;
//                               exceeding it fails ResourceExhausted
//         --spill-dir DIR       parent directory for spill/staging temp
//                               dirs (default: the output's directory)
//         --quiet               suppress the progress/summary lines
//         --stats               print the full ApplyStats breakdown
//
// The output file is written crash-safely: staged in a temp directory
// next to OUTPUT.csv and atomically renamed on success, so OUTPUT.csv
// never holds a torn result; stale temp dirs from crashed runs are
// reaped on the next invocation.
//
// In fault-injection builds (-DFOOFAH_FAULT_INJECTION=ON) the
// FOOFAH_FAULT_INJECT environment variable arms failure points for
// robustness drills: FOOFAH_FAULT_INJECT=exec/spill_write:1 fails the
// first spill page write. Setting it against a build without fault
// injection compiled in is an error, not a silent no-op.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>

#include "exec/runner.h"
#include "program/parser.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: foofah_apply PROGRAM.txt INPUT.csv OUTPUT.csv\n"
               "         [--chunk-rows N] [--memory-budget N[KMG]]\n"
               "         [--spill-threshold N[KMG]] [--no-spill]\n"
               "         [--disk-budget N[KMG]] [--spill-dir DIR]\n"
               "         [--quiet] [--stats]\n");
  return 2;
}

// Arms fault points from FOOFAH_FAULT_INJECT ("point:ordinal[,...]";
// ordinal 0 = every hit). Returns false on a malformed spec or when the
// variable is set but the binary lacks fault injection.
bool ArmFaultsFromEnv() {
  const char* spec = std::getenv("FOOFAH_FAULT_INJECT");
  if (spec == nullptr || spec[0] == '\0') return true;
#ifndef FOOFAH_FAULT_INJECTION
  std::fprintf(stderr,
               "foofah_apply: FOOFAH_FAULT_INJECT is set but this binary was "
               "built without FOOFAH_FAULT_INJECTION\n");
  return false;
#else
  std::string text = spec;
  size_t start = 0;
  while (start <= text.size()) {
    size_t comma = text.find(',', start);
    std::string entry = text.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    size_t colon = entry.rfind(':');
    if (entry.empty() || colon == std::string::npos || colon + 1 >= entry.size()) {
      std::fprintf(stderr,
                   "foofah_apply: bad FOOFAH_FAULT_INJECT entry '%s' "
                   "(want point:ordinal)\n",
                   entry.c_str());
      return false;
    }
    std::string point = entry.substr(0, colon);
    char* end = nullptr;
    long ordinal = std::strtol(entry.c_str() + colon + 1, &end, 10);
    if (*end != '\0' || ordinal < 0) {
      std::fprintf(stderr,
                   "foofah_apply: bad FOOFAH_FAULT_INJECT ordinal in '%s'\n",
                   entry.c_str());
      return false;
    }
    if (ordinal == 0) {
      foofah::FaultInjector::Instance().ArmFailureAlways(point);
    } else {
      foofah::FaultInjector::Instance().ArmFailure(
          point, static_cast<uint64_t>(ordinal));
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return true;
#endif  // FOOFAH_FAULT_INJECTION
}

// Parses "64M", "2G", "4096", "512K" into bytes; 0 on parse failure.
uint64_t ParseByteSize(const char* text) {
  char* end = nullptr;
  double value = std::strtod(text, &end);
  if (end == text || value < 0) return 0;
  uint64_t scale = 1;
  switch (*end) {
    case 'k': case 'K': scale = 1ull << 10; break;
    case 'm': case 'M': scale = 1ull << 20; break;
    case 'g': case 'G': scale = 1ull << 30; break;
    case '\0': break;
    default: return 0;
  }
  return static_cast<uint64_t>(value * static_cast<double>(scale));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string program_path = argv[1];
  const std::string input_path = argv[2];
  const std::string output_path = argv[3];

  foofah::exec::ApplyOptions options;
  bool quiet = false;
  bool print_stats = false;
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--chunk-rows") == 0 && i + 1 < argc) {
      long rows = std::strtol(argv[++i], nullptr, 10);
      if (rows <= 0) {
        std::fprintf(stderr, "foofah_apply: --chunk-rows must be positive\n");
        return 2;
      }
      options.chunk_rows = static_cast<size_t>(rows);
    } else if (std::strcmp(argv[i], "--memory-budget") == 0 && i + 1 < argc) {
      options.memory_budget_bytes = ParseByteSize(argv[++i]);
      if (options.memory_budget_bytes == 0) {
        std::fprintf(stderr,
                     "foofah_apply: bad --memory-budget (try 64M, 2G)\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--spill-threshold") == 0 && i + 1 < argc) {
      const char* arg = argv[++i];
      options.spill_threshold_bytes = ParseByteSize(arg);
      if (options.spill_threshold_bytes == 0 && std::strcmp(arg, "0") != 0) {
        std::fprintf(stderr,
                     "foofah_apply: bad --spill-threshold (try 0, 64M)\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--no-spill") == 0) {
      options.spill_threshold_bytes =
          foofah::exec::ApplyOptions::kSpillNever;
    } else if (std::strcmp(argv[i], "--disk-budget") == 0 && i + 1 < argc) {
      options.disk_budget_bytes = ParseByteSize(argv[++i]);
      if (options.disk_budget_bytes == 0) {
        std::fprintf(stderr, "foofah_apply: bad --disk-budget (try 1G)\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--spill-dir") == 0 && i + 1 < argc) {
      options.spill_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      print_stats = true;
    } else {
      return Usage();
    }
  }

  if (!ArmFaultsFromEnv()) return 2;

  std::ifstream program_file(program_path, std::ios::binary);
  if (!program_file) {
    std::fprintf(stderr, "foofah_apply: cannot open %s\n",
                 program_path.c_str());
    return 1;
  }
  std::ostringstream script;
  script << program_file.rdbuf();
  foofah::Result<foofah::Program> program =
      foofah::ParseProgram(script.str());
  if (!program.ok()) {
    std::fprintf(stderr, "foofah_apply: %s\n",
                 program.status().ToString().c_str());
    return 1;
  }

  if (!quiet) {
    options.progress = [](const foofah::exec::ApplyProgress& p) {
      std::fprintf(stderr,
                   "\rpass %d/%d: %" PRIu64 " rows in (%.1f MB), %" PRIu64
                   " rows out   ",
                   p.pass, p.total_passes, p.rows_in,
                   static_cast<double>(p.bytes_in) / (1u << 20), p.rows_out);
      std::fflush(stderr);
    };
  }

  auto start = std::chrono::steady_clock::now();
  foofah::Result<foofah::exec::ApplyStats> applied =
      foofah::exec::ApplyProgramToCsvFile(*program, input_path, output_path,
                                          options);
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  if (!quiet) std::fprintf(stderr, "\n");
  if (!applied.ok()) {
    std::fprintf(stderr, "foofah_apply: %s\n",
                 applied.status().ToString().c_str());
    return 1;
  }

  const foofah::exec::ApplyStats& stats = *applied;
  if (!quiet) {
    double mb = static_cast<double>(stats.bytes_in) / (1u << 20);
    std::fprintf(stderr,
                 "%" PRIu64 " rows -> %" PRIu64 " rows in %.2fs (%.0f rows/s, "
                 "%.1f MB/s), %d pass%s, peak tracked %.1f MB\n",
                 stats.rows_in, stats.rows_out, seconds,
                 seconds > 0 ? static_cast<double>(stats.rows_in) / seconds : 0,
                 seconds > 0 ? mb / seconds : 0, stats.passes,
                 stats.passes == 1 ? "" : "es",
                 static_cast<double>(stats.peak_tracked_bytes) / (1u << 20));
    if (stats.spill_runs > 0) {
      std::fprintf(stderr,
                   "spilled %.1f MB across %" PRIu64 " run%s (peak on disk "
                   "%.1f MB)\n",
                   static_cast<double>(stats.spill_bytes_written) / (1u << 20),
                   stats.spill_runs, stats.spill_runs == 1 ? "" : "s",
                   static_cast<double>(stats.peak_disk_bytes) / (1u << 20));
    }
  }
  if (print_stats) {
    std::printf("rows_in=%" PRIu64 " bytes_in=%" PRIu64 " rows_out=%" PRIu64
                " bytes_out=%" PRIu64 "\n",
                stats.rows_in, stats.bytes_in, stats.rows_out,
                stats.bytes_out);
    std::printf("passes=%d streaming_steps=%zu blocking_steps=%zu\n",
                stats.passes, stats.streaming_steps, stats.blocking_steps);
    std::printf("peak_tracked_bytes=%" PRIu64 "\n", stats.peak_tracked_bytes);
    std::printf("spill_runs=%" PRIu64 " spill_bytes_written=%" PRIu64
                " peak_disk_bytes=%" PRIu64 "\n",
                stats.spill_runs, stats.spill_bytes_written,
                stats.peak_disk_bytes);
  }
  return 0;
}
