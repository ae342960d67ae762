// foofah_perfbench: one workload run of the repository benchmark.
//
//   foofah_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--work-dir DIR] [--trace-dir DIR]
//
// Prints notes ("# ...") and then, as its last line, one JSON object:
// {"correct": bool, "attempted": n, "failed": n, "values": {name: value}}.
// perfbench/run.py builds this binary, runs it, and turns the values into
// the named metrics with the units BENCHMARK.json declares.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>

#include "common.h"
#include "util/tempfile.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr const char* kRunDirPrefix = "run-";

// The report of the named workload; nullopt for an unknown name.
std::optional<Report> RunWorkload(const Args& args) {
  if (args.workload == "synth_batch") return RunSynthBatch(args);
  if (args.workload == "serve_open") return RunServeOpen(args);
  if (args.workload == "apply_stream") return RunApply(args, false);
  if (args.workload == "apply_spill") return RunApply(args, true);
  return std::nullopt;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: foofah_perfbench --workload "
               "synth_batch|serve_open|apply_stream|apply_spill --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--trace-dir DIR]\n",
               message);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) {
      *error = std::string("missing value for ") + flag;
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      args->workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args->seed = std::strtoull(value, &end, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args->seconds = std::strtod(value, &end);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args->trace = std::strcmp(value, "1") == 0;
      if (!args->trace && std::strcmp(value, "0") != 0) {
        *error = "--trace takes 0 or 1";
        return false;
      }
    } else if (std::strcmp(flag, "--work-dir") == 0) {
      args->work_dir = value;
    } else if (std::strcmp(flag, "--trace-dir") == 0) {
      args->trace_dir = value;
    } else {
      *error = std::string("unknown flag ") + flag;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *error = std::string("bad number for ") + flag;
      return false;
    }
  }
  if (args->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  if (!(args->seconds > 0 && args->seconds <= 600)) {
    *error = "--seconds must be in (0, 600]";
    return false;
  }
  return true;
}

// JSON string escaping for the error messages in the result line.
std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += Format("\\u%04x", c);
      continue;
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) return Usage(error.c_str());

  // Each run works in a private temp directory under the work dir, removed
  // when the run ends; directories of killed runs are reaped first.
  // A directory that cannot be created shows when it is used.
  std::error_code ignored;
  std::filesystem::create_directories(args.work_dir, ignored);
  if (args.trace) std::filesystem::create_directories(args.trace_dir, ignored);
  foofah::ReapOrphanedTempDirs(args.work_dir, kRunDirPrefix);
  std::optional<Report> ran;
  {
    foofah::Result<foofah::ScopedTempDir> run_dir =
        foofah::ScopedTempDir::CreateIn(args.work_dir, kRunDirPrefix);
    if (!run_dir.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   run_dir.status().ToString().c_str());
      return 1;
    }
    Args in_run = args;
    in_run.work_dir = run_dir->path();
    ran = RunWorkload(in_run);
  }
  if (!ran) return Usage(("unknown workload " + args.workload).c_str());
  Report& report = *ran;
  for (auto& [name, value] : report.metrics) {
    if (!std::isfinite(value)) {
      report.Fail(name + " is not a finite number");
      value = 0;
    }
  }

  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const std::string& failure : report.errors) {
    std::printf("# CHECK FAILED: %s\n", failure.c_str());
  }
  std::string values;
  for (const auto& [name, value] : report.metrics) {
    if (!values.empty()) values += ", ";
    values += Format("\"%s\": %.17g", name.c_str(), value);
  }
  std::string errors;
  for (const std::string& failure : report.errors) {
    if (!errors.empty()) errors += ", ";
    errors += Quote(failure);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"values\": {%s}, \"errors\": [%s]}\n",
      report.correct() ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), values.c_str(),
      errors.c_str());
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
