// Spill-to-disk robustness suite: run-file roundtrip and corruption
// detection, temp-directory lifecycle (RAII cleanup, orphan reaping),
// graceful degradation under memory/disk budgets, crash-safe output
// commit, and the injected-I/O fault sweep — every ordinal of every
// executor fault point must produce a typed Status, no partial output,
// and no leftover temp or spill files.

#include "exec/spill.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <thread>
#include <vector>

#include "exec/runner.h"
#include "ops/operation.h"
#include "program/program.h"
#include "table/csv.h"
#include "table/table.h"
#include "util/cancellation.h"
#include "util/fault_injection.h"
#include "util/tempfile.h"

namespace foofah {
namespace exec {
namespace {

// Sorted listing of a directory's entries (no . / ..): the snapshot the
// fault sweep compares to prove nothing leaked.
std::set<std::string> ListDir(const std::string& path) {
  std::set<std::string> names;
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return names;
  while (struct dirent* entry = ::readdir(dir)) {
    std::string name = entry->d_name;
    if (name != "." && name != "..") names.insert(std::move(name));
  }
  ::closedir(dir);
  return names;
}

std::string MakeFreshDir(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  RemoveTree(path);
  ::mkdir(path.c_str(), 0700);
  return path;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return "";
  return std::string((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary);
  f << bytes;
}

// --- Run file: roundtrip and corruption detection -------------------------

TEST(SpillRunTest, RoundtripAcrossPagesPreservesRaggedRows) {
  std::string dir = MakeFreshDir("spill_roundtrip");
  std::string path = dir + "/run-0.spill";
  CancellationToken token;
  DiskGauge gauge(&token);
  std::vector<std::vector<std::string>> rows;
  for (int r = 0; r < 200; ++r) {
    std::vector<std::string> row;
    for (int c = 0; c < r % 5; ++c) {
      row.push_back("cell-" + std::to_string(r) + "-" + std::to_string(c) +
                    std::string(r % 17, 'x'));
    }
    rows.push_back(std::move(row));  // Width 0..4: ragged, some empty rows.
  }
  {
    // A 64-byte page forces many pages (records never straddle one).
    SpillRunWriter writer(path, &gauge, /*page_bytes=*/64);
    for (const auto& row : rows) {
      for (const auto& cell : row) ASSERT_TRUE(writer.AppendCell(cell).ok());
      ASSERT_TRUE(writer.EndRow().ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
    EXPECT_EQ(writer.rows(), rows.size());
    EXPECT_EQ(writer.max_width(), 4u);
    EXPECT_GT(gauge.high_water(), 0u);
  }
  SpillRunReader reader(path);
  const std::string_view* cells = nullptr;
  size_t num_cells = 0;
  for (const auto& expected : rows) {
    Result<bool> got = reader.NextRow(&cells, &num_cells);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got.value());
    ASSERT_EQ(num_cells, expected.size());
    for (size_t c = 0; c < expected.size(); ++c) {
      EXPECT_EQ(cells[c], expected[c]);
    }
  }
  Result<bool> end = reader.NextRow(&cells, &num_cells);
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end.value());
  RemoveTree(dir);
}

TEST(SpillRunTest, CorruptedPageFailsWithCrcMismatch) {
  std::string dir = MakeFreshDir("spill_crc");
  std::string path = dir + "/run-0.spill";
  CancellationToken token;
  DiskGauge gauge(&token);
  {
    SpillRunWriter writer(path, &gauge);
    std::string_view cell = "payload";
    ASSERT_TRUE(writer.AppendRow(&cell, 1).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  std::string bytes = ReadFileOrEmpty(path);
  ASSERT_GT(bytes.size(), 9u);
  bytes[9] ^= 0x40;  // Flip a payload bit; the header CRC no longer matches.
  WriteFile(path, bytes);

  SpillRunReader reader(path);
  const std::string_view* cells = nullptr;
  size_t num_cells = 0;
  Result<bool> got = reader.NextRow(&cells, &num_cells);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(got.status().message().find("CRC mismatch"), std::string::npos)
      << got.status().ToString();
  RemoveTree(dir);
}

TEST(SpillRunTest, TruncatedRunFailsTyped) {
  std::string dir = MakeFreshDir("spill_trunc");
  std::string path = dir + "/run-0.spill";
  CancellationToken token;
  DiskGauge gauge(&token);
  {
    SpillRunWriter writer(path, &gauge);
    std::string_view cell = "a-reasonably-long-payload-cell";
    ASSERT_TRUE(writer.AppendRow(&cell, 1).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  std::string bytes = ReadFileOrEmpty(path);
  WriteFile(path, bytes.substr(0, bytes.size() - 5));  // Torn page tail.

  SpillRunReader reader(path);
  const std::string_view* cells = nullptr;
  size_t num_cells = 0;
  Result<bool> got = reader.NextRow(&cells, &num_cells);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(got.status().message().find("truncated"), std::string::npos)
      << got.status().ToString();
  RemoveTree(dir);
}

TEST(SpillRunTest, DiskBudgetStopsTheWriteTyped) {
  std::string dir = MakeFreshDir("spill_disk_budget");
  CancellationToken token;
  token.SetDiskBudget(128);
  DiskGauge gauge(&token);
  SpillRunWriter writer(dir + "/run-0.spill", &gauge, /*page_bytes=*/64);
  Status status;
  for (int i = 0; i < 100 && status.ok(); ++i) {
    std::string_view cell = "0123456789abcdef";
    status = writer.AppendRow(&cell, 1);
  }
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("disk budget exhausted"), std::string::npos)
      << status.ToString();
  RemoveTree(dir);
}

// --- Temp directory lifecycle ---------------------------------------------

TEST(TempDirTest, ScopedTempDirRemovesItselfWithContents) {
  std::string parent = MakeFreshDir("tempdir_raii");
  std::string created;
  {
    Result<ScopedTempDir> dir = ScopedTempDir::CreateIn(parent);
    ASSERT_TRUE(dir.ok()) << dir.status().ToString();
    created = dir.value().path();
    WriteFile(created + "/run-0.spill", "leftover bytes");
    EXPECT_NE(ListDir(parent).size(), 0u);
  }
  EXPECT_EQ(ListDir(parent).size(), 0u) << "temp dir survived its scope";
  EXPECT_EQ(ListDir(created).size(), 0u);
  RemoveTree(parent);
}

TEST(TempDirTest, ReapRemovesStaleDirsAndKeepsLiveOnes) {
  std::string parent = MakeFreshDir("tempdir_reap");

  // A fabricated stale dir: right prefix, a leftover run file, and no
  // lock file at all — the signature of a crash before lock creation.
  std::string stale_unlocked = parent + "/" + kTempDirPrefix + "99999-0";
  ::mkdir(stale_unlocked.c_str(), 0700);
  WriteFile(stale_unlocked + "/run-3.spill", "orphaned");

  // A stale dir whose owner died after creating the lock: the file
  // exists but nobody holds the flock (kernel released it at death).
  std::string stale_locked = parent + "/" + kTempDirPrefix + "99999-1";
  ::mkdir(stale_locked.c_str(), 0700);
  WriteFile(stale_locked + "/.lock", "");
  WriteFile(stale_locked + "/out.csv.tmp", "partial output");

  // A live dir: this process holds the flock, so the reaper must skip it.
  Result<ScopedTempDir> live = ScopedTempDir::CreateIn(parent);
  ASSERT_TRUE(live.ok());

  // An unrelated dir: wrong prefix, never touched.
  std::string unrelated = parent + "/user-data";
  ::mkdir(unrelated.c_str(), 0700);

  size_t reaped = ReapOrphanedTempDirs(parent);
  EXPECT_EQ(reaped, 2u);
  std::set<std::string> names = ListDir(parent);
  EXPECT_EQ(names.count("user-data"), 1u);
  EXPECT_EQ(names.count(std::string(kTempDirPrefix) + "99999-0"), 0u);
  EXPECT_EQ(names.count(std::string(kTempDirPrefix) + "99999-1"), 0u);
  EXPECT_EQ(names.size(), 2u);  // live + unrelated.
  RemoveTree(parent);
}

TEST(TempDirTest, ConcurrentReaperNeverRemovesALiveDir) {
  // A reaper spinning beside CreateIn must never find a new directory
  // under the prefix before its lock is held: every created directory
  // survives, and its lock stays taken.
  std::string parent = MakeFreshDir("tempdir_race");
  std::atomic<bool> stop{false};
  std::thread reaper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ReapOrphanedTempDirs(parent);
    }
  });
  auto expect_live = [](const std::string& path) {
    const std::string lock_path = path + "/.lock";
    const int fd = ::open(lock_path.c_str(), O_RDWR | O_CLOEXEC);
    EXPECT_GE(fd, 0) << path << " lost its lock file";
    if (fd < 0) return;
    EXPECT_NE(::flock(fd, LOCK_EX | LOCK_NB), 0) << path << " is unlocked";
    ::close(fd);
  };
  int failures = 0;
  for (int round = 0; round < 40 && failures == 0; ++round) {
    std::vector<ScopedTempDir> live;
    for (int i = 0; i < 50; ++i) {
      Result<ScopedTempDir> dir = ScopedTempDir::CreateIn(parent);
      if (!dir.ok()) {
        ADD_FAILURE() << dir.status().ToString();
        ++failures;
        break;
      }
      live.push_back(std::move(dir).value());
    }
    for (const ScopedTempDir& dir : live) expect_live(dir.path());
    if (::testing::Test::HasFailure()) ++failures;
  }
  stop.store(true, std::memory_order_relaxed);
  reaper.join();
  RemoveTree(parent);
}

// --- Spill-backed execution through the public API ------------------------

std::string BulkCsv(int rows) {
  std::string csv;
  csv.reserve(static_cast<size_t>(rows) * 40);
  for (int i = 0; i < rows; ++i) {
    csv += "id-" + std::to_string(i);
    csv += i % 7 == 0 ? "," : ",v" + std::to_string(i % 13);
    csv += ",2024-0" + std::to_string(1 + i % 9) + "-1" + std::to_string(i % 9);
    csv += i % 3 == 0 ? ",42\n" : ",word\n";
  }
  return csv;
}

std::string Reference(const Program& program, std::string_view input) {
  Result<Table> parsed = ParseCsv(input);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  Result<Table> out = program.Execute(*parsed);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return ToCsv(*out);
}

TEST(SpillApplyTest, ThresholdZeroSpillsEverythingByteIdentically) {
  const std::string input = BulkCsv(2'000);
  const Program program({Drop(3), Transpose(), Fill(0)});
  ApplyOptions options;
  options.spill_threshold_bytes = 0;
  std::string output;
  Result<ApplyStats> stats =
      ApplyProgramToCsvText(program, input, &output, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(output, Reference(program, input));
  // Materialization spilled, and so did the Transpose -> Fill relation.
  EXPECT_GE(stats->spill_runs, 2u);
  EXPECT_GT(stats->spill_bytes_written, 0u);
  EXPECT_GT(stats->peak_disk_bytes, 0u);
  EXPECT_LE(stats->peak_disk_bytes, stats->spill_bytes_written);
}

TEST(SpillApplyTest, DefaultWithoutBudgetNeverSpills) {
  const std::string input = BulkCsv(500);
  ApplyOptions options;  // kSpillAuto + no memory budget -> never spill.
  std::string output;
  Result<ApplyStats> stats =
      ApplyProgramToCsvText(Program({Transpose()}), input, &output, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->spill_runs, 0u);
  EXPECT_EQ(stats->spill_bytes_written, 0u);
  EXPECT_EQ(stats->peak_disk_bytes, 0u);
}

TEST(SpillApplyTest, MemoryBudgetTooSmallForTableSucceedsBySpilling) {
  // ~4 MB of input through Transpose: materialized in RAM this needs
  // >4 MB, which kSpillNever proves by failing; the same budget succeeds
  // when spilling is allowed (auto threshold = budget/2), byte-identical
  // to the unbudgeted run — the graceful-degradation ladder in one test.
  const std::string input = BulkCsv(100'000);
  const Program program({Drop(3), Transpose()});
  const uint64_t budget = 2u << 20;

  ApplyOptions no_spill;
  no_spill.memory_budget_bytes = budget;
  no_spill.spill_threshold_bytes = ApplyOptions::kSpillNever;
  std::string output;
  Result<ApplyStats> failed =
      ApplyProgramToCsvText(program, input, &output, no_spill);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted)
      << failed.status().ToString();
  EXPECT_TRUE(output.empty());

  std::string unbudgeted;
  ASSERT_TRUE(
      ApplyProgramToCsvText(program, input, &unbudgeted, {}).ok());

  ApplyOptions spilling;
  spilling.memory_budget_bytes = budget;  // auto threshold = 1 MB.
  Result<ApplyStats> stats =
      ApplyProgramToCsvText(program, input, &output, spilling);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(output, unbudgeted);
  EXPECT_GE(stats->spill_runs, 1u);
  EXPECT_LE(stats->peak_tracked_bytes, budget);
}

TEST(SpillApplyTest, DiskBudgetExhaustionIsTypedAndLeavesNoFiles) {
  std::string spill_dir = MakeFreshDir("spill_budget_home");
  const std::string input = BulkCsv(5'000);
  ApplyOptions options;
  options.spill_threshold_bytes = 0;
  options.disk_budget_bytes = 1024;  // Far below one spilled run.
  options.spill_dir = spill_dir;
  std::string output;
  Result<ApplyStats> stats =
      ApplyProgramToCsvText(Program({Transpose()}), input, &output, options);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted)
      << stats.status().ToString();
  EXPECT_NE(stats.status().message().find("disk budget exhausted"),
            std::string::npos)
      << stats.status().ToString();
  EXPECT_TRUE(output.empty());
  EXPECT_EQ(ListDir(spill_dir).size(), 0u) << "spill files leaked";
  RemoveTree(spill_dir);
}

TEST(SpillApplyTest, SpillDirOverrideIsUsedAndCleaned) {
  std::string spill_dir = MakeFreshDir("spill_override_home");
  const std::string input = BulkCsv(1'000);
  const Program program({Transpose()});
  ApplyOptions options;
  options.spill_threshold_bytes = 0;
  options.spill_dir = spill_dir;
  std::string output;
  Result<ApplyStats> stats =
      ApplyProgramToCsvText(program, input, &output, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(output, Reference(program, input));
  EXPECT_GT(stats->spill_runs, 0u);
  EXPECT_EQ(ListDir(spill_dir).size(), 0u) << "spill temp dir not cleaned";
  RemoveTree(spill_dir);
}

// --- Crash-safe file output -----------------------------------------------

TEST(SpillApplyFileTest, CommitIsAtomicOverPreviousOutput) {
  std::string dir = MakeFreshDir("spill_commit");
  std::string in_path = dir + "/in.csv";
  std::string out_path = dir + "/out.csv";
  WriteFile(in_path, "a,b\nc,d\n");
  WriteFile(out_path, "previous result\n");

  // A failing run must leave the previous output byte-identical.
  Result<ApplyStats> failed = ApplyProgramToCsvFile(
      Program({Drop(7)}), in_path, out_path, {});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(ReadFileOrEmpty(out_path), "previous result\n");

  // A succeeding run replaces it completely.
  Result<ApplyStats> stats =
      ApplyProgramToCsvFile(Program({Drop(1)}), in_path, out_path, {});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(ReadFileOrEmpty(out_path), "a\nc\n");
  // Nothing but input and output remain: no temp dirs, no staged files.
  std::set<std::string> names = ListDir(dir);
  EXPECT_EQ(names, (std::set<std::string>{"in.csv", "out.csv"}));
  RemoveTree(dir);
}

TEST(SpillApplyFileTest, StaleTempDirsAreReapedOnNextInvocation) {
  std::string dir = MakeFreshDir("spill_reap_on_apply");
  std::string in_path = dir + "/in.csv";
  std::string out_path = dir + "/out.csv";
  WriteFile(in_path, "a,b\nc,d\n");
  // Fabricate a crashed run's leavings next to the output.
  std::string stale = dir + "/" + kTempDirPrefix + "4242-7";
  ::mkdir(stale.c_str(), 0700);
  WriteFile(stale + "/.lock", "");
  WriteFile(stale + "/out.csv.tmp", "torn half-written output");

  Result<ApplyStats> stats =
      ApplyProgramToCsvFile(Program(), in_path, out_path, {});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  std::set<std::string> names = ListDir(dir);
  EXPECT_EQ(names, (std::set<std::string>{"in.csv", "out.csv"}))
      << "stale temp dir survived the reap";
  RemoveTree(dir);
}

// --- Injected-I/O fault sweeps --------------------------------------------

#ifdef FOOFAH_FAULT_INJECTION
constexpr bool kFaultInjectionBuild = true;
#else
constexpr bool kFaultInjectionBuild = false;
#endif

// Sweeps one fault point across every hit ordinal of a spill-heavy
// file-based apply: each injected failure must surface as a typed
// Status, leave the output path absent, and leave the working directory
// exactly as it was (no temp dirs, no spill files, no partial output).
// `expected_message` is the substring the typed Status must carry —
// "injected I/O failure" for the spill/commit points, but the CSV
// writer's injected short write deliberately reuses the production
// disk-full path and so carries the production error text.
void SweepFaultPoint(const char* point,
                     const char* expected_message = "injected I/O failure") {
  SCOPED_TRACE(std::string("fault point ") + point);
  std::string dir = MakeFreshDir(std::string("spill_sweep_") +
                                 std::string(point).substr(
                                     std::string(point).find('/') + 1));
  std::string in_path = dir + "/in.csv";
  std::string out_path = dir + "/out.csv";
  WriteFile(in_path, BulkCsv(300));
  const Program program({Drop(3), Transpose(), Fill(0)});
  ApplyOptions options;
  options.spill_threshold_bytes = 0;

  FaultInjector& injector = FaultInjector::Instance();
  injector.Reset();
  // Clean run first: count the point's hits and pin the expected output.
  Result<ApplyStats> clean =
      ApplyProgramToCsvFile(program, in_path, out_path, options);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  const uint64_t hits = injector.HitCount(point);
  ASSERT_GT(hits, 0u) << "sweep would be vacuous: " << point << " never hit";
  const std::string expected_output = ReadFileOrEmpty(out_path);
  ASSERT_EQ(std::remove(out_path.c_str()), 0);
  const std::set<std::string> snapshot = ListDir(dir);

  for (uint64_t ordinal = 1; ordinal <= hits; ++ordinal) {
    SCOPED_TRACE("ordinal " + std::to_string(ordinal) + "/" +
                 std::to_string(hits));
    injector.Reset();
    injector.ArmFailure(point, ordinal);
    Result<ApplyStats> swept =
        ApplyProgramToCsvFile(program, in_path, out_path, options);
    ASSERT_FALSE(swept.ok()) << "injected failure was swallowed";
    EXPECT_EQ(swept.status().code(), StatusCode::kUnavailable)
        << swept.status().ToString();
    EXPECT_NE(swept.status().message().find(expected_message),
              std::string::npos)
        << swept.status().ToString();
    EXPECT_EQ(ListDir(dir), snapshot)
        << "files leaked after fault at ordinal " << ordinal;
  }

  // After the sweep, an unfaulted run still works and matches.
  injector.Reset();
  Result<ApplyStats> again =
      ApplyProgramToCsvFile(program, in_path, out_path, options);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(ReadFileOrEmpty(out_path), expected_output);
  injector.Reset();
  RemoveTree(dir);
}

TEST(SpillFaultSweepTest, SpillWriteFailsTypedAtEveryOrdinal) {
  if (!kFaultInjectionBuild) GTEST_SKIP() << "fault injection not compiled in";
  SweepFaultPoint(fault_points::kExecSpillWrite);
}

TEST(SpillFaultSweepTest, SpillReadFailsTypedAtEveryOrdinal) {
  if (!kFaultInjectionBuild) GTEST_SKIP() << "fault injection not compiled in";
  SweepFaultPoint(fault_points::kExecSpillRead);
}

TEST(SpillFaultSweepTest, OutputCommitFailsTypedAtEveryOrdinal) {
  if (!kFaultInjectionBuild) GTEST_SKIP() << "fault injection not compiled in";
  SweepFaultPoint(fault_points::kExecOutputCommit);
}

TEST(SpillFaultSweepTest, CsvStreamWriteFailsTypedAtEveryOrdinal) {
  if (!kFaultInjectionBuild) GTEST_SKIP() << "fault injection not compiled in";
  SweepFaultPoint(fault_points::kCsvStreamWrite, "write failed");
}

TEST(SpillFaultSweepTest, CleanupFaultLeavesOrphanThatTheNextRunReaps) {
  if (!kFaultInjectionBuild) GTEST_SKIP() << "fault injection not compiled in";
  std::string dir = MakeFreshDir("spill_cleanup_fault");
  std::string in_path = dir + "/in.csv";
  std::string out_path = dir + "/out.csv";
  WriteFile(in_path, "a,b\nc,d\n");

  FaultInjector& injector = FaultInjector::Instance();
  injector.Reset();
  injector.ArmFailureAlways(fault_points::kExecTempCleanup);
  // A cleanup failure simulates a crash after commit: the apply itself
  // must still succeed — the output was already durably renamed.
  Result<ApplyStats> stats =
      ApplyProgramToCsvFile(Program(), in_path, out_path, {});
  injector.Reset();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(ReadFileOrEmpty(out_path), "a,b\nc,d\n");
  std::set<std::string> names = ListDir(dir);
  ASSERT_EQ(names.size(), 3u) << "expected exactly one orphaned temp dir";

  // The next invocation in the same directory reaps the orphan.
  Result<ApplyStats> next =
      ApplyProgramToCsvFile(Program(), in_path, out_path, {});
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(ListDir(dir), (std::set<std::string>{"in.csv", "out.csv"}));
  RemoveTree(dir);
}

}  // namespace
}  // namespace exec
}  // namespace foofah
