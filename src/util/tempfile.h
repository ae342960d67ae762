#ifndef FOOFAH_UTIL_TEMPFILE_H_
#define FOOFAH_UTIL_TEMPFILE_H_

#include <cstddef>
#include <string>

#include "util/status.h"

namespace foofah {

/// Crash-safe per-run temp directories and atomic output commit, used
/// by the streaming executor's spill path (exec/spill.cc) and
/// foofah_apply's output protocol (exec/runner.cc).
///
/// Ownership protocol: every temp directory created here contains a
/// lock file held under an exclusive flock for the owner's lifetime.
/// A reaper that can acquire the lock (LOCK_EX | LOCK_NB) has proven
/// the owning process is gone — the kernel releases flocks on process
/// death, including SIGKILL — so removal is race-free against live
/// runs without trusting mtimes or pid liveness alone. A directory is
/// built and locked under a staging name (`.<prefix><pid>-<seq>`) that
/// no reaper of the prefix matches, and renamed to its final name only
/// then, so a reaper never sees a live directory before its lock is
/// held. A crash inside CreateIn itself can leave the staging
/// directory, holding at most its lock file, which no reaper removes.

/// Default name prefix for executor temp directories:
/// `<prefix><pid>-<seq>`. Exposed so tests can fabricate stale dirs.
inline constexpr const char* kTempDirPrefix = ".foofah-tmp-";

/// Best-effort recursive removal of `path` (files + subdirectories).
/// Returns OK when the tree is gone afterwards (including "never
/// existed"); errors are typed kUnavailable.
Status RemoveTree(const std::string& path);

/// A uniquely named temp directory under `parent`, removed (with all
/// contents) on destruction. Holds an exclusive flock on
/// `<dir>/.lock` for its lifetime; see the ownership protocol above.
class ScopedTempDir {
 public:
  /// Creates `<parent>/<prefix><pid>-<seq>/` plus its lock file, held
  /// before the directory appears under that name. The parent directory
  /// must exist, and `prefix` must hold a character other than '.', so
  /// that the staging name cannot start with it. Failures are typed
  /// kUnavailable.
  static Result<ScopedTempDir> CreateIn(const std::string& parent,
                                        const std::string& prefix =
                                            kTempDirPrefix);

  ScopedTempDir(ScopedTempDir&& other) noexcept;
  ScopedTempDir& operator=(ScopedTempDir&& other) noexcept;
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  /// Releases the lock and removes the directory tree (best effort —
  /// a failure here is the crash the orphan reaper exists for, and the
  /// exec/temp_cleanup fault point simulates it).
  ~ScopedTempDir();

  const std::string& path() const { return path_; }

 private:
  ScopedTempDir(std::string path, int lock_fd)
      : path_(std::move(path)), lock_fd_(lock_fd) {}

  std::string path_;
  int lock_fd_ = -1;
};

/// Removes every `<prefix>*` directory directly under `parent` whose
/// lock can be acquired — i.e. whose owning process is dead. Live runs
/// (lock held) are skipped. Returns the number of directories removed;
/// never fails (a missing or unreadable parent reaps nothing).
size_t ReapOrphanedTempDirs(const std::string& parent,
                            const std::string& prefix = kTempDirPrefix);

/// Durably publishes `tmp_path` at `final_path`: fsync the temp file,
/// atomically rename it onto the final path, then fsync the parent
/// directory (both paths must be on the same filesystem — the executor
/// guarantees this by placing its temp dir next to the output). Until
/// the rename, the final path is untouched; after it, the new content
/// is complete. Failures are typed kUnavailable, with the
/// exec/output_commit fault point hit before the fsync and before the
/// rename.
Status CommitFileDurably(const std::string& tmp_path,
                         const std::string& final_path);

/// The directory component of `path` ("." when there is none), the
/// spelling used to co-locate temp dirs with their output file.
std::string DirNameOf(const std::string& path);

}  // namespace foofah

#endif  // FOOFAH_UTIL_TEMPFILE_H_
