#include "util/tempfile.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "util/fault_injection.h"

namespace foofah {

namespace {

constexpr const char* kLockFileName = ".lock";

// Monotonic per-process counter so concurrent runs in one process get
// distinct directories without consulting the clock.
std::atomic<uint64_t> g_temp_dir_seq{0};

Status RemoveTreeImpl(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) {
    if (errno == ENOENT) return Status::OK();
    // Not a directory: remove as a file.
    if (errno == ENOTDIR) {
      if (::unlink(path.c_str()) == 0 || errno == ENOENT) return Status::OK();
    }
    return Status::Unavailable("cannot remove: " + path + ": " +
                               std::strerror(errno));
  }
  Status status;
  while (struct dirent* entry = ::readdir(dir)) {
    std::string_view name = entry->d_name;
    if (name == "." || name == "..") continue;
    std::string child = path + "/" + std::string(name);
    struct stat st;
    if (::lstat(child.c_str(), &st) != 0) continue;
    Status removed = S_ISDIR(st.st_mode)
                         ? RemoveTreeImpl(child)
                         : (::unlink(child.c_str()) == 0 || errno == ENOENT
                                ? Status::OK()
                                : Status::Unavailable("cannot remove: " +
                                                      child + ": " +
                                                      std::strerror(errno)));
    if (!removed.ok() && status.ok()) status = removed;
  }
  ::closedir(dir);
  if (!status.ok()) return status;
  if (::rmdir(path.c_str()) != 0 && errno != ENOENT) {
    return Status::Unavailable("cannot remove: " + path + ": " +
                               std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

Status RemoveTree(const std::string& path) { return RemoveTreeImpl(path); }

Result<ScopedTempDir> ScopedTempDir::CreateIn(const std::string& parent,
                                              const std::string& prefix) {
  // A reaper removes any `<prefix>*` directory whose lock it can take, so
  // the directory is built and locked under a staging name no such reaper
  // matches (one more leading '.'), then renamed into place: it never
  // appears under the prefix without its lock held.
  const std::string dir = parent.empty() ? std::string(".") : parent;
  const std::string stem =
      prefix + std::to_string(static_cast<long long>(::getpid())) + "-";
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::string name =
        stem + std::to_string(g_temp_dir_seq.fetch_add(
                   1, std::memory_order_relaxed));
    std::string path = dir + "/" + name;
    const std::string staging = dir + "/." + name;
    if (::mkdir(staging.c_str(), 0700) != 0) {
      if (errno == EEXIST) continue;  // left by a crash inside CreateIn
      return Status::Unavailable("cannot create temp dir: " + staging + ": " +
                                 std::strerror(errno));
    }
    std::string lock_path = staging + "/" + kLockFileName;
    int fd = ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0600);
    if (fd < 0) {
      Status failed = Status::Unavailable("cannot create temp dir lock: " +
                                          lock_path + ": " +
                                          std::strerror(errno));
      ::rmdir(staging.c_str());
      return failed;
    }
    // Freshly created directory: the exclusive lock cannot be contended.
    ::flock(fd, LOCK_EX | LOCK_NB);
    // rename() replaces an empty directory, which cannot be a live one (a
    // live one holds its lock file), and fails on a non-empty one.
    if (std::rename(staging.c_str(), path.c_str()) != 0) {
      const int error = errno;
      ::close(fd);
      RemoveTreeImpl(staging);
      // Taken: a stale dir from a previous crash.
      if (error == EEXIST || error == ENOTEMPTY || error == ENOTDIR) continue;
      return Status::Unavailable("cannot create temp dir: " + path + ": " +
                                 std::strerror(error));
    }
    return ScopedTempDir(std::move(path), fd);
  }
  return Status::Unavailable("cannot create temp dir under " + parent +
                             ": too many collisions");
}

ScopedTempDir::ScopedTempDir(ScopedTempDir&& other) noexcept
    : path_(std::move(other.path_)), lock_fd_(other.lock_fd_) {
  other.path_.clear();
  other.lock_fd_ = -1;
}

ScopedTempDir& ScopedTempDir::operator=(ScopedTempDir&& other) noexcept {
  if (this != &other) {
    this->~ScopedTempDir();
    path_ = std::move(other.path_);
    lock_fd_ = other.lock_fd_;
    other.path_.clear();
    other.lock_fd_ = -1;
  }
  return *this;
}

ScopedTempDir::~ScopedTempDir() {
  if (lock_fd_ < 0 && path_.empty()) return;
  if (lock_fd_ >= 0) {
    ::close(lock_fd_);  // releases the flock
    lock_fd_ = -1;
  }
  if (path_.empty()) return;
  // Simulated crash-before-cleanup: leave the orphan for the reaper.
  if (FOOFAH_FAULT_FAIL(fault_points::kExecTempCleanup)) return;
  RemoveTreeImpl(path_);
  path_.clear();
}

size_t ReapOrphanedTempDirs(const std::string& parent,
                            const std::string& prefix) {
  DIR* dir = ::opendir(parent.empty() ? "." : parent.c_str());
  if (dir == nullptr) return 0;
  std::vector<std::string> candidates;
  while (struct dirent* entry = ::readdir(dir)) {
    std::string_view name = entry->d_name;
    if (name.size() <= prefix.size() ||
        name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    candidates.push_back((parent.empty() ? std::string(".") : parent) + "/" +
                         std::string(name));
  }
  ::closedir(dir);

  size_t removed = 0;
  for (const std::string& path : candidates) {
    struct stat st;
    if (::lstat(path.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) continue;
    std::string lock_path = path + "/" + kLockFileName;
    int fd = ::open(lock_path.c_str(), O_RDWR | O_CLOEXEC);
    if (fd >= 0) {
      if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
        ::close(fd);  // lock held: the owner is alive, skip
        continue;
      }
      ::close(fd);  // lock acquired: the owner is dead
    } else if (errno != ENOENT) {
      continue;
    }
    // No lock file at all means the directory was made by hand or by a
    // crashed run of an older protocol: CreateIn renames a directory into
    // the prefix only with its lock held. Also an orphan.
    if (RemoveTreeImpl(path).ok()) ++removed;
  }
  return removed;
}

Status CommitFileDurably(const std::string& tmp_path,
                         const std::string& final_path) {
  if (FOOFAH_FAULT_FAIL(fault_points::kExecOutputCommit)) {
    return Status::Unavailable("output commit failed: fsync: " + tmp_path +
                               ": injected I/O failure");
  }
  int fd = ::open(tmp_path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::Unavailable("output commit failed: cannot reopen " +
                               tmp_path + ": " + std::strerror(errno));
  }
  if (::fsync(fd) != 0) {
    Status failed = Status::Unavailable("output commit failed: fsync: " +
                                        tmp_path + ": " +
                                        std::strerror(errno));
    ::close(fd);
    return failed;
  }
  ::close(fd);
  if (FOOFAH_FAULT_FAIL(fault_points::kExecOutputCommit)) {
    return Status::Unavailable("output commit failed: rename to " +
                               final_path + ": injected I/O failure");
  }
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return Status::Unavailable("output commit failed: rename to " +
                               final_path + ": " + std::strerror(errno));
  }
  // Durability of the directory entry itself; the data already reached
  // disk above, so a failure here cannot lose content — best effort.
  int dfd = ::open(DirNameOf(final_path).c_str(),
                   O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

std::string DirNameOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace foofah
