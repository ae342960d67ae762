#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <cstdarg>
#include <cstdio>
#include <fstream>

#include "util/string_util.h"

namespace perfbench {

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux.
}

HostTicks ReadHostTicks() {
  HostTicks ticks;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal [guest guest_nice];
  // guest time is already counted in user, so only the first eight sum.
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(in >> value)) return HostTicks{};
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double StealFraction(const HostTicks& before, const HostTicks& after) {
  if (after.total <= before.total) return 0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

bool DigestFile(const std::string& path, uint64_t* digest) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  uint64_t hash = foofah::Fnv1aHash("");  // The offset basis.
  std::vector<char> buffer(1 << 16);
  size_t got = 0;
  while ((got = std::fread(buffer.data(), 1, buffer.size(), file)) > 0) {
    hash = foofah::Fnv1aHash(std::string_view(buffer.data(), got), hash);
  }
  const bool ok = std::ferror(file) == 0;
  std::fclose(file);
  *digest = hash;
  return ok;
}

std::string Format(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list copy;
  va_copy(copy, args);
  const int size = std::vsnprintf(nullptr, 0, format, copy);
  va_end(copy);
  std::string out(size > 0 ? size : 0, '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, args);
  va_end(args);
  return out;
}

void Report::NotMeasured(std::span<const char* const> names,
                         const std::string& why) {
  std::string listed;
  for (const char* name : names) {
    metrics[name] = 0;
    listed += listed.empty() ? name : std::string(", ") + name;
  }
  notes.push_back("not measured (reported as 0): " + listed + " -- " + why);
}

}  // namespace perfbench
