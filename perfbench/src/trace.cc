#include "trace.h"

#include <cstdio>

namespace perfbench {

double SpanRecorder::SinceOrigin(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

uint64_t SpanRecorder::Add(const char* name, uint64_t parent,
                           uint64_t request, Clock::time_point start,
                           Clock::time_point end, std::string detail) {
  const uint64_t id = spans_.size() + 1;
  Span span;
  span.id = id;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start_us = SinceOrigin(start);
  span.end_us = SinceOrigin(end);
  span.detail = std::move(detail);
  spans_.push_back(std::move(span));
  return id;
}

uint64_t SpanRecorder::AddAggregate(const char* name, uint64_t parent,
                                    uint64_t request,
                                    Clock::time_point first_start,
                                    Clock::time_point last_end,
                                    double busy_ms, uint64_t calls,
                                    uint64_t allocs) {
  const uint64_t id = Add(name, parent, request, first_start, last_end);
  Span& span = spans_.back();
  span.busy_us = busy_ms * 1000.0;
  span.calls = calls;
  span.allocs = allocs;
  return id;
}

bool SpanRecorder::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 s.start_us, s.end_us);
    if (s.busy_us >= 0) {
      std::fprintf(out, ",\"busy_us\":%.3f,\"calls\":%llu,\"allocs\":%llu",
                   s.busy_us, static_cast<unsigned long long>(s.calls),
                   static_cast<unsigned long long>(s.allocs));
    }
    if (!s.detail.empty()) {
      std::fprintf(out, ",\"detail\":\"%s\"", s.detail.c_str());
    }
    std::fputs("}\n", out);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
