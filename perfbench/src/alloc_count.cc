// Counting replacements of the global allocation functions. The count is
// per thread, so a layer timed on the calling thread is charged exactly
// the allocations it made, without an atomic on every allocation of the
// service's worker threads. Over-aligned forms are not replaced; the
// library does not use them.

#include <cstdlib>
#include <new>

#include "common.h"

namespace perfbench {
namespace {

thread_local uint64_t t_allocs = 0;

void* CountedAlloc(std::size_t size) {
  ++t_allocs;
  return std::malloc(size != 0 ? size : 1);
}

}  // namespace

uint64_t ThreadAllocs() { return t_allocs; }

}  // namespace perfbench

void* operator new(std::size_t size) {
  if (void* p = perfbench::CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
