// Counting replacements of the global allocation functions, per thread, so
// a test is charged exactly the allocations of the thread it runs on.
// Over-aligned forms are not replaced; the code under test does not use
// them, and their default versions stay consistent with these because
// both sides use plain malloc/free.

#include "testing/alloc_count.h"

#include <cstdlib>
#include <new>

namespace foofah {
namespace testing {
namespace {

thread_local uint64_t t_allocations = 0;
thread_local uint64_t t_allocated_bytes = 0;

}  // namespace

uint64_t ThreadAllocations() { return t_allocations; }
uint64_t ThreadAllocatedBytes() { return t_allocated_bytes; }

}  // namespace testing
}  // namespace foofah

namespace {

void* CountedMalloc(std::size_t size) {
  ++foofah::testing::t_allocations;
  foofah::testing::t_allocated_bytes += size;
  return std::malloc(size != 0 ? size : 1);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
