// Counts the calling thread's operator new calls.
//
// Replaces the global allocation functions, so include it from exactly one
// translation unit per test binary.  The count is per thread: a test reads
// it around a loop it runs itself, and other threads' allocations (pool
// workers, io shards) stay out of the figure.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>

namespace pjsched::testutil {

inline thread_local std::uint64_t thread_allocations = 0;

inline void* counted_new(std::size_t size) {
  ++thread_allocations;
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

inline void* counted_new(std::size_t size, std::align_val_t align) {
  ++thread_allocations;
  void* p = nullptr;
  const auto a = static_cast<std::size_t>(align);
  if (posix_memalign(&p, a, size != 0 ? size : a) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace pjsched::testutil

void* operator new(std::size_t size) {
  return pjsched::testutil::counted_new(size);
}
void* operator new[](std::size_t size) {
  return pjsched::testutil::counted_new(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return pjsched::testutil::counted_new(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return pjsched::testutil::counted_new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
