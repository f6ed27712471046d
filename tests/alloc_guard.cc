#include "tests/alloc_guard.h"

#include <cstdlib>
#include <new>

namespace ses::test {
namespace {

// Per-thread, monotonically increasing. Reads race with nothing: only
// the owning thread ever writes it.
thread_local uint64_t t_alloc_count = 0;

// Every operator new below funnels through these two; nothing here may
// log or do anything else that could itself allocate.
inline void* CountedAlloc(std::size_t size) {
  ++t_alloc_count;
  // malloc(0) may return nullptr legitimately; operator new must
  // return a unique pointer instead.
  return std::malloc(size != 0 ? size : 1);
}

inline void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  ++t_alloc_count;
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded != 0 ? rounded : align);
}

}  // namespace

uint64_t ThreadAllocCount() { return t_alloc_count; }

}  // namespace ses::test

// Global replacements (C++20 [new.delete]): throwing, nothrow, array,
// and aligned forms all funnel through the counted helpers; every
// delete form releases with free, matching the malloc-backed news.
// AddressSanitizer intercepts the malloc/free underneath, so the guard
// and ASan compose in the sanitizer CI job.

void* operator new(std::size_t size) {
  void* p = ses::test::CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return ses::test::CountedAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ses::test::CountedAlloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = ses::test::CountedAlignedAlloc(
      size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return ses::test::CountedAlignedAlloc(
      size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return ses::test::CountedAlignedAlloc(
      size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
