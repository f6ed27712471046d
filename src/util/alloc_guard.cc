#include "util/alloc_guard.h"

#include <cstdlib>
#include <new>

// The one sanctioned home for a hand-rolled operator new in this tree:
// the whole point of the file is to interpose on the global allocator,
// so the naked-new lint rule exempts it (ALLOC_GUARD_EXEMPT in
// tools/ses_lint.py).

namespace ses::util {
namespace {

// Per-thread, monotonically increasing. Reads race with nothing: only
// the owning thread ever writes it.
thread_local uint64_t t_alloc_count = 0;

}  // namespace

uint64_t ThreadAllocCount() { return t_alloc_count; }

bool AllocGuardEnabled() {
#if defined(SES_ALLOC_GUARD)
  return true;
#else
  return false;
#endif
}

namespace alloc_guard_internal {

// Out-of-line so the global operator new replacements below stay
// trivial; no logging or anything else that could itself allocate.
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

}  // namespace alloc_guard_internal
}  // namespace ses::util

#if defined(SES_ALLOC_GUARD)

// Global replacements (C++20 [new.delete]): throwing, nothrow, array,
// and aligned forms all funnel through the counted helpers; every
// delete form releases with free, matching the malloc-backed news.
// AddressSanitizer intercepts the malloc/free underneath, so the guard
// and ASan compose in the sanitizer CI job.

void* operator new(std::size_t size) {
  void* p = ses::util::alloc_guard_internal::CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return ses::util::alloc_guard_internal::CountedAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ses::util::alloc_guard_internal::CountedAlloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = ses::util::alloc_guard_internal::CountedAlignedAlloc(
      size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return ses::util::alloc_guard_internal::CountedAlignedAlloc(
      size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return ses::util::alloc_guard_internal::CountedAlignedAlloc(
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

#endif  // SES_ALLOC_GUARD
