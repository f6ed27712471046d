#ifndef SES_UTIL_ALIGNED_H_
#define SES_UTIL_ALIGNED_H_

/// \file
/// Cache-line-aligned storage for the kernel layer's structure-of-arrays
/// state (core/kernels.h).
///
/// util::AlignedVector<T> is a std::vector whose backing store is
/// 64-byte aligned. Alignment matters twice on the hot path: a span
/// that starts on a cache-line boundary never splits its first vector
/// lane across lines, and a compiler that can prove (or be told via
/// std::assume_aligned) the alignment emits aligned SIMD loads without
/// a scalar prologue. The allocator routes through the ordinary
/// aligned global operator new, so the tests' counting allocator
/// (tests/alloc_guard.h) still counts every allocation and sanitizers
/// still see the full object.

#include <cstddef>
#include <new>  // ses-lint: allow(naked-new) header include, not an allocation
#include <vector>

namespace ses::util {

/// Cache line / AVX-512 friendly alignment for kernel spans.
inline constexpr std::size_t kKernelAlignment = 64;

/// Minimal aligned allocator over the global aligned operator new.
template <typename T, std::size_t Alignment = kKernelAlignment>
class AlignedAllocator {
 public:
  using value_type = T;
  static_assert(Alignment >= alignof(T),
                "Alignment must not weaken the type's natural alignment");

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T),
                                          std::align_val_t{Alignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Alignment});
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

/// The kernel layer's backing-store type: contiguous, 64-byte aligned.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace ses::util

#endif  // SES_UTIL_ALIGNED_H_
