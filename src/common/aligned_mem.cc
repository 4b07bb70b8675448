#include "common/aligned_mem.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define ALT_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ALT_ASAN 1
#endif
#endif

#if defined(ALT_ASAN)
#include <sanitizer/asan_interface.h>
#define ALT_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define ALT_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define ALT_POISON(p, n) ((void)(p), (void)(n))
#define ALT_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace alt {

namespace {

constexpr size_t kPageBytes = 4096;

/// Poisoned gap after each slab slice, standing in for the heap redzone a
/// separately allocated slot array would have had.
#if defined(ALT_ASAN)
constexpr size_t kRedzoneBytes = 64;
#else
constexpr size_t kRedzoneBytes = 0;
#endif

inline size_t RoundUp(size_t v, size_t align) {
  return (v + align - 1) & ~(align - 1);
}

}  // namespace

void* AllocateHotArray(size_t bytes) {
  if (bytes == 0) bytes = 1;
  // aligned_alloc requires the size to be a multiple of the alignment.
  void* p = std::aligned_alloc(64, RoundUp(bytes, 64));
  if (p != nullptr) std::memset(p, 0, bytes);
  return p;
}

size_t SlotSlab::SliceFootprint(size_t bytes) { return RoundUp(bytes + kRedzoneBytes, 64); }

SlotSlab* SlotSlab::Create(size_t capacity) {
  if (capacity == 0) capacity = 64;
  const size_t length = RoundUp(capacity, kPageBytes);
#if defined(__linux__)
  // Over-map by one alignment unit, then trim both ends: the slab starts on a
  // 2MB boundary and ends at its exact 4KB-rounded size.
  const size_t align = length >= kHugePageBytes ? kHugePageBytes : kPageBytes;
  const size_t reserve = length + align - kPageBytes;
  void* raw = mmap(nullptr, reserve, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                   -1, 0);
  if (raw != MAP_FAILED) {
    const auto lo = reinterpret_cast<uintptr_t>(raw);
    const uintptr_t start = RoundUp(lo, align);
    if (start > lo) munmap(raw, start - lo);
    const uintptr_t end = start + length;
    if (lo + reserve > end) munmap(reinterpret_cast<void*>(end), lo + reserve - end);
    char* base = reinterpret_cast<char*>(start);
    // Advice only: with THP set to "never" (or compiled out) the slab stays on
    // 4KB pages.
    madvise(base, length, MADV_HUGEPAGE);
    return new SlotSlab(base, capacity, length, true);
  }
#endif
  void* heap = AllocateHotArray(capacity);
  if (heap == nullptr) return nullptr;
  return new SlotSlab(static_cast<char*>(heap), capacity, capacity, false);
}

SlotSlab::~SlotSlab() {
  ALT_UNPOISON(base_, mapped_bytes_);
#if defined(__linux__)
  if (mapped_) {
    munmap(base_, mapped_bytes_);
    return;
  }
#endif
  std::free(base_);
}

void* SlotSlab::Carve(size_t bytes) {
  const size_t footprint = SliceFootprint(bytes);
  if (carved_ + footprint > capacity_) return nullptr;
  char* p = base_ + carved_;
  carved_ += footprint;
  ALT_POISON(p + bytes, footprint - bytes);
  refs_.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void SlotSlab::ReleaseSlice(void* p, size_t bytes) {
#if defined(__linux__)
  // Only whole pages inside the slice: its neighbours share the end pages.
  const auto lo = RoundUp(reinterpret_cast<uintptr_t>(p), kPageBytes);
  const auto hi = (reinterpret_cast<uintptr_t>(p) + bytes) & ~uintptr_t{kPageBytes - 1};
  if (lo < hi) madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
#endif
  ALT_POISON(p, bytes);
  Unref();
}

void SlotSlab::Unref() {
  if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
}

}  // namespace alt
