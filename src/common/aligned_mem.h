#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#if defined(__SANITIZE_ADDRESS__)
#define ALT_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ALT_ASAN 1
#endif
#endif

namespace alt {

/// True in ALT_SANITIZE=address builds, which poison memory nothing may
/// read any more (a freed slab slice, a retired ART-OPT region entry).
#if defined(ALT_ASAN)
inline constexpr bool kAsanBuild = true;
#else
inline constexpr bool kAsanBuild = false;
#endif

/// 2MB — x86-64 / AArch64 transparent huge page granularity.
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

/// \brief Zero-filled, 64-byte-aligned heap allocation for the slot arrays of
/// GPL models created at runtime (§III-F temporal buffers, tail models,
/// empty-load catch-all). Release with std::free.
void* AllocateHotArray(size_t bytes);

/// \brief One mapping that a bulk build carves its memory from
/// (DESIGN.md §10.2): every slot array a BulkLoad builds, or every node and
/// leaf of ART-OPT's sorted build (art_tree.h).
///
/// The slab is mapped at exactly its capacity rounded to 4KB, at a
/// 2MB-aligned address when it spans a huge page, and advised MADV_HUGEPAGE:
/// every whole 2MB stretch can be backed by one huge page, while the partial
/// last one stays on 4KB pages so the mapping never holds more memory than
/// the build needs. Slot arrays are carved in order with Carve, each 64-byte
/// aligned; in ALT_SANITIZE=address builds each is followed by a poisoned
/// redzone, so a read past a model's last slot is still caught as it would be
/// between heap blocks. ART-OPT lays its region out itself from base().
///
/// Fallbacks, chosen silently: a failed mmap takes one heap allocation; a
/// kernel with THP set to "never" keeps the same mapping on 4KB pages;
/// non-Linux builds always use the heap.
///
/// Lifetime: reference-counted. The creator holds one reference and drops it
/// with Unref(); every model built over a slice holds one and drops it in its
/// destructor, and under ASan every retired ART-OPT region entry holds one
/// until the epoch manager has poisoned it. The mapping is released with the last
/// reference, so entries still waiting in an epoch retire queue keep it
/// alive after their index is gone.
class Slab {
 public:
  /// Bytes a slice of `bytes` takes in a slab: rounded up to 64, plus the
  /// ASan redzone when there is one. Size a slab by summing these.
  static size_t SliceFootprint(size_t bytes);

  /// Map a slab of `capacity` bytes. \return nullptr only if the heap
  /// fallback fails too. The caller holds the first reference.
  static Slab* Create(size_t capacity);

  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;

  /// Take the next slice of `bytes` (zero-filled, 64-byte aligned) and a
  /// reference for its owner. Single-threaded: BulkLoad carves every slice
  /// before the index is shared. \return nullptr once the capacity is spent.
  void* Carve(size_t bytes);

  /// A slice's owner is gone, or a retired ART-OPT region entry's grace
  /// period is over: give its whole pages back to the kernel (MADV_DONTNEED)
  /// and, under ASan, poison it. Drops its reference. Nothing is reused: the
  /// bytes stay carved until the slab is unmapped.
  void ReleaseSlice(void* p, size_t bytes);

  /// Take one more reference, for a piece of the slab whose owner is not a
  /// carved slice (a retired ART-OPT region entry, under ASan).
  /// ReleaseSlice drops it.
  void Ref() { refs_.fetch_add(1, std::memory_order_relaxed); }

  /// Drop one reference (the creator's, when it is done with the slab). The
  /// last one unmaps the slab.
  void Unref();

  char* base() const { return base_; }
  size_t capacity() const { return capacity_; }
  /// True when `p` points into the slab's capacity.
  bool Contains(const void* p) const {
    return reinterpret_cast<uintptr_t>(p) - reinterpret_cast<uintptr_t>(base_) < capacity_;
  }
  /// True when the slab is its own mapping, false on the heap fallback.
  /// Whether huge pages back it is up to the kernel (DESIGN.md §10.2).
  bool mapped() const { return mapped_; }

 private:
  Slab(char* base, size_t capacity, size_t mapped_bytes, bool mapped)
      : base_(base), capacity_(capacity), mapped_bytes_(mapped_bytes), mapped_(mapped) {}
  ~Slab();

  char* const base_;
  const size_t capacity_;  ///< bytes usable by slices
  const size_t mapped_bytes_;  ///< capacity rounded to 4KB (mmap length)
  const bool mapped_;
  size_t carved_ = 0;
  std::atomic<size_t> refs_{1};
};

}  // namespace alt
