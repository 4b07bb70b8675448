#pragma once

#include <atomic>
#include <cstddef>

namespace alt {

/// 2MB — x86-64 / AArch64 transparent huge page granularity.
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

/// \brief Zero-filled, 64-byte-aligned heap allocation for the slot arrays of
/// GPL models created at runtime (§III-F temporal buffers, tail models,
/// empty-load catch-all). Release with std::free.
void* AllocateHotArray(size_t bytes);

/// \brief One mapping holding every slot array a BulkLoad builds
/// (DESIGN.md §10.2).
///
/// The slab is mapped at exactly its capacity rounded to 4KB, at a
/// 2MB-aligned address, and advised MADV_HUGEPAGE: every whole 2MB stretch can
/// be backed by one huge page, while the partial last one stays on 4KB pages
/// so the mapping never holds more memory than the arrays need. Slices are
/// carved in order, each 64-byte aligned; in ALT_SANITIZE=address builds each
/// is followed by a poisoned redzone, so a read past a model's last slot is
/// still caught as it would be between heap blocks.
///
/// Fallbacks, chosen silently: a failed mmap takes one heap allocation; a
/// kernel with THP set to "never" keeps the same mapping on 4KB pages;
/// non-Linux builds always use the heap.
///
/// Lifetime: reference-counted. The creator holds one reference and drops it
/// with Unref(); every model built over a slice holds one and drops it in its
/// destructor. The mapping is released with the last reference, so models
/// still waiting in an epoch retire queue keep it alive after their index is
/// gone.
class SlotSlab {
 public:
  /// Bytes a slice of `bytes` takes in a slab: rounded up to 64, plus the
  /// ASan redzone when there is one. Size a slab by summing these.
  static size_t SliceFootprint(size_t bytes);

  /// Map a slab of `capacity` bytes. \return nullptr only if the heap
  /// fallback fails too. The caller holds the first reference.
  static SlotSlab* Create(size_t capacity);

  SlotSlab(const SlotSlab&) = delete;
  SlotSlab& operator=(const SlotSlab&) = delete;

  /// Take the next slice of `bytes` (zero-filled, 64-byte aligned) and a
  /// reference for its owner. Single-threaded: BulkLoad carves every slice
  /// before the index is shared. \return nullptr once the capacity is spent.
  void* Carve(size_t bytes);

  /// A slice's owner is gone: give its whole pages back to the kernel
  /// (MADV_DONTNEED) and, under ASan, poison it. Drops the slice's reference.
  void ReleaseSlice(void* p, size_t bytes);

  /// Drop one reference (the creator's, when it is done with the slab). The
  /// last one unmaps the slab.
  void Unref();

  const char* base() const { return base_; }
  size_t capacity() const { return capacity_; }
  /// True when the slab is its own mapping, false on the heap fallback.
  /// Whether huge pages back it is up to the kernel (DESIGN.md §10.2).
  bool mapped() const { return mapped_; }

 private:
  SlotSlab(char* base, size_t capacity, size_t mapped_bytes, bool mapped)
      : base_(base), capacity_(capacity), mapped_bytes_(mapped_bytes), mapped_(mapped) {}
  ~SlotSlab();

  char* const base_;
  const size_t capacity_;  ///< bytes usable by slices
  const size_t mapped_bytes_;  ///< capacity rounded to 4KB (mmap length)
  const bool mapped_;
  size_t carved_ = 0;
  std::atomic<size_t> refs_{1};
};

}  // namespace alt
