#pragma once

#include <cstddef>
#include <cstdint>

#include "common/cpu_features.h"

namespace alt {
namespace simd {

/// \brief The read path's vector kernel (DESIGN.md §10): the upper-model
/// first-key search. It has an always-compiled scalar twin with bit-identical
/// results; dispatch is one cached-bool branch (cpu::SimdEnabled), so
/// ALT_FORCE_SCALAR=1 or a non-AVX2 machine degrades to exactly the
/// pre-vectorization behaviour.

// ---------------------------------------------------------------------------
// Upper-model probe: branchless lower/upper bound over sorted u64 arrays
// ---------------------------------------------------------------------------

/// Window below which the AVX2 search stops bisecting and sweeps 8 keys per
/// iteration (two 256-bit compares + movemask). 64 keys = 8 sweeps worst case
/// over one 512-byte span — cheaper than 6 more dependent binary-search steps
/// once the window is cache-resident, and the whole window is contiguous so
/// the hardware prefetcher covers it.
inline constexpr size_t kSimdSearchCutover = 64;

/// Scalar branch-reduced upper bound: index of the first element in
/// [data+lo, data+hi) greater than `key`, or hi. The pre-SIMD Locate loop,
/// kept as the always-available fallback and differential-test oracle.
inline size_t UpperBoundU64Scalar(const uint64_t* data, size_t lo, size_t hi,
                                  uint64_t key) {
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (data[mid] <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

#if ALT_SIMD_X86
namespace detail {
/// AVX2 upper bound (simd.cc, target("avx2")): bisect to kSimdSearchCutover,
/// then 8-way compare+movemask sweep. Bit-identical to the scalar twin.
size_t UpperBoundU64Avx2(const uint64_t* data, size_t lo, size_t hi,
                         uint64_t key);
}  // namespace detail
#endif

/// Dispatched upper bound over the sorted range [data+lo, data+hi).
inline size_t UpperBoundU64(const uint64_t* data, size_t lo, size_t hi,
                            uint64_t key) {
#if ALT_SIMD_X86
  if (cpu::SimdEnabled()) return detail::UpperBoundU64Avx2(data, lo, hi, key);
#endif
  return UpperBoundU64Scalar(data, lo, hi, key);
}

}  // namespace simd
}  // namespace alt
