#include "common/simd.h"

#if ALT_SIMD_X86
#include <immintrin.h>
#endif

namespace alt {
namespace simd {

#if ALT_SIMD_X86
namespace detail {

// AVX2 has no unsigned 64-bit compare; flipping the sign bit maps unsigned
// order onto the signed _mm256_cmpgt_epi64 order.
__attribute__((target("avx2"))) size_t UpperBoundU64Avx2(const uint64_t* data,
                                                         size_t lo, size_t hi,
                                                         uint64_t key) {
  // Bisect until the window fits one contiguous sweep. Identical midpoint
  // arithmetic to the scalar twin, so both take the same path to the window.
  while (hi - lo > kSimdSearchCutover) {
    const size_t mid = lo + (hi - lo) / 2;
    if (data[mid] <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const __m256i sign = _mm256_set1_epi64x(static_cast<long long>(1ULL << 63));
  const __m256i vkey = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<long long>(key)), sign);
  size_t i = lo;
  // 8 keys per iteration: two 256-bit loads, two compares, one combined
  // movemask test. The array is sorted, so the first set bit is the answer.
  for (; i + 8 <= hi; i += 8) {
    const __m256i a = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i)), sign);
    const __m256i b = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i + 4)), sign);
    const unsigned ma = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(a, vkey))));
    const unsigned mb = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(b, vkey))));
    const unsigned m = ma | (mb << 4);
    if (m != 0) return i + static_cast<size_t>(__builtin_ctz(m));
  }
  if (i + 4 <= hi) {
    const __m256i a = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i)), sign);
    const unsigned m = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(a, vkey))));
    if (m != 0) return i + static_cast<size_t>(__builtin_ctz(m));
    i += 4;
  }
  for (; i < hi; ++i) {
    if (data[i] > key) return i;
  }
  return hi;
}

}  // namespace detail
#endif  // ALT_SIMD_X86

}  // namespace simd
}  // namespace alt
