#pragma once

// ALT_SIMD_X86: this build contains the AVX2 code paths (function-level
// `target("avx2")` attributes; no global -mavx2, so the baseline code stays
// runnable on any x86-64). The one kernel reads immutable directory snapshots
// only, so sanitizer builds run it like any other build.
#if !defined(ALT_SIMD_DISABLED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define ALT_SIMD_X86 1
#else
#define ALT_SIMD_X86 0
#endif

namespace alt {
namespace cpu {

/// \brief Runtime CPU feature report backing the SIMD dispatch (DESIGN.md §10).
///
/// Detection runs once (CPUID via __builtin_cpu_supports, which also checks
/// OS XSAVE support for the ymm state) and is folded together with the two
/// kill switches:
///  - compile time: -DALT_SIMD=OFF builds no vector code at all;
///  - runtime: ALT_FORCE_SCALAR=1 in the environment pins the always-compiled
///    scalar paths even on AVX2 hardware (the differential-test hook, and the
///    escape hatch if a vector path ever misbehaves in production).
struct Features {
  bool avx2 = false;          ///< hardware + OS support ymm state
  bool forced_scalar = false; ///< ALT_FORCE_SCALAR=1 seen in the environment
  bool compiled_simd = false; ///< this binary contains the AVX2 paths
};

/// The process-wide feature report (detected once, then cached).
const Features& GetFeatures();

/// True iff the vector paths should run: compiled in, hardware-supported, and
/// not overridden by ALT_FORCE_SCALAR. Cheap enough for per-operation checks
/// (one relaxed bool load after first use).
bool SimdEnabled();

/// Human-readable dispatch decision for logs and bench headers: "avx2",
/// "scalar (forced)", "scalar (no avx2)", or "scalar (compiled out)".
const char* SimdModeName();

}  // namespace cpu
}  // namespace alt
