#pragma once

/// \file
/// Clang thread-safety (capability) analysis macros, no-ops off-clang.
///
/// These wrap the attributes documented at
/// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html so lock discipline is
/// machine-checked: locks are declared as *capabilities*, the state a lock
/// protects is declared GUARDED_BY it, and acquiring/releasing functions are
/// annotated so `clang -Wthread-safety` proves every guarded access happens
/// with the right capability held. GCC and MSVC see empty macros, so the
/// annotated code builds everywhere; the analysis runs in the dedicated clang
/// CI job with `-Werror=thread-safety`.
///
/// Conventions for this codebase (see DESIGN.md "Locking protocol"):
///  - every lock class is a CAPABILITY; every RAII guard is a
///    SCOPED_CAPABILITY;
///  - state written only under a lock is GUARDED_BY that lock, even when the
///    field is an atomic that lock-free readers may also load;
///  - lock-free readers of such state go through a tiny accessor (or a leaf
///    function) marked ALT_OPTIMISTIC_PATH — the single sanctioned escape,
///    reserved for seqlock-validated / optimistic-lock-coupling reads and for
///    OLC's conditional lock upgrades, neither of which fits clang's static
///    lockset model. Every ALT_OPTIMISTIC_PATH use must carry a comment naming
///    the validation that makes it safe.

#include "common/lint_annotations.h"

#if defined(__clang__) && !defined(SWIG)
#define ALT_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define ALT_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op
#endif

/// Marks a class as a lock-like capability (e.g. SpinLock, LineWord).
#define CAPABILITY(x) ALT_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

/// Marks an RAII class that acquires a capability in its constructor and
/// releases it in its destructor.
#define SCOPED_CAPABILITY ALT_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

/// Declares that a data member is protected by the given capability.
#define GUARDED_BY(x) ALT_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

/// Declares that the data pointed to by a pointer member is protected.
#define PT_GUARDED_BY(x) ALT_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

/// Declares lock acquisition ordering (deadlock prevention).
#define ACQUIRED_BEFORE(...) \
  ALT_THREAD_ANNOTATION_ATTRIBUTE__(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  ALT_THREAD_ANNOTATION_ATTRIBUTE__(acquired_after(__VA_ARGS__))

/// The function must be called with the capability held (and keeps it held).
#define REQUIRES(...) \
  ALT_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  ALT_THREAD_ANNOTATION_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))

/// The function acquires the capability (exclusively / shared).
#define ACQUIRE(...) \
  ALT_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  ALT_THREAD_ANNOTATION_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))

/// The function releases the capability.
#define RELEASE(...) \
  ALT_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  ALT_THREAD_ANNOTATION_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  ALT_THREAD_ANNOTATION_ATTRIBUTE__(release_generic_capability(__VA_ARGS__))

/// The function acquires the capability iff it returns the given value.
#define TRY_ACQUIRE(...) \
  ALT_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  ALT_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_shared_capability(__VA_ARGS__))

/// The function must NOT be called with the capability held.
#define EXCLUDES(...) ALT_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

/// The function checks at runtime that the capability is held.
#define ASSERT_CAPABILITY(x) ALT_THREAD_ANNOTATION_ATTRIBUTE__(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  ALT_THREAD_ANNOTATION_ATTRIBUTE__(assert_shared_capability(x))

/// The function returns a reference to the given capability.
#define RETURN_CAPABILITY(x) ALT_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))

/// Turns off the analysis for one function. Do NOT use directly — use
/// ALT_OPTIMISTIC_PATH so every escape is greppable and carries the documented
/// justification category.
#define NO_THREAD_SAFETY_ANALYSIS \
  ALT_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

/// \brief The single sanctioned analysis escape (see DESIGN.md "Locking
/// protocol" for the exhaustive list of uses).
///
/// Applied to functions implementing optimistic protocols that clang's static
/// lockset model cannot express:
///  1. seqlock-style optimistic readers: load guarded state without the lock,
///     then re-validate the version word and discard the read on mismatch;
///  2. optimistic-lock-coupling writers: conditionally upgrade an optimistic
///     read to a write lock via an out-parameter restart flag, with lock
///     identities flowing through reassigned node pointers.
/// Correctness of these paths is enforced dynamically instead: by version
/// re-validation, by the ALT_DEBUG_CHECKS protocol checkers, and by the
/// TSan/ASan/UBSan CI jobs.
#define ALT_OPTIMISTIC_PATH NO_THREAD_SAFETY_ANALYSIS
