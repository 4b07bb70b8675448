#pragma once

/// \file
/// Debug-only dynamic concurrency invariant checkers, compiled in via the
/// `ALT_DEBUG_CHECKS` CMake option (-DALT_DEBUG_CHECKS=1).
///
/// Two checkers live on top of these helpers (see DESIGN.md "Locking
/// protocol"):
///  - the *version-lock protocol checker* (gpl_model.h, spinlock.h): detects
///    unlock-without-lock, same-thread double-lock (which would otherwise spin
///    forever), stale unlock tokens, and writer-side even/odd version
///    publication mistakes;
///  - the *epoch-guard validator* (epoch.h): detects hot paths that
///    dereference epoch-retired-capable shared pointers outside an EpochGuard.
///
/// All checks abort with a clear message on the first violation so fuzzing /
/// churn tests fail loudly at the misuse site instead of corrupting state.
/// In regular builds every helper compiles to nothing.

#include <cstdio>
#include <cstdlib>

namespace alt {
namespace debug {

/// Report a failed concurrency invariant and abort. Always available (the
/// epoch slot-exhaustion check uses it in release builds too).
[[noreturn]] inline void CheckFailed(const char* checker, const char* msg,
                                     const void* obj = nullptr) {
  if (obj != nullptr) {
    std::fprintf(stderr, "[alt-debug-checks] %s: %s (object %p)\n", checker, msg, obj);
  } else {
    std::fprintf(stderr, "[alt-debug-checks] %s: %s\n", checker, msg);
  }
  std::fflush(stderr);
  std::abort();
}

#if defined(ALT_DEBUG_CHECKS)

/// Per-thread registry of version locks (SpinLock / LineWord)
/// currently held by this thread. Critical sections in this codebase are a
/// handful of stores, so the held set is tiny; linear scans are fine.
struct HeldLockSet {
  static constexpr int kMax = 64;
  const void* held[kMax];
  int n = 0;
};

inline HeldLockSet& ThreadHeldLocks() {
  thread_local HeldLockSet set;
  return set;
}

inline bool LockHeldByThisThread(const void* lock) {
  const HeldLockSet& s = ThreadHeldLocks();
  for (int i = 0; i < s.n; ++i) {
    if (s.held[i] == lock) return true;
  }
  return false;
}

/// Called on acquisition; aborts on same-thread recursive lock, which none of
/// the repo's locks support (they would spin forever).
inline void NoteLockAcquired(const void* lock, const char* checker) {
  HeldLockSet& s = ThreadHeldLocks();
  if (LockHeldByThisThread(lock)) {
    CheckFailed(checker, "double-lock: this thread already holds the lock", lock);
  }
  if (s.n >= HeldLockSet::kMax) {
    CheckFailed(checker, "held-lock set overflow (critical section holds >64 locks?)",
                lock);
  }
  s.held[s.n++] = lock;
}

/// Called on release; aborts when this thread does not hold the lock.
inline void NoteLockReleased(const void* lock, const char* checker) {
  HeldLockSet& s = ThreadHeldLocks();
  for (int i = 0; i < s.n; ++i) {
    if (s.held[i] == lock) {
      s.held[i] = s.held[--s.n];
      return;
    }
  }
  CheckFailed(checker, "unlock-without-lock: this thread does not hold the lock",
              lock);
}

#endif  // ALT_DEBUG_CHECKS

}  // namespace debug
}  // namespace alt

#if defined(ALT_DEBUG_CHECKS)
#define ALT_DEBUG_CHECK(cond, checker, msg, obj) \
  do {                                           \
    if (!(cond)) ::alt::debug::CheckFailed(checker, msg, obj); \
  } while (0)
#define ALT_DEBUG_NOTE_ACQUIRED(lock, checker) \
  ::alt::debug::NoteLockAcquired(lock, checker)
#define ALT_DEBUG_NOTE_RELEASED(lock, checker) \
  ::alt::debug::NoteLockReleased(lock, checker)
#else
#define ALT_DEBUG_CHECK(cond, checker, msg, obj) ((void)0)
#define ALT_DEBUG_NOTE_ACQUIRED(lock, checker) ((void)0)
#define ALT_DEBUG_NOTE_RELEASED(lock, checker) ((void)0)
#endif
