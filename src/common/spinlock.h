#pragma once

#include <atomic>

#include "common/debug_checks.h"
#include "common/thread_annotations.h"

namespace alt {

/// Pause the core briefly inside a spin loop (reduces bus traffic on x86).
inline void CpuRelax() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_ia32_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// \brief Tiny test-and-test-and-set spin lock.
///
/// Used where the critical section is a handful of stores (fast pointer buffer
/// entries, §III-E "we use spin locks in the fast pointer buffer").
///
/// Annotated as a clang thread-safety capability; prefer the SpinLockGuard
/// RAII guard (std::lock_guard acquisitions are invisible to the analysis).
class CAPABILITY("mutex") SpinLock {
 public:
  void lock() ACQUIRE() {
    // Recorded before the spin so a same-thread double-lock aborts with a
    // diagnostic instead of spinning forever.
    ALT_DEBUG_NOTE_ACQUIRED(this, "spinlock");
    for (;;) {
      if (!flag_.exchange(true, std::memory_order_acquire)) return;
      while (flag_.load(std::memory_order_relaxed)) CpuRelax();
    }
  }

  bool try_lock() TRY_ACQUIRE(true) {
    if (flag_.exchange(true, std::memory_order_acquire)) return false;
    ALT_DEBUG_NOTE_ACQUIRED(this, "spinlock");
    return true;
  }

  void unlock() RELEASE() {
    ALT_DEBUG_NOTE_RELEASED(this, "spinlock");
    ALT_DEBUG_CHECK(flag_.load(std::memory_order_relaxed), "spinlock",
                    "unlock of a lock that is not locked", this);
    flag_.store(false, std::memory_order_release);
  }

 private:
  std::atomic<bool> flag_{false};
};

/// RAII guard for SpinLock, visible to the thread-safety analysis (use this
/// instead of std::lock_guard<SpinLock>).
class SCOPED_CAPABILITY SpinLockGuard {
 public:
  // ALT_LINT_ALLOW(alt-raw-lock): RAII guard implementation — the one place
  // SpinLock::lock()/unlock() are driven by hand.
  explicit SpinLockGuard(SpinLock& lock) ACQUIRE(lock) : lock_(lock) { lock_.lock(); }
  // ALT_LINT_ALLOW(alt-raw-lock): RAII guard implementation (see ctor).
  ~SpinLockGuard() RELEASE() { lock_.unlock(); }

  SpinLockGuard(const SpinLockGuard&) = delete;
  SpinLockGuard& operator=(const SpinLockGuard&) = delete;

 private:
  SpinLock& lock_;
};

}  // namespace alt
