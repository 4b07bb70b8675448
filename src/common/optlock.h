#pragma once

#include <atomic>
#include <cstdint>

#include "common/debug_checks.h"
#include "common/spinlock.h"
#include "common/thread_annotations.h"

namespace alt {

/// \brief The optimistic version lock of optimistic lock coupling (Leis et
/// al., DaMoN'16): bit 1 = locked, bit 0 = obsolete, bits 63..2 = version
/// counter. Every OLC node in the repo holds one: ART-OPT's `art::Node` and
/// the OLC baselines' nodes.
///
/// Annotated as a clang thread-safety capability on its *exclusive* side:
/// WriteLockOrFail / WriteUnlock are a conventional try-lock pair the analysis
/// can check. The optimistic side (ReadLockOrRestart / CheckOrRestart and the
/// conditional UpgradeToWriteLockOrRestart) is outside clang's static lockset
/// model; functions using it are marked ALT_OPTIMISTIC_PATH and rely on
/// version re-validation (see DESIGN.md "Locking protocol").
class CAPABILITY("optimistic lock") OptLock {
 public:
  /// Construct-time lock: a freshly allocated node starts write-locked so it
  /// cannot be modified between publication and its creator's WriteUnlock.
  /// Not an ACQUIRE for the static analysis — the creator is always inside an
  /// ALT_OPTIMISTIC_PATH write path that releases it.
  void InitLocked() {
    v_.store(2u, std::memory_order_relaxed);
    ALT_DEBUG_NOTE_ACQUIRED(this, "optlock");
  }

  static bool IsLocked(uint64_t v) { return (v & 2u) != 0; }
  static bool IsObsolete(uint64_t v) { return (v & 1u) != 0; }

  /// Spin past writers; sets *need_restart if the node is obsolete.
  uint64_t ReadLockOrRestart(bool* need_restart) const {
    // A thread that write-holds this lock would spin forever here.
    ALT_DEBUG_CHECK(!::alt::debug::LockHeldByThisThread(this), "optlock",
                    "ReadLockOrRestart while this thread write-holds the lock",
                    this);
    uint64_t v = v_.load(std::memory_order_acquire);
    while (IsLocked(v)) {
      CpuRelax();
      v = v_.load(std::memory_order_acquire);
    }
    if (IsObsolete(v)) *need_restart = true;
    return v;
  }

  /// Seqlock validation: preceding data loads stay before the re-read.
  void CheckOrRestart(uint64_t v, bool* need_restart) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    if (v_.load(std::memory_order_relaxed) != v) *need_restart = true;
  }

  /// Conditional upgrade of an optimistic read to the write lock. Invisible
  /// to the static analysis (out-parameter acquisition); callers are
  /// ALT_OPTIMISTIC_PATH.
  void UpgradeToWriteLockOrRestart(uint64_t& v, bool* need_restart) {
    if (!v_.compare_exchange_strong(v, v + 2, std::memory_order_acquire)) {
      *need_restart = true;
    } else {
      v += 2;
      ALT_DEBUG_NOTE_ACQUIRED(this, "optlock");
    }
  }

  /// Blocking write lock; \return false if the node became obsolete.
  bool WriteLockOrFail() TRY_ACQUIRE(true) {
    // A same-thread double write-lock would spin forever below.
    ALT_DEBUG_CHECK(!::alt::debug::LockHeldByThisThread(this), "optlock",
                    "double-lock: this thread already write-holds the lock", this);
    for (;;) {
      uint64_t v = v_.load(std::memory_order_acquire);
      if (IsObsolete(v)) return false;
      if (!IsLocked(v) &&
          v_.compare_exchange_weak(v, v + 2, std::memory_order_acquire)) {
        ALT_DEBUG_NOTE_ACQUIRED(this, "optlock");
        return true;
      }
      CpuRelax();
    }
  }

  void WriteUnlock() RELEASE() {
    ALT_DEBUG_NOTE_RELEASED(this, "optlock");
    ALT_DEBUG_CHECK(IsLocked(v_.load(std::memory_order_relaxed)), "optlock",
                    "WriteUnlock of a lock that is not write-locked", this);
    v_.fetch_add(2, std::memory_order_release);
  }

  void WriteUnlockObsolete() RELEASE() {
    ALT_DEBUG_NOTE_RELEASED(this, "optlock");
    ALT_DEBUG_CHECK(IsLocked(v_.load(std::memory_order_relaxed)), "optlock",
                    "WriteUnlockObsolete of a lock that is not write-locked", this);
    v_.fetch_add(3, std::memory_order_release);
  }

 private:
  std::atomic<uint64_t> v_{0};
};

}  // namespace alt
