#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/debug_checks.h"
#include "common/spinlock.h"
#include "common/thread_annotations.h"
#include "common/trace.h"

namespace alt {

/// \brief Epoch-based memory reclamation shared by all concurrent structures.
///
/// Optimistic lock coupling (ART) and copy-on-write snapshots (model directory,
/// retraining) replace nodes while lock-free readers may still dereference the
/// old ones. Writers therefore *retire* replaced memory here instead of freeing
/// it; it is reclaimed once every thread that could have observed it has left
/// its read-side critical section.
///
/// Usage (process-wide default manager):
///   { EpochGuard g;            // read-side critical section
///     ... dereference shared nodes ... }
///   EpochManager::Global().Retire(old_node, [](void* p){ delete Node::From(p); });
///
/// Usage (instance manager, e.g. one per shard — see src/shard/):
///   EpochManager mgr("shard-epoch");
///   { EpochGuard g(mgr); ... }
///   mgr.Retire(old_node, deleter);
///
/// The design is the classic 3-epoch scheme: a guard pins the manager's epoch
/// in a per-thread slot; retired items are stamped with the epoch at retirement
/// and freed when the minimum pinned epoch has advanced past them.
///
/// Thread registration: per manager, each thread gets one of kMaxThreads
/// pinned-epoch slots on first use and returns it at thread exit, so any number
/// of threads may come and go over a process lifetime as long as no more than
/// kMaxThreads are registered *concurrently* with any one manager. Exceeding
/// that aborts with a clear message (sharing a slot would silently break the
/// reclamation protocol).
///
/// Lifetime contract for instance managers: destroying a manager must not race
/// a thread currently entering/exiting it (the same quiescence the destructor
/// of any index imposes). Threads that merely *used* the manager earlier may
/// outlive it: per-thread records are reference-counted and reclaimed by
/// whichever side (thread exit / manager destruction) lets go last.
class EpochManager {
 public:
  static constexpr uint64_t kIdle = ~uint64_t{0};
  static constexpr int kMaxThreads = 256;

  using Deleter = void (*)(void*);
  /// A deleter that also receives the context passed to Retire, e.g. the
  /// region `p` was carved from.
  using ContextDeleter = void (*)(void* p, void* context);

  /// \param trace_category flight-recorder category for this manager's
  ///        epoch_drain / epoch_advance spans. Must be a string literal (or
  ///        otherwise outlive the manager): the trace ring stores the pointer.
  ///        Sharded indexes pass a per-shard literal so epoch spans attribute
  ///        to the owning shard.
  explicit EpochManager(const char* trace_category = "epoch")
      : id_(NextId()), trace_category_(trace_category) {}

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// The process-wide default manager, used whenever no instance is supplied
  /// (single-index setups, baselines, tests).
  static EpochManager& Global() {
    static EpochManager mgr;
    return mgr;
  }

  // Destruction drains everything still pending and releases the manager's
  // reference on every per-thread record; records of threads that already
  // exited are freed here, records of still-live threads are freed at their
  // thread exit. Must not run concurrently with threads entering/exiting
  // this manager (see the class-level lifetime contract).
  ~EpochManager() {
    DrainAll();
    SpinLockGuard lg(registry_mutex_);
    for (ThreadState* ts : registry_) {
      if (ts->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete ts;
    }
    registry_.clear();
  }

  /// Enter a read-side critical section (nestable). Prefer EpochGuard.
  void Enter() {
    ThreadState& ts = LocalState();
    if (ts.nesting++ == 0) {
      // Publish, then re-read the global epoch: the store-buffering pattern.
      // A release store could still sit in this core's store buffer while the
      // re-read and the section's pointer loads run, so a reclaimer's
      // MinPinnedEpoch could read kIdle for a thread already holding a
      // pointer. The seq_cst RMW (a full fence, as crossbeam-epoch's pin has)
      // pairs with AdvanceAndCollect's seq_cst advance and scan: either the
      // reclaimer sees this pin, or the re-read sees its advance and with it
      // every unlink made before that advance (DESIGN.md §7.2).
      uint64_t e = global_epoch_.load(std::memory_order_acquire);
      slots_[ts.slot].epoch.exchange(e, std::memory_order_seq_cst);
      // The epoch moved between the first load and the publication: the pin
      // at `e` is already safe (older is more conservative); republish so it
      // holds back no more than it must.
      const uint64_t e2 = global_epoch_.load(std::memory_order_seq_cst);
      if (e2 != e) slots_[ts.slot].epoch.exchange(e2, std::memory_order_seq_cst);
    }
  }

  void Exit() {
    ThreadState& ts = LocalState();
    if (--ts.nesting == 0) {
      slots_[ts.slot].epoch.store(kIdle, std::memory_order_release);
    }
  }

  /// \return true iff the calling thread is inside an Enter/Exit (EpochGuard)
  /// read-side critical section of *this* manager.
  bool CurrentThreadPinned() { return LocalState().nesting > 0; }

#if defined(ALT_DEBUG_CHECKS)
  /// Epoch-guard validator: abort unless the calling thread holds an
  /// EpochGuard on this manager. Placed (via ALT_ASSERT_EPOCH_PINNED) at every
  /// hot-path entry point that dereferences retire-capable shared pointers.
  void AssertPinned(const char* where) {
    if (LocalState().nesting > 0) return;
    std::fprintf(stderr,
                 "[alt-debug-checks] epoch-guard: %s reached outside an "
                 "EpochGuard; epoch-retired memory could be reclaimed while "
                 "still in use\n",
                 where);
    std::fflush(stderr);
    std::abort();
  }
#endif

  /// Schedule `p` for deletion once all current readers are gone.
  void Retire(void* p, Deleter del) { Push({p, nullptr, del, nullptr, 0}); }

  /// Schedule `del(p, context)` once all current readers are gone.
  void Retire(void* p, ContextDeleter del, void* context) {
    Push({p, context, nullptr, del, 0});
  }

  /// Free everything retired so far. Only safe when no thread is inside a
  /// read-side section (e.g. between benchmark phases, in destructors of the
  /// last live index, or single-threaded tests). Under ALT_DEBUG_CHECKS a
  /// still-pinned reader slot aborts: draining would free memory that reader
  /// may still dereference.
  void DrainAll() {
    trace::Span span("epoch_drain", trace_category_);
    ALT_DEBUG_CHECK(MinPinnedEpoch() == kIdle, "epoch",
                    "DrainAll while a reader is pinned: retired items may "
                    "still be referenced by a concurrent EpochGuard holder",
                    this);
    uint64_t freed = 0;
    global_epoch_.fetch_add(1, std::memory_order_acq_rel);
    SpinLockGuard lg(registry_mutex_);
    for (ThreadState* ts : registry_) {
      std::vector<Retired> items;
      {
        SpinLockGuard il(ts->retired_lock);
        items.swap(ts->retired);
      }
      freed += items.size();
      for (auto& r : items) r.Free();
    }
    span.set_detail(freed);
  }

  uint64_t GlobalEpoch() const { return global_epoch_.load(std::memory_order_acquire); }

  /// Count of items awaiting reclamation (approximate; for tests/metrics).
  size_t PendingCount() {
    SpinLockGuard lg(registry_mutex_);
    size_t n = 0;
    for (ThreadState* ts : registry_) {
      SpinLockGuard il(ts->retired_lock);
      n += ts->retired.size();
    }
    return n;
  }

  /// Number of threads currently holding a pinned-epoch slot (tests/metrics).
  size_t RegisteredThreads() {
    SpinLockGuard lg(registry_mutex_);
    return static_cast<size_t>(next_slot_) - free_slots_.size();
  }

  /// Process-unique, never-reused manager identity (tests/diagnostics). The
  /// per-thread state cache keys on this rather than the address so a new
  /// manager allocated where a destroyed one lived cannot inherit stale state.
  uint64_t ManagerId() const { return id_; }

 private:
  static constexpr int kAdvanceInterval = 64;

  struct Retired {
    void* p;
    void* context;
    Deleter del;  ///< one of `del` and `context_del` is set
    ContextDeleter context_del;
    uint64_t epoch;

    void Free() const {
      if (context_del != nullptr) {
        context_del(p, context);
      } else {
        del(p);
      }
    }
  };

  struct alignas(64) Slot {
    std::atomic<uint64_t> epoch{kIdle};
  };

  struct ThreadState {
    int slot = -1;
    int nesting = 0;
    uint64_t retire_count = 0;
    /// Two owners: the registering thread and the manager's registry. Whoever
    /// drops the count to zero frees the record, so a manager may be destroyed
    /// before or after the threads that used it (but not concurrently with
    /// them — see the class-level lifetime contract).
    std::atomic<uint32_t> refs{2};
    SpinLock retired_lock;
    std::vector<Retired> retired GUARDED_BY(retired_lock);
  };

  /// Per-thread map from manager identity to this thread's ThreadState in that
  /// manager. A plain function-local thread_local handle no longer works now
  /// that managers are instances: one thread may interleave critical sections
  /// on several managers (e.g. a scan merging across shards). Lookups hit a
  /// one-entry MRU cache first; the fallback is a linear scan, cheap at
  /// realistic manager counts (one per shard plus the global).
  struct ThreadRegistry {
    struct Entry {
      uint64_t id;
      EpochManager* mgr;
      ThreadState* state;
    };

    uint64_t cached_id = 0;
    ThreadState* cached_state = nullptr;
    std::vector<Entry> entries;

    ThreadState* StateFor(EpochManager* m) {
      const uint64_t id = m->id_;
      if (id == cached_id) return cached_state;
      for (size_t i = 0; i < entries.size();) {
        Entry& e = entries[i];
        if (e.state->refs.load(std::memory_order_acquire) == 1) {
          // Manager already destroyed: drop the thread's reference so stale
          // entries do not accumulate across short-lived managers.
          if (e.state->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            delete e.state;
          }
          e = entries.back();
          entries.pop_back();
          continue;
        }
        if (e.id == id) {
          cached_id = id;
          cached_state = e.state;
          return e.state;
        }
        ++i;
      }
      ThreadState* ts = m->RegisterThread();
      entries.push_back({id, m, ts});
      cached_id = id;
      cached_state = ts;
      return ts;
    }

    // Thread exit: return the pinned-epoch slot of every still-live manager
    // (refs == 2 proves the manager has not released its reference, hence is
    // alive per the lifetime contract), then drop this thread's reference.
    ~ThreadRegistry() {
      for (Entry& e : entries) {
        if (e.state->refs.load(std::memory_order_acquire) == 2) {
          e.mgr->UnregisterThread(e.state);
        }
        if (e.state->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          delete e.state;
        }
      }
    }
  };

  static uint64_t NextId() {
    static std::atomic<uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
  }

  ThreadState& LocalState() {
    thread_local ThreadRegistry registry;
    return *registry.StateFor(this);
  }

  ThreadState* RegisterThread() {
    auto* ts = new ThreadState();
    SpinLockGuard lg(registry_mutex_);
    if (!free_slots_.empty()) {
      ts->slot = free_slots_.back();
      free_slots_.pop_back();
    } else if (next_slot_ < kMaxThreads) {
      ts->slot = next_slot_++;
    } else {
      // Fail loudly: handing out a shared or wrapped slot would let two live
      // threads overwrite each other's pinned epoch — silent use-after-free
      // of retired memory. kMaxThreads bounds *concurrent* threads only;
      // exited threads return their slots above.
      debug::CheckFailed(
          "epoch",
          "thread slot exhaustion: more than EpochManager::kMaxThreads (256) "
          "concurrent threads registered; raise kMaxThreads or reduce thread "
          "concurrency",
          this);
    }
    registry_.push_back(ts);
    return ts;
  }

  void UnregisterThread(ThreadState* ts) {
    // A thread exiting inside a read-side section would leave its slot pinned
    // forever; the RAII EpochGuard makes this unreachable.
    ALT_DEBUG_CHECK(ts->nesting == 0, "epoch",
                    "thread exited while inside an EpochGuard", ts);
    SpinLockGuard lg(registry_mutex_);
    free_slots_.push_back(ts->slot);
  }

  uint64_t MinPinnedEpoch() const {
    uint64_t m = kIdle;
    for (const Slot& s : slots_) {
      // seq_cst: the scan half of the store-buffering pair with Enter().
      uint64_t e = s.epoch.load(std::memory_order_seq_cst);
      if (e < m) m = e;
    }
    return m;
  }

  void Push(Retired r) {
    ThreadState& ts = LocalState();
    r.epoch = global_epoch_.load(std::memory_order_acquire);
    {
      SpinLockGuard lg(ts.retired_lock);
      ts.retired.push_back(r);
    }
    if (++ts.retire_count % kAdvanceInterval == 0) {
      AdvanceAndCollect(ts);
    }
  }

  void AdvanceAndCollect(ThreadState& ts) {
    trace::Span span("epoch_advance", trace_category_);
    global_epoch_.fetch_add(1, std::memory_order_seq_cst);
    uint64_t min_pinned = MinPinnedEpoch();
    std::vector<Retired> free_now;
    {
      SpinLockGuard lg(ts.retired_lock);
      auto& v = ts.retired;
      size_t w = 0;
      for (size_t i = 0; i < v.size(); ++i) {
        // Safe once no reader can still be pinned at or before the retire epoch.
        if (v[i].epoch < min_pinned) {
          free_now.push_back(v[i]);
        } else {
          v[w++] = v[i];
        }
      }
      v.resize(w);
    }
    span.set_detail(free_now.size());
    for (auto& r : free_now) r.Free();
  }

  const uint64_t id_;
  const char* const trace_category_;
  std::atomic<uint64_t> global_epoch_{1};
  Slot slots_[kMaxThreads];
  SpinLock registry_mutex_;
  std::vector<ThreadState*> registry_ GUARDED_BY(registry_mutex_);
  std::vector<int> free_slots_ GUARDED_BY(registry_mutex_);
  int next_slot_ GUARDED_BY(registry_mutex_) = 0;
};

/// RAII read-side critical section. Default-constructed guards pin the global
/// manager; pass a manager to pin an instance (e.g. a shard's).
class EpochGuard {
 public:
  EpochGuard() : mgr_(&EpochManager::Global()) { mgr_->Enter(); }
  explicit EpochGuard(EpochManager& mgr) : mgr_(&mgr) { mgr_->Enter(); }
  ~EpochGuard() { mgr_->Exit(); }
  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

 private:
  EpochManager* const mgr_;
};

#if defined(ALT_DEBUG_CHECKS)
inline void EpochAssertPinnedImpl(const char* where) {
  EpochManager::Global().AssertPinned(where);
}
inline void EpochAssertPinnedImpl(const char* where, EpochManager& mgr) {
  mgr.AssertPinned(where);
}
inline void EpochAssertPinnedImpl(const char* where, EpochManager* mgr) {
  mgr->AssertPinned(where);
}
#endif

}  // namespace alt

/// Epoch-guard validator hook for hot-path entry points (no-op unless
/// ALT_DEBUG_CHECKS): fatal if the calling thread dereferences
/// epoch-retire-capable shared pointers outside an EpochGuard. Takes the
/// location string plus an optional EpochManager&/EpochManager* naming the
/// instance that must be pinned; without one the global manager is checked.
#if defined(ALT_DEBUG_CHECKS)
#define ALT_ASSERT_EPOCH_PINNED(where, ...) \
  ::alt::EpochAssertPinnedImpl(where __VA_OPT__(, ) __VA_ARGS__)
#else
#define ALT_ASSERT_EPOCH_PINNED(where, ...) ((void)0)
#endif
