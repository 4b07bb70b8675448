#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/debug_checks.h"
#include "common/key_codec.h"
#include "common/prefetch.h"
#include "common/spinlock.h"
#include "common/thread_annotations.h"

namespace alt {

class SlotSlab;

/// Slot occupancy states (§III-B / §III-F).
enum class SlotState : uint32_t {
  kEmpty = 0,      ///< never written: the searched key is provably absent
  kOccupied = 1,   ///< holds a live key/value
  kTombstone = 2,  ///< removed in place; conflicting keys may still sit in ART
  kMigrated = 3,   ///< moved to the expansion (temporal) buffer (§III-F)
};

/// \brief Per-slot word combining the §III-E optimistic version scheme with
/// the slot state: bit 0 = writer lock, bits 1-2 = SlotState, bits 3+ = a
/// sequence number bumped on every unlock. One 32-bit atomic per slot.
///
/// A clang thread-safety capability guarding the slot's key/value (see
/// GplSlot). Writers hold it via Lock/Unlock; optimistic readers carry no
/// capability and must go through GplSlot's ALT_OPTIMISTIC_PATH accessors plus
/// Validate. Under ALT_DEBUG_CHECKS the version-lock protocol checker catches
/// unlock-without-lock, same-thread double-lock, and stale unlock tokens.
class CAPABILITY("slot word lock") SlotWord {
 public:
  /// Snapshot the word, spinning past in-flight writers. The returned value
  /// is both the state and the validation token.
  uint32_t Read() const {
    // A thread that holds this slot's writer lock would spin forever here.
    ALT_DEBUG_CHECK(!::alt::debug::LockHeldByThisThread(this), "slot-word",
                    "Read while this thread holds the slot writer lock", this);
    uint32_t w = word_.load(std::memory_order_acquire);
    while (w & 1u) {
      CpuRelax();
      w = word_.load(std::memory_order_acquire);
    }
    return w;
  }

  static SlotState StateOf(uint32_t w) { return static_cast<SlotState>((w >> 1) & 3u); }

  /// \return true iff no writer intervened since `w` was Read().
  bool Validate(uint32_t w) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    return word_.load(std::memory_order_relaxed) == w;
  }

  /// Acquire the writer lock (spins) and \return the pre-lock word.
  uint32_t Lock() ACQUIRE() {
    // A same-thread double lock would spin forever below.
    ALT_DEBUG_CHECK(!::alt::debug::LockHeldByThisThread(this), "slot-word",
                    "double-lock: this thread already holds the slot lock", this);
    for (;;) {
      uint32_t w = word_.load(std::memory_order_relaxed);
      if (!(w & 1u) &&
          word_.compare_exchange_weak(w, w | 1u, std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        ALT_DEBUG_NOTE_ACQUIRED(this, "slot-word");
        return w;
      }
      CpuRelax();
    }
  }

  /// Release the lock, publishing `new_state` and a bumped sequence number.
  /// `locked_word` must be the exact token Lock() returned.
  void Unlock(uint32_t locked_word, SlotState new_state) RELEASE() {
    ALT_DEBUG_NOTE_RELEASED(this, "slot-word");
    // Writer-side publication check: the current word must be the held token
    // (lock bit set); publishing from a stale token would rewind the sequence
    // number and let a racing reader validate a torn snapshot.
    ALT_DEBUG_CHECK(word_.load(std::memory_order_relaxed) == (locked_word | 1u),
                    "slot-word",
                    "Unlock without the lock held or with a stale token", this);
    const uint32_t seq = (locked_word >> 3) + 1;
    word_.store((seq << 3) | (static_cast<uint32_t>(new_state) << 1),
                std::memory_order_release);
  }

  SlotState State() const { return StateOf(Read()); }

  /// Single-threaded initialization (bulk load only).
  void InitState(SlotState s) {
    word_.store(static_cast<uint32_t>(s) << 1, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint32_t> word_{0};
};

/// One gapped-array slot: state word + key + value.
///
/// `key`/`value` are GUARDED_BY the slot word: all writes happen between
/// word.Lock() and word.Unlock(). Concurrent readers use the two
/// ALT_OPTIMISTIC_PATH accessors — the sanctioned seqlock escape — and must
/// discard the loads unless word.Validate(w) subsequently succeeds.
///
/// Padded to 32 bytes: together with the 64-byte-aligned slot arrays
/// (aligned_mem.h) every slot occupies exactly half a cache line and no probe
/// ever straddles a line boundary — previously 2 of every 8 slots did, and
/// PrefetchSlot papered over it with a two-line prefetch. The fixed
/// power-of-two stride also lets the §10 vector state scan cover one slot
/// per 256-bit load.
struct alignas(32) GplSlot {
  SlotWord word;
  std::atomic<Key> key GUARDED_BY(word){0};
  std::atomic<Value> value GUARDED_BY(word){0};

  /// Optimistic (seqlock) read of `key`, validated by caller: only valid if
  /// the caller's bracketing word.Read()/word.Validate() pair succeeds.
  Key OptimisticKey() const ALT_OPTIMISTIC_PATH ALT_REQUIRES_EPOCH {
    return key.load(std::memory_order_relaxed);
  }

  /// Optimistic (seqlock) read of `value`, validated by caller: same
  /// bracketing word.Read()/word.Validate() contract.
  Value OptimisticValue() const ALT_OPTIMISTIC_PATH ALT_REQUIRES_EPOCH {
    return value.load(std::memory_order_relaxed);
  }
};

class GplModel;

/// \brief In-flight §III-F expansion: the "temporal buffer" is a fresh model
/// with twice the slots and doubled train slope. Owned by the old model.
///
/// `new_model` stays readable by racing operations even after the finishing
/// thread publishes it in the directory; ownership transfers to the directory
/// at that point (signalled by `done`), so the destructor only frees the
/// temporal buffer of an expansion that never completed.
struct Expansion {
  explicit Expansion(GplModel* nm) : new_model(nm) {}
  ~Expansion();

  GplModel* const new_model;
  /// Keys inserted into the temporal buffer since expansion began; finishing
  /// triggers when this reaches the old model's live size (§III-F step 3).
  std::atomic<uint32_t> new_inserts{0};
  /// Live keys in the old model at expansion start (the finish threshold).
  uint32_t finish_threshold = 0;
  /// NowNanos() when the expansion was prepared; the §III-F retrain-finish
  /// event's duration is measured from here (set before install, never
  /// written again).
  uint64_t start_ns = 0;
  /// Exactly one thread runs the finishing sweep.
  std::atomic<bool> finishing{false};
  /// Set once the sweep + ART write-back completed and the new model was
  /// published in the directory (ownership handover).
  std::atomic<bool> done{false};
};

/// \brief One GPL model: an anchored linear function over a gapped slot array
/// where every resident key sits at exactly its predicted slot — the learned
/// index layer has no prediction error by construction (§III-A).
///
/// alignas(64): the header starts on a cache-line boundary so the hot member
/// block below maps onto exactly one line (C++17 aligned operator new).
class alignas(64) GplModel {
 public:
  /// \param first_key anchor (first key of the segment)
  /// \param slope scaled positions-per-key-unit (already multiplied by the
  ///        gap factor), >= 0
  /// \param num_slots gapped array capacity (>= 1)
  /// \param build_size number of keys placed at construction (retrain trigger
  ///        reference, §III-F)
  /// \param coverage_end exclusive upper bound of keys this model may *store*.
  ///        Keys >= coverage_end route to this model only while it is the
  ///        last one; they live exclusively in ART (no slot state), so a
  ///        later tail-model append (§III-F) can take over their range by
  ///        sweeping ART alone.
  /// \param slab carve the slot array from this BulkLoad slab (aligned_mem.h)
  ///        instead of the heap; the model holds a slab reference until it is
  ///        destroyed. The slice is zero-filled but may not be resident yet.
  GplModel(Key first_key, double slope, uint32_t num_slots, uint32_t build_size,
           Key coverage_end = ~Key{0}, SlotSlab* slab = nullptr);

  GplModel(const GplModel&) = delete;
  GplModel& operator=(const GplModel&) = delete;

  /// Predicted slot for `key`, clamped to [0, num_slots).
  uint32_t Predict(Key key) const {
    if (key <= first_key_) return 0;
    const double p = slope_ * static_cast<double>(key - first_key_);
    if (p >= static_cast<double>(num_slots_ - 1)) return num_slots_ - 1;
    return static_cast<uint32_t>(p + 0.5);
  }

  Key first_key() const { return first_key_; }
  double slope() const { return slope_; }
  uint32_t num_slots() const { return num_slots_; }
  uint32_t build_size() const { return build_size_; }
  Key coverage_end() const { return coverage_end_; }

  GplSlot& slot(uint32_t i) { return slots_[i]; }
  const GplSlot& slot(uint32_t i) const { return slots_[i]; }

  /// Batched read path stage hook: pull slot `i`'s line before it is probed.
  /// One prefetch suffices — 32-byte slots in a 64-byte-aligned array never
  /// straddle a line (enforced by static_asserts in gpl_model.cc).
  void PrefetchSlot(uint32_t i) const { PrefetchRead(&slots_[i]); }

  /// Fast-pointer-buffer entry index for this model's key range (§III-C).
  int32_t fp_index() const { return fp_index_.load(std::memory_order_acquire); }
  void set_fp_index(int32_t i) { fp_index_.store(i, std::memory_order_release); }

  /// Runtime insertions attributed to this model (in-place + conflicts).
  uint32_t insert_count() const { return insert_count_.load(std::memory_order_relaxed); }
  uint32_t BumpInsertCount() {
    return insert_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Zero-error invariant flag: while false, an EMPTY predicted slot does NOT
  /// prove absence and operations must fall through to ART. Cleared on
  /// temporal buffers (until the §III-F finish sweep writes eligible ART keys
  /// back) and on freshly appended tail models (until their ART range sweep).
  bool strict_empty() const { return strict_empty_.load(std::memory_order_acquire); }
  void set_strict_empty(bool v) { strict_empty_.store(v, std::memory_order_release); }

  Expansion* expansion() const { return expansion_.load(std::memory_order_acquire); }
  /// Install an expansion; \return false if another thread won the race.
  bool TryInstallExpansion(Expansion* e) {
    Expansion* expected = nullptr;
    return expansion_.compare_exchange_strong(expected, e, std::memory_order_acq_rel);
  }

  /// Count slots currently kOccupied (O(num_slots); stats & finish threshold).
  uint32_t CountOccupied() const ALT_REQUIRES_EPOCH;

  /// Count slots by state: counts[i] += slots in SlotState i (kEmpty /
  /// kOccupied / kTombstone / kMigrated). O(num_slots); structural stats.
  void CountSlotStates(size_t counts[4]) const ALT_REQUIRES_EPOCH;

  /// Collect occupied (key, value) pairs with key in [lo, hi], ascending,
  /// stopping after `limit` appended pairs. Starts at Predict(lo) — valid
  /// because placement is monotone — and stops at the first key beyond `hi`.
  /// Slots are read under their version words; the result is per-slot atomic.
  void CollectRange(Key lo, Key hi, std::vector<std::pair<Key, Value>>* out,
                    size_t limit = ~size_t{0}) const ALT_REQUIRES_EPOCH;

  /// Approximate heap footprint of this model (slots + header).
  size_t MemoryBytes() const { return sizeof(GplModel) + sizeof(GplSlot) * num_slots_; }

  /// The BulkLoad slab holding the slot array, or nullptr for a heap array.
  const SlotSlab* slab() const { return slab_; }

  ~GplModel();

 private:
  // Hot header: everything a point probe touches — route check
  // (coverage_end_), prediction (first_key_, slope_, num_slots_), the slot
  // base pointer, the expansion check, and the two ART-routing fields
  // (fp_index_, strict_empty_) — packed into the first cache line of the
  // 64-byte-aligned object, so a lookup reads exactly one header line
  // (BLI-style hot/cold split, DESIGN.md §10).
  const Key first_key_;
  const double slope_;
  const Key coverage_end_;
  GplSlot* slots_ = nullptr;
  std::atomic<Expansion*> expansion_{nullptr};
  const uint32_t num_slots_;
  std::atomic<int32_t> fp_index_{-1};
  std::atomic<bool> strict_empty_{true};
  // Cold tail (second line): write-path and teardown bookkeeping only.
  const uint32_t build_size_;
  std::atomic<uint32_t> insert_count_{0};
  SlotSlab* const slab_;  ///< nullptr: slots_ is a heap array
};

}  // namespace alt
