#pragma once

#include <algorithm>
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

class Slab;

/// Slot occupancy states (§III-B / §III-F).
enum class SlotState : uint32_t {
  kEmpty = 0,      ///< never written: the searched key is provably absent
  kOccupied = 1,   ///< holds a live key/value
  kTombstone = 2,  ///< removed in place; conflicting keys may still sit in ART
  kMigrated = 3,   ///< moved to the expansion (temporal) buffer (§III-F)
};

/// \brief A slot line's one version word: the §III-E optimistic version,
/// widened from a slot to the line all three lanes share. Bit 0 = writer lock,
/// bits 1-6 = the three lanes' SlotStates (lane i at bits 1 + 2i), bits 7+ = a
/// sequence number bumped on every unlock. 64 bits, so the 57-bit sequence
/// cannot wrap under a preempted reader.
///
/// A clang thread-safety capability guarding the line's pairs (see SlotLine).
/// Writers hold it via Lock/Unlock; optimistic readers carry no capability and
/// must go through SlotLine's ALT_OPTIMISTIC_PATH accessors plus Validate.
/// Under ALT_DEBUG_CHECKS the version-lock protocol checker catches
/// unlock-without-lock, same-thread double-lock, and stale unlock tokens.
class CAPABILITY("slot line word") LineWord {
 public:
  static constexpr uint32_t kLanes = 3;

  /// Snapshot the word, spinning past in-flight writers. The returned value
  /// holds every lane's state and is the line's one validation token.
  uint64_t Read() const {
    // A thread that holds this line's writer lock would spin forever here.
    ALT_DEBUG_CHECK(!::alt::debug::LockHeldByThisThread(this), "line-word",
                    "Read while this thread holds the line writer lock", this);
    uint64_t w = word_.load(std::memory_order_acquire);
    while (w & 1u) {
      CpuRelax();
      w = word_.load(std::memory_order_acquire);
    }
    return w;
  }

  static SlotState StateOf(uint64_t w, uint32_t lane) {
    return static_cast<SlotState>((w >> (1 + 2 * lane)) & 3u);
  }

  /// `w` with lane `lane` in state `st`: what a writer hands to Unlock.
  static uint64_t WithState(uint64_t w, uint32_t lane, SlotState st) {
    const uint32_t shift = 1 + 2 * lane;
    return (w & ~(uint64_t{3} << shift)) | (static_cast<uint64_t>(st) << shift);
  }

  /// \return true iff no writer intervened since `w` was Read().
  bool Validate(uint64_t w) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    return word_.load(std::memory_order_relaxed) == w;
  }

  /// Acquire the writer lock (spins) and \return the pre-lock word.
  uint64_t Lock() ACQUIRE() {
    // A same-thread double lock would spin forever below.
    ALT_DEBUG_CHECK(!::alt::debug::LockHeldByThisThread(this), "line-word",
                    "double-lock: this thread already holds the line lock", this);
    for (;;) {
      uint64_t w = word_.load(std::memory_order_relaxed);
      if (!(w & 1u) &&
          word_.compare_exchange_weak(w, w | 1u, std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        ALT_DEBUG_NOTE_ACQUIRED(this, "line-word");
        return w;
      }
      CpuRelax();
    }
  }

  /// Release the lock, publishing `w`'s lane states and a bumped sequence
  /// number. `w` is the token Lock() returned, its states possibly changed
  /// through WithState.
  void Unlock(uint64_t w) RELEASE() {
    ALT_DEBUG_NOTE_RELEASED(this, "line-word");
    // Writer-side publication check: the current word must be the held token
    // (lock bit set, same sequence); publishing from a stale token would
    // rewind the sequence number and let a racing reader validate a torn
    // snapshot.
    ALT_DEBUG_CHECK((word_.load(std::memory_order_relaxed) | kStateBits) ==
                        (w | kStateBits | 1u),
                    "line-word",
                    "Unlock without the lock held or with a stale token", this);
    word_.store((((w >> kSeqShift) + 1) << kSeqShift) | (w & kStateBits),
                std::memory_order_release);
  }

 private:
  static constexpr uint32_t kSeqShift = 1 + 2 * kLanes;
  static constexpr uint64_t kStateBits = ((uint64_t{1} << kSeqShift) - 1) & ~uint64_t{1};

  std::atomic<uint64_t> word_{0};
};

/// \brief The unit of a slot array: three slots in one 64 B cache line.
///
/// Layout: the line word (8 B), the line lock (1 B) and 7 B of padding, then
/// the three 16 B (key, value) pairs. Slot i lives in line i / 3, lane i % 3;
/// a key may sit in any lane of its predicted line (GplModel::LineOf), so a
/// probe reads exactly one line of a 64-byte-aligned array and validates it
/// once against the one word. 21⅓ B per slot against the 20 B payload; a
/// 32 B padded slot would waste 12.
///
/// The pairs are GUARDED_BY the word: every write happens between
/// word.Lock() and word.Unlock(). Concurrent readers use the two
/// ALT_OPTIMISTIC_PATH accessors — the sanctioned seqlock escape — and must
/// discard the loads unless word.Validate(w) subsequently succeeds.
///
/// `lock` sits in the padding after the word. Readers never look at it: it
/// orders the writers that move a key between the line and ART-OPT — a
/// conflict insert into a full line, a write-back, a §III-F line move — so no
/// key can end up in both (DESIGN.md §2.2). A conflict insert holds it across
/// its ART insert, which readers must not wait on.
///
/// All-zero bytes are the initial state (every lane EMPTY, key 0, value 0,
/// line unlocked), which is what lets a zero-filled slab slice serve as a
/// slot array.
struct alignas(64) SlotLine {
  static constexpr uint32_t kLanes = LineWord::kLanes;

  struct Pair {
    std::atomic<Key> key{0};
    std::atomic<Value> value{0};
  };

  LineWord word;
  SpinLock lock;
  Pair pair[kLanes] GUARDED_BY(word);

  /// Write lane `lane`'s pair; its state is published by word.Unlock.
  void Store(uint32_t lane, Key k, Value v) REQUIRES(word) {
    pair[lane].key.store(k, std::memory_order_relaxed);
    pair[lane].value.store(v, std::memory_order_relaxed);
  }

  /// Optimistic (seqlock) read of lane `lane`'s key, validated by caller:
  /// only valid if the caller's bracketing word.Read()/word.Validate() pair
  /// succeeds.
  Key OptimisticKey(uint32_t lane) const ALT_OPTIMISTIC_PATH ALT_REQUIRES_EPOCH {
    return pair[lane].key.load(std::memory_order_relaxed);
  }

  /// Optimistic (seqlock) read of lane `lane`'s value, validated by caller:
  /// same bracketing word.Read()/word.Validate() contract.
  Value OptimisticValue(uint32_t lane) const ALT_OPTIMISTIC_PATH ALT_REQUIRES_EPOCH {
    return pair[lane].value.load(std::memory_order_relaxed);
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
  /// triggers when this reaches finish_threshold (§III-F step 3).
  std::atomic<uint32_t> new_inserts{0};
  /// max(64, old model's build_size): the paper's "old model size", using
  /// the build size rather than a live-key count (set before install).
  uint32_t finish_threshold = 0;
  /// NowNanos() when the expansion was prepared: the start of its `retrain`
  /// trace span, trigger to publish (set before install, never written
  /// again).
  uint64_t start_ns = 0;
  /// Exactly one thread runs the finishing sweep.
  std::atomic<bool> finishing{false};
  /// Set once the sweep + ART write-back completed and the new model was
  /// published in the directory (ownership handover).
  std::atomic<bool> done{false};
};

/// \brief One GPL model: an anchored linear function over a gapped array of
/// slot lines where every resident key sits in a lane of exactly its predicted
/// line — the learned index layer has no prediction error beyond one cache
/// line by construction (§III-A, DESIGN.md §2.2).
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
           Key coverage_end = ~Key{0}, Slab* slab = nullptr);

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

  /// Slot lines a `num_slots` array takes; the last may have unused lanes,
  /// which stay EMPTY forever.
  static uint32_t LinesFor(uint32_t num_slots) {
    return (num_slots + SlotLine::kLanes - 1) / SlotLine::kLanes;
  }
  /// Bytes of a `num_slots` slot array: what the slab carves or the heap
  /// allocates for it.
  static size_t SlotArrayBytes(uint32_t num_slots) {
    return sizeof(SlotLine) * static_cast<size_t>(LinesFor(num_slots));
  }
  uint32_t num_lines() const { return LinesFor(num_slots_); }

  /// The line rule (DESIGN.md §2.2): `key` lives in some lane of this line.
  /// Monotone in the key, like Predict.
  uint32_t LineOf(Key key) const { return Predict(key) / SlotLine::kLanes; }

  /// Lanes of line `l` that are slots: three, except in a ragged last line,
  /// whose lanes past num_slots stay EMPTY forever and are never probed.
  uint32_t LanesIn(uint32_t l) const {
    return std::min(SlotLine::kLanes, num_slots_ - l * SlotLine::kLanes);
  }

  /// Slot line `l`. Mutable even on a const model: slot state is concurrent
  /// state, guarded by the line's word, not part of the model's constness.
  SlotLine& line(uint32_t l) const { return lines_[l]; }

  /// The first lane of line `l` in state `st` according to the line word
  /// `w`, or SlotLine::kLanes if none; a ragged last line's unused lanes
  /// never match.
  uint32_t FirstLane(uint32_t l, uint64_t w, SlotState st) const {
    for (uint32_t lane = 0; lane < LanesIn(l); ++lane) {
      if (LineWord::StateOf(w, lane) == st) return lane;
    }
    return SlotLine::kLanes;
  }

  /// Batched read path stage hook: pull line `l` before it is probed. One
  /// prefetch suffices — the word and all three pairs share it.
  void PrefetchLine(uint32_t l) const { PrefetchRead(&lines_[l]); }

  /// Fast-pointer-buffer entry index for this model's key range (§III-C).
  int32_t fp_index() const { return fp_index_.load(std::memory_order_acquire); }
  void set_fp_index(int32_t i) { fp_index_.store(i, std::memory_order_release); }

  /// Runtime insertions attributed to this model (in-place + conflicts).
  uint32_t insert_count() const { return insert_count_.load(std::memory_order_relaxed); }
  uint32_t BumpInsertCount() {
    return insert_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Zero-error invariant flag: while false, an EMPTY lane in the predicted
  /// line does NOT prove absence and operations must fall through to ART.
  /// Cleared on temporal buffers (until the §III-F finish sweep writes
  /// eligible ART keys back) and on freshly appended tail models (until their
  /// ART range sweep).
  bool strict_empty() const { return strict_empty_.load(std::memory_order_acquire); }
  void set_strict_empty(bool v) { strict_empty_.store(v, std::memory_order_release); }

  Expansion* expansion() const { return expansion_.load(std::memory_order_acquire); }
  /// Install an expansion; \return false if another thread won the race.
  bool TryInstallExpansion(Expansion* e) {
    Expansion* expected = nullptr;
    return expansion_.compare_exchange_strong(expected, e, std::memory_order_acq_rel);
  }

  /// Count slots by state: counts[i] += slots in SlotState i (kEmpty /
  /// kOccupied / kTombstone / kMigrated). O(num_slots); structural stats.
  void CountSlotStates(size_t counts[4]) const ALT_REQUIRES_EPOCH;

  /// Collect occupied (key, value) pairs with key in [lo, hi], ascending,
  /// stopping after `limit` appended pairs. Starts at LineOf(lo) — valid
  /// because lines are in key order — sorts each line's up-to-three keys, and
  /// stops after the line holding a key beyond `hi`. Each line is read under
  /// one validation of its word; the result is per-line atomic.
  void CollectRange(Key lo, Key hi, std::vector<std::pair<Key, Value>>* out,
                    size_t limit = ~size_t{0}) const ALT_REQUIRES_EPOCH;

  /// Heap footprint of this model: header plus its slot lines.
  size_t MemoryBytes() const { return sizeof(GplModel) + SlotArrayBytes(num_slots_); }

  /// The BulkLoad slab holding the slot array, or nullptr for a heap array.
  const Slab* slab() const { return slab_; }

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
  SlotLine* lines_ = nullptr;
  std::atomic<Expansion*> expansion_{nullptr};
  const uint32_t num_slots_;
  std::atomic<int32_t> fp_index_{-1};
  std::atomic<bool> strict_empty_{true};
  // Cold tail (second line): write-path and teardown bookkeeping only.
  const uint32_t build_size_;
  std::atomic<uint32_t> insert_count_{0};
  Slab* const slab_;  ///< nullptr: lines_ is a heap array
};

}  // namespace alt
