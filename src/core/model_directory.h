#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/key_codec.h"
#include "common/prefetch.h"
#include "common/spinlock.h"
#include "common/thread_annotations.h"
#include "core/gpl_model.h"

namespace alt {

class EpochManager;

/// \brief The flattened "upper model" (§III-B): an immutable sorted array of
/// model first-keys published through an atomic snapshot pointer, plus the
/// model pointers themselves.
///
/// Two kinds of structural change, both rare and serialized by a lock:
///  - retraining replaces a model *in place* (first_key is preserved, so the
///    sorted order is untouched): an atomic store into the snapshot's slot;
///  - appending a tail model (out-of-range catcher, §III-F) copies the
///    snapshot (copy-on-write) and swings the snapshot pointer.
///
/// Readers run under an EpochGuard on the directory's epoch manager;
/// replaced models/snapshots are retired to that manager.
class ModelDirectory {
 public:
  struct Snapshot {
    explicit Snapshot(size_t n) : first_keys(n), models(n) {}
    std::vector<Key> first_keys;
    std::vector<std::atomic<GplModel*>> models;
    /// Radix table over key offsets (§III-B offers it as the alternative to
    /// binary search): a key's bucket is (key - radix_base) >> radix_shift,
    /// with keys below radix_base in bucket 0 and keys past the last bucket
    /// clamped to it; radix[r] = index of the first model whose first_key
    /// falls in bucket r or later, so Locate searches only
    /// [radix[r], radix[r+1]). The shift is the smallest that fits the
    /// directory's span (first_keys.back() - first_keys.front()) into
    /// 2^radix_bits buckets, so keys that share their top bits still spread
    /// out. Empty when radix_bits == 0.
    int radix_bits = 0;
    int radix_shift = 0;
    Key radix_base = 0;
    std::vector<uint32_t> radix;
  };

  /// \param epoch manager replaced models/snapshots retire through; nullptr
  ///        means EpochManager::Global(). Must outlive the directory.
  explicit ModelDirectory(EpochManager* epoch = nullptr);
  ~ModelDirectory();

  ModelDirectory(const ModelDirectory&) = delete;
  ModelDirectory& operator=(const ModelDirectory&) = delete;

  /// Install the initial model list (bulk load, single-threaded). Takes
  /// ownership. Models must be sorted by first_key.
  /// \param radix_bits build a 2^radix_bits-bucket table narrowing Locate
  ///        (0 = search the whole directory, the paper's binary search);
  ///        at most kMaxRadixBits.
  void Build(std::vector<GplModel*> models, int radix_bits = 0);

  /// Current snapshot; caller must hold an EpochGuard.
  const Snapshot* snapshot() const { return snapshot_.load(std::memory_order_acquire); }

  /// Largest accepted radix_bits: a 2^20-bucket table is 4 MiB.
  static constexpr int kMaxRadixBits = 20;

  /// The search window Locate scans for a key: the key's radix bucket when
  /// the table is present, else the full array. Locate and PrefetchLocate
  /// both route through here, so the probe and its prefetch cannot drift.
  struct Window {
    size_t lo = 0;
    size_t hi = 0;
  };
  static Window LocateWindow(const Snapshot& s, Key key) {
    if (s.radix_bits == 0) return Window{0, s.first_keys.size()};
    const Key offset = key < s.radix_base ? 0 : key - s.radix_base;
    const size_t last = (size_t{1} << s.radix_bits) - 1;
    const size_t r = std::min(static_cast<size_t>(offset >> s.radix_shift), last);
    return Window{s.radix[r], s.radix[r + 1]};
  }

  /// Batched read path stage hook: pull the first-key segment Locate will
  /// search for `key` (the middle of its window) so the upper-model search
  /// does not stall the group.
  static void PrefetchLocate(const Snapshot& s, Key key) {
    const Window w = LocateWindow(s, key);
    if (w.lo < w.hi) {
      const size_t mid = w.lo + (w.hi - w.lo) / 2;
      PrefetchRead(&s.first_keys[mid]);
      // The model-pointer cell is read right after the search resolves; its
      // array parallels first_keys, so the same midpoint is the best guess.
      PrefetchRead(&s.models[mid]);
    }
  }

  /// Index of the model responsible for `key`: the last model whose first_key
  /// <= key (clamped to 0 for under-range keys).
  static size_t Locate(const Snapshot& s, Key key) {
    const Window w = LocateWindow(s, key);
    const size_t ub = UpperBound(s.first_keys.data(), w.lo, w.hi, key);
    return ub == 0 ? 0 : ub - 1;
  }

  /// Retraining finished: swap `old_model` (at the slot owning `first_key`)
  /// for `new_model`. Retires the old model via the epoch manager.
  /// \return false if the slot no longer holds `old_model`.
  bool PublishReplacement(GplModel* old_model, GplModel* new_model);

  /// Append a model whose first_key is greater than every existing one.
  /// \return false (and leave the directory untouched) if a concurrent append
  /// already installed a model at or beyond this first key.
  bool AppendTail(GplModel* model);

  size_t NumModels() const {
    const Snapshot* s = snapshot_.load(std::memory_order_acquire);
    return s == nullptr ? 0 : s->first_keys.size();
  }

  /// Sum of model footprints (quiescent).
  size_t MemoryBytes() const;

  /// Populate the radix fields of `s` over its already-sorted `first_keys`;
  /// radix_bits must lie in [0, kMaxRadixBits]. Public so tests can build
  /// directories with adversarial first-key layouts without routing through
  /// Build.
  static void BuildRadix(Snapshot* s, int radix_bits);

 private:
  /// Index of the first element of the sorted range [data+lo, data+hi) that
  /// is greater than `key`, or hi. Branchless: each halving step is a
  /// conditional move, so an unpredictable key costs no mispredictions.
  static size_t UpperBound(const Key* data, size_t lo, size_t hi, Key key) {
    if (lo == hi) return lo;
    const Key* base = data + lo;
    size_t n = hi - lo;
    while (n > 1) {
      const size_t half = n / 2;
      base = base[half] <= key ? base + half : base;
      n -= half;
    }
    return static_cast<size_t>(base - data) + (*base <= key ? 1 : 0);
  }

  void RetireSnapshot(Snapshot* s);

  EpochManager* epoch_;  // resolved at construction, never null

  /// Serializes structural changes (Build / PublishReplacement / AppendTail).
  /// Snapshots themselves stay readable lock-free through `snapshot_`.
  SpinLock structure_lock_;
  int radix_bits_ GUARDED_BY(structure_lock_) = 0;
  std::atomic<Snapshot*> snapshot_{nullptr};
};

}  // namespace alt
