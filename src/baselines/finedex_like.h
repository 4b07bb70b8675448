#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "common/index_interface.h"
#include "common/spinlock.h"

namespace alt {

/// \brief Mechanism-faithful re-implementation of FINEdex (Li et al.,
/// VLDB'21):
///
///  - *LPA-style segmentation*: models come from a shrinking-cone pass with
///    the paper-suggested error bound (32);
///  - *error-bounded search* in each model's sorted array — the prediction
///    error cost of Table I;
///  - *level bins*: every insertion position owns a chain of small
///    fixed-capacity bins (the finest-granularity delta buffer of §II-B),
///    so concurrent inserts into different positions never collide;
///  - per-position spin locks for writers, lock-free append-ordered reads.
///
/// Like the original, the trained models are static at runtime; inserts only
/// ever grow level bins (no runtime retraining), which reproduces FINEdex's
/// degradation under write-heavy load.
class FinedexLike : public ConcurrentIndex {
 public:
  FinedexLike() = default;
  ~FinedexLike() override;

  std::string Name() const override { return "FINEdex"; }

  Status BulkLoad(const Key* keys, const Value* values, size_t n) override;
  bool Lookup(Key key, Value* out, ServedBy* served = nullptr) const override;
  bool Insert(Key key, Value value, ServedBy* served = nullptr) override;
  bool Update(Key key, Value value, ServedBy* served = nullptr) override;
  bool Remove(Key key, ServedBy* served = nullptr) override;
  size_t Scan(Key start, size_t count,
              std::vector<std::pair<Key, Value>>* out) const override;
  size_t MemoryUsage() const override;
  size_t Size() const override { return size_.load(std::memory_order_relaxed); }

  size_t NumModels() const { return models_.size(); }

  /// The FINEdex paper's suggested error bound.
  static constexpr double kErrorBound = 32.0;

 private:
  static constexpr int kBinCapacity = 4;

  /// One fixed-capacity bin; chains form the per-position level structure.
  struct Bin {
    struct Slot {
      std::atomic<Key> key{0};
      std::atomic<Value> value{0};
      std::atomic<uint8_t> state{0};  // 0 unset, 1 live, 2 deleted
    };
    Slot slots[kBinCapacity];
    std::atomic<uint32_t> count{0};  // published entries (append index)
    std::atomic<Bin*> next{nullptr};

    ~Bin() { delete next.load(std::memory_order_relaxed); }
  };

  /// One trained segment: immutable sorted base arrays + per-position bins.
  struct Model {
    Key base = 0;
    double slope = 0;
    uint32_t max_error = 0;
    std::vector<Key> keys;
    std::unique_ptr<std::atomic<Value>[]> values;
    std::unique_ptr<std::atomic<uint64_t>[]> tombstones;  // bitmap over keys
    // Position i holds keys inserted between keys[i-1] and keys[i]
    // (position keys.size() = after the last key).
    std::unique_ptr<std::atomic<Bin*>[]> bins;
    std::unique_ptr<SpinLock[]> bin_locks;

    bool Tombstoned(size_t i) const {
      return (tombstones[i >> 6].load(std::memory_order_acquire) >> (i & 63)) & 1u;
    }
    size_t LowerBound(Key key) const;

    ~Model() {
      // Bin chains hang off atomic heads; ~Bin frees each chain's tail.
      if (bins != nullptr) {
        for (size_t i = 0; i <= keys.size(); ++i) {
          delete bins[i].load(std::memory_order_relaxed);
        }
      }
    }
  };

  Model* LocateModel(Key key) const;
  static Bin::Slot* FindInBins(Bin* head, Key key);
  void CollectBins(Bin* head, Key lo, Key hi,
                   std::vector<std::pair<Key, Value>>* out) const;

  std::vector<Key> first_keys_;
  std::vector<std::unique_ptr<Model>> models_;
  std::atomic<size_t> size_{0};
};

}  // namespace alt
