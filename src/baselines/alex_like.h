#pragma once

#include <atomic>
#include <memory>

#include "baselines/leaf_directory.h"
#include "common/index_interface.h"
#include "common/optlock.h"

namespace alt {

/// \brief Mechanism-faithful re-implementation of ALEX+ (Ding et al. 2020,
/// with the optimistic concurrency wrapper of Wongkham et al. 2022):
///
///  - *gapped arrays*: each data node keeps ~30% gaps; gap slots duplicate
///    their nearest occupied left neighbor so the key array stays
///    binary-searchable,
///  - *model-based search*: a per-node linear model predicts the slot,
///    corrected by exponential search (the "prediction error" cost),
///  - *data shifting*: an insert shifts elements to the nearest gap — the
///    cost Table I attributes ALEX+'s osm tail latency to,
///  - *node splits* when density exceeds a threshold, published through a
///    copy-on-write directory,
///  - optimistic per-node version locks for reads, exclusive for writes.
///
/// Statistics (`shift_total`) expose the data-shifting volume for the
/// motivation bench.
class AlexLike : public ConcurrentIndex {
 public:
  AlexLike() = default;

  std::string Name() const override { return "ALEX+"; }

  Status BulkLoad(const Key* keys, const Value* values, size_t n) override;
  bool Lookup(Key key, Value* out, ServedBy* served = nullptr) const override;
  bool Insert(Key key, Value value, ServedBy* served = nullptr) override;
  bool Update(Key key, Value value, ServedBy* served = nullptr) override;
  bool Remove(Key key, ServedBy* served = nullptr) override;
  size_t Scan(Key start, size_t count,
              std::vector<std::pair<Key, Value>>* out) const override;
  size_t MemoryUsage() const override;
  size_t Size() const override { return size_.load(std::memory_order_relaxed); }

  /// Total elements moved by the data-shifting scheme so far.
  uint64_t ShiftTotal() const { return shift_total_.load(std::memory_order_relaxed); }

  size_t NumNodes() const { return dir_.NumLeaves(); }

 private:
  struct DataNode {
    OptLock lock;
    Key first_key = 0;
    double slope = 0;  // predicted slot = slope * (key - first_key) + intercept
    double intercept = 0;
    uint32_t capacity = 0;
    uint32_t num_keys = 0;  // mutated under lock only
    std::unique_ptr<std::atomic<Key>[]> keys;
    std::unique_ptr<std::atomic<Value>[]> values;
    std::unique_ptr<std::atomic<uint64_t>[]> occupied;  // bitmap words

    bool Occupied(uint32_t i) const {
      return (occupied[i >> 6].load(std::memory_order_relaxed) >> (i & 63)) & 1u;
    }
    void SetOccupied(uint32_t i) {
      occupied[i >> 6].fetch_or(uint64_t{1} << (i & 63), std::memory_order_relaxed);
    }
    void ClearOccupied(uint32_t i) {
      occupied[i >> 6].fetch_and(~(uint64_t{1} << (i & 63)), std::memory_order_relaxed);
    }
    size_t MemoryBytes() const {
      return sizeof(DataNode) + capacity * (sizeof(Key) + sizeof(Value)) +
             ((capacity + 63) / 64) * 8;
    }
  };

  static constexpr double kMaxDensity = 0.8;
  static constexpr double kInitDensity = 0.6;
  static constexpr uint32_t kBulkNodeKeys = 2048;
  static constexpr uint32_t kMinCapacity = 64;

  /// Build a node over sorted data (endpoint-fit model, gaps spread evenly).
  static DataNode* BuildNode(const Key* keys, const Value* values, size_t n);

  /// First slot index with keys[slot] >= key (exponential + binary search).
  static uint32_t LowerBound(const DataNode* node, Key key);

  /// Slot holding `key`, or capacity if absent.
  static uint32_t FindSlot(const DataNode* node, Key key);

  void SplitNode(DataNode* node);

  LeafDirectory<DataNode> dir_;
  std::atomic<size_t> size_{0};
  std::atomic<uint64_t> shift_total_{0};
};

}  // namespace alt
