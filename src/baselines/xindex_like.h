#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/index_interface.h"
#include "common/shared_mutex.h"

namespace alt {

/// \brief Mechanism-faithful re-implementation of XIndex (Tang et al.,
/// PPoPP'20):
///
///  - *two-level RMI*: a linear root model predicts the group (leaf), with an
///    error-bounded binary search over the groups' pivot keys;
///  - *error-bounded leaf search*: each group keeps a sorted array + linear
///    model; lookups binary-search within [pred - err, pred + err] — the
///    prediction-error cost of Table I;
///  - *per-group delta buffer*: inserts go to an ordered buffer (the paper's
///    masstree stands in as an ordered map under a reader-writer lock, see
///    DESIGN.md §5) consulted before the array;
///  - *background compaction*: a dedicated thread merges oversized buffers
///    into fresh arrays and retrains the group model — XIndex's signature
///    background-retraining design (§II-B).
///
/// The group set is fixed at bulk-load time (no group splits); compaction
/// swaps each group's immutable data snapshot in place.
class XIndexLike : public ConcurrentIndex {
 public:
  XIndexLike() = default;
  ~XIndexLike() override;

  std::string Name() const override { return "XIndex"; }

  Status BulkLoad(const Key* keys, const Value* values, size_t n) override;
  bool Lookup(Key key, Value* out, ServedBy* served = nullptr) const override;
  bool Insert(Key key, Value value, ServedBy* served = nullptr) override;
  bool Update(Key key, Value value, ServedBy* served = nullptr) override;
  bool Remove(Key key, ServedBy* served = nullptr) override;
  size_t Scan(Key start, size_t count,
              std::vector<std::pair<Key, Value>>* out) const override;
  size_t MemoryUsage() const override;
  size_t Size() const override { return size_.load(std::memory_order_relaxed); }

  size_t NumGroups() const { return groups_.size(); }
  uint64_t Compactions() const { return compactions_.load(std::memory_order_relaxed); }

 private:
  /// Immutable sorted snapshot of a group + its trained model.
  struct GroupData {
    std::vector<Key> keys;
    std::vector<Value> values;
    Key base = 0;
    double slope = 0;
    uint32_t max_error = 0;

    void Train();
    /// Index of `key` in `keys`, or keys.size() if absent.
    size_t Find(Key key) const;
    size_t LowerBound(Key key) const;
  };

  struct Group {
    Key first_key = 0;
    std::atomic<GroupData*> data{nullptr};
    mutable SharedMutex buffer_mu;
    /// nullopt marks a tombstone shadowing an array-resident key.
    std::map<Key, std::optional<Value>> buffer GUARDED_BY(buffer_mu);
    std::atomic<uint32_t> buffer_count{0};

    ~Group() { delete data.load(std::memory_order_relaxed); }
  };

  static constexpr size_t kGroupSize = 1024;       ///< keys per group at build
  static constexpr uint32_t kCompactThreshold = 256;  ///< buffer size triggering merge

  Group* LocateGroup(Key key) const;
  void CompactGroup(Group* g);
  void BackgroundLoop();

  std::vector<Key> pivots_;
  std::vector<std::unique_ptr<Group>> groups_;
  // Root model over pivots (RMI level 0).
  Key root_base_ = 0;
  double root_slope_ = 0;
  uint32_t root_error_ = 0;

  std::thread bg_thread_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> size_{0};
  std::atomic<uint64_t> compactions_{0};
};

}  // namespace alt
