#pragma once

#include <atomic>
#include <memory>

#include "common/index_interface.h"
#include "common/optlock.h"

namespace alt {

/// \brief Mechanism-faithful re-implementation of LIPP+ (Wu et al. 2021 with
/// the optimistic concurrency wrapper of Wongkham et al. 2022):
///
///  - *precise positions*: each node's monotone linear model maps a key to
///    exactly one slot — no secondary search;
///  - *conflict child nodes*: when an insert predicts an occupied slot, the
///    two keys move into a freshly built child node (FMCD-style: capacity
///    ~2x keys, endpoint slope over the local span);
///  - *statistics counters*: every node along the insert path increments an
///    insert counter — deliberately reproducing the cache-line invalidation
///    bottleneck the paper attributes LIPP+'s concurrency ceiling to
///    (Table I "statistic info", §II-B).
///
///  - *subtree adjustment*: when an insert descends past a depth threshold
///    (conflict chains from clustered/sequential inserts), the subtree under
///    a shallow anchor is collected, rebuilt flat and swapped in — a coarse
///    stand-in for LIPP's FMCD reconstruction ("rapid reconstruction and
///    adjustment of subtrees", paper §II-B). The rebuild holds the anchor's
///    parent lock, so operations on that subtree pause — reproducing LIPP+'s
///    write-heavy stalls in a correct-by-construction way.
class LippLike : public ConcurrentIndex {
 public:
  LippLike() = default;
  ~LippLike() override;

  std::string Name() const override { return "LIPP+"; }

  Status BulkLoad(const Key* keys, const Value* values, size_t n) override;
  bool Lookup(Key key, Value* out, ServedBy* served = nullptr) const override;
  bool Insert(Key key, Value value, ServedBy* served = nullptr) override;
  bool Update(Key key, Value value, ServedBy* served = nullptr) override;
  bool Remove(Key key, ServedBy* served = nullptr) override;
  size_t Scan(Key start, size_t count,
              std::vector<std::pair<Key, Value>>* out) const override;
  size_t MemoryUsage() const override;
  size_t Size() const override { return size_.load(std::memory_order_relaxed); }

  /// Max tree depth (stats / tests).
  size_t Depth() const;

  /// Subtree reconstructions performed so far (stats / tests).
  uint64_t Rebuilds() const { return rebuilds_.load(std::memory_order_relaxed); }

 private:
  enum : uint8_t { kEmpty = 0, kData = 1, kChild = 2 };

  struct Entry {
    std::atomic<uint8_t> type{kEmpty};
    std::atomic<Key> key{0};
    std::atomic<uint64_t> payload{0};  // Value, or Node* when type == kChild
  };

  struct Node {
    OptLock lock;
    std::atomic<uint32_t> insert_count{0};  // the LIPP+ statistics hotspot
    Key base = 0;
    double slope = 0;
    uint32_t capacity = 0;
    std::unique_ptr<Entry[]> entries;

    uint32_t PredictSlot(Key k) const {
      if (k <= base) return 0;
      const double p = slope * static_cast<double>(k - base);
      if (p >= static_cast<double>(capacity - 1)) return capacity - 1;
      return static_cast<uint32_t>(p + 0.5);
    }
  };

  static constexpr uint32_t kMinCapacity = 16;
  /// Insert descents deeper than this trigger a subtree rebuild.
  static constexpr int kRebuildTriggerDepth = 24;
  /// The rebuild anchors this many levels above the conflict chain's tail,
  /// so each rebuild flattens a small, bounded subtree (amortized O(1) per
  /// insert under hot appends).
  static constexpr int kRebuildSpan = 16;

  /// \param span_mult stretch the model's key span (and capacity) beyond the
  ///        build set — used by rebuilds so a moving insert frontier is
  ///        absorbed instead of instantly re-chaining (FMCD's conflict-aware
  ///        sizing, coarsely).
  static Node* Build(const Key* keys, const Value* values, size_t n,
                     double span_mult = 1.0);
  static void DeleteSubtree(Node* node);
  static size_t SubtreeBytes(const Node* node);
  static size_t SubtreeDepth(const Node* node);
  bool ScanCollect(const Node* node, Key lo, size_t max_items,
                   std::vector<std::pair<Key, Value>>* out) const;

  /// Exclusively lock `node`, snapshot its live data, recurse into children,
  /// then mark it obsolete and retire it. Concurrent writers either finished
  /// before our lock (their data is collected) or restart on the obsolete
  /// version and re-route through the rebuilt subtree.
  static void CollectAndObsolete(Node* node,
                                 std::vector<std::pair<Key, Value>>* out);

  /// Rebuild the subtree under `key`'s ancestor at `anchor_depth`.
  void RebuildSubtreeFor(Key key, int anchor_depth);

  Node* root_ = nullptr;
  std::atomic<size_t> size_{0};
  std::atomic<uint64_t> rebuilds_{0};
};

}  // namespace alt
