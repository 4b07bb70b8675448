#pragma once

#include <atomic>

#include "common/index_interface.h"
#include "common/optlock.h"

namespace alt {

/// \brief Concurrent B+-tree with optimistic lock coupling (the OLC B-tree of
/// Leis et al., DaMoN'16) — the "traditional index" yardstick the paper's
/// introduction measures learned indexes against ("the average read
/// performance of a learned index is 1.5x-3x faster than that of a B-tree").
///
/// Design:
///  - fixed fanout inner/leaf nodes, eager top-down splits (a full node met
///    during descent is split immediately, so parents always have room),
///  - per-node OptLock versions: optimistic reads, exclusive writes,
///  - leaves are forward-linked for range scans,
///  - removals are lazy (no underflow merging): standard for OLC teaching
///    implementations and irrelevant to the paper's insert/lookup workloads.
///
/// Thread-safety matches the other indexes: BulkLoad first, then any mix of
/// concurrent operations, no EpochGuard needed. The tree never frees a node
/// mid-operation: a split keeps the original node as the left half and only
/// allocates a new sibling, removals are lazy, and every node lives until the
/// destructor — so nothing is ever retired through the epoch manager and
/// callers carry no epoch obligation.
class OlcBTree : public ConcurrentIndex {
 public:
  OlcBTree();
  ~OlcBTree() override;

  std::string Name() const override { return "B+Tree(OLC)"; }

  Status BulkLoad(const Key* keys, const Value* values, size_t n) override;
  bool Lookup(Key key, Value* out, ServedBy* served = nullptr) const override;
  bool Insert(Key key, Value value, ServedBy* served = nullptr) override;
  bool Update(Key key, Value value, ServedBy* served = nullptr) override;
  bool Remove(Key key, ServedBy* served = nullptr) override;
  size_t Scan(Key start, size_t count,
              std::vector<std::pair<Key, Value>>* out) const override;
  size_t MemoryUsage() const override;
  size_t Size() const override { return size_.load(std::memory_order_relaxed); }

  /// Tree height (root = 1). Quiescent-only.
  size_t Height() const;

 private:
  static constexpr int kInnerFanout = 32;  ///< max children per inner node
  static constexpr int kLeafCapacity = 32;

  struct Node {
    OptLock lock;
    std::atomic<uint16_t> count{0};
    const bool is_leaf;
    explicit Node(bool leaf) : is_leaf(leaf) {}
  };

  struct Inner : Node {
    Key keys[kInnerFanout - 1];
    std::atomic<Node*> children[kInnerFanout];
    Inner() : Node(false) {
      for (auto& c : children) c.store(nullptr, std::memory_order_relaxed);
    }
    bool IsFull() const {
      return count.load(std::memory_order_relaxed) == kInnerFanout - 1;
    }
    /// Index of the child covering `key`.
    int ChildIndex(Key key) const {
      const int n = count.load(std::memory_order_relaxed);
      int lo = 0, hi = n;
      while (lo < hi) {
        const int mid = lo + (hi - lo) / 2;
        if (keys[mid] <= key) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo;
    }
  };

  struct LeafNode : Node {
    Key keys[kLeafCapacity];
    std::atomic<Value> values[kLeafCapacity];
    std::atomic<LeafNode*> next{nullptr};
    LeafNode() : Node(true) {}
    bool IsFull() const {
      return count.load(std::memory_order_relaxed) == kLeafCapacity;
    }
    /// First index with keys[i] >= key.
    int LowerBound(Key key) const {
      const int n = count.load(std::memory_order_relaxed);
      int lo = 0, hi = n;
      while (lo < hi) {
        const int mid = lo + (hi - lo) / 2;
        if (keys[mid] < key) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo;
    }
  };

  enum class Op { kDone, kRestart, kExists, kNotFound };

  /// Split the full root (leaf or inner) under meta + node locks.
  void SplitRoot(Node* node, uint64_t v, bool* restarted);
  /// Split full `child` under `parent`'s lock. Both locks are released.
  void SplitChild(Inner* parent, uint64_t pv, Node* child, uint64_t cv,
                  bool* restarted);

  Op InsertImpl(Key key, Value value);
  Op RemoveImpl(Key key);

  static void DeleteSubtree(Node* node);
  static size_t SubtreeBytes(const Node* node);

  OptLock meta_lock_;  ///< guards root pointer swaps
  std::atomic<Node*> root_;
  std::atomic<size_t> size_{0};
};

}  // namespace alt
