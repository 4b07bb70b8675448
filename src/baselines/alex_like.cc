#include "baselines/alex_like.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "common/epoch.h"

namespace alt {

AlexLike::DataNode* AlexLike::BuildNode(const Key* keys, const Value* values,
                                        size_t n) {
  auto* node = new DataNode();
  node->first_key = keys[0];
  uint32_t cap = static_cast<uint32_t>(static_cast<double>(n) / kInitDensity) + 2;
  if (cap < kMinCapacity) cap = kMinCapacity;
  node->capacity = cap;
  node->num_keys = static_cast<uint32_t>(n);
  node->keys = std::make_unique<std::atomic<Key>[]>(cap);
  node->values = std::make_unique<std::atomic<Value>[]>(cap);
  node->occupied = std::make_unique<std::atomic<uint64_t>[]>((cap + 63) / 64);
  for (uint32_t w = 0; w < (cap + 63) / 64; ++w) {
    node->occupied[w].store(0, std::memory_order_relaxed);
  }
  // Least-squares key->slot model (as in ALEX); exponential search absorbs
  // the residual error. Keys are centered on the first key for precision.
  node->slope = 0.0;
  if (n >= 2 && keys[n - 1] > keys[0]) {
    double sx = 0, sxx = 0, sxy = 0, sy = 0;
    for (size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>(keys[i] - keys[0]);
      const double y = (static_cast<double>(i) + 0.5) / static_cast<double>(n) *
                       static_cast<double>(cap);
      sx += x;
      sxx += x * x;
      sxy += x * y;
      sy += y;
    }
    const double nn = static_cast<double>(n);
    const double denom = nn * sxx - sx * sx;
    if (denom > 0) {
      node->slope = (nn * sxy - sx * sy) / denom;
      node->intercept = (sy - node->slope * sx) / nn;
    } else {
      node->slope = static_cast<double>(cap - 1) /
                    static_cast<double>(keys[n - 1] - keys[0]);
    }
    if (node->slope < 0) {
      node->slope = static_cast<double>(cap - 1) /
                    static_cast<double>(keys[n - 1] - keys[0]);
      node->intercept = 0;
    }
  }
  // Place keys by position rank (gaps spread evenly), preserving order.
  for (size_t i = 0; i < n; ++i) {
    uint32_t pos = static_cast<uint32_t>(
        (static_cast<double>(i) + 0.5) / static_cast<double>(n) *
        static_cast<double>(cap));
    if (pos >= cap) pos = cap - 1;
    // Keep strictly increasing positions.
    while (node->Occupied(pos)) ++pos;  // cap sized so this cannot run off
    node->keys[pos].store(keys[i], std::memory_order_relaxed);
    node->values[pos].store(values[i], std::memory_order_relaxed);
    node->SetOccupied(pos);
  }
  // Fill gaps with their nearest occupied left neighbor (leading gaps take
  // the first key) so the array is binary-searchable.
  Key fill = keys[0];
  for (uint32_t i = 0; i < cap; ++i) {
    if (node->Occupied(i)) {
      fill = node->keys[i].load(std::memory_order_relaxed);
    } else {
      node->keys[i].store(fill, std::memory_order_relaxed);
    }
  }
  return node;
}

uint32_t AlexLike::LowerBound(const DataNode* node, Key key) {
  const uint32_t cap = node->capacity;
  int64_t pred = 0;
  if (key > node->first_key) {
    pred = static_cast<int64_t>(node->slope *
                                    static_cast<double>(key - node->first_key) +
                                node->intercept);
    if (pred >= cap) pred = cap - 1;
    if (pred < 0) pred = 0;
  }
  // Exponential search to bracket the lower bound, then binary search.
  int64_t lo, hi;
  if (node->keys[static_cast<uint32_t>(pred)].load(std::memory_order_relaxed) < key) {
    int64_t bound = 1;
    while (pred + bound < cap &&
           node->keys[static_cast<uint32_t>(pred + bound)].load(
               std::memory_order_relaxed) < key) {
      bound <<= 1;
    }
    lo = pred + bound / 2;
    hi = std::min<int64_t>(pred + bound, cap);
  } else {
    int64_t bound = 1;
    while (pred - bound >= 0 &&
           node->keys[static_cast<uint32_t>(pred - bound)].load(
               std::memory_order_relaxed) >= key) {
      bound <<= 1;
    }
    lo = std::max<int64_t>(pred - bound, 0);
    hi = pred - bound / 2 + 1;
  }
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (node->keys[static_cast<uint32_t>(mid)].load(std::memory_order_relaxed) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return static_cast<uint32_t>(lo);
}

uint32_t AlexLike::FindSlot(const DataNode* node, Key key) {
  uint32_t pos = LowerBound(node, key);
  // Gap slots duplicate keys; scan the equal run for the occupied original.
  while (pos < node->capacity &&
         node->keys[pos].load(std::memory_order_relaxed) == key) {
    if (node->Occupied(pos)) return pos;
    ++pos;
  }
  return node->capacity;
}

Status AlexLike::BulkLoad(const Key* keys, const Value* values, size_t n) {
  if (n == 0) return Status::InvalidArgument("empty bulk load");
  for (size_t i = 1; i < n; ++i) {
    if (keys[i] <= keys[i - 1]) {
      return Status::InvalidArgument("keys must be sorted and duplicate-free");
    }
  }
  std::vector<std::pair<Key, DataNode*>> leaves;
  for (size_t start = 0; start < n; start += kBulkNodeKeys) {
    const size_t len = std::min<size_t>(kBulkNodeKeys, n - start);
    leaves.emplace_back(keys[start], BuildNode(keys + start, values + start, len));
  }
  dir_.Build(leaves);
  size_.store(n, std::memory_order_relaxed);
  return Status::OK();
}

bool AlexLike::Lookup(Key key, Value* out, ServedBy*) const {
  EpochGuard g;
  for (;;) {
    const auto* snap = dir_.snapshot();
    DataNode* node =
        snap->leaves[LeafDirectory<DataNode>::Locate(*snap, key)].load(
            std::memory_order_acquire);
    bool restart = false;
    const uint64_t v = node->lock.ReadLockOrRestart(&restart);
    if (restart) continue;
    const uint32_t pos = FindSlot(node, key);
    bool found = false;
    Value val = 0;
    if (pos < node->capacity) {
      val = node->values[pos].load(std::memory_order_relaxed);
      found = true;
    }
    node->lock.CheckOrRestart(v, &restart);
    if (restart) continue;
    if (found) *out = val;
    return found;
  }
}

// Optimistic escape: per-node version locks are re-validated before any
// observed state is trusted; a mismatch restarts the whole operation.
bool AlexLike::Insert(Key key, Value value, ServedBy*) ALT_OPTIMISTIC_PATH {
  EpochGuard g;
  for (;;) {
    const auto* snap = dir_.snapshot();
    DataNode* node =
        snap->leaves[LeafDirectory<DataNode>::Locate(*snap, key)].load(
            std::memory_order_acquire);
    if (!node->lock.WriteLockOrFail()) continue;
    // Node may have been split/retired while we waited.
    {
      const auto* snap2 = dir_.snapshot();
      DataNode* cur =
          snap2->leaves[LeafDirectory<DataNode>::Locate(*snap2, key)].load(
              std::memory_order_acquire);
      if (cur != node) {
        node->lock.WriteUnlock();
        continue;
      }
    }
    const uint32_t cap = node->capacity;
    uint32_t pos = LowerBound(node, key);
    // Duplicate check within the equal run.
    uint32_t scan = pos;
    bool exists = false;
    while (scan < cap && node->keys[scan].load(std::memory_order_relaxed) == key) {
      if (node->Occupied(scan)) {
        exists = true;
        break;
      }
      ++scan;
    }
    if (exists) {
      node->lock.WriteUnlock();
      return false;
    }
    // Find the nearest gap on each side of the insertion position.
    int64_t right_gap = -1;
    for (int64_t i = pos; i < cap; ++i) {
      if (!node->Occupied(static_cast<uint32_t>(i))) {
        right_gap = i;
        break;
      }
    }
    int64_t left_gap = -1;
    for (int64_t i = static_cast<int64_t>(pos) - 1; i >= 0; --i) {
      if (!node->Occupied(static_cast<uint32_t>(i))) {
        left_gap = i;
        break;
      }
    }
    uint64_t shifted = 0;
    if (right_gap >= 0 &&
        (left_gap < 0 || right_gap - pos <= static_cast<int64_t>(pos) - left_gap)) {
      // Shift [pos, right_gap) one to the right; insert at pos.
      for (int64_t i = right_gap; i > pos; --i) {
        node->keys[i].store(node->keys[i - 1].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
        node->values[i].store(node->values[i - 1].load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
        ++shifted;
      }
      node->SetOccupied(static_cast<uint32_t>(right_gap));
      node->keys[pos].store(key, std::memory_order_relaxed);
      node->values[pos].store(value, std::memory_order_relaxed);
      // pos was occupied (or gap about to be covered): mark it.
      node->SetOccupied(pos);
    } else if (left_gap >= 0) {
      // Shift (left_gap, pos) one to the left; insert at pos - 1.
      for (int64_t i = left_gap; i < static_cast<int64_t>(pos) - 1; ++i) {
        node->keys[i].store(node->keys[i + 1].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
        node->values[i].store(node->values[i + 1].load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
        ++shifted;
      }
      node->SetOccupied(static_cast<uint32_t>(left_gap));
      node->keys[pos - 1].store(key, std::memory_order_relaxed);
      node->values[pos - 1].store(value, std::memory_order_relaxed);
      node->SetOccupied(pos - 1);
    } else {
      // Completely full (cannot happen below kMaxDensity, but guard): split
      // and retry.
      node->lock.WriteUnlock();
      SplitNode(node);
      continue;
    }
    node->num_keys++;
    shift_total_.fetch_add(shifted, std::memory_order_relaxed);
    size_.fetch_add(1, std::memory_order_relaxed);
    const bool needs_split =
        static_cast<double>(node->num_keys) >= kMaxDensity * static_cast<double>(cap);
    node->lock.WriteUnlock();
    if (needs_split) SplitNode(node);
    return true;
  }
}

// Conditional acquire (WriteLockOrFail) + directory snapshot re-validation;
// gives up if the node went stale, so losers never mutate a retired node.
void AlexLike::SplitNode(DataNode* node) ALT_OPTIMISTIC_PATH {
  if (!node->lock.WriteLockOrFail()) return;  // already split by someone else
  // Verify the node is still current (another thread may have split it).
  const auto* snap = dir_.snapshot();
  DataNode* cur = snap->leaves[LeafDirectory<DataNode>::Locate(*snap, node->first_key)]
                      .load(std::memory_order_acquire);
  if (cur != node) {
    node->lock.WriteUnlock();
    return;
  }
  std::vector<Key> keys;
  std::vector<Value> values;
  keys.reserve(node->num_keys);
  values.reserve(node->num_keys);
  for (uint32_t i = 0; i < node->capacity; ++i) {
    if (!node->Occupied(i)) continue;
    keys.push_back(node->keys[i].load(std::memory_order_relaxed));
    values.push_back(node->values[i].load(std::memory_order_relaxed));
  }
  if (keys.size() < 2) {
    node->lock.WriteUnlock();
    return;
  }
  const size_t half = keys.size() / 2;
  DataNode* left = BuildNode(keys.data(), values.data(), half);
  DataNode* right =
      BuildNode(keys.data() + half, values.data() + half, keys.size() - half);
  // The left node must answer for the whole old range's lower end.
  left->first_key = node->first_key;
  const bool ok = dir_.ReplaceWithTwo(node, node->first_key, left, keys[half], right);
  assert(ok && "split raced despite holding the node lock");
  (void)ok;
  node->lock.WriteUnlockObsolete();
  // The directory retired `node` storage-wise; nothing else to do.
}

// Same version-validated restart loop as Insert.
bool AlexLike::Update(Key key, Value value, ServedBy*) ALT_OPTIMISTIC_PATH {
  EpochGuard g;
  for (;;) {
    const auto* snap = dir_.snapshot();
    DataNode* node =
        snap->leaves[LeafDirectory<DataNode>::Locate(*snap, key)].load(
            std::memory_order_acquire);
    if (!node->lock.WriteLockOrFail()) continue;
    const auto* snap2 = dir_.snapshot();
    DataNode* cur = snap2->leaves[LeafDirectory<DataNode>::Locate(*snap2, key)].load(
        std::memory_order_acquire);
    if (cur != node) {
      node->lock.WriteUnlock();
      continue;
    }
    const uint32_t pos = FindSlot(node, key);
    const bool found = pos < node->capacity;
    if (found) node->values[pos].store(value, std::memory_order_relaxed);
    node->lock.WriteUnlock();
    return found;
  }
}

// Same version-validated restart loop as Insert.
bool AlexLike::Remove(Key key, ServedBy*) ALT_OPTIMISTIC_PATH {
  EpochGuard g;
  for (;;) {
    const auto* snap = dir_.snapshot();
    DataNode* node =
        snap->leaves[LeafDirectory<DataNode>::Locate(*snap, key)].load(
            std::memory_order_acquire);
    if (!node->lock.WriteLockOrFail()) continue;
    const auto* snap2 = dir_.snapshot();
    DataNode* cur = snap2->leaves[LeafDirectory<DataNode>::Locate(*snap2, key)].load(
        std::memory_order_acquire);
    if (cur != node) {
      node->lock.WriteUnlock();
      continue;
    }
    const uint32_t pos = FindSlot(node, key);
    const bool found = pos < node->capacity;
    if (found) {
      // The slot becomes a gap; its key value stays (order is preserved and
      // lookups consult the occupancy bitmap).
      node->ClearOccupied(pos);
      node->num_keys--;
      size_.fetch_sub(1, std::memory_order_relaxed);
    }
    node->lock.WriteUnlock();
    return found;
  }
}

size_t AlexLike::Scan(Key start, size_t count,
                      std::vector<std::pair<Key, Value>>* out) const {
  out->clear();
  if (count == 0) return 0;
  EpochGuard g;
  Key resume = start;
  for (;;) {
    const auto* snap = dir_.snapshot();
    const size_t num_leaves = snap->first_keys.size();
    size_t li = LeafDirectory<DataNode>::Locate(*snap, resume);
    bool snapshot_stale = false;
    for (; li < num_leaves && out->size() < count; ++li) {
      DataNode* node = snap->leaves[li].load(std::memory_order_acquire);
      bool node_done = false;
      for (int attempt = 0; attempt < 64 && !node_done; ++attempt) {
        const size_t checkpoint = out->size();
        bool restart = false;
        const uint64_t v = node->lock.ReadLockOrRestart(&restart);
        if (restart) {
          // Node was split: re-resolve through a fresh snapshot.
          snapshot_stale = true;
          break;
        }
        for (uint32_t i = LowerBound(node, resume);
             i < node->capacity && out->size() < count; ++i) {
          if (!node->Occupied(i)) continue;
          const Key k = node->keys[i].load(std::memory_order_relaxed);
          if (k < resume) continue;
          out->emplace_back(k, node->values[i].load(std::memory_order_relaxed));
        }
        node->lock.CheckOrRestart(v, &restart);
        if (!restart) {
          node_done = true;
        } else {
          out->resize(checkpoint);
        }
      }
      if (snapshot_stale) break;
      if (!out->empty()) resume = out->back().first + 1;
    }
    if (!snapshot_stale || out->size() >= count) return out->size();
    if (!out->empty()) resume = out->back().first + 1;
  }
}

size_t AlexLike::MemoryUsage() const {
  EpochGuard g;
  const auto* snap = dir_.snapshot();
  if (snap == nullptr) return 0;
  size_t total = snap->first_keys.size() * (sizeof(Key) + sizeof(void*));
  for (const auto& l : snap->leaves) {
    total += l.load(std::memory_order_acquire)->MemoryBytes();
  }
  return total;
}

}  // namespace alt
