#include "baselines/lipp_like.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "common/epoch.h"

namespace alt {

LippLike::Node* LippLike::Build(const Key* keys, const Value* values, size_t n,
                                double span_mult) {
  auto* node = new Node();
  uint32_t cap = static_cast<uint32_t>(static_cast<double>(n) * 2 * span_mult);
  if (cap < kMinCapacity) cap = kMinCapacity;
  node->capacity = cap;
  node->entries = std::make_unique<Entry[]>(cap);
  node->base = keys[0];
  const double span =
      static_cast<double>(keys[n - 1] - keys[0]) * (span_mult > 1 ? span_mult : 1);
  node->slope =
      (n >= 2 && span > 0) ? static_cast<double>(cap - 1) / span : 0.0;
  // Group keys by predicted slot; singletons become data entries, groups
  // become recursively built children (conflict separation, as in LIPP).
  size_t i = 0;
  while (i < n) {
    const uint32_t slot = node->PredictSlot(keys[i]);
    size_t j = i + 1;
    while (j < n && node->PredictSlot(keys[j]) == slot) ++j;
    Entry& e = node->entries[slot];
    if (j - i == 1) {
      e.key.store(keys[i], std::memory_order_relaxed);
      e.payload.store(values[i], std::memory_order_relaxed);
      e.type.store(kData, std::memory_order_relaxed);
    } else {
      Node* child = Build(keys + i, values + i, j - i);
      e.payload.store(reinterpret_cast<uint64_t>(child), std::memory_order_relaxed);
      e.type.store(kChild, std::memory_order_relaxed);
    }
    i = j;
  }
  return node;
}

void LippLike::DeleteSubtree(Node* node) {
  // Iterative: conflict chains can be deep before the first rebuild fires.
  std::vector<Node*> stack{node};
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    for (uint32_t i = 0; i < n->capacity; ++i) {
      if (n->entries[i].type.load(std::memory_order_relaxed) == kChild) {
        stack.push_back(reinterpret_cast<Node*>(
            n->entries[i].payload.load(std::memory_order_relaxed)));
      }
    }
    delete n;
  }
}

LippLike::~LippLike() {
  if (root_ != nullptr) DeleteSubtree(root_);
}

Status LippLike::BulkLoad(const Key* keys, const Value* values, size_t n) {
  if (n == 0) return Status::InvalidArgument("empty bulk load");
  for (size_t i = 1; i < n; ++i) {
    if (keys[i] <= keys[i - 1]) {
      return Status::InvalidArgument("keys must be sorted and duplicate-free");
    }
  }
  root_ = Build(keys, values, n);
  size_.store(n, std::memory_order_relaxed);
  return Status::OK();
}

bool LippLike::Lookup(Key key, Value* out, ServedBy*) const {
  EpochGuard g;
restart:
  Node* node = root_;
  bool restart = false;
  uint64_t v = node->lock.ReadLockOrRestart(&restart);
  if (restart) goto restart;
  for (;;) {
    Entry& e = node->entries[node->PredictSlot(key)];
    const uint8_t type = e.type.load(std::memory_order_acquire);
    const Key k = e.key.load(std::memory_order_relaxed);
    const uint64_t payload = e.payload.load(std::memory_order_relaxed);
    node->lock.CheckOrRestart(v, &restart);
    if (restart) goto restart;
    switch (type) {
      case kEmpty:
        return false;
      case kData:
        if (k != key) return false;
        *out = payload;
        return true;
      case kChild: {
        Node* child = reinterpret_cast<Node*>(payload);
        uint64_t cv = child->lock.ReadLockOrRestart(&restart);
        if (restart) goto restart;
        node->lock.CheckOrRestart(v, &restart);
        if (restart) goto restart;
        node = child;
        v = cv;
        break;
      }
    }
  }
}

// Optimistic escape: descent re-validates node versions and restarts on any
// concurrent structure change (goto restart), under an EpochGuard.
bool LippLike::Insert(Key key, Value value, ServedBy*) ALT_OPTIMISTIC_PATH {
  EpochGuard g;
  int depth = 0;
restart:
  depth = 0;
  Node* node = root_;
  bool restart = false;
  uint64_t v = node->lock.ReadLockOrRestart(&restart);
  if (restart) goto restart;
  for (;;) {
    // LIPP+ statistics: every node on the insert path counts the insert —
    // including the root, which becomes the shared cache-line hotspot.
    node->insert_count.fetch_add(1, std::memory_order_relaxed);

    const uint32_t slot = node->PredictSlot(key);
    Entry& e = node->entries[slot];
    const uint8_t type = e.type.load(std::memory_order_acquire);
    const Key k = e.key.load(std::memory_order_relaxed);
    const uint64_t payload = e.payload.load(std::memory_order_relaxed);
    node->lock.CheckOrRestart(v, &restart);
    if (restart) goto restart;
    switch (type) {
      case kEmpty: {
        node->lock.UpgradeToWriteLockOrRestart(v, &restart);
        if (restart) goto restart;
        e.key.store(key, std::memory_order_relaxed);
        e.payload.store(value, std::memory_order_relaxed);
        e.type.store(kData, std::memory_order_release);
        node->lock.WriteUnlock();
        size_.fetch_add(1, std::memory_order_relaxed);
        if (depth > kRebuildTriggerDepth) {
          RebuildSubtreeFor(key, depth > kRebuildSpan ? depth - kRebuildSpan : 2);
        }
        return true;
      }
      case kData: {
        if (k == key) return false;
        // Conflict: move both keys into a new child (LIPP's separation).
        node->lock.UpgradeToWriteLockOrRestart(v, &restart);
        if (restart) goto restart;
        Key ck[2];
        Value cv[2];
        if (k < key) {
          ck[0] = k;
          cv[0] = payload;
          ck[1] = key;
          cv[1] = value;
        } else {
          ck[0] = key;
          cv[0] = value;
          ck[1] = k;
          cv[1] = payload;
        }
        Node* child = Build(ck, cv, 2);
        e.payload.store(reinterpret_cast<uint64_t>(child), std::memory_order_relaxed);
        e.type.store(kChild, std::memory_order_release);
        node->lock.WriteUnlock();
        size_.fetch_add(1, std::memory_order_relaxed);
        if (depth > kRebuildTriggerDepth) {
          RebuildSubtreeFor(key, depth > kRebuildSpan ? depth - kRebuildSpan : 2);
        }
        return true;
      }
      case kChild: {
        Node* child = reinterpret_cast<Node*>(payload);
        uint64_t cv2 = child->lock.ReadLockOrRestart(&restart);
        if (restart) goto restart;
        node->lock.CheckOrRestart(v, &restart);
        if (restart) goto restart;
        node = child;
        v = cv2;
        ++depth;
        break;
      }
    }
  }
}

// Same version-validated restart descent as Insert.
bool LippLike::Update(Key key, Value value, ServedBy*) ALT_OPTIMISTIC_PATH {
  EpochGuard g;
restart:
  Node* node = root_;
  bool restart = false;
  uint64_t v = node->lock.ReadLockOrRestart(&restart);
  if (restart) goto restart;
  for (;;) {
    Entry& e = node->entries[node->PredictSlot(key)];
    const uint8_t type = e.type.load(std::memory_order_acquire);
    const Key k = e.key.load(std::memory_order_relaxed);
    const uint64_t payload = e.payload.load(std::memory_order_relaxed);
    node->lock.CheckOrRestart(v, &restart);
    if (restart) goto restart;
    switch (type) {
      case kEmpty:
        return false;
      case kData: {
        if (k != key) return false;
        node->lock.UpgradeToWriteLockOrRestart(v, &restart);
        if (restart) goto restart;
        if (e.type.load(std::memory_order_relaxed) == kData &&
            e.key.load(std::memory_order_relaxed) == key) {
          e.payload.store(value, std::memory_order_relaxed);
          node->lock.WriteUnlock();
          return true;
        }
        node->lock.WriteUnlock();
        goto restart;
      }
      case kChild: {
        Node* child = reinterpret_cast<Node*>(payload);
        uint64_t cv = child->lock.ReadLockOrRestart(&restart);
        if (restart) goto restart;
        node->lock.CheckOrRestart(v, &restart);
        if (restart) goto restart;
        node = child;
        v = cv;
        break;
      }
    }
  }
}

// Same version-validated restart descent as Insert.
bool LippLike::Remove(Key key, ServedBy*) ALT_OPTIMISTIC_PATH {
  EpochGuard g;
restart:
  Node* node = root_;
  bool restart = false;
  uint64_t v = node->lock.ReadLockOrRestart(&restart);
  if (restart) goto restart;
  for (;;) {
    Entry& e = node->entries[node->PredictSlot(key)];
    const uint8_t type = e.type.load(std::memory_order_acquire);
    const Key k = e.key.load(std::memory_order_relaxed);
    const uint64_t payload = e.payload.load(std::memory_order_relaxed);
    node->lock.CheckOrRestart(v, &restart);
    if (restart) goto restart;
    switch (type) {
      case kEmpty:
        return false;
      case kData: {
        if (k != key) return false;
        node->lock.UpgradeToWriteLockOrRestart(v, &restart);
        if (restart) goto restart;
        if (e.type.load(std::memory_order_relaxed) == kData &&
            e.key.load(std::memory_order_relaxed) == key) {
          e.type.store(kEmpty, std::memory_order_release);
          node->lock.WriteUnlock();
          size_.fetch_sub(1, std::memory_order_relaxed);
          return true;
        }
        node->lock.WriteUnlock();
        goto restart;
      }
      case kChild: {
        Node* child = reinterpret_cast<Node*>(payload);
        uint64_t cv = child->lock.ReadLockOrRestart(&restart);
        if (restart) goto restart;
        node->lock.CheckOrRestart(v, &restart);
        if (restart) goto restart;
        node = child;
        v = cv;
        break;
      }
    }
  }
}

bool LippLike::ScanCollect(const Node* node, Key lo, size_t max_items,
                           std::vector<std::pair<Key, Value>>* out) const {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const size_t checkpoint = out->size();
    bool restart = false;
    const uint64_t v = node->lock.ReadLockOrRestart(&restart);
    if (restart) return false;
    bool ok = true;
    for (uint32_t i = 0; i < node->capacity && out->size() < max_items; ++i) {
      const Entry& e = node->entries[i];
      const uint8_t type = e.type.load(std::memory_order_acquire);
      if (type == kData) {
        const Key k = e.key.load(std::memory_order_relaxed);
        const Value val = e.payload.load(std::memory_order_relaxed);
        if (k >= lo) out->emplace_back(k, val);
      } else if (type == kChild) {
        const Node* child = reinterpret_cast<const Node*>(
            e.payload.load(std::memory_order_relaxed));
        if (!ScanCollect(child, lo, max_items, out)) {
          ok = false;
          break;
        }
      }
    }
    node->lock.CheckOrRestart(v, &restart);
    if (ok && !restart) return true;
    out->resize(checkpoint);
  }
  return false;
}

size_t LippLike::Scan(Key start, size_t count,
                      std::vector<std::pair<Key, Value>>* out) const {
  out->clear();
  if (count == 0) return 0;
  EpochGuard g;
  while (!ScanCollect(root_, start, count, out)) {
    out->clear();
  }
  // Model monotonicity makes slot order = key order, but concurrent inserts
  // can interleave; sort as a safety net (cheap for short scans).
  std::sort(out->begin(), out->end());
  if (out->size() > count) out->resize(count);
  return out->size();
}

void LippLike::CollectAndObsolete(Node* node,
                                  std::vector<std::pair<Key, Value>>* out) {
  if (!node->lock.WriteLockOrFail()) return;  // already obsolete (impossible
                                              // while the anchor is locked)
  for (uint32_t i = 0; i < node->capacity; ++i) {
    Entry& e = node->entries[i];
    const uint8_t type = e.type.load(std::memory_order_relaxed);
    if (type == kData) {
      out->emplace_back(e.key.load(std::memory_order_relaxed),
                        e.payload.load(std::memory_order_relaxed));
    } else if (type == kChild) {
      CollectAndObsolete(
          reinterpret_cast<Node*>(e.payload.load(std::memory_order_relaxed)), out);
    }
  }
  node->lock.WriteUnlockObsolete();
  EpochManager::Global().Retire(node,
                                [](void* p) { delete static_cast<Node*>(p); });
}

// Optimistic escape: anchor versions re-validated (restart flag) before the
// rebuilt subtree is published; losers retry with a deeper anchor.
void LippLike::RebuildSubtreeFor(Key key, int anchor_depth) ALT_OPTIMISTIC_PATH {
  if (anchor_depth < 2) anchor_depth = 2;
  for (int attempt = 0; attempt < 8; ++attempt) {
    bool restart = false;
    Node* parent = root_;
    uint64_t pv = parent->lock.ReadLockOrRestart(&restart);
    if (restart) continue;
    // Descend to the anchor's parent (anchor sits at anchor_depth; root is 0).
    bool retry = false;
    for (int depth = 0; depth < anchor_depth - 1; ++depth) {
      Entry& e = parent->entries[parent->PredictSlot(key)];
      const uint8_t type = e.type.load(std::memory_order_acquire);
      const uint64_t payload = e.payload.load(std::memory_order_relaxed);
      parent->lock.CheckOrRestart(pv, &restart);
      if (restart) {
        retry = true;
        break;
      }
      if (type != kChild) return;  // path got shallower; nothing to rebuild
      Node* child = reinterpret_cast<Node*>(payload);
      uint64_t cv = child->lock.ReadLockOrRestart(&restart);
      if (restart) {
        retry = true;
        break;
      }
      parent->lock.CheckOrRestart(pv, &restart);
      if (restart) {
        retry = true;
        break;
      }
      parent = child;
      pv = cv;
    }
    if (retry) continue;
    Entry& e = parent->entries[parent->PredictSlot(key)];
    const uint8_t type = e.type.load(std::memory_order_acquire);
    const uint64_t payload = e.payload.load(std::memory_order_relaxed);
    parent->lock.CheckOrRestart(pv, &restart);
    if (restart) continue;
    if (type != kChild) return;
    parent->lock.UpgradeToWriteLockOrRestart(pv, &restart);
    if (restart) continue;
    // The anchor entry is frozen: collect the whole subtree, retire its
    // nodes, and install a freshly built (flat) replacement.
    std::vector<std::pair<Key, Value>> data;
    CollectAndObsolete(reinterpret_cast<Node*>(payload), &data);
    std::sort(data.begin(), data.end());
    if (data.empty()) {
      e.type.store(kEmpty, std::memory_order_release);
    } else if (data.size() == 1) {
      e.key.store(data[0].first, std::memory_order_relaxed);
      e.payload.store(data[0].second, std::memory_order_relaxed);
      e.type.store(kData, std::memory_order_release);
    } else {
      std::vector<Key> ks(data.size());
      std::vector<Value> vs(data.size());
      for (size_t i = 0; i < data.size(); ++i) {
        ks[i] = data[i].first;
        vs[i] = data[i].second;
      }
      Node* rebuilt = Build(ks.data(), vs.data(), ks.size(), /*span_mult=*/2.0);
      e.payload.store(reinterpret_cast<uint64_t>(rebuilt), std::memory_order_relaxed);
      e.type.store(kChild, std::memory_order_release);
    }
    parent->lock.WriteUnlock();
    rebuilds_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
}

size_t LippLike::SubtreeBytes(const Node* node) {
  size_t total = sizeof(Node) + node->capacity * sizeof(Entry);
  for (uint32_t i = 0; i < node->capacity; ++i) {
    if (node->entries[i].type.load(std::memory_order_relaxed) == kChild) {
      total += SubtreeBytes(reinterpret_cast<const Node*>(
          node->entries[i].payload.load(std::memory_order_relaxed)));
    }
  }
  return total;
}

size_t LippLike::SubtreeDepth(const Node* node) {
  size_t depth = 1;
  for (uint32_t i = 0; i < node->capacity; ++i) {
    if (node->entries[i].type.load(std::memory_order_relaxed) == kChild) {
      const size_t d = 1 + SubtreeDepth(reinterpret_cast<const Node*>(
                               node->entries[i].payload.load(std::memory_order_relaxed)));
      if (d > depth) depth = d;
    }
  }
  return depth;
}

size_t LippLike::MemoryUsage() const {
  return root_ == nullptr ? 0 : SubtreeBytes(root_);
}

size_t LippLike::Depth() const { return root_ == nullptr ? 0 : SubtreeDepth(root_); }

}  // namespace alt
