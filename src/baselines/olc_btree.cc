#include "baselines/olc_btree.h"

#include <algorithm>
#include <cassert>

namespace alt {

OlcBTree::OlcBTree() { root_.store(new LeafNode(), std::memory_order_release); }

OlcBTree::~OlcBTree() { DeleteSubtree(root_.load(std::memory_order_acquire)); }

void OlcBTree::DeleteSubtree(Node* node) {
  if (node->is_leaf) {
    delete static_cast<LeafNode*>(node);
    return;
  }
  auto* inner = static_cast<Inner*>(node);
  const int n = inner->count.load(std::memory_order_relaxed);
  for (int i = 0; i <= n; ++i) {
    DeleteSubtree(inner->children[i].load(std::memory_order_relaxed));
  }
  delete inner;
}

size_t OlcBTree::SubtreeBytes(const Node* node) {
  if (node->is_leaf) return sizeof(LeafNode);
  const auto* inner = static_cast<const Inner*>(node);
  size_t total = sizeof(Inner);
  const int n = inner->count.load(std::memory_order_relaxed);
  for (int i = 0; i <= n; ++i) {
    total += SubtreeBytes(inner->children[i].load(std::memory_order_relaxed));
  }
  return total;
}

size_t OlcBTree::MemoryUsage() const {
  return SubtreeBytes(root_.load(std::memory_order_acquire));
}

size_t OlcBTree::Height() const {
  size_t h = 1;
  const Node* node = root_.load(std::memory_order_acquire);
  while (!node->is_leaf) {
    node = static_cast<const Inner*>(node)->children[0].load(std::memory_order_acquire);
    ++h;
  }
  return h;
}

Status OlcBTree::BulkLoad(const Key* keys, const Value* values, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && keys[i] <= keys[i - 1]) {
      return Status::InvalidArgument("keys must be sorted and duplicate-free");
    }
    Insert(keys[i], values[i]);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Splits (called mid-descent; every split restarts the operation)
// ---------------------------------------------------------------------------

void OlcBTree::SplitRoot(Node* node, uint64_t v, bool* restarted) ALT_OPTIMISTIC_PATH {
  *restarted = true;  // the caller always restarts after a (attempted) split
  bool fail = false;
  uint64_t mv = meta_lock_.ReadLockOrRestart(&fail);
  if (fail) return;
  if (root_.load(std::memory_order_acquire) != node) return;
  meta_lock_.UpgradeToWriteLockOrRestart(mv, &fail);
  if (fail) return;
  node->lock.UpgradeToWriteLockOrRestart(v, &fail);
  if (fail) {
    meta_lock_.WriteUnlock();
    return;
  }
  auto* new_root = new Inner();
  if (node->is_leaf) {
    auto* leaf = static_cast<LeafNode*>(node);
    auto* right = new LeafNode();
    const int n = leaf->count.load(std::memory_order_relaxed);
    const int mid = n / 2;
    for (int i = mid; i < n; ++i) {
      right->keys[i - mid] = leaf->keys[i];
      right->values[i - mid].store(leaf->values[i].load(std::memory_order_relaxed),
                                   std::memory_order_relaxed);
    }
    right->count.store(static_cast<uint16_t>(n - mid), std::memory_order_relaxed);
    right->next.store(leaf->next.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    leaf->count.store(static_cast<uint16_t>(mid), std::memory_order_release);
    leaf->next.store(right, std::memory_order_release);
    new_root->keys[0] = right->keys[0];
    new_root->children[0].store(leaf, std::memory_order_relaxed);
    new_root->children[1].store(right, std::memory_order_relaxed);
  } else {
    auto* inner = static_cast<Inner*>(node);
    auto* right = new Inner();
    const int n = inner->count.load(std::memory_order_relaxed);
    const int mid = n / 2;
    const Key sep = inner->keys[mid];
    for (int i = mid + 1; i < n; ++i) right->keys[i - mid - 1] = inner->keys[i];
    for (int i = mid + 1; i <= n; ++i) {
      right->children[i - mid - 1].store(
          inner->children[i].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    right->count.store(static_cast<uint16_t>(n - mid - 1), std::memory_order_relaxed);
    inner->count.store(static_cast<uint16_t>(mid), std::memory_order_release);
    new_root->keys[0] = sep;
    new_root->children[0].store(inner, std::memory_order_relaxed);
    new_root->children[1].store(right, std::memory_order_relaxed);
  }
  new_root->count.store(1, std::memory_order_relaxed);
  root_.store(new_root, std::memory_order_release);
  node->lock.WriteUnlock();
  meta_lock_.WriteUnlock();
}

// OLC escape: conditional upgrades (UpgradeToWriteLockOrRestart) against the
// versions observed by the caller; any mismatch restarts the insert.
void OlcBTree::SplitChild(Inner* parent, uint64_t pv, Node* child, uint64_t cv,
                          bool* restarted) ALT_OPTIMISTIC_PATH {
  *restarted = true;
  bool fail = false;
  parent->lock.UpgradeToWriteLockOrRestart(pv, &fail);
  if (fail) return;
  child->lock.UpgradeToWriteLockOrRestart(cv, &fail);
  if (fail) {
    parent->lock.WriteUnlock();
    return;
  }
  Key sep;
  Node* right_node;
  if (child->is_leaf) {
    auto* leaf = static_cast<LeafNode*>(child);
    auto* right = new LeafNode();
    const int n = leaf->count.load(std::memory_order_relaxed);
    const int mid = n / 2;
    for (int i = mid; i < n; ++i) {
      right->keys[i - mid] = leaf->keys[i];
      right->values[i - mid].store(leaf->values[i].load(std::memory_order_relaxed),
                                   std::memory_order_relaxed);
    }
    right->count.store(static_cast<uint16_t>(n - mid), std::memory_order_relaxed);
    right->next.store(leaf->next.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    leaf->count.store(static_cast<uint16_t>(mid), std::memory_order_release);
    leaf->next.store(right, std::memory_order_release);
    sep = right->keys[0];
    right_node = right;
  } else {
    auto* inner = static_cast<Inner*>(child);
    auto* right = new Inner();
    const int n = inner->count.load(std::memory_order_relaxed);
    const int mid = n / 2;
    sep = inner->keys[mid];
    for (int i = mid + 1; i < n; ++i) right->keys[i - mid - 1] = inner->keys[i];
    for (int i = mid + 1; i <= n; ++i) {
      right->children[i - mid - 1].store(
          inner->children[i].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    right->count.store(static_cast<uint16_t>(n - mid - 1), std::memory_order_relaxed);
    inner->count.store(static_cast<uint16_t>(mid), std::memory_order_release);
    right_node = right;
  }
  // Insert (sep, right_node) into the parent, which has room (eager splits).
  const int pn = parent->count.load(std::memory_order_relaxed);
  assert(pn < kInnerFanout - 1);
  int pos = 0;
  while (pos < pn && parent->keys[pos] < sep) ++pos;
  for (int i = pn; i > pos; --i) {
    parent->keys[i] = parent->keys[i - 1];
    parent->children[i + 1].store(parent->children[i].load(std::memory_order_relaxed),
                                  std::memory_order_relaxed);
  }
  parent->keys[pos] = sep;
  parent->children[pos + 1].store(right_node, std::memory_order_release);
  parent->count.store(static_cast<uint16_t>(pn + 1), std::memory_order_release);
  child->lock.WriteUnlock();
  parent->lock.WriteUnlock();
}

// ---------------------------------------------------------------------------
// Point operations
// ---------------------------------------------------------------------------

bool OlcBTree::Lookup(Key key, Value* out, ServedBy*) const {
  for (;;) {
    bool restart = false;
    uint64_t mv = meta_lock_.ReadLockOrRestart(&restart);
    Node* node = root_.load(std::memory_order_acquire);
    uint64_t v = node->lock.ReadLockOrRestart(&restart);
    meta_lock_.CheckOrRestart(mv, &restart);
    if (restart) continue;
    bool done = false;
    bool found = false;
    while (!done) {
      if (node->is_leaf) {
        auto* leaf = static_cast<LeafNode*>(node);
        const int pos = leaf->LowerBound(key);
        Value val = 0;
        bool hit = false;
        if (pos < leaf->count.load(std::memory_order_relaxed) &&
            leaf->keys[pos] == key) {
          val = leaf->values[pos].load(std::memory_order_relaxed);
          hit = true;
        }
        leaf->lock.CheckOrRestart(v, &restart);
        if (restart) break;
        if (hit) *out = val;
        found = hit;
        done = true;
        break;
      }
      auto* inner = static_cast<Inner*>(node);
      const int idx = inner->ChildIndex(key);
      Node* child = inner->children[idx].load(std::memory_order_acquire);
      inner->lock.CheckOrRestart(v, &restart);
      if (restart) break;
      uint64_t cv = child->lock.ReadLockOrRestart(&restart);
      if (restart) break;
      inner->lock.CheckOrRestart(v, &restart);
      if (restart) break;
      node = child;
      v = cv;
    }
    if (!restart) return found;
  }
}

// OLC escape: read-lock coupling (ReadLockOrRestart/CheckOrRestart) with
// conditional write upgrades; every mismatch restarts from the root.
OlcBTree::Op OlcBTree::InsertImpl(Key key, Value value) ALT_OPTIMISTIC_PATH {
  bool restart = false;
  uint64_t mv = meta_lock_.ReadLockOrRestart(&restart);
  Node* node = root_.load(std::memory_order_acquire);
  uint64_t v = node->lock.ReadLockOrRestart(&restart);
  meta_lock_.CheckOrRestart(mv, &restart);
  if (restart) return Op::kRestart;

  // Eager root split keeps the descent invariant "parent has room".
  const bool root_full = node->is_leaf ? static_cast<LeafNode*>(node)->IsFull()
                                       : static_cast<Inner*>(node)->IsFull();
  if (root_full) {
    bool restarted = false;
    SplitRoot(node, v, &restarted);
    return Op::kRestart;
  }

  while (!node->is_leaf) {
    auto* inner = static_cast<Inner*>(node);
    const int idx = inner->ChildIndex(key);
    Node* child = inner->children[idx].load(std::memory_order_acquire);
    inner->lock.CheckOrRestart(v, &restart);
    if (restart) return Op::kRestart;
    uint64_t cv = child->lock.ReadLockOrRestart(&restart);
    if (restart) return Op::kRestart;
    inner->lock.CheckOrRestart(v, &restart);
    if (restart) return Op::kRestart;
    const bool child_full = child->is_leaf ? static_cast<LeafNode*>(child)->IsFull()
                                           : static_cast<Inner*>(child)->IsFull();
    if (child_full) {
      bool restarted = false;
      SplitChild(inner, v, child, cv, &restarted);
      return Op::kRestart;
    }
    node = child;
    v = cv;
  }

  auto* leaf = static_cast<LeafNode*>(node);
  const int pos = leaf->LowerBound(key);
  const int n = leaf->count.load(std::memory_order_relaxed);
  const bool exists = pos < n && leaf->keys[pos] == key;
  leaf->lock.CheckOrRestart(v, &restart);
  if (restart) return Op::kRestart;
  if (exists) return Op::kExists;
  leaf->lock.UpgradeToWriteLockOrRestart(v, &restart);
  if (restart) return Op::kRestart;
  for (int i = n; i > pos; --i) {
    leaf->keys[i] = leaf->keys[i - 1];
    leaf->values[i].store(leaf->values[i - 1].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  }
  leaf->keys[pos] = key;
  leaf->values[pos].store(value, std::memory_order_relaxed);
  leaf->count.store(static_cast<uint16_t>(n + 1), std::memory_order_release);
  leaf->lock.WriteUnlock();
  return Op::kDone;
}

bool OlcBTree::Insert(Key key, Value value, ServedBy*) {
  for (;;) {
    const Op r = InsertImpl(key, value);
    if (r == Op::kDone) {
      size_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    if (r == Op::kExists) return false;
  }
}

// Same restart-validated OLC coupling as InsertImpl.
bool OlcBTree::Update(Key key, Value value, ServedBy*) ALT_OPTIMISTIC_PATH {
  for (;;) {
    bool restart = false;
    uint64_t mv = meta_lock_.ReadLockOrRestart(&restart);
    Node* node = root_.load(std::memory_order_acquire);
    uint64_t v = node->lock.ReadLockOrRestart(&restart);
    meta_lock_.CheckOrRestart(mv, &restart);
    if (restart) continue;
    while (!restart && !node->is_leaf) {
      auto* inner = static_cast<Inner*>(node);
      Node* child = inner->children[inner->ChildIndex(key)].load(
          std::memory_order_acquire);
      inner->lock.CheckOrRestart(v, &restart);
      if (restart) break;
      uint64_t cv = child->lock.ReadLockOrRestart(&restart);
      if (restart) break;
      inner->lock.CheckOrRestart(v, &restart);
      if (restart) break;
      node = child;
      v = cv;
    }
    if (restart) continue;
    auto* leaf = static_cast<LeafNode*>(node);
    const int pos = leaf->LowerBound(key);
    const bool hit =
        pos < leaf->count.load(std::memory_order_relaxed) && leaf->keys[pos] == key;
    if (!hit) {
      leaf->lock.CheckOrRestart(v, &restart);
      if (restart) continue;
      return false;
    }
    leaf->lock.UpgradeToWriteLockOrRestart(v, &restart);
    if (restart) continue;
    leaf->values[pos].store(value, std::memory_order_relaxed);
    leaf->lock.WriteUnlock();
    return true;
  }
}

// Same restart-validated OLC coupling as InsertImpl.
OlcBTree::Op OlcBTree::RemoveImpl(Key key) ALT_OPTIMISTIC_PATH {
  bool restart = false;
  uint64_t mv = meta_lock_.ReadLockOrRestart(&restart);
  Node* node = root_.load(std::memory_order_acquire);
  uint64_t v = node->lock.ReadLockOrRestart(&restart);
  meta_lock_.CheckOrRestart(mv, &restart);
  if (restart) return Op::kRestart;
  while (!node->is_leaf) {
    auto* inner = static_cast<Inner*>(node);
    Node* child =
        inner->children[inner->ChildIndex(key)].load(std::memory_order_acquire);
    inner->lock.CheckOrRestart(v, &restart);
    if (restart) return Op::kRestart;
    uint64_t cv = child->lock.ReadLockOrRestart(&restart);
    if (restart) return Op::kRestart;
    inner->lock.CheckOrRestart(v, &restart);
    if (restart) return Op::kRestart;
    node = child;
    v = cv;
  }
  auto* leaf = static_cast<LeafNode*>(node);
  const int pos = leaf->LowerBound(key);
  const int n = leaf->count.load(std::memory_order_relaxed);
  const bool hit = pos < n && leaf->keys[pos] == key;
  leaf->lock.CheckOrRestart(v, &restart);
  if (restart) return Op::kRestart;
  if (!hit) return Op::kNotFound;
  leaf->lock.UpgradeToWriteLockOrRestart(v, &restart);
  if (restart) return Op::kRestart;
  // Lazy removal: shift left within the leaf; empty leaves linger (no
  // underflow merging, see class comment).
  for (int i = pos; i < n - 1; ++i) {
    leaf->keys[i] = leaf->keys[i + 1];
    leaf->values[i].store(leaf->values[i + 1].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  }
  leaf->count.store(static_cast<uint16_t>(n - 1), std::memory_order_release);
  leaf->lock.WriteUnlock();
  return Op::kDone;
}

bool OlcBTree::Remove(Key key, ServedBy*) {
  for (;;) {
    const Op r = RemoveImpl(key);
    if (r == Op::kDone) {
      size_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
    if (r == Op::kNotFound) return false;
  }
}

size_t OlcBTree::Scan(Key start, size_t count,
                      std::vector<std::pair<Key, Value>>* out) const {
  out->clear();
  if (count == 0) return 0;
  Key resume = start;
  for (;;) {
    // Descend to the leaf covering `resume`.
    bool restart = false;
    uint64_t mv = meta_lock_.ReadLockOrRestart(&restart);
    Node* node = root_.load(std::memory_order_acquire);
    uint64_t v = node->lock.ReadLockOrRestart(&restart);
    meta_lock_.CheckOrRestart(mv, &restart);
    if (restart) continue;
    while (!restart && !node->is_leaf) {
      auto* inner = static_cast<Inner*>(node);
      Node* child = inner->children[inner->ChildIndex(resume)].load(
          std::memory_order_acquire);
      inner->lock.CheckOrRestart(v, &restart);
      if (restart) break;
      uint64_t cv = child->lock.ReadLockOrRestart(&restart);
      if (restart) break;
      inner->lock.CheckOrRestart(v, &restart);
      if (restart) break;
      node = child;
      v = cv;
    }
    if (restart) continue;
    // Walk the leaf chain collecting validated snapshots.
    auto* leaf = static_cast<LeafNode*>(node);
    while (leaf != nullptr && out->size() < count) {
      const size_t checkpoint = out->size();
      const int n = leaf->count.load(std::memory_order_relaxed);
      LeafNode* next = leaf->next.load(std::memory_order_relaxed);
      for (int i = leaf->LowerBound(resume); i < n && out->size() < count; ++i) {
        out->emplace_back(leaf->keys[i],
                          leaf->values[i].load(std::memory_order_relaxed));
      }
      leaf->lock.CheckOrRestart(v, &restart);
      if (restart) {
        out->resize(checkpoint);
        break;  // restart the descent from `resume`
      }
      if (!out->empty()) resume = out->back().first + 1;
      leaf = next;
      if (leaf != nullptr) {
        v = leaf->lock.ReadLockOrRestart(&restart);
        if (restart) break;
      }
    }
    if (!restart) return out->size();
  }
}

}  // namespace alt
