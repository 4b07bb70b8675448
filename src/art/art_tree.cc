#include "art/art_tree.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <new>
#include <vector>

#include "common/aligned_mem.h"
#include "common/epoch.h"
#include "common/prefetch.h"
#include "common/run_parts.h"

namespace alt {
namespace art {

namespace {

// Attempts a hinted operation makes from its hint before it reports
// kNeedRoot; the caller then retries from the root.
constexpr int kMaxHintAttempts = 64;

// ---------------------------------------------------------------------------
// Node helpers. All mutating helpers require the caller to hold the node's
// write lock; read helpers are safe for optimistic readers (who must validate
// the version afterwards).
// ---------------------------------------------------------------------------

// Node4/Node16 share one body per helper: SortedNode<N, T> differs only in N.

template <typename S>
Node* GetSortedChild(const Node* n, uint8_t byte) {
  auto* p = static_cast<const S*>(n);
  int cnt = p->num_children.load(std::memory_order_relaxed);
  if (cnt > S::kCapacity) cnt = S::kCapacity;
  for (int i = 0; i < cnt; ++i) {
    if (p->keys[i].load(std::memory_order_relaxed) == byte) {
      return p->children[i].load(std::memory_order_acquire);
    }
  }
  return nullptr;
}

template <typename S>
void AddSortedChild(Node* n, uint8_t byte, Node* child) {
  auto* p = static_cast<S*>(n);
  const int cnt = p->num_children.load(std::memory_order_relaxed);
  int pos = 0;
  while (pos < cnt && p->keys[pos].load(std::memory_order_relaxed) < byte) ++pos;
  for (int i = cnt; i > pos; --i) {
    p->keys[i].store(p->keys[i - 1].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    p->children[i].store(p->children[i - 1].load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  }
  p->keys[pos].store(byte, std::memory_order_relaxed);
  p->children[pos].store(child, std::memory_order_release);
  p->num_children.store(static_cast<uint16_t>(cnt + 1), std::memory_order_release);
}

template <typename S>
void SetSortedChildren(Node* n, const uint8_t* bytes, Node* const* children, int cnt) {
  auto* p = static_cast<S*>(n);
  for (int i = 0; i < cnt; ++i) {
    p->keys[i].store(bytes[i], std::memory_order_relaxed);
    p->children[i].store(children[i], std::memory_order_relaxed);
  }
}

template <typename S>
void ReplaceSortedChild(Node* n, uint8_t byte, Node* child) {
  auto* p = static_cast<S*>(n);
  const int cnt = p->num_children.load(std::memory_order_relaxed);
  for (int i = 0; i < cnt; ++i) {
    if (p->keys[i].load(std::memory_order_relaxed) == byte) {
      p->children[i].store(child, std::memory_order_release);
      return;
    }
  }
  assert(false && "ReplaceChild: byte not present");
}

template <typename S>
void RemoveSortedEntry(Node* n, uint8_t byte) {
  auto* p = static_cast<S*>(n);
  const int cnt = p->num_children.load(std::memory_order_relaxed);
  int pos = 0;
  while (pos < cnt && p->keys[pos].load(std::memory_order_relaxed) != byte) ++pos;
  assert(pos < cnt);
  for (int i = pos; i < cnt - 1; ++i) {
    p->keys[i].store(p->keys[i + 1].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    p->children[i].store(p->children[i + 1].load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  }
  p->children[cnt - 1].store(nullptr, std::memory_order_relaxed);
  p->num_children.store(static_cast<uint16_t>(cnt - 1), std::memory_order_release);
}

// The key array is sorted, so the window [blo, bhi] is a contiguous run.
template <typename S>
int CollectSortedEntries(const Node* n, uint8_t blo, uint8_t bhi, uint8_t* bytes,
                         Node** children) {
  auto* p = static_cast<const S*>(n);
  int cnt = p->num_children.load(std::memory_order_relaxed);
  if (cnt > S::kCapacity) cnt = S::kCapacity;
  int out = 0;
  for (int i = 0; i < cnt; ++i) {
    const uint8_t b = p->keys[i].load(std::memory_order_relaxed);
    if (b < blo) continue;
    if (b > bhi) break;
    bytes[out] = b;
    children[out++] = p->children[i].load(std::memory_order_acquire);
  }
  return out;
}

Node* GetChild(const Node* n, uint8_t byte) {
  switch (n->type) {
    case NodeType::kNode4: return GetSortedChild<Node4>(n, byte);
    case NodeType::kNode16: return GetSortedChild<Node16>(n, byte);
    case NodeType::kNode48: {
      auto* p = static_cast<const Node48*>(n);
      uint8_t idx = p->child_index[byte].load(std::memory_order_acquire);
      if (idx == Node48::kEmpty) return nullptr;
      return p->children[idx].load(std::memory_order_acquire);
    }
    case NodeType::kNode256: {
      auto* p = static_cast<const Node256*>(n);
      return p->children[byte].load(std::memory_order_acquire);
    }
  }
  return nullptr;
}

bool IsFull(const Node* n) {
  int cnt = n->num_children.load(std::memory_order_relaxed);
  switch (n->type) {
    case NodeType::kNode4: return cnt >= Node4::kCapacity;
    case NodeType::kNode16: return cnt >= Node16::kCapacity;
    case NodeType::kNode48: return cnt >= 48;
    case NodeType::kNode256: return false;
  }
  return false;
}

// Insert (byte -> child) into a node with spare capacity; keeps Node4/Node16
// key arrays sorted so ordered scans are cheap.
void AddChild(Node* n, uint8_t byte, Node* child) {
  switch (n->type) {
    case NodeType::kNode4: AddSortedChild<Node4>(n, byte, child); return;
    case NodeType::kNode16: AddSortedChild<Node16>(n, byte, child); return;
    case NodeType::kNode48: {
      auto* p = static_cast<Node48*>(n);
      int slot = 0;
      while (p->children[slot].load(std::memory_order_relaxed) != nullptr) ++slot;
      p->children[slot].store(child, std::memory_order_release);
      p->child_index[byte].store(static_cast<uint8_t>(slot), std::memory_order_release);
      n->num_children.fetch_add(1, std::memory_order_release);
      return;
    }
    case NodeType::kNode256: {
      auto* p = static_cast<Node256*>(n);
      p->children[byte].store(child, std::memory_order_release);
      n->num_children.fetch_add(1, std::memory_order_release);
      return;
    }
  }
}

// Give a node that has no children yet the entries (bytes[i] -> children[i]),
// bytes ascending. The node is not yet reachable, so plain stores suffice:
// its publication is the release store of its pointer.
void SetChildren(Node* n, const uint8_t* bytes, Node* const* children, int cnt) {
  switch (n->type) {
    case NodeType::kNode4: SetSortedChildren<Node4>(n, bytes, children, cnt); break;
    case NodeType::kNode16: SetSortedChildren<Node16>(n, bytes, children, cnt); break;
    case NodeType::kNode48: {
      auto* p = static_cast<Node48*>(n);
      for (int i = 0; i < cnt; ++i) {
        p->child_index[bytes[i]].store(static_cast<uint8_t>(i), std::memory_order_relaxed);
        p->children[i].store(children[i], std::memory_order_relaxed);
      }
      break;
    }
    case NodeType::kNode256: {
      auto* p = static_cast<Node256*>(n);
      for (int i = 0; i < cnt; ++i) {
        p->children[bytes[i]].store(children[i], std::memory_order_relaxed);
      }
      break;
    }
  }
  n->num_children.store(static_cast<uint16_t>(cnt), std::memory_order_relaxed);
}

// Overwrite an existing (byte -> child) mapping.
void ReplaceChild(Node* n, uint8_t byte, Node* child) {
  switch (n->type) {
    case NodeType::kNode4: ReplaceSortedChild<Node4>(n, byte, child); return;
    case NodeType::kNode16: ReplaceSortedChild<Node16>(n, byte, child); return;
    case NodeType::kNode48: {
      auto* p = static_cast<Node48*>(n);
      uint8_t idx = p->child_index[byte].load(std::memory_order_relaxed);
      p->children[idx].store(child, std::memory_order_release);
      return;
    }
    case NodeType::kNode256: {
      auto* p = static_cast<Node256*>(n);
      p->children[byte].store(child, std::memory_order_release);
      return;
    }
  }
}

// Remove the (byte -> child) mapping; requires the entry to exist.
void RemoveChildEntry(Node* n, uint8_t byte) {
  switch (n->type) {
    case NodeType::kNode4: RemoveSortedEntry<Node4>(n, byte); return;
    case NodeType::kNode16: RemoveSortedEntry<Node16>(n, byte); return;
    case NodeType::kNode48: {
      auto* p = static_cast<Node48*>(n);
      uint8_t idx = p->child_index[byte].load(std::memory_order_relaxed);
      assert(idx != Node48::kEmpty);
      p->child_index[byte].store(Node48::kEmpty, std::memory_order_release);
      p->children[idx].store(nullptr, std::memory_order_relaxed);
      n->num_children.fetch_sub(1, std::memory_order_release);
      return;
    }
    case NodeType::kNode256: {
      auto* p = static_cast<Node256*>(n);
      p->children[byte].store(nullptr, std::memory_order_release);
      n->num_children.fetch_sub(1, std::memory_order_release);
      return;
    }
  }
}

// Copy the (byte, child) entries of `n` with blo <= byte <= bhi into caller
// arrays in byte order; returns the count. Only the window's cells are read,
// so a scan never touches children it cannot use.
int CollectEntries(const Node* n, uint8_t* bytes, Node** children, uint8_t blo = 0,
                   uint8_t bhi = 0xFF) {
  switch (n->type) {
    case NodeType::kNode4:
      return CollectSortedEntries<Node4>(n, blo, bhi, bytes, children);
    case NodeType::kNode16:
      return CollectSortedEntries<Node16>(n, blo, bhi, bytes, children);
    case NodeType::kNode48: {
      auto* p = static_cast<const Node48*>(n);
      int out = 0;
      for (int b = blo; b <= bhi; ++b) {
        const uint8_t idx = p->child_index[b].load(std::memory_order_acquire);
        if (idx == Node48::kEmpty) continue;
        Node* c = p->children[idx].load(std::memory_order_acquire);
        if (c == nullptr) continue;
        bytes[out] = static_cast<uint8_t>(b);
        children[out++] = c;
      }
      return out;
    }
    case NodeType::kNode256: {
      auto* p = static_cast<const Node256*>(n);
      int out = 0;
      for (int b = blo; b <= bhi; ++b) {
        Node* c = p->children[b].load(std::memory_order_acquire);
        if (c == nullptr) continue;
        bytes[out] = static_cast<uint8_t>(b);
        children[out++] = c;
      }
      return out;
    }
  }
  return 0;
}

// The single remaining child of a node with num_children == 1.
Node* GetOnlyChild(const Node* n, uint8_t* byte_out) {
  uint8_t bytes[256];
  Node* children[256];
  if (CollectEntries(n, bytes, children) == 0) return nullptr;
  *byte_out = bytes[0];
  return children[0];
}

// Mask of key bytes [0, n): the bytes a node at branch depth n has fixed.
Key BytesAbove(int n) { return n == 0 ? 0 : ~Key{0} << (8 * (kKeyBytes - n)); }

void CopyHeader(Node* dst, const Node* src) {
  dst->prefix_word.store(src->prefix_word.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  dst->prefix_len.store(src->prefix_len.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  dst->match_level.store(src->match_level.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
}

// Allocate the next-size node, copy entries + header, return it WRITE-LOCKED so
// it cannot be modified by other threads until the caller publishes + unlocks.
Node* Grow(Node* n) {
  uint8_t bytes[256];
  Node* children[256];
  const int cnt = CollectEntries(n, bytes, children);
  Node* bigger = nullptr;
  switch (n->type) {
    case NodeType::kNode4: bigger = new Node16(); break;
    case NodeType::kNode16: bigger = new Node48(); break;
    case NodeType::kNode48: bigger = new Node256(); break;
    case NodeType::kNode256: assert(false && "Node256 cannot grow"); return nullptr;
  }
  bigger->lock.InitLocked();
  CopyHeader(bigger, n);
  SetChildren(bigger, bytes, children, cnt);
  return bigger;
}

// Allocate the next smaller node minus the child keyed `skip_byte`; returns it
// write-locked (same publication discipline as Grow).
Node* ShrinkWithout(Node* n, uint8_t skip_byte) {
  uint8_t bytes[256];
  Node* children[256];
  const int cnt = CollectEntries(n, bytes, children);
  Node* smaller = nullptr;
  switch (n->type) {
    case NodeType::kNode16: smaller = new Node4(); break;
    case NodeType::kNode48: smaller = new Node16(); break;
    case NodeType::kNode256: smaller = new Node48(); break;
    case NodeType::kNode4: assert(false && "Node4 cannot shrink"); return nullptr;
  }
  smaller->lock.InitLocked();
  CopyHeader(smaller, n);
  int kept = 0;
  for (int i = 0; i < cnt; ++i) {
    if (bytes[i] == skip_byte) continue;
    bytes[kept] = bytes[i];
    children[kept++] = children[i];
  }
  SetChildren(smaller, bytes, children, kept);
  return smaller;
}

// Shrink threshold: shrink only when clearly below the smaller capacity so a
// single insert does not immediately grow again (hysteresis).
bool ShouldShrink(const Node* n, int cnt_after) {
  switch (n->type) {
    case NodeType::kNode4: return false;
    case NodeType::kNode16: return cnt_after <= 3;
    case NodeType::kNode48: return cnt_after <= 12;
    case NodeType::kNode256: return cnt_after <= 40;
  }
  return false;
}

void DeleteNode(Node* n) {
  switch (n->type) {
    case NodeType::kNode4: delete static_cast<Node4*>(n); return;
    case NodeType::kNode16: delete static_cast<Node16*>(n); return;
    case NodeType::kNode48: delete static_cast<Node48*>(n); return;
    case NodeType::kNode256: delete static_cast<Node256*>(n); return;
  }
}

bool InRegion(const Slab* region, const void* p) {
  return region != nullptr && region->Contains(p);
}

// Bytes a node takes in the build region: whole cache lines, so each region
// node starts a line of its own.
size_t RegionNodeBytes(NodeType t) {
  return (NodeBytes(t) + kCacheLineBytes - 1) & ~(kCacheLineBytes - 1);
}

// Frees the heap nodes and leaves of the subtree; region memory stays with
// the region, but heap nodes that inserts hung below it are found through it.
void DeleteSubtree(Node* n, const Slab* region) {
  if (IsLeaf(n)) {
    if (!InRegion(region, ToLeaf(n))) delete ToLeaf(n);
    return;
  }
  uint8_t bytes[256];
  Node* children[256];
  const int cnt = CollectEntries(n, bytes, children);
  for (int i = 0; i < cnt; ++i) DeleteSubtree(children[i], region);
  if (!InRegion(region, n)) DeleteNode(n);
}

// ---- Sorted build ------------------------------------------------------------

// The smallest node type that holds `children` entries: the type an
// insert-only tree has grown a node to once it has that many children.
NodeType TypeFor(int children) {
  if (children <= Node4::kCapacity) return NodeType::kNode4;
  if (children <= Node16::kCapacity) return NodeType::kNode16;
  if (children <= 48) return NodeType::kNode48;
  return NodeType::kNode256;
}

// The runs of the ascending keys [lo, hi) that share their byte at `branch`,
// found by binary search: run i is [starts[i], starts[i + 1]) and has byte
// bytes[i]. The loader's top-down split uses this; the parts build
// bottom-up (WalkSubtree).
struct ChildRuns {
  int count = 0;
  uint8_t bytes[256];
  size_t starts[257];

  ChildRuns(const Key* keys, size_t lo, size_t hi, int branch) {
    const Key below = branch + 1 < kKeyBytes ? ~Key{0} >> (8 * (branch + 1)) : 0;
    for (size_t i = lo; i < hi;) {
      bytes[count] = KeyByte(keys[i], branch);
      starts[count++] = i;
      i = static_cast<size_t>(std::upper_bound(keys + i, keys + hi, keys[i] | below) - keys);
    }
    starts[count] = hi;
  }
};

// Place a `type` node at `p`, with the compressed path `key`'s bytes
// [depth, depth + prefix_len).
Node* PlaceNode(NodeType type, int depth, int prefix_len, Key key, void* p) {
  Node* node = nullptr;
  switch (type) {
    case NodeType::kNode4: node = new (p) Node4(); break;
    case NodeType::kNode16: node = new (p) Node16(); break;
    case NodeType::kNode48: node = new (p) Node48(); break;
    case NodeType::kNode256: node = new (p) Node256(); break;
  }
  node->match_level.store(static_cast<uint8_t>(depth), std::memory_order_relaxed);
  node->SetPrefix(key, depth, prefix_len);
  return node;
}

// The key byte where two distinct keys first differ.
int DivergeByte(Key a, Key b) { return std::countl_zero(a ^ b) / 8; }

// A node of WalkSubtree whose last child is not known yet.
struct OpenNode {
  int branch;    // the key byte it branches on
  size_t first;  // index of its first key
  int children;
  uint8_t bytes[256];
  Node* child[256];  // only when placing
};

// One bottom-up pass over the ascending keys [lo, hi), entered at key byte
// `depth`, in O(hi - lo): adjacent keys that first differ at byte b are
// children of one node branching on b, so a stack of the open nodes, at
// most one per key byte, finds every node with its final child count.
// Each node adds its region bytes to *used. Without kPlace that is all: the
// counting pass. With kPlace, each node is placed at nodes + *used when its
// last child is known (post-order), the leaf of key i at leaves[i], so a
// region's leaves lie in key order, and the subtree's root is returned.
template <bool kPlace>
Node* WalkSubtree(const Key* keys, const Value* values, size_t lo, size_t hi, int depth,
                  char* nodes, size_t* used, Leaf* leaves) {
  auto leaf = [&](size_t i) -> Node* {
    if constexpr (kPlace) return TagLeaf(new (&leaves[i]) Leaf(keys[i], values[i]));
    return nullptr;
  };
  OpenNode open[kKeyBytes];
  int size = 0;
  Node* pending = leaf(lo);  // the subtree ending at key i - 1
  size_t pending_first = lo;
  for (size_t i = lo + 1;; ++i) {
    // The byte keys i - 1 and i branch on; past the end, one above every
    // node of the subtree, which closes them all.
    const int b = i < hi ? DivergeByte(keys[i - 1], keys[i]) : depth - 1;
    while (size > 0 && open[size - 1].branch > b) {
      OpenNode& n = open[--size];
      if constexpr (kPlace) {
        n.bytes[n.children] = KeyByte(keys[pending_first], n.branch);
        n.child[n.children] = pending;
      }
      ++n.children;
      // Its parent branches on the byte below it on the stack, or on b.
      const int entry = std::max(size > 0 ? open[size - 1].branch : b, b) + 1;
      const NodeType type = TypeFor(n.children);
      if constexpr (kPlace) {
        pending = PlaceNode(type, entry, n.branch - entry, keys[n.first], nodes + *used);
        SetChildren(pending, n.bytes, n.child, n.children);
      }
      *used += RegionNodeBytes(type);
      pending_first = n.first;
    }
    if (i == hi) return pending;
    if (size == 0 || open[size - 1].branch < b) {
      open[size].branch = b;
      open[size].first = pending_first;
      open[size++].children = 0;
    }
    OpenNode& n = open[size - 1];
    if constexpr (kPlace) {
      n.bytes[n.children] = KeyByte(keys[pending_first], b);
      n.child[n.children] = pending;
    }
    ++n.children;
    pending = leaf(i);
    pending_first = i;
  }
}

// The counting pass: region bytes of the inner nodes of the subtree over
// [lo, hi). The same walk as the build, placing nothing.
size_t CountNodeBytes(const Key* keys, size_t lo, size_t hi, int depth) {
  size_t used = 0;
  WalkSubtree<false>(keys, nullptr, lo, hi, depth, nullptr, &used, nullptr);
  return used;
}

// Runs per part: several, so a lopsided split at the top of the tree still
// spreads over the parts.
constexpr size_t kRunsPerPart = 4;

// What the loading thread decides before any part runs: the top nodes it
// places itself, the runs of keys whose subtrees the parts build, and the
// order to link them in.
struct BuildPlan {
  struct Top {
    NodeType type;
    int depth;
    int prefix_len;
    Key key;  // a key below it: supplies its compressed path
    Node* node;
  };
  struct Run {
    size_t lo, hi;
    int depth;
    size_t node_bytes;  // the counting pass's result
    Node* built;
  };
  static constexpr uint32_t kRoot = ~uint32_t{0};
  struct Link {
    uint32_t parent;  // index into tops, or kRoot
    uint32_t child;   // index into tops or runs
    bool top;
    uint8_t byte;
  };

  std::vector<Top> tops;
  std::vector<Run> runs;    // ascending by key
  std::vector<Link> links;  // pre-order: each parent's children in byte order

  // Split [lo, hi) until each run holds at most `limit` keys.
  void Split(const Key* keys, size_t lo, size_t hi, int depth, uint32_t parent,
             uint8_t byte, size_t limit) {
    if (hi - lo <= limit) {
      links.push_back({parent, static_cast<uint32_t>(runs.size()), false, byte});
      runs.push_back({lo, hi, depth, 0, nullptr});
      return;
    }
    // The node over [lo, hi): its compressed path is the keys' shared bytes
    // from `depth` on, where the first and last key still agree.
    int prefix_len = 0;
    while (KeyByte(keys[lo], depth + prefix_len) == KeyByte(keys[hi - 1], depth + prefix_len)) {
      ++prefix_len;
    }
    const ChildRuns children(keys, lo, hi, depth + prefix_len);
    const auto self = static_cast<uint32_t>(tops.size());
    links.push_back({parent, self, true, byte});
    tops.push_back({TypeFor(children.count), depth, prefix_len, keys[lo], nullptr});
    for (int c = 0; c < children.count; ++c) {
      Split(keys, children.starts[c], children.starts[c + 1], depth + prefix_len + 1, self,
            children.bytes[c], limit);
    }
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Tree
// ---------------------------------------------------------------------------

ArtTree::ArtTree(EpochManager* epoch)
    : epoch_(epoch != nullptr ? epoch : &EpochManager::Global()) {
  root_ = new Node256();
}

ArtTree::~ArtTree() {
  // Quiescent teardown: free the heap structure directly. Region entries
  // still waiting in the epoch manager (ASan builds) keep the region mapped.
  DeleteSubtree(root_, region_);
  if (region_ != nullptr) region_->Unref();
}

// A region entry is never freed or reused, so an unlinked one needs no grace
// period. Only ASan builds retire it: the epoch manager then poisons it, as
// a freed heap entry would be, and its region reference keeps the mapping
// until that has run. A shared count touched on every retire would cost
// concurrent removes about as much as the remove itself (DESIGN.md §2.4).
void ArtTree::RetireNode(Node* n) {
  if (!InRegion(region_, n)) {
    epoch_->Retire(n, [](void* p) { DeleteNode(static_cast<Node*>(p)); });
  } else if constexpr (kAsanBuild) {
    region_->Ref();
    epoch_->Retire(
        n,
        [](void* p, void* region) {
          static_cast<Slab*>(region)->ReleaseSlice(
              p, RegionNodeBytes(static_cast<Node*>(p)->type));
        },
        region_);
  }
}

void ArtTree::RetireLeaf(Leaf* l) {
  if (!InRegion(region_, l)) {
    epoch_->Retire(l, [](void* p) { delete static_cast<Leaf*>(p); });
  } else if constexpr (kAsanBuild) {
    region_->Ref();
    epoch_->Retire(
        l, [](void* p, void* region) { static_cast<Slab*>(region)->ReleaseSlice(p, sizeof(Leaf)); },
        region_);
  }
}

size_t ArtTree::RegionBytes() const { return region_ != nullptr ? region_->capacity() : 0; }

// ---- Lookup ----------------------------------------------------------------

ArtTree::OpResult ArtTree::LookupImpl(Node* start, Key key, Value* out, int* steps,
                                      DescentState* ds) const ALT_REQUIRES_EPOCH {
  // Only a stale hint can be obsolete: the root never is.
  if (!DescentInit(start, ds)) return OpResult::kNeedRoot;
  for (;;) {
    switch (DescentStep(ds, key, out, steps)) {
      case StepResult::kFound: return OpResult::kDone;
      case StepResult::kNotFound: return OpResult::kNotFound;
      case StepResult::kRestart: return OpResult::kRestart;
      case StepResult::kStepped: break;
    }
  }
}

bool ArtTree::Lookup(Key key, Value* out, int* steps) const {
  ALT_ASSERT_EPOCH_PINNED("ArtTree::Lookup", epoch_);
  for (;;) {
    DescentState ds;
    const OpResult r = LookupImpl(root_, key, out, steps, &ds);
    if (r == OpResult::kDone) return true;
    if (r == OpResult::kNotFound) return false;
  }
}

HintOutcome ArtTree::LookupFrom(Node* hint, Key key, Value* out, int* steps) const {
  ALT_ASSERT_EPOCH_PINNED("ArtTree::LookupFrom", epoch_);
  for (int attempt = 0; attempt < kMaxHintAttempts; ++attempt) {
    DescentState ds;
    switch (LookupImpl(hint, key, out, steps, &ds)) {
      case OpResult::kDone: return HintOutcome::kFound;
      case OpResult::kNotFound: return HintOutcome::kNotFound;
      case OpResult::kNeedRoot: return HintOutcome::kNeedRoot;
      default: break;  // kRestart: retry from the hint
    }
  }
  return HintOutcome::kNeedRoot;
}

// ---- Incremental descent (batched read path) -------------------------------

bool ArtTree::DescentInit(Node* start, DescentState* s) const {
  ALT_ASSERT_EPOCH_PINNED("ArtTree::DescentInit", epoch_);
  bool restart = false;
  s->pending = nullptr;
  s->leaf = nullptr;
  s->node = start;
  s->version = start->lock.ReadLockOrRestart(&restart);
  if (restart) return false;  // obsolete start (stale hint)
  s->depth = start->match_level.load(std::memory_order_relaxed);
  return true;
}

StepResult ArtTree::DescentStep(DescentState* s, Key key, Value* out, int* steps) const {
  ALT_ASSERT_EPOCH_PINNED("ArtTree::DescentStep", epoch_);
  bool restart = false;

  // Enter the child selected (and prefetched) by the previous step. This is
  // the second half of the OLC lock coupling: read-lock the child, then
  // re-validate the parent version that produced the pointer.
  if (s->pending != nullptr) {
    Node* child = s->pending;
    s->pending = nullptr;
    if (IsLeaf(child)) {
      Leaf* leaf = ToLeaf(child);
      if (leaf->key != key) return StepResult::kNotFound;
      s->leaf = leaf;
      if (out != nullptr) *out = leaf->value.load(std::memory_order_acquire);
      return StepResult::kFound;
    }
    uint64_t nv = child->lock.ReadLockOrRestart(&restart);
    if (restart) return StepResult::kRestart;
    s->node->lock.CheckOrRestart(s->version, &restart);
    if (restart) return StepResult::kRestart;
    s->node = child;
    s->version = nv;
    s->depth += 1;
  }

  // Process one node: compressed path, then child dispatch. The child is only
  // prefetched here; dereferencing it is the next step's work.
  Node* node = s->node;
  if (steps != nullptr) ++(*steps);
  const int plen = node->prefix_len.load(std::memory_order_relaxed);
  // Only a torn read (an SMO in flight) branches past the last key byte.
  if (s->depth + plen >= kKeyBytes) return StepResult::kRestart;
  if (plen > 0) {
    const uint64_t pword = node->prefix_word.load(std::memory_order_relaxed);
    for (int i = 0; i < plen; ++i) {
      if (Node::PrefixByte(pword, i) != KeyByte(key, s->depth + i)) {
        node->lock.CheckOrRestart(s->version, &restart);
        return restart ? StepResult::kRestart : StepResult::kNotFound;
      }
    }
    s->depth += plen;
  }
  const uint8_t byte = KeyByte(key, s->depth);
  Node* child = GetChild(node, byte);
  node->lock.CheckOrRestart(s->version, &restart);
  if (restart) return StepResult::kRestart;
  if (child == nullptr) return StepResult::kNotFound;
  s->pending = child;
  if (IsLeaf(child)) {
    PrefetchRead(ToLeaf(child));
  } else {
    // Header + the front of the child arrays; Node48/256 child cells beyond
    // the first lines cost at most one extra (in-cache-order) miss.
    PrefetchReadRange(child, 2 * kCacheLineBytes);
  }
  return StepResult::kStepped;
}

// ---- Insert ----------------------------------------------------------------

// OLC writer escape: every node crossing is version-checked (CheckOrRestart)
// and lock acquisition is a conditional upgrade (UpgradeToWriteLockOrRestart);
// any mismatch restarts from `start`.
ArtTree::OpResult ArtTree::InsertImpl(Node* start, Key key,
                                      Value value) ALT_OPTIMISTIC_PATH {
  bool restart = false;
  Node* parent = nullptr;
  uint64_t pv = 0;
  uint8_t pbyte = 0;

  Node* node = start;
  uint64_t v = node->lock.ReadLockOrRestart(&restart);
  if (restart) return (start == root_) ? OpResult::kRestart : OpResult::kNeedRoot;
  int depth = node->match_level.load(std::memory_order_relaxed);

  for (;;) {
    // -- compressed path --------------------------------------------------
    const int plen = node->prefix_len.load(std::memory_order_relaxed);
    if (depth + plen >= kKeyBytes) return OpResult::kRestart;  // torn read
    if (plen > 0) {
      const uint64_t pword = node->prefix_word.load(std::memory_order_relaxed);
      int cpl = 0;
      while (cpl < plen && Node::PrefixByte(pword, cpl) == KeyByte(key, depth + cpl)) ++cpl;
      if (cpl < plen) {
        // Prefix mismatch: extract the shared prefix into a new parent Node4
        // (paper scenario ① when `node` carries a fast pointer).
        node->lock.CheckOrRestart(v, &restart);
        if (restart) return OpResult::kRestart;
        if (parent == nullptr) return OpResult::kNeedRoot;  // hint-based: parent unknown
        parent->lock.UpgradeToWriteLockOrRestart(pv, &restart);
        if (restart) return OpResult::kRestart;
        node->lock.UpgradeToWriteLockOrRestart(v, &restart);
        if (restart) {
          parent->lock.WriteUnlock();
          return OpResult::kRestart;
        }
        auto* np = new Node4();
        np->lock.InitLocked();
        np->prefix_word.store(pword, std::memory_order_relaxed);
        np->prefix_len.store(static_cast<uint8_t>(cpl), std::memory_order_relaxed);
        np->match_level.store(static_cast<uint8_t>(depth), std::memory_order_relaxed);
        const uint8_t node_branch = Node::PrefixByte(pword, cpl);
        const uint8_t key_branch = KeyByte(key, depth + cpl);
        auto* leaf = new Leaf(key, value);
        AddChild(np, node_branch, node);
        AddChild(np, key_branch, TagLeaf(leaf));
        node->ChopPrefix(cpl + 1);
        node->match_level.store(static_cast<uint8_t>(depth + cpl + 1),
                                std::memory_order_relaxed);
        const int32_t slot = node->fp_slot.load(std::memory_order_relaxed);
        if (slot >= 0) {
          node->fp_slot.store(-1, std::memory_order_relaxed);
          np->fp_slot.store(slot, std::memory_order_relaxed);
          if (listener_ != nullptr) listener_->OnPrefixSplit(slot, node, np);
        }
        ReplaceChild(parent, pbyte, np);
        node->lock.WriteUnlock();
        np->lock.WriteUnlock();
        parent->lock.WriteUnlock();
        size_.Add(1);
        return OpResult::kDone;
      }
      depth += plen;
    }

    const uint8_t byte = KeyByte(key, depth);
    Node* child = GetChild(node, byte);
    node->lock.CheckOrRestart(v, &restart);
    if (restart) return OpResult::kRestart;

    if (child == nullptr) {
      if (IsFull(node)) {
        // Node expansion (paper scenario ②): replace with the next size.
        if (parent == nullptr) return OpResult::kNeedRoot;  // hint itself must grow
        parent->lock.UpgradeToWriteLockOrRestart(pv, &restart);
        if (restart) return OpResult::kRestart;
        node->lock.UpgradeToWriteLockOrRestart(v, &restart);
        if (restart) {
          parent->lock.WriteUnlock();
          return OpResult::kRestart;
        }
        Node* bigger = Grow(node);
        auto* leaf = new Leaf(key, value);
        AddChild(bigger, byte, TagLeaf(leaf));
        const int32_t slot = node->fp_slot.load(std::memory_order_relaxed);
        if (slot >= 0) {
          bigger->fp_slot.store(slot, std::memory_order_relaxed);
          if (listener_ != nullptr) listener_->OnNodeReplaced(slot, node, bigger);
        }
        ReplaceChild(parent, pbyte, bigger);
        node->lock.WriteUnlockObsolete();
        RetireNode(node);
        bigger->lock.WriteUnlock();
        parent->lock.WriteUnlock();
        size_.Add(1);
        return OpResult::kDone;
      }
      node->lock.UpgradeToWriteLockOrRestart(v, &restart);
      if (restart) return OpResult::kRestart;
      // Re-check under the lock: another writer may have added `byte` between
      // our optimistic read and the upgrade... impossible: upgrade validated
      // the version, so the optimistic read still holds. Insert directly.
      auto* leaf = new Leaf(key, value);
      AddChild(node, byte, TagLeaf(leaf));
      node->lock.WriteUnlock();
      size_.Add(1);
      return OpResult::kDone;
    }

    if (IsLeaf(child)) {
      Leaf* existing = ToLeaf(child);
      const Key ekey = existing->key;
      node->lock.CheckOrRestart(v, &restart);
      if (restart) return OpResult::kRestart;
      if (ekey == key) return OpResult::kExists;
      // Split the leaf: new Node4 holding the two leaves under their first
      // divergent byte, with the shared bytes as its compressed path.
      node->lock.UpgradeToWriteLockOrRestart(v, &restart);
      if (restart) return OpResult::kRestart;
      const int d2 = depth + 1;
      int cpl = 0;
      while (KeyByte(key, d2 + cpl) == KeyByte(ekey, d2 + cpl)) ++cpl;
      auto* nn = new Node4();
      nn->match_level.store(static_cast<uint8_t>(d2), std::memory_order_relaxed);
      nn->SetPrefix(key, d2, cpl);
      auto* leaf = new Leaf(key, value);
      AddChild(nn, KeyByte(ekey, d2 + cpl), child);
      AddChild(nn, KeyByte(key, d2 + cpl), TagLeaf(leaf));
      ReplaceChild(node, byte, nn);
      node->lock.WriteUnlock();
      size_.Add(1);
      return OpResult::kDone;
    }

    // -- descend with lock coupling ----------------------------------------
    parent = node;
    pv = v;
    pbyte = byte;
    Node* next = child;
    uint64_t nv = next->lock.ReadLockOrRestart(&restart);
    if (restart) return OpResult::kRestart;
    node->lock.CheckOrRestart(v, &restart);
    if (restart) return OpResult::kRestart;
    node = next;
    v = nv;
    depth += 1;
  }
}

bool ArtTree::Insert(Key key, Value value) {
  ALT_ASSERT_EPOCH_PINNED("ArtTree::Insert", epoch_);
  for (;;) {
    OpResult r = InsertImpl(root_, key, value);
    if (r == OpResult::kDone) return true;
    if (r == OpResult::kExists) return false;
  }
}

void ArtTree::BuildSorted(const Key* keys, const Value* values, size_t n, size_t parts) {
  assert(Empty() && region_ == nullptr);
  if (n == 0) return;
  parts = std::max<size_t>(parts, 1);

  // The loader walks the top of the tree until every pending run of keys
  // fits one part's share; the parts count their runs' node bytes.
  BuildPlan plan;
  const size_t limit = std::max<size_t>(1, n / (parts * kRunsPerPart));
  // The root is a fixed Node256 without a compressed path: it branches on
  // the first byte.
  const ChildRuns top(keys, 0, n, 0);
  for (int c = 0; c < top.count; ++c) {
    plan.Split(keys, top.starts[c], top.starts[c + 1], 1, BuildPlan::kRoot, top.bytes[c], limit);
  }
  // Part p builds the runs that start in its key-balanced share.
  std::vector<size_t> first_run(parts + 1, plan.runs.size());
  for (size_t p = 0; p < parts; ++p) {
    first_run[p] = static_cast<size_t>(
        std::partition_point(plan.runs.begin(), plan.runs.end(),
                             [&](const BuildPlan::Run& r) { return r.lo < n * p / parts; }) -
        plan.runs.begin());
  }
  RunParts(parts, [&](size_t p) {
    for (size_t r = first_run[p]; r < first_run[p + 1]; ++r) {
      BuildPlan::Run& run = plan.runs[r];
      run.node_bytes = CountNodeBytes(keys, run.lo, run.hi, run.depth);
    }
  });

  // Region layout: the top nodes, each run's nodes in key order, then one
  // leaf per key in key order. Every node size is a whole number of lines.
  size_t node_bytes = 0;
  for (const BuildPlan::Top& top : plan.tops) node_bytes += RegionNodeBytes(top.type);
  std::vector<size_t> run_offset(plan.runs.size());
  for (size_t r = 0; r < plan.runs.size(); ++r) {
    run_offset[r] = node_bytes;
    node_bytes += plan.runs[r].node_bytes;
  }
  region_ = Slab::Create(node_bytes + n * sizeof(Leaf));
  if (region_ == nullptr) throw std::bad_alloc();
  char* const base = region_->base();
  Leaf* const leaves = reinterpret_cast<Leaf*>(base + node_bytes);

  char* at = base;
  for (BuildPlan::Top& top : plan.tops) {
    top.node = PlaceNode(top.type, top.depth, top.prefix_len, top.key, at);
    at += RegionNodeBytes(top.type);
  }
  RunParts(parts, [&](size_t p) {
    for (size_t r = first_run[p]; r < first_run[p + 1]; ++r) {
      BuildPlan::Run& run = plan.runs[r];
      size_t used = 0;
      run.built = WalkSubtree<true>(keys, values, run.lo, run.hi, run.depth,
                                    base + run_offset[r], &used, leaves);
      assert(used == run.node_bytes);
    }
  });
  // The parts have joined: link their subtrees under the top nodes.
  for (const BuildPlan::Link& link : plan.links) {
    Node* parent = link.parent == BuildPlan::kRoot ? root_ : plan.tops[link.parent].node;
    AddChild(parent, link.byte,
             link.top ? plan.tops[link.child].node : plan.runs[link.child].built);
  }
  size_.Add(static_cast<int64_t>(n));
}

HintOutcome ArtTree::InsertFrom(Node* hint, Key key, Value value) {
  ALT_ASSERT_EPOCH_PINNED("ArtTree::InsertFrom", epoch_);
  for (int attempt = 0; attempt < kMaxHintAttempts; ++attempt) {
    OpResult r = InsertImpl(hint, key, value);
    switch (r) {
      case OpResult::kDone: return HintOutcome::kInserted;
      case OpResult::kExists: return HintOutcome::kExists;
      case OpResult::kNeedRoot: return HintOutcome::kNeedRoot;
      default: break;  // retry from the hint
    }
  }
  return HintOutcome::kNeedRoot;
}

bool ArtTree::Update(Key key, Value value) {
  ALT_ASSERT_EPOCH_PINNED("ArtTree::Update", epoch_);
  for (;;) {
    DescentState ds;
    const OpResult r = LookupImpl(root_, key, nullptr, nullptr, &ds);
    if (r == OpResult::kNotFound) return false;
    if (r != OpResult::kDone) continue;
    ds.leaf->value.store(value, std::memory_order_release);
    // Validate the leaf was still reachable when we stored; else retry so we
    // do not update a detached leaf that a remove already unlinked.
    bool restart = false;
    ds.node->lock.CheckOrRestart(ds.version, &restart);
    if (!restart) return true;
  }
}

// ---- Remove ----------------------------------------------------------------

// Same restart-validated OLC escape as InsertImpl: version checks at every
// crossing, conditional upgrades, restart on mismatch.
ArtTree::OpResult ArtTree::RemoveImpl(Key key, Value* old_value) ALT_OPTIMISTIC_PATH {
  bool restart = false;
  Node* parent = nullptr;
  uint64_t pv = 0;
  uint8_t pbyte = 0;

  Node* node = root_;
  uint64_t v = node->lock.ReadLockOrRestart(&restart);
  if (restart) return OpResult::kRestart;
  int depth = 0;

  for (;;) {
    const int plen = node->prefix_len.load(std::memory_order_relaxed);
    if (depth + plen >= kKeyBytes) return OpResult::kRestart;  // torn read
    if (plen > 0) {
      const uint64_t pword = node->prefix_word.load(std::memory_order_relaxed);
      for (int i = 0; i < plen; ++i) {
        if (Node::PrefixByte(pword, i) != KeyByte(key, depth + i)) {
          node->lock.CheckOrRestart(v, &restart);
          return restart ? OpResult::kRestart : OpResult::kNotFound;
        }
      }
      depth += plen;
    }
    const uint8_t byte = KeyByte(key, depth);
    Node* child = GetChild(node, byte);
    node->lock.CheckOrRestart(v, &restart);
    if (restart) return OpResult::kRestart;
    if (child == nullptr) return OpResult::kNotFound;

    if (IsLeaf(child)) {
      Leaf* leaf = ToLeaf(child);
      const Key ekey = leaf->key;
      node->lock.CheckOrRestart(v, &restart);
      if (restart) return OpResult::kRestart;
      if (ekey != key) return OpResult::kNotFound;
      if (old_value != nullptr) {
        *old_value = leaf->value.load(std::memory_order_acquire);
      }

      const int cnt = node->num_children.load(std::memory_order_relaxed);

      if (cnt == 2 && node != root_) {
        // Merging the node away: its one remaining child absorbs the node's
        // compressed path plus the branch byte.
        if (parent == nullptr) return OpResult::kRestart;
        parent->lock.UpgradeToWriteLockOrRestart(pv, &restart);
        if (restart) return OpResult::kRestart;
        node->lock.UpgradeToWriteLockOrRestart(v, &restart);
        if (restart) {
          parent->lock.WriteUnlock();
          return OpResult::kRestart;
        }
        RemoveChildEntry(node, byte);
        uint8_t sibling_byte = 0;
        Node* sibling = GetOnlyChild(node, &sibling_byte);
        assert(sibling != nullptr);
        if (IsLeaf(sibling)) {
          ReplaceChild(parent, pbyte, sibling);
          const int32_t slot = node->fp_slot.load(std::memory_order_relaxed);
          if (slot >= 0) {
            // The surviving child is a leaf; hand the entry to the parent,
            // which still covers the whole removed subtree's range. The
            // listener decides whether the parent can adopt it.
            node->fp_slot.store(-1, std::memory_order_relaxed);
            if (listener_ != nullptr) listener_->OnNodeRemoved(slot, node, parent);
          }
        } else {
          // Lock the sibling, then prepend node's path + branch byte to it.
          // Safe to spin while holding parent+node: writers acquire locks
          // strictly top-down, so whoever holds the sibling cannot be waiting
          // on locks we hold. It cannot fail: making the sibling obsolete
          // means replacing it, which needs `node`'s lock, held here.
          const bool locked = sibling->lock.WriteLockOrFail();
          assert(locked && "merge sibling obsolete under its parent's lock");
          (void)locked;
          const int nplen = node->prefix_len.load(std::memory_order_relaxed);
          const uint64_t npword = node->prefix_word.load(std::memory_order_relaxed);
          const int splen = sibling->prefix_len.load(std::memory_order_relaxed);
          const uint64_t spword = sibling->prefix_word.load(std::memory_order_relaxed);
          uint64_t w = 0;
          if (nplen > 0) w = npword & (~uint64_t{0} << (8 * (kKeyBytes - nplen)));
          w |= uint64_t{sibling_byte} << (8 * (kKeyBytes - 1 - nplen));
          if (splen > 0) w |= spword >> (8 * (nplen + 1));
          sibling->prefix_word.store(w, std::memory_order_relaxed);
          sibling->prefix_len.store(static_cast<uint8_t>(nplen + 1 + splen),
                                    std::memory_order_relaxed);
          sibling->match_level.store(node->match_level.load(std::memory_order_relaxed),
                                     std::memory_order_relaxed);
          const int32_t slot = node->fp_slot.load(std::memory_order_relaxed);
          if (slot >= 0) {
            // The listener adopts the entry into `sibling` iff it has none.
            node->fp_slot.store(-1, std::memory_order_relaxed);
            if (listener_ != nullptr) listener_->OnNodeRemoved(slot, node, sibling);
          }
          ReplaceChild(parent, pbyte, sibling);
          sibling->lock.WriteUnlock();
        }
        node->lock.WriteUnlockObsolete();
        RetireNode(node);
        RetireLeaf(leaf);
        parent->lock.WriteUnlock();
        size_.Add(-1);
        return OpResult::kDone;
      }

      if (ShouldShrink(node, cnt - 1) && node != root_ && parent != nullptr) {
        parent->lock.UpgradeToWriteLockOrRestart(pv, &restart);
        if (restart) return OpResult::kRestart;
        node->lock.UpgradeToWriteLockOrRestart(v, &restart);
        if (restart) {
          parent->lock.WriteUnlock();
          return OpResult::kRestart;
        }
        Node* smaller = ShrinkWithout(node, byte);
        const int32_t slot = node->fp_slot.load(std::memory_order_relaxed);
        if (slot >= 0) {
          smaller->fp_slot.store(slot, std::memory_order_relaxed);
          if (listener_ != nullptr) listener_->OnNodeReplaced(slot, node, smaller);
        }
        ReplaceChild(parent, pbyte, smaller);
        node->lock.WriteUnlockObsolete();
        RetireNode(node);
        smaller->lock.WriteUnlock();
        parent->lock.WriteUnlock();
        RetireLeaf(leaf);
        size_.Add(-1);
        return OpResult::kDone;
      }

      // Plain removal in place.
      node->lock.UpgradeToWriteLockOrRestart(v, &restart);
      if (restart) return OpResult::kRestart;
      RemoveChildEntry(node, byte);
      node->lock.WriteUnlock();
      RetireLeaf(leaf);
      size_.Add(-1);
      return OpResult::kDone;
    }

    parent = node;
    pv = v;
    pbyte = byte;
    Node* next = child;
    uint64_t nv = next->lock.ReadLockOrRestart(&restart);
    if (restart) return OpResult::kRestart;
    node->lock.CheckOrRestart(v, &restart);
    if (restart) return OpResult::kRestart;
    node = next;
    v = nv;
    depth += 1;
  }
}

bool ArtTree::Remove(Key key, Value* old_value) {
  ALT_ASSERT_EPOCH_PINNED("ArtTree::Remove", epoch_);
  for (;;) {
    OpResult r = RemoveImpl(key, old_value);
    if (r == OpResult::kDone) return true;
    if (r == OpResult::kNotFound) return false;
  }
}

// ---- Scans -------------------------------------------------------------

bool ArtTree::ScanCollect(const Node* node, int depth, Key acc, Key lo, Key hi,
                          size_t max_items,
                          std::vector<std::pair<Key, Value>>* out) const {
  uint8_t bytes[256];
  Node* children[256];
  for (;;) {
    bool restart = false;
    const uint64_t v = node->lock.ReadLockOrRestart(&restart);
    // Obsolete: replaced by a grow/shrink or merged away.
    if (restart) return false;
    // `depth` is where the parent's validated branch put this node. A prefix
    // split or merge rewrites match_level and the compressed path in place
    // (without making the node obsolete), so a different match_level means
    // `acc` no longer holds the bytes above this node: restart the scan.
    if (node->match_level.load(std::memory_order_relaxed) != depth) return false;
    const int plen = node->prefix_len.load(std::memory_order_relaxed);
    const uint64_t pword = node->prefix_word.load(std::memory_order_relaxed);
    const int branch_depth = depth + plen;
    // Only a torn read (a merge in flight) branches past the last key byte.
    if (branch_depth >= kKeyBytes) return false;
    // Fold the compressed path into the key bytes above the branch depth.
    const Key above = BytesAbove(branch_depth);
    const Key folded =
        (acc & BytesAbove(depth)) | ((pword >> (8 * depth)) & above & ~BytesAbove(depth));
    // Child-byte window: a subtree equal to lo's (hi's) bytes so far starts
    // (ends) at lo's (hi's) next byte; one wholly outside [lo, hi] is empty.
    int cnt = 0;
    if (folded >= (lo & above) && folded <= (hi & above)) {
      const uint8_t blo = folded == (lo & above) ? KeyByte(lo, branch_depth) : 0;
      const uint8_t bhi = folded == (hi & above) ? KeyByte(hi, branch_depth) : 0xFF;
      if (blo <= bhi) cnt = CollectEntries(node, bytes, children, blo, bhi);
    }
    node->lock.CheckOrRestart(v, &restart);
    if (restart) continue;  // re-read this node
    const int shift = 8 * (kKeyBytes - 1 - branch_depth);
    for (int i = 0; i < cnt; ++i) {
      if (out->size() >= max_items) return true;
      Node* c = children[i];
      if (IsLeaf(c)) {
        // Only the window's edge bytes can hold keys outside [lo, hi].
        const Leaf* leaf = ToLeaf(c);
        const Key k = leaf->key;
        if (k >= lo && k <= hi) {
          out->emplace_back(k, leaf->value.load(std::memory_order_acquire));
        }
        continue;
      }
      if (!ScanCollect(c, branch_depth + 1, folded | (Key{bytes[i]} << shift), lo, hi,
                       max_items, out)) {
        return false;
      }
    }
    return true;
  }
}

size_t ArtTree::Scan(Key lo, size_t max_items,
                     std::vector<std::pair<Key, Value>>* out) const {
  return RangeQuery(lo, ~Key{0}, out, max_items);
}

size_t ArtTree::RangeQuery(Key lo, Key hi, std::vector<std::pair<Key, Value>>* out,
                           size_t max_items) const {
  out->clear();
  return AppendRange(lo, hi, out, max_items);
}

size_t ArtTree::AppendRange(Key lo, Key hi, std::vector<std::pair<Key, Value>>* out,
                            size_t max_items) const {
  ALT_ASSERT_EPOCH_PINNED("ArtTree::AppendRange", epoch_);
  if (lo > hi || max_items == 0) return 0;
  const size_t base = out->size();
  // ScanCollect stops once `out` holds `cap` pairs.
  const size_t cap = max_items > ~size_t{0} - base ? ~size_t{0} : base + max_items;
  // Children are visited in byte order and each node's window is collected
  // under one validated version, so the run is ascending without a sort.
  while (!ScanCollect(root_, 0, 0, lo, hi, cap, out)) out->resize(base);
  ALT_DEBUG_CHECK(std::adjacent_find(out->begin() + static_cast<ptrdiff_t>(base), out->end(),
                                     [](const auto& a, const auto& b) {
                                       return a.first >= b.first;
                                     }) == out->end(),
                  "art-scan", "scan result not strictly ascending", this);
  return out->size() - base;
}

// ---- Structure utilities ----------------------------------------------------

Node* ArtTree::FindLcaNode(Key lo, Key hi, int* depth_out) const {
  Node* node = root_;
  int depth = 0;
  for (;;) {
    const int plen = node->prefix_len.load(std::memory_order_relaxed);
    if (plen > 0) {
      const uint64_t pword = node->prefix_word.load(std::memory_order_relaxed);
      for (int i = 0; i < plen; ++i) {
        const uint8_t pb = Node::PrefixByte(pword, i);
        if (pb != KeyByte(lo, depth + i) || pb != KeyByte(hi, depth + i)) {
          // Keys diverge inside this node's compressed path (or leave the
          // tree's populated space): this node is the deepest cover.
          *depth_out = node->match_level.load(std::memory_order_relaxed);
          return node;
        }
      }
      depth += plen;
    }
    const uint8_t blo = KeyByte(lo, depth);
    const uint8_t bhi = KeyByte(hi, depth);
    if (blo != bhi) {
      *depth_out = node->match_level.load(std::memory_order_relaxed);
      return node;
    }
    Node* child = GetChild(node, blo);
    if (child == nullptr || IsLeaf(child)) {
      *depth_out = node->match_level.load(std::memory_order_relaxed);
      return node;
    }
    node = child;
    depth += 1;
  }
}

namespace {
void CollectCensusRec(const Node* n, size_t inner_depth, const Slab* region,
                      ArtTree::Census* c) {
  if (IsLeaf(n)) {
    if (InRegion(region, ToLeaf(n))) c->region_live_bytes += sizeof(Leaf);
    c->leaves++;
    c->leaf_bytes += sizeof(Leaf);
    c->total_bytes += sizeof(Leaf);
    const size_t d = inner_depth <= kKeyBytes ? inner_depth : kKeyBytes;
    c->depth_hist[d]++;
    if (inner_depth > c->height) c->height = inner_depth;
    return;
  }
  if (InRegion(region, n)) c->region_live_bytes += RegionNodeBytes(n->type);
  const size_t t = static_cast<size_t>(n->type);
  c->nodes[t]++;
  c->node_bytes[t] += NodeBytes(n->type);
  c->total_bytes += NodeBytes(n->type);
  const size_t plen = n->prefix_len.load(std::memory_order_relaxed);
  if (plen > 0) {
    c->compressed_nodes++;
    c->prefix_bytes += plen;
  }
  uint8_t bytes[256];
  Node* children[256];
  const int cnt = CollectEntries(n, bytes, children);
  for (int i = 0; i < cnt; ++i) {
    CollectCensusRec(children[i], inner_depth + 1, region, c);
  }
}
}  // namespace

ArtTree::Census ArtTree::CollectCensus() const {
  Census c;
  // The root counts as depth 0, so a leaf's depth equals the number of inner
  // nodes on its root→leaf path.
  CollectCensusRec(root_, 0, region_, &c);
  c.region_bytes = RegionBytes();
  return c;
}

}  // namespace art
}  // namespace alt
