#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>

#include "common/key_codec.h"
#include "common/optlock.h"

namespace alt {
namespace art {

/// ART node kinds (Leis et al., ICDE'13): the four adaptive fanouts.
enum class NodeType : uint8_t { kNode4 = 0, kNode16 = 1, kNode48 = 2, kNode256 = 3 };

struct Node;

/// \brief Single-value leaf. Child pointers tag leaves by setting bit 0.
///
/// Keys are fixed 8 bytes, so a leaf can never be an internal prefix of another
/// key; the final equality check against `key` suffices for correctness.
struct Leaf {
  Key key;
  std::atomic<Value> value;

  Leaf(Key k, Value v) : key(k), value(v) {}
};

inline bool IsLeaf(const Node* p) { return (reinterpret_cast<uintptr_t>(p) & 1u) != 0; }
inline Leaf* ToLeaf(Node* p) {
  return reinterpret_cast<Leaf*>(reinterpret_cast<uintptr_t>(p) & ~uintptr_t{1});
}
inline const Leaf* ToLeaf(const Node* p) {
  return reinterpret_cast<const Leaf*>(reinterpret_cast<uintptr_t>(p) & ~uintptr_t{1});
}
inline Node* TagLeaf(Leaf* l) {
  return reinterpret_cast<Node*>(reinterpret_cast<uintptr_t>(l) | 1u);
}

/// \brief Common node header. `lock` is the optimistic-lock-coupling version
/// word (Leis et al., DaMoN'16), the same OptLock the OLC baselines use.
///
/// All mutable fields readers may race on are atomics; optimistic readers use
/// relaxed/acquire loads and re-validate the version afterwards (seqlock
/// pattern), so torn intermediate states are never acted upon.
///
/// ART-OPT extensions (§III-C of the ALT-index paper):
///  - `match_level`: depth in key bytes already consumed when traversal reaches
///    this node; lets a fast-pointer jump resume mid-tree.
///  - `fp_slot`: index of the fast-pointer-buffer entry targeting this node
///    (-1 if none), so structure-modification callbacks are O(1).
///  - the compressed path is packed into one atomic word (`prefix_word`,
///    big-endian byte order) so prefix updates during splits are race-free.
///
/// Writers take `lock` by upgrading an optimistic read, which the clang
/// static analysis cannot see, so the OLC write paths in art_tree.cc are
/// ALT_OPTIMISTIC_PATH escapes; OptLock still checks the unlock protocol at
/// run time under ALT_DEBUG_CHECKS.
struct Node {
  OptLock lock;
  std::atomic<uint64_t> prefix_word{0};
  const NodeType type;
  std::atomic<uint8_t> prefix_len{0};
  std::atomic<uint8_t> match_level{0};
  std::atomic<uint16_t> num_children{0};
  std::atomic<int32_t> fp_slot{-1};

  explicit Node(NodeType t) : type(t) {}

  /// Byte `i` (0-based) of the compressed path.
  static uint8_t PrefixByte(uint64_t word, int i) {
    return static_cast<uint8_t>(word >> (8 * (kKeyBytes - 1 - i)));
  }

  /// Store a compressed path taken from `key`'s bytes [from, from+len).
  void SetPrefix(Key key, int from, int len) {
    uint64_t w = (len <= 0) ? 0 : (key << (8 * from));
    prefix_word.store(w, std::memory_order_relaxed);
    prefix_len.store(static_cast<uint8_t>(len), std::memory_order_relaxed);
  }

  /// Drop the first `n` bytes of the compressed path (prefix split).
  void ChopPrefix(int n) {
    uint64_t w = prefix_word.load(std::memory_order_relaxed);
    prefix_word.store(w << (8 * n), std::memory_order_relaxed);
    prefix_len.store(static_cast<uint8_t>(prefix_len.load(std::memory_order_relaxed) - n),
                     std::memory_order_relaxed);
  }
};

static_assert(sizeof(OptLock) == sizeof(uint64_t), "the node lock is one version word");

/// Fanout-4 / fanout-16 node: parallel key/child arrays with the keys kept
/// sorted, so ordered scans read a contiguous run. N is the only difference
/// between Node4 and Node16.
template <int N, NodeType T>
struct SortedNode : Node {
  static constexpr int kCapacity = N;
  std::atomic<uint8_t> keys[N];
  std::atomic<Node*> children[N];

  SortedNode() : Node(T) {
    for (auto& k : keys) k.store(0, std::memory_order_relaxed);
    for (auto& c : children) c.store(nullptr, std::memory_order_relaxed);
  }
};
using Node4 = SortedNode<4, NodeType::kNode4>;
using Node16 = SortedNode<16, NodeType::kNode16>;

/// Fanout-48 node: 256-entry byte -> child-slot indirection (0xFF = empty).
struct Node48 : Node {
  static constexpr uint8_t kEmpty = 0xFF;
  std::atomic<uint8_t> child_index[256];
  std::atomic<Node*> children[48];

  Node48() : Node(NodeType::kNode48) {
    for (auto& i : child_index) i.store(kEmpty, std::memory_order_relaxed);
    for (auto& c : children) c.store(nullptr, std::memory_order_relaxed);
  }
};

/// Fanout-256 node: direct byte-indexed child array.
struct Node256 : Node {
  std::atomic<Node*> children[256];

  Node256() : Node(NodeType::kNode256) {
    for (auto& c : children) c.store(nullptr, std::memory_order_relaxed);
  }
};

/// Size in bytes of a node of the given type (for memory accounting).
inline size_t NodeBytes(NodeType t) {
  switch (t) {
    case NodeType::kNode4: return sizeof(Node4);
    case NodeType::kNode16: return sizeof(Node16);
    case NodeType::kNode48: return sizeof(Node48);
    case NodeType::kNode256: return sizeof(Node256);
  }
  return 0;
}

}  // namespace art
}  // namespace alt
