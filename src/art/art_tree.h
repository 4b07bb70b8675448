#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "art/art_node.h"
#include "common/key_codec.h"
#include "common/sharded_counter.h"

namespace alt {

class EpochManager;
class Slab;

namespace art {

/// \brief Callbacks fired by ArtTree during structure modifications that affect
/// a node referenced by a fast-pointer-buffer entry (ALT-index §III-C3).
///
/// All callbacks run while the affected node's write lock is held, so the
/// buffer update is atomic with respect to the modification as required for the
/// invariant "entry i covers all keys of the GPL models mapped to it".
class ArtStructureListener {
 public:
  virtual ~ArtStructureListener() = default;

  /// Scenario ② — node expansion/shrink replaced `old_node` with `new_node`
  /// (same coverage, same depth). The entry must be swung to `new_node`.
  virtual void OnNodeReplaced(int32_t slot, Node* old_node, Node* new_node) = 0;

  /// Scenario ① — prefix extraction created `new_parent` directly above
  /// `node`; keys previously reaching `node` may now branch at `new_parent`,
  /// so the entry must be lifted to it.
  virtual void OnPrefixSplit(int32_t slot, Node* node, Node* new_parent) = 0;

  /// `node` was merged away on removal; `ancestor` still covers its range.
  virtual void OnNodeRemoved(int32_t slot, Node* node, Node* ancestor) = 0;
};

/// Outcome of hint-based (fast pointer) operations.
enum class HintOutcome {
  kFound,     ///< lookup: key found in the hinted subtree
  kNotFound,  ///< lookup: not in subtree (caller may fall back to root)
  kInserted,  ///< insert: success
  kExists,    ///< insert: key already present
  kNeedRoot,  ///< hint unusable (obsolete / SMO required at hint) — retry from root
};

/// Outcome of one DescentStep (incremental lookup) touch.
enum class StepResult : uint8_t {
  kFound,     ///< leaf matched; s->leaf and (if non-null) *out were set
  kNotFound,  ///< authoritative miss from this start node (see LookupFrom caveat)
  kStepped,   ///< descended one level; the next node line is being prefetched
  kRestart,   ///< a version check failed or a read was torn — re-DescentInit, retry
};

/// \brief Adaptive Radix Tree over fixed 8-byte keys with optimistic lock
/// coupling, path compression, ordered scans, and the ART-OPT hooks ALT-index
/// needs (`match_level`, fast-pointer callbacks, hint-based entry points).
///
/// Concurrency contract: every public operation may run concurrently from any
/// number of threads. Callers MUST hold an alt::EpochGuard on the tree's
/// epoch manager across each call (the tree retires replaced nodes through
/// the manager given at construction — the global one by default).
class ArtTree {
 public:
  /// \param epoch manager replaced nodes/leaves retire through; nullptr means
  ///        EpochManager::Global(). Must outlive the tree.
  explicit ArtTree(EpochManager* epoch = nullptr);
  ~ArtTree();

  ArtTree(const ArtTree&) = delete;
  ArtTree& operator=(const ArtTree&) = delete;

  /// Install the fast-pointer-buffer listener (nullptr to detach).
  void SetListener(ArtStructureListener* listener) { listener_ = listener; }

  /// \return true and set *out if `key` is present.
  /// \param steps if non-null, accumulates the number of nodes visited
  ///        (Fig. 10(a) "average lookup length").
  bool Lookup(Key key, Value* out, int* steps = nullptr) const;

  /// Lookup resuming at `hint` (depth = hint->match_level). The caller must
  /// have validated that `key` shares the hint entry's prefix.
  HintOutcome LookupFrom(Node* hint, Key key, Value* out,
                         int* steps = nullptr) const ALT_REQUIRES_EPOCH;

  /// \brief Resumable lookup cursor for the batched read path: one
  /// DescentStep call performs one tree level of work (prefix match + child
  /// dispatch under the node's optimistic version) and *prefetches* the next
  /// node before returning, so a group of in-flight descents can overlap
  /// their cache misses (AMAC-style software pipelining).
  ///
  /// Protocol:
  ///   DescentState ds;
  ///   if (!tree.DescentInit(start, &ds)) { /* start obsolete: pick new start */ }
  ///   for (;;) switch (tree.DescentStep(&ds, key, &val, &steps)) {
  ///     case StepResult::kStepped: /* touch other lookups, come back */ break;
  ///     case StepResult::kRestart: /* DescentInit again (bounded) */ break;
  ///     case ... kFound / kNotFound: done;
  ///   }
  ///
  /// This is the one read descent: Lookup, LookupFrom and Update drive the
  /// same steps back to back, so a kFound / kNotFound result is one they
  /// could have returned from the same start node. As with LookupFrom, a
  /// kNotFound from a hint start is not authoritative under concurrent SMOs —
  /// the caller falls back to the root.
  struct DescentState {
    Node* node = nullptr;     ///< current node, read under `version`
    uint64_t version = 0;     ///< optimistic read version of `node`
    Node* pending = nullptr;  ///< prefetched child (possibly tagged leaf) not yet entered
    Leaf* leaf = nullptr;     ///< on kFound: the matched leaf, a child of `node`
    int depth = 0;            ///< key bytes consumed on entry to `node`
  };

  /// Begin a descent at `start` (the root or a fast-pointer hint).
  /// \return false if `start` is obsolete (hint went stale) — pick a new start.
  bool DescentInit(Node* start, DescentState* s) const ALT_REQUIRES_EPOCH;

  /// Advance the descent by one node. On kStepped the next node's cache lines
  /// have been prefetched; process other keys before stepping again.
  /// \param steps if non-null, incremented once per node visited (same
  ///        accounting as Lookup's `steps`).
  StepResult DescentStep(DescentState* s, Key key, Value* out,
                         int* steps = nullptr) const ALT_REQUIRES_EPOCH;

  /// Insert; \return false if the key already exists (value left unchanged).
  bool Insert(Key key, Value value);

  /// \brief Fill an empty tree with `n` ascending, duplicate-free pairs,
  /// bottom-up: each node is created once, at the type its final fanout
  /// needs, instead of growing through root-descent Inserts. An insert-only
  /// ART's shape is a function of its key set, so the result is the tree
  /// that inserting the same keys in any order builds (DESIGN.md §2.4).
  ///
  /// Every node and leaf is carved from one region the tree owns, sized
  /// exactly by a counting pass; the leaves sit in key order. The key range
  /// is split into subtrees built by up to `parts` threads (part 0 on the
  /// caller's), which allocate nothing. Nodes and leaves that inserts and
  /// removes later unlink are never freed or reused (ASan poisons them after
  /// the grace period); the region lives until the tree and every retired
  /// region entry are gone. Quiescent-only, like
  /// BulkLoad, and at most once. If the region cannot be mapped, the tree is
  /// left empty and std::bad_alloc is thrown.
  void BuildSorted(const Key* keys, const Value* values, size_t n, size_t parts = 1);

  /// Bytes carved for BuildSorted's region (0 without one). They stay
  /// mapped, and are not reused, until the tree is destroyed.
  size_t RegionBytes() const;

  /// Insert resuming at `hint`. Returns kNeedRoot when the required structure
  /// modification involves the hint node itself (its parent is unknown here).
  HintOutcome InsertFrom(Node* hint, Key key, Value value) ALT_REQUIRES_EPOCH;

  /// Overwrite the value of an existing key. \return false if absent.
  bool Update(Key key, Value value);

  /// Remove `key`; \return true if it was present. Shrinks/merges nodes.
  /// \param old_value if non-null, receives the removed value (needed by the
  ///        ALT-index write-back scheme, Alg. 2).
  bool Remove(Key key, Value* old_value = nullptr);

  /// Collect up to `max_items` pairs with key >= lo in ascending order.
  size_t Scan(Key lo, size_t max_items, std::vector<std::pair<Key, Value>>* out) const;

  /// Collect the first `max_items` pairs with lo <= key <= hi, ascending.
  /// Only the children whose byte window can hold keys in [lo, hi] are read
  /// (DESIGN.md §12.6).
  size_t RangeQuery(Key lo, Key hi, std::vector<std::pair<Key, Value>>* out,
                    size_t max_items = ~size_t{0}) const;

  /// RangeQuery that keeps what `out` already holds and appends its pairs
  /// after it. \return the number of pairs appended.
  size_t AppendRange(Key lo, Key hi, std::vector<std::pair<Key, Value>>* out,
                     size_t max_items = ~size_t{0}) const;

  /// Deepest node whose subtree contains the whole range [lo, hi].
  /// Quiescent-only (used while building the fast pointer buffer).
  /// \param depth_out set to the node's match_level.
  Node* FindLcaNode(Key lo, Key hi, int* depth_out) const;

  /// \brief Structural census (quiescent-only traversal) for the
  /// flight-recorder introspection layer (DESIGN.md §9.3): memory by node
  /// type, leaf-depth distribution, and path-compression savings — the
  /// decomposition behind the Fig. 8a memory curve.
  struct Census {
    size_t nodes[4] = {};       ///< inner-node count, indexed by NodeType
    size_t node_bytes[4] = {};  ///< inner-node bytes, indexed by NodeType
    size_t leaves = 0;
    size_t leaf_bytes = 0;
    /// Leaves by root→leaf path length in *inner nodes* (index clamped to
    /// kKeyBytes). With path compression a leaf sits at most kKeyBytes deep.
    size_t depth_hist[kKeyBytes + 1] = {};
    size_t height = 0;            ///< max inner nodes on any root→leaf path
    size_t compressed_nodes = 0;  ///< inner nodes carrying a non-empty prefix
    /// Total compressed-prefix bytes. Each byte is one single-child level the
    /// tree did not materialize (≈ one Node4 of savings per byte).
    size_t prefix_bytes = 0;
    size_t total_bytes = 0;  ///< == MemoryUsage()
    /// BuildSorted's region: its carved bytes, and the bytes of the region
    /// nodes and leaves still in the tree (the rest was retired by later
    /// writes). Region nodes take whole cache lines, so these are not the
    /// `sizeof` figures above.
    size_t region_bytes = 0;
    size_t region_live_bytes = 0;

    size_t count(NodeType t) const { return nodes[static_cast<size_t>(t)]; }
  };
  Census CollectCensus() const;

  /// Total bytes of nodes + leaves (quiescent-only).
  size_t MemoryUsage() const { return CollectCensus().total_bytes; }

  size_t Size() const { return size_.Value(); }
  bool Empty() const { return Size() == 0; }

  Node* root() const { return root_; }

 private:
  enum class OpResult { kDone, kRestart, kExists, kNotFound, kNeedRoot };

  /// Lookup, LookupFrom and Update: DescentInit + DescentStep driven to a
  /// result. On kDone, `ds` holds the leaf and the node and version it was
  /// read under (Update re-checks them after its store).
  OpResult LookupImpl(Node* start, Key key, Value* out, int* steps,
                      DescentState* ds) const ALT_REQUIRES_EPOCH;
  // The two OLC write paths acquire node locks via conditional upgrades
  // (UpgradeToWriteLockOrRestart) that the static analysis cannot model —
  // documented ALT_OPTIMISTIC_PATH escapes; the lock protocol is enforced
  // dynamically under ALT_DEBUG_CHECKS and by the sanitizer CI matrix.
  OpResult InsertImpl(Node* start, Key key, Value value) ALT_OPTIMISTIC_PATH;
  // Same restart-validated OLC escape as InsertImpl above.
  OpResult RemoveImpl(Key key, Value* old_value) ALT_OPTIMISTIC_PATH;

  // Appends `node`'s in-window pairs to *out. `depth` is the match_level the
  // parent's branch implies and `acc` holds the key bytes above it. \return
  // false when the scan must restart from the root.
  bool ScanCollect(const Node* node, int depth, Key acc, Key lo, Key hi,
                   size_t max_items, std::vector<std::pair<Key, Value>>* out) const;

  /// Retire a node or leaf that a write unlinked: heap memory is deleted
  /// after the grace period; region memory is never reused, and only ASan
  /// builds retire it, to poison it then.
  void RetireNode(Node* n);
  void RetireLeaf(Leaf* l);

  Node* root_;  // fixed Node256, never replaced, never obsolete
  EpochManager* epoch_;  // resolved at construction, never null
  /// BuildSorted's nodes and leaves, or nullptr. The tree holds one
  /// reference and, under ASan, each retired region entry one more.
  Slab* region_ = nullptr;
  ArtStructureListener* listener_ = nullptr;
  ShardedCounter size_;  ///< live keys (see ShardedCounter)
};

}  // namespace art
}  // namespace alt
