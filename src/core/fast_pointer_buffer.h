#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "art/art_tree.h"
#include "common/key_codec.h"
#include "common/prefetch.h"
#include "common/spinlock.h"
#include "common/thread_annotations.h"

namespace alt {

/// \brief The fast pointer buffer (§III-C): maps each GPL model to the deepest
/// ART node covering the model's key range, so secondary searches for conflict
/// data resume mid-tree instead of at the root.
///
/// Entries are deduplicated by target node (the merge scheme, §III-C2): each
/// ART node's `fp_slot` header field names its (single) entry, making the
/// structure-modification callbacks O(1). Writers take the per-entry spin lock
/// (§III-E); readers are lock-free and conservative:
///  - the entry's (depth, prefix) is only used to *validate* that a key lies
///    under the target subtree; the traversal depth itself is re-read from the
///    node's `match_level` under its OLC version, and
///  - entry updates only ever *widen* coverage (replacement keeps it equal,
///    prefix split / removal lift the entry toward the root), so a torn
///    node/meta pair can cause at worst a futile subtree probe that falls back
///    to a root traversal — never a wrong result.
///
/// Storage is one array sized by Reserve before the buffer is used, so entry
/// addresses never move and Get needs no lock. The bound is known at bulk
/// load: one entry per bulk-loaded model, plus one for the ART root that tail
/// models share. Expansions reuse their model's entry (set_fp_index), and a
/// tail model's root entry is merged like any other.
class FastPointerBuffer : public art::ArtStructureListener {
 public:
  struct Ref {
    art::Node* node;
    int depth;
    Key prefix;
  };

  FastPointerBuffer();
  ~FastPointerBuffer() override;

  /// Size the buffer for `capacity` entries. Call once, before any
  /// AddPointer and before concurrent use.
  void Reserve(size_t capacity);

  /// Register `node` (at `depth` = node->match_level, covering keys that share
  /// `prefix`'s first `depth` bytes). Returns the entry index; if the node
  /// already has an entry, returns that one (merge scheme). Returns -1 when
  /// the reserved entries are used up: the caller's model then descends from
  /// the ART root, as with a dead entry. Thread-safe.
  int32_t AddPointer(art::Node* node, int depth, Key prefix);

  /// Current target of entry `slot`. Optimistic lock-free read, validated by
  /// caller: a stale Ref is caught by the ART descent's version validation
  /// (kRestart) and falls back to a root traversal — see class comment.
  Ref Get(int32_t slot) const ALT_OPTIMISTIC_PATH ALT_REQUIRES_EPOCH;

  /// Batched read path stage hook: pull entry `slot`'s line ahead of Get so a
  /// kGoArt outcome can resolve its fast pointer without stalling the group.
  void PrefetchEntry(int32_t slot) const {
    if (slot >= 0) PrefetchRead(&EntryAt(static_cast<size_t>(slot)));
  }

  /// \return true iff `key` shares the entry's validated prefix, i.e. the
  /// hinted subtree is known to cover it.
  static bool Covers(const Ref& ref, Key key) {
    return KeyPrefix(key, ref.depth) == ref.prefix;
  }

  /// Number of (merged) entries.
  size_t Size() const { return count_.load(std::memory_order_acquire); }

  /// Number of AddPointer calls (what the buffer would hold without the merge
  /// scheme) — the Fig. 10(b) ablation statistic.
  size_t UnmergedCount() const { return add_calls_.load(std::memory_order_relaxed); }

  size_t MemoryBytes() const;

  // --- ArtStructureListener (called with the affected node's lock held) -----
  void OnNodeReplaced(int32_t slot, art::Node* old_node, art::Node* new_node) override;
  void OnPrefixSplit(int32_t slot, art::Node* node, art::Node* new_parent) override;
  void OnNodeRemoved(int32_t slot, art::Node* node, art::Node* ancestor) override;

 private:
  struct Entry {
    SpinLock lock;
    /// Writers (initialization + the On* SMO callbacks) hold `lock`; the
    /// lock-free reader is Get(), the sanctioned ALT_OPTIMISTIC_PATH escape
    /// (torn reads are benign — see the class comment).
    std::atomic<art::Node*> node GUARDED_BY(lock){nullptr};
    /// prefix | depth: the prefix's low byte is always 0 (depth <= 7 for
    /// inner nodes), so the depth occupies the low 8 bits.
    std::atomic<uint64_t> meta GUARDED_BY(lock){0};
  };

  Entry& EntryAt(size_t i) const { return entries_[i]; }

  static uint64_t PackMeta(Key prefix, int depth) {
    return prefix | static_cast<uint64_t>(depth & 0xFF);
  }

  std::unique_ptr<Entry[]> entries_;
  size_t capacity_ = 0;
  std::atomic<size_t> count_{0};
  std::atomic<size_t> add_calls_{0};
  SpinLock grow_lock_;
};

}  // namespace alt
