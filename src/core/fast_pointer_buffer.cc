#include "core/fast_pointer_buffer.h"

#include <cassert>

namespace alt {

FastPointerBuffer::FastPointerBuffer() = default;
FastPointerBuffer::~FastPointerBuffer() = default;

void FastPointerBuffer::Reserve(size_t capacity) {
  assert(count_.load(std::memory_order_relaxed) == 0 && "Reserve after AddPointer");
  entries_ = std::make_unique<Entry[]>(capacity);
  capacity_ = capacity;
}

int32_t FastPointerBuffer::AddPointer(art::Node* node, int depth, Key prefix) {
  add_calls_.fetch_add(1, std::memory_order_relaxed);
  // Merge scheme: if the node already owns an entry, share it.
  int32_t existing = node->fp_slot.load(std::memory_order_acquire);
  if (existing >= 0) return existing;

  SpinLockGuard lg(grow_lock_);
  existing = node->fp_slot.load(std::memory_order_acquire);
  if (existing >= 0) return existing;

  const size_t idx = count_.load(std::memory_order_relaxed);
  if (idx == capacity_) return -1;
  Entry& e = EntryAt(idx);
  {
    // The entry is unpublished (count_ not yet bumped) so its lock is free;
    // taking it keeps the node/meta stores inside their guarding capability.
    SpinLockGuard el(e.lock);
    e.meta.store(PackMeta(prefix, depth), std::memory_order_relaxed);
    e.node.store(node, std::memory_order_release);
  }
  count_.store(idx + 1, std::memory_order_release);
  node->fp_slot.store(static_cast<int32_t>(idx), std::memory_order_release);
  return static_cast<int32_t>(idx);
}

// Optimistic read, validated by caller: the returned Ref is only trusted
// after the ART descent it seeds passes version validation (a stale node
// restarts the descent from the root).
FastPointerBuffer::Ref FastPointerBuffer::Get(int32_t slot) const
    ALT_OPTIMISTIC_PATH ALT_REQUIRES_EPOCH {
  const Entry& e = EntryAt(static_cast<size_t>(slot));
  const uint64_t meta = e.meta.load(std::memory_order_acquire);
  art::Node* node = e.node.load(std::memory_order_acquire);
  return Ref{node, static_cast<int>(meta & 0xFF), meta & ~uint64_t{0xFF}};
}

size_t FastPointerBuffer::MemoryBytes() const {
  return sizeof(FastPointerBuffer) + capacity_ * sizeof(Entry);
}

void FastPointerBuffer::OnNodeReplaced(int32_t slot, art::Node* old_node,
                                       art::Node* new_node) {
  Entry& e = EntryAt(static_cast<size_t>(slot));
  SpinLockGuard lg(e.lock);
  // Coverage and depth are identical; only the pointer changes.
  if (e.node.load(std::memory_order_relaxed) == old_node) {
    e.node.store(new_node, std::memory_order_release);
  }
}

void FastPointerBuffer::OnPrefixSplit(int32_t slot, art::Node* node,
                                      art::Node* new_parent) {
  Entry& e = EntryAt(static_cast<size_t>(slot));
  SpinLockGuard lg(e.lock);
  // The new parent sits exactly where `node` used to (same match_level), so
  // the entry's depth/prefix still describe its coverage.
  if (e.node.load(std::memory_order_relaxed) == node) {
    e.node.store(new_parent, std::memory_order_release);
  }
}

void FastPointerBuffer::OnNodeRemoved(int32_t slot, art::Node* node,
                                      art::Node* ancestor) {
  Entry& e = EntryAt(static_cast<size_t>(slot));
  SpinLockGuard lg(e.lock);
  if (e.node.load(std::memory_order_relaxed) != node) return;
  // Adopt the ancestor only if it has no entry yet; otherwise this entry
  // would stop receiving callbacks (a node names exactly one entry via
  // fp_slot) and could go stale. A dead entry just means affected models
  // fall back to root traversals.
  int32_t expected = -1;
  if (ancestor->fp_slot.compare_exchange_strong(expected, slot,
                                                std::memory_order_acq_rel)) {
    const uint64_t meta = e.meta.load(std::memory_order_relaxed);
    const Key prefix = meta & ~uint64_t{0xFF};
    // The ancestor may sit shallower; truncate the validated prefix to its
    // depth (widening coverage is always safe).
    const int new_depth = ancestor->match_level.load(std::memory_order_relaxed);
    e.meta.store(PackMeta(KeyPrefix(prefix, new_depth), new_depth),
                 std::memory_order_relaxed);
    e.node.store(ancestor, std::memory_order_release);
  } else {
    e.node.store(nullptr, std::memory_order_release);
  }
}

}  // namespace alt
