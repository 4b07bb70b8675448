#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/key_codec.h"
#include "core/alt_index.h"

namespace alt {
namespace shard {

/// \brief Pull cursor over one AltIndex's merged key space, batched on top of
/// Scan (which pins the index's own epoch manager internally, so the cursor
/// needs no guard of its own). Yields ascending (key, value) pairs; each pair
/// was live at some point during iteration (same contract as AltIndex::Scan).
class AltIndexScanCursor {
 public:
  AltIndexScanCursor(const AltIndex* index, Key start, size_t batch = 128)
      : index_(index), next_start_(start), batch_(batch == 0 ? 1 : batch) {}

  /// \return true and fill *out with the next pair, false when exhausted.
  bool Next(std::pair<Key, Value>* out) {
    if (pos_ >= buf_.size()) {
      if (exhausted_) return false;
      Refill();
      if (buf_.empty()) return false;
    }
    *out = buf_[pos_++];
    return true;
  }

 private:
  void Refill() {
    index_->Scan(next_start_, batch_, &buf_);
    pos_ = 0;
    if (buf_.size() < batch_ || buf_.back().first == ~Key{0}) {
      exhausted_ = true;
    } else {
      next_start_ = buf_.back().first + 1;
    }
  }

  const AltIndex* index_;
  Key next_start_;
  size_t batch_;
  std::vector<std::pair<Key, Value>> buf_;
  size_t pos_ = 0;
  bool exhausted_ = false;
};

/// \brief K-way merge over pull cursors producing ascending (key, value)
/// streams — the cross-shard Scan engine (DESIGN.md §12), written
/// against a cursor concept (`bool Next(std::pair<Key,Value>*)`) so the
/// serving layer can reuse it over remote-partition cursors later.
///
/// Ordering: global ascending by key; ties across sources resolve to the
/// lowest source index and the duplicates are dropped (first-copy-wins, the
/// same policy AltIndex::Scan applies to expansion-seam duplicates). Sources
/// whose streams are disjoint ranges degrade to sequential concatenation.
template <typename Cursor>
class KWayMerger {
 public:
  explicit KWayMerger(std::vector<Cursor> sources) : sources_(std::move(sources)) {
    heap_.reserve(sources_.size());
    for (size_t i = 0; i < sources_.size(); ++i) {
      Item it{{0, 0}, i};
      if (sources_[i].Next(&it.kv)) Push(it);
    }
  }

  /// \return true and fill *out with the globally next pair, false when every
  /// source is exhausted.
  bool Next(std::pair<Key, Value>* out) {
    while (!heap_.empty()) {
      Item top = Pop();
      Item refill{{0, 0}, top.src};
      if (sources_[top.src].Next(&refill.kv)) Push(refill);
      if (has_last_ && top.kv.first == last_key_) continue;
      has_last_ = true;
      last_key_ = top.kv.first;
      *out = top.kv;
      return true;
    }
    return false;
  }

 private:
  struct Item {
    std::pair<Key, Value> kv;
    size_t src;
  };
  // Min-heap via std::*_heap with the inverted comparison; ties break toward
  // the lower source index so first-copy-wins is deterministic.
  struct After {
    bool operator()(const Item& a, const Item& b) const {
      if (a.kv.first != b.kv.first) return a.kv.first > b.kv.first;
      return a.src > b.src;
    }
  };

  void Push(const Item& it) {
    heap_.push_back(it);
    std::push_heap(heap_.begin(), heap_.end(), After{});
  }

  Item Pop() {
    std::pop_heap(heap_.begin(), heap_.end(), After{});
    Item it = heap_.back();
    heap_.pop_back();
    return it;
  }

  std::vector<Cursor> sources_;
  std::vector<Item> heap_;
  Key last_key_ = 0;
  bool has_last_ = false;
};

}  // namespace shard
}  // namespace alt
