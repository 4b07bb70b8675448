#include "baselines/xindex_like.h"

#include <algorithm>
#include <chrono>

#include "common/epoch.h"

namespace alt {

void XIndexLike::GroupData::Train() {
  const size_t n = keys.size();
  base = n > 0 ? keys[0] : 0;
  slope = 0;
  max_error = 0;
  if (n >= 2 && keys[n - 1] > keys[0]) {
    slope = static_cast<double>(n - 1) / static_cast<double>(keys[n - 1] - keys[0]);
  }
  for (size_t i = 0; i < n; ++i) {
    const double pred = slope * static_cast<double>(keys[i] - base);
    const double err = pred > static_cast<double>(i)
                           ? pred - static_cast<double>(i)
                           : static_cast<double>(i) - pred;
    if (err > max_error) max_error = static_cast<uint32_t>(err) + 1;
  }
}

size_t XIndexLike::GroupData::LowerBound(Key key) const {
  const size_t n = keys.size();
  if (n == 0) return 0;
  int64_t pred = 0;
  if (key > base) {
    pred = static_cast<int64_t>(slope * static_cast<double>(key - base));
    if (pred >= static_cast<int64_t>(n)) pred = static_cast<int64_t>(n) - 1;
  }
  int64_t lo = pred - max_error - 1;
  int64_t hi = pred + max_error + 1;
  if (lo < 0) lo = 0;
  if (hi > static_cast<int64_t>(n)) hi = static_cast<int64_t>(n);
  // The window is only valid for keys the model was trained on; widen to the
  // full array if the window boundaries do not bracket `key`.
  if (lo > 0 && keys[static_cast<size_t>(lo - 1)] >= key) lo = 0;
  if (hi < static_cast<int64_t>(n) && keys[static_cast<size_t>(hi)] < key) {
    hi = static_cast<int64_t>(n);
  }
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (keys[static_cast<size_t>(mid)] < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return static_cast<size_t>(lo);
}

size_t XIndexLike::GroupData::Find(Key key) const {
  const size_t pos = LowerBound(key);
  if (pos < keys.size() && keys[pos] == key) return pos;
  return keys.size();
}

XIndexLike::~XIndexLike() {
  stop_.store(true, std::memory_order_release);
  if (bg_thread_.joinable()) bg_thread_.join();
}

Status XIndexLike::BulkLoad(const Key* keys, const Value* values, size_t n) {
  if (n == 0) return Status::InvalidArgument("empty bulk load");
  for (size_t i = 1; i < n; ++i) {
    if (keys[i] <= keys[i - 1]) {
      return Status::InvalidArgument("keys must be sorted and duplicate-free");
    }
  }
  for (size_t start = 0; start < n; start += kGroupSize) {
    const size_t len = std::min<size_t>(kGroupSize, n - start);
    auto g = std::make_unique<Group>();
    g->first_key = keys[start];
    auto* gd = new GroupData();
    gd->keys.assign(keys + start, keys + start + len);
    gd->values.assign(values + start, values + start + len);
    gd->Train();
    g->data.store(gd, std::memory_order_release);
    pivots_.push_back(keys[start]);
    groups_.push_back(std::move(g));
  }
  // Train the root model over the pivots (RMI level 0).
  root_base_ = pivots_[0];
  root_slope_ = 0;
  root_error_ = 0;
  const size_t m = pivots_.size();
  if (m >= 2 && pivots_[m - 1] > pivots_[0]) {
    root_slope_ =
        static_cast<double>(m - 1) / static_cast<double>(pivots_[m - 1] - pivots_[0]);
  }
  for (size_t i = 0; i < m; ++i) {
    const double pred = root_slope_ * static_cast<double>(pivots_[i] - root_base_);
    const double err = pred > static_cast<double>(i)
                           ? pred - static_cast<double>(i)
                           : static_cast<double>(i) - pred;
    if (err > root_error_) root_error_ = static_cast<uint32_t>(err) + 1;
  }
  size_.store(n, std::memory_order_relaxed);
  bg_thread_ = std::thread([this] { BackgroundLoop(); });
  return Status::OK();
}

XIndexLike::Group* XIndexLike::LocateGroup(Key key) const {
  const size_t m = pivots_.size();
  int64_t pred = 0;
  if (key > root_base_) {
    pred = static_cast<int64_t>(root_slope_ * static_cast<double>(key - root_base_));
    if (pred >= static_cast<int64_t>(m)) pred = static_cast<int64_t>(m) - 1;
  }
  int64_t lo = pred - root_error_ - 1;
  int64_t hi = pred + root_error_ + 1;
  if (lo < 0) lo = 0;
  if (hi > static_cast<int64_t>(m)) hi = static_cast<int64_t>(m);
  if (lo > 0 && pivots_[static_cast<size_t>(lo - 1)] > key) lo = 0;
  if (hi < static_cast<int64_t>(m) && pivots_[static_cast<size_t>(hi)] <= key) {
    hi = static_cast<int64_t>(m);
  }
  // upper_bound(key) - 1 within [lo, hi).
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (pivots_[static_cast<size_t>(mid)] <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const size_t idx = lo == 0 ? 0 : static_cast<size_t>(lo - 1);
  return groups_[idx].get();
}

bool XIndexLike::Lookup(Key key, Value* out, ServedBy*) const {
  EpochGuard g;
  Group* grp = LocateGroup(key);
  {
    ReadLockGuard lock(grp->buffer_mu);
    auto it = grp->buffer.find(key);
    if (it != grp->buffer.end()) {
      if (!it->second.has_value()) return false;  // tombstone
      *out = *it->second;
      return true;
    }
  }
  const GroupData* gd = grp->data.load(std::memory_order_acquire);
  const size_t pos = gd->Find(key);
  if (pos == gd->keys.size()) return false;
  *out = gd->values[pos];
  return true;
}

bool XIndexLike::Insert(Key key, Value value, ServedBy*) {
  EpochGuard g;
  Group* grp = LocateGroup(key);
  WriteLockGuard lock(grp->buffer_mu);
  auto it = grp->buffer.find(key);
  if (it != grp->buffer.end()) {
    if (it->second.has_value()) return false;  // live buffer entry
    it->second = value;                        // resurrect over a tombstone
    size_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  const GroupData* gd = grp->data.load(std::memory_order_acquire);
  if (gd->Find(key) != gd->keys.size()) return false;  // lives in the array
  grp->buffer.emplace(key, value);
  grp->buffer_count.fetch_add(1, std::memory_order_relaxed);
  size_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool XIndexLike::Update(Key key, Value value, ServedBy*) {
  EpochGuard g;
  Group* grp = LocateGroup(key);
  WriteLockGuard lock(grp->buffer_mu);
  auto it = grp->buffer.find(key);
  if (it != grp->buffer.end()) {
    if (!it->second.has_value()) return false;
    it->second = value;
    return true;
  }
  const GroupData* gd = grp->data.load(std::memory_order_acquire);
  if (gd->Find(key) == gd->keys.size()) return false;
  // Shadow the immutable array entry through the buffer.
  grp->buffer.emplace(key, value);
  grp->buffer_count.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool XIndexLike::Remove(Key key, ServedBy*) {
  EpochGuard g;
  Group* grp = LocateGroup(key);
  WriteLockGuard lock(grp->buffer_mu);
  auto it = grp->buffer.find(key);
  const GroupData* gd = grp->data.load(std::memory_order_acquire);
  const bool in_array = gd->Find(key) != gd->keys.size();
  if (it != grp->buffer.end()) {
    if (!it->second.has_value()) return false;  // already tombstoned
    if (in_array) {
      it->second = std::nullopt;
    } else {
      grp->buffer.erase(it);
    }
    size_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  if (!in_array) return false;
  grp->buffer.emplace(key, std::nullopt);
  grp->buffer_count.fetch_add(1, std::memory_order_relaxed);
  size_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

size_t XIndexLike::Scan(Key start, size_t count,
                        std::vector<std::pair<Key, Value>>* out) const {
  out->clear();
  if (count == 0) return 0;
  EpochGuard g;
  // Find the starting group index.
  size_t gi = 0;
  {
    size_t lo = 0, hi = pivots_.size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (pivots_[mid] <= start) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    gi = lo == 0 ? 0 : lo - 1;
  }
  for (; gi < groups_.size() && out->size() < count; ++gi) {
    Group* grp = groups_[gi].get();
    ReadLockGuard lock(grp->buffer_mu);
    const GroupData* gd = grp->data.load(std::memory_order_acquire);
    size_t ai = gd->LowerBound(start);
    auto bi = grp->buffer.lower_bound(start);
    while (out->size() < count &&
           (ai < gd->keys.size() || bi != grp->buffer.end())) {
      const bool take_array =
          bi == grp->buffer.end() ||
          (ai < gd->keys.size() && gd->keys[ai] < bi->first);
      if (take_array) {
        out->emplace_back(gd->keys[ai], gd->values[ai]);
        ++ai;
      } else {
        if (ai < gd->keys.size() && gd->keys[ai] == bi->first) ++ai;  // shadowed
        if (bi->second.has_value()) out->emplace_back(bi->first, *bi->second);
        ++bi;
      }
    }
  }
  return out->size();
}

void XIndexLike::CompactGroup(Group* grp) {
  WriteLockGuard lock(grp->buffer_mu);
  if (grp->buffer.empty()) return;
  GroupData* old = grp->data.load(std::memory_order_acquire);
  auto* merged = new GroupData();
  merged->keys.reserve(old->keys.size() + grp->buffer.size());
  merged->values.reserve(merged->keys.capacity());
  size_t ai = 0;
  auto bi = grp->buffer.begin();
  while (ai < old->keys.size() || bi != grp->buffer.end()) {
    const bool take_array = bi == grp->buffer.end() ||
                            (ai < old->keys.size() && old->keys[ai] < bi->first);
    if (take_array) {
      merged->keys.push_back(old->keys[ai]);
      merged->values.push_back(old->values[ai]);
      ++ai;
    } else {
      if (ai < old->keys.size() && old->keys[ai] == bi->first) ++ai;  // shadowed
      if (bi->second.has_value()) {
        merged->keys.push_back(bi->first);
        merged->values.push_back(*bi->second);
      }
      ++bi;
    }
  }
  merged->Train();
  grp->data.store(merged, std::memory_order_release);
  grp->buffer.clear();
  grp->buffer_count.store(0, std::memory_order_relaxed);
  EpochManager::Global().Retire(old,
                                [](void* p) { delete static_cast<GroupData*>(p); });
  compactions_.fetch_add(1, std::memory_order_relaxed);
}

void XIndexLike::BackgroundLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    bool did_work = false;
    for (auto& g : groups_) {
      if (stop_.load(std::memory_order_acquire)) return;
      if (g->buffer_count.load(std::memory_order_relaxed) >= kCompactThreshold) {
        EpochGuard guard;
        CompactGroup(g.get());
        did_work = true;
      }
    }
    if (!did_work) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

size_t XIndexLike::MemoryUsage() const {
  size_t total = pivots_.size() * (sizeof(Key) + sizeof(void*));
  for (const auto& g : groups_) {
    total += sizeof(Group);
    const GroupData* gd = g->data.load(std::memory_order_acquire);
    total += gd->keys.size() * (sizeof(Key) + sizeof(Value)) + sizeof(GroupData);
    // std::map node overhead for the delta buffer.
    total += g->buffer_count.load(std::memory_order_relaxed) *
             (sizeof(Key) + sizeof(Value) + 48);
  }
  return total;
}

}  // namespace alt
