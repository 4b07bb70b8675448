#include "baselines/finedex_like.h"

#include <algorithm>

#include "core/gpl.h"

namespace alt {

FinedexLike::~FinedexLike() = default;

size_t FinedexLike::Model::LowerBound(Key key) const {
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

Status FinedexLike::BulkLoad(const Key* keys, const Value* values, size_t n) {
  if (n == 0) return Status::InvalidArgument("empty bulk load");
  for (size_t i = 1; i < n; ++i) {
    if (keys[i] <= keys[i - 1]) {
      return Status::InvalidArgument("keys must be sorted and duplicate-free");
    }
  }
  // LPA-style segmentation: shrinking cone with FINEdex's suggested bound.
  const std::vector<Segment> segs = ShrinkingConeSegment(keys, n, kErrorBound);
  models_.reserve(segs.size());
  first_keys_.reserve(segs.size());
  for (const Segment& seg : segs) {
    auto m = std::make_unique<Model>();
    m->base = keys[seg.start];
    m->keys.assign(keys + seg.start, keys + seg.start + seg.length);
    m->values = std::make_unique<std::atomic<Value>[]>(seg.length);
    for (size_t i = 0; i < seg.length; ++i) {
      m->values[i].store(values[seg.start + i], std::memory_order_relaxed);
    }
    const size_t tomb_words = (seg.length + 63) / 64;
    m->tombstones = std::make_unique<std::atomic<uint64_t>[]>(tomb_words);
    for (size_t w = 0; w < tomb_words; ++w) {
      m->tombstones[w].store(0, std::memory_order_relaxed);
    }
    m->bins = std::make_unique<std::atomic<Bin*>[]>(seg.length + 1);
    m->bin_locks = std::make_unique<SpinLock[]>(seg.length + 1);
    for (size_t i = 0; i <= seg.length; ++i) {
      m->bins[i].store(nullptr, std::memory_order_relaxed);
    }
    m->slope = seg.slope;
    m->max_error = 0;
    for (size_t i = 0; i < seg.length; ++i) {
      const double pred = m->slope * static_cast<double>(m->keys[i] - m->base);
      const double err = pred > static_cast<double>(i)
                             ? pred - static_cast<double>(i)
                             : static_cast<double>(i) - pred;
      if (err > m->max_error) m->max_error = static_cast<uint32_t>(err) + 1;
    }
    first_keys_.push_back(m->base);
    models_.push_back(std::move(m));
  }
  size_.store(n, std::memory_order_relaxed);
  return Status::OK();
}

FinedexLike::Model* FinedexLike::LocateModel(Key key) const {
  size_t lo = 0, hi = first_keys_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (first_keys_[mid] <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return models_[lo == 0 ? 0 : lo - 1].get();
}

FinedexLike::Bin::Slot* FinedexLike::FindInBins(Bin* head, Key key) {
  for (Bin* b = head; b != nullptr; b = b->next.load(std::memory_order_acquire)) {
    const uint32_t cnt =
        std::min<uint32_t>(b->count.load(std::memory_order_acquire), kBinCapacity);
    for (uint32_t i = 0; i < cnt; ++i) {
      Bin::Slot& s = b->slots[i];
      if (s.state.load(std::memory_order_acquire) == 1 &&
          s.key.load(std::memory_order_relaxed) == key) {
        return &s;
      }
    }
  }
  return nullptr;
}

bool FinedexLike::Lookup(Key key, Value* out, ServedBy*) const {
  Model* m = LocateModel(key);
  const size_t pos = m->LowerBound(key);
  if (pos < m->keys.size() && m->keys[pos] == key) {
    if (!m->Tombstoned(pos)) {
      *out = m->values[pos].load(std::memory_order_acquire);
      return true;
    }
    // Tombstoned in the array: a re-insert may live in the bins below.
  }
  // Bin position: keys between keys[pos-1] and keys[pos] live at bin `pos`;
  // an exact array match uses its own position's bins for re-inserts.
  Bin::Slot* s = FindInBins(m->bins[pos].load(std::memory_order_acquire), key);
  if (s == nullptr) return false;
  *out = s->value.load(std::memory_order_acquire);
  return true;
}

bool FinedexLike::Insert(Key key, Value value, ServedBy*) {
  Model* m = LocateModel(key);
  const size_t pos = m->LowerBound(key);
  const bool in_array = pos < m->keys.size() && m->keys[pos] == key;
  if (in_array && !m->Tombstoned(pos)) return false;
  SpinLockGuard lg(m->bin_locks[pos]);
  if (in_array && !m->Tombstoned(pos)) return false;  // re-check under lock
  Bin* head = m->bins[pos].load(std::memory_order_acquire);
  if (FindInBins(head, key) != nullptr) return false;
  // Append into the first bin with space (bins are append-only; deleted
  // slots are not recycled, as in level bins).
  Bin* b = head;
  Bin* prev = nullptr;
  while (b != nullptr && b->count.load(std::memory_order_relaxed) >= kBinCapacity) {
    prev = b;
    b = b->next.load(std::memory_order_acquire);
  }
  if (b == nullptr) {
    b = new Bin();
    if (prev == nullptr) {
      m->bins[pos].store(b, std::memory_order_release);
    } else {
      prev->next.store(b, std::memory_order_release);
    }
  }
  const uint32_t i = b->count.load(std::memory_order_relaxed);
  b->slots[i].key.store(key, std::memory_order_relaxed);
  b->slots[i].value.store(value, std::memory_order_relaxed);
  b->slots[i].state.store(1, std::memory_order_release);
  b->count.store(i + 1, std::memory_order_release);
  size_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool FinedexLike::Update(Key key, Value value, ServedBy*) {
  Model* m = LocateModel(key);
  const size_t pos = m->LowerBound(key);
  if (pos < m->keys.size() && m->keys[pos] == key && !m->Tombstoned(pos)) {
    m->values[pos].store(value, std::memory_order_release);
    return true;
  }
  SpinLockGuard lg(m->bin_locks[pos]);
  Bin::Slot* s = FindInBins(m->bins[pos].load(std::memory_order_acquire), key);
  if (s == nullptr || s->state.load(std::memory_order_acquire) != 1) return false;
  s->value.store(value, std::memory_order_release);
  return true;
}

bool FinedexLike::Remove(Key key, ServedBy*) {
  Model* m = LocateModel(key);
  const size_t pos = m->LowerBound(key);
  SpinLockGuard lg(m->bin_locks[pos]);
  if (pos < m->keys.size() && m->keys[pos] == key && !m->Tombstoned(pos)) {
    m->tombstones[pos >> 6].fetch_or(uint64_t{1} << (pos & 63),
                                     std::memory_order_release);
    size_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  Bin::Slot* s = FindInBins(m->bins[pos].load(std::memory_order_acquire), key);
  if (s == nullptr || s->state.load(std::memory_order_acquire) != 1) return false;
  s->state.store(2, std::memory_order_release);
  size_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void FinedexLike::CollectBins(Bin* head, Key lo, Key hi,
                              std::vector<std::pair<Key, Value>>* out) const {
  for (Bin* b = head; b != nullptr; b = b->next.load(std::memory_order_acquire)) {
    const uint32_t cnt =
        std::min<uint32_t>(b->count.load(std::memory_order_acquire), kBinCapacity);
    for (uint32_t i = 0; i < cnt; ++i) {
      Bin::Slot& s = b->slots[i];
      if (s.state.load(std::memory_order_acquire) != 1) continue;
      const Key k = s.key.load(std::memory_order_relaxed);
      if (k >= lo && k <= hi) {
        out->emplace_back(k, s.value.load(std::memory_order_relaxed));
      }
    }
  }
}

size_t FinedexLike::Scan(Key start, size_t count,
                         std::vector<std::pair<Key, Value>>* out) const {
  out->clear();
  if (count == 0) return 0;
  // Locate the starting model index.
  size_t mi = 0;
  {
    size_t lo = 0, hi = first_keys_.size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (first_keys_[mid] <= start) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    mi = lo == 0 ? 0 : lo - 1;
  }
  std::vector<std::pair<Key, Value>> chunk;
  for (; mi < models_.size() && out->size() < count; ++mi) {
    Model* m = models_[mi].get();
    chunk.clear();
    for (size_t pos = m->LowerBound(start); pos <= m->keys.size(); ++pos) {
      CollectBins(m->bins[pos].load(std::memory_order_acquire), start, ~Key{0},
                  &chunk);
      if (pos < m->keys.size() && m->keys[pos] >= start && !m->Tombstoned(pos)) {
        chunk.emplace_back(m->keys[pos], m->values[pos].load(std::memory_order_acquire));
      }
      if (chunk.size() >= 2 * count + 16) break;  // enough for this model
    }
    std::sort(chunk.begin(), chunk.end());
    for (const auto& kv : chunk) {
      if (out->size() >= count) break;
      out->push_back(kv);
    }
  }
  if (out->size() > count) out->resize(count);
  return out->size();
}

size_t FinedexLike::MemoryUsage() const {
  size_t total = first_keys_.size() * sizeof(Key);
  for (const auto& m : models_) {
    total += sizeof(Model);
    total += m->keys.size() * (sizeof(Key) + sizeof(Value));
    total += (m->keys.size() + 1) * (sizeof(std::atomic<Bin*>) + sizeof(SpinLock));
    total += ((m->keys.size() + 63) / 64) * 8;
    for (size_t i = 0; i <= m->keys.size(); ++i) {
      for (Bin* b = m->bins[i].load(std::memory_order_acquire); b != nullptr;
           b = b->next.load(std::memory_order_acquire)) {
        total += sizeof(Bin);
      }
    }
  }
  return total;
}

}  // namespace alt
