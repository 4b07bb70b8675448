#pragma once

#include <map>

#include "common/index_interface.h"
#include "common/shared_mutex.h"

namespace alt {

/// \brief Correctness oracle: std::map under a reader-writer lock.
///
/// Not a performance competitor (the paper does not benchmark a B-tree); the
/// stress / property tests compare every other index against this oracle to
/// validate results under concurrency.
class BTreeIndex : public ConcurrentIndex {
 public:
  std::string Name() const override { return "BTree(oracle)"; }

  Status BulkLoad(const Key* keys, const Value* values, size_t n) override {
    WriteLockGuard lock(mu_);
    for (size_t i = 0; i < n; ++i) {
      if (i > 0 && keys[i] <= keys[i - 1]) {
        return Status::InvalidArgument("keys must be sorted and duplicate-free");
      }
      map_.emplace(keys[i], values[i]);
    }
    return Status::OK();
  }

  bool Lookup(Key key, Value* out, ServedBy* served = nullptr) const override {
    ReadLockGuard lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    *out = it->second;
    return true;
  }

  bool Insert(Key key, Value value, ServedBy* served = nullptr) override {
    WriteLockGuard lock(mu_);
    return map_.emplace(key, value).second;
  }

  bool Update(Key key, Value value, ServedBy* served = nullptr) override {
    WriteLockGuard lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    it->second = value;
    return true;
  }

  bool Remove(Key key, ServedBy* served = nullptr) override {
    WriteLockGuard lock(mu_);
    return map_.erase(key) > 0;
  }

  size_t Scan(Key start, size_t count,
              std::vector<std::pair<Key, Value>>* out) const override {
    ReadLockGuard lock(mu_);
    out->clear();
    for (auto it = map_.lower_bound(start); it != map_.end() && out->size() < count;
         ++it) {
      out->emplace_back(it->first, it->second);
    }
    return out->size();
  }

  size_t MemoryUsage() const override {
    ReadLockGuard lock(mu_);
    // std::map node: 3 pointers + color + payload, rounded to the allocator.
    return map_.size() * (sizeof(std::pair<Key, Value>) + 40);
  }

  size_t Size() const override {
    ReadLockGuard lock(mu_);
    return map_.size();
  }

 private:
  mutable SharedMutex mu_;
  std::map<Key, Value> map_ GUARDED_BY(mu_);
};

}  // namespace alt
