#include "baselines/art_index.h"

#include "common/epoch.h"

namespace alt {

Status ArtIndex::BulkLoad(const Key* keys, const Value* values, size_t n) {
  EpochGuard g;
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && keys[i] <= keys[i - 1]) {
      return Status::InvalidArgument("keys must be sorted and duplicate-free");
    }
    tree_.Insert(keys[i], values[i]);
  }
  return Status::OK();
}

bool ArtIndex::Lookup(Key key, Value* out, ServedBy*) const {
  EpochGuard g;
  return tree_.Lookup(key, out);
}

bool ArtIndex::Insert(Key key, Value value, ServedBy*) {
  EpochGuard g;
  return tree_.Insert(key, value);
}

bool ArtIndex::Update(Key key, Value value, ServedBy*) {
  EpochGuard g;
  return tree_.Update(key, value);
}

bool ArtIndex::Remove(Key key, ServedBy*) {
  EpochGuard g;
  return tree_.Remove(key);
}

size_t ArtIndex::Scan(Key start, size_t count,
                      std::vector<std::pair<Key, Value>>* out) const {
  EpochGuard g;
  return tree_.Scan(start, count, out);
}

}  // namespace alt
