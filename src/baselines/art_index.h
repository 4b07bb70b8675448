#pragma once

#include "art/art_tree.h"
#include "common/index_interface.h"

namespace alt {

/// \brief Plain ART with optimistic lock coupling (the paper's "ART" row,
/// §IV-A3: "we add ART with optimistic lock scheme as a competitor"). Every
/// operation starts at the root — no learned layer, no fast pointers.
class ArtIndex : public ConcurrentIndex {
 public:
  std::string Name() const override { return "ART"; }

  Status BulkLoad(const Key* keys, const Value* values, size_t n) override;
  bool Lookup(Key key, Value* out, ServedBy* served = nullptr) const override;
  bool Insert(Key key, Value value, ServedBy* served = nullptr) override;
  bool Update(Key key, Value value, ServedBy* served = nullptr) override;
  bool Remove(Key key, ServedBy* served = nullptr) override;
  size_t Scan(Key start, size_t count,
              std::vector<std::pair<Key, Value>>* out) const override;
  size_t MemoryUsage() const override { return tree_.MemoryUsage(); }
  size_t Size() const override { return tree_.Size(); }

  const art::ArtTree& tree() const { return tree_; }

 private:
  art::ArtTree tree_;
};

}  // namespace alt
