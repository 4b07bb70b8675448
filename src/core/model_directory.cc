#include "core/model_directory.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/epoch.h"

namespace alt {

ModelDirectory::ModelDirectory(EpochManager* epoch)
    : epoch_(epoch != nullptr ? epoch : &EpochManager::Global()) {}

ModelDirectory::~ModelDirectory() {
  Snapshot* s = snapshot_.load(std::memory_order_acquire);
  if (s == nullptr) return;
  for (auto& m : s->models) {
    GplModel* model = m.load(std::memory_order_relaxed);
    delete model;
  }
  delete s;
}

void ModelDirectory::BuildRadix(Snapshot* s, int radix_bits) {
  assert(radix_bits >= 0 && radix_bits <= kMaxRadixBits);
  s->radix_bits = radix_bits;
  s->radix.clear();
  if (radix_bits == 0) return;
  const size_t n = s->first_keys.size();
  s->radix_base = n == 0 ? 0 : s->first_keys.front();
  const Key span = n == 0 ? 0 : s->first_keys.back() - s->radix_base;
  // The smallest shift with span >> shift < 2^radix_bits: the last anchor
  // lands in the last bucket at worst, and r << shift cannot overflow for
  // r < 2^radix_bits because shift + radix_bits <= 64.
  s->radix_shift = std::max(0, static_cast<int>(std::bit_width(span)) - radix_bits);
  const size_t buckets = size_t{1} << radix_bits;
  s->radix.assign(buckets + 1, 0);
  // radix[r] = first index i with first_keys[i] >= radix_base + (r << shift).
  // The comparison runs on offsets from radix_base, so no boundary is ever
  // formed by an addition that could wrap past ~Key{0}.
  size_t i = 0;
  for (size_t r = 0; r < buckets; ++r) {
    const Key boundary = static_cast<Key>(r) << s->radix_shift;
    while (i < n && s->first_keys[i] - s->radix_base < boundary) ++i;
    s->radix[r] = static_cast<uint32_t>(i);
  }
  s->radix[buckets] = static_cast<uint32_t>(n);
}

void ModelDirectory::Build(std::vector<GplModel*> models, int radix_bits) {
  // Build is single-threaded by contract, but holding the structure lock
  // keeps the radix_bits_ write inside its guarding capability.
  SpinLockGuard lg(structure_lock_);
  radix_bits_ = radix_bits;
  auto* s = new Snapshot(models.size());
  for (size_t i = 0; i < models.size(); ++i) {
    s->first_keys[i] = models[i]->first_key();
    s->models[i].store(models[i], std::memory_order_relaxed);
  }
  BuildRadix(s, radix_bits_);
  Snapshot* old = snapshot_.exchange(s, std::memory_order_acq_rel);
  assert(old == nullptr && "Build must run once, before any operation");
  (void)old;
}

bool ModelDirectory::PublishReplacement(GplModel* old_model, GplModel* new_model) {
  SpinLockGuard lg(structure_lock_);
  Snapshot* s = snapshot_.load(std::memory_order_acquire);
  const size_t idx = Locate(*s, old_model->first_key());
  if (s->models[idx].load(std::memory_order_acquire) != old_model) return false;
  s->models[idx].store(new_model, std::memory_order_release);
  epoch_->Retire(old_model, [](void* p) { delete static_cast<GplModel*>(p); });
  return true;
}

bool ModelDirectory::AppendTail(GplModel* model) {
  SpinLockGuard lg(structure_lock_);
  Snapshot* s = snapshot_.load(std::memory_order_acquire);
  const size_t n = s->first_keys.size();
  if (n > 0 && model->first_key() <= s->first_keys[n - 1]) {
    // A concurrent append (another finishing expansion) already covers this
    // range; the caller drops its tail.
    return false;
  }
  auto* ns = new Snapshot(n + 1);
  for (size_t i = 0; i < n; ++i) {
    ns->first_keys[i] = s->first_keys[i];
    ns->models[i].store(s->models[i].load(std::memory_order_acquire),
                        std::memory_order_relaxed);
  }
  ns->first_keys[n] = model->first_key();
  ns->models[n].store(model, std::memory_order_relaxed);
  BuildRadix(ns, radix_bits_);
  snapshot_.store(ns, std::memory_order_release);
  RetireSnapshot(s);
  return true;
}

void ModelDirectory::RetireSnapshot(Snapshot* s) {
  epoch_->Retire(s, [](void* p) { delete static_cast<Snapshot*>(p); });
}

size_t ModelDirectory::MemoryBytes() const {
  const Snapshot* s = snapshot_.load(std::memory_order_acquire);
  if (s == nullptr) return 0;
  size_t total = sizeof(Snapshot) +
                 s->first_keys.size() * (sizeof(Key) + sizeof(std::atomic<GplModel*>)) +
                 s->radix.size() * sizeof(uint32_t);
  for (const auto& m : s->models) {
    const GplModel* model = m.load(std::memory_order_acquire);
    total += model->MemoryBytes();
    const Expansion* e = model->expansion();
    if (e != nullptr && e->new_model != nullptr) total += e->new_model->MemoryBytes();
  }
  return total;
}

}  // namespace alt
