// The BulkLoad slot slab (DESIGN.md §10.2): one 2MB-aligned mapping carved
// into every bulk-loaded model's slot array, filled (and so faulted in) by a
// helper thread while the conflicts go into ART-OPT when it is large, and
// kept mapped until the last model that lives in it is freed. The CI TSan leg
// runs this binary (the helper thread); the ASan+UBSan leg runs the redzone
// death test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "common/aligned_mem.h"
#include "common/epoch.h"
#include "core/alt_index.h"
#include "datasets/dataset.h"

#if defined(__SANITIZE_ADDRESS__)
#define SLAB_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SLAB_TEST_ASAN 1
#endif
#endif

namespace alt {
namespace {

std::vector<const GplModel*> Models(const AltIndex& index) {
  std::vector<const GplModel*> out;
  for (const auto& m : index.directory().snapshot()->models) {
    out.push_back(m.load(std::memory_order_acquire));
  }
  return out;
}

std::unique_ptr<AltIndex> LoadOsm(size_t n, EpochManager* epoch,
                                  AltOptions opts = AltOptions{}) {
  opts.epoch_manager = epoch;
  auto index = std::make_unique<AltIndex>(opts);
  const std::vector<Key> keys = GenerateKeys(Dataset::kOsm, n, 7);
  std::vector<Value> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = ValueFor(keys[i]);
  EXPECT_TRUE(index->BulkLoad(keys.data(), values.data(), keys.size()).ok());
  return index;
}

/// Walk the sorted keys model by model: a key conflicts exactly when its
/// predecessor in the same model predicted the same slot. Conflicts must be in
/// ART-OPT and nowhere else; every other key in its predicted slot.
void ExpectArtHoldsExactlyTheConflicts(const AltIndex& index, EpochManager& epoch,
                                       const std::vector<Key>& keys) {
  const std::vector<const GplModel*> models = Models(index);
  EpochGuard g(epoch);
  size_t conflicts = 0;
  size_t m = 0;
  uint32_t prev = 0;
  bool first_in_model = true;
  for (const Key k : keys) {
    while (m + 1 < models.size() && models[m + 1]->first_key() <= k) {
      ++m;
      first_in_model = true;
    }
    const uint32_t p = models[m]->Predict(k);
    Value v = 0;
    if (!first_in_model && p == prev) {
      ++conflicts;
      ASSERT_TRUE(index.art().Lookup(k, &v)) << "conflict " << k << " missing from ART";
      EXPECT_EQ(v, ValueFor(k));
    } else {
      const GplSlot& s = models[m]->slot(p);
      ASSERT_EQ(SlotWord::StateOf(s.word.Read()), SlotState::kOccupied) << k;
      ASSERT_EQ(s.OptimisticKey(), k);
      ASSERT_EQ(s.OptimisticValue(), ValueFor(k));
      ASSERT_FALSE(index.art().Lookup(k, &v)) << k << " is in its slot and ART";
    }
    prev = p;
    first_in_model = false;
  }
  EXPECT_GT(conflicts, 0u);
  EXPECT_EQ(index.art().Size(), conflicts);
}

/// Every bulk-loaded slot array is a 64-byte-aligned slice of one slab of at
/// least `min_slab` bytes, mapped at a 2MB boundary; unfilled slots are zero.
void ExpectOneAlignedZeroFilledSlab(const AltIndex& index, EpochManager& epoch,
                                    size_t min_slab) {
  const AltIndex::StructuralStats st = index.CollectStructuralStats();
  ASSERT_GE(st.slab_bytes, min_slab);
  EXPECT_EQ(st.slab_models, st.num_models);
  EXPECT_EQ(st.total_bytes, index.MemoryUsage());
  EXPECT_NE(index.StructureJson().find("\"slab_models\": " + std::to_string(st.slab_models)),
            std::string::npos);

  const std::vector<const GplModel*> models = Models(index);
  const SlotSlab* slab = models.front()->slab();
  ASSERT_NE(slab, nullptr);
  EXPECT_EQ(slab->capacity(), st.slab_bytes);
#if defined(__linux__)
  EXPECT_TRUE(slab->mapped());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(slab->base()) % kHugePageBytes, 0u);
#endif

  // Every array is a 64-byte-aligned, non-overlapping slice of that slab.
  std::vector<std::pair<const char*, const char*>> ranges;
  for (const GplModel* m : models) {
    ASSERT_EQ(m->slab(), slab);
    const auto* lo = reinterpret_cast<const char*>(&m->slot(0));
    const char* hi = lo + sizeof(GplSlot) * m->num_slots();
    EXPECT_EQ(reinterpret_cast<uintptr_t>(lo) % 64, 0u);
    EXPECT_GE(lo, slab->base());
    EXPECT_LE(hi, slab->base() + slab->capacity());
    ranges.emplace_back(lo, hi);
  }
  std::sort(ranges.begin(), ranges.end());
  for (size_t i = 1; i < ranges.size(); ++i) EXPECT_LE(ranges[i - 1].second, ranges[i].first);

  // Slots the load did not fill are still all-zero (kEmpty, key 0, value 0).
  EpochGuard g(epoch);
  size_t empty = 0;
  for (const GplModel* m : models) {
    for (uint32_t i = 0; i < m->num_slots(); ++i) {
      const GplSlot& s = m->slot(i);
      const uint32_t w = s.word.Read();
      if (SlotWord::StateOf(w) != SlotState::kEmpty) continue;
      ++empty;
      ASSERT_EQ(w, 0u);
      ASSERT_EQ(s.OptimisticKey(), 0u);
      ASSERT_EQ(s.OptimisticValue(), 0u);
    }
  }
  EXPECT_GT(empty, 0u);
}

// ---------------------------------------------------------------------------
// The allocation primitives
// ---------------------------------------------------------------------------

TEST(SlotSlabTest, HeapArrayRoundtrip) {
  for (const size_t bytes : {size_t{64}, size_t{4096}, 3 * kHugePageBytes}) {
    void* p = AllocateHotArray(bytes);
    ASSERT_NE(p, nullptr) << "bytes=" << bytes;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u);
    auto* b = static_cast<unsigned char*>(p);
    for (size_t i = 0; i < bytes; i += 512) EXPECT_EQ(b[i], 0) << "offset " << i;
    b[0] = 0xab;
    b[bytes - 1] = 0xcd;  // whole range writable
    std::free(p);
  }
}

TEST(SlotSlabTest, SlabRoundtripSmallAndHuge) {
  for (const size_t slice : {size_t{64}, size_t{4096}, kHugePageBytes + 96}) {
    const size_t capacity = 3 * SlotSlab::SliceFootprint(slice);
    SlotSlab* slab = SlotSlab::Create(capacity);
    ASSERT_NE(slab, nullptr);
    EXPECT_EQ(slab->capacity(), capacity);
#if defined(__linux__)
    EXPECT_TRUE(slab->mapped()) << "mmap failed";
    if (capacity >= kHugePageBytes) {
      EXPECT_EQ(reinterpret_cast<uintptr_t>(slab->base()) % kHugePageBytes, 0u);
    }
#endif
    std::vector<unsigned char*> slices;
    for (int i = 0; i < 3; ++i) {
      auto* p = static_cast<unsigned char*>(slab->Carve(slice));
      ASSERT_NE(p, nullptr) << "slice " << i;
      EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u);
      if (!slices.empty()) {
        EXPECT_GE(p, slices.back() + slice);  // no overlap
      }
      for (size_t o = 0; o < slice; o += 512) EXPECT_EQ(p[o], 0) << "offset " << o;
      p[0] = 0xab;
      p[slice - 1] = 0xcd;
      slices.push_back(p);
    }
    EXPECT_EQ(slab->Carve(slice), nullptr) << "capacity is exact";
    for (unsigned char* p : slices) slab->ReleaseSlice(p, slice);
    slab->Unref();  // last reference: unmaps
  }
}

TEST(SlotSlabTest, ModelInSlabWorksRegardlessOfBacking) {
  // ~2.2MB of slots: a huge page backs part of it when THP allows, 4KB pages
  // otherwise — either way the model must behave.
  const uint32_t n = 70000;
  SlotSlab* slab = SlotSlab::Create(SlotSlab::SliceFootprint(sizeof(GplSlot) * n));
  ASSERT_NE(slab, nullptr);
  {
    GplModel model(0, 1.0, n, 0, ~Key{0}, slab);
    EXPECT_EQ(model.slab(), slab);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(&model.slot(0)) % 64, 0u);
    EpochGuard g;
    EXPECT_EQ(model.CountOccupied(), 0u);
    GplSlot& s = model.slot(model.Predict(12345));
    const uint32_t w = s.word.Lock();
    s.key.store(12345, std::memory_order_relaxed);
    s.value.store(99, std::memory_order_relaxed);
    s.word.Unlock(w, SlotState::kOccupied);
    EXPECT_EQ(model.CountOccupied(), 1u);
  }
  slab->Unref();
}

// ---------------------------------------------------------------------------
// BulkLoad over a slab
// ---------------------------------------------------------------------------

TEST(SlotSlabTest, BulkLoadPutsEveryArrayInOneAlignedSlab) {
  // At gap factor 2 and 32 B/slot, 150k osm keys take a slab past 8MB, filled
  // inline; 900k keys take one past 64MB, filled by the helper thread.
  for (const auto& [n, min_slab] :
       {std::pair<size_t, size_t>{150000, size_t{8} << 20}, {900000, size_t{64} << 20}}) {
    SCOPED_TRACE(n);
    EpochManager epoch("slab-test");
    auto index = LoadOsm(n, &epoch);
    ExpectOneAlignedZeroFilledSlab(*index, epoch, min_slab);
    ExpectArtHoldsExactlyTheConflicts(*index, epoch, GenerateKeys(Dataset::kOsm, n, 7));
  }
}

TEST(SlotSlabTest, ArtHoldsExactlyThePredictionDerivedConflicts) {
  EpochManager epoch("slab-test");
  AltOptions opts;
  opts.gap_factor = 1.2;  // dense: plenty of conflicts
  constexpr size_t kN = 60000;
  auto index = LoadOsm(kN, &epoch, opts);
  ExpectArtHoldsExactlyTheConflicts(*index, epoch, GenerateKeys(Dataset::kOsm, kN, 7));
}

TEST(SlotSlabTest, ForcedRetrainOfSlabModelKeepsLookupsAndBytesExact) {
  EpochManager epoch("slab-test");
  AltOptions opts;
  opts.epoch_manager = &epoch;
  opts.retrain_trigger_ratio = 0.5;
  AltIndex index(opts);
  constexpr Key kBulk = 15000;
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k = 0; k < kBulk; ++k) pairs.emplace_back(k * 4, ValueFor(k * 4));
  ASSERT_TRUE(index.BulkLoad(pairs).ok());
  const GplModel* first = Models(index).front();
  ASSERT_NE(first->slab(), nullptr);
  const char* old_lo = reinterpret_cast<const char*>(&first->slot(0));
  const size_t old_bytes = sizeof(GplSlot) * first->num_slots();

  for (Key k = 0; k < kBulk; ++k) {
    for (Key d = 1; d <= 3; ++d) ASSERT_TRUE(index.Insert(k * 4 + d, ValueFor(k * 4 + d)));
  }
  ASSERT_GT(index.CollectStats().retrain_finished, 0u);
  epoch.DrainAll();  // frees the replaced slab models: their slices go back

  const AltIndex::StructuralStats st = index.CollectStructuralStats();
  EXPECT_LT(st.slab_models, st.num_models) << "a retrained model moved to the heap";
  EXPECT_EQ(st.total_bytes, index.MemoryUsage());
  for (Key k = 0; k < kBulk * 4; ++k) {
    Value v = 0;
    ASSERT_TRUE(index.Lookup(k, &v)) << k;
    ASSERT_EQ(v, ValueFor(k));
  }

#if defined(__linux__)
  {
    // The first model was replaced and freed: the whole pages inside its
    // slice are no longer resident.
    ASSERT_NE(Models(index).front(), first);
    const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
    const uintptr_t lo = (reinterpret_cast<uintptr_t>(old_lo) + page - 1) & ~(page - 1);
    const uintptr_t hi = (reinterpret_cast<uintptr_t>(old_lo) + old_bytes) & ~(page - 1);
    if (lo < hi) {
      std::vector<unsigned char> resident((hi - lo) / page);
      ASSERT_EQ(mincore(reinterpret_cast<void*>(lo), hi - lo, resident.data()), 0);
      for (size_t i = 0; i < resident.size(); ++i) EXPECT_EQ(resident[i] & 1, 0) << i;
    }
  }
#endif
}

TEST(SlotSlabTest, RetiredSlabModelsOutliveTheirIndex) {
  // A replaced model still in the retire queue when its index is destroyed
  // keeps the slab mapped until the queue drains.
  EpochManager epoch("slab-test");
  {
    AltOptions opts;
    opts.epoch_manager = &epoch;
    opts.retrain_trigger_ratio = 0.5;
    AltIndex index(opts);
    std::vector<std::pair<Key, Value>> pairs;
    for (Key k = 0; k < 4000; ++k) pairs.emplace_back(k * 4, k);
    ASSERT_TRUE(index.BulkLoad(pairs).ok());
    for (Key k = 0; k < 4000; ++k) {
      for (Key d = 1; d <= 3; ++d) ASSERT_TRUE(index.Insert(k * 4 + d, k));
    }
    ASSERT_GT(index.CollectStats().retrain_finished, 0u);
  }
  EXPECT_GT(epoch.PendingCount(), 0u);
  epoch.DrainAll();
  EXPECT_EQ(epoch.PendingCount(), 0u);
}

TEST(SlotSlabTest, EmptyAndTinyBulkLoadsWork) {
  EpochManager epoch("slab-test");
  {
    AltOptions opts;
    opts.epoch_manager = &epoch;
    AltIndex empty(opts);
    ASSERT_TRUE(empty.BulkLoad(nullptr, nullptr, 0).ok());
    const AltIndex::StructuralStats st = empty.CollectStructuralStats();
    EXPECT_EQ(st.slab_models, 0u);
    EXPECT_EQ(st.slab_bytes, 0u);
    for (Key k = 1; k <= 100; ++k) ASSERT_TRUE(empty.Insert(k * 1000, k));
    Value v = 0;
    ASSERT_TRUE(empty.Lookup(50000, &v));
    EXPECT_EQ(v, 50u);
  }
  {
    AltOptions opts;
    opts.epoch_manager = &epoch;
    AltIndex tiny(opts);
    const Key keys[] = {10, 20, 30};
    const Value values[] = {1, 2, 3};
    ASSERT_TRUE(tiny.BulkLoad(keys, values, 3).ok());
    const AltIndex::StructuralStats st = tiny.CollectStructuralStats();
    EXPECT_EQ(st.slab_models, st.num_models);
    EXPECT_GT(st.slab_bytes, 0u);
    EXPECT_EQ(st.total_bytes, tiny.MemoryUsage());
    for (int i = 0; i < 3; ++i) {
      Value v = 0;
      ASSERT_TRUE(tiny.Lookup(keys[i], &v));
      EXPECT_EQ(v, values[i]);
    }
    ASSERT_TRUE(tiny.Insert(25, 9));
    ASSERT_TRUE(tiny.Insert(1000, 10));
    Value v = 0;
    ASSERT_TRUE(tiny.Lookup(25, &v));
    EXPECT_EQ(v, 9u);
  }
  epoch.DrainAll();
}

// In ALT_SANITIZE=address builds a read one slot past a slab model's array
// lands in the slice's poisoned redzone, as it would past a heap array.
TEST(SlotSlabDeathTest, ReadPastLastSlotIsCaught) {
#if !defined(SLAB_TEST_ASAN)
  GTEST_SKIP() << "needs an ALT_SANITIZE=address build";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EpochManager epoch("slab-test");
  auto index = LoadOsm(2000, &epoch);
  const GplModel* m = Models(*index).front();
  ASSERT_NE(m->slab(), nullptr);
  EXPECT_DEATH((void)m->slot(m->num_slots()).word.Read(), "use-after-poison");
#endif
}

}  // namespace
}  // namespace alt
