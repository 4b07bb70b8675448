#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/epoch.h"
#include "core/gpl_model.h"
#include "core/model_directory.h"

namespace alt {
namespace {

// ---------------------------------------------------------------------------
// SlotWord
// ---------------------------------------------------------------------------

TEST(SlotWordTest, InitialStateEmpty) {
  SlotWord w;
  EXPECT_EQ(SlotWord::StateOf(w.Read()), SlotState::kEmpty);
}

TEST(SlotWordTest, LockUnlockTransitionsState) {
  SlotWord w;
  uint32_t lw = w.Lock();
  EXPECT_EQ(SlotWord::StateOf(lw), SlotState::kEmpty);
  w.Unlock(lw, SlotState::kOccupied);
  EXPECT_EQ(SlotWord::StateOf(w.Read()), SlotState::kOccupied);
  lw = w.Lock();
  w.Unlock(lw, SlotState::kTombstone);
  EXPECT_EQ(SlotWord::StateOf(w.Read()), SlotState::kTombstone);
  lw = w.Lock();
  w.Unlock(lw, SlotState::kMigrated);
  EXPECT_EQ(SlotWord::StateOf(w.Read()), SlotState::kMigrated);
}

TEST(SlotWordTest, ValidateDetectsIntermediateWriter) {
  SlotWord w;
  const uint32_t r = w.Read();
  EXPECT_TRUE(w.Validate(r));
  const uint32_t lw = w.Lock();
  w.Unlock(lw, SlotState::kOccupied);
  EXPECT_FALSE(w.Validate(r));
}

TEST(SlotWordTest, SequenceMonotonicAcrossSameStateUnlocks) {
  SlotWord w;
  const uint32_t r0 = w.Read();
  uint32_t lw = w.Lock();
  w.Unlock(lw, SlotState::kEmpty);  // same state, still bumps the version
  EXPECT_FALSE(w.Validate(r0));
  EXPECT_EQ(SlotWord::StateOf(w.Read()), SlotState::kEmpty);
}

TEST(SlotWordTest, ConcurrentLockersSerialize) {
  SlotWord w;
  std::atomic<int> inside{0};
  std::atomic<bool> overlap{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 3000; ++i) {
        const uint32_t lw = w.Lock();
        if (inside.fetch_add(1) != 0) overlap.store(true);
        inside.fetch_sub(1);
        w.Unlock(lw, SlotWord::StateOf(lw));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(overlap.load());
}

// ---------------------------------------------------------------------------
// GplModel
// ---------------------------------------------------------------------------

TEST(GplModelTest, PredictAnchorsAtFirstKey) {
  GplModel m(1000, 2.0, 100, 10);
  EXPECT_EQ(m.Predict(1000), 0u);
  EXPECT_EQ(m.Predict(999), 0u);   // under-range clamps to 0
  EXPECT_EQ(m.Predict(1), 0u);
  EXPECT_EQ(m.Predict(1010), 20u);
  EXPECT_EQ(m.Predict(100000), 99u);  // over-range clamps to last slot
}

TEST(GplModelTest, PredictIsMonotone) {
  GplModel m(500, 0.37, 1000, 10);
  uint32_t prev = 0;
  for (Key k = 500; k < 5000; k += 3) {
    const uint32_t p = m.Predict(k);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(GplModelTest, ZeroSlopeAlwaysSlotZero) {
  GplModel m(10, 0.0, 1, 1);
  EXPECT_EQ(m.Predict(10), 0u);
  EXPECT_EQ(m.Predict(1u << 30), 0u);
}

TEST(GplModelTest, CollectRangeReturnsSortedOccupied) {
  GplModel m(0, 1.0, 100, 50);
  for (uint32_t i = 0; i < 100; i += 2) {
    GplSlot& s = m.slot(i);
    const uint32_t lw = s.word.Lock();
    s.key.store(i, std::memory_order_relaxed);
    s.value.store(i * 10, std::memory_order_relaxed);
    s.word.Unlock(lw, SlotState::kOccupied);
  }
  // A tombstone and a migrated slot must be skipped.
  {
    GplSlot& s = m.slot(4);
    const uint32_t lw = s.word.Lock();
    s.word.Unlock(lw, SlotState::kTombstone);
  }
  std::vector<std::pair<Key, Value>> out;
  m.CollectRange(0, 50, &out);
  ASSERT_FALSE(out.empty());
  for (size_t i = 1; i < out.size(); ++i) EXPECT_LT(out[i - 1].first, out[i].first);
  for (const auto& [k, v] : out) {
    EXPECT_NE(k, 4u) << "tombstoned key leaked into scan";
    EXPECT_EQ(v, k * 10);
    EXPECT_LE(k, 50u);
  }
}

TEST(GplModelTest, CountSlotStates) {
  GplModel m(0, 1.0, 64, 10);
  size_t before[4] = {0, 0, 0, 0};
  m.CountSlotStates(before);
  EXPECT_EQ(before[static_cast<int>(SlotState::kOccupied)], 0u);
  for (uint32_t i = 0; i < 10; ++i) {
    GplSlot& s = m.slot(i);
    const uint32_t lw = s.word.Lock();
    s.key.store(i, std::memory_order_relaxed);
    s.word.Unlock(lw, SlotState::kOccupied);
  }
  size_t after[4] = {0, 0, 0, 0};
  m.CountSlotStates(after);
  EXPECT_EQ(after[static_cast<int>(SlotState::kOccupied)], 10u);
}

TEST(GplModelTest, ExpansionInstallIsExclusive) {
  GplModel m(0, 1.0, 64, 10);
  auto* e1 = new Expansion(new GplModel(0, 2.0, 129, 10));
  auto* e2 = new Expansion(new GplModel(0, 2.0, 129, 10));
  EXPECT_TRUE(m.TryInstallExpansion(e1));
  EXPECT_FALSE(m.TryInstallExpansion(e2));
  EXPECT_EQ(m.expansion(), e1);
  delete e2;
  // e1 is owned (and freed) by the model's destructor.
}

// ---------------------------------------------------------------------------
// ModelDirectory
// ---------------------------------------------------------------------------

TEST(ModelDirectoryTest, LocateFindsOwningModel) {
  ModelDirectory dir;
  std::vector<GplModel*> models;
  for (Key fk : {10u, 100u, 1000u}) {
    models.push_back(new GplModel(fk, 1.0, 16, 4));
  }
  dir.Build(models);
  const auto* snap = dir.snapshot();
  EXPECT_EQ(ModelDirectory::Locate(*snap, 5), 0u);    // under-range clamps
  EXPECT_EQ(ModelDirectory::Locate(*snap, 10), 0u);
  EXPECT_EQ(ModelDirectory::Locate(*snap, 99), 0u);
  EXPECT_EQ(ModelDirectory::Locate(*snap, 100), 1u);
  EXPECT_EQ(ModelDirectory::Locate(*snap, 999), 1u);
  EXPECT_EQ(ModelDirectory::Locate(*snap, 1000), 2u);
  EXPECT_EQ(ModelDirectory::Locate(*snap, ~Key{0}), 2u);
}

TEST(ModelDirectoryTest, ReplacementPreservesOrderAndRetiresOld) {
  ModelDirectory dir;
  dir.Build({new GplModel(10, 1.0, 16, 4), new GplModel(100, 1.0, 16, 4)});
  const auto* snap = dir.snapshot();
  GplModel* old_model = snap->models[1].load();
  auto* replacement = new GplModel(100, 2.0, 33, 8);
  EXPECT_TRUE(dir.PublishReplacement(old_model, replacement));
  EXPECT_EQ(dir.snapshot()->models[1].load(), replacement);
  // Replacing again with the stale pointer fails.
  auto* again = new GplModel(100, 4.0, 67, 8);
  EXPECT_FALSE(dir.PublishReplacement(old_model, again));
  delete again;
  EpochManager::Global().DrainAll();
}

TEST(ModelDirectoryTest, AppendTailGrowsSnapshot) {
  ModelDirectory dir;
  dir.Build({new GplModel(10, 1.0, 16, 4)});
  EXPECT_EQ(dir.NumModels(), 1u);
  dir.AppendTail(new GplModel(500, 1.0, 16, 4));
  EXPECT_EQ(dir.NumModels(), 2u);
  const auto* snap = dir.snapshot();
  EXPECT_EQ(snap->first_keys[1], 500u);
  EXPECT_EQ(ModelDirectory::Locate(*snap, 600), 1u);
  EpochManager::Global().DrainAll();
}

TEST(ModelDirectoryTest, MemoryBytesCountsModels) {
  ModelDirectory dir;
  dir.Build({new GplModel(10, 1.0, 1024, 4)});
  EXPECT_GT(dir.MemoryBytes(), 1024 * sizeof(GplSlot));
}

}  // namespace
}  // namespace alt
