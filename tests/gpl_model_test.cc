#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <thread>
#include <vector>

#include "common/epoch.h"
#include "common/random.h"
#include "core/gpl_model.h"
#include "core/model_directory.h"

namespace alt {
namespace {

// Writes slot i (line i / 3, lane i % 3) under its line word.
void SetSlot(const GplModel& m, uint32_t i, SlotState st, Key k = 0, Value v = 0) {
  SlotLine& line = m.line(i / SlotLine::kLanes);
  const uint32_t lane = i % SlotLine::kLanes;
  const uint64_t lw = line.word.Lock();
  line.Store(lane, k, v);
  line.word.Unlock(LineWord::WithState(lw, lane, st));
}

// ---------------------------------------------------------------------------
// LineWord
// ---------------------------------------------------------------------------

TEST(LineWordTest, InitialStateEmpty) {
  LineWord w;
  EXPECT_EQ(w.Read(), 0u);
  for (uint32_t lane = 0; lane < LineWord::kLanes; ++lane) {
    EXPECT_EQ(LineWord::StateOf(w.Read(), lane), SlotState::kEmpty);
  }
}

TEST(LineWordTest, LockUnlockTransitionsOneLane) {
  LineWord w;
  for (const SlotState st : {SlotState::kOccupied, SlotState::kTombstone,
                             SlotState::kMigrated, SlotState::kEmpty}) {
    for (uint32_t lane = 0; lane < LineWord::kLanes; ++lane) {
      const uint64_t before = w.Read();
      const uint64_t lw = w.Lock();
      EXPECT_EQ(lw, before);
      w.Unlock(LineWord::WithState(lw, lane, st));
      const uint64_t after = w.Read();
      for (uint32_t other = 0; other < LineWord::kLanes; ++other) {
        EXPECT_EQ(LineWord::StateOf(after, other),
                  other == lane ? st : LineWord::StateOf(before, other))
            << "lane " << lane << " other " << other;
      }
    }
  }
}

TEST(LineWordTest, ValidateDetectsIntermediateWriter) {
  LineWord w;
  const uint64_t r = w.Read();
  EXPECT_TRUE(w.Validate(r));
  const uint64_t lw = w.Lock();
  EXPECT_FALSE(w.Validate(r));  // locked
  w.Unlock(LineWord::WithState(lw, 2, SlotState::kOccupied));
  EXPECT_FALSE(w.Validate(r));
}

TEST(LineWordTest, SequenceMonotonicAcrossUnchangedUnlocks) {
  LineWord w;
  uint64_t prev = w.Read();
  for (int i = 0; i < 1000; ++i) {
    const uint64_t lw = w.Lock();
    w.Unlock(lw);  // same states, still bumps the version
    const uint64_t now = w.Read();
    ASSERT_FALSE(w.Validate(prev));
    ASSERT_GT(now, prev);
    for (uint32_t lane = 0; lane < LineWord::kLanes; ++lane) {
      ASSERT_EQ(LineWord::StateOf(now, lane), SlotState::kEmpty);
    }
    prev = now;
  }
}

TEST(LineWordTest, ConcurrentLockersSerialize) {
  LineWord w;
  std::atomic<int> inside{0};
  std::atomic<bool> overlap{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 3000; ++i) {
        const uint64_t lw = w.Lock();
        if (inside.fetch_add(1) != 0) overlap.store(true);
        inside.fetch_sub(1);
        w.Unlock(lw);
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
  for (uint32_t i = 0; i < 100; i += 2) SetSlot(m, i, SlotState::kOccupied, i, i * 10);
  // A tombstone and a migrated slot must be skipped.
  SetSlot(m, 4, SlotState::kTombstone, 4, 40);
  SetSlot(m, 8, SlotState::kMigrated, 8, 80);
  std::vector<std::pair<Key, Value>> out;
  m.CollectRange(0, 50, &out);
  ASSERT_FALSE(out.empty());
  for (size_t i = 1; i < out.size(); ++i) EXPECT_LT(out[i - 1].first, out[i].first);
  for (const auto& [k, v] : out) {
    EXPECT_NE(k, 4u) << "tombstoned key leaked into scan";
    EXPECT_NE(k, 8u) << "migrated key leaked into scan";
    EXPECT_EQ(v, k * 10);
    EXPECT_LE(k, 50u);
  }
}

TEST(GplModelTest, CountSlotStates) {
  GplModel m(0, 1.0, 64, 10);
  size_t before[4] = {0, 0, 0, 0};
  m.CountSlotStates(before);
  EXPECT_EQ(before[static_cast<int>(SlotState::kOccupied)], 0u);
  for (uint32_t i = 0; i < 10; ++i) SetSlot(m, i, SlotState::kOccupied, i);
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
// Slot lines: three slots per 64 B line under one word (DESIGN.md §10.2)
// ---------------------------------------------------------------------------

static_assert(sizeof(SlotLine) == 64 && alignof(SlotLine) == 64, "one line per SlotLine");
static_assert(SlotLine::kLanes == 3, "three lanes per line");
static_assert(offsetof(SlotLine, word) == 0 && offsetof(SlotLine, pair) == 16,
              "the word, then the pairs after 8 B of lock and padding");

TEST(SlotLineTest, LinesAreConsecutiveCacheLines) {
  for (const uint32_t n : {1u, 2u, 3u, 4u, 100u, 101u}) {
    GplModel m(0, 1.0, n, 0);
    EXPECT_EQ(m.num_lines(), (n + 2) / 3) << "n=" << n;
    EXPECT_EQ(m.MemoryBytes(), sizeof(GplModel) + 64u * m.num_lines()) << "n=" << n;
    const auto base = reinterpret_cast<uintptr_t>(&m.line(0));
    EXPECT_EQ(base % 64, 0u) << "n=" << n;
    for (uint32_t l = 0; l < m.num_lines(); ++l) {
      EXPECT_EQ(reinterpret_cast<uintptr_t>(&m.line(l)), base + 64 * l) << l;
      EXPECT_EQ(m.LanesIn(l), std::min(3u, n - 3 * l)) << l;
    }
  }
}

TEST(SlotLineTest, RaggedTailLanesStayEmpty) {
  // 100 slots leave two unused lanes in the last line, 101 slots one.
  for (const uint32_t n : {100u, 101u}) {
    GplModel m(0, 1.0, n, 0);
    ASSERT_NE(n % 3, 0u);
    for (uint32_t i = 0; i < n; ++i) {
      SetSlot(m, i, SlotState::kOccupied, ~Key{0} - i, ~Value{0} - i);
    }
    EpochGuard g;
    size_t counts[4] = {0, 0, 0, 0};
    m.CountSlotStates(counts);
    EXPECT_EQ(counts[static_cast<int>(SlotState::kOccupied)], n) << "n=" << n;
    EXPECT_EQ(counts[0] + counts[1] + counts[2] + counts[3], n) << "n=" << n;
    // The unused lanes are inside the last line but are no slot: never
    // written, they still hold EMPTY and zero pairs, and FirstLane never
    // offers them.
    const uint32_t last = m.num_lines() - 1;
    const SlotLine& line = m.line(last);
    const uint64_t w = line.word.Read();
    EXPECT_EQ(m.FirstLane(last, w, SlotState::kEmpty), SlotLine::kLanes) << "n=" << n;
    for (uint32_t lane = m.LanesIn(last); lane < SlotLine::kLanes; ++lane) {
      EXPECT_EQ(LineWord::StateOf(w, lane), SlotState::kEmpty) << "lane " << lane;
      EXPECT_EQ(line.OptimisticKey(lane), 0u) << "lane " << lane;
      EXPECT_EQ(line.OptimisticValue(lane), 0u) << "lane " << lane;
    }
  }
}

TEST(SlotScanTest, CountsMatchManualLoop) {
  // CountSlotStates walks line by line; it must agree with a plain per-slot
  // walk on ragged sizes.
  for (const uint32_t n : {1u, 7u, 8u, 9u, 63u, 64u, 200u, 1031u}) {
    GplModel model(0, 1.0, n, 0);
    Rng rng(83 + n);
    size_t expect[4] = {0, 0, 0, 0};
    for (uint32_t i = 0; i < n; ++i) {
      const auto s = static_cast<SlotState>(rng.Next() % 4);
      SetSlot(model, i, s);
      expect[static_cast<size_t>(s)]++;
    }
    EpochGuard g;
    size_t counts[4] = {0, 0, 0, 0};
    model.CountSlotStates(counts);
    size_t total = 0;
    for (int s = 0; s < 4; ++s) {
      EXPECT_EQ(counts[s], expect[s]) << "n=" << n << " state=" << s;
      total += counts[s];
    }
    EXPECT_EQ(total, n);
  }
}

TEST(SlotScanTest, CollectRangeMatchesReference) {
  const uint32_t n = 512;
  GplModel model(/*first_key=*/1000, /*slope=*/0.5, n, 0);
  // Occupy a scattered subset at each key's predicted slot (first write wins,
  // like bulk load), tombstone a few others.
  Rng rng(97);
  std::vector<std::pair<Key, Value>> resident;
  for (int i = 0; i < 600; ++i) {
    const Key k = 1000 + rng.Next() % 1000;
    const uint32_t p = model.Predict(k);
    const uint64_t w = model.line(p / 3).word.Read();
    if (LineWord::StateOf(w, p % 3) != SlotState::kEmpty) continue;
    SetSlot(model, p, SlotState::kOccupied, k, k * 3);
  }
  for (uint32_t i = 0; i < n; i += 17) {
    const uint64_t w = model.line(i / 3).word.Read();
    if (LineWord::StateOf(w, i % 3) != SlotState::kEmpty) continue;
    SetSlot(model, i, SlotState::kTombstone);
  }
  EpochGuard g;
  for (uint32_t i = 0; i < n; ++i) {
    const SlotLine& line = model.line(i / 3);
    if (LineWord::StateOf(line.word.Read(), i % 3) == SlotState::kOccupied) {
      resident.emplace_back(line.OptimisticKey(i % 3), line.OptimisticValue(i % 3));
    }
  }
  for (const auto& [lo, hi] : std::vector<std::pair<Key, Key>>{
           {0, ~Key{0}}, {1000, 1999}, {1200, 1400}, {1500, 1500},
           {2500, 3000}, {0, 999}}) {
    std::vector<std::pair<Key, Value>> got;
    model.CollectRange(lo, hi, &got);
    std::vector<std::pair<Key, Value>> expect;
    for (const auto& kv : resident) {
      if (kv.first >= lo && kv.first <= hi) expect.push_back(kv);
    }
    EXPECT_EQ(got, expect) << "lo=" << lo << " hi=" << hi;
    // And the limit-clipped variant.
    std::vector<std::pair<Key, Value>> limited;
    model.CollectRange(lo, hi, &limited, 3);
    expect.resize(std::min<size_t>(expect.size(), 3));
    EXPECT_EQ(limited, expect) << "lo=" << lo << " hi=" << hi << " limit=3";
  }
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
  // 1024 slots take 342 lines: the last holds one slot and two unused lanes.
  EXPECT_EQ(GplModel::SlotArrayBytes(1024), 342u * 64);
  EXPECT_GT(dir.MemoryBytes(), sizeof(GplModel) + GplModel::SlotArrayBytes(1024));
}

}  // namespace
}  // namespace alt
