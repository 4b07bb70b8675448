#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>
#include <vector>

#include "baselines/factory.h"
#include "common/epoch.h"
#include "common/random.h"
#include "core/alt_index.h"
#include "datasets/dataset.h"

namespace alt {
namespace {

// ---------------------------------------------------------------------------
// Scan/range properties sweeping datasets x configurations (TEST_P).
// ---------------------------------------------------------------------------

class ScanPropertyTest
    : public ::testing::TestWithParam<std::tuple<Dataset, double /*gap*/>> {
 protected:
  void TearDown() override { EpochManager::Global().DrainAll(); }
};

TEST_P(ScanPropertyTest, ScanEqualsSortedOracleEverywhere) {
  const auto [dataset, gap] = GetParam();
  AltOptions o;
  o.gap_factor = gap;
  AltIndex index(o);
  auto keys = GenerateKeys(dataset, 20000, 3);
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k : keys) pairs.emplace_back(k, ValueFor(k));
  ASSERT_TRUE(index.BulkLoad(pairs).ok());

  std::vector<std::pair<Key, Value>> out;
  Rng rng(17);
  for (int t = 0; t < 60; ++t) {
    // Start from an arbitrary key value (present or not).
    const Key start = rng.Next();
    const size_t n = 1 + rng.NextBounded(64);
    index.Scan(start, n, &out);
    // Oracle: binary search in the sorted key list.
    const auto it = std::lower_bound(keys.begin(), keys.end(), start);
    const size_t expect = std::min<size_t>(n, static_cast<size_t>(keys.end() - it));
    ASSERT_EQ(out.size(), expect) << DatasetName(dataset) << " t=" << t;
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i].first, *(it + static_cast<ptrdiff_t>(i)));
      ASSERT_EQ(out[i].second, ValueFor(out[i].first));
    }
  }
}

TEST_P(ScanPropertyTest, RangeQueryCountsMatchOracle) {
  const auto [dataset, gap] = GetParam();
  AltOptions o;
  o.gap_factor = gap;
  AltIndex index(o);
  auto keys = GenerateKeys(dataset, 15000, 5);
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k : keys) pairs.emplace_back(k, ValueFor(k));
  ASSERT_TRUE(index.BulkLoad(pairs).ok());

  std::vector<std::pair<Key, Value>> out;
  Rng rng(29);
  for (int t = 0; t < 40; ++t) {
    size_t a = rng.NextBounded(keys.size());
    size_t b = rng.NextBounded(keys.size());
    if (a > b) std::swap(a, b);
    const size_t got = index.RangeQuery(keys[a], keys[b], &out);
    EXPECT_EQ(got, b - a + 1) << DatasetName(dataset);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScanPropertyTest,
    ::testing::Combine(::testing::Values(Dataset::kLibio, Dataset::kOsm, Dataset::kFb,
                                         Dataset::kLonglat),
                       ::testing::Values(1.2, 2.0, 3.0)));

// ---------------------------------------------------------------------------
// Layer-accounting invariants across configurations.
// ---------------------------------------------------------------------------

class LayerInvariantTest
    : public ::testing::TestWithParam<std::tuple<Dataset, double /*eps*/>> {
 protected:
  void TearDown() override { EpochManager::Global().DrainAll(); }
};

// Every key is in exactly one layer, before and after heavy churn.
TEST_P(LayerInvariantTest, LayersPartitionTheKeySet) {
  const auto [dataset, eps] = GetParam();
  AltOptions o;
  o.error_bound = eps;
  AltIndex index(o);
  auto keys = GenerateKeys(dataset, 20000, 7);
  std::vector<std::pair<Key, Value>> loaded;
  for (size_t i = 0; i < keys.size(); i += 2) {
    loaded.emplace_back(keys[i], ValueFor(keys[i]));
  }
  ASSERT_TRUE(index.BulkLoad(loaded).ok());
  auto st = index.CollectStructuralStats();
  EXPECT_EQ(st.learned_layer_keys() + st.art_keys, loaded.size());

  // Insert the other half, remove a third, re-check accounting.
  size_t live = loaded.size();
  for (size_t i = 1; i < keys.size(); i += 2) {
    ASSERT_TRUE(index.Insert(keys[i], ValueFor(keys[i])));
    ++live;
  }
  for (size_t i = 0; i < keys.size(); i += 3) {
    ASSERT_TRUE(index.Remove(keys[i]));
    --live;
  }
  st = index.CollectStructuralStats();
  EXPECT_EQ(st.learned_layer_keys() + st.art_keys, live);
  EXPECT_EQ(index.Size(), live);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LayerInvariantTest,
    ::testing::Combine(::testing::Values(Dataset::kOsm, Dataset::kLonglat),
                       ::testing::Values(16.0, 64.0, 512.0)));

// ---------------------------------------------------------------------------
// Tombstone / write-back churn
// ---------------------------------------------------------------------------

class PropertyTest : public ::testing::Test {
 protected:
  void TearDown() override { EpochManager::Global().DrainAll(); }
};

TEST_F(PropertyTest, RepeatedRemoveReinsertCyclesStayConsistent) {
  AltOptions o;
  o.gap_factor = 1.2;  // dense: many conflicts, exercising tombstone paths
  AltIndex index(o);
  auto keys = GenerateKeys(Dataset::kFb, 10000, 11);
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k : keys) pairs.emplace_back(k, ValueFor(k));
  ASSERT_TRUE(index.BulkLoad(pairs).ok());

  Rng rng(3);
  for (int cycle = 0; cycle < 5; ++cycle) {
    // Remove a random half...
    std::vector<size_t> removed;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (rng.Next() & 1) {
        ASSERT_TRUE(index.Remove(keys[i])) << "cycle " << cycle << " i " << i;
        removed.push_back(i);
      }
    }
    // ...interleave lookups that trigger write-backs...
    for (size_t i = 0; i < keys.size(); i += 7) {
      Value v;
      index.Lookup(keys[i], &v);
    }
    // ...and re-insert with cycle-tagged values.
    for (size_t i : removed) {
      ASSERT_TRUE(index.Insert(keys[i], ValueFor(keys[i]) + cycle));
    }
    for (size_t i : removed) {
      Value v;
      ASSERT_TRUE(index.Lookup(keys[i], &v));
      EXPECT_EQ(v, ValueFor(keys[i]) + cycle);
    }
    EXPECT_EQ(index.Size(), keys.size());
  }
}

// Looking up every key must never mutate observable state (write-backs move
// keys between layers but preserve the mapping).
TEST_F(PropertyTest, LookupsAreObservationallyPure) {
  AltIndex index;
  auto keys = GenerateKeys(Dataset::kLonglat, 15000, 13);
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k : keys) pairs.emplace_back(k, ValueFor(k));
  ASSERT_TRUE(index.BulkLoad(pairs).ok());
  for (size_t i = 0; i < keys.size(); i += 4) index.Remove(keys[i]);

  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < keys.size(); ++i) {
      Value v;
      const bool found = index.Lookup(keys[i], &v);
      ASSERT_EQ(found, i % 4 != 0) << "round " << round << " i " << i;
      if (found) ASSERT_EQ(v, ValueFor(keys[i]));
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrent retraining + oracle: heavy write pressure on one region while a
// reader validates a frozen shard nobody touches.
// ---------------------------------------------------------------------------

TEST_F(PropertyTest, ConcurrentChurnWithFrozenShardOracle) {
  AltOptions o;
  o.retrain_trigger_ratio = 0.25;
  AltIndex index(o);
  // Frozen shard: keys 0..9999 (never touched after load).
  // Churn region: keys 1e9 + i.
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k = 0; k < 10000; ++k) pairs.emplace_back(k * 7, ValueFor(k * 7));
  for (Key k = 0; k < 10000; ++k) {
    pairs.emplace_back(1000000000 + k * 8, ValueFor(1000000000 + k * 8));
  }
  ASSERT_TRUE(index.BulkLoad(pairs).ok());

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&index, &failed, t] {
      // Churn: insert/remove keys interleaved in the high region.
      for (Key k = 0; k < 30000; ++k) {
        const Key key = 1000000000 + k * 8 + 1 + static_cast<Key>(t);
        if (!index.Insert(key, key)) failed.store(true);
        if (k % 2 == 0 && !index.Remove(key)) failed.store(true);
      }
    });
  }
  threads.emplace_back([&index, &failed] {
    for (int round = 0; round < 10; ++round) {
      for (Key k = 0; k < 10000; k += 11) {
        Value v;
        if (!index.Lookup(k * 7, &v) || v != ValueFor(k * 7)) failed.store(true);
      }
    }
  });
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  // Full verification of the churn region's final state.
  for (int t = 0; t < 3; ++t) {
    for (Key k = 0; k < 30000; ++k) {
      const Key key = 1000000000 + k * 8 + 1 + static_cast<Key>(t);
      Value v;
      ASSERT_EQ(index.Lookup(key, &v), k % 2 != 0) << "t=" << t << " k=" << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-index differential test under a seed sweep (TEST_P over seeds).
// ---------------------------------------------------------------------------

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void TearDown() override { EpochManager::Global().DrainAll(); }
};

TEST_P(DifferentialTest, AltAgreesWithArtOnRandomOps) {
  const uint64_t seed = GetParam();
  auto alt_index = MakeIndex("alt");
  auto art_index = MakeIndex("art");
  auto keys = GenerateKeys(Dataset::kLognormal, 5000, seed);
  std::vector<Value> vals(keys.size() / 2);
  std::vector<Key> bulk(keys.begin(), keys.begin() + static_cast<ptrdiff_t>(vals.size()));
  for (size_t i = 0; i < bulk.size(); ++i) vals[i] = ValueFor(bulk[i]);
  ASSERT_TRUE(alt_index->BulkLoad(bulk.data(), vals.data(), bulk.size()).ok());
  ASSERT_TRUE(art_index->BulkLoad(bulk.data(), vals.data(), bulk.size()).ok());

  Rng rng(seed * 31 + 7);
  for (int op = 0; op < 20000; ++op) {
    const Key k = keys[rng.NextBounded(keys.size())];
    switch (rng.NextBounded(5)) {
      case 0:
        ASSERT_EQ(alt_index->Insert(k, op), art_index->Insert(k, op)) << op;
        break;
      case 1:
        ASSERT_EQ(alt_index->Remove(k), art_index->Remove(k)) << op;
        break;
      case 2:
        ASSERT_EQ(alt_index->Update(k, op), art_index->Update(k, op)) << op;
        break;
      case 3: {
        std::vector<std::pair<Key, Value>> a, b;
        alt_index->Scan(k, 20, &a);
        art_index->Scan(k, 20, &b);
        ASSERT_EQ(a, b) << op;
        break;
      }
      default: {
        Value va = 0, vb = 0;
        const bool fa = alt_index->Lookup(k, &va);
        const bool fb = art_index->Lookup(k, &vb);
        ASSERT_EQ(fa, fb) << op;
        if (fa) ASSERT_EQ(va, vb) << op;
        break;
      }
    }
  }
  EXPECT_EQ(alt_index->Size(), art_index->Size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

}  // namespace
}  // namespace alt
