// ShardedAltIndex: range dispatch, per-shard epoch isolation, and scans that
// walk shards in key order — including the duplicate-key bug class of scans
// racing in-flight §III-F expansions (DESIGN.md §12.5), exercised at shard
// seams, plus shard-count and boundary edge cases (tests/CMakeLists.txt; runs
// in the TSan CI leg).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/epoch.h"
#include "baselines/factory.h"
#include "shard/sharded_alt_index.h"

namespace alt {
namespace {

using shard::ShardedAltIndex;
using shard::ShardedOptions;

std::vector<Key> MakeKeys(size_t n, Key start = 1000, Key stride = 7) {
  std::vector<Key> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = start + stride * static_cast<Key>(i);
  return keys;
}

std::vector<Value> ValuesFor(const std::vector<Key>& keys) {
  std::vector<Value> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = keys[i] * 2 + 1;
  return values;
}

// The line rule's placement invariant (DESIGN.md §2.2), per shard, checked
// after churn.
void ExpectPlacementInvariant(const ShardedAltIndex& index) {
  for (size_t s = 0; s < index.num_shards(); ++s) {
    const Status st = index.shard(s).CheckPlacementInvariant();
    EXPECT_TRUE(st.ok()) << "shard " << s << ": " << st.ToString();
  }
}

ShardedOptions SmallOptions(int shards) {
  ShardedOptions so;
  so.num_shards = shards;
  so.index.tail_model_slots = 64;  // small empty-shard models keep tests fast
  return so;
}

TEST(ShardedAltIndexTest, BulkLoadDispatchAndLookupAcrossShards) {
  const auto keys = MakeKeys(20000);
  const auto values = ValuesFor(keys);
  ShardedAltIndex index(SmallOptions(4));
  ASSERT_TRUE(index.BulkLoad(keys.data(), values.data(), keys.size()).ok());
  EXPECT_EQ(index.num_shards(), 4u);
  EXPECT_EQ(index.Size(), keys.size());

  // Equal-count split: every shard holds ~n/4 keys.
  for (size_t s = 0; s < index.num_shards(); ++s) {
    EXPECT_NEAR(static_cast<double>(index.shard(s).Size()),
                static_cast<double>(keys.size()) / 4.0, 1.0);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    Value v = 0;
    ASSERT_TRUE(index.Lookup(keys[i], &v)) << "key " << keys[i];
    EXPECT_EQ(v, values[i]);
  }
  Value v = 0;
  EXPECT_FALSE(index.Lookup(keys.back() + 1, &v));
}

TEST(ShardedAltIndexTest, DispatchAgreesWithLoadSplit) {
  const auto keys = MakeKeys(4096);
  const auto values = ValuesFor(keys);
  ShardedAltIndex index(SmallOptions(8));
  ASSERT_TRUE(index.BulkLoad(keys.data(), values.data(), keys.size()).ok());
  // Every bulk key must live in the shard the runtime dispatch names,
  // including the keys sitting exactly on partition boundaries.
  for (Key k : keys) {
    const size_t s = index.ShardIndexOf(k);
    Value v = 0;
    EXPECT_TRUE(index.shard(s).Lookup(k, &v));
  }
  for (size_t s = 1; s < index.num_shards(); ++s) {
    const Key boundary = index.ShardLowerBound(s);
    EXPECT_EQ(index.ShardIndexOf(boundary), s);
    EXPECT_EQ(index.ShardIndexOf(boundary - 1), s - 1);
  }
}

TEST(ShardedAltIndexTest, SingleShardDegenerateCase) {
  const auto keys = MakeKeys(5000);
  const auto values = ValuesFor(keys);
  ShardedAltIndex index(SmallOptions(1));
  ASSERT_TRUE(index.BulkLoad(keys.data(), values.data(), keys.size()).ok());
  EXPECT_EQ(index.num_shards(), 1u);
  Value v = 0;
  EXPECT_TRUE(index.Lookup(keys[123], &v));
  std::vector<std::pair<Key, Value>> out;
  EXPECT_EQ(index.Scan(0, 100, &out), 100u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].first, out[i].first);
  }
}

TEST(ShardedAltIndexTest, EmptyShardsServeInsertsAndScans) {
  // 3 keys over 8 shards: most shards get no bulk keys at all.
  const std::vector<Key> keys = {100, 200, 300};
  const auto values = ValuesFor(keys);
  ShardedAltIndex index(SmallOptions(8));
  ASSERT_TRUE(index.BulkLoad(keys.data(), values.data(), keys.size()).ok());
  EXPECT_EQ(index.Size(), 3u);

  // Inserts landing in empty shards must work (the n==0 AltIndex bulk-load
  // publishes a whole-range tail-like model).
  for (Key k = 1000; k < 1100; ++k) {
    ASSERT_TRUE(index.Insert(k, k + 1)) << "key " << k;
  }
  EXPECT_EQ(index.Size(), 103u);
  Value v = 0;
  EXPECT_TRUE(index.Lookup(1050, &v));
  EXPECT_EQ(v, 1051u);
  EXPECT_FALSE(index.Insert(200, 9)) << "duplicate across bulk data";

  std::vector<std::pair<Key, Value>> out;
  EXPECT_EQ(index.Scan(0, 1000, &out), 103u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].first, out[i].first) << "sorted, duplicate-free";
  }
  ExpectPlacementInvariant(index);
}

TEST(ShardedAltIndexTest, UsableWithoutBulkLoad) {
  ShardedAltIndex index(SmallOptions(4));
  Value v = 0;
  EXPECT_FALSE(index.Lookup(42, &v));
  EXPECT_TRUE(index.Insert(42, 1));
  EXPECT_TRUE(index.Insert(~Key{0} - 5, 2));  // lands in the last shard
  EXPECT_TRUE(index.Update(42, 3));
  EXPECT_TRUE(index.Lookup(42, &v));
  EXPECT_EQ(v, 3u);
  std::vector<std::pair<Key, Value>> out;
  EXPECT_EQ(index.Scan(0, 10, &out), 2u);
  EXPECT_TRUE(index.Remove(42));
  EXPECT_EQ(index.Size(), 1u);
}

// An upper_radix_bits that AltIndex::BulkLoad rejects is clamped like
// num_shards, so every shard gets a directory from its empty load.
TEST(ShardedAltIndexTest, OutOfRangeRadixBitsAreClamped) {
  for (const int bits : {21, 64, -1}) {
    SCOPED_TRACE(bits);
    ShardedOptions so = SmallOptions(2);
    so.index.upper_radix_bits = bits;
    ShardedAltIndex index(so);
    ASSERT_TRUE(index.Insert(5, 6));
    Value v = 0;
    ASSERT_TRUE(index.Lookup(5, &v));
    EXPECT_EQ(v, 6u);
  }
  ShardedOptions so = SmallOptions(2);
  so.index.upper_radix_bits = 21;
  ShardedAltIndex loaded(so);
  const std::vector<Key> keys = MakeKeys(5000);
  const std::vector<Value> values = ValuesFor(keys);
  ASSERT_TRUE(loaded.BulkLoad(keys.data(), values.data(), keys.size()).ok());
  for (size_t s = 0; s < loaded.num_shards(); ++s) {
    EXPECT_EQ(loaded.shard(s).CollectStructuralStats().radix_bits,
              ModelDirectory::kMaxRadixBits);
  }
  Value v = 0;
  ASSERT_TRUE(loaded.Lookup(keys[1234], &v));
  EXPECT_EQ(v, values[1234]);
}

TEST(ShardedAltIndexTest, ScanMatchesOracleAcrossShardBoundaries) {
  const auto keys = MakeKeys(10000, 500, 13);
  const auto values = ValuesFor(keys);
  ShardedAltIndex index(SmallOptions(4));
  ASSERT_TRUE(index.BulkLoad(keys.data(), values.data(), keys.size()).ok());
  // Starts chosen to sit before, exactly on, and after shard boundaries.
  std::vector<Key> starts_to_try = {0, keys[1], keys[2500] + 1, keys[7499]};
  for (size_t s = 1; s < index.num_shards(); ++s) {
    starts_to_try.push_back(index.ShardLowerBound(s));
    starts_to_try.push_back(index.ShardLowerBound(s) - 1);
  }
  for (Key start : starts_to_try) {
    std::vector<std::pair<Key, Value>> got;
    index.Scan(start, 500, &got);
    const auto lo = std::lower_bound(keys.begin(), keys.end(), start);
    const size_t expect_n =
        std::min<size_t>(500, static_cast<size_t>(keys.end() - lo));
    ASSERT_EQ(got.size(), expect_n) << "start " << start;
    for (size_t i = 0; i < expect_n; ++i) {
      const size_t j = static_cast<size_t>(lo - keys.begin()) + i;
      EXPECT_EQ(got[i].first, keys[j]);
      EXPECT_EQ(got[i].second, values[j]);
    }
  }
}

TEST(ShardedAltIndexTest, LookupBatchScatterGather) {
  const auto keys = MakeKeys(20000);
  const auto values = ValuesFor(keys);
  ShardedAltIndex index(SmallOptions(4));
  ASSERT_TRUE(index.BulkLoad(keys.data(), values.data(), keys.size()).ok());

  // Probe mix: hits from every shard, misses, and duplicates, interleaved so
  // the scatter/gather has to restore caller order.
  std::vector<Key> probe;
  for (size_t i = 0; i < keys.size(); i += 97) probe.push_back(keys[i]);
  probe.push_back(keys[0]);
  probe.push_back(1);                  // miss before all shards' keys
  probe.push_back(keys.back() + 100);  // miss in the last shard
  std::vector<Value> out(probe.size(), 0);
  std::vector<uint8_t> found_bytes(probe.size(), 0);
  bool* found = reinterpret_cast<bool*>(found_bytes.data());
  const size_t hits = index.LookupBatch(probe.data(), probe.size(), out.data(), found);
  EXPECT_EQ(hits, probe.size() - 2);
  for (size_t i = 0; i < probe.size(); ++i) {
    Value ref = 0;
    const bool present = index.Lookup(probe[i], &ref);
    ASSERT_EQ(found[i], present) << "probe " << i;
    if (present) EXPECT_EQ(out[i], ref);
  }
}

TEST(ShardedAltIndexTest, PerShardEpochManagersStayOffTheGlobal) {
  const auto keys = MakeKeys(20000);
  const auto values = ValuesFor(keys);
  ShardedAltIndex index(SmallOptions(4));
  ASSERT_TRUE(index.BulkLoad(keys.data(), values.data(), keys.size()).ok());

  const uint64_t global_epoch_before = EpochManager::Global().GlobalEpoch();
  const size_t global_pending_before = EpochManager::Global().PendingCount();
  std::vector<uint64_t> shard_epoch_before;
  for (size_t s = 0; s < index.num_shards(); ++s) {
    shard_epoch_before.push_back(index.shard_epoch(s).GlobalEpoch());
  }

  // Remove-heavy churn forces ART node retirement in every shard: a
  // reinsert takes an EMPTY lane of its line while one is left, so after a
  // few rounds the lines are full of tombstones and the rest cycle through
  // ART.
  for (int round = 0; round < 4; ++round) {
    for (size_t i = 0; i < keys.size(); i += 2) index.Remove(keys[i]);
    for (size_t i = 0; i < keys.size(); i += 2) index.Insert(keys[i], 1);
  }
  for (size_t i = 0; i < keys.size(); i += 2) index.Remove(keys[i]);

  // The sharded hot path must never touch EpochManager::Global() (ISSUE 8
  // acceptance criterion): all epoch activity lands on the shard managers.
  EXPECT_EQ(EpochManager::Global().GlobalEpoch(), global_epoch_before);
  EXPECT_EQ(EpochManager::Global().PendingCount(), global_pending_before);
  bool any_shard_advanced = false;
  for (size_t s = 0; s < index.num_shards(); ++s) {
    if (index.shard_epoch(s).GlobalEpoch() > shard_epoch_before[s]) {
      any_shard_advanced = true;
    }
  }
  EXPECT_TRUE(any_shard_advanced) << "churn must drive shard epochs forward";
  ExpectPlacementInvariant(index);
  index.DrainAllShards();
  for (size_t s = 0; s < index.num_shards(); ++s) {
    EXPECT_EQ(index.shard_epoch(s).PendingCount(), 0u);
  }
}

TEST(ShardedAltIndexTest, MemoryBreakdownAndStructureJson) {
  const auto keys = MakeKeys(10000);
  const auto values = ValuesFor(keys);
  ShardedAltIndex index(SmallOptions(4));
  ASSERT_TRUE(index.BulkLoad(keys.data(), values.data(), keys.size()).ok());
  const auto b = index.CollectMemoryBreakdown();
  EXPECT_EQ(b.total(), index.MemoryUsage())
      << "per-shard decompositions must sum to the facade footprint";
  const std::string json = index.StructureJson();
  EXPECT_NE(json.find("\"num_shards\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"partition\": \"range\""), std::string::npos);
}

TEST(ShardedAltIndexTest, FactoryMakesShardedVariants) {
  auto idx = MakeIndex("alt-sharded8", AltOptions{});
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->Name(), "ALT-sharded8");
  const auto keys = MakeKeys(1000);
  const auto values = ValuesFor(keys);
  ASSERT_TRUE(idx->BulkLoad(keys.data(), values.data(), keys.size()).ok());
  Value v = 0;
  EXPECT_TRUE(idx->Lookup(keys[500], &v));
  EXPECT_EQ(MakeIndex("alt-shardedX", AltOptions{}), nullptr);
}

// The duplicate-key scan bug class at shard seams: scans crossing shard boundaries
// while §III-F expansions are in flight inside the shards must stay sorted
// and duplicate-free, and must always observe the stable key population.
TEST(ShardedAltIndexTest, ChurnScanAcrossSeamsDuringExpansion) {
  // Stable keys: every multiple of 4 in a dense block spanning all shards.
  // Churn keys (odd) are inserted by writers to drive §III-F expansions.
  constexpr size_t kStable = 30000;
  std::vector<Key> keys(kStable);
  for (size_t i = 0; i < kStable; ++i) keys[i] = 1000 + 4 * static_cast<Key>(i);
  const auto values = ValuesFor(keys);

  ShardedOptions so = SmallOptions(4);
  so.index.retrain_trigger_ratio = 0.05;  // expand aggressively
  ShardedAltIndex index(so);
  ASSERT_TRUE(index.BulkLoad(keys.data(), values.data(), keys.size()).ok());

  std::atomic<bool> stop{false};
  std::atomic<size_t> scan_failures{0};
  std::thread writer([&] {
    Key k = 1001;  // odd: never collides with stable keys
    while (!stop.load(std::memory_order_acquire)) {
      index.Insert(k, 1);
      k += 2;
    }
  });
  std::thread remover([&] {
    Key k = 1003;
    while (!stop.load(std::memory_order_acquire)) {
      index.Remove(k);
      k += 2;
    }
  });

  // Scans start just before a seam so every batch crosses shards mid-churn,
  // plus one from the middle stable key (on the middle seam).
  std::vector<Key> seam_starts = {keys[0], keys[kStable / 2]};
  for (size_t s = 1; s < index.num_shards(); ++s) {
    seam_starts.push_back(index.ShardLowerBound(s) - 64);
  }
  std::vector<std::pair<Key, Value>> out;
  for (int round = 0; round < 60; ++round) {
    for (Key start : seam_starts) {
      index.Scan(start, 2000, &out);
      for (size_t i = 1; i < out.size(); ++i) {
        if (out[i - 1].first >= out[i].first) {
          ++scan_failures;
          ADD_FAILURE() << "unsorted/duplicate at scan pos " << i << ": "
                        << out[i - 1].first << " then " << out[i].first;
        }
      }
      // Every stable key inside the observed window must be present.
      if (!out.empty()) {
        const Key window_lo = start;
        const Key window_hi = out.back().first;
        auto it = std::lower_bound(keys.begin(), keys.end(), window_lo);
        std::set<Key> seen;
        for (const auto& kv : out) seen.insert(kv.first);
        for (; it != keys.end() && *it <= window_hi; ++it) {
          if (seen.count(*it) == 0) {
            ++scan_failures;
            ADD_FAILURE() << "stable key " << *it << " missing from scan"
                          << " (start " << start << ")";
          }
        }
      }
      if (scan_failures.load() > 5) break;  // don't flood the log
    }
    if (scan_failures.load() > 5) break;
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  remover.join();
  EXPECT_EQ(scan_failures.load(), 0u);
  ExpectPlacementInvariant(index);
  index.DrainAllShards();
}

}  // namespace
}  // namespace alt
