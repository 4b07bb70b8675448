#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/epoch.h"
#include "common/random.h"
#include "core/alt_index.h"
#include "datasets/dataset.h"

namespace alt {
namespace {

std::vector<std::pair<Key, Value>> MakePairs(const std::vector<Key>& keys) {
  std::vector<std::pair<Key, Value>> pairs;
  pairs.reserve(keys.size());
  for (Key k : keys) pairs.emplace_back(k, ValueFor(k));
  return pairs;
}

// The line rule's placement invariant (DESIGN.md §2.2), checked after churn.
void ExpectPlacementInvariant(const AltIndex& index) {
  const Status st = index.CheckPlacementInvariant();
  EXPECT_TRUE(st.ok()) << st.ToString();
}

class AltIndexTest : public ::testing::Test {
 protected:
  void TearDown() override { EpochManager::Global().DrainAll(); }
};

// ---------------------------------------------------------------------------
// Bulk load
// ---------------------------------------------------------------------------

TEST_F(AltIndexTest, BulkLoadRejectsUnsorted) {
  AltIndex index;
  const Key keys[] = {5, 3, 9};
  const Value vals[] = {1, 2, 3};
  EXPECT_EQ(index.BulkLoad(keys, vals, 3).code(), Status::Code::kInvalidArgument);
}

TEST_F(AltIndexTest, BulkLoadRejectsDuplicates) {
  AltIndex index;
  const Key keys[] = {3, 3, 9};
  const Value vals[] = {1, 2, 3};
  EXPECT_EQ(index.BulkLoad(keys, vals, 3).code(), Status::Code::kInvalidArgument);
}

TEST_F(AltIndexTest, BulkLoadEmptyPublishesWholeRangeTailModel) {
  // n == 0 publishes one tail-like model spanning the whole keyspace so the
  // index is fully operational before any data arrives (empty shards of a
  // ShardedAltIndex rely on this).
  AltIndex index;
  ASSERT_TRUE(index.BulkLoad(nullptr, nullptr, 0).ok());
  EXPECT_EQ(index.Size(), 0u);
  Value v = 0;
  EXPECT_FALSE(index.Lookup(1, &v));
  EXPECT_TRUE(index.Insert(1, 10));
  EXPECT_TRUE(index.Insert(~Key{0} - 1, 20));  // far end of the keyspace
  EXPECT_TRUE(index.Lookup(1, &v));
  EXPECT_EQ(v, 10u);
  std::vector<std::pair<Key, Value>> out;
  EXPECT_EQ(index.Scan(0, 10, &out), 2u);
  EXPECT_EQ(index.Size(), 2u);
}

TEST_F(AltIndexTest, BulkLoadRunsOnce) {
  AltIndex index;
  const Key keys[] = {1, 2, 3};
  const Value vals[] = {1, 2, 3};
  ASSERT_TRUE(index.BulkLoad(keys, vals, 3).ok());
  EXPECT_FALSE(index.BulkLoad(keys, vals, 3).ok());
}

TEST_F(AltIndexTest, BulkLoadThenLookupEveryKey) {
  AltIndex index;
  auto pairs = MakePairs(GenerateKeys(Dataset::kOsm, 100000, 17));
  ASSERT_TRUE(index.BulkLoad(pairs).ok());
  EXPECT_EQ(index.Size(), pairs.size());
  for (const auto& [k, v] : pairs) {
    Value got;
    ASSERT_TRUE(index.Lookup(k, &got));
    EXPECT_EQ(got, v);
  }
}

TEST_F(AltIndexTest, SuggestedErrorBoundApplied) {
  AltIndex index;
  auto pairs = MakePairs(GenerateKeys(Dataset::kUniform, 50000, 1));
  ASSERT_TRUE(index.BulkLoad(pairs).ok());
  EXPECT_DOUBLE_EQ(index.effective_error_bound(),
                   AltOptions::SuggestErrorBound(50000));
}

TEST_F(AltIndexTest, ExplicitErrorBoundRespected) {
  AltOptions opts;
  opts.error_bound = 128;
  AltIndex index(opts);
  auto pairs = MakePairs(GenerateKeys(Dataset::kUniform, 10000, 1));
  ASSERT_TRUE(index.BulkLoad(pairs).ok());
  EXPECT_DOUBLE_EQ(index.effective_error_bound(), 128.0);
}

// Zero-error invariant: every bulk-loaded key is either at exactly its
// predicted slot or in ART — learned-layer keys need no secondary search.
TEST_F(AltIndexTest, LayerSplitAccountsForAllKeys) {
  AltIndex index;
  auto pairs = MakePairs(GenerateKeys(Dataset::kLonglat, 80000, 29));
  ASSERT_TRUE(index.BulkLoad(pairs).ok());
  const auto st = index.CollectStructuralStats();
  EXPECT_EQ(st.learned_layer_keys() + st.art_keys, pairs.size());
  EXPECT_GT(st.learned_layer_keys(), pairs.size() / 2)
      << "most keys should be absorbed by the learned layer (Fig. 10(c))";
}

// ---------------------------------------------------------------------------
// Point operations
// ---------------------------------------------------------------------------

TEST_F(AltIndexTest, LookupMissesAbsentKeys) {
  AltIndex index;
  auto keys = GenerateKeys(Dataset::kFb, 50000, 7);
  auto pairs = MakePairs(keys);
  // Load only even positions; odd ones must miss.
  std::vector<std::pair<Key, Value>> loaded;
  for (size_t i = 0; i < pairs.size(); i += 2) loaded.push_back(pairs[i]);
  ASSERT_TRUE(index.BulkLoad(loaded).ok());
  for (size_t i = 1; i < pairs.size(); i += 2) {
    Value v;
    EXPECT_FALSE(index.Lookup(pairs[i].first, &v)) << i;
  }
}

TEST_F(AltIndexTest, InsertNewKeysThenLookup) {
  AltIndex index;
  auto keys = GenerateKeys(Dataset::kLibio, 60000, 7);
  std::vector<std::pair<Key, Value>> loaded, extra;
  for (size_t i = 0; i < keys.size(); ++i) {
    (i % 2 ? extra : loaded).emplace_back(keys[i], ValueFor(keys[i]));
  }
  ASSERT_TRUE(index.BulkLoad(loaded).ok());
  for (const auto& [k, v] : extra) EXPECT_TRUE(index.Insert(k, v));
  EXPECT_EQ(index.Size(), keys.size());
  for (const auto& [k, v] : extra) {
    Value got;
    ASSERT_TRUE(index.Lookup(k, &got));
    EXPECT_EQ(got, v);
  }
  ExpectPlacementInvariant(index);
}

TEST_F(AltIndexTest, DuplicateInsertRejectedEverywhere) {
  AltIndex index;
  auto pairs = MakePairs(GenerateKeys(Dataset::kOsm, 20000, 7));
  ASSERT_TRUE(index.BulkLoad(pairs).ok());
  // Both learned-layer residents and ART residents must reject duplicates.
  for (size_t i = 0; i < pairs.size(); i += 17) {
    EXPECT_FALSE(index.Insert(pairs[i].first, 0)) << i;
  }
  EXPECT_EQ(index.Size(), pairs.size());
}

TEST_F(AltIndexTest, UpdateChangesValueInBothLayers) {
  AltIndex index;
  auto pairs = MakePairs(GenerateKeys(Dataset::kFb, 30000, 7));
  ASSERT_TRUE(index.BulkLoad(pairs).ok());
  for (size_t i = 0; i < pairs.size(); i += 7) {
    EXPECT_TRUE(index.Update(pairs[i].first, 777));
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    Value v;
    ASSERT_TRUE(index.Lookup(pairs[i].first, &v));
    EXPECT_EQ(v, i % 7 == 0 ? 777 : pairs[i].second);
  }
  EXPECT_FALSE(index.Update(pairs.back().first + 12345, 1));
}

TEST_F(AltIndexTest, RemoveFromLearnedLayerLeavesTombstone) {
  AltIndex index;
  auto pairs = MakePairs(GenerateKeys(Dataset::kLibio, 30000, 7));
  ASSERT_TRUE(index.BulkLoad(pairs).ok());
  for (size_t i = 0; i < pairs.size(); i += 3) {
    EXPECT_TRUE(index.Remove(pairs[i].first));
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    Value v;
    EXPECT_EQ(index.Lookup(pairs[i].first, &v), i % 3 != 0) << i;
  }
  EXPECT_FALSE(index.Remove(pairs[0].first)) << "double remove";
  EXPECT_EQ(index.Size(), pairs.size() - (pairs.size() + 2) / 3);
  ExpectPlacementInvariant(index);
}

TEST_F(AltIndexTest, ReinsertAfterRemove) {
  AltIndex index;
  auto pairs = MakePairs(GenerateKeys(Dataset::kOsm, 20000, 7));
  ASSERT_TRUE(index.BulkLoad(pairs).ok());
  for (size_t i = 0; i < pairs.size(); i += 5) {
    ASSERT_TRUE(index.Remove(pairs[i].first));
    EXPECT_TRUE(index.Insert(pairs[i].first, 1234));
    Value v;
    ASSERT_TRUE(index.Lookup(pairs[i].first, &v));
    EXPECT_EQ(v, 1234u);
  }
  EXPECT_EQ(index.Size(), pairs.size());
  ExpectPlacementInvariant(index);
}

// The write-back scheme (Alg. 2): removing a learned-layer key whose slot
// shadows ART conflicts, then looking those conflicts up, migrates them back
// into the slot and out of ART.
TEST_F(AltIndexTest, WriteBackReclaimsTombstones) {
  AltIndex index;
  auto pairs = MakePairs(GenerateKeys(Dataset::kLonglat, 50000, 13));
  ASSERT_TRUE(index.BulkLoad(pairs).ok());
  const auto before = index.CollectStructuralStats();
  ASSERT_GT(before.art_keys, 0u);
  // Remove every learned-layer resident, then look up every key twice: the
  // first pass write-backs eligible ART keys, the second verifies.
  for (size_t round = 0; round < 2; ++round) {
    for (const auto& [k, v] : pairs) {
      Value got;
      index.Lookup(k, &got);
    }
  }
  // Delete half the keys and re-look-up the rest.
  for (size_t i = 0; i < pairs.size(); i += 2) index.Remove(pairs[i].first);
  for (size_t i = 1; i < pairs.size(); i += 2) {
    Value got;
    ASSERT_TRUE(index.Lookup(pairs[i].first, &got)) << i;
    EXPECT_EQ(got, pairs[i].second);
  }
  const auto after = index.CollectStructuralStats();
  EXPECT_LT(after.art_keys, before.art_keys)
      << "write-back should drain some conflicts out of ART";
  ExpectPlacementInvariant(index);
}

// Lookup's Alg. 2 write-back moves a key from ART into its tombstoned slot.
// Like every write-back it must run inside a WriteBackSection: a racing scan
// may read the slot before the move and ART after it, and only the section
// makes it retry instead of missing a key that is live throughout.
TEST_F(AltIndexTest, TombstoneWriteBackNeverHidesKeysFromScans) {
  constexpr Key kStride = 1000;
  constexpr Key kKeys = 17000;
  AltOptions opts;
  opts.enable_retraining = false;  // no expansion may take the tombstones over
  size_t scans = 0;
  size_t bad_scans = 0;
  for (int round = 0; round < 10; ++round) {
    AltIndex index(opts);
    std::vector<std::pair<Key, Value>> bulk;
    for (Key i = 0; i < kKeys; ++i) bulk.emplace_back(i * kStride, ValueFor(i * kStride));
    ASSERT_TRUE(index.BulkLoad(bulk).ok());
    // Three more keys per bulk key fill every line (1.5 bulk keys per
    // three-lane line at the default gap factor), so most of them go to ART;
    // then tombstone the bulk key's lane.
    std::vector<Key> live;
    for (const auto& [k, v] : bulk) {
      for (Key d = 1; d <= 3; ++d) {
        ASSERT_TRUE(index.Insert(k + d, ValueFor(k + d)));
        live.push_back(k + d);
      }
      ASSERT_TRUE(index.Remove(k));
    }
    ASSERT_GT(index.CollectStructuralStats().art_keys, live.size() / 2);

    std::atomic<bool> scanning{false};
    std::atomic<bool> done{false};
    std::atomic<size_t> lookup_misses{0};
    std::thread reader([&] {
      while (!scanning.load(std::memory_order_acquire)) std::this_thread::yield();
      for (Key k : live) {
        Value v = 0;
        if (!index.Lookup(k, &v) || v != ValueFor(k)) {
          lookup_misses.fetch_add(1, std::memory_order_relaxed);
        }
      }
      done.store(true, std::memory_order_release);
    });
    std::vector<std::pair<Key, Value>> out;
    scanning.store(true, std::memory_order_release);
    while (!done.load(std::memory_order_acquire)) {
      if (scans % 2 == 0) {
        index.RangeQuery(0, ~Key{0}, &out);
      } else {
        index.Scan(0, 2 * live.size(), &out);
      }
      ++scans;
      if (out.size() != live.size()) ++bad_scans;
    }
    reader.join();
    EXPECT_EQ(lookup_misses.load(std::memory_order_relaxed), 0u);
    ExpectPlacementInvariant(index);
    EXPECT_LT(index.CollectStructuralStats().art_keys, live.size() / 2)
        << "the lookups should have written most ART keys back";
  }
  EXPECT_GT(scans, 0u);
  EXPECT_EQ(bad_scans, 0u) << "of " << scans << " scans";
}

// Lost-remove regression: an Insert(k) that raced a Lookup(k) tombstone
// write-back could read k's line without k, see the write-back move k from ART
// into a tombstone lane, and then put a second copy into ART — so the insert
// reported a new key, and Remove(k) left the ART copy visible.
TEST_F(AltIndexTest, InsertRacingTombstoneWriteBackFindsTheKey) {
  AltOptions opts;
  opts.enable_retraining = false;  // the lines must stay put
  AltIndex index(opts);
  const std::vector<Key> keys = GenerateKeys(Dataset::kOsm, 400000, 5);
  ASSERT_TRUE(index.BulkLoad(MakePairs(keys)).ok());
  // (occupant, conflict) pairs: a conflict is an ART key; its occupant is the
  // nearest learned-layer key before it, which sits in the conflict's line.
  std::vector<std::pair<Key, Key>> pairs;
  {
    EpochGuard g(index.epoch());
    Key occupant = 0;
    bool have_occupant = false;
    for (const Key k : keys) {
      Value v = 0;
      if (!index.art().Lookup(k, &v)) {
        occupant = k;
        have_occupant = true;
      } else if (have_occupant) {
        pairs.emplace_back(occupant, k);
        have_occupant = false;
      }
    }
  }
  ASSERT_GT(pairs.size(), 10000u);
  for (const auto& [occupant, k] : pairs) ASSERT_TRUE(index.Remove(occupant));

  // Per pair, one Lookup(k) and one Insert(k) released together.
  std::atomic<size_t> arrived{0};
  const auto release = [&](size_t round) {
    arrived.fetch_add(1, std::memory_order_acq_rel);
    while (arrived.load(std::memory_order_acquire) < 2 * (round + 1)) CpuRelax();
  };
  std::atomic<size_t> false_inserts{0};
  std::thread looker([&] {
    for (size_t i = 0; i < pairs.size(); ++i) {
      release(i);
      Value v = 0;
      index.Lookup(pairs[i].second, &v);
    }
  });
  std::thread inserter([&] {
    for (size_t i = 0; i < pairs.size(); ++i) {
      release(i);
      if (index.Insert(pairs[i].second, 1)) false_inserts.fetch_add(1);
    }
  });
  looker.join();
  inserter.join();
  EXPECT_EQ(false_inserts.load(), 0u)
      << "of " << pairs.size() << " inserts of present keys";
  ExpectPlacementInvariant(index);
  size_t visible_after_remove = 0;
  for (const auto& [occupant, k] : pairs) {
    ASSERT_TRUE(index.Remove(k));
    Value v = 0;
    if (index.Lookup(k, &v)) ++visible_after_remove;
  }
  EXPECT_EQ(visible_after_remove, 0u);
}

// ---------------------------------------------------------------------------
// The line rule (DESIGN.md §2.2): a key may take any lane of its predicted line
// ---------------------------------------------------------------------------

// An empty load publishes one model whose slope maps every small key into its
// line 0, so keys 1, 2, 3, ... share one three-lane line.
std::unique_ptr<AltIndex> OneLineIndex(AltOptions opts = AltOptions{}) {
  auto index = std::make_unique<AltIndex>(opts);
  EXPECT_TRUE(index->BulkLoad(nullptr, nullptr, 0).ok());
  EpochGuard g(index->epoch());
  const GplModel* m = index->directory().snapshot()->models[0].load();
  EXPECT_EQ(m->LineOf(1), 0u);
  EXPECT_EQ(m->LineOf(1000), 0u);
  EXPECT_EQ(m->LanesIn(0), 3u);
  return index;
}

// Runs `op(t)` on `n` threads released together.
template <typename Op>
void RunTogether(int n, Op op) {
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < n) CpuRelax();
      op(t);
    });
  }
  for (auto& th : threads) th.join();
}

TEST_F(AltIndexTest, SameKeyInsertsIntoOneLineLandOnce) {
  // With 0..3 keys already in the line, the racing inserts of one key meet on
  // its first EMPTY lane's lock, or on the full line's locks and ART.
  for (int round = 0; round < 200; ++round) {
    auto index = OneLineIndex();
    const Key before = static_cast<Key>(round % 4);
    for (Key k = 1; k <= before; ++k) ASSERT_TRUE(index->Insert(k * 10, k));
    const Key key = 25;
    std::atomic<int> wins{0};
    RunTogether(4, [&](int t) {
      if (index->Insert(key, 100 + static_cast<Value>(t))) wins.fetch_add(1);
    });
    ASSERT_EQ(wins.load(), 1) << "round " << round;
    ExpectPlacementInvariant(*index);
    ASSERT_TRUE(index->Remove(key));
    Value v = 0;
    ASSERT_FALSE(index->Lookup(key, &v)) << "a second copy survived, round " << round;
  }
}

TEST_F(AltIndexTest, FourKeysIntoOneLineFillItsLanesAndOverflowToArt) {
  for (int round = 0; round < 200; ++round) {
    auto index = OneLineIndex();
    RunTogether(4, [&](int t) {
      const Key k = 10 + static_cast<Key>(t);
      EXPECT_TRUE(index->Insert(k, ValueFor(k)));
    });
    for (Key k = 10; k < 14; ++k) {
      Value v = 0;
      ASSERT_TRUE(index->Lookup(k, &v)) << k;
      ASSERT_EQ(v, ValueFor(k));
    }
    const AltIndex::StructuralStats st = index->CollectStructuralStats();
    ASSERT_EQ(st.learned_layer_keys(), 3u) << "round " << round;
    ASSERT_EQ(st.art_keys, 1u) << "round " << round;
    ExpectPlacementInvariant(*index);
  }
}

TEST_F(AltIndexTest, ScanOfALineFilledInDescendingOrderIsAscending) {
  auto index = OneLineIndex();
  for (const Key k : {30, 20, 10, 25}) ASSERT_TRUE(index->Insert(k, ValueFor(k)));
  // Lanes hold 30, 20, 10 in that order; 25 overflowed to ART.
  ASSERT_EQ(index->CollectStructuralStats().art_keys, 1u);
  std::vector<std::pair<Key, Value>> out;
  ASSERT_EQ(index->Scan(0, 10, &out), 4u);
  EXPECT_EQ(out, MakePairs({10, 20, 25, 30}));
  ASSERT_EQ(index->Scan(0, 2, &out), 2u);
  EXPECT_EQ(out, MakePairs({10, 20}));
  ASSERT_EQ(index->Scan(15, 1, &out), 1u);
  EXPECT_EQ(out, MakePairs({20}));
  ASSERT_EQ(index->RangeQuery(11, 29, &out), 2u);
  EXPECT_EQ(out, MakePairs({20, 25}));
}

TEST_F(AltIndexTest, LookupsAndScansDuringALineMigrationSeeEveryKey) {
  // Line 0 holds keys 1..3 with 4 and 5 in ART. An expansion is installed on
  // its model; then an insert into line 0 moves the whole line to the
  // temporal buffer while readers look up and scan the five keys.
  AltOptions opts;
  opts.tail_model_slots = 64;       // 22 lines, build size 32
  opts.retrain_trigger_ratio = 0.5;  // expansion after the 17th insert
  constexpr Key kLineStride = (~Key{0} / 64) * 3;  // one key per line 1..16
  const std::vector<Key> stable = {1, 2, 3, 4, 5};
  size_t reads = 0;
  // The window is one line move wide, so the race needs many rounds.
  for (int round = 0; round < 1000; ++round) {
    auto index = OneLineIndex(opts);
    for (const Key k : stable) ASSERT_TRUE(index->Insert(k, ValueFor(k)));
    for (Key i = 1; index->CollectStructuralStats().expanding_models == 0; ++i) {
      ASSERT_LT(i, 17u);
      ASSERT_TRUE(index->Insert(i * kLineStride, ValueFor(i * kLineStride)));
    }
    std::atomic<bool> migrated{false};
    std::atomic<size_t> misses{0};
    std::atomic<size_t> bad_scans{0};
    std::atomic<size_t> round_reads{0};
    RunTogether(3, [&](int t) {
      if (t == 0) {
        EXPECT_TRUE(index->Insert(6, ValueFor(6)));  // migrates line 0
        migrated.store(true, std::memory_order_release);
        return;
      }
      std::vector<std::pair<Key, Value>> out;
      for (int after = 0; after < 20; after += migrated.load(std::memory_order_acquire)) {
        round_reads.fetch_add(1, std::memory_order_relaxed);
        for (const Key k : stable) {
          Value v = 0;
          if (!index->Lookup(k, &v) || v != ValueFor(k)) misses.fetch_add(1);
        }
        index->RangeQuery(1, 5, &out);
        if (out != MakePairs(stable)) bad_scans.fetch_add(1);
      }
    });
    ASSERT_EQ(misses.load(), 0u) << "round " << round;
    ASSERT_EQ(bad_scans.load(), 0u) << "round " << round;
    ASSERT_GT(index->CollectStructuralStats().slot_states[3], 0u) << "no line migrated";
    ExpectPlacementInvariant(*index);
    reads += round_reads.load();
  }
  EXPECT_GT(reads, 0u);
}

// One line word guards all three lanes, so a writer in one lane makes readers
// of the others re-read the line. Lane 0 holds a stable key while two writers
// churn the other lanes with a fresh key per cycle: insert into an EMPTY
// lane, or, once the line is full, a conflict insert into ART that a lookup
// writes back over a tombstone; then update and remove. Every read path must
// find the stable key with its value, and no read may pair a key with a value
// another key's write stored in the same lane.
TEST_F(AltIndexTest, StableLaneSurvivesChurnInItsLine) {
  AltOptions opts;
  opts.enable_retraining = false;  // the line must stay put
  auto index = OneLineIndex(opts);
  // A value names its key and the write that stored it.
  const auto value_of = [](Key k, Value phase) { return k * 16 + phase; };
  const auto torn = [](Key k, Value v) { return v / 16 != k; };
  constexpr Key kStable = 5;
  const Value stable_value = value_of(kStable, 0);
  ASSERT_TRUE(index->Insert(kStable, stable_value));
  constexpr int kReads = 3000;  // per reader
  std::atomic<int> readers_done{0};
  std::atomic<Key> current[2] = {};  // each writer's key of the moment
  std::atomic<size_t> writer_faults{0};
  std::atomic<size_t> reader_faults{0};
  std::atomic<size_t> cycles{0};
  RunTogether(4, [&](int t) {
    if (t < 2) {
      for (Key c = 0; readers_done.load(std::memory_order_acquire) < 2; ++c) {
        const Key k = 100 + 2 * c + static_cast<Key>(t);
        current[t].store(k, std::memory_order_relaxed);
        Value v = 0;
        bool ok = index->Insert(k, value_of(k, 1));
        ok &= index->Lookup(k, &v) && v == value_of(k, 1);  // may write k back
        ok &= index->Update(k, value_of(k, 2));
        ok &= index->Lookup(k, &v) && v == value_of(k, 2);
        ok &= index->Remove(k);
        ok &= !index->Lookup(k, &v);
        if (!ok) writer_faults.fetch_add(1, std::memory_order_relaxed);
        cycles.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    EpochGuard g(index->epoch());
    const GplModel* model = index->directory().snapshot()->models[0].load();
    std::vector<std::pair<Key, Value>> out;
    size_t faults = 0;
    for (int i = 0; i < kReads; ++i) {
      const Key batch[] = {kStable, current[0].load(std::memory_order_relaxed),
                           current[1].load(std::memory_order_relaxed), kStable};
      Value v = 0;
      faults += !index->Lookup(kStable, &v) || v != stable_value;
      for (int j = 1; j < 3; ++j) faults += index->Lookup(batch[j], &v) && torn(batch[j], v);
      Value vals[4] = {};
      bool found[4] = {};
      index->LookupBatch(batch, 4, vals, found);
      for (int j = 0; j < 4; ++j) faults += found[j] && torn(batch[j], vals[j]);
      faults += !found[0] || !found[3] || vals[0] != stable_value || vals[3] != stable_value;
      index->Scan(0, 3, &out);
      faults += out.empty() || out.front() != std::make_pair(kStable, stable_value);
      for (const auto& [k, kv] : out) faults += torn(k, kv);
      // The model's own line reads, the likeliest to meet a lane mid-write.
      for (int r = 0; r < 8; ++r) {
        out.clear();
        model->CollectRange(0, ~Key{0}, &out);
        faults += std::count(out.begin(), out.end(), std::make_pair(kStable, stable_value)) != 1;
        for (const auto& [k, kv] : out) faults += torn(k, kv);
      }
    }
    reader_faults.fetch_add(faults, std::memory_order_relaxed);
    readers_done.fetch_add(1, std::memory_order_release);
  });
  EXPECT_EQ(writer_faults.load(), 0u) << "of " << cycles.load() << " cycles";
  EXPECT_EQ(reader_faults.load(), 0u);
  EXPECT_GT(cycles.load(), 0u);
  EXPECT_GT(index->CollectStructuralStats().slot_states[2], 0u) << "no tombstone left";
  ExpectPlacementInvariant(*index);
}

// ---------------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------------

TEST_F(AltIndexTest, ScanMatchesSortedOracle) {
  AltIndex index;
  auto keys = GenerateKeys(Dataset::kFb, 40000, 23);
  auto pairs = MakePairs(keys);
  ASSERT_TRUE(index.BulkLoad(pairs).ok());
  std::vector<std::pair<Key, Value>> out;
  Rng rng(5);
  for (int t = 0; t < 100; ++t) {
    const size_t start = rng.NextBounded(keys.size() - 200);
    const size_t n = 1 + rng.NextBounded(150);
    ASSERT_EQ(index.Scan(keys[start], n, &out), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i].first, keys[start + i]);
      EXPECT_EQ(out[i].second, ValueFor(keys[start + i]));
    }
  }

  // A full walk returns exactly the loaded keys.
  AltIndex walked;
  const auto walk_keys = GenerateKeys(Dataset::kFb, 20000, 3);
  ASSERT_TRUE(walked.BulkLoad(MakePairs(walk_keys)).ok());
  ASSERT_EQ(walked.Scan(0, walk_keys.size() + 1, &out), walk_keys.size());
  for (size_t i = 0; i < walk_keys.size(); ++i) {
    ASSERT_EQ(out[i].first, walk_keys[i]);
    ASSERT_EQ(out[i].second, ValueFor(walk_keys[i]));
  }
}

TEST_F(AltIndexTest, ScanFromBetweenKeys) {
  AltIndex index;
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k = 0; k < 1000; ++k) pairs.emplace_back(k * 10 + 5, k);
  ASSERT_TRUE(index.BulkLoad(pairs).ok());
  std::vector<std::pair<Key, Value>> out;
  ASSERT_EQ(index.Scan(52, 3, &out), 3u);  // between 45 and 55
  EXPECT_EQ(out[0].first, 55u);
  EXPECT_EQ(out[1].first, 65u);
  EXPECT_EQ(out[2].first, 75u);
  ASSERT_EQ(index.Scan(9991, 3, &out), 1u);  // between 9985 and the last key
  EXPECT_EQ(out[0].first, 9995u);
  EXPECT_EQ(index.Scan(9996, 3, &out), 0u);  // past the last key
  EXPECT_TRUE(out.empty());
}

TEST_F(AltIndexTest, ScanSeesInsertsAndSkipsRemoved) {
  AltIndex index;
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k = 0; k < 2000; k += 2) pairs.emplace_back(k, k);
  ASSERT_TRUE(index.BulkLoad(pairs).ok());
  for (Key k = 1; k < 2000; k += 2) ASSERT_TRUE(index.Insert(k, k));
  for (Key k = 0; k < 2000; k += 10) ASSERT_TRUE(index.Remove(k));
  std::vector<std::pair<Key, Value>> out;
  index.Scan(0, 5000, &out);
  std::vector<Key> expect;
  for (Key k = 0; k < 2000; ++k) {
    if (k % 10 != 0 || k % 2 == 1) expect.push_back(k);
  }
  ASSERT_EQ(out.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) EXPECT_EQ(out[i].first, expect[i]);

  // Removing every 9th key of a longlat set empties slots in both layers; a
  // full scan still returns exactly Size() strictly ascending keys.
  AltIndex pruned;
  const auto longlat = GenerateKeys(Dataset::kLonglat, 30000, 9);
  ASSERT_TRUE(pruned.BulkLoad(MakePairs(longlat)).ok());
  for (size_t i = 0; i < longlat.size(); i += 9) pruned.Remove(longlat[i]);
  ASSERT_EQ(pruned.Scan(0, pruned.Size() + 1, &out), pruned.Size());
  for (size_t i = 1; i < out.size(); ++i) ASSERT_LT(out[i - 1].first, out[i].first);
  ExpectPlacementInvariant(pruned);
}

TEST_F(AltIndexTest, RangeQueryInclusiveBounds) {
  AltIndex index;
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k = 1; k <= 100; ++k) pairs.emplace_back(k * 100, k);
  ASSERT_TRUE(index.BulkLoad(pairs).ok());
  std::vector<std::pair<Key, Value>> out;
  EXPECT_EQ(index.RangeQuery(500, 1000, &out), 6u);
  EXPECT_EQ(out.front().first, 500u);
  EXPECT_EQ(out.back().first, 1000u);
  EXPECT_EQ(index.RangeQuery(501, 599, &out), 0u);
  EXPECT_EQ(index.RangeQuery(1000, 500, &out), 0u);  // inverted range
}

// Scan counts 0, 1 and SIZE_MAX and the full RangeQuery against the loaded
// set, before, during and after §III-F expansions.
TEST_F(AltIndexTest, ScanCountEdgesAndFullRangeAcrossExpansion) {
  AltOptions opts;
  opts.retrain_trigger_ratio = 0.5;
  opts.gap_factor = 1.2;  // dense: conflicts put keys in ART too
  AltIndex index(opts);
  constexpr Key kBulk = 10000;
  std::vector<Key> oracle;
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k = 0; k < kBulk; ++k) {
    pairs.emplace_back(k * 8, ValueFor(k * 8));
    oracle.push_back(k * 8);
  }
  ASSERT_TRUE(index.BulkLoad(pairs).ok());

  std::vector<std::pair<Key, Value>> out;
  auto check = [&](const char* phase) {
    std::sort(oracle.begin(), oracle.end());
    auto same_as_suffix = [&](size_t from) {
      if (out.size() != oracle.size() - from) return false;
      for (size_t i = 0; i < out.size(); ++i) {
        if (out[i].first != oracle[from + i] || out[i].second != ValueFor(oracle[from + i])) {
          return false;
        }
      }
      return true;
    };
    EXPECT_EQ(index.Scan(0, 0, &out), 0u) << phase;
    EXPECT_TRUE(out.empty()) << phase;
    const size_t mid = oracle.size() / 2;
    ASSERT_EQ(index.Scan(oracle[mid] - 1, 1, &out), 1u) << phase;
    EXPECT_EQ(out[0].first, oracle[mid]) << phase;
    EXPECT_EQ(index.Scan(0, SIZE_MAX, &out), oracle.size()) << phase;
    EXPECT_TRUE(same_as_suffix(0)) << phase;
    EXPECT_EQ(index.Scan(oracle[mid], SIZE_MAX, &out), oracle.size() - mid) << phase;
    EXPECT_TRUE(same_as_suffix(mid)) << phase;
    EXPECT_EQ(index.RangeQuery(0, ~Key{0}, &out), oracle.size()) << phase;
    EXPECT_TRUE(same_as_suffix(0)) << phase;
    // Short scans from starts spread over the keys, on and between them: the
    // capped per-run collection must return exactly the oracle's next keys.
    for (size_t j = 0; j < 20; ++j) {
      const Key start = oracle[j * (oracle.size() - 1) / 19] - (j % 2);
      const auto from = std::lower_bound(oracle.begin(), oracle.end(), start);
      for (size_t count : {size_t{10}, size_t{100}}) {
        const size_t expect =
            std::min(count, static_cast<size_t>(oracle.end() - from));
        ASSERT_EQ(index.Scan(start, count, &out), expect) << phase << " start " << start;
        for (size_t i = 0; i < expect; ++i) {
          EXPECT_EQ(out[i].first, from[static_cast<ptrdiff_t>(i)]) << phase << " start " << start;
          EXPECT_EQ(out[i].second, ValueFor(out[i].first)) << phase << " start " << start;
        }
      }
    }
  };
  check("bulk-loaded");

  bool saw_expanding = false;
  for (Key k = 0; k < kBulk; ++k) {
    for (Key d = 2; d <= 6; d += 2) {
      ASSERT_TRUE(index.Insert(k * 8 + d, ValueFor(k * 8 + d)));
      oracle.push_back(k * 8 + d);
    }
    // The first check finds an expansion early; later ones see its temporal
    // buffer fill, so the short scans' starts reach its chain runs too.
    const bool probe = saw_expanding ? k % 1000 == 0 : k % 50 == 0;
    if (probe && index.CollectStructuralStats().expanding_models > 0) {
      saw_expanding = true;
      check("mid-expansion");
    }
  }
  ASSERT_TRUE(saw_expanding) << "the inserts must leave an expansion in flight";
  ASSERT_GT(index.CollectStructuralStats().retrain_finished, 0u);
  check("after expansions");
  ExpectPlacementInvariant(index);
}

// ---------------------------------------------------------------------------
// Option ablations
// ---------------------------------------------------------------------------

class AltOptionsTest : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { EpochManager::Global().DrainAll(); }

  static AltOptions MakeOptions(int variant) {
    AltOptions o;
    switch (variant) {
      case 0: break;                                  // defaults
      case 1: o.enable_fast_pointers = false; break;  // root-only ART search
      case 2: o.enable_retraining = false; break;     // no expansions
      case 3: o.gap_factor = 1.2; break;              // dense slots
      case 4: o.gap_factor = 3.0; break;              // sparse slots
      case 5: o.error_bound = 32; break;              // small epsilon
      case 6: o.error_bound = 2048; break;            // large epsilon
      default: break;
    }
    return o;
  }
};

TEST_P(AltOptionsTest, FullLifecycleCorrectUnderAnyConfig) {
  AltIndex index(MakeOptions(GetParam()));
  auto keys = GenerateKeys(Dataset::kOsm, 30000, 41);
  std::vector<std::pair<Key, Value>> loaded, extra;
  for (size_t i = 0; i < keys.size(); ++i) {
    (i % 2 ? extra : loaded).emplace_back(keys[i], ValueFor(keys[i]));
  }
  ASSERT_TRUE(index.BulkLoad(loaded).ok());
  for (const auto& [k, v] : extra) ASSERT_TRUE(index.Insert(k, v));
  for (const auto& [k, v] : loaded) {
    Value got;
    ASSERT_TRUE(index.Lookup(k, &got));
    EXPECT_EQ(got, v);
  }
  for (size_t i = 0; i < keys.size(); i += 4) ASSERT_TRUE(index.Remove(keys[i]));
  for (size_t i = 0; i < keys.size(); ++i) {
    Value got;
    EXPECT_EQ(index.Lookup(keys[i], &got), i % 4 != 0);
  }
  std::vector<std::pair<Key, Value>> out;
  index.Scan(keys[10], 64, &out);
  for (size_t i = 1; i < out.size(); ++i) EXPECT_LT(out[i - 1].first, out[i].first);
  ExpectPlacementInvariant(index);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, AltOptionsTest, ::testing::Range(0, 7));

// Error-bound / model-count relation (Eq. 1): bigger epsilon, fewer models.
TEST_F(AltIndexTest, ModelCountInverseToErrorBound) {
  auto pairs = MakePairs(GenerateKeys(Dataset::kLonglat, 60000, 3));
  size_t prev = ~size_t{0};
  for (double eps : {16.0, 64.0, 256.0, 1024.0}) {
    AltOptions o;
    o.error_bound = eps;
    AltIndex index(o);
    ASSERT_TRUE(index.BulkLoad(pairs).ok());
    const size_t models = index.CollectStructuralStats().num_models;
    EXPECT_LE(models, prev) << "eps=" << eps;
    prev = models;
  }
}

// ART share grows with epsilon (Eq. 3): bigger parallelograms, more conflicts.
TEST_F(AltIndexTest, ArtShareGrowsWithErrorBound) {
  auto pairs = MakePairs(GenerateKeys(Dataset::kOsm, 60000, 3));
  double prev_share = -1;
  std::vector<double> shares;
  for (double eps : {16.0, 256.0, 4096.0}) {
    AltOptions o;
    o.error_bound = eps;
    AltIndex index(o);
    ASSERT_TRUE(index.BulkLoad(pairs).ok());
    const auto st = index.CollectStructuralStats();
    shares.push_back(static_cast<double>(st.art_keys) /
                     static_cast<double>(pairs.size()));
  }
  EXPECT_LE(shares[0], shares[2] + 0.05)
      << "conflict share should not shrink as epsilon grows";
  (void)prev_share;
}

TEST_F(AltIndexTest, MemoryUsageIsPlausible) {
  AltIndex index;
  auto pairs = MakePairs(GenerateKeys(Dataset::kLibio, 50000, 3));
  ASSERT_TRUE(index.BulkLoad(pairs).ok());
  const size_t bytes = index.MemoryUsage();
  // At least the raw data, at most ~100 bytes/key for this config.
  EXPECT_GT(bytes, pairs.size() * sizeof(Key));
  EXPECT_LT(bytes, pairs.size() * 120);
}

TEST_F(AltIndexTest, SizeIsExactAfterConcurrentDisjointInsertsAndRemoves) {
  // Size() sums per-thread cells; once the writers are joined it must be the
  // exact key count, and ART's own counter its census leaf count.
  AltOptions o;
  o.retrain_trigger_ratio = 0.5;  // expansions run under the churn too
  AltIndex index(o);
  const std::vector<Key> keys = GenerateKeys(Dataset::kOsm, 40000, 5);
  std::vector<std::pair<Key, Value>> loaded;
  std::vector<Key> extra;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i % 2 == 0) {
      loaded.emplace_back(keys[i], ValueFor(keys[i]));
    } else {
      extra.push_back(keys[i]);
    }
  }
  ASSERT_TRUE(index.BulkLoad(loaded).ok());
  constexpr size_t kThreads = 4;
  std::atomic<size_t> removed{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      size_t mine = 0;
      for (size_t j = t; j < extra.size(); j += kThreads) {
        EXPECT_TRUE(index.Insert(extra[j], ValueFor(extra[j])));
      }
      for (size_t j = t; j < extra.size(); j += kThreads) {
        if (j % 3 == 0 && index.Remove(extra[j])) ++mine;
      }
      for (size_t j = t; j < loaded.size(); j += kThreads) {
        if (j % 5 == 0 && index.Remove(loaded[j].first)) ++mine;
      }
      removed.fetch_add(mine);
    });
  }
  for (auto& th : threads) th.join();
  size_t expect_removed = 0;
  for (size_t j = 0; j < extra.size(); j += 3) ++expect_removed;
  for (size_t j = 0; j < loaded.size(); j += 5) ++expect_removed;
  EXPECT_EQ(removed.load(), expect_removed);
  const size_t expect = keys.size() - expect_removed;
  EXPECT_EQ(index.Size(), expect);
  EXPECT_EQ(index.art().Size(), index.art().CollectCensus().leaves);
  std::vector<std::pair<Key, Value>> all;
  index.Scan(0, keys.size() + 1, &all);
  EXPECT_EQ(all.size(), expect);
  ExpectPlacementInvariant(index);
}

TEST_F(AltIndexTest, KeyZeroIsALegalKey) {
  AltIndex index;
  std::vector<std::pair<Key, Value>> pairs{{0, 111}, {5, 222}, {10, 333}};
  ASSERT_TRUE(index.BulkLoad(pairs).ok());
  Value v;
  ASSERT_TRUE(index.Lookup(0, &v));
  EXPECT_EQ(v, 111u);
  ASSERT_TRUE(index.Remove(0));
  EXPECT_FALSE(index.Lookup(0, &v));
  EXPECT_TRUE(index.Insert(0, 444));
  ASSERT_TRUE(index.Lookup(0, &v));
  EXPECT_EQ(v, 444u);
}

// No slot ever holds ~Key{0}: every model's coverage_end is exclusive and at
// most ~Key{0}, so ProbeSlot sends the key to ART. Bulk load and the
// tail-append sweep must therefore leave it there.
TEST_F(AltIndexTest, BulkLoadedMaxKeyIsVisible) {
  constexpr Key kMax = ~Key{0};
  auto expect_visible_once = [&](AltIndex& index, const char* phase) {
    Value v = 0;
    EXPECT_TRUE(index.Lookup(kMax, &v)) << phase;
    EXPECT_EQ(v, ValueFor(kMax)) << phase;
    EXPECT_FALSE(index.Insert(kMax, 1)) << phase;
    std::vector<std::pair<Key, Value>> out;
    index.Scan(0, SIZE_MAX, &out);
    EXPECT_EQ(std::count_if(out.begin(), out.end(),
                            [&](const auto& p) { return p.first == kMax; }),
              1)
        << phase;
    ASSERT_FALSE(out.empty()) << phase;
    EXPECT_EQ(out.back().first, kMax) << phase;
  };
  {
    AltIndex index;
    ASSERT_TRUE(index.BulkLoad(MakePairs({1, 5, kMax})).ok());
    expect_visible_once(index, "bulk-loaded");
  }
  {
    // Insert the key, then expand the last model until a tail model is
    // appended behind it: the tail's ART sweep covers [tail_first, kMax].
    AltOptions opts;
    opts.retrain_trigger_ratio = 0.5;
    AltIndex index(opts);
    std::vector<std::pair<Key, Value>> pairs;
    for (Key k = 0; k < 4000; ++k) pairs.emplace_back(k * 4, ValueFor(k * 4));
    ASSERT_TRUE(index.BulkLoad(pairs).ok());
    const size_t models_before = index.CollectStructuralStats().num_models;
    ASSERT_TRUE(index.Insert(kMax, ValueFor(kMax)));
    for (Key k = 0; k < 4000; ++k) {
      for (Key d = 1; d <= 3; ++d) ASSERT_TRUE(index.Insert(k * 4 + d, ValueFor(k * 4 + d)));
    }
    ASSERT_GT(index.CollectStructuralStats().num_models, models_before)
        << "the last model's expansion must append a tail model";
    expect_visible_once(index, "after tail append");
  }
}

class RadixUpperModelTest : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { EpochManager::Global().DrainAll(); }
};

// The radix-accelerated Locate must agree with pure binary search for every
// key, including after tail-model appends.
TEST_P(RadixUpperModelTest, FullLifecycleAcrossRadixWidths) {
  AltOptions o;
  o.upper_radix_bits = GetParam();
  o.retrain_trigger_ratio = 0.5;
  AltIndex index(o);
  auto keys = GenerateKeys(Dataset::kOsm, 25000, 3);
  std::vector<std::pair<Key, Value>> loaded, extra;
  for (size_t i = 0; i < keys.size(); ++i) {
    (i % 2 ? extra : loaded).emplace_back(keys[i], ValueFor(keys[i]));
  }
  ASSERT_TRUE(index.BulkLoad(loaded).ok());
  for (const auto& [k, v] : extra) ASSERT_TRUE(index.Insert(k, v));
  for (const auto& [k, v] : loaded) {
    Value got;
    ASSERT_TRUE(index.Lookup(k, &got)) << "radix=" << GetParam();
    EXPECT_EQ(got, v);
  }
  for (size_t i = 0; i < keys.size(); i += 5) ASSERT_TRUE(index.Remove(keys[i]));
  for (size_t i = 0; i < keys.size(); ++i) {
    Value got;
    EXPECT_EQ(index.Lookup(keys[i], &got), i % 5 != 0);
  }
  std::vector<std::pair<Key, Value>> out;
  index.Scan(keys[7], 100, &out);
  for (size_t i = 1; i < out.size(); ++i) EXPECT_LT(out[i - 1].first, out[i].first);
  ExpectPlacementInvariant(index);
}

INSTANTIATE_TEST_SUITE_P(Widths, RadixUpperModelTest, ::testing::Values(0, 6, 10, 14));

// upper_radix_bits sizes a table of 2^bits + 1 entries and shifts by it, so
// BulkLoad must refuse widths outside [0, 20] before it allocates anything.
TEST(RadixBitsRangeTest, BulkLoadRejectsWidthsOutsideTheRange) {
  const std::vector<std::pair<Key, Value>> pairs = {{1, 2}, {5, 6}, {9, 10}};
  for (const int bits : {-1, 21, 64}) {
    AltOptions o;
    o.upper_radix_bits = bits;
    AltIndex index(o);
    const Status s = index.BulkLoad(pairs);
    EXPECT_EQ(s.code(), Status::Code::kInvalidArgument) << "bits=" << bits;
    EXPECT_EQ(index.directory().NumModels(), 0u) << "bits=" << bits;
  }
  for (const int bits : {0, 20}) {
    AltOptions o;
    o.upper_radix_bits = bits;
    AltIndex index(o);
    ASSERT_TRUE(index.BulkLoad(pairs).ok()) << "bits=" << bits;
    Value v = 0;
    EXPECT_TRUE(index.Lookup(5, &v));
    EXPECT_EQ(v, 6u);
    EXPECT_FALSE(index.Lookup(7, &v));
  }
  EpochManager::Global().DrainAll();
}

}  // namespace
}  // namespace alt
