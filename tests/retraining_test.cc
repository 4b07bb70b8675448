#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/epoch.h"
#include "common/random.h"
#include "common/trace.h"
#include "core/alt_index.h"
#include "datasets/dataset.h"

namespace alt {
namespace {

// The line rule's placement invariant (DESIGN.md §2.2), checked after churn.
void ExpectPlacementInvariant(const AltIndex& index) {
  const Status st = index.CheckPlacementInvariant();
  EXPECT_TRUE(st.ok()) << st.ToString();
}

class RetrainingTest : public ::testing::Test {
 protected:
  void TearDown() override { EpochManager::Global().DrainAll(); }
};

// Hammer one small key region with inserts so a single GPL model's insert
// count far exceeds its build size — the §III-F trigger.
TEST_F(RetrainingTest, HotInsertsTriggerAndFinishExpansion) {
  AltOptions opts;
  opts.retrain_trigger_ratio = 0.5;
  AltIndex index(opts);
  // Dense region loaded, then 3x that volume inserted into the same region:
  // the finish threshold (§III-F: temporal-buffer inserts == old model size)
  // is comfortably crossed.
  constexpr Key kBulk = 15000;
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k = 0; k < kBulk; ++k) pairs.emplace_back(k * 4, ValueFor(k * 4));
  ASSERT_TRUE(index.BulkLoad(pairs).ok());
  for (Key k = 0; k < kBulk; ++k) {
    for (Key d = 1; d <= 3; ++d) {
      ASSERT_TRUE(index.Insert(k * 4 + d, ValueFor(k * 4 + d))) << k;
    }
  }
  const auto st = index.CollectStructuralStats();
  EXPECT_GT(st.retrain_started, 0u) << "hot inserts must trigger expansion";
  EXPECT_GT(st.retrain_finished, 0u) << "expansion must complete";
  // Every key, old and new, remains reachable.
  for (Key k = 0; k < kBulk * 4; ++k) {
    Value v;
    ASSERT_TRUE(index.Lookup(k, &v)) << k;
    EXPECT_EQ(v, ValueFor(k));
  }
  EXPECT_EQ(index.Size(), kBulk * 4);
  ExpectPlacementInvariant(index);
}

#if !defined(ALT_TRACING_DISABLED)
// The whole-expansion duration (trigger to publish) lives in the flight
// recorder as one complete `retrain` span per finished expansion.
TEST_F(RetrainingTest, FinishedExpansionRecordsRetrainSpan) {
  trace::ResetForTest();
  trace::SetEnabled(true);
  AltOptions opts;
  opts.retrain_trigger_ratio = 0.5;
  AltIndex index(opts);
  constexpr Key kBulk = 15000;
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k = 0; k < kBulk; ++k) pairs.emplace_back(k * 4, ValueFor(k * 4));
  ASSERT_TRUE(index.BulkLoad(pairs).ok());
  for (Key k = 0; k < kBulk; ++k) {
    for (Key d = 1; d <= 3; ++d) {
      ASSERT_TRUE(index.Insert(k * 4 + d, ValueFor(k * 4 + d))) << k;
    }
  }
  trace::SetEnabled(false);
  EXPECT_GT(index.CollectStructuralStats().retrain_finished, 0u);
  size_t spans = 0;
  for (const trace::Record& r : trace::Collect()) {
    if (std::string(r.name) != "retrain") continue;
    EXPECT_EQ(r.phase, trace::Phase::kComplete);
    EXPECT_GT(r.dur_ns, 0u);
    ++spans;
  }
  EXPECT_GT(spans, 0u) << "no retrain span recorded";
  trace::ResetForTest();
  ExpectPlacementInvariant(index);
}
#endif

TEST_F(RetrainingTest, DisabledRetrainingNeverExpands) {
  AltOptions opts;
  opts.enable_retraining = false;
  AltIndex index(opts);
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k = 0; k < 5000; ++k) pairs.emplace_back(k * 2, k);
  ASSERT_TRUE(index.BulkLoad(pairs).ok());
  for (Key k = 0; k < 5000; ++k) ASSERT_TRUE(index.Insert(k * 2 + 1, k));
  const auto st = index.CollectStructuralStats();
  EXPECT_EQ(st.retrain_started, 0u);
  for (Key k = 0; k < 10000; ++k) {
    Value v;
    ASSERT_TRUE(index.Lookup(k, &v)) << k;
  }
  ExpectPlacementInvariant(index);
}

// After an expansion finishes, the zero-error invariant must hold again:
// ART keys whose new predicted slot is empty were written back (§III-F).
TEST_F(RetrainingTest, InvariantRestoredAfterFinish) {
  AltOptions opts;
  opts.retrain_trigger_ratio = 0.5;
  opts.gap_factor = 1.2;  // dense: provokes conflicts and write-backs
  AltIndex index(opts);
  constexpr Key kBulk = 10000;
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k = 0; k < kBulk; ++k) pairs.emplace_back(k * 8, ValueFor(k * 8));
  ASSERT_TRUE(index.BulkLoad(pairs).ok());
  for (Key k = 0; k < kBulk; ++k) {
    for (Key d = 2; d <= 6; d += 2) {
      ASSERT_TRUE(index.Insert(k * 8 + d, ValueFor(k * 8 + d)));
    }
  }
  const auto st = index.CollectStructuralStats();
  ASSERT_GT(st.retrain_finished, 0u);
  EXPECT_EQ(st.learned_layer_keys() + st.art_keys, kBulk * 4);
  for (Key k = 0; k < kBulk * 8; k += 2) {
    Value v;
    ASSERT_TRUE(index.Lookup(k, &v)) << k;
    EXPECT_EQ(v, ValueFor(k));
  }
  // Absent keys still answer "not found" quickly post-retraining.
  for (Key k = 1; k < kBulk * 8; k += 2) {
    Value v;
    EXPECT_FALSE(index.Lookup(k, &v)) << k;
  }
  ExpectPlacementInvariant(index);
}

// The first model also routes every key below its first key. One such key
// that sits in ART behind a tombstoned slot 0 must survive the model's
// expansion: the finish sweep's ART range has to start at key 0, or the
// published model's EMPTY slot 0 would answer "absent" for it.
TEST_F(RetrainingTest, FinishSweepAdoptsKeysBelowTheFirstModel) {
  AltOptions opts;
  opts.retrain_trigger_ratio = 0.5;
  AltIndex index(opts);
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k = 0; k < 4000; ++k) pairs.emplace_back(1000 + k * 4, ValueFor(1000 + k * 4));
  ASSERT_TRUE(index.BulkLoad(pairs).ok());
  ASSERT_TRUE(index.Remove(1000));        // tombstone in the first model's slot 0
  ASSERT_TRUE(index.Insert(500, ValueFor(500)));  // predicts slot 0: goes to ART
  // Expand the first model once (~7k inserts: past its 2k trigger plus 4k
  // finish threshold, short of the published model's own 3k trigger), with
  // keys away from its start so none lands in the temporal buffer's slot 0.
  for (Key k = 10; k < 2400; ++k) {
    for (Key d = 1; d <= 3; ++d) ASSERT_TRUE(index.Insert(1000 + k * 4 + d, 1));
  }
  const auto st = index.CollectStructuralStats();
  ASSERT_GT(st.retrain_finished, 0u);
  ASSERT_EQ(st.expanding_models, 0u);
  Value v = 0;
  ASSERT_TRUE(index.Lookup(500, &v));
  EXPECT_EQ(v, ValueFor(500));
  EXPECT_FALSE(index.Insert(500, 1));
  ExpectPlacementInvariant(index);
}

TEST_F(RetrainingTest, TailModelAppendedWhenLastModelRetrains) {
  AltOptions opts;
  opts.retrain_trigger_ratio = 0.5;
  AltIndex index(opts);
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k = 0; k < 4000; ++k) pairs.emplace_back(1000 + k * 2, k);
  ASSERT_TRUE(index.BulkLoad(pairs).ok());
  const size_t models_before = index.CollectStructuralStats().num_models;
  for (Key k = 0; k < 4000; ++k) {
    ASSERT_TRUE(index.Insert(1000 + k * 2 + 1, k));
  }
  const auto st = index.CollectStructuralStats();
  if (st.retrain_finished > 0) {
    EXPECT_GE(st.num_models, models_before)
        << "finishing the last model appends a tail model";
  }
  // Out-of-range inserts beyond the original max land correctly.
  const Key beyond = 1000 + 4000 * 2 + 100;
  for (Key k = 0; k < 1000; ++k) {
    ASSERT_TRUE(index.Insert(beyond + k * 3, k));
  }
  for (Key k = 0; k < 1000; ++k) {
    Value v;
    ASSERT_TRUE(index.Lookup(beyond + k * 3, &v)) << k;
    EXPECT_EQ(v, k);
  }
  ExpectPlacementInvariant(index);
}

// Removes and updates racing an in-flight expansion must stay correct.
TEST_F(RetrainingTest, MixedOpsDuringExpansionSingleThread) {
  AltOptions opts;
  opts.retrain_trigger_ratio = 0.25;
  AltIndex index(opts);
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k = 0; k < 8000; ++k) pairs.emplace_back(k * 3, ValueFor(k * 3));
  ASSERT_TRUE(index.BulkLoad(pairs).ok());
  // Interleave inserts (forcing expansions) with removes/updates/lookups.
  for (Key k = 0; k < 8000; ++k) {
    ASSERT_TRUE(index.Insert(k * 3 + 1, ValueFor(k * 3 + 1)));
    if (k % 5 == 0) ASSERT_TRUE(index.Remove(k * 3));
    if (k % 7 == 0) ASSERT_TRUE(index.Update(k * 3 + 1, 42));
    Value v;
    ASSERT_TRUE(index.Lookup(k * 3 + 1, &v));
    EXPECT_EQ(v, k % 7 == 0 ? 42 : ValueFor(k * 3 + 1));
  }
  for (Key k = 0; k < 8000; ++k) {
    Value v;
    EXPECT_EQ(index.Lookup(k * 3, &v), k % 5 != 0) << k;
  }
  ExpectPlacementInvariant(index);
}

TEST_F(RetrainingTest, ConcurrentInsertersDuringExpansion) {
  AltOptions opts;
  opts.retrain_trigger_ratio = 0.25;
  AltIndex index(opts);
  std::vector<std::pair<Key, Value>> pairs;
  constexpr Key kStride = 8;
  constexpr Key kBulk = 20000;
  for (Key k = 0; k < kBulk; ++k) pairs.emplace_back(k * kStride, ValueFor(k * kStride));
  ASSERT_TRUE(index.BulkLoad(pairs).ok());

  constexpr int kThreads = 4;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&index, &failed, t] {
      // Thread t inserts keys congruent to t+1 (mod kStride).
      for (Key k = 0; k < kBulk; ++k) {
        const Key key = k * kStride + 1 + static_cast<Key>(t);
        if (!index.Insert(key, ValueFor(key))) failed.store(true);
      }
    });
  }
  // A reader thread hammers the bulk keys throughout.
  threads.emplace_back([&index, &failed] {
    for (int round = 0; round < 3; ++round) {
      for (Key k = 0; k < kBulk; k += 3) {
        Value v;
        if (!index.Lookup(k * kStride, &v) || v != ValueFor(k * kStride)) {
          failed.store(true);
        }
      }
    }
  });
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(index.Size(), kBulk * (1 + kThreads));
  // Full post-condition sweep.
  for (Key k = 0; k < kBulk; ++k) {
    for (int t = -1; t < kThreads; ++t) {
      const Key key = k * kStride + (t < 0 ? 0 : 1 + static_cast<Key>(t));
      Value v;
      ASSERT_TRUE(index.Lookup(key, &v)) << "k=" << k << " t=" << t;
      EXPECT_EQ(v, ValueFor(key));
    }
  }
  const auto st = index.CollectStructuralStats();
  EXPECT_GT(st.retrain_started, 0u);
  ExpectPlacementInvariant(index);
}

// Update and Remove share one slot resolver; here several threads drive them
// across §III-F expansions. Inserters force the expansions. Each writer owns
// a disjoint key set (bulk keys plus keys that start absent), so its own
// oracle predicts every call's return value and every key's final value.
TEST_F(RetrainingTest, ConcurrentUpdateRemoveDuringExpansion) {
  AltOptions opts;
  opts.retrain_trigger_ratio = 0.25;
  AltIndex index(opts);
  constexpr Key kStride = 8;
  constexpr Key kBulk = 12000;
  constexpr int kInserters = 2;
  constexpr int kWriters = 2;
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k = 0; k < kBulk; ++k) pairs.emplace_back(k * kStride, ValueFor(k * kStride));
  ASSERT_TRUE(index.BulkLoad(pairs).ok());

  // Writer w owns bulk keys k*kStride with k % kWriters == w, and the absent
  // keys k*kStride + 4 + w.
  struct Oracle {
    std::vector<Key> keys;
    std::vector<Value> values;
    std::vector<bool> present;
    std::string first_error;
  };
  std::vector<Oracle> oracles(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    for (Key k = 0; k < kBulk; ++k) {
      if (k % kWriters == static_cast<Key>(w)) {
        oracles[w].keys.push_back(k * kStride);
        oracles[w].values.push_back(ValueFor(k * kStride));
        oracles[w].present.push_back(true);
      }
      oracles[w].keys.push_back(k * kStride + 4 + static_cast<Key>(w));
      oracles[w].values.push_back(0);
      oracles[w].present.push_back(false);
    }
  }

  std::atomic<int> inserters_left{kInserters};
  std::atomic<bool> inserter_failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kInserters; ++t) {
    threads.emplace_back([&, t] {
      // Every insert-all pass re-crosses the retrain trigger; the last one
      // leaves the keys present.
      for (int cycle = 0; cycle < 4; ++cycle) {
        for (Key k = 0; k < kBulk; ++k) {
          const Key key = k * kStride + 1 + static_cast<Key>(t);
          if (!index.Insert(key, ValueFor(key))) inserter_failed.store(true);
        }
        for (Key k = 0; cycle < 3 && k < kBulk; ++k) {
          const Key key = k * kStride + 1 + static_cast<Key>(t);
          if (!index.Remove(key)) inserter_failed.store(true);
        }
      }
      inserters_left.fetch_sub(1, std::memory_order_release);
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Oracle& o = oracles[w];
      Rng rng(100 + static_cast<uint64_t>(w));
      const auto check = [&](bool got, bool want, const char* op, Key key) {
        if (got != want && o.first_error.empty()) {
          o.first_error = std::string(op) + " of key " + std::to_string(key) +
                          " returned " + (got ? "true" : "false");
        }
      };
      // At least two passes, and keep going while inserters still expand.
      for (int pass = 0;
           pass < 2 || inserters_left.load(std::memory_order_acquire) > 0; ++pass) {
        for (size_t i = 0; i < o.keys.size(); ++i) {
          const Key key = o.keys[i];
          const Value v = rng.Next();
          switch (rng.NextBounded(4)) {
            case 0:
              check(index.Update(key, v), o.present[i], "Update", key);
              if (o.present[i]) o.values[i] = v;
              break;
            case 1:
              check(index.Remove(key), o.present[i], "Remove", key);
              o.present[i] = false;
              break;
            case 2:
              check(index.Insert(key, v), !o.present[i], "Insert", key);
              if (!o.present[i]) o.values[i] = v;
              o.present[i] = true;
              break;
            default: {
              Value got = 0;
              const bool found = index.Lookup(key, &got);
              check(found, o.present[i], "Lookup", key);
              check(found && got != o.values[i], false, "Lookup value", key);
              break;
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_FALSE(inserter_failed.load());
  size_t live = static_cast<size_t>(kBulk) * (1 + kInserters);
  for (const Oracle& o : oracles) {
    EXPECT_TRUE(o.first_error.empty()) << o.first_error;
    for (size_t i = 0; i < o.keys.size(); ++i) {
      Value got = 0;
      const bool found = index.Lookup(o.keys[i], &got);
      ASSERT_EQ(found, o.present[i]) << o.keys[i];
      if (found) EXPECT_EQ(got, o.values[i]) << o.keys[i];
      // Bulk keys were counted as live up front; absent keys were not.
      if (o.keys[i] % kStride == 0) {
        if (!o.present[i]) --live;
      } else if (o.present[i]) {
        ++live;
      }
    }
  }
  for (int t = 0; t < kInserters; ++t) {
    for (Key k = 0; k < kBulk; ++k) {
      const Key key = k * kStride + 1 + static_cast<Key>(t);
      Value got = 0;
      ASSERT_TRUE(index.Lookup(key, &got)) << key;
      EXPECT_EQ(got, ValueFor(key));
    }
  }
  EXPECT_EQ(index.Size(), live);
  const auto st = index.CollectStructuralStats();
  EXPECT_GT(st.retrain_started, 0u);
  EXPECT_GT(st.retrain_finished, 0u);
  ExpectPlacementInvariant(index);
}

// Regression: during an in-flight §III-F expansion, Scan and RangeQuery
// collect the old model and the temporal buffer over the same key range. A key
// migrating between the two per-slot-atomic collection passes was observed by
// both and returned twice. Scans racing expansions must return strictly
// ascending keys with correct values.
TEST_F(RetrainingTest, ScanDuringRetrainReturnsNoDuplicates) {
  AltOptions opts;
  opts.retrain_trigger_ratio = 0.25;
  AltIndex index(opts);
  constexpr Key kStride = 8;
  constexpr Key kBulk = 20000;
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k = 0; k < kBulk; ++k) {
    pairs.emplace_back(k * kStride, ValueFor(k * kStride));
  }
  ASSERT_TRUE(index.BulkLoad(pairs).ok());

  constexpr int kInserters = 3;
  std::atomic<bool> stop{false};
  std::atomic<bool> bad_order{false};
  std::atomic<bool> bad_value{false};
  std::atomic<Key> bad_key{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kInserters; ++t) {
    threads.emplace_back([&index, &stop, t] {
      // Thread t cycles insert-all / remove-all over keys congruent to t+1
      // (mod kStride). Every cycle re-crosses the retrain trigger, so some
      // model has an in-flight expansion (and keys migrating into its
      // temporal buffer) for most of the run — the window the scanner needs.
      while (!stop.load(std::memory_order_acquire)) {
        for (Key k = 0; k < kBulk; ++k) {
          const Key key = k * kStride + 1 + static_cast<Key>(t);
          index.Insert(key, ValueFor(key));
        }
        for (Key k = 0; k < kBulk; ++k) {
          const Key key = k * kStride + 1 + static_cast<Key>(t);
          index.Remove(key);
        }
      }
    });
  }
  std::thread scanner([&] {
    std::vector<std::pair<Key, Value>> out;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(2000);
    uint64_t round = 0;
    while (std::chrono::steady_clock::now() < deadline &&
           !bad_order.load(std::memory_order_relaxed) &&
           !bad_value.load(std::memory_order_relaxed)) {
      const Key start = (round * 977) % (kBulk * kStride);
      if ((round & 1) == 0) {
        index.Scan(start, 256, &out);
      } else {
        index.RangeQuery(start, start + 256 * kStride, &out);
      }
      for (size_t i = 0; i < out.size(); ++i) {
        if (i > 0 && out[i].first <= out[i - 1].first) {
          bad_order.store(true);
          bad_key.store(out[i].first);
        }
        if (out[i].second != ValueFor(out[i].first)) {
          bad_value.store(true);
          bad_key.store(out[i].first);
        }
      }
      ++round;
    }
    stop.store(true, std::memory_order_release);
  });
  scanner.join();
  for (auto& th : threads) th.join();

  EXPECT_FALSE(bad_order.load())
      << "scan returned a duplicate/unordered key " << bad_key.load();
  EXPECT_FALSE(bad_value.load()) << "scan returned a torn value for key "
                                 << bad_key.load();
  EXPECT_GT(index.CollectStructuralStats().retrain_started, 0u)
      << "workload never triggered an expansion; the race was not exercised";
  ExpectPlacementInvariant(index);
}

}  // namespace
}  // namespace alt
