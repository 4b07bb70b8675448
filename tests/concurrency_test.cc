#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/factory.h"
#include "common/epoch.h"
#include "common/random.h"
#include "core/alt_index.h"
#include "datasets/dataset.h"

namespace alt {
namespace {

// Multi-threaded contract tests, parameterized over every concurrent index.
// Threads own disjoint key shards, so each thread can assert read-your-writes
// without a global history; a final single-threaded sweep verifies the state.
class ConcurrentIndexTest : public ::testing::TestWithParam<std::string> {
 protected:
  void TearDown() override { EpochManager::Global().DrainAll(); }
};

constexpr int kThreads = 8;

// For ALT, the line rule's placement invariant (DESIGN.md §2.2) must hold
// once the churn stops.
void ExpectPlacementInvariant(const ConcurrentIndex& index) {
  const auto* alt = dynamic_cast<const AltIndex*>(&index);
  if (alt == nullptr) return;
  const Status st = alt->CheckPlacementInvariant();
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST_P(ConcurrentIndexTest, DisjointInsertersAllLand) {
  auto index = MakeIndex(GetParam());
  auto keys = GenerateKeys(Dataset::kOsm, 60000, 3);
  std::vector<Key> bulk(keys.begin(), keys.begin() + 20000);
  std::vector<Value> vals(bulk.size());
  for (size_t i = 0; i < bulk.size(); ++i) vals[i] = ValueFor(bulk[i]);
  ASSERT_TRUE(index->BulkLoad(bulk.data(), vals.data(), bulk.size()).ok());

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 20000 + static_cast<size_t>(t); i < keys.size();
           i += kThreads) {
        if (!index->Insert(keys[i], ValueFor(keys[i]))) failed.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_FALSE(failed.load()) << index->Name();
  EXPECT_EQ(index->Size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    Value v;
    ASSERT_TRUE(index->Lookup(keys[i], &v)) << index->Name() << " " << i;
    EXPECT_EQ(v, ValueFor(keys[i]));
  }
  ExpectPlacementInvariant(*index);
}

TEST_P(ConcurrentIndexTest, ReadersNeverSeeTornValues) {
  auto index = MakeIndex(GetParam());
  auto keys = GenerateKeys(Dataset::kLibio, 20000, 7);
  std::vector<Value> vals(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) vals[i] = keys[i] * 2;
  ASSERT_TRUE(index->BulkLoad(keys.data(), vals.data(), keys.size()).ok());

  // Updaters flip values between k*2 and k*2+100; readers must only ever see
  // one of the two legal values.
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(55 + t);
      while (!stop.load(std::memory_order_acquire)) {
        const Key k = keys[rng.NextBounded(keys.size())];
        index->Update(k, k * 2 + (rng.Next() & 1 ? 100 : 0));
      }
    });
  }
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(99 + t);
      for (int i = 0; i < 30000; ++i) {
        const Key k = keys[rng.NextBounded(keys.size())];
        Value v;
        if (!index->Lookup(k, &v)) {
          failed.store(true);
          continue;
        }
        if (v != k * 2 && v != k * 2 + 100) failed.store(true);
      }
    });
  }
  for (size_t t = 2; t < threads.size(); ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  threads[0].join();
  threads[1].join();
  EXPECT_FALSE(failed.load()) << index->Name();
  ExpectPlacementInvariant(*index);
}

TEST_P(ConcurrentIndexTest, MixedWorkloadFinalStateCorrect) {
  auto index = MakeIndex(GetParam());
  auto keys = GenerateKeys(Dataset::kFb, 40000, 13);
  // Bulk: first half. Each thread owns keys with i % kThreads == t in the
  // second half and performs insert -> update -> (maybe remove).
  const size_t half = keys.size() / 2;
  std::vector<Value> vals(half);
  for (size_t i = 0; i < half; ++i) vals[i] = ValueFor(keys[i]);
  ASSERT_TRUE(index->BulkLoad(keys.data(), vals.data(), half).ok());

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = half + static_cast<size_t>(t); i < keys.size();
           i += kThreads) {
        const Key k = keys[i];
        if (!index->Insert(k, 1)) failed.store(true);
        if (!index->Update(k, ValueFor(k))) failed.store(true);
        Value v;
        if (!index->Lookup(k, &v) || v != ValueFor(k)) failed.store(true);
        if (i % 3 == 0) {
          if (!index->Remove(k)) failed.store(true);
          if (index->Lookup(k, &v)) failed.store(true);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_FALSE(failed.load()) << index->Name();
  for (size_t i = half; i < keys.size(); ++i) {
    Value v;
    const bool expect = i % 3 != 0;
    ASSERT_EQ(index->Lookup(keys[i], &v), expect) << index->Name() << " " << i;
    if (expect) EXPECT_EQ(v, ValueFor(keys[i]));
  }
  ExpectPlacementInvariant(*index);
}

TEST_P(ConcurrentIndexTest, ScansRemainSortedUnderChurn) {
  auto index = MakeIndex(GetParam());
  auto keys = GenerateKeys(Dataset::kOsm, 30000, 21);
  const size_t half = keys.size() / 2;
  std::vector<Key> bulk;
  std::vector<Value> vals;
  for (size_t i = 0; i < keys.size(); i += 2) {
    bulk.push_back(keys[i]);
    vals.push_back(ValueFor(keys[i]));
  }
  ASSERT_TRUE(index->BulkLoad(bulk.data(), vals.data(), bulk.size()).ok());

  std::atomic<bool> failed{false};
  std::thread writer([&] {
    for (size_t i = 1; i < keys.size(); i += 2) {
      index->Insert(keys[i], ValueFor(keys[i]));
    }
  });
  std::thread scanner([&] {
    std::vector<std::pair<Key, Value>> out;
    Rng rng(31);
    for (int r = 0; r < 60; ++r) {
      const Key start = keys[rng.NextBounded(keys.size())];
      index->Scan(start, 100, &out);
      for (size_t i = 1; i < out.size(); ++i) {
        if (out[i - 1].first >= out[i].first) failed.store(true);
      }
      for (const auto& [k, v] : out) {
        if (k < start || v != ValueFor(k)) failed.store(true);
      }
    }
  });
  writer.join();
  scanner.join();
  EXPECT_FALSE(failed.load()) << index->Name();
  ExpectPlacementInvariant(*index);
  (void)half;
}

TEST_P(ConcurrentIndexTest, BatchedReadsAgainstChurn) {
  // LookupBatch linearizability under write traffic: stable keys (never
  // removed, values flipped between two legal states) must always be found
  // with a legal value; churn keys (inserted/removed in cycles, plus enough
  // volume to drive alt's expansion path) may come back either way, but a hit
  // must carry the key's one legal value — never torn, never stale-freed.
  auto index = MakeIndex(GetParam());
  auto keys = GenerateKeys(Dataset::kFb, 40000, 13);
  std::vector<Key> stable, churn;
  for (size_t i = 0; i < keys.size(); ++i) {
    (i & 1 ? churn : stable).push_back(keys[i]);
  }
  std::vector<Value> vals(stable.size());
  for (size_t i = 0; i < stable.size(); ++i) vals[i] = stable[i] * 2;
  ASSERT_TRUE(index->BulkLoad(stable.data(), vals.data(), stable.size()).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> writer_failures{0};
  std::atomic<int> stable_misses{0};
  std::atomic<int> bad_stable_values{0};
  std::atomic<int> bad_churn_values{0};
  std::vector<std::thread> threads;
  // Two writers cycle insert/remove over disjoint churn shards.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      while (!stop.load(std::memory_order_acquire)) {
        for (size_t i = static_cast<size_t>(t); i < churn.size(); i += 2) {
          if (!index->Insert(churn[i], ValueFor(churn[i]))) ++writer_failures;
        }
        for (size_t i = static_cast<size_t>(t); i < churn.size(); i += 2) {
          if (!index->Remove(churn[i])) ++writer_failures;
          if (stop.load(std::memory_order_acquire)) break;
        }
      }
    });
  }
  // One updater flips stable values between the two legal states.
  threads.emplace_back([&] {
    Rng rng(77);
    while (!stop.load(std::memory_order_acquire)) {
      const Key k = stable[rng.NextBounded(stable.size())];
      index->Update(k, k * 2 + (rng.Next() & 1 ? 100 : 0));
    }
  });
  // Four readers issue mixed batches through the batched path.
  constexpr size_t kWidth = 32;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(301 + t);
      Key batch[kWidth];
      Value out[kWidth];
      bool found[kWidth];
      for (int iter = 0; iter < 2000; ++iter) {
        for (size_t i = 0; i < kWidth; ++i) {
          batch[i] = (rng.Next() & 1) ? stable[rng.NextBounded(stable.size())]
                                      : churn[rng.NextBounded(churn.size())];
        }
        index->LookupBatch(batch, kWidth, out, found);
        for (size_t i = 0; i < kWidth; ++i) {
          const Key k = batch[i];
          const bool is_stable =
              std::binary_search(stable.begin(), stable.end(), k);
          if (is_stable) {
            if (!found[i]) {
              ++stable_misses;
            } else if (out[i] != k * 2 && out[i] != k * 2 + 100) {
              ++bad_stable_values;
            }
          } else if (found[i] && out[i] != ValueFor(k)) {
            ++bad_churn_values;
          }
        }
      }
    });
  }
  // Join readers first (they bound the test), then stop the write traffic.
  for (size_t t = 3; t < threads.size(); ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = 0; t < 3; ++t) threads[t].join();
  EXPECT_EQ(writer_failures.load(), 0) << index->Name();
  EXPECT_EQ(stable_misses.load(), 0) << index->Name();
  EXPECT_EQ(bad_stable_values.load(), 0) << index->Name();
  EXPECT_EQ(bad_churn_values.load(), 0) << index->Name();

  // Final single-threaded sweep: batch results match scalar on the quiesced
  // index.
  std::vector<Value> out(keys.size());
  std::unique_ptr<bool[]> found(new bool[keys.size()]);
  index->LookupBatch(keys.data(), keys.size(), out.data(), found.get());
  for (size_t i = 0; i < keys.size(); ++i) {
    Value v;
    const bool scalar = index->Lookup(keys[i], &v);
    ASSERT_EQ(found[i], scalar) << index->Name() << " key " << keys[i];
    if (scalar) EXPECT_EQ(out[i], v);
  }
  ExpectPlacementInvariant(*index);
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, ConcurrentIndexTest,
                         ::testing::Values("alt", "alex", "lipp", "xindex",
                                           "finedex", "art", "btree-olc", "btree"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace alt
