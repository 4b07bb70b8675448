#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/factory.h"
#include "common/epoch.h"
#include "common/random.h"
#include "datasets/dataset.h"

namespace alt {
namespace {

// Every index behind the common facade must satisfy the same single-threaded
// contract; these parameterized tests run the full lineup (ALT-index, ALEX+,
// LIPP+, XIndex, FINEdex, ART, and the oracle itself).
class IndexContractTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    index_ = MakeIndex(GetParam());
    ASSERT_NE(index_, nullptr);
  }
  void TearDown() override {
    index_.reset();
    EpochManager::Global().DrainAll();
  }

  std::unique_ptr<ConcurrentIndex> index_;
};

TEST_P(IndexContractTest, BulkLoadRejectsUnsortedInput) {
  const Key keys[] = {5, 3};
  const Value vals[] = {1, 2};
  EXPECT_FALSE(index_->BulkLoad(keys, vals, 2).ok());
}

TEST_P(IndexContractTest, LoadLookupEveryDataset) {
  for (Dataset ds : PaperDatasets()) {
    auto index = MakeIndex(GetParam());
    auto keys = GenerateKeys(ds, 20000, 3);
    std::vector<Value> vals(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) vals[i] = ValueFor(keys[i]);
    ASSERT_TRUE(index->BulkLoad(keys.data(), vals.data(), keys.size()).ok());
    EXPECT_EQ(index->Size(), keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      Value v;
      ASSERT_TRUE(index->Lookup(keys[i], &v))
          << index->Name() << " lost key " << i << " on " << DatasetName(ds);
      EXPECT_EQ(v, vals[i]);
    }
    // Absent keys miss.
    Value v;
    EXPECT_FALSE(index->Lookup(keys.back() + 12345, &v));
  }
}

TEST_P(IndexContractTest, InsertLookupRemoveCycle) {
  auto keys = GenerateKeys(Dataset::kOsm, 30000, 11);
  std::vector<Key> bulk, extra;
  for (size_t i = 0; i < keys.size(); ++i) (i % 2 ? extra : bulk).push_back(keys[i]);
  std::vector<Value> bulk_vals(bulk.size());
  for (size_t i = 0; i < bulk.size(); ++i) bulk_vals[i] = ValueFor(bulk[i]);
  ASSERT_TRUE(index_->BulkLoad(bulk.data(), bulk_vals.data(), bulk.size()).ok());

  for (Key k : extra) EXPECT_TRUE(index_->Insert(k, ValueFor(k)));
  for (Key k : extra) EXPECT_FALSE(index_->Insert(k, 0)) << "duplicate accepted";
  EXPECT_EQ(index_->Size(), keys.size());

  for (size_t i = 0; i < extra.size(); i += 2) {
    EXPECT_TRUE(index_->Remove(extra[i]));
  }
  for (size_t i = 0; i < extra.size(); ++i) {
    Value v;
    EXPECT_EQ(index_->Lookup(extra[i], &v), i % 2 == 1) << index_->Name() << " " << i;
  }
  // Removed keys can be re-inserted.
  for (size_t i = 0; i < extra.size(); i += 2) {
    EXPECT_TRUE(index_->Insert(extra[i], 999));
    Value v;
    ASSERT_TRUE(index_->Lookup(extra[i], &v));
    EXPECT_EQ(v, 999u);
  }
}

TEST_P(IndexContractTest, UpdateSemantics) {
  auto keys = GenerateKeys(Dataset::kLibio, 10000, 11);
  std::vector<Value> vals(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) vals[i] = ValueFor(keys[i]);
  ASSERT_TRUE(index_->BulkLoad(keys.data(), vals.data(), keys.size()).ok());
  for (size_t i = 0; i < keys.size(); i += 3) {
    EXPECT_TRUE(index_->Update(keys[i], i));
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    Value v;
    ASSERT_TRUE(index_->Lookup(keys[i], &v));
    EXPECT_EQ(v, i % 3 == 0 ? i : vals[i]);
  }
  EXPECT_FALSE(index_->Update(keys.back() + 7777, 1));
}

TEST_P(IndexContractTest, ScanIsSortedAndComplete) {
  auto keys = GenerateKeys(Dataset::kFb, 20000, 19);
  std::vector<Value> vals(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) vals[i] = ValueFor(keys[i]);
  ASSERT_TRUE(index_->BulkLoad(keys.data(), vals.data(), keys.size()).ok());
  std::vector<std::pair<Key, Value>> out;
  Rng rng(3);
  for (int t = 0; t < 50; ++t) {
    const size_t start = rng.NextBounded(keys.size() - 300);
    const size_t n = 1 + rng.NextBounded(200);
    ASSERT_EQ(index_->Scan(keys[start], n, &out), n) << index_->Name();
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i].first, keys[start + i])
          << index_->Name() << " scan diverges at " << i;
      EXPECT_EQ(out[i].second, vals[start + i]);
    }
  }
  // Scan starting past the max key returns nothing.
  EXPECT_EQ(index_->Scan(keys.back() + 1, 10, &out), 0u);
}

TEST_P(IndexContractTest, ScanSeesFreshInserts) {
  std::vector<Key> bulk;
  for (Key k = 0; k < 2000; k += 2) bulk.push_back(k + 1000000);
  std::vector<Value> vals(bulk.size());
  for (size_t i = 0; i < bulk.size(); ++i) vals[i] = ValueFor(bulk[i]);
  ASSERT_TRUE(index_->BulkLoad(bulk.data(), vals.data(), bulk.size()).ok());
  for (Key k = 1; k < 2000; k += 2) ASSERT_TRUE(index_->Insert(k + 1000000, k));
  std::vector<std::pair<Key, Value>> out;
  ASSERT_EQ(index_->Scan(1000000, 2000, &out), 2000u) << index_->Name();
  for (size_t i = 0; i < 2000; ++i) {
    EXPECT_EQ(out[i].first, 1000000 + i) << index_->Name() << " at " << i;
  }
}

TEST_P(IndexContractTest, MemoryUsageNonTrivial) {
  auto keys = GenerateKeys(Dataset::kUniform, 10000, 3);
  std::vector<Value> vals(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) vals[i] = ValueFor(keys[i]);
  ASSERT_TRUE(index_->BulkLoad(keys.data(), vals.data(), keys.size()).ok());
  EXPECT_GT(index_->MemoryUsage(), keys.size() * sizeof(Key));
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, IndexContractTest,
                         ::testing::Values("alt", "alex", "lipp", "xindex",
                                           "finedex", "art", "btree-olc", "btree"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(FactoryTest, UnknownNameReturnsNull) {
  EXPECT_EQ(MakeIndex("no-such-index"), nullptr);
}

TEST(FactoryTest, LineupMatchesPaper) {
  const auto lineup = PaperIndexLineup();
  EXPECT_EQ(lineup.size(), 6u);
  for (const auto& name : lineup) {
    EXPECT_NE(MakeIndex(name), nullptr) << name;
  }
  EpochManager::Global().DrainAll();
}

// Oracle cross-check: replay a deterministic mixed op sequence on each index
// and on std::map; final states must agree exactly.
class OracleCrossCheckTest : public ::testing::TestWithParam<std::string> {};

TEST_P(OracleCrossCheckTest, RandomOpsMatchStdMap) {
  auto index = MakeIndex(GetParam());
  ASSERT_NE(index, nullptr);
  auto keys = GenerateKeys(Dataset::kLonglat, 8000, 27);
  std::vector<Key> bulk(keys.begin(), keys.begin() + 4000);
  std::vector<Value> vals(bulk.size());
  for (size_t i = 0; i < bulk.size(); ++i) vals[i] = ValueFor(bulk[i]);
  ASSERT_TRUE(index->BulkLoad(bulk.data(), vals.data(), bulk.size()).ok());
  std::map<Key, Value> oracle;
  for (size_t i = 0; i < bulk.size(); ++i) oracle[bulk[i]] = vals[i];

  Rng rng(123);
  for (int op = 0; op < 40000; ++op) {
    const Key k = keys[rng.NextBounded(keys.size())];
    switch (rng.NextBounded(4)) {
      case 0: {  // insert
        const bool inserted = index->Insert(k, op);
        EXPECT_EQ(inserted, oracle.emplace(k, op).second) << "op " << op;
        break;
      }
      case 1: {  // remove
        EXPECT_EQ(index->Remove(k), oracle.erase(k) > 0) << "op " << op;
        break;
      }
      case 2: {  // update
        auto it = oracle.find(k);
        const bool updated = index->Update(k, op + 1);
        EXPECT_EQ(updated, it != oracle.end()) << "op " << op;
        if (it != oracle.end()) it->second = op + 1;
        break;
      }
      default: {  // lookup
        Value v;
        const bool found = index->Lookup(k, &v);
        auto it = oracle.find(k);
        ASSERT_EQ(found, it != oracle.end()) << "op " << op;
        if (found) EXPECT_EQ(v, it->second) << "op " << op;
        break;
      }
    }
  }
  // Full-state comparison via a giant scan.
  std::vector<std::pair<Key, Value>> out;
  index->Scan(0, oracle.size() + 10, &out);
  ASSERT_EQ(out.size(), oracle.size()) << index->Name();
  size_t i = 0;
  for (const auto& [k, v] : oracle) {
    ASSERT_EQ(out[i].first, k) << "at " << i;
    EXPECT_EQ(out[i].second, v);
    ++i;
  }
  // Destroy first: XIndex's background compactor pins the epoch, and
  // DrainAll must not run while a reader is pinned.
  index.reset();
  EpochManager::Global().DrainAll();
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, OracleCrossCheckTest,
                         ::testing::Values("alt", "alex", "lipp", "xindex",
                                           "finedex", "art", "btree-olc"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace alt
