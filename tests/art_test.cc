#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "art/art_tree.h"
#include "common/aligned_mem.h"
#include "common/epoch.h"
#include "common/random.h"
#include "core/alt_index.h"
#include "datasets/dataset.h"

namespace alt {
namespace {

using art::ArtTree;
using art::HintOutcome;
using art::NodeType;

class ArtTest : public ::testing::Test {
 protected:
  void TearDown() override { EpochManager::Global().DrainAll(); }
};

TEST_F(ArtTest, EmptyTreeLookupMisses) {
  ArtTree tree;
  EpochGuard g;
  Value v;
  EXPECT_FALSE(tree.Lookup(123, &v));
  EXPECT_EQ(tree.Size(), 0u);
}

TEST_F(ArtTest, InsertAndLookupSingle) {
  ArtTree tree;
  EpochGuard g;
  EXPECT_TRUE(tree.Insert(42, 4200));
  Value v = 0;
  EXPECT_TRUE(tree.Lookup(42, &v));
  EXPECT_EQ(v, 4200u);
  EXPECT_EQ(tree.Size(), 1u);
}

TEST_F(ArtTest, DuplicateInsertRejected) {
  ArtTree tree;
  EpochGuard g;
  EXPECT_TRUE(tree.Insert(42, 1));
  EXPECT_FALSE(tree.Insert(42, 2));
  Value v;
  ASSERT_TRUE(tree.Lookup(42, &v));
  EXPECT_EQ(v, 1u);
}

TEST_F(ArtTest, KeyZeroAndMaxAreLegal) {
  ArtTree tree;
  EpochGuard g;
  EXPECT_TRUE(tree.Insert(0, 100));
  EXPECT_TRUE(tree.Insert(~Key{0}, 200));
  Value v;
  EXPECT_TRUE(tree.Lookup(0, &v));
  EXPECT_EQ(v, 100u);
  EXPECT_TRUE(tree.Lookup(~Key{0}, &v));
  EXPECT_EQ(v, 200u);
}

TEST_F(ArtTest, SimilarKeysForcePrefixSplits) {
  // Keys sharing long prefixes exercise leaf splits and path compression.
  ArtTree tree;
  EpochGuard g;
  std::vector<Key> keys = {0x1111111111111100ULL, 0x1111111111111101ULL,
                           0x1111111111110000ULL, 0x1111111100000000ULL,
                           0x1111000000000000ULL, 0x1111111111111110ULL};
  for (size_t i = 0; i < keys.size(); ++i) EXPECT_TRUE(tree.Insert(keys[i], i));
  for (size_t i = 0; i < keys.size(); ++i) {
    Value v;
    ASSERT_TRUE(tree.Lookup(keys[i], &v)) << std::hex << keys[i];
    EXPECT_EQ(v, i);
  }
  // Near misses must not match.
  Value v;
  EXPECT_FALSE(tree.Lookup(0x1111111111111102ULL, &v));
  EXPECT_FALSE(tree.Lookup(0x1111111111110001ULL, &v));
}

TEST_F(ArtTest, NodeGrowthThroughAllFanouts) {
  // 256 keys differing in one byte grow a node 4 -> 16 -> 48 -> 256.
  ArtTree tree;
  EpochGuard g;
  for (uint64_t b = 0; b < 256; ++b) {
    ASSERT_TRUE(tree.Insert(0xAA00000000000000ULL | (b << 32), b));
  }
  EXPECT_GE(tree.CollectCensus().count(NodeType::kNode256), 1u);
  for (uint64_t b = 0; b < 256; ++b) {
    Value v;
    ASSERT_TRUE(tree.Lookup(0xAA00000000000000ULL | (b << 32), &v));
    EXPECT_EQ(v, b);
  }
}

TEST_F(ArtTest, UpdateInPlace) {
  ArtTree tree;
  EpochGuard g;
  tree.Insert(7, 1);
  EXPECT_TRUE(tree.Update(7, 99));
  Value v;
  ASSERT_TRUE(tree.Lookup(7, &v));
  EXPECT_EQ(v, 99u);
  EXPECT_FALSE(tree.Update(8, 1));
}

TEST_F(ArtTest, RemoveBasic) {
  ArtTree tree;
  EpochGuard g;
  tree.Insert(1, 10);
  tree.Insert(2, 20);
  tree.Insert(3, 30);
  Value old = 0;
  EXPECT_TRUE(tree.Remove(2, &old));
  EXPECT_EQ(old, 20u);
  Value v;
  EXPECT_FALSE(tree.Lookup(2, &v));
  EXPECT_TRUE(tree.Lookup(1, &v));
  EXPECT_TRUE(tree.Lookup(3, &v));
  EXPECT_FALSE(tree.Remove(2));
  EXPECT_EQ(tree.Size(), 2u);
}

TEST_F(ArtTest, RemoveMergesAndShrinksNodes) {
  ArtTree tree;
  EpochGuard g;
  std::vector<Key> keys;
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) keys.push_back(rng.Next());
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (size_t i = 0; i < keys.size(); ++i) tree.Insert(keys[i], i);
  // Remove every second key, then verify the rest.
  for (size_t i = 0; i < keys.size(); i += 2) EXPECT_TRUE(tree.Remove(keys[i]));
  for (size_t i = 0; i < keys.size(); ++i) {
    Value v;
    EXPECT_EQ(tree.Lookup(keys[i], &v), i % 2 == 1) << i;
  }
  // Remove everything; tree drains to just the root.
  for (size_t i = 1; i < keys.size(); i += 2) EXPECT_TRUE(tree.Remove(keys[i]));
  EXPECT_EQ(tree.Size(), 0u);
  EXPECT_EQ(tree.CollectCensus().leaves, 0u);
}

TEST_F(ArtTest, ScanReturnsSortedRange) {
  ArtTree tree;
  EpochGuard g;
  std::vector<Key> keys = GenerateKeys(Dataset::kOsm, 5000, 77);
  for (size_t i = 0; i < keys.size(); ++i) tree.Insert(keys[i], ValueFor(keys[i]));
  std::vector<std::pair<Key, Value>> out;
  const size_t got = tree.Scan(keys[1000], 200, &out);
  ASSERT_EQ(got, 200u);
  for (size_t i = 0; i < got; ++i) {
    EXPECT_EQ(out[i].first, keys[1000 + i]);
    EXPECT_EQ(out[i].second, ValueFor(keys[1000 + i]));
  }
}

TEST_F(ArtTest, ScanPastEndTruncates) {
  ArtTree tree;
  EpochGuard g;
  for (Key k = 10; k < 20; ++k) tree.Insert(k, k);
  std::vector<std::pair<Key, Value>> out;
  EXPECT_EQ(tree.Scan(15, 100, &out), 5u);
  EXPECT_EQ(tree.Scan(100, 10, &out), 0u);
}

TEST_F(ArtTest, RangeQueryInclusive) {
  ArtTree tree;
  EpochGuard g;
  for (Key k = 0; k < 100; ++k) tree.Insert(k * 10, k);
  std::vector<std::pair<Key, Value>> out;
  EXPECT_EQ(tree.RangeQuery(100, 200, &out), 11u);
  EXPECT_EQ(out.front().first, 100u);
  EXPECT_EQ(out.back().first, 200u);
}

TEST_F(ArtTest, FindLcaCoversRange) {
  ArtTree tree;
  EpochGuard g;
  std::vector<Key> keys = GenerateKeys(Dataset::kFb, 20000, 3);
  for (size_t i = 0; i < keys.size(); ++i) tree.Insert(keys[i], i);
  Rng rng(9);
  for (int t = 0; t < 200; ++t) {
    const size_t a = rng.NextBounded(keys.size());
    const size_t b = std::min(a + 1 + rng.NextBounded(50), keys.size() - 1);
    int depth = 0;
    art::Node* lca = tree.FindLcaNode(keys[a], keys[b], &depth);
    ASSERT_NE(lca, nullptr);
    EXPECT_EQ(depth, lca->match_level.load());
    // Every key in [a, b] must be findable from the LCA.
    for (size_t i = a; i <= b; i += std::max<size_t>(1, (b - a) / 5)) {
      Value v;
      EXPECT_EQ(tree.LookupFrom(lca, keys[i], &v), HintOutcome::kFound);
      EXPECT_EQ(v, i);
    }
  }
}

TEST_F(ArtTest, LookupFromRootEqualsLookup) {
  ArtTree tree;
  EpochGuard g;
  for (Key k = 1; k <= 1000; ++k) tree.Insert(k * 7919, k);
  for (Key k = 1; k <= 1000; ++k) {
    Value v;
    EXPECT_EQ(tree.LookupFrom(tree.root(), k * 7919, &v), HintOutcome::kFound);
    EXPECT_EQ(v, k);
  }
  Value v;
  EXPECT_EQ(tree.LookupFrom(tree.root(), 13, &v), HintOutcome::kNotFound);
}

TEST_F(ArtTest, InsertFromHintSubtree) {
  ArtTree tree;
  EpochGuard g;
  // Build a subtree under a shared 4-byte prefix.
  const Key base = 0xDEADBEEF00000000ULL;
  for (uint64_t i = 0; i < 1000; ++i) tree.Insert(base | (i * 3), i);
  int depth = 0;
  art::Node* lca = tree.FindLcaNode(base, base | 0xFFFFFFFF, &depth);
  ASSERT_NE(lca, nullptr);
  // Insert new keys through the hint.
  int need_root = 0;
  for (uint64_t i = 0; i < 1000; ++i) {
    const Key k = base | (i * 3 + 1);
    const HintOutcome r = tree.InsertFrom(lca, k, i + 5000);
    if (r == HintOutcome::kNeedRoot) {
      ++need_root;
      EXPECT_TRUE(tree.Insert(k, i + 5000));
    } else {
      EXPECT_EQ(r, HintOutcome::kInserted);
    }
  }
  for (uint64_t i = 0; i < 1000; ++i) {
    Value v;
    ASSERT_TRUE(tree.Lookup(base | (i * 3 + 1), &v)) << i;
    EXPECT_EQ(v, i + 5000);
  }
  // Duplicate through hint reports kExists.
  EXPECT_EQ(tree.InsertFrom(lca, base | 1, 0), HintOutcome::kExists);
}

TEST_F(ArtTest, MatchLevelConsistentAfterMutations) {
  ArtTree tree;
  EpochGuard g;
  std::vector<Key> keys = GenerateKeys(Dataset::kLonglat, 20000, 21);
  for (size_t i = 0; i < keys.size(); ++i) tree.Insert(keys[i], i);
  for (size_t i = 0; i < keys.size(); i += 3) tree.Remove(keys[i]);
  // The root always sits at depth 0 with no compressed path.
  EXPECT_EQ(tree.root()->match_level.load(), 0);
  EXPECT_EQ(tree.root()->prefix_len.load(), 0);
  // Sampled check via FindLcaNode on random ranges: the reported depth must
  // equal the node's own match_level after all the splits/merges above.
  Rng rng(3);
  for (int t = 0; t < 100; ++t) {
    const size_t a = rng.NextBounded(keys.size() - 2);
    int depth = 0;
    art::Node* lca = tree.FindLcaNode(keys[a], keys[a + 1], &depth);
    EXPECT_EQ(lca->match_level.load(), depth);
    EXPECT_LE(depth, 7);
  }
}

TEST_F(ArtTest, CensusCountsEverything) {
  ArtTree tree;
  EpochGuard g;
  auto keys = GenerateKeys(Dataset::kUniform, 10000, 31);
  for (size_t i = 0; i < keys.size(); ++i) tree.Insert(keys[i], i);
  const ArtTree::Census census = tree.CollectCensus();
  EXPECT_EQ(census.leaves, keys.size());
  EXPECT_GT(census.total_bytes, keys.size() * sizeof(art::Leaf));
  EXPECT_GT(census.nodes[0] + census.nodes[1] + census.nodes[2] + census.nodes[3], 0u);
  EXPECT_LE(census.height, 9u);
  EXPECT_EQ(tree.MemoryUsage(), census.total_bytes);
}

// BuildSorted in `parts` against one-by-one Inserts in shuffled order: an
// insert-only ART's shape depends only on its key set, so both trees must
// have the same census, the same contents and the same fast-pointer targets.
// The counting pass must size the build's region exactly.
void ExpectSortedBuildMatchesInserts(std::vector<Key> keys, size_t parts = 1) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<Value> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = keys[i] ^ 0x5A5A;

  ArtTree built;
  built.BuildSorted(keys.data(), values.data(), keys.size(), parts);
  ArtTree inserted;
  EpochGuard g;
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(keys.size());
  for (size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.NextBounded(i)]);
  for (const size_t i : order) ASSERT_TRUE(inserted.Insert(keys[i], values[i]));

  EXPECT_EQ(built.Size(), keys.size());
  const ArtTree::Census a = built.CollectCensus();
  const ArtTree::Census b = inserted.CollectCensus();
  for (size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(a.nodes[t], b.nodes[t]) << "node type " << t;
    EXPECT_EQ(a.node_bytes[t], b.node_bytes[t]) << "node type " << t;
  }
  EXPECT_EQ(a.leaves, b.leaves);
  for (size_t d = 0; d <= kKeyBytes; ++d) EXPECT_EQ(a.depth_hist[d], b.depth_hist[d]) << d;
  EXPECT_EQ(a.height, b.height);
  EXPECT_EQ(a.compressed_nodes, b.compressed_nodes);
  EXPECT_EQ(a.prefix_bytes, b.prefix_bytes);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_GT(a.region_bytes, 0u);
  EXPECT_EQ(a.region_live_bytes, a.region_bytes);
  EXPECT_EQ(b.region_bytes, 0u);

  std::vector<std::pair<Key, Value>> from_built;
  std::vector<std::pair<Key, Value>> from_inserted;
  built.RangeQuery(0, ~Key{0}, &from_built);
  inserted.RangeQuery(0, ~Key{0}, &from_inserted);
  EXPECT_EQ(from_built, from_inserted);
  ASSERT_EQ(from_built.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    Value v = 0;
    ASSERT_TRUE(built.Lookup(keys[i], &v)) << keys[i];
    EXPECT_EQ(v, values[i]);
  }

  // The node BulkLoad points a model at, for ranges between neighbouring
  // keys and wider ones.
  for (size_t i = 0; i < keys.size(); i += std::max<size_t>(1, keys.size() / 500)) {
    for (const size_t span : {size_t{0}, size_t{1}, size_t{7}, size_t{100}}) {
      const Key lo = keys[i];
      const Key hi = keys[std::min(i + span, keys.size() - 1)];
      int da = -1;
      int db = -1;
      const art::Node* na = built.FindLcaNode(lo, hi, &da);
      const art::Node* nb = inserted.FindLcaNode(lo, hi, &db);
      ASSERT_EQ(da, db) << lo << ".." << hi;
      EXPECT_EQ(na->type, nb->type);
      EXPECT_EQ(na->prefix_len.load(), nb->prefix_len.load());
      EXPECT_EQ(na->num_children.load(), nb->num_children.load());
    }
  }
}

TEST_F(ArtTest, SortedBuildMatchesOneByOneInserts) {
  {
    SCOPED_TRACE("osm conflicts");
    EpochManager epoch("art-test");
    AltOptions opts;
    opts.epoch_manager = &epoch;
    AltIndex index(opts);
    const std::vector<Key> keys = GenerateKeys(Dataset::kOsm, 200000, 5);
    std::vector<Value> values(keys.size(), 1);
    ASSERT_TRUE(index.BulkLoad(keys.data(), values.data(), keys.size()).ok());
    std::vector<std::pair<Key, Value>> conflicts;
    {
      EpochGuard g(epoch);
      index.art().RangeQuery(0, ~Key{0}, &conflicts);
    }
    ASSERT_GT(conflicts.size(), 1000u);
    std::vector<Key> art_keys;
    for (const auto& kv : conflicts) art_keys.push_back(kv.first);
    ExpectSortedBuildMatchesInserts(art_keys);
  }
  {
    SCOPED_TRACE("dense runs");
    std::vector<Key> keys;
    for (Key k = 1000; k < 3000; ++k) keys.push_back(k);                // full Node256s
    for (Key k = 0; k < 40; ++k) keys.push_back((Key{1} << 40) + k);  // a Node48
    for (Key k = 0; k < 10; ++k) keys.push_back((Key{7} << 56) + k * 256);  // a Node16
    ExpectSortedBuildMatchesInserts(keys);
  }
  {
    SCOPED_TRACE("long shared prefixes");
    std::vector<Key> keys;
    const Key base = 0xABCDEF0123450000ull;
    for (Key k = 0; k < 3; ++k) keys.push_back(base + k);          // differ in byte 7
    for (Key k = 1; k < 4; ++k) keys.push_back(base + (k << 8));   // byte 6
    for (Key k = 1; k < 3; ++k) keys.push_back(base + (k << 24));  // byte 4
    keys.push_back(0xABCDEF0000000000ull);
    keys.push_back(0xAB00000000000001ull);
    ExpectSortedBuildMatchesInserts(keys);
  }
  {
    SCOPED_TRACE("one key");
    ExpectSortedBuildMatchesInserts({0x0102030405060708ull});
  }
  {
    SCOPED_TRACE("~Key{0}");
    ExpectSortedBuildMatchesInserts({~Key{0}});
    ExpectSortedBuildMatchesInserts({0, 1, ~Key{0} - 1, ~Key{0}});
  }
}

// The loader splits the keys into runs that up to `parts` threads build;
// the tree must not depend on the split.
TEST_F(ArtTest, SortedBuildInPartsMatchesOneByOneInserts) {
  std::vector<std::pair<std::string, std::vector<Key>>> sets;
  sets.emplace_back("osm", GenerateKeys(Dataset::kOsm, 40000, 8));
  sets.emplace_back("fb", GenerateKeys(Dataset::kFb, 40000, 9));
  std::vector<Key> shared;  // one root child holds every key
  Rng rng(10);
  for (int i = 0; i < 20000; ++i) shared.push_back(0x0102030405060000ull | (rng.Next() & 0xFFFF));
  sets.emplace_back("shared top 6 bytes", shared);
  sets.emplace_back("fewer keys than parts", std::vector<Key>{7, Key{1} << 40, ~Key{0}});
  sets.emplace_back("one key", std::vector<Key>{0x0102030405060708ull});
  for (const auto& [name, keys] : sets) {
    for (size_t parts = 1; parts <= 4; ++parts) {
      SCOPED_TRACE(name + ", " + std::to_string(parts) + " parts");
      ExpectSortedBuildMatchesInserts(keys, parts);
    }
  }
}

// Region nodes and leaves that later writes replace or remove are never
// freed; under ASan they are retired to be poisoned, and the tree may die
// while some still wait in the epoch manager. Inserts next to region leaves
// split them, grow region nodes and split their compressed paths; removes
// take region leaves, which shrinks and merges region nodes; lookups and
// scans race both.
TEST_F(ArtTest, RetiredRegionNodesOutliveTheTree) {
  EpochManager epoch("art-region");
  const std::vector<Key> keys = GenerateKeys(Dataset::kOsm, 40000, 12);
  auto tree = std::make_unique<ArtTree>(&epoch);
  std::vector<Key> built;
  std::vector<Value> values;
  for (size_t i = 0; i < keys.size(); i += 2) {
    built.push_back(keys[i]);
    values.push_back(i);
  }
  tree->BuildSorted(built.data(), values.data(), built.size(), 4);
  const size_t region_bytes = tree->RegionBytes();
  ASSERT_GT(region_bytes, 0u);

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  // Odd keys go in, multiples of 4 (built) come out, and the other built
  // keys (i % 4 == 2) must stay visible to lookups and scans throughout.
  threads.emplace_back([&] {
    for (size_t i = 1; i < keys.size(); i += 2) {
      EpochGuard g(epoch);
      if (!tree->Insert(keys[i], i)) failed.store(true);
    }
  });
  threads.emplace_back([&] {
    for (size_t i = 0; i < keys.size(); i += 4) {
      EpochGuard g(epoch);
      if (!tree->Remove(keys[i])) failed.store(true);
    }
  });
  threads.emplace_back([&] {
    for (size_t i = 2; i < keys.size(); i += 4) {
      EpochGuard g(epoch);
      Value v = 0;
      if (!tree->Lookup(keys[i], &v) || v != i) failed.store(true);
    }
  });
  threads.emplace_back([&] {
    std::vector<std::pair<Key, Value>> out;
    for (size_t i = 2; i < keys.size(); i += 4 * 97) {
      EpochGuard g(epoch);
      tree->RangeQuery(keys[i], keys[std::min(i + 400, keys.size() - 2)], &out);
      size_t stable = 0;
      for (size_t k = 0; k < out.size(); ++k) {
        if (k > 0 && out[k - 1].first >= out[k].first) failed.store(true);
      }
      for (size_t j = i; j <= std::min(i + 400, keys.size() - 2); j += 4) ++stable;
      size_t seen = 0;
      for (const auto& kv : out) seen += kv.second % 4 == 2 ? 1 : 0;
      if (seen != stable) failed.store(true);
    }
  });
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());

  {
    EpochGuard g(epoch);
    for (size_t i = 0; i < keys.size(); ++i) {
      Value v = 0;
      ASSERT_EQ(tree->Lookup(keys[i], &v), i % 4 != 0) << i;
    }
    // A few more region leaves go, fewer than the manager collects at once,
    // so their entries are still pending when the tree is destroyed.
    for (size_t i = 2; i < 2 + 4 * 8; i += 4) ASSERT_TRUE(tree->Remove(keys[i]));
  }
  const ArtTree::Census census = tree->CollectCensus();
  EXPECT_EQ(census.region_bytes, region_bytes);
  EXPECT_LT(census.region_live_bytes, region_bytes);
  EXPECT_EQ(census.leaves, tree->Size());
  if (kAsanBuild) {
    EXPECT_GT(epoch.PendingCount(), 0u);
  }
  tree.reset();
  epoch.DrainAll();  // region deleters run after the tree is gone
  EXPECT_EQ(epoch.PendingCount(), 0u);
}

TEST_F(ArtTest, SortedBuildOfNothingLeavesAnEmptyTree) {
  ArtTree tree;
  tree.BuildSorted(nullptr, nullptr, 0, 4);
  EpochGuard g;
  EXPECT_EQ(tree.Size(), 0u);
  EXPECT_EQ(tree.RegionBytes(), 0u);
  Value v = 0;
  EXPECT_FALSE(tree.Lookup(0, &v));
  EXPECT_TRUE(tree.Insert(5, 6));
}

// ---------------------------------------------------------------------------
// Concurrency
// ---------------------------------------------------------------------------

TEST_F(ArtTest, ConcurrentDisjointInserts) {
  ArtTree tree;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tree, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kPerThread; ++i) {
        EpochGuard g;
        const Key k = (static_cast<Key>(t) << 56) | (rng.Next() >> 8);
        tree.Insert(k, static_cast<Value>(t));
      }
    });
  }
  for (auto& th : threads) th.join();
  EpochGuard g;
  EXPECT_EQ(tree.CollectCensus().leaves, tree.Size());
}

TEST_F(ArtTest, ConcurrentMixedReadWriteRemove) {
  ArtTree tree;
  std::vector<Key> keys = GenerateKeys(Dataset::kOsm, 40000, 55);
  {
    EpochGuard g;
    for (size_t i = 0; i < keys.size(); i += 2) tree.Insert(keys[i], i);
  }
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  // Writers insert the odd keys; removers delete multiples of 6 (even);
  // readers hammer lookups of keys nobody is touching (i % 6 in {2, 4}).
  threads.emplace_back([&] {
    EpochGuard g;
    for (size_t i = 1; i < keys.size(); i += 2) {
      if (!tree.Insert(keys[i], i)) failed.store(true);
    }
  });
  threads.emplace_back([&] {
    EpochGuard g;
    for (size_t i = 0; i < keys.size(); i += 6) {
      if (!tree.Remove(keys[i])) failed.store(true);
    }
  });
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      EpochGuard g;
      for (size_t i = 2 + 2 * static_cast<size_t>(r); i < keys.size(); i += 6) {
        Value v;
        if (!tree.Lookup(keys[i], &v) || v != i) failed.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  // Final state: odd keys present, multiples of 6 absent, rest present.
  EpochGuard g;
  for (size_t i = 0; i < keys.size(); ++i) {
    Value v;
    const bool expect_present = (i % 2 == 1) || (i % 6 != 0);
    EXPECT_EQ(tree.Lookup(keys[i], &v), expect_present) << i;
  }
}

// Update and hinted lookups (the two ART reads ALT-index's point ops make)
// racing every structure modification: a churn thread inserts and removes
// keys that grow and shrink the node above the stable keys, split and merge
// compressed paths above and below them, and split and merge their leaves.
TEST_F(ArtTest, ConcurrentUpdatesAndHintedLookupsUnderChurn) {
  constexpr int kGroups = 4;
  constexpr int kUpdaters = 2;
  constexpr int kReaders = 2;
  constexpr int kChurnRounds = 100;
  // Group g's keys share bytes [g+1, AB, CD]; the stable keys branch at byte
  // 3 (EE or EF) into a node branching at byte 4 on multiples of 32.
  auto key_of = [](int g, uint8_t b2, uint8_t b3, uint8_t b4, uint8_t b6, uint8_t b7) {
    return (Key{static_cast<uint8_t>(g + 1)} << 56) | (Key{0xAB} << 48) |
           (Key{b2} << 40) | (Key{b3} << 32) | (Key{b4} << 24) | (Key{b6} << 8) |
           Key{b7};
  };
  std::vector<Key> stable;
  std::vector<Key> churn;
  for (int g = 0; g < kGroups; ++g) {
    // Prefix splits above the group node: its path [AB CD] diverges at CD.
    churn.push_back(key_of(g, 0x30, 0, 0, 0, 0));
    churn.push_back(key_of(g, 0x40, 0, 0, 0, 0));
    // Extra children of the group node; it stays a Node4 with >= 2 children,
    // so it is never replaced and its hint never goes stale.
    churn.push_back(key_of(g, 0xCD, 0x10, 0, 0, 0));
    churn.push_back(key_of(g, 0xCD, 0x20, 0, 0, 0));
    for (const uint8_t b3 : {uint8_t{0xEE}, uint8_t{0xEF}}) {
      for (int i = 0; i < 8; ++i) {
        const auto b4 = static_cast<uint8_t>(32 * i);
        stable.push_back(key_of(g, 0xCD, b3, b4, 0, 0));
        // Grows the byte-4 node to Node256; removal shrinks it back.
        for (int k = 1; k <= 6; ++k) {
          churn.push_back(key_of(g, 0xCD, b3, static_cast<uint8_t>(b4 + k), 0, 0));
        }
        // A leaf split of the stable leaf, then a prefix split of that Node4.
        churn.push_back(key_of(g, 0xCD, b3, b4, 0, 1));
        churn.push_back(key_of(g, 0xCD, b3, b4, 1, 0));
      }
    }
  }
  auto encode = [](size_t idx, uint32_t round) { return (Value{idx} << 32) | round; };

  ArtTree tree;
  std::vector<art::Node*> hints(kGroups);
  {
    EpochGuard g;
    for (size_t i = 0; i < stable.size(); ++i) {
      ASSERT_TRUE(tree.Insert(stable[i], encode(i, 0)));
    }
    const size_t per_group = stable.size() / kGroups;
    for (int grp = 0; grp < kGroups; ++grp) {
      int depth = 0;
      hints[grp] = tree.FindLcaNode(stable[grp * per_group],
                                    stable[(grp + 1) * per_group - 1], &depth);
      ASSERT_NE(hints[grp], tree.root());
    }
  }
  auto group_of = [](Key k) { return static_cast<int>(k >> 56) - 1; };

  std::atomic<bool> churn_done{false};
  std::atomic<bool> failed{false};
  std::vector<uint32_t> last_round(kUpdaters, 0);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int r = 0; r < kChurnRounds; ++r) {
      EpochGuard g;
      // Alternate the orders so merges see both leaf and inner-node siblings.
      const bool fwd = (r % 2) == 0;
      for (size_t i = 0; i < churn.size(); ++i) {
        const Key k = churn[fwd ? i : churn.size() - 1 - i];
        if (!tree.Insert(k, k)) failed.store(true);
      }
      for (size_t i = 0; i < churn.size(); ++i) {
        const Key k = churn[fwd ? churn.size() - 1 - i : i];
        if (!tree.Remove(k)) failed.store(true);
      }
    }
    churn_done.store(true);
  });
  for (int t = 0; t < kUpdaters; ++t) {
    threads.emplace_back([&, t] {
      uint32_t round = 0;
      while (!churn_done.load()) {
        ++round;
        EpochGuard g;
        for (size_t i = static_cast<size_t>(t); i < stable.size(); i += kUpdaters) {
          if (!tree.Update(stable[i], encode(i, round))) failed.store(true);
        }
      }
      last_round[t] = round;
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      // Each key has one writer, so one reader's successive reads of it can
      // never go back to an older round.
      std::vector<uint32_t> seen(stable.size(), 0);
      while (!churn_done.load()) {
        EpochGuard g;
        for (size_t i = 0; i < stable.size(); ++i) {
          Value v = 0;
          const Key k = stable[i];
          const HintOutcome o = tree.LookupFrom(hints[group_of(k)], k, &v);
          if (o != HintOutcome::kFound && !tree.Lookup(k, &v)) {
            failed.store(true);
            continue;
          }
          const auto round = static_cast<uint32_t>(v);
          if ((v >> 32) != i || round < seen[i]) failed.store(true);
          seen[i] = round;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());

  EpochGuard g;
  EXPECT_EQ(tree.Size(), stable.size());
  for (size_t i = 0; i < stable.size(); ++i) {
    Value v = 0;
    ASSERT_TRUE(tree.Lookup(stable[i], &v)) << i;
    EXPECT_EQ(v, encode(i, last_round[i % kUpdaters])) << i;
  }
}

TEST_F(ArtTest, ConcurrentScansDuringInserts) {
  ArtTree tree;
  std::vector<Key> keys = GenerateKeys(Dataset::kLibio, 20000, 66);
  {
    EpochGuard g;
    for (size_t i = 0; i < keys.size(); i += 2) tree.Insert(keys[i], i);
  }
  std::atomic<bool> failed{false};
  std::thread writer([&] {
    EpochGuard g;
    for (size_t i = 1; i < keys.size(); i += 2) tree.Insert(keys[i], i);
  });
  std::thread scanner([&] {
    EpochGuard g;
    std::vector<std::pair<Key, Value>> out;
    for (int r = 0; r < 50; ++r) {
      tree.Scan(keys[r * 100], 100, &out);
      for (size_t i = 1; i < out.size(); ++i) {
        if (out[i - 1].first >= out[i].first) failed.store(true);
      }
    }
  });
  writer.join();
  scanner.join();
  EXPECT_FALSE(failed.load());
}

// In ALT_SANITIZE=address builds a region leaf is poisoned once its grace
// period is over, as a freed heap leaf would be.
TEST(ArtRegionDeathTest, ReadingARetiredRegionLeafIsCaught) {
  if (!kAsanBuild) GTEST_SKIP() << "needs an ALT_SANITIZE=address build";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EpochManager epoch("art-region");
  ArtTree tree(&epoch);
  const Key keys[] = {1, 2, 3, 1000};
  const Value values[] = {10, 20, 30, 40};
  tree.BuildSorted(keys, values, 4, 2);
  const art::Leaf* leaf = nullptr;
  {
    EpochGuard g(epoch);
    ArtTree::DescentState ds;
    ASSERT_TRUE(tree.DescentInit(tree.root(), &ds));
    art::StepResult r;
    while ((r = tree.DescentStep(&ds, 1000, nullptr)) == art::StepResult::kStepped) {
    }
    ASSERT_EQ(r, art::StepResult::kFound);
    leaf = ds.leaf;
    ASSERT_TRUE(tree.Remove(1000));
  }
  EXPECT_EQ(leaf->key, 1000u);  // retired, but still in its grace period
  epoch.DrainAll();
  EXPECT_DEATH((void)*static_cast<const volatile Key*>(&leaf->key), "use-after-poison");
}

}  // namespace
}  // namespace alt
