#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <thread>
#include <vector>

#include "art/art_tree.h"
#include "common/epoch.h"
#include "common/random.h"
#include "common/zipf.h"
#include "core/fast_pointer_buffer.h"
#include "datasets/dataset.h"

namespace alt {
namespace {

using art::ArtTree;
using art::HintOutcome;
using art::NodeType;

class ArtEdgeTest : public ::testing::Test {
 protected:
  void TearDown() override { EpochManager::Global().DrainAll(); }
};

// ---------------------------------------------------------------------------
// Shrinking paths: grow nodes to each fanout, then remove back down.
// ---------------------------------------------------------------------------

TEST_F(ArtEdgeTest, ShrinkNode256To48) {
  ArtTree tree;
  EpochGuard g;
  const Key base = 0x7700000000000000ULL;
  for (uint64_t b = 0; b < 200; ++b) tree.Insert(base | (b << 32), b);
  const ArtTree::Census before = tree.CollectCensus();
  ASSERT_GE(before.count(NodeType::kNode256), 2u) << "root + the grown inner node";
  // Remove down to 20 children: 256 -> 48 (and further). Only the fixed
  // Node256 root remains at that fanout.
  for (uint64_t b = 20; b < 200; ++b) EXPECT_TRUE(tree.Remove(base | (b << 32)));
  const ArtTree::Census after = tree.CollectCensus();
  EXPECT_EQ(after.count(NodeType::kNode256), 1u)
      << "only the permanent root stays a Node256";
  EXPECT_LT(after.total_bytes, before.total_bytes);
  for (uint64_t b = 0; b < 20; ++b) {
    Value v;
    ASSERT_TRUE(tree.Lookup(base | (b << 32), &v));
    EXPECT_EQ(v, b);
  }
}

TEST_F(ArtEdgeTest, ShrinkNode48To16AndNode16To4) {
  ArtTree tree;
  EpochGuard g;
  const Key base = 0x3300000000000000ULL;
  for (uint64_t b = 0; b < 40; ++b) tree.Insert(base | (b << 24), b);
  ASSERT_GE(tree.CollectCensus().count(NodeType::kNode48), 1u);
  for (uint64_t b = 2; b < 40; ++b) EXPECT_TRUE(tree.Remove(base | (b << 24)));
  EXPECT_EQ(tree.CollectCensus().count(NodeType::kNode48), 0u);
  Value v;
  EXPECT_TRUE(tree.Lookup(base | (0ull << 24), &v));
  EXPECT_TRUE(tree.Lookup(base | (1ull << 24), &v));
}

TEST_F(ArtEdgeTest, RemoveMergeConcatenatesLongPrefixes) {
  ArtTree tree;
  EpochGuard g;
  // Three keys: two share a 7-byte prefix; the third diverges at byte 2.
  const Key a = 0x1112131415161718ULL;
  const Key b = 0x1112131415161719ULL;
  const Key c = 0x11FF000000000000ULL;
  tree.Insert(a, 1);
  tree.Insert(b, 2);
  tree.Insert(c, 3);
  // Removing c merges the split node; the deep pair's path re-compresses.
  EXPECT_TRUE(tree.Remove(c));
  Value v;
  ASSERT_TRUE(tree.Lookup(a, &v));
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE(tree.Lookup(b, &v));
  EXPECT_EQ(v, 2u);
  // Removing b leaves a single leaf reachable through the merged path.
  EXPECT_TRUE(tree.Remove(b));
  ASSERT_TRUE(tree.Lookup(a, &v));
  EXPECT_EQ(v, 1u);
  EXPECT_FALSE(tree.Lookup(b, &v));
}

TEST_F(ArtEdgeTest, InsertRemoveEverythingRepeatedly) {
  ArtTree tree;
  EpochGuard g;
  auto keys = GenerateKeys(Dataset::kLognormal, 3000, 5);
  for (int round = 0; round < 4; ++round) {
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(tree.Insert(keys[i], i + round)) << round << " " << i;
    }
    EXPECT_EQ(tree.Size(), keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(tree.Remove(keys[i])) << round << " " << i;
    }
    EXPECT_EQ(tree.Size(), 0u);
    EXPECT_EQ(tree.CollectCensus().leaves, 0u);
  }
}

// ---------------------------------------------------------------------------
// Hint entry points
// ---------------------------------------------------------------------------

TEST_F(ArtEdgeTest, LookupFromObsoleteHintReportsNeedRoot) {
  ArtTree tree;
  EpochGuard g;
  const Key base = 0x4400000000000000ULL;
  // Build a Node4 and keep a pointer to it.
  tree.Insert(base | (1ull << 40), 1);
  tree.Insert(base | (2ull << 40), 2);
  int depth = 0;
  art::Node* node = tree.FindLcaNode(base | (1ull << 40), base | (2ull << 40), &depth);
  ASSERT_NE(node, tree.root());
  // Grow it past 4 children: the node is replaced and marked obsolete.
  for (uint64_t b = 3; b <= 6; ++b) tree.Insert(base | (b << 40), b);
  Value v;
  EXPECT_EQ(tree.LookupFrom(node, base | (1ull << 40), &v), HintOutcome::kNeedRoot);
  EXPECT_EQ(tree.InsertFrom(node, base | (9ull << 40), 9), HintOutcome::kNeedRoot);
}

TEST_F(ArtEdgeTest, InsertFromHintNeedsRootWhenHintMustGrow) {
  ArtTree tree;
  EpochGuard g;
  const Key base = 0x5500000000000000ULL;
  for (uint64_t b = 1; b <= 4; ++b) tree.Insert(base | (b << 40), b);
  int depth = 0;
  art::Node* node = tree.FindLcaNode(base | (1ull << 40), base | (4ull << 40), &depth);
  // Node4 is full; inserting a fifth distinct branch via the hint requires
  // growing the hint node itself, whose parent the hint path cannot know.
  const HintOutcome r = tree.InsertFrom(node, base | (5ull << 40), 5);
  EXPECT_EQ(r, HintOutcome::kNeedRoot);
  // The root-based fallback performs the growth.
  EXPECT_TRUE(tree.Insert(base | (5ull << 40), 5));
  Value v;
  ASSERT_TRUE(tree.Lookup(base | (5ull << 40), &v));
  EXPECT_EQ(v, 5u);
}

TEST_F(ArtEdgeTest, LookupFromDeepHintAfterManyMutations) {
  ArtTree tree;
  FastPointerBuffer buf;
  buf.Reserve(1);
  tree.SetListener(&buf);
  EpochGuard g;
  auto keys = GenerateKeys(Dataset::kFb, 20000, 17);
  for (size_t i = 0; i < keys.size(); i += 2) tree.Insert(keys[i], i);
  int depth = 0;
  const size_t lo_i = keys.size() / 4, hi_i = lo_i + 400;
  art::Node* lca = tree.FindLcaNode(keys[lo_i], keys[hi_i], &depth);
  const int32_t slot = buf.AddPointer(lca, depth, KeyPrefix(keys[lo_i], depth));
  // Heavy mutation inside and around the hinted range.
  for (size_t i = 1; i < keys.size(); i += 2) tree.Insert(keys[i], i);
  for (size_t i = lo_i; i < hi_i; i += 3) tree.Remove(keys[i]);
  // The (possibly relocated) entry still answers every surviving range key.
  const auto ref = buf.Get(slot);
  for (size_t i = lo_i; i <= hi_i; ++i) {
    Value v;
    const bool expect = !(i >= lo_i && i < hi_i && (i - lo_i) % 3 == 0);
    bool found;
    if (ref.node != nullptr && FastPointerBuffer::Covers(ref, keys[i])) {
      const HintOutcome r = tree.LookupFrom(ref.node, keys[i], &v);
      found = r == HintOutcome::kFound ||
              (r != HintOutcome::kFound && tree.Lookup(keys[i], &v));
    } else {
      found = tree.Lookup(keys[i], &v);
    }
    EXPECT_EQ(found, expect) << i;
  }
}

// ---------------------------------------------------------------------------
// Scans under adversarial structure
// ---------------------------------------------------------------------------

TEST_F(ArtEdgeTest, ScanOverDeepPrefixClusters) {
  ArtTree tree;
  EpochGuard g;
  // Clusters of keys sharing 6-byte prefixes, far apart.
  std::vector<Key> all;
  Rng rng(3);
  for (int c = 0; c < 50; ++c) {
    const Key base = rng.Next() & ~Key{0xFFFF};
    for (int i = 0; i < 40; ++i) all.push_back(base | static_cast<Key>(i * 7));
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  for (size_t i = 0; i < all.size(); ++i) tree.Insert(all[i], i);
  std::vector<std::pair<Key, Value>> out;
  for (size_t start = 0; start + 60 < all.size(); start += 123) {
    ASSERT_EQ(tree.Scan(all[start], 60, &out), 60u);
    for (size_t i = 0; i < 60; ++i) EXPECT_EQ(out[i].first, all[start + i]);
  }
}

TEST_F(ArtEdgeTest, RangeQueryTightWindows) {
  ArtTree tree;
  EpochGuard g;
  for (Key k = 0; k < 1000; ++k) tree.Insert(k * 1000, k);
  std::vector<std::pair<Key, Value>> out;
  EXPECT_EQ(tree.RangeQuery(5000, 5000, &out), 1u);       // exact single
  EXPECT_EQ(tree.RangeQuery(5001, 5999, &out), 0u);       // between keys
  EXPECT_EQ(tree.RangeQuery(0, 0, &out), 1u);             // smallest key
  EXPECT_EQ(tree.RangeQuery(999000, ~Key{0}, &out), 1u);  // largest key
}

// Ranged collection against a std::map oracle. The tree holds all four node
// types, compressed paths that diverge from the query bounds (subtrees wholly
// below lo or above hi), and leaves that differ only in the last byte.
TEST_F(ArtEdgeTest, RangedCollectionMatchesMapOracle) {
  ArtTree tree;
  EpochGuard g;
  std::map<Key, Value> oracle;
  Rng rng(42);
  auto add = [&](Key k) {
    if (oracle.emplace(k, k ^ 0x5A5A).second) tree.Insert(k, k ^ 0x5A5A);
  };
  // A cluster fixes the bytes of `base` above a branch position chosen up
  // to three bytes below `depth` (the skipped bytes become a compressed
  // path), then fans out there with a fanout sized for one node type. Some
  // branches nest a further cluster.
  const uint64_t kFanouts[][2] = {{2, 4}, {5, 16}, {17, 48}, {49, 256}};
  std::function<void(Key, int, int)> cluster = [&](Key base, int depth, int levels) {
    const int pos = std::min(kKeyBytes - 1, depth + static_cast<int>(rng.NextBounded(4)));
    const int shift = 8 * (kKeyBytes - 1 - pos);
    const auto& f = kFanouts[rng.NextBounded(4)];
    const uint64_t fan = f[0] + rng.NextBounded(f[1] - f[0] + 1);
    const uint64_t stride = 256 / fan;
    for (uint64_t i = 0; i < fan; ++i) {
      const Key k = (base & ~(Key{0xFF} << shift)) | (Key{i * stride} << shift);
      if (pos + 1 < kKeyBytes && levels > 0 && rng.NextBounded(6) == 0) {
        const Key low = shift == 0 ? 0 : (Key{1} << shift) - 1;
        cluster((k & ~low) | (rng.Next() & low), pos + 1, levels - 1);
      } else {
        add(k);
      }
    }
  };
  for (int c = 0; c < 24; ++c) cluster(rng.Next(), 1, 2);
  // Keys that differ only in the last byte, next to a cluster.
  const Key tail_base = oracle.begin()->first & ~Key{0xFF};
  for (Key b = 0; b < 256; b += 5) add(tail_base | b);
  // Removals merge nodes, concatenating prefixes, and shrink fanouts.
  for (auto it = oracle.begin(); it != oracle.end();) {
    if (rng.NextBounded(5) == 0) {
      ASSERT_TRUE(tree.Remove(it->first));
      it = oracle.erase(it);
    } else {
      ++it;
    }
  }
  const ArtTree::Census census = tree.CollectCensus();
  ASSERT_GT(census.count(NodeType::kNode4), 0u);
  ASSERT_GT(census.count(NodeType::kNode16), 0u);
  ASSERT_GT(census.count(NodeType::kNode48), 0u);
  ASSERT_GT(census.count(NodeType::kNode256), 1u) << "a Node256 besides the root";
  ASSERT_EQ(tree.Size(), oracle.size());

  // Bounds: leaf keys and their neighbours, the extremes, random keys, and
  // keys that leave a leaf's path at some byte (one up with the lower bytes
  // cleared, one down with them set, or one bit flipped), so whole subtrees,
  // some behind compressed prefixes, fall outside the window.
  std::vector<Key> leaves;
  for (const auto& kv : oracle) leaves.push_back(kv.first);
  auto bound = [&]() -> Key {
    const Key k = leaves[rng.NextBounded(leaves.size())];
    const int pos = 1 + static_cast<int>(rng.NextBounded(kKeyBytes - 1));
    const int shift = 8 * (kKeyBytes - 1 - pos);
    const Key low = shift == 0 ? 0 : (Key{1} << shift) - 1;
    switch (rng.NextBounded(8)) {
      case 0: return k;
      case 1: return k + 1;
      case 2: return k - 1;
      case 3: return rng.Next();
      case 4: return rng.NextBounded(2) == 0 ? 0 : ~Key{0};
      case 5: return ((k & ~low) + (Key{1} << shift)) & ~low;
      case 6: return ((k & ~low) - (Key{1} << shift)) | low;
      default: return k ^ (Key{1} << (8 * (kKeyBytes - 1) - 8 * pos));
    }
  };
  std::vector<std::pair<Key, Value>> out, expect;
  auto expect_range = [&](Key lo, Key hi, size_t max_items) {
    expect.clear();
    if (lo > hi) return;
    for (auto it = oracle.lower_bound(lo);
         it != oracle.end() && it->first <= hi && expect.size() < max_items; ++it) {
      expect.emplace_back(*it);
    }
  };
  const size_t kLimits[] = {0, 1, 7, 100, SIZE_MAX};
  for (int q = 0; q < 300; ++q) {
    Key lo = bound();
    Key hi = q % 10 == 0 ? lo : bound();  // lo == hi; otherwise either order
    if (q % 25 == 0) {
      lo = 0;
      hi = ~Key{0};
    }
    expect_range(lo, hi, SIZE_MAX);
    tree.RangeQuery(lo, hi, &out);
    ASSERT_EQ(out, expect) << std::hex << "RangeQuery " << lo << " " << hi;
    for (size_t limit : kLimits) {
      expect_range(lo, ~Key{0}, limit);
      tree.Scan(lo, limit, &out);
      ASSERT_EQ(out, expect) << std::hex << "Scan " << lo << " limit " << std::dec << limit;
      expect_range(lo, hi, limit);
      tree.RangeQuery(lo, hi, &out, limit);
      ASSERT_EQ(out, expect) << std::hex << "RangeQuery " << lo << " " << hi << " limit "
                             << std::dec << limit;
      // AppendRange keeps what `out` holds, and `limit` counts only the
      // pairs it appends.
      const std::pair<Key, Value> held{~Key{0}, 7};
      out.assign(3, held);
      ASSERT_EQ(tree.AppendRange(lo, hi, &out, limit), expect.size());
      expect.insert(expect.begin(), 3, held);
      ASSERT_EQ(out, expect) << std::hex << "AppendRange " << lo << " " << hi << " limit "
                             << std::dec << limit;
    }
  }
}

// A prefix split (insert diverging inside a compressed path) or merge
// (remove leaving one child) rewrites a node's match_level and prefix in
// place. A scanner that validated the parent and then entered the moved child
// without noticing would fold the wrong key bytes and prune whole subtrees of
// keys that are present throughout.
TEST_F(ArtEdgeTest, RangeScanRacingPrefixSplitKeepsStableKeys) {
  ArtTree tree;
  std::vector<Key> stable;
  for (Key a : {Key{0x10}, Key{0x20}}) {
    for (Key b = 0; b < 8; ++b) stable.push_back(0x0011223344551000ULL | (a << 8) | b);
  }
  std::sort(stable.begin(), stable.end());
  {
    EpochGuard g;
    for (Key k : stable) ASSERT_TRUE(tree.Insert(k, k));
  }
  // Diverges from the stable keys' shared path at byte 3, so each insert
  // splits the node holding bytes 1..5 and each remove merges it back.
  const Key racer = 0x0011229900000000ULL;
  const Key lo = 0x0011223344550000ULL;
  const Key hi = 0x00112233445FFFFFULL;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      EpochGuard g;
      tree.Insert(racer, 1);
      tree.Remove(racer);
    }
  });
  size_t range_misses = 0, scan_misses = 0, rounds = 0;
  std::vector<std::pair<Key, Value>> out;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (std::chrono::steady_clock::now() < deadline) {
    EpochGuard g;
    tree.RangeQuery(lo, hi, &out);
    if (out.size() != stable.size()) ++range_misses;
    tree.Scan(lo, stable.size(), &out);
    if (out.size() != stable.size()) {
      ++scan_misses;
    } else {
      for (size_t i = 0; i < stable.size(); ++i) {
        if (out[i].first != stable[i]) {
          ++scan_misses;
          break;
        }
      }
    }
    ++rounds;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(range_misses, 0u) << "of " << rounds << " RangeQuery calls";
  EXPECT_EQ(scan_misses, 0u) << "of " << rounds << " Scan calls";
}

// ---------------------------------------------------------------------------
// Zipf high-skew branch (theta > 1)
// ---------------------------------------------------------------------------

TEST(ZipfEdgeTest, ThetaAboveOneStillBounded) {
  Zipf z(5000, 1.3, 3);
  int top = 0;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t r = z.Next();
    ASSERT_LT(r, 5000u);
    top += (r == 0);
  }
  EXPECT_GT(top, 2000) << "theta=1.3 concentrates hard on rank 0";
}

}  // namespace
}  // namespace alt
