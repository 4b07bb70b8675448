#include <gtest/gtest.h>

#include <vector>

#include "art/art_tree.h"
#include "common/epoch.h"
#include "common/metrics.h"
#include "core/alt_index.h"
#include "core/fast_pointer_buffer.h"
#include "datasets/dataset.h"

namespace alt {
namespace {

class FastPointerTest : public ::testing::Test {
 protected:
  void TearDown() override { EpochManager::Global().DrainAll(); }
};

TEST_F(FastPointerTest, AddPointerMergesByNode) {
  art::ArtTree tree;
  FastPointerBuffer buf;
  buf.Reserve(1);
  {
    EpochGuard g;
    for (Key k = 0; k < 1000; ++k) tree.Insert(k * 97, k);
  }
  int depth = 0;
  art::Node* lca1 = tree.FindLcaNode(0, 97 * 400, &depth);
  const int32_t s1 = buf.AddPointer(lca1, depth, KeyPrefix(0, depth));
  const int32_t s2 = buf.AddPointer(lca1, depth, KeyPrefix(0, depth));
  EXPECT_EQ(s1, s2) << "same node must share one entry (merge scheme)";
  EXPECT_EQ(buf.Size(), 1u);
  EXPECT_EQ(buf.UnmergedCount(), 2u);
  EXPECT_EQ(lca1->fp_slot.load(), s1);
}

TEST_F(FastPointerTest, AddPointerPastTheReservedEntriesReturnsNone) {
  art::ArtTree tree;
  FastPointerBuffer buf;
  buf.Reserve(1);
  {
    EpochGuard g;
    for (Key k = 0; k < 1000; ++k) tree.Insert(k * 97, k);
  }
  int depth = 0;
  art::Node* lca = tree.FindLcaNode(0, 97 * 400, &depth);
  ASSERT_NE(lca, tree.root());
  EXPECT_EQ(buf.AddPointer(tree.root(), 0, 0), 0);
  EXPECT_EQ(buf.AddPointer(tree.root(), 0, 0), 0) << "merged, not a new entry";
  EXPECT_EQ(buf.AddPointer(lca, depth, KeyPrefix(0, depth)), -1);
  EXPECT_EQ(lca->fp_slot.load(), -1);
  EXPECT_EQ(buf.Size(), 1u);
}

TEST_F(FastPointerTest, TailModelsAndExpansionsStayWithinTheBulkLoadBound) {
  // One entry per bulk-loaded model plus the ART root's: expansions reuse
  // their model's entry and tail models share the root's. The buffer is sized
  // to that bound, so the index header carries no fixed entry table.
  AltOptions opts;
  opts.retrain_trigger_ratio = 0.5;
  opts.tail_model_slots = 64;
  AltIndex index(opts);
  std::vector<std::pair<Key, Value>> bulk;
  for (Key k = 0; k < 2000; ++k) bulk.emplace_back(k * 8, k);
  ASSERT_TRUE(index.BulkLoad(bulk).ok());
  const size_t bulk_models = index.directory().NumModels();
  for (Key k = 0; k < 2000; ++k) ASSERT_TRUE(index.Insert(k * 8 + 3, k));
  for (Key k = 0; k < 5000; ++k) ASSERT_TRUE(index.Insert(16000 + k * 5, k));
  const AltIndex::StructuralStats st = index.CollectStructuralStats();
  EXPECT_GT(st.retrain_finished, 0u);
  EXPECT_GT(st.num_models, bulk_models) << "no tail model appended";
  EXPECT_LE(st.fast_pointers, bulk_models + 1);
  EXPECT_LT(st.header_bytes, 4096u);
  for (Key k = 0; k < 5000; k += 7) {
    Value v = 0;
    ASSERT_TRUE(index.Lookup(16000 + k * 5, &v));
    ASSERT_EQ(v, k);
  }
}

TEST_F(FastPointerTest, GetReturnsWhatWasAdded) {
  art::ArtTree tree;
  FastPointerBuffer buf;
  buf.Reserve(1);
  const int32_t slot = buf.AddPointer(tree.root(), 0, 0);
  const auto ref = buf.Get(slot);
  EXPECT_EQ(ref.node, tree.root());
  EXPECT_EQ(ref.depth, 0);
  EXPECT_EQ(ref.prefix, 0u);
}

TEST_F(FastPointerTest, CoversValidatesPrefix) {
  FastPointerBuffer::Ref ref{nullptr, 2, 0x1122000000000000ULL};
  EXPECT_TRUE(FastPointerBuffer::Covers(ref, 0x1122334455667788ULL));
  EXPECT_TRUE(FastPointerBuffer::Covers(ref, 0x1122000000000000ULL));
  EXPECT_FALSE(FastPointerBuffer::Covers(ref, 0x1123000000000000ULL));
  FastPointerBuffer::Ref root_ref{nullptr, 0, 0};
  EXPECT_TRUE(FastPointerBuffer::Covers(root_ref, ~Key{0}));
}

TEST_F(FastPointerTest, NodeReplacedCallbackSwingsEntry) {
  // Fill one subtree until its node expands 4 -> 16; the entry must follow.
  art::ArtTree tree;
  FastPointerBuffer buf;
  buf.Reserve(1);
  tree.SetListener(&buf);
  EpochGuard g;
  const Key base = 0x4200000000000000ULL;
  // Two keys create an inner node at the divergence byte.
  tree.Insert(base | (1ull << 40), 1);
  tree.Insert(base | (2ull << 40), 2);
  int depth = 0;
  art::Node* node = tree.FindLcaNode(base | (1ull << 40), base | (2ull << 40), &depth);
  ASSERT_NE(node, tree.root());
  const int32_t slot = buf.AddPointer(node, depth, KeyPrefix(base, depth));
  // Grow the node past 4 children.
  for (uint64_t b = 3; b <= 8; ++b) tree.Insert(base | (b << 40), b);
  const auto ref = buf.Get(slot);
  ASSERT_NE(ref.node, nullptr);
  EXPECT_NE(ref.node, node) << "entry still points at the retired node";
  // The new target answers hinted lookups for all keys.
  for (uint64_t b = 1; b <= 8; ++b) {
    Value v;
    EXPECT_EQ(tree.LookupFrom(ref.node, base | (b << 40), &v),
              art::HintOutcome::kFound);
    EXPECT_EQ(v, b);
  }
}

TEST_F(FastPointerTest, PrefixSplitCallbackLiftsEntry) {
  art::ArtTree tree;
  FastPointerBuffer buf;
  buf.Reserve(1);
  tree.SetListener(&buf);
  EpochGuard g;
  // Keys sharing a 6-byte prefix create a deep node with compressed path.
  const Key base = 0x1111222233330000ULL;
  tree.Insert(base | 0x01, 1);
  tree.Insert(base | 0x02, 2);
  int depth = 0;
  art::Node* node = tree.FindLcaNode(base | 0x01, base | 0x02, &depth);
  const int32_t slot = buf.AddPointer(node, depth, KeyPrefix(base, depth));
  // Insert a key diverging inside the compressed path: prefix extraction
  // creates a new parent and the entry must lift to it.
  const Key divergent = 0x1111222200000000ULL | 0x05;
  tree.Insert(divergent, 5);
  const auto ref = buf.Get(slot);
  ASSERT_NE(ref.node, nullptr);
  // The (possibly lifted) entry must cover and find all three keys.
  for (const auto& [k, v] : std::vector<std::pair<Key, Value>>{
           {base | 0x01, 1}, {base | 0x02, 2}}) {
    Value got;
    ASSERT_TRUE(FastPointerBuffer::Covers(ref, k));
    EXPECT_EQ(tree.LookupFrom(ref.node, k, &got), art::HintOutcome::kFound);
    EXPECT_EQ(got, v);
  }
}

TEST_F(FastPointerTest, EndToEndHintedLookupsThroughAltIndex) {
  AltIndex index;
  auto keys = GenerateKeys(Dataset::kFb, 50000, 3);
  std::vector<Value> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = ValueFor(keys[i]);
  ASSERT_TRUE(index.BulkLoad(keys.data(), values.data(), keys.size()).ok());
  auto st = index.CollectStructuralStats();
  ASSERT_GT(st.art_keys, 0u) << "fb dataset must produce conflicts";
  EXPECT_GT(st.fast_pointers, 0u);
  EXPECT_GE(st.fast_pointer_adds, st.fast_pointers)
      << "merge scheme can only shrink the buffer";
  // Lookups of every key (conflicts included) succeed through the hints.
  const auto base = metrics::TakeSnapshot();
  for (size_t i = 0; i < keys.size(); ++i) {
    Value v;
    ASSERT_TRUE(index.Lookup(keys[i], &v)) << i;
    EXPECT_EQ(v, values[i]);
  }
#if !defined(ALT_METRICS_DISABLED)
  const auto delta = metrics::TakeSnapshot().DeltaSince(base);
  EXPECT_GT(delta.counter(metrics::Counter::kArtLookups), 0u);
  EXPECT_GT(delta.counter(metrics::Counter::kFastPointerHits), 0u);
#else
  (void)base;
#endif
}

TEST_F(FastPointerTest, HintShortensArtTraversals) {
  // Fig. 10(a) property: hinted secondary searches touch fewer nodes than
  // root-based ones.
  auto keys = GenerateKeys(Dataset::kLonglat, 80000, 9);
  std::vector<Value> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = ValueFor(keys[i]);

  auto run = [&](bool fast_pointers) {
    AltOptions opts;
    opts.enable_fast_pointers = fast_pointers;
    AltIndex index(opts);
    EXPECT_TRUE(index.BulkLoad(keys.data(), values.data(), keys.size()).ok());
    const auto base = metrics::TakeSnapshot();
    Value v;
    for (size_t i = 0; i < keys.size(); i += 3) index.Lookup(keys[i], &v);
    const auto delta = metrics::TakeSnapshot().DeltaSince(base);
    const uint64_t lookups = delta.counter(metrics::Counter::kArtLookups);
    return lookups > 0
               ? static_cast<double>(delta.counter(metrics::Counter::kArtLookupSteps)) /
                     static_cast<double>(lookups)
               : 0.0;
  };
#if !defined(ALT_METRICS_DISABLED)
  const double with_fp = run(true);
  const double without_fp = run(false);
  ASSERT_GT(without_fp, 0.0);
  EXPECT_LT(with_fp, without_fp)
      << "fast pointers should shorten the average ART lookup length";
#else
  // Without the metrics counters there is nothing to compare; still exercise
  // both configurations for coverage.
  run(true);
  run(false);
#endif
}

}  // namespace
}  // namespace alt
