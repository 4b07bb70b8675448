// Structural-introspection tests (DESIGN.md §9.3): the byte decomposition of
// AltIndex::CollectStructuralStats must sum exactly to MemoryUsage(), the ART
// census must be internally consistent, the JSON reports must be
// well-formed and carry the expected fields, and the ConcurrentIndex facade's
// memory breakdown and path attribution must hold for ALT-index and baselines.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "art/art_tree.h"
#include "baselines/factory.h"
#include "common/epoch.h"
#include "common/random.h"
#include "core/alt_index.h"
#include "datasets/dataset.h"

namespace alt {
namespace {

class StructureTest : public ::testing::Test {
 protected:
  void TearDown() override { EpochManager::Global().DrainAll(); }
};

std::vector<Key> DenseKeys(size_t n, Key start = 1000, Key stride = 7) {
  std::vector<Key> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) keys.push_back(start + stride * static_cast<Key>(i));
  return keys;
}

/// Bulk-load `bulk` keys, then insert `extra` interleaved keys so the
/// conflict tree and (possibly) expansions are populated.
void Populate(AltIndex* index, size_t bulk, size_t extra) {
  const auto keys = DenseKeys(bulk);
  std::vector<Value> vals(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) vals[i] = ValueFor(keys[i]);
  ASSERT_TRUE(index->BulkLoad(keys.data(), vals.data(), keys.size()).ok());
  uint64_t seed = 99;
  for (size_t i = 0; i < extra; ++i) {
    const Key k = 1001 + 7 * (SplitMix64(seed) % (bulk * 2));
    index->Insert(k, ValueFor(k));  // duplicates just fail; fine
  }
}

TEST_F(StructureTest, ComponentBytesSumToMemoryUsage) {
  AltIndex index;
  Populate(&index, 20000, 30000);
  const AltIndex::StructuralStats st = index.CollectStructuralStats();
  EXPECT_EQ(st.total_bytes, st.header_bytes + st.directory_bytes +
                                st.model_bytes + st.expansion_bytes +
                                st.fast_pointer_bytes + st.art_bytes);
  // The acceptance bar is ±5%; the decomposition reuses MemoryUsage()'s own
  // summands, so at a quiescent point it is exact.
  EXPECT_EQ(st.total_bytes, index.MemoryUsage());
  EXPECT_GT(st.model_bytes, 0u);
  EXPECT_GT(st.num_models, 0u);
  EXPECT_EQ(st.slot_states[0] + st.slot_states[1] + st.slot_states[2] +
                st.slot_states[3],
            st.total_slots);
  EXPECT_GE(st.conflict_ratio, 0.0);
  EXPECT_LE(st.conflict_ratio, 1.0);
  size_t seg_total = 0;
  for (size_t i = 0; i < 17; ++i) seg_total += st.segment_len_hist[i];
  EXPECT_EQ(seg_total, st.num_models);
  size_t occ_total = 0;
  for (size_t i = 0; i < 10; ++i) occ_total += st.occupancy_hist[i];
  EXPECT_EQ(occ_total, st.num_models);
}

TEST_F(StructureTest, ArtCensusIsConsistent) {
  art::ArtTree tree;
  {
    EpochGuard g;
    uint64_t seed = 7;
    for (int i = 0; i < 50000; ++i) {
      tree.Insert(SplitMix64(seed), static_cast<Value>(i));
    }
  }
  const art::ArtTree::Census census = tree.CollectCensus();
  EXPECT_EQ(census.total_bytes, tree.MemoryUsage());
  EXPECT_GE(census.count(art::NodeType::kNode256), 1u) << "the root";
  size_t node_bytes = 0;
  for (int t = 0; t < 4; ++t) {
    node_bytes += census.nodes[t] * art::NodeBytes(static_cast<art::NodeType>(t));
  }
  EXPECT_EQ(node_bytes, census.node_bytes[0] + census.node_bytes[1] +
                            census.node_bytes[2] + census.node_bytes[3]);
  EXPECT_EQ(census.leaf_bytes, census.leaves * sizeof(art::Leaf));
  EXPECT_EQ(census.total_bytes, census.node_bytes[0] + census.node_bytes[1] +
                                    census.node_bytes[2] + census.node_bytes[3] +
                                    census.leaf_bytes);
  size_t depth_total = 0;
  for (int i = 0; i <= kKeyBytes; ++i) depth_total += census.depth_hist[i];
  EXPECT_EQ(depth_total, census.leaves);
  EXPECT_EQ(census.leaves, tree.Size());
}

TEST_F(StructureTest, StructureJsonIsBalancedAndComplete) {
  AltIndex index;
  Populate(&index, 5000, 5000);
  const std::string doc = index.StructureJson();
  for (const char* field :
       {"\"memory\"", "\"total_bytes\"", "\"learned_layer\"", "\"num_models\"",
        "\"segment_len_hist_log2\"", "\"occupancy_deciles\"",
        "\"conflict_ratio\"", "\"art\"", "\"node4\"", "\"leaf_depth_hist\"",
        "\"upper_model\"", "\"locate_window_max\"", "\"locate_window_mean\""}) {
    EXPECT_NE(doc.find(field), std::string::npos) << field;
  }
  int depth = 0;
  for (char c : doc) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// locate_window_max / _mean describe the windows Locate searches: the whole
// directory with the table off, the radix buckets with it on.
TEST_F(StructureTest, LocateWindowStatsDescribeTheDirectory) {
  const auto keys = GenerateKeys(Dataset::kFb, 200000);
  const std::vector<Value> vals(keys.size(), 1);
  for (const int bits : {0, 12}) {
    AltOptions o;
    o.upper_radix_bits = bits;
    AltIndex index(o);
    ASSERT_TRUE(index.BulkLoad(keys.data(), vals.data(), keys.size()).ok());
    const AltIndex::StructuralStats st = index.CollectStructuralStats();
    EXPECT_EQ(st.radix_bits, bits);
    if (bits == 0) {
      EXPECT_EQ(st.locate_window_max, st.num_models);
      EXPECT_DOUBLE_EQ(st.locate_window_mean, static_cast<double>(st.num_models));
      continue;
    }
    // Recount from the table itself: a model's window is its bucket's size.
    EpochGuard g;
    const ModelDirectory::Snapshot& snap = *index.directory().snapshot();
    size_t widest = 0;
    double sum = 0;
    for (size_t r = 0; r + 1 < snap.radix.size(); ++r) {
      const size_t c = snap.radix[r + 1] - snap.radix[r];
      widest = std::max(widest, c);
      sum += static_cast<double>(c * c);  // c models, each seeing a window of c
    }
    EXPECT_EQ(st.locate_window_max, widest);
    EXPECT_DOUBLE_EQ(st.locate_window_mean, sum / static_cast<double>(st.num_models));
    EXPECT_LT(st.locate_window_max, st.num_models);
    EXPECT_NE(index.StructureJson().find("\"locate_window_max\": " + std::to_string(widest)),
              std::string::npos);
  }
}

// The ConcurrentIndex facade contract, checked on ALT-index (monolithic and
// sharded) and on a baseline that does not attribute paths: the coarse memory
// breakdown sums to MemoryUsage(), an ALT hit is tagged with the path that
// served it, a non-attributing index leaves the caller's tag untouched, and a
// null `served` is accepted.
class FacadeContractTest : public ::testing::TestWithParam<std::string> {
 protected:
  void TearDown() override { EpochManager::Global().DrainAll(); }
};

TEST_P(FacadeContractTest, BreakdownAndPathAttribution) {
  const std::unique_ptr<ConcurrentIndex> index = MakeIndex(GetParam());
  ASSERT_NE(index, nullptr);
  const bool attributes = GetParam() != "art";
  const auto keys = DenseKeys(10000);
  std::vector<Value> vals(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) vals[i] = ValueFor(keys[i]);
  ASSERT_TRUE(index->BulkLoad(keys.data(), vals.data(), keys.size()).ok());
  for (size_t i = 0; i < 5000; ++i) {
    index->Insert(keys.back() + 3 * static_cast<Key>(i + 1), 1);
  }

  const ConcurrentIndex::MemoryBreakdown mb = index->CollectMemoryBreakdown();
  EXPECT_EQ(mb.total(), index->MemoryUsage());
  if (attributes) {
    EXPECT_GT(mb.model_bytes, 0u);
    EXPECT_GT(mb.auxiliary_bytes, 0u);
    EXPECT_EQ(mb.other_bytes, 0u);
  }

  // ALT presets kUnattributed, as the runner does, and must overwrite it; the
  // baseline gets a tag it never reports, which must survive the call.
  const ServedBy preset = attributes ? ServedBy::kUnattributed : ServedBy::kLearnedSlot;
  ServedBy by = preset;
  Value v = 0;
  EXPECT_TRUE(index->Lookup(keys[10], &v, &by));
  EXPECT_EQ(v, ValueFor(keys[10]));
  if (attributes) {
    EXPECT_NE(by, ServedBy::kUnattributed);
  } else {
    EXPECT_EQ(by, preset);
  }
  EXPECT_TRUE(index->Lookup(keys[11], &v, nullptr));
  EXPECT_EQ(v, ValueFor(keys[11]));
}

INSTANTIATE_TEST_SUITE_P(AltAndBaseline, FacadeContractTest,
                         ::testing::Values("alt", "alt-sharded2", "art"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace alt
