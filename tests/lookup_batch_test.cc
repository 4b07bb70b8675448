#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/epoch.h"
#include "common/metrics.h"
#include "common/random.h"
#include "core/alt_index.h"
#include "datasets/dataset.h"

namespace alt {
namespace {

// Result equivalence harness: every LookupBatch result must match what the
// scalar Lookup returns on the same (quiescent) index.
void ExpectBatchMatchesScalar(const AltIndex& index, const std::vector<Key>& queries) {
  std::vector<Value> out(queries.size(), 0);
  std::vector<bool> expected_found(queries.size());
  std::vector<Value> expected_val(queries.size(), 0);
  for (size_t i = 0; i < queries.size(); ++i) {
    Value v = 0;
    expected_found[i] = index.Lookup(queries[i], &v);
    expected_val[i] = v;
  }
  std::unique_ptr<bool[]> found(new bool[queries.size()]);
  const size_t hits = index.LookupBatch(queries.data(), queries.size(), out.data(),
                                        found.get());
  size_t expected_hits = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(found[i], expected_found[i]) << "key " << queries[i] << " at " << i;
    if (expected_found[i]) {
      EXPECT_EQ(out[i], expected_val[i]) << "key " << queries[i] << " at " << i;
      ++expected_hits;
    }
  }
  EXPECT_EQ(hits, expected_hits);
}

class LookupBatchTest : public ::testing::Test {
 protected:
  void TearDown() override { EpochManager::Global().DrainAll(); }
};

TEST_F(LookupBatchTest, EmptyBatchIsANoop) {
  AltIndex index;
  std::vector<Key> keys = {10, 20, 30};
  std::vector<Value> vals = {1, 2, 3};
  ASSERT_TRUE(index.BulkLoad(keys.data(), vals.data(), keys.size()).ok());
  EXPECT_EQ(index.LookupBatch(nullptr, 0, nullptr, nullptr), 0u);
}

TEST_F(LookupBatchTest, MixedHitMissArtResidentTombstone) {
  // kOsm keys give real prediction conflicts, so ART-OPT is populated.
  AltIndex index;
  auto keys = GenerateKeys(Dataset::kOsm, 50000, 11);
  const size_t half = keys.size() / 2;
  std::vector<Value> vals(half);
  for (size_t i = 0; i < half; ++i) vals[i] = ValueFor(keys[i]);
  ASSERT_TRUE(index.BulkLoad(keys.data(), vals.data(), half).ok());

  // Runtime inserts: conflicts land in ART, some keys trigger write-backs.
  for (size_t i = half; i < keys.size(); i += 2) {
    ASSERT_TRUE(index.Insert(keys[i], ValueFor(keys[i])));
  }
  // Tombstones: remove a slice of the bulk-loaded keys in place.
  for (size_t i = 0; i < half; i += 7) {
    ASSERT_TRUE(index.Remove(keys[i]));
  }
  EXPECT_GT(index.art().Size(), 0u) << "test needs ART-resident keys";

  // Query mix: live learned-layer keys, ART residents, tombstoned keys,
  // never-inserted keys (the odd second-half ranks), out-of-range keys,
  // and duplicates within one batch.
  std::vector<Key> queries;
  Rng rng(123);
  for (int i = 0; i < 4000; ++i) {
    queries.push_back(keys[rng.NextBounded(keys.size())]);
  }
  for (int i = 0; i < 500; ++i) {
    queries.push_back(keys[rng.NextBounded(keys.size())] + 1);  // likely absent
  }
  queries.push_back(0);
  queries.push_back(~Key{0});
  queries.push_back(queries.front());  // duplicate
  ExpectBatchMatchesScalar(index, queries);
}

TEST_F(LookupBatchTest, AllCallWidthsAgree) {
  // LookupBatch keeps 16 lookups in flight: calls below, at and past that
  // width cover partial groups and groups refilled as cursors retire.
  auto keys = GenerateKeys(Dataset::kFb, 20000, 5);
  std::vector<Value> vals(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) vals[i] = ValueFor(keys[i]);
  AltIndex index;
  ASSERT_TRUE(index.BulkLoad(keys.data(), vals.data(), keys.size()).ok());
  for (const size_t width : {1u, 2u, 5u, 16u, 17u, 64u, 1000u}) {
    std::vector<Key> queries;
    Rng rng(width);
    for (size_t i = 0; i < width; ++i) {
      const Key k = keys[rng.NextBounded(keys.size())];
      queries.push_back((i % 3 == 0) ? k + 1 : k);
    }
    ExpectBatchMatchesScalar(index, queries);
  }
}

TEST_F(LookupBatchTest, WithoutFastPointers) {
  AltOptions opts;
  opts.enable_fast_pointers = false;
  AltIndex index(opts);
  auto keys = GenerateKeys(Dataset::kOsm, 30000, 17);
  const size_t half = keys.size() / 2;
  std::vector<Value> vals(half);
  for (size_t i = 0; i < half; ++i) vals[i] = ValueFor(keys[i]);
  ASSERT_TRUE(index.BulkLoad(keys.data(), vals.data(), half).ok());
  for (size_t i = half; i < keys.size(); ++i) {
    ASSERT_TRUE(index.Insert(keys[i], ValueFor(keys[i])));
  }
  std::vector<Key> queries(keys.begin(), keys.begin() + 3000);
  ExpectBatchMatchesScalar(index, queries);
}

TEST_F(LookupBatchTest, DuringInstalledExpansion) {
  // Drive a §III-F expansion and query while the temporal buffer is live but
  // unfinished (expansion installed, strict_empty suspended): the batch path
  // must take its scalar fallback and still agree with Lookup.
  AltOptions opts;
  opts.retrain_trigger_ratio = 0.05;
  AltIndex index(opts);
  std::vector<Key> bulk;
  std::vector<Value> vals;
  for (Key k = 1000; k < 2000; ++k) {
    bulk.push_back(k * 10);
    vals.push_back(ValueFor(k * 10));
  }
  ASSERT_TRUE(index.BulkLoad(bulk.data(), vals.data(), bulk.size()).ok());

  std::vector<Key> inserted;
  std::vector<Key> queries = bulk;
  bool saw_expansion = false;
  for (Key k = 1000; k < 2000 && !saw_expansion; ++k) {
    const Key nk = k * 10 + 3;
    ASSERT_TRUE(index.Insert(nk, ValueFor(nk)));
    inserted.push_back(nk);
    const auto st = index.CollectStructuralStats();
    saw_expansion = st.retrain_started > st.retrain_finished;
  }
  ASSERT_TRUE(saw_expansion) << "expansion never became observable mid-flight";
  queries.insert(queries.end(), inserted.begin(), inserted.end());
  for (Key k = 1000; k < 1100; ++k) queries.push_back(k * 10 + 7);  // absent
  ExpectBatchMatchesScalar(index, queries);

  // Push past finish_threshold (max(64, build_size)) so the temporal buffer
  // gets published, then re-verify over the new model.
  for (Key k = 1000; k < 2100; ++k) {
    index.Insert(k * 10 + 7, ValueFor(k * 10 + 7));
  }
  EXPECT_GE(index.CollectStructuralStats().retrain_finished, 1u);
  ExpectBatchMatchesScalar(index, queries);
}

TEST_F(LookupBatchTest, BatchLookupsFlushMetricsOncePerCall) {
  auto keys = GenerateKeys(Dataset::kOsm, 30000, 29);
  std::vector<Value> vals(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) vals[i] = ValueFor(keys[i]);

  AltIndex index;
  const size_t half = keys.size() / 2;
  ASSERT_TRUE(index.BulkLoad(keys.data(), vals.data(), half).ok());
  for (size_t i = half; i < keys.size(); ++i) {
    index.Insert(keys[i], ValueFor(keys[i]));
  }
  std::vector<Key> queries(keys.begin(), keys.end());
  std::vector<Value> out(queries.size());
  std::unique_ptr<bool[]> found(new bool[queries.size()]);

  const auto base = metrics::TakeSnapshot();
  index.LookupBatch(queries.data(), queries.size(), out.data(), found.get());
  const auto delta = metrics::TakeSnapshot().DeltaSince(base);
#if !defined(ALT_METRICS_DISABLED)
  using metrics::Counter;
  EXPECT_EQ(delta.counter(Counter::kBatchLookups), queries.size());
  EXPECT_GT(delta.counter(Counter::kArtLookups), 0u);
  EXPECT_GT(delta.counter(Counter::kArtLookupSteps), 0u);
  // Every query either resolved in the learned layer, went to ART, or took
  // the scalar fallback (which does its own per-key accounting).
  EXPECT_GE(delta.counter(Counter::kLearnedHits) +
                delta.counter(Counter::kLearnedNegatives) +
                delta.counter(Counter::kArtLookups) +
                delta.counter(Counter::kBatchScalarFallbacks),
            queries.size());
#endif
}

}  // namespace
}  // namespace alt
