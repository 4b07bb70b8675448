// ModelDirectory::Locate, the upper-model search (DESIGN.md §2.3): on every
// directory layout and every radix width it must return the last model whose
// first key is <= the probe (clamped to 0), i.e. std::upper_bound - 1.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/epoch.h"
#include "common/random.h"
#include "core/alt_index.h"
#include "core/model_directory.h"
#include "datasets/dataset.h"

namespace alt {
namespace {

/// Reference Locate: last model whose first_key <= key, clamped to 0.
size_t ReferenceLocate(const std::vector<Key>& first_keys, Key key) {
  const size_t ub = static_cast<size_t>(
      std::upper_bound(first_keys.begin(), first_keys.end(), key) - first_keys.begin());
  return ub == 0 ? 0 : ub - 1;
}

std::vector<Key> RandomSortedKeys(size_t n, uint64_t seed, bool with_duplicates) {
  Rng rng(seed);
  std::vector<Key> keys(n);
  for (auto& k : keys) {
    // A narrowed key range forces duplicates and dense adjacent values.
    k = with_duplicates ? rng.Next() % (n / 2 + 2) : rng.Next();
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// 0, ~0, every first key and its neighbours, and `random` random keys.
std::vector<Key> ProbeKeys(const std::vector<Key>& first_keys, uint64_t seed,
                           int random = 256) {
  std::vector<Key> probes = {0, 1, ~Key{0}, ~Key{0} - 1};
  for (Key k : first_keys) {
    probes.push_back(k);
    if (k > 0) probes.push_back(k - 1);
    if (k < ~Key{0}) probes.push_back(k + 1);
  }
  Rng rng(seed);
  for (int i = 0; i < random; ++i) probes.push_back(rng.Next());
  return probes;
}

/// Checks Locate against the reference for every probe, that the answer
/// lies in (or at the clamped edge of) the key's window, and that the batched
/// path's prefetch of that window stays in bounds.
void ExpectLocateMatches(const ModelDirectory::Snapshot& snap,
                         const std::vector<Key>& probes, const std::string& what) {
  for (Key p : probes) {
    const size_t got = ModelDirectory::Locate(snap, p);
    ASSERT_EQ(got, ReferenceLocate(snap.first_keys, p)) << what << " probe=" << p;
    const ModelDirectory::Window w = ModelDirectory::LocateWindow(snap, p);
    ASSERT_LE(w.lo, w.hi) << what;
    ASSERT_LE(w.hi, snap.first_keys.size()) << what;
    ASSERT_GE(got + 1, w.lo) << what << " probe=" << p;
    ASSERT_LE(got, w.hi) << what << " probe=" << p;
    ModelDirectory::PrefetchLocate(snap, p);
  }
}

ModelDirectory::Snapshot MakeSnapshot(std::vector<Key> first_keys, int radix_bits) {
  ModelDirectory::Snapshot snap(first_keys.size());
  snap.first_keys = std::move(first_keys);
  ModelDirectory::BuildRadix(&snap, radix_bits);
  return snap;
}

size_t LargestWindow(const ModelDirectory::Snapshot& snap) {
  size_t widest = 0;
  for (size_t r = 0; r + 1 < snap.radix.size(); ++r) {
    widest = std::max<size_t>(widest, snap.radix[r + 1] - snap.radix[r]);
  }
  return widest;
}

TEST(LocateTest, RandomDirectoriesRadixOnAndOff) {
  for (const size_t n : {1u, 2u, 5u, 64u, 65u, 300u, 1024u}) {
    for (const bool dups : {false, true}) {
      const auto first_keys = RandomSortedKeys(n, 53 + n + dups, dups);
      for (const int radix_bits : {0, 4, 8, 12}) {
        const auto snap = MakeSnapshot(first_keys, radix_bits);
        ExpectLocateMatches(snap, ProbeKeys(first_keys, 59 + n),
                            "n=" + std::to_string(n) + " dups=" + std::to_string(dups) +
                                " radix=" + std::to_string(radix_bits));
      }
    }
  }
}

TEST(LocateTest, DuplicateAdjacentFirstKeysPickLastOwner) {
  // Locate must return the LAST model of a duplicate first-key run (the
  // upper-bound convention): later models with the same anchor supersede
  // earlier ones in routing.
  for (const int radix_bits : {0, 6}) {
    const auto snap = MakeSnapshot({10, 20, 20, 20, 30}, radix_bits);
    EXPECT_EQ(ModelDirectory::Locate(snap, 20), 3u) << "radix=" << radix_bits;
    EXPECT_EQ(ModelDirectory::Locate(snap, 25), 3u) << "radix=" << radix_bits;
    EXPECT_EQ(ModelDirectory::Locate(snap, 9), 0u);   // under-range clamp
    EXPECT_EQ(ModelDirectory::Locate(snap, 31), 4u);  // past the tail
    EXPECT_EQ(ModelDirectory::Locate(snap, ~Key{0}), 4u);
  }
}

TEST(LocateTest, OneModelDirectory) {
  // Span 0: every key past the only anchor clamps into the last bucket.
  for (const int radix_bits : {0, 1, 12, ModelDirectory::kMaxRadixBits}) {
    const auto snap = MakeSnapshot({42}, radix_bits);
    EXPECT_EQ(snap.radix_shift, 0);
    ExpectLocateMatches(snap, ProbeKeys(snap.first_keys, 5),
                        "radix=" + std::to_string(radix_bits));
  }
}

TEST(LocateTest, AnchorsNearTheTopOfTheKeySpace) {
  // Bucket boundaries past ~Key{0} must not wrap around to small keys.
  const Key top = ~Key{0};
  const std::vector<std::vector<Key>> layouts = {
      {top - 3, top - 2, top - 1, top},
      {0, top - 5, top - 2, top},
      {0, top},
      {1, 2, 3, top},
      {top / 2, top / 2 + 1, top - 1},
      {top},
  };
  for (const auto& first_keys : layouts) {
    for (const int radix_bits : {0, 1, 4, 12, 16, ModelDirectory::kMaxRadixBits}) {
      const auto snap = MakeSnapshot(first_keys, radix_bits);
      ExpectLocateMatches(snap, ProbeKeys(first_keys, 61),
                          "first=" + std::to_string(first_keys.front()) +
                              " radix=" + std::to_string(radix_bits));
    }
  }
}

class LocateOnLoadedDirectoryTest : public ::testing::Test {
 protected:
  void TearDown() override { EpochManager::Global().DrainAll(); }
};

// Locate against std::upper_bound on the directories BulkLoad builds from
// every dataset generator, at two sizes and four table widths.
TEST_F(LocateOnLoadedDirectoryTest, EveryDatasetSizeAndWidth) {
  for (const Dataset d : {Dataset::kLibio, Dataset::kOsm, Dataset::kFb, Dataset::kLonglat,
                          Dataset::kUniform, Dataset::kLognormal, Dataset::kSequential}) {
    for (const size_t n : {size_t{200000}, size_t{1000000}}) {
      const auto keys = GenerateKeys(d, n, 11);
      const std::vector<Value> values(keys.size(), 1);
      for (const int radix_bits : {0, 4, 12, 16}) {
        const std::string what = std::string(DatasetName(d)) + " n=" + std::to_string(n) +
                                 " radix=" + std::to_string(radix_bits);
        AltOptions o;
        o.upper_radix_bits = radix_bits;
        AltIndex index(o);
        ASSERT_TRUE(index.BulkLoad(keys.data(), values.data(), keys.size()).ok()) << what;
        EpochGuard g;
        const ModelDirectory::Snapshot& snap = *index.directory().snapshot();
        ASSERT_EQ(snap.radix_bits, radix_bits) << what;
        ExpectLocateMatches(snap, ProbeKeys(snap.first_keys, 67, 4096), what);
      }
    }
  }
}

// The prefix shift spreads keys that share their top bits over the table:
// libio's keys are dense auto-increment IDs, so with the key's top bits as
// the bucket one bucket holds the whole directory (255 models; 3 with the
// shift).
TEST_F(LocateOnLoadedDirectoryTest, ShiftNarrowsTheWindowOnLibio) {
  const auto keys = GenerateKeys(Dataset::kLibio, 200000);
  const std::vector<Value> values(keys.size(), 1);
  AltIndex index;  // default: the 12-bit table
  ASSERT_TRUE(index.BulkLoad(keys.data(), values.data(), keys.size()).ok());
  EpochGuard g;
  const ModelDirectory::Snapshot& snap = *index.directory().snapshot();
  ASSERT_EQ(snap.radix_bits, 12);
  ASSERT_GT(snap.first_keys.size(), 64u);
  EXPECT_LE(LargestWindow(snap), 8u) << "models=" << snap.first_keys.size()
                                     << " shift=" << snap.radix_shift;
}

TEST(LocateTest, AppendTailPastTheSpanRecomputesTheShift) {
  EpochManager epoch("test");
  ModelDirectory dir(&epoch);
  std::vector<GplModel*> models;
  for (Key k = 0; k < 64; ++k) models.push_back(new GplModel(k * 1000, 0.001, 4, 4));
  dir.Build(std::move(models), 12);
  int old_shift = 0;
  {
    EpochGuard g(epoch);
    old_shift = dir.snapshot()->radix_shift;
    ExpectLocateMatches(*dir.snapshot(), ProbeKeys(dir.snapshot()->first_keys, 3),
                        "before append");
  }
  // A tail far past the old span: with the old shift every key from 2^40 on
  // would clamp into one bucket.
  const Key tail = Key{1} << 40;
  ASSERT_TRUE(dir.AppendTail(new GplModel(tail, 0.001, 4, 4)));
  ASSERT_TRUE(dir.AppendTail(new GplModel(tail + 1000, 0.001, 4, 4)));
  EpochGuard g(epoch);
  const ModelDirectory::Snapshot& snap = *dir.snapshot();
  ASSERT_EQ(snap.first_keys.size(), 66u);
  EXPECT_GT(snap.radix_shift, old_shift);
  EXPECT_EQ(snap.radix_base, 0u);
  ExpectLocateMatches(snap, ProbeKeys(snap.first_keys, 7), "after append");
  EXPECT_EQ(ModelDirectory::Locate(snap, tail + 500), 64u);
  EXPECT_EQ(ModelDirectory::Locate(snap, ~Key{0}), 65u);
}

}  // namespace
}  // namespace alt
