// Differential tests for the DESIGN.md §10 vector read-path kernels: every
// vectorized primitive must be bit-identical to its always-compiled scalar
// twin on adversarial inputs. The CI matrix runs this binary three ways —
// default (AVX2 where the CPU has it), ALT_FORCE_SCALAR=1, and a
// -DALT_SIMD=OFF build — and all three must pass identically.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/random.h"
#include "common/simd.h"
#include "core/gpl_model.h"
#include "core/model_directory.h"

namespace alt {
namespace {

// ---------------------------------------------------------------------------
// UpperBoundU64: scalar vs std::upper_bound vs AVX2
// ---------------------------------------------------------------------------

std::vector<uint64_t> RandomSortedKeys(size_t n, uint64_t seed,
                                       bool with_duplicates) {
  Rng rng(seed);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) {
    // A narrowed key range forces duplicates and dense adjacent values.
    k = with_duplicates ? rng.Next() % (n / 2 + 2) : rng.Next();
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<uint64_t> ProbeKeys(const std::vector<uint64_t>& keys,
                                uint64_t seed) {
  std::vector<uint64_t> probes = {0, 1, ~uint64_t{0}, ~uint64_t{0} - 1};
  for (uint64_t k : keys) {
    probes.push_back(k);
    if (k > 0) probes.push_back(k - 1);
    if (k < ~uint64_t{0}) probes.push_back(k + 1);
  }
  Rng rng(seed);
  for (int i = 0; i < 256; ++i) probes.push_back(rng.Next());
  return probes;
}

TEST(UpperBoundTest, ScalarMatchesStdUpperBound) {
  for (const size_t n : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 63u, 64u, 65u, 100u,
                         511u, 512u, 1000u}) {
    for (const bool dups : {false, true}) {
      const auto keys = RandomSortedKeys(n, 11 + n, dups);
      for (uint64_t p : ProbeKeys(keys, 17 + n)) {
        const size_t expect = static_cast<size_t>(
            std::upper_bound(keys.begin(), keys.end(), p) - keys.begin());
        EXPECT_EQ(simd::UpperBoundU64Scalar(keys.data(), 0, n, p), expect)
            << "n=" << n << " dups=" << dups << " probe=" << p;
      }
    }
  }
}

TEST(UpperBoundTest, DispatchedBitIdenticalToScalar) {
  // Whatever the dispatcher resolves to (AVX2, forced scalar, compiled-out
  // SIMD), the result must be bit-identical to the scalar twin — including
  // over sub-windows, which is how Locate calls it under a radix table.
  for (const size_t n : {1u, 8u, 65u, 513u, 2048u}) {
    const auto keys = RandomSortedKeys(n, 29 + n, /*with_duplicates=*/true);
    Rng rng(31 + n);
    for (int trial = 0; trial < 64; ++trial) {
      size_t lo = static_cast<size_t>(rng.Next() % (n + 1));
      size_t hi = static_cast<size_t>(rng.Next() % (n + 1));
      if (lo > hi) std::swap(lo, hi);
      for (uint64_t p : {keys[lo < n ? lo : n - 1], rng.Next(),
                         uint64_t{0}, ~uint64_t{0}}) {
        EXPECT_EQ(simd::UpperBoundU64(keys.data(), lo, hi, p),
                  simd::UpperBoundU64Scalar(keys.data(), lo, hi, p))
            << "n=" << n << " lo=" << lo << " hi=" << hi << " probe=" << p;
      }
    }
  }
}

#if ALT_SIMD_X86
TEST(UpperBoundTest, Avx2KernelBitIdenticalToScalar) {
  // Direct kernel test, independent of ALT_FORCE_SCALAR: detection of the
  // instruction set is what gates running it, not the dispatch override.
  if (!cpu::GetFeatures().avx2) GTEST_SKIP() << "CPU lacks AVX2";
  for (const size_t n : {1u, 7u, 8u, 64u, 65u, 129u, 1000u}) {
    for (const bool dups : {false, true}) {
      const auto keys = RandomSortedKeys(n, 41 + n, dups);
      for (uint64_t p : ProbeKeys(keys, 43 + n)) {
        EXPECT_EQ(simd::detail::UpperBoundU64Avx2(keys.data(), 0, n, p),
                  simd::UpperBoundU64Scalar(keys.data(), 0, n, p))
            << "n=" << n << " dups=" << dups << " probe=" << p;
      }
    }
  }
}
#endif  // ALT_SIMD_X86

// ---------------------------------------------------------------------------
// ModelDirectory::Locate: dispatched vs scalar vs reference, radix on/off
// ---------------------------------------------------------------------------

/// Reference Locate: last model whose first_key <= key, clamped to 0.
size_t ReferenceLocate(const std::vector<Key>& first_keys, Key key) {
  size_t idx = 0;
  for (size_t i = 0; i < first_keys.size(); ++i) {
    if (first_keys[i] <= key) idx = i;
  }
  return idx;
}

TEST(LocateDifferentialTest, RandomDirectoriesRadixOnAndOff) {
  Rng rng(7);
  for (const size_t n : {1u, 2u, 5u, 64u, 65u, 300u, 1024u}) {
    for (const bool dups : {false, true}) {
      const auto first_keys = RandomSortedKeys(n, 53 + n + dups, dups);
      for (const int radix_bits : {0, 4, 8, 12}) {
        ModelDirectory::Snapshot snap(n);
        snap.first_keys = first_keys;
        ModelDirectory::BuildRadix(&snap, radix_bits);
        for (Key p : ProbeKeys(first_keys, 59 + n)) {
          const size_t got = ModelDirectory::Locate(snap, p);
          const size_t scalar = ModelDirectory::LocateScalar(snap, p);
          EXPECT_EQ(got, scalar) << "n=" << n << " radix=" << radix_bits
                                 << " dups=" << dups << " probe=" << p;
          EXPECT_EQ(got, ReferenceLocate(first_keys, p))
              << "n=" << n << " radix=" << radix_bits << " dups=" << dups
              << " probe=" << p;
        }
        // A burst of random probes on top of the structured ones.
        for (int i = 0; i < 200; ++i) {
          const Key p = rng.Next();
          EXPECT_EQ(ModelDirectory::Locate(snap, p),
                    ModelDirectory::LocateScalar(snap, p));
        }
      }
    }
  }
}

TEST(LocateDifferentialTest, DuplicateAdjacentFirstKeysPickLastOwner) {
  // Locate must return the LAST model of a duplicate first-key run (the
  // upper-bound convention): later models with the same anchor supersede
  // earlier ones in routing.
  ModelDirectory::Snapshot snap(5);
  snap.first_keys = {10, 20, 20, 20, 30};
  for (const int radix_bits : {0, 6}) {
    ModelDirectory::BuildRadix(&snap, radix_bits);
    EXPECT_EQ(ModelDirectory::Locate(snap, 20), 3u) << "radix=" << radix_bits;
    EXPECT_EQ(ModelDirectory::Locate(snap, 25), 3u) << "radix=" << radix_bits;
    EXPECT_EQ(ModelDirectory::Locate(snap, 9), 0u);   // under-range clamp
    EXPECT_EQ(ModelDirectory::Locate(snap, 31), 4u);  // past the tail
    EXPECT_EQ(ModelDirectory::Locate(snap, ~Key{0}), 4u);
    for (Key p : {Key{9}, Key{10}, Key{19}, Key{20}, Key{21}, Key{30}, Key{31}}) {
      EXPECT_EQ(ModelDirectory::Locate(snap, p),
                ModelDirectory::LocateScalar(snap, p));
    }
  }
}

TEST(LocateDifferentialTest, WindowSharedByLocateAndPrefetch) {
  ModelDirectory::Snapshot snap(8);
  snap.first_keys = {0, 1u << 20, 2u << 20, 3u << 20,
                     4u << 20, 5u << 20, 6u << 20, 7u << 20};
  ModelDirectory::BuildRadix(&snap, 8);
  for (Key p : snap.first_keys) {
    const auto w = ModelDirectory::LocateWindow(snap, p);
    ASSERT_LE(w.lo, w.hi);
    ASSERT_LE(w.hi, snap.first_keys.size());
    const size_t idx = ModelDirectory::Locate(snap, p);
    // The answer always lies in (or at the clamped edge of) the window.
    EXPECT_GE(idx + 1, w.lo);
    EXPECT_LE(idx, w.hi);
    ModelDirectory::PrefetchLocate(snap, p);  // must not fault
  }
}

// ---------------------------------------------------------------------------
// Slot-state scan: vector vs scalar, with busy lanes
// ---------------------------------------------------------------------------

TEST(SlotScanTest, DispatchedBitIdenticalToScalar) {
  GplModel model(/*first_key=*/0, /*slope=*/1.0, /*num_slots=*/256,
                 /*build_size=*/0);
  Rng rng(71);
  for (uint32_t i = 0; i < model.num_slots(); ++i) {
    model.slot(i).word.InitState(static_cast<SlotState>(rng.Next() % 4));
  }
  for (uint32_t base = 0; base + 8 <= model.num_slots(); ++base) {
    const auto vec = simd::ScanSlotWords8(&model.slot(base), sizeof(GplSlot));
    const auto ref =
        simd::ScanSlotWords8Scalar(&model.slot(base), sizeof(GplSlot));
    EXPECT_EQ(vec.busy_mask, ref.busy_mask) << "base=" << base;
    for (int s = 0; s < 4; ++s) {
      EXPECT_EQ(vec.state_mask[s], ref.state_mask[s])
          << "base=" << base << " state=" << s;
    }
    // The masks partition the 8 lanes: every lane is busy or in one state.
    uint32_t all = ref.busy_mask;
    for (int s = 0; s < 4; ++s) {
      EXPECT_EQ(all & ref.state_mask[s], 0u);
      all |= ref.state_mask[s];
    }
    EXPECT_EQ(all, 0xffu);
  }
}

TEST(SlotScanTest, BusyLaneExcludedFromStateMasks) {
  GplModel model(0, 1.0, 16, 0);
  for (uint32_t i = 0; i < 16; ++i) {
    model.slot(i).word.InitState(SlotState::kOccupied);
  }
  const uint32_t token = model.slot(3).word.Lock();
  const auto scan = simd::ScanSlotWords8(&model.slot(0), sizeof(GplSlot));
  EXPECT_EQ(scan.busy_mask, 1u << 3);
  EXPECT_EQ(scan.state_mask[static_cast<int>(SlotState::kOccupied)],
            0xffu & ~(1u << 3));
  model.slot(3).word.Unlock(token, SlotState::kOccupied);
}

TEST(SlotScanTest, CountsMatchManualLoop) {
  // CountOccupied / CountSlotStates run the vector fast path internally when
  // enabled; both must agree with a plain per-slot walk on ragged sizes.
  for (const uint32_t n : {1u, 7u, 8u, 9u, 63u, 64u, 200u, 1031u}) {
    GplModel model(0, 1.0, n, 0);
    Rng rng(83 + n);
    size_t expect[4] = {0, 0, 0, 0};
    for (uint32_t i = 0; i < n; ++i) {
      const auto s = static_cast<SlotState>(rng.Next() % 4);
      model.slot(i).word.InitState(s);
      expect[static_cast<size_t>(s)]++;
    }
    EXPECT_EQ(model.CountOccupied(),
              expect[static_cast<size_t>(SlotState::kOccupied)])
        << "n=" << n;
    size_t counts[4] = {0, 0, 0, 0};
    model.CountSlotStates(counts);
    size_t total = 0;
    for (int s = 0; s < 4; ++s) {
      EXPECT_EQ(counts[s], expect[s]) << "n=" << n << " state=" << s;
      total += counts[s];
    }
    EXPECT_EQ(total, n);
  }
}

TEST(SlotScanTest, CollectRangeMatchesReference) {
  const uint32_t n = 512;
  GplModel model(/*first_key=*/1000, /*slope=*/0.5, n, 0);
  // Occupy a scattered subset at each key's predicted slot (first write wins,
  // like bulk load), tombstone a few others.
  Rng rng(97);
  std::vector<std::pair<Key, Value>> resident;
  for (int i = 0; i < 600; ++i) {
    const Key k = 1000 + rng.Next() % 1000;
    GplSlot& s = model.slot(model.Predict(k));
    if (s.word.State() != SlotState::kEmpty) continue;
    const uint32_t w = s.word.Lock();
    s.key.store(k, std::memory_order_relaxed);
    s.value.store(k * 3, std::memory_order_relaxed);
    s.word.Unlock(w, SlotState::kOccupied);
  }
  for (uint32_t i = 0; i < n; i += 17) {
    GplSlot& s = model.slot(i);
    if (s.word.State() != SlotState::kEmpty) continue;
    const uint32_t w = s.word.Lock();
    s.word.Unlock(w, SlotState::kTombstone);
  }
  for (uint32_t i = 0; i < n; ++i) {
    const GplSlot& s = model.slot(i);
    if (s.word.State() == SlotState::kOccupied) {
      resident.emplace_back(s.OptimisticKey(), s.OptimisticValue());
    }
  }
  for (const auto [lo, hi] : std::vector<std::pair<Key, Key>>{
           {0, ~Key{0}}, {1000, 1999}, {1200, 1400}, {1500, 1500},
           {2500, 3000}, {0, 999}}) {
    std::vector<std::pair<Key, Value>> got;
    model.CollectRange(lo, hi, &got);
    std::vector<std::pair<Key, Value>> expect;
    for (const auto& kv : resident) {
      if (kv.first >= lo && kv.first <= hi) expect.push_back(kv);
    }
    EXPECT_EQ(got, expect) << "lo=" << lo << " hi=" << hi;
    // And the limit-clipped variant.
    std::vector<std::pair<Key, Value>> limited;
    model.CollectRange(lo, hi, &limited, 3);
    expect.resize(std::min<size_t>(expect.size(), 3));
    EXPECT_EQ(limited, expect) << "lo=" << lo << " hi=" << hi << " limit=3";
  }
}

// ---------------------------------------------------------------------------
// Memory backing: alignment contract (slab backing: slot_slab_test.cc)
// ---------------------------------------------------------------------------

TEST(AlignedMemTest, SlotArraysAre64ByteAlignedAndStraddleFree) {
  for (const uint32_t n : {1u, 5u, 100u}) {
    GplModel model(0, 1.0, n, 0);
    const auto base = reinterpret_cast<uintptr_t>(&model.slot(0));
    EXPECT_EQ(base % 64, 0u) << "n=" << n;
    for (uint32_t i = 0; i < n; ++i) {
      const auto a = reinterpret_cast<uintptr_t>(&model.slot(i));
      // 32-byte slots on a 64-byte-aligned base: a slot never crosses a line.
      EXPECT_EQ(a / 64, (a + sizeof(GplSlot) - 1) / 64) << "slot " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------------

TEST(CpuFeaturesTest, ModeNameConsistentWithFeatures) {
  const cpu::Features& f = cpu::GetFeatures();
  const bool enabled = cpu::SimdEnabled();
  if (enabled) {
    EXPECT_TRUE(f.compiled_simd);
    EXPECT_TRUE(f.avx2);
    EXPECT_FALSE(f.forced_scalar);
    EXPECT_STREQ(cpu::SimdModeName(), "avx2");
  } else {
    EXPECT_TRUE(!f.compiled_simd || !f.avx2 || f.forced_scalar);
    EXPECT_NE(std::string(cpu::SimdModeName()).find("scalar"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace alt
