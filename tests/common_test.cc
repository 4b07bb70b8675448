#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "common/key_codec.h"
#include "common/latency_recorder.h"
#include "common/random.h"
#include "common/status.h"
#include "common/timer.h"
#include "common/zipf.h"

namespace alt {
namespace {

// ---------------------------------------------------------------------------
// Status
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad keys");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad keys");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad keys");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  std::set<Status::Code> codes{
      Status::OK().code(),           Status::InvalidArgument("").code(),
      Status::NotFound("").code(),   Status::AlreadyExists("").code(),
      Status::OutOfRange("").code(), Status::IOError("").code(),
      Status::Internal("").code()};
  EXPECT_EQ(codes.size(), 7u);
}

// ---------------------------------------------------------------------------
// Key codec
// ---------------------------------------------------------------------------

TEST(KeyCodecTest, KeyByteBigEndian) {
  const Key k = 0x0102030405060708ULL;
  for (int i = 0; i < kKeyBytes; ++i) {
    EXPECT_EQ(KeyByte(k, i), i + 1);
  }
}

TEST(KeyCodecTest, ByteOrderAgreesWithIntegerOrder) {
  Rng rng(1);
  for (int t = 0; t < 1000; ++t) {
    const Key a = rng.Next(), b = rng.Next();
    // Lexicographic comparison of the byte decomposition.
    int cmp = 0;
    for (int i = 0; i < kKeyBytes && cmp == 0; ++i) {
      cmp = static_cast<int>(KeyByte(a, i)) - static_cast<int>(KeyByte(b, i));
    }
    EXPECT_EQ(cmp < 0, a < b);
    EXPECT_EQ(cmp > 0, a > b);
  }
}

TEST(KeyCodecTest, CommonPrefixBytes) {
  EXPECT_EQ(CommonPrefixBytes(0, 0), 8);
  EXPECT_EQ(CommonPrefixBytes(0x1122334455667788ULL, 0x1122334455667788ULL), 8);
  EXPECT_EQ(CommonPrefixBytes(0x1122334455667788ULL, 0x1122334455667789ULL), 7);
  EXPECT_EQ(CommonPrefixBytes(0x1122334455667788ULL, 0x2122334455667788ULL), 0);
  EXPECT_EQ(CommonPrefixBytes(0x1122334455667788ULL, 0x1122FF4455667788ULL), 2);
}

TEST(KeyCodecTest, KeyPrefixMasksLowBytes) {
  const Key k = 0x1122334455667788ULL;
  EXPECT_EQ(KeyPrefix(k, 0), 0u);
  EXPECT_EQ(KeyPrefix(k, 2), 0x1122000000000000ULL);
  EXPECT_EQ(KeyPrefix(k, 8), k);
  EXPECT_EQ(KeyPrefix(k, 99), k);
}

TEST(KeyCodecTest, KeyPrefixConsistentWithCommonPrefix) {
  Rng rng(7);
  for (int t = 0; t < 1000; ++t) {
    const Key a = rng.Next(), b = rng.Next();
    const int p = CommonPrefixBytes(a, b);
    EXPECT_EQ(KeyPrefix(a, p), KeyPrefix(b, p));
    if (p < kKeyBytes) EXPECT_NE(KeyPrefix(a, p + 1), KeyPrefix(b, p + 1));
  }
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(3);
  for (uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1000000007ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.NextBounded(bound), bound);
  }
}

TEST(RngTest, BoundedZeroIsZero) {
  Rng rng(3);
  EXPECT_EQ(rng.NextBounded(0), 0u);
}

TEST(RngTest, BoundedRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) counts[rng.NextBounded(kBuckets)]++;
  for (int c : counts) {
    EXPECT_GT(c, kDraws / kBuckets * 0.9);
    EXPECT_LT(c, kDraws / kBuckets * 1.1);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0, sum2 = 0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.03);
}

// ---------------------------------------------------------------------------
// Zipf
// ---------------------------------------------------------------------------

TEST(ZipfTest, RanksInRange) {
  Zipf z(1000, 0.99, 9);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(z.Next(), 1000u);
}

TEST(ZipfTest, SkewConcentratesOnLowRanks) {
  Zipf z(100000, 0.99, 9);
  int top10 = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) top10 += (z.Next() < 10);
  // theta=0.99 over 100k items: rank<10 gets a large share (paper's hotspots).
  EXPECT_GT(top10, kDraws / 10);
}

TEST(ZipfTest, HigherThetaMoreSkew) {
  auto top_share = [](double theta) {
    Zipf z(100000, theta, 17);
    int top = 0;
    for (int i = 0; i < 20000; ++i) top += (z.Next() < 100);
    return top;
  };
  EXPECT_LT(top_share(0.5), top_share(0.99));
  EXPECT_LT(top_share(0.99), top_share(1.3));
}

TEST(ZipfTest, ThetaZeroIsUniformish) {
  Zipf z(1000, 0.0, 21);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) counts[z.Next()]++;
  int hot = 0;
  for (int c : counts) hot = std::max(hot, c);
  EXPECT_LT(hot, 100 * 3);  // no rank gets 3x its fair share
}

TEST(ZipfTest, ScrambledSpreadsHotKeys) {
  ScrambledZipf z(100000, 0.99, 25);
  std::set<uint64_t> hot;
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) counts[z.Next()]++;
  // The most frequent picks should not be clustered at the low end.
  uint64_t best = 0;
  int best_count = 0;
  for (const auto& [k, c] : counts) {
    if (c > best_count) {
      best = k;
      best_count = c;
    }
  }
  EXPECT_GT(best_count, 100);  // still skewed...
  EXPECT_GT(best, 100u);       // ...but the hottest item is not rank 0..100
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogramTest, PercentilesApproximateExact) {
  LatencyHistogram h;
  std::vector<uint64_t> samples;
  Rng rng(31);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t ns = 50 + rng.NextBounded(100000);
    samples.push_back(ns);
    h.Record(ns);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const uint64_t exact = samples[static_cast<size_t>(q * samples.size())];
    const uint64_t approx = h.Percentile(q);
    // Log buckets: within ~7% of the exact percentile.
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                static_cast<double>(exact) * 0.08)
        << "q=" << q;
  }
}

TEST(LatencyHistogramTest, MergeEqualsCombined) {
  LatencyHistogram a, b, combined;
  Rng rng(33);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t x = 10 + rng.NextBounded(10000);
    const uint64_t y = 10 + rng.NextBounded(10000);
    a.Record(x);
    b.Record(y);
    combined.Record(x);
    combined.Record(y);
  }
  a.Merge(b);
  EXPECT_EQ(a.Count(), combined.Count());
  EXPECT_EQ(a.Percentile(0.99), combined.Percentile(0.99));
  EXPECT_DOUBLE_EQ(a.MeanNs(), combined.MeanNs());
}

TEST(LatencyHistogramTest, EmptyAndReset) {
  LatencyHistogram h;
  EXPECT_EQ(h.Percentile(0.99), 0u);
  h.Record(100);
  EXPECT_GT(h.Percentile(0.5), 0u);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0u);
}

TEST(LatencyHistogramTest, SmallValuesExact) {
  LatencyHistogram h;
  for (uint64_t v = 0; v < 16; ++v) h.Record(v);
  EXPECT_EQ(h.Percentile(1.0), 15u);
  EXPECT_EQ(h.Count(), 16u);
}

// Property test for the within-bucket linear interpolation: across several
// distribution shapes and quantiles, the histogram estimate must stay within
// one bucket width (~2 * 1/16 relative, we allow 8%) of the exact sorted-
// vector oracle — the old upper-bound-only behavior biased every estimate to
// the top of its bucket, failing the lower edge of this bound.
TEST(LatencyHistogramTest, InterpolatedPercentileTracksOracle) {
  Rng rng(71);
  for (int dist = 0; dist < 3; ++dist) {
    LatencyHistogram h;
    std::vector<uint64_t> samples;
    for (int i = 0; i < 60000; ++i) {
      uint64_t ns = 0;
      switch (dist) {
        case 0:  // uniform
          ns = 100 + rng.NextBounded(500000);
          break;
        case 1:  // bimodal: fast path + slow tail
          ns = (rng.NextBounded(10) < 9) ? 80 + rng.NextBounded(200)
                                         : 20000 + rng.NextBounded(80000);
          break;
        default:  // heavy-tailed (approximately log-uniform)
          ns = uint64_t{1} << (4 + rng.NextBounded(20));
          ns += rng.NextBounded(ns);
          break;
      }
      samples.push_back(ns);
      h.Record(ns);
    }
    std::sort(samples.begin(), samples.end());
    for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
      size_t rank = static_cast<size_t>(std::ceil(q * samples.size()));
      if (rank > 0) --rank;
      const double exact = static_cast<double>(samples[rank]);
      const double approx = static_cast<double>(h.Percentile(q));
      EXPECT_NEAR(approx, exact, exact * 0.08 + 2.0)
          << "dist=" << dist << " q=" << q;
    }
  }
}

TEST(LatencyRecorderTest, SamplingRatePreservedAndPhasesDiffer) {
  // Rate: over any window of k*sample_every calls, exactly k samples fire,
  // whatever the starting phase.
  std::set<uint32_t> phases;
  for (int r = 0; r < 16; ++r) {
    LatencyRecorder rec(16);
    int fired = 0;
    uint32_t first = 0;
    for (uint32_t i = 0; i < 160; ++i) {
      if (rec.ShouldSample()) {
        if (fired == 0) first = i;
        ++fired;
      }
    }
    EXPECT_EQ(fired, 10);
    phases.insert(first);
  }
  // De-phase-locking: 16 recorders must not all share one starting phase
  // (16 i.i.d. uniform draws collide completely with probability 16^-15).
  EXPECT_GT(phases.size(), 1u);
}

TEST(TimerTest, StopwatchAdvances) {
  Stopwatch sw;
  volatile uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink += static_cast<uint64_t>(i);
  EXPECT_GT(sw.ElapsedNanos(), 0u);
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
}

}  // namespace
}  // namespace alt
