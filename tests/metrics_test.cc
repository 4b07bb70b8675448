#include "common/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"

namespace alt {
namespace metrics {
namespace {

// The registry is process-global; each test starts from a clean slate. Safe
// here because this binary runs no concurrent recorder outside the tests'
// own (joined) threads.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetForTest(); }
};

#if !defined(ALT_METRICS_DISABLED)

TEST_F(MetricsTest, ShardedCountersCollapseExactlyUnderConcurrentMutators) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {}
      for (uint64_t i = 0; i < kPerThread; ++i) {
        Inc(Counter::kLearnedHits);
        if ((i & 7) == 0) Inc(Counter::kArtLookups, 3);
        FpDepthHit(static_cast<int>(i % kFpDepthBuckets));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  const Snapshot s = TakeSnapshot();
  EXPECT_EQ(s.counter(Counter::kLearnedHits), kThreads * kPerThread);
  EXPECT_EQ(s.counter(Counter::kArtLookups), kThreads * (kPerThread / 8) * 3);
  uint64_t depth_total = 0;
  for (size_t d = 0; d < kFpDepthBuckets; ++d) depth_total += s.fp_hit_depth[d];
  EXPECT_EQ(depth_total, kThreads * kPerThread);
}

TEST_F(MetricsTest, SnapshotsAreMonotonicWhileRecording) {
  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    while (!stop.load(std::memory_order_acquire)) {
      Inc(Counter::kSlotInserts);
      Inc(Counter::kWriteBacks, 2);
    }
  });
  Snapshot prev = TakeSnapshot();
  for (int i = 0; i < 200; ++i) {
    const Snapshot now = TakeSnapshot();
    for (size_t c = 0; c < kNumCounters; ++c) {
      ASSERT_GE(now.counters[c], prev.counters[c]) << "counter " << c;
    }
    ASSERT_GE(now.at_ns, prev.at_ns);
    prev = now;
  }
  stop.store(true, std::memory_order_release);
  mutator.join();
}

TEST_F(MetricsTest, DeltaSinceScopesToOnePhase) {
  Inc(Counter::kLearnedHits, 100);
  const Snapshot base = TakeSnapshot();
  Inc(Counter::kLearnedHits, 7);
  const Snapshot delta = TakeSnapshot().DeltaSince(base);
  EXPECT_EQ(delta.counter(Counter::kLearnedHits), 7u);
}

TEST_F(MetricsTest, FpDepthBucketsClampOutOfRangeDepths) {
  FpDepthHit(-3);
  FpDepthHit(0);
  FpDepthHit(static_cast<int>(kFpDepthBuckets));  // past the last bucket
  FpDepthHit(1000, 5);
  const Snapshot s = TakeSnapshot();
  EXPECT_EQ(s.fp_hit_depth[0], 2u);
  EXPECT_EQ(s.fp_hit_depth[kFpDepthBuckets - 1], 6u);
}

TEST_F(MetricsTest, ToJsonGolden) {
  Inc(Counter::kLearnedHits, 3);
  Inc(Counter::kConflictInserts, 2);
  FpDepthHit(4);
  Snapshot s = TakeSnapshot();
  // Pin the nondeterministic clock field so the output is fully golden.
  s.at_ns = 123;
  EXPECT_EQ(ToJson(s),
            "{\"at_ns\":123,\"counters\":{\"learned_hits\":3,"
            "\"learned_negatives\":0,\"slot_inserts\":0,\"conflict_inserts\":2,"
            "\"art_lookups\":0,\"art_lookup_steps\":0,\"art_root_fallbacks\":0,"
            "\"fast_pointer_hits\":0,\"write_backs\":0,\"scan_ops\":0,"
            "\"empty_scans\":0,\"retrain_started\":0,\"retrain_finished\":0,"
            "\"tail_models_appended\":0,\"batch_lookups\":0,"
            "\"batch_scalar_fallbacks\":0},"
            "\"fp_hit_depth\":[0,0,0,0,1,0,0,0,0]}");
}

TEST_F(MetricsTest, RecordingOverheadSmoke) {
  // Coarse regression guard, not a benchmark: 10M relaxed sharded increments
  // must stay far under a second even on a loaded CI machine.
  constexpr uint64_t kOps = 10000000;
  const Stopwatch sw;
  for (uint64_t i = 0; i < kOps; ++i) Inc(Counter::kLearnedHits);
  EXPECT_LT(sw.ElapsedSeconds(), 5.0);
  EXPECT_EQ(TakeSnapshot().counter(Counter::kLearnedHits), kOps);
}

#else  // ALT_METRICS_DISABLED

TEST_F(MetricsTest, DisabledRecordingIsANoop) {
  Inc(Counter::kLearnedHits, 3);
  FpDepthHit(4);
  const Snapshot s = TakeSnapshot();
  EXPECT_EQ(s.counter(Counter::kLearnedHits), 0u);
  // ToJson stays available so exporters need no #ifdefs.
  EXPECT_NE(ToJson(s).find("\"learned_hits\":0"), std::string::npos);
}

#endif

}  // namespace
}  // namespace metrics
}  // namespace alt
