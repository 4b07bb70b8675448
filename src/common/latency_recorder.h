#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace alt {

/// \brief Log-bucketed latency histogram with percentile queries.
///
/// Buckets grow geometrically (~4.6% width), so P99.9 estimates are accurate to
/// a few percent while recording costs two instructions on the hot path. The
/// paper reports throughput in Mops/s and P99.9 latency in microseconds
/// (Table I, Fig. 7); this recorder produces both.
class LatencyHistogram {
 public:
  LatencyHistogram();

  /// Record one sample, in nanoseconds.
  void Record(uint64_t ns);

  /// Merge another histogram into this one (for per-thread -> global collapse).
  void Merge(const LatencyHistogram& other);

  /// \param q in (0, 1], e.g. 0.999 for P99.9. Returns nanoseconds.
  uint64_t Percentile(double q) const;

  uint64_t Count() const { return total_; }
  double MeanNs() const { return total_ ? static_cast<double>(sum_ns_) / total_ : 0.0; }

  void Reset();

 private:
  static constexpr int kBuckets = 512;
  static int BucketFor(uint64_t ns);
  static uint64_t BucketUpperNs(int b);
  static uint64_t BucketLowerNs(int b);

  std::vector<uint64_t> buckets_;
  uint64_t total_ = 0;
  uint64_t sum_ns_ = 0;
};

/// \brief Sampled per-thread latency recorder.
///
/// Timing every op doubles the cost of a 100ns index lookup; we time one op in
/// `sample_every` (default 16) which leaves tail estimates intact for the op
/// volumes used here.
///
/// Sampling phase: if every thread started its modular counter at 0, all
/// threads would time ops 0, 16, 32, ... in lockstep — phase-locked with any
/// periodic behavior that is itself synchronized across threads (epoch
/// advances every kAdvanceInterval retires, batched flushes, warmup
/// boundaries), silently over- or under-representing those ops in the tail.
/// Each recorder therefore starts at a pseudo-random phase derived from a
/// process-wide instance counter via Mix64, so concurrent threads sample
/// de-correlated op indices while the 1-in-`sample_every` rate is unchanged.
///
/// Not thread-safe: one recorder per thread.
class LatencyRecorder {
 public:
  explicit LatencyRecorder(uint32_t sample_every = 16)
      : sample_every_(sample_every > 1 ? sample_every : 1),
        countdown_(static_cast<uint32_t>(Mix64(NextInstanceId()) % sample_every_)) {}

  /// \return true if the caller should time this operation. A countdown, not
  /// a modulo: no division on the per-op path.
  bool ShouldSample() {
    if (countdown_ != 0) {
      --countdown_;
      return false;
    }
    countdown_ = sample_every_ - 1;
    return true;
  }

  void Record(uint64_t ns) { hist_.Record(ns); }

  const LatencyHistogram& histogram() const { return hist_; }
  LatencyHistogram& histogram() { return hist_; }

 private:
  static uint64_t NextInstanceId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  uint32_t sample_every_;
  uint32_t countdown_;  ///< calls left before the next sampled one
  LatencyHistogram hist_;
};

}  // namespace alt
