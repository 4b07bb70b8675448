#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/prefetch.h"
#include "common/sharded_counter.h"

namespace alt {
namespace metrics {

/// \brief Always-on, low-overhead observability registry.
///
/// The paper evaluates ALT-index through end-to-end throughput and tail
/// latency, but the behaviour that *explains* those numbers — conflict
/// evictions to ART-OPT, fast-pointer hit depth, §III-F expansions — is
/// internal. This registry makes it visible at runtime:
///
///  - **Counters** are sharded across `kShards` cache-line-padded shards;
///    a thread increments its own shard with one relaxed fetch_add (the same
///    per-thread-collapse pattern as LatencyHistogram::Merge). Threads are
///    assigned shards round-robin on first use; two threads sharing a shard
///    is a performance detail, never a correctness one.
///  - The **fast-pointer hit-depth histogram** lives in the same shards.
///
/// The registry holds nothing else. Structural events (bulk loads, retrains,
/// tail appends) and their durations are spans in the flight recorder
/// (common/trace.h); per-index facts such as the model count come from
/// StructuralStats; serving counters live in ServerStats (STATS "server").
///
/// Snapshot() collapses the shards; counter values in successive snapshots
/// are monotonically non-decreasing. DeltaSince() subtracts a baseline, which
/// is how callers scope the process-global registry to one run (take a
/// baseline before, a snapshot after, diff).
///
/// The registry is process-global: all indexes in the process feed the same
/// counters. Benchmarks that compare configurations take per-phase deltas.
///
/// Compiling with -DALT_METRICS_DISABLED (CMake -DALT_METRICS=OFF) turns every
/// recording call into a no-op while keeping Snapshot()/ToJson() compilable,
/// which is how the overhead of the instrumentation itself is measured.

/// Counter identifiers. Names (CounterName) are the JSON keys; DESIGN.md §8
/// maps each to the paper figure it explains.
enum class Counter : uint32_t {
  kLearnedHits = 0,     ///< lookups answered by the predicted slot (§III-A)
  kLearnedNegatives,    ///< absences proven by a strict-empty predicted slot
  kSlotInserts,         ///< inserts placed at their predicted slot
  kConflictInserts,     ///< keys entering ART-OPT at runtime (conflicts + migration victims)
  kArtLookups,          ///< secondary searches (Fig. 10(a) denominator)
  kArtLookupSteps,      ///< ART nodes visited by secondary searches (Fig. 10(a) numerator)
  kArtRootFallbacks,    ///< hinted searches that retried from the root
  kFastPointerHits,     ///< secondary searches resolved inside the hinted subtree (§III-C)
  kWriteBacks,          ///< ART→slot write-backs (Alg. 2 re-adoption + §III-F sweeps)
  kScanOps,             ///< Scan/RangeQuery calls (§III-G)
  kEmptyScans,          ///< scans that found no key >= start (end of keyspace)
  kRetrainStarted,      ///< §III-F expansions triggered
  kRetrainFinished,     ///< §III-F expansions completed & published
  kTailModelsAppended,  ///< tail models appended after a last-model retrain
  kBatchLookups,        ///< keys resolved through the batched read path
  kBatchScalarFallbacks,  ///< batch cursors that dropped to the scalar path
  kCount
};
constexpr size_t kNumCounters = static_cast<size_t>(Counter::kCount);

/// Stable JSON key for `c` (snake_case, e.g. "learned_hits").
const char* CounterName(Counter c);

/// Fast-pointer hits histogrammed by the hint node's ART depth (key bytes
/// matched, 0..8): how deep into the tree the §III-C buffer lets secondary
/// searches start.
constexpr size_t kFpDepthBuckets = 9;

/// A collapsed, point-in-time view of the registry.
struct Snapshot {
  uint64_t counters[kNumCounters] = {};
  uint64_t fp_hit_depth[kFpDepthBuckets] = {};
  uint64_t at_ns = 0;

  uint64_t counter(Counter c) const { return counters[static_cast<size_t>(c)]; }

  /// Counters and histogram subtracted against `base`; at_ns is this
  /// snapshot's.
  Snapshot DeltaSince(const Snapshot& base) const;
};

class Registry {
 public:
  static constexpr size_t kShards = 64;  // power of two

  static Registry& Global();

  void Inc(Counter c, uint64_t delta = 1) {
    Cell(ShardIndex(), static_cast<size_t>(c))
        .fetch_add(delta, std::memory_order_relaxed);
  }

  void IncFpDepth(int depth, uint64_t delta = 1) {
    if (depth < 0) depth = 0;
    if (depth >= static_cast<int>(kFpDepthBuckets)) depth = kFpDepthBuckets - 1;
    Cell(ShardIndex(), kNumCounters + static_cast<size_t>(depth))
        .fetch_add(delta, std::memory_order_relaxed);
  }

  /// Collapse all shards. Counter values across successive snapshots are
  /// monotonically non-decreasing.
  Snapshot TakeSnapshot() const;

  /// Zero every counter and histogram bucket. Only safe while no thread is
  /// concurrently recording (between test cases / benchmark phases).
  void ResetForTest();

 private:
  Registry() = default;

  struct alignas(kCacheLineBytes) Shard {
    std::atomic<uint64_t> cells[kNumCounters + kFpDepthBuckets] = {};
  };

  std::atomic<uint64_t>& Cell(size_t shard, size_t i) {
    return shards_[shard].cells[i];
  }

  /// Round-robin shard assignment on first use per thread.
  static size_t ShardIndex() { return ThreadShardIndex() & (kShards - 1); }

  mutable Shard shards_[kShards];
};

// ---------------------------------------------------------------------------
// Hot-path recording API. Compiled out under ALT_METRICS_DISABLED so the
// instrumentation cost itself can be measured (EXPERIMENTS.md "Metrics
// overhead").
// ---------------------------------------------------------------------------

#if defined(ALT_METRICS_DISABLED)
inline void Inc(Counter, uint64_t = 1) {}
inline void FpDepthHit(int, uint64_t = 1) {}
#else
inline void Inc(Counter c, uint64_t delta = 1) { Registry::Global().Inc(c, delta); }
inline void FpDepthHit(int depth, uint64_t delta = 1) {
  Registry::Global().IncFpDepth(depth, delta);
}
#endif

/// Snapshot the global registry (all-zero under ALT_METRICS_DISABLED).
Snapshot TakeSnapshot();

/// Quiescent-only global reset (tests / between benchmark phases).
void ResetForTest();

/// Serialize `s` as one compact JSON object:
///   {"at_ns":..,"counters":{..},"fp_hit_depth":[..]}
std::string ToJson(const Snapshot& s);

}  // namespace metrics
}  // namespace alt
