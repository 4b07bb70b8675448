#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/index_interface.h"
#include "common/perf_counters.h"
#include "workload/workload.h"

namespace alt {

/// Per-(op type × serving path) latency attribution row (DESIGN.md §9.2):
/// which internal path answered the op, how often, and at what latency.
struct PathStat {
  OpType op = OpType::kRead;
  ServedBy served = ServedBy::kUnattributed;
  uint64_t count = 0;    ///< ops routed to this path (every op, not sampled)
  uint64_t samples = 0;  ///< latency samples behind the percentiles (1/16)
  double mean_ns = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t p999_ns = 0;
};

/// Micro-architectural counters of one run (RunOptions::perf_stat): per-thread
/// perf_event_open groups opened inside each worker (started after the go
/// barrier, so fd setup and barrier spin are excluded), summed across threads.
/// When the active tier lacks a counter the derived per-op value is reported
/// as unavailable — never as a silent zero.
struct PerfStatResult {
  bool enabled = false;  ///< --perf_stat was requested
  perf::Tier tier = perf::Tier::kUnavailable;
  std::string tier_name;  ///< TierName() with the open-failure reason
  perf::Reading totals;   ///< summed Stop() readings of all workers
  uint64_t ops = 0;       ///< ops the counters cover (== RunResult::total_ops)

  double PerOp(uint64_t total) const {
    return ops > 0 ? static_cast<double>(total) / static_cast<double>(ops) : 0;
  }
  double PerKop(uint64_t total) const { return PerOp(total) * 1000.0; }
};

/// Aggregated result of one timed run.
struct RunResult {
  double throughput_mops = 0;  ///< million operations per second
  double seconds = 0;
  uint64_t total_ops = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t p999_ns = 0;  ///< the paper's P99.9 tail metric
  double mean_ns = 0;
  uint64_t failed_ops = 0;   ///< reads that missed / duplicate inserts
  uint64_t empty_scans = 0;  ///< scans past the last key (not failures)
  /// Non-empty iff RunOptions::path_breakdown; rows with count > 0 only,
  /// ordered by (op, served).
  std::vector<PathStat> path_stats;
  /// Populated iff RunOptions::perf_stat.
  PerfStatResult perf;
};

/// Execution knobs for RunWorkload.
struct RunOptions {
  size_t scan_length = 100;
  /// Reads per LookupBatch call: each worker coalesces up to this many
  /// *consecutive* kRead ops and issues them through the index's batched read
  /// path. 1 (default) keeps the scalar Lookup path, so existing benchmark
  /// numbers stay comparable. A sampled batch records its mean per-op latency.
  size_t read_batch = 1;
  /// When non-empty, append one JSON line per emitted snapshot to this file:
  /// periodic "interval" deltas (if metrics_interval_seconds > 0) while the
  /// run executes, plus one "final" line with the run result and the metrics
  /// delta scoped to this run (see common/metrics.h).
  std::string metrics_json;
  /// Seconds between interval snapshots; 0 (default) emits only the final one.
  double metrics_interval_seconds = 0;
  /// Free-form run label copied into each JSON line (e.g. "ycsb-a/alt/16t").
  std::string metrics_label;
  /// Collect per-(op × serving path) latency attribution into
  /// RunResult::path_stats (and the "paths" array of the final metrics JSON
  /// line). Off by default: attribution keeps one extra histogram per
  /// (op, path) pair per thread.
  bool path_breakdown = false;
  /// Sample micro-architectural counters per worker thread (perf_event_open;
  /// see common/perf_counters.h for the hardware/software/unavailable tiers)
  /// into RunResult::perf and the "perf" object of the final metrics JSON
  /// line. Off by default: opening counter groups costs a few syscalls per
  /// thread and the Start/Stop ioctls bracket the measured loop.
  bool perf_stat = false;
};

/// \brief Execute pre-generated per-thread op streams against `index` with
/// one thread per stream and return throughput + tail latency (sampled 1/16).
///
/// Threads start together behind a barrier; the wall clock covers the slowest
/// thread, matching how the paper reports Mops/s for T threads.
RunResult RunWorkload(ConcurrentIndex* index,
                      const std::vector<std::vector<Op>>& streams,
                      const RunOptions& options);
RunResult RunWorkload(ConcurrentIndex* index,
                      const std::vector<std::vector<Op>>& streams,
                      size_t scan_length = 100);

/// Convenience: bulk-load `index` with the first `bulk_fraction` of keys
/// (values = ValueFor(key)), generate streams over the rest, run, return.
struct BenchSetup {
  std::vector<Key> loaded;
  std::vector<Key> pool;
};

/// Split sorted dataset keys into bulk-load set (every key whose rank is
/// below bulk_fraction when interleaved) and insert pool. Interleaving (odd /
/// even ranks) keeps both sets distribution-representative, mirroring how
/// learned-index evaluations sample insert keys.
BenchSetup SplitDataset(const std::vector<Key>& keys, double bulk_fraction);

/// Human-readable name of an op type ("read", "insert", ...).
const char* OpTypeName(OpType t);

/// Print RunResult::path_stats as an aligned table to `f` (default stdout).
/// No-op when path_stats is empty.
void PrintPathBreakdown(const RunResult& result, std::FILE* f = nullptr);

/// Print RunResult::perf as a human-readable block to `f` (default stdout):
/// the active tier plus the per-op counter rows that tier supports. A failed
/// perf_event_open prints a clearly marked "unavailable" line (with the
/// errno text) and the TSC estimate — never zeros posing as measurements.
/// No-op when perf_stat was not requested.
void PrintPerfStat(const RunResult& result, std::FILE* f = nullptr);

}  // namespace alt
