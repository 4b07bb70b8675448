#pragma once

/// \file
/// \brief Shared configuration, outcome record, correctness checks and layer
/// probes of the benchmark's three workloads (see ../README.md).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/epoch.h"
#include "common/key_codec.h"
#include "common/path_tag.h"
#include "core/alt_index.h"
#include "stats.h"

namespace perfbench {

using alt::Key;
using alt::Value;

struct Config {
  std::string workload;  ///< index-read | index-write | served
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir;     ///< span file destination
  std::string server_bin;  ///< alt_server executable
  size_t index_keys = 10000000;  ///< osm keys generated; half are bulk-loaded
  size_t served_keys = 200000;   ///< fb keys preloaded into alt_server
  int threads = 4;               ///< index workloads: closed-loop threads
  int gen_threads = 2;           ///< served: generator threads
  int conns_per_thread = 2;      ///< served: connections per generator thread
  int window = 16;               ///< served: requests in flight per connection
  int server_workers = 2;
  int server_shards = 2;
  int server_batch = 16;
  size_t probe_keys = 100000;    ///< sample size of the single-thread probes
  std::vector<int> cpus;         ///< CPUs this process may run on (sched_getaffinity)
};

/// The CPU ids in this process's affinity mask, ascending.
std::vector<int> AllowedCpus();

constexpr int kIndexScanLen = 100;
constexpr int kServedScanLen = 20;

/// Counts wrong answers across threads; keeps the first few messages.
class FailureLog {
 public:
  void Add(const std::string& what);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::vector<std::string> messages();

 private:
  std::atomic<uint64_t> count_{0};
  std::mutex mu_;
  std::vector<std::string> messages_;  // guarded by mu_
};

/// What a workload run produced.
struct Outcome {
  MetricTable e2e;    ///< end-to-end metrics (untraced run)
  MetricTable layer;  ///< per-layer metrics (traced run)
  std::vector<std::pair<std::string, std::string>> diag;  ///< printed, stored, never compared
  uint64_t attempted = 0;
  FailureLog failures;
  std::string error;  ///< a set-up failure (not a wrong answer); aborts the run

  void Diag(const std::string& name, const std::string& value);
};

/// Host memory latency: ns per step of a dependent random walk over a 64 MiB
/// buffer, on one thread. A diagnostic of the machine's state, never
/// compared: on a shared host it drifts with other tenants' memory traffic,
/// and the index workloads' timings drift with it.
double MemoryLatencyNs(uint64_t seed);

/// Seed derivation: one independent stream per (seed, purpose).
uint64_t SubSeed(uint64_t seed, uint64_t purpose);

/// Timed seconds of one pass. A traced run makes two passes, untraced then
/// traced, and splits --seconds between them so it takes as long as an
/// untraced run.
double PassSeconds(const Config& cfg);

/// Scan-answer check shared by both scan paths: `got` must be strictly
/// ascending, start at or after `start`, carry ValueFor(key) for every key,
/// contain every key of the never-removed sorted set `base` that lies in
/// [start, last returned key], and hold `count` pairs unless it reached the
/// end of `base`. \return empty on success, else the reason.
std::string CheckScan(const std::vector<Key>& base, Key start, size_t count,
                      const std::pair<Key, Value>* got, size_t n);

/// Per-path attribution of a traced phase, from the ServedBy-reporting
/// Lookup / Insert calls.
struct Attribution {
  uint64_t read_tag[alt::kNumServedBy] = {};
  uint64_t write_tag[alt::kNumServedBy] = {};
  Hist read_learned;    ///< reads answered at the learned slot
  Hist read_fp;         ///< reads answered by a fast-pointer-hinted ART descent
  Hist write_conflict;  ///< inserts evicted to ART-OPT

  void Note(int kind, alt::ServedBy by, uint64_t ns);
  void Merge(const Attribution& o);
  /// Sets the core/art path-share and per-path p99 metrics.
  void Report(Outcome* out) const;
};

/// An AltIndex with a private epoch manager (destroyed after the index).
struct OwnedIndex {
  std::unique_ptr<alt::EpochManager> epoch;
  std::unique_ptr<alt::AltIndex> index;
};

/// Build a fresh index over sorted `keys` (values ValueFor(key)).
/// \return BulkLoad seconds, or a negative number on failure.
double BulkLoadTimed(const std::vector<Key>& keys, const std::vector<Value>& values,
                     OwnedIndex* out);

/// Single-thread probes of core (Locate, Lookup, structure), art (root
/// descent) and common (epoch pin) on a quiescent index. `sample` holds
/// loaded keys to probe.
void CoreLayerProbes(const OwnedIndex& idx, const std::vector<Key>& sample, Outcome* out,
                     uint64_t parent_span);

// Workload entry points (index_bench.cc, served_bench.cc).
void RunIndexWorkload(const Config& cfg, bool write_mix, Outcome* out);
void RunServedWorkload(const Config& cfg, Outcome* out);

/// Shard- and server-layer probes for the index workloads' traced runs: a
/// fresh alt_server with the `served` settings, one short closed-loop phase,
/// then the in-process ShardedAltIndex probes over the same keyset.
void ServerAndShardProbes(const Config& cfg, Outcome* out);

}  // namespace perfbench
