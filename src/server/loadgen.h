#pragma once

/// \file
/// \brief Load-generator core for alt_server (tools/alt_loadgen wraps this;
/// the loopback integration test and the CI server-smoke leg drive it
/// in-process).
///
/// Two modes (docs/OPERATIONS.md §"Load generation"):
///  - **closed loop**: each connection keeps `pipeline` requests in flight;
///    latency is measured send → response. Throughput is whatever the server
///    sustains at that concurrency — the classic saturation measurement.
///  - **open loop**: requests are *scheduled* at a fixed aggregate arrival
///    rate regardless of completions; latency is measured schedule →
///    response, so queueing delay under overload is visible (coordinated
///    omission avoided). The honest tail-latency measurement.
///
/// Workload: GETs draw uniformly from the same keyset the server preloaded
/// (identical GenerateKeys(dataset, n, seed) call — see OPERATIONS.md), so a
/// GET miss is a correctness failure, not noise. PUTs upsert per-connection
/// unique keys in a reserved high range; DELs remove previously PUT keys;
/// SCANs start at a random seeded key and must return ascending keys.

#include <cstdint>
#include <string>
#include <vector>

#include "common/key_codec.h"
#include "common/latency_recorder.h"
#include "datasets/dataset.h"

namespace alt {
namespace server {

struct LoadgenOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 9117;
  /// Keep retrying a refused connect for this long (server may still be
  /// binding when the load generator starts — CI races).
  uint64_t connect_retry_ms = 5000;

  int threads = 2;
  int connections_per_thread = 4;
  /// Total operations across all threads.
  uint64_t ops = 100000;

  bool open_loop = false;
  /// Aggregate target arrival rate (open loop only), ops/second.
  double rate_ops_per_sec = 50000;
  /// In-flight requests per connection (closed loop only).
  int pipeline = 8;

  /// Op mix in percent; the remainder up to 100 becomes GETs.
  unsigned put_pct = 5;
  unsigned del_pct = 0;
  unsigned scan_pct = 5;
  uint32_t scan_count = 20;

  /// Keyset the server preloaded: GenerateKeys(dataset, keyspace, seed).
  Dataset dataset = Dataset::kFb;
  size_t keyspace = 200000;
  /// Also seeds each thread's op stream (mix draws and GET/SCAN keys).
  uint64_t seed = 99;
  /// Verify GET payloads against ValueFor(key) (off when PUTs may overwrite
  /// seeded keys; the built-in mix never does).
  bool verify_values = true;
};

struct LoadgenResult {
  bool ok = false;            ///< transport-level success of the whole run
  std::string error;          ///< first transport/protocol error, if any
  /// Digest of the op stream's random draws (op mix and key picks, in order
  /// per thread, summed over threads). Runs with the same options and seed
  /// report the same digest when del_pct is 0; with DELs, how many draws are
  /// made depends on which connection each PUT went to.
  uint64_t op_digest = 0;
  uint64_t ops_sent = 0;
  uint64_t ops_completed = 0;
  /// Wrong status, GET miss on a seeded key, value mismatch, or unordered
  /// scan — each is a server correctness failure.
  uint64_t failed_ops = 0;
  double seconds = 0;
  LatencyHistogram latency;   ///< all completed ops (no sampling)
  std::string server_stats_json;  ///< STATS snapshot fetched after the run

  double throughput_mops() const {
    return seconds > 0 ? static_cast<double>(ops_completed) / seconds / 1e6 : 0;
  }
};

/// Run the configured load against a live server. Blocks until done.
LoadgenResult RunLoadgen(const LoadgenOptions& options);

/// One JSON object with the run configuration, latency percentiles and the
/// embedded server STATS document (CI contract: see .github/workflows/ci.yml
/// server-smoke leg).
std::string LoadgenResultJson(const LoadgenOptions& options,
                              const LoadgenResult& result);

}  // namespace server
}  // namespace alt
