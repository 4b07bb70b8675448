#pragma once

/// \file
/// \brief Network-facing KV server over ShardedAltIndex (DESIGN.md §13).
///
/// Architecture (one process):
///
///   acceptor thread ── accept() ──> hands each connection to a worker
///   worker thread ×N ── epoll ET ──> drains ready connections, coalesces
///                                    GETs into one LookupBatch per flush
///
/// Each worker owns a private epoll instance; a connection is registered with
/// exactly one worker for its whole life, so all per-connection state is
/// single-threaded after the locked handoff queue. The interesting part is the
/// drain cycle: every epoll wake-up pins the epoch of every shard once, walks
/// the ready connections, and funnels their GET frames into an 8–32-entry
/// AMAC batch (AltIndex::LookupBatch, PR 1) — prefetch interleaving driven by
/// real traffic instead of a synthetic driver. Non-GET frames flush the
/// pending batch first, which preserves per-connection response order under
/// pipelining.
///
/// The wire protocol is docs/PROTOCOL.md (src/server/protocol.h).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/spinlock.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "shard/sharded_alt_index.h"

namespace alt {
namespace server {

struct ServerOptions {
  /// TCP port to bind on 0.0.0.0; 0 picks an ephemeral port (see port()).
  uint16_t port = 9117;

  /// Worker (epoll + drain) threads. Connections are assigned round-robin.
  int num_workers = 2;

  /// Max GET keys coalesced into one LookupBatch flush; clamped to [1, 64].
  /// 1 degenerates to scalar lookups (the A/B baseline in EXPERIMENTS.md).
  size_t batch_size = 16;

  /// Backpressure (DESIGN.md §13.4): a worker stops decoding frames from a
  /// connection whose pending output exceeds this many bytes, leaving further
  /// input in the kernel socket buffer until the client drains responses.
  size_t max_pending_out_bytes = 1u << 20;

  /// Fairness: at most this many frames decoded per connection per drain
  /// cycle; a connection with more buffered input yields to its neighbours
  /// and continues next cycle.
  size_t max_frames_per_drain = 128;

  /// SCAN count clamp (responses stay under protocol.h kMaxBodyLen).
  uint32_t max_scan_count = 1024;

  /// Index configuration (shard count, partition, per-shard AltOptions).
  shard::ShardedOptions sharded;
};

/// Aggregated server-side counters (also exported through the STATS opcode
/// and the process metrics registry — see common/metrics.h kServer*).
struct ServerStats {
  uint64_t accepts = 0;
  uint64_t frames_in = 0;
  uint64_t responses_out = 0;
  uint64_t malformed = 0;
  uint64_t batch_flushes = 0;
  uint64_t batch_keys = 0;
  uint64_t open_connections = 0;
  /// occupancy_hist[n] = flushes that carried exactly n keys (n <= 64).
  std::vector<uint64_t> occupancy_hist;

  double mean_batch_occupancy() const {
    return batch_flushes > 0
               ? static_cast<double>(batch_keys) / static_cast<double>(batch_flushes)
               : 0.0;
  }
};

class KvServer {
 public:
  explicit KvServer(ServerOptions options = ServerOptions{});
  ~KvServer();

  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  /// Bulk-load the index before Start() (single-threaded phase, sorted
  /// duplicate-free input — ConcurrentIndex::BulkLoad contract).
  Status Preload(const Key* keys, const Value* values, size_t n);

  /// Bind, listen, spawn acceptor + workers. Returns after the socket is
  /// live: a client may connect as soon as Start() returns OK.
  Status Start();

  /// Stop accepting, close every connection, join all threads. Idempotent;
  /// also run by the destructor. Counters survive: CollectStats/StatsJson
  /// afterwards report the finished run.
  void Stop();

  /// Actual bound port (after Start(); resolves port 0).
  uint16_t port() const { return bound_port_; }

  ServerStats CollectStats() const;

  /// JSON document served by the STATS opcode: {"server":{...},"metrics":{...}}.
  std::string StatsJson() const;

  shard::ShardedAltIndex& index() { return *index_; }
  const ServerOptions& options() const { return options_; }

 private:
  class Worker;
  friend class Worker;

  void AcceptLoop();

  ServerOptions options_;
  std::unique_ptr<shard::ShardedAltIndex> index_;

  int listen_fd_ = -1;
  int accept_wake_fd_ = -1;  ///< eventfd that interrupts the acceptor's epoll
  int accept_epfd_ = -1;
  uint16_t bound_port_ = 0;
  bool preloaded_ = false;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::vector<std::unique_ptr<Worker>> workers_;
  /// Counters of the workers Stop() joined, so stats read after Stop() (the
  /// alt_server exit line) still count the whole run.
  ServerStats stopped_;
  std::thread accept_thread_;
  std::atomic<uint64_t> next_worker_{0};
  std::atomic<uint64_t> accepts_{0};
};

}  // namespace server
}  // namespace alt
