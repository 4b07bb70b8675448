#include "server/loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <thread>

#include "common/random.h"
#include "common/timer.h"
#include "server/client.h"
#include "server/protocol.h"

namespace alt {
namespace server {

namespace {

/// PUT/DEL keys live far above every generated dataset key (generators stay
/// below 2^63), so write traffic never collides with the seeded GET keyset.
constexpr Key kPrivateKeyBase = 0xF000000000000000ull;

/// Abort a run when no response arrives for this long (dead server).
constexpr uint64_t kStallNs = 60ull * 1000000000ull;

/// Longest single wait for socket readiness (also bounds how late the stall
/// check runs).
constexpr uint64_t kMaxWaitNs = 100ull * 1000000ull;

struct PendingReq {
  uint64_t sched_ns;  ///< open loop: scheduled arrival; closed loop: == send
  Op op;
  Key key;
};

struct LgConn {
  int fd = -1;
  FrameDecoder dec;
  std::vector<uint8_t> out;
  size_t out_off = 0;
  std::deque<PendingReq> pending;  ///< responses arrive in this order
  std::vector<Key> owned;          ///< keys PUT and not yet DELeted
};

struct ThreadResult {
  uint64_t op_digest = 0;
  uint64_t sent = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  LatencyHistogram hist;
  std::string error;
};

class LoadThread {
 public:
  LoadThread(const LoadgenOptions& opt, const std::vector<Key>& keys, int tid,
             uint64_t quota, ThreadResult* result)
      : opt_(opt),
        keys_(keys),
        tid_(tid),
        quota_(quota),
        result_(result),
        rng_(Mix64(Mix64(opt.seed ^ 0x10adull) + static_cast<uint64_t>(tid) * 7919)),
        next_put_key_(kPrivateKeyBase +
                      (static_cast<uint64_t>(tid) << 40)) {}

  void Run() {
    if (!ConnectAll()) return;
    const uint64_t start_ns = NowNanos();
    uint64_t last_progress_ns = start_ns;

    // Open loop: aggregate rate split evenly across threads.
    const double thread_rate = opt_.rate_ops_per_sec / opt_.threads;
    const uint64_t interval_ns =
        opt_.open_loop && thread_rate > 0
            ? static_cast<uint64_t>(1e9 / thread_rate)
            : 0;
    uint64_t next_sched_ns = start_ns;
    size_t rr = 0;  // round-robin connection cursor (open loop)

    if (!opt_.open_loop) {
      for (LgConn& c : conns_) {
        for (int i = 0; i < opt_.pipeline && result_->sent < quota_; ++i) {
          QueueOp(c, NowNanos());
        }
      }
    }

    std::vector<pollfd> pfds(conns_.size());
    while (result_->completed < quota_ && result_->error.empty()) {
      const uint64_t now = NowNanos();
      if (opt_.open_loop) {
        uint64_t sched = next_sched_ns;
        while (result_->sent < quota_ && sched <= now) {
          QueueOp(conns_[rr], sched);
          rr = (rr + 1) % conns_.size();
          sched += interval_ns;
        }
        next_sched_ns = sched;
      }
      for (size_t i = 0; i < conns_.size(); ++i) {
        pfds[i].fd = conns_[i].fd;
        pfds[i].events = static_cast<short>(
            POLLIN | (conns_[i].out.size() > conns_[i].out_off ? POLLOUT : 0));
        pfds[i].revents = 0;
      }
      // Sleep until the next scheduled arrival at nanosecond resolution: a
      // millisecond timeout rounds every sub-millisecond gap down to a
      // zero-timeout poll, and the thread spins.
      uint64_t wait_ns = kMaxWaitNs;
      if (opt_.open_loop && result_->sent < quota_) {
        const uint64_t now2 = NowNanos();
        wait_ns = next_sched_ns > now2 ? std::min(next_sched_ns - now2, kMaxWaitNs) : 0;
      }
      const timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                             static_cast<long>(wait_ns % 1000000000)};
      const int n = ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
      if (n < 0 && errno != EINTR) {
        result_->error = std::string("ppoll() failed: ") + std::strerror(errno);
        break;
      }
      bool progressed = false;
      for (size_t i = 0; i < conns_.size() && result_->error.empty(); ++i) {
        if ((pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
          result_->error = "connection reset by server";
          break;
        }
        if ((pfds[i].revents & POLLOUT) != 0) FlushOut(conns_[i]);
        if ((pfds[i].revents & POLLIN) != 0) {
          progressed |= DrainResponses(conns_[i]) > 0;
        }
        // Closed loop: completions open window slots — refill immediately.
        if (!opt_.open_loop) {
          LgConn& c = conns_[i];
          while (result_->error.empty() && result_->sent < quota_ &&
                 c.pending.size() < static_cast<size_t>(opt_.pipeline)) {
            QueueOp(c, NowNanos());
          }
        }
      }
      if (progressed) last_progress_ns = NowNanos();
      if (result_->sent > result_->completed &&
          NowNanos() - last_progress_ns > kStallNs) {
        result_->error = "no responses for 60s: server stalled or dead";
        break;
      }
    }
    for (LgConn& c : conns_) {
      if (c.fd >= 0) close(c.fd);
    }
  }

 private:
  bool ConnectAll() {
    conns_.resize(static_cast<size_t>(opt_.connections_per_thread));
    for (LgConn& c : conns_) {
      KvClient probe;
      Status s = probe.Connect(opt_.host, opt_.port, opt_.connect_retry_ms);
      if (!s.ok()) {
        result_->error = s.ToString();
        return false;
      }
      // Steal the connected fd and drive it nonblocking from the poll loop.
      c.fd = dup(probe.fd());
      probe.Close();
      if (c.fd < 0 || fcntl(c.fd, F_SETFL, O_NONBLOCK) != 0) {
        result_->error = "failed to make connection nonblocking";
        return false;
      }
    }
    return true;
  }

  void QueueOp(LgConn& c, uint64_t sched_ns) {
    const uint64_t dice = Draw(100);
    PendingReq req{sched_ns, Op::kGet, 0};
    if (dice < opt_.put_pct) {
      req.op = Op::kPut;
      req.key = next_put_key_++;
      c.owned.push_back(req.key);
    } else if (dice < opt_.put_pct + opt_.del_pct) {
      if (!c.owned.empty()) {
        req.op = Op::kDel;
        req.key = c.owned.back();
        c.owned.pop_back();
      } else {
        // Nothing deletable yet (no PUT completed on this connection):
        // degrade to GET so the SCAN share stays at scan_pct exactly.
        req.key = keys_[Draw(keys_.size())];
      }
    } else if (dice < opt_.put_pct + opt_.del_pct + opt_.scan_pct) {
      req.op = Op::kScan;
      req.key = keys_[Draw(keys_.size())];
    } else {
      req.op = Op::kGet;
      req.key = keys_[Draw(keys_.size())];
    }
    const uint64_t id = next_id_++;
    switch (req.op) {
      case Op::kGet: AppendGet(&c.out, id, req.key); break;
      case Op::kPut: AppendPut(&c.out, id, req.key, ValueFor(req.key)); break;
      case Op::kDel: AppendDel(&c.out, id, req.key); break;
      case Op::kScan: AppendScan(&c.out, id, req.key, opt_.scan_count); break;
      case Op::kStats: break;  // not part of the generated mix
    }
    c.pending.push_back(req);
    result_->sent += 1;
    FlushOut(c);
  }

  /// One draw from the op stream, folded into the run's op digest.
  uint64_t Draw(uint64_t bound) {
    const uint64_t v = rng_.NextBounded(bound);
    result_->op_digest = Mix64(result_->op_digest ^ v);
    return v;
  }

  void FlushOut(LgConn& c) {
    while (c.out_off < c.out.size()) {
      ssize_t k = send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                       MSG_NOSIGNAL);
      if (k > 0) {
        c.out_off += static_cast<size_t>(k);
        continue;
      }
      if (k < 0 && errno == EINTR) continue;
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      result_->error = std::string("send() failed: ") + std::strerror(errno);
      return;
    }
    c.out.clear();
    c.out_off = 0;
  }

  size_t DrainResponses(LgConn& c) {
    size_t got = 0;
    for (;;) {
      FrameHeader h;
      const uint8_t* body = nullptr;
      FrameDecoder::Result r = c.dec.Next(&h, &body);
      if (r == FrameDecoder::Result::kFrame) {
        HandleResponse(c, h, body);
        ++got;
        continue;
      }
      if (r == FrameDecoder::Result::kError) {
        result_->error = std::string("protocol error: ") + c.dec.error();
        return got;
      }
      uint8_t buf[16384];
      ssize_t k = recv(c.fd, buf, sizeof(buf), 0);
      if (k > 0) {
        c.dec.Feed(buf, static_cast<size_t>(k));
        continue;
      }
      if (k == 0) {
        result_->error = "connection closed by server";
        return got;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return got;
      result_->error = std::string("recv() failed: ") + std::strerror(errno);
      return got;
    }
  }

  void HandleResponse(LgConn& c, const FrameHeader& h, const uint8_t* body) {
    if (c.pending.empty()) {
      result_->error = "response with no matching request";
      return;
    }
    const PendingReq req = c.pending.front();
    c.pending.pop_front();
    Response resp;
    if (!h.is_response() || !DecodeResponse(h, body, &resp)) {
      result_->error = "undecodable response frame";
      return;
    }
    result_->completed += 1;
    result_->hist.Record(NowNanos() - req.sched_ns);
    switch (req.op) {
      case Op::kGet:
        if (resp.status != RespStatus::kOk ||
            (opt_.verify_values && resp.value != ValueFor(req.key))) {
          result_->failed += 1;  // every GET targets a seeded key
        }
        break;
      case Op::kPut:
        if (resp.status != RespStatus::kOk) result_->failed += 1;
        break;
      case Op::kDel:
        if (resp.status != RespStatus::kOk) result_->failed += 1;
        break;
      case Op::kScan: {
        bool ok = resp.status == RespStatus::kOk && !resp.pairs.empty() &&
                  resp.pairs.front().first >= req.key;
        for (size_t i = 1; ok && i < resp.pairs.size(); ++i) {
          ok = resp.pairs[i - 1].first < resp.pairs[i].first;
        }
        if (!ok) result_->failed += 1;
        break;
      }
      case Op::kStats:
        break;
    }
  }

  const LoadgenOptions& opt_;
  const std::vector<Key>& keys_;
  const int tid_;
  const uint64_t quota_;
  ThreadResult* const result_;
  Rng rng_;
  Key next_put_key_;
  uint64_t next_id_ = 1;
  std::vector<LgConn> conns_;
};

}  // namespace

LoadgenResult RunLoadgen(const LoadgenOptions& options) {
  LoadgenResult result;
  LoadgenOptions opt = options;
  if (opt.threads < 1) opt.threads = 1;
  if (opt.connections_per_thread < 1) opt.connections_per_thread = 1;
  if (opt.pipeline < 1) opt.pipeline = 1;

  const std::vector<Key> keys = GenerateKeys(opt.dataset, opt.keyspace, opt.seed);

  std::vector<ThreadResult> per_thread(static_cast<size_t>(opt.threads));
  std::vector<std::thread> threads;
  const uint64_t start_ns = NowNanos();
  for (int t = 0; t < opt.threads; ++t) {
    const uint64_t quota = opt.ops / opt.threads +
                           (static_cast<uint64_t>(t) < opt.ops % opt.threads ? 1 : 0);
    threads.emplace_back([&, t, quota] {
      LoadThread worker(opt, keys, t, quota, &per_thread[static_cast<size_t>(t)]);
      worker.Run();
    });
  }
  for (auto& th : threads) th.join();
  result.seconds = static_cast<double>(NowNanos() - start_ns) * 1e-9;

  result.ok = true;
  for (const ThreadResult& tr : per_thread) {
    result.op_digest += tr.op_digest;
    result.ops_sent += tr.sent;
    result.ops_completed += tr.completed;
    result.failed_ops += tr.failed;
    result.latency.Merge(tr.hist);
    if (!tr.error.empty() && result.error.empty()) {
      result.error = tr.error;
      result.ok = false;
    }
  }

  // Final STATS snapshot over a fresh connection (the run's own connections
  // are closed by now).
  KvClient stats_client;
  if (stats_client.Connect(opt.host, opt.port, opt.connect_retry_ms).ok()) {
    stats_client.Stats(&result.server_stats_json);
  }
  return result;
}

std::string LoadgenResultJson(const LoadgenOptions& options,
                              const LoadgenResult& result) {
  char buf[64];
  std::string out = "{";
  auto raw = [&out](const char* name, const std::string& v, bool comma = true) {
    out += '"';
    out += name;
    out += "\":";
    out += v;
    if (comma) out += ',';
  };
  raw("mode", options.open_loop ? "\"open\"" : "\"closed\"");
  raw("threads", std::to_string(options.threads));
  raw("connections_per_thread", std::to_string(options.connections_per_thread));
  raw("pipeline", std::to_string(options.pipeline));
  std::snprintf(buf, sizeof(buf), "%.0f", options.rate_ops_per_sec);
  raw("rate_ops_per_sec", options.open_loop ? buf : "0");
  raw("keyspace", std::to_string(options.keyspace));
  raw("ok", result.ok ? "true" : "false");
  raw("op_digest", std::to_string(result.op_digest));
  raw("ops_sent", std::to_string(result.ops_sent));
  raw("ops_completed", std::to_string(result.ops_completed));
  raw("failed_ops", std::to_string(result.failed_ops));
  std::snprintf(buf, sizeof(buf), "%.3f", result.seconds);
  raw("seconds", buf);
  std::snprintf(buf, sizeof(buf), "%.4f", result.throughput_mops());
  raw("throughput_mops", buf);
  raw("p50_ns", std::to_string(result.latency.Percentile(0.50)));
  raw("p99_ns", std::to_string(result.latency.Percentile(0.99)));
  raw("p999_ns", std::to_string(result.latency.Percentile(0.999)));
  std::snprintf(buf, sizeof(buf), "%.1f", result.latency.MeanNs());
  raw("mean_ns", buf);
  raw("server_stats",
      result.server_stats_json.empty() ? "null" : result.server_stats_json,
      false);
  out += "}";
  return out;
}

}  // namespace server
}  // namespace alt
