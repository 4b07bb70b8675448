#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>

#include "common/epoch.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "server/protocol.h"

namespace alt {
namespace server {

namespace {

constexpr size_t kMaxBatch = 64;
constexpr int kEpollTimeoutMs = 200;

/// Pin every shard's epoch for one drain cycle. EpochGuard nests, so the
/// guards the index takes internally per operation become counter bumps
/// instead of epoch publications — one pin amortized over the whole cycle
/// (DESIGN.md §13.3). Reclamation of memory retired mid-cycle is deferred to
/// the next cycle boundary, bounded by the epoll timeout. The guards live in
/// fixed storage, so a cycle allocates nothing to pin; they unpin in reverse
/// order.
class ShardEpochPin {
 public:
  explicit ShardEpochPin(shard::ShardedAltIndex& index) {
    for (size_t i = 0; i < index.num_shards(); ++i) guards_[i].emplace(index.shard_epoch(i));
  }

 private:
  std::optional<EpochGuard> guards_[shard::ShardedOptions::kMaxShards];
};

}  // namespace

/// One live connection. Owned by exactly one worker after the handoff
/// (single-threaded access; no locks needed past Worker::Enqueue).
struct Conn {
  explicit Conn(int fd_in) : fd(fd_in) {}
  int fd;
  FrameDecoder dec;
  std::vector<uint8_t> out;  ///< encoded responses not yet written
  size_t out_off = 0;        ///< bytes of `out` already sent
  bool read_ready = false;   ///< saw EPOLLIN, not yet drained (see DrainConn)
  bool peer_hup = false;     ///< saw EPOLLRDHUP/EPOLLHUP: read on to the EOF
  bool epollout_armed = false;
  bool closing = false;  ///< close once pending output is flushed

  size_t pending_out() const { return out.size() - out_off; }
};

class KvServer::Worker {
 public:
  Worker(KvServer* server, int id) : server_(server), id_(id) {
    for (auto& h : occ_hist_) h.store(0, std::memory_order_relaxed);
  }

  ~Worker() {
    if (epfd_ >= 0) close(epfd_);
    if (wake_fd_ >= 0) close(wake_fd_);
  }

  Status Init() {
    epfd_ = epoll_create1(EPOLL_CLOEXEC);
    if (epfd_ < 0) return Status::Internal("epoll_create1 failed");
    wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) return Status::Internal("eventfd failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr;  // nullptr marks the wake fd
    if (epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
      return Status::Internal("epoll_ctl(wake) failed");
    }
    return Status::OK();
  }

  void StartThread() {
    thread_ = std::thread([this] { Run(); });
  }

  void Wake() {
    uint64_t one = 1;
    // A full eventfd counter still wakes the worker; the result is advisory.
    ssize_t ignored = write(wake_fd_, &one, sizeof(one));
    (void)ignored;
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
    // Stop() joins the acceptor before the workers, so by now no more
    // Enqueues can race this drain. Connections handed off after the
    // worker's final AdoptPending() would otherwise leak fd + heap.
    std::vector<Conn*> orphaned;
    {
      SpinLockGuard g(pending_lock_);
      orphaned.swap(pending_);
    }
    for (Conn* c : orphaned) {
      close(c->fd);
      delete c;
    }
  }

  /// True once Run() has returned (epoll failure or shutdown); the acceptor
  /// stops routing new connections to an exited worker.
  bool exited() const { return exited_.load(std::memory_order_acquire); }

  /// Acceptor-side handoff: the lock pairs with AdoptPending() on the worker
  /// thread, so the worker sees a fully constructed Conn.
  void Enqueue(Conn* conn) {
    {
      SpinLockGuard g(pending_lock_);
      pending_.push_back(conn);
    }
    Wake();
  }

  // -- stats (read concurrently by StatsJson; all relaxed atomics) ----------

  uint64_t frames_in() const { return frames_in_.load(std::memory_order_relaxed); }
  uint64_t responses_out() const { return responses_out_.load(std::memory_order_relaxed); }
  uint64_t malformed() const { return malformed_.load(std::memory_order_relaxed); }
  uint64_t open_conns() const { return open_conns_.load(std::memory_order_relaxed); }
  uint64_t occ_hist(size_t n) const { return occ_hist_[n].load(std::memory_order_relaxed); }
  bool failed() const { return failed_.load(std::memory_order_relaxed); }
  uint64_t epoll_waits() const { return epoll_waits_.load(std::memory_order_relaxed); }
  uint64_t recv_calls() const { return recv_calls_.load(std::memory_order_relaxed); }
  uint64_t send_calls() const { return send_calls_.load(std::memory_order_relaxed); }

 private:
  struct BatchEntry {
    Conn* conn;
    uint64_t request_id;
  };

  void Run() {
    std::vector<epoll_event> events(64);
    while (!server_->stopping_.load(std::memory_order_acquire)) {
      // Frames left buffered by fairness/backpressure yields get no new
      // kernel event (ET, bytes already read): poll instead of sleeping so
      // revisit work is not delayed by up to kEpollTimeoutMs.
      const int timeout_ms = HasRevisitWork() ? 0 : kEpollTimeoutMs;
      int n = epoll_wait(epfd_, events.data(), static_cast<int>(events.size()),
                         timeout_ms);
      epoll_waits_.fetch_add(1, std::memory_order_relaxed);
      AdoptPending();
      if (server_->stopping_.load(std::memory_order_acquire)) break;
      if (n < 0) {
        if (errno == EINTR) continue;
        // Unrecoverable epoll failure: this worker can no longer serve. Flag
        // it so the acceptor stops routing new connections here, and leave a
        // trail (stderr + STATS worker_failures) — silence would look like a
        // client hang.
        std::fprintf(stderr, "[alt_server] worker %d: epoll_wait failed: %s; worker exiting\n",
                     id_, std::strerror(errno));
        failed_.store(true, std::memory_order_relaxed);
        break;
      }
      bool any_ready = n > 0;
      for (int i = 0; i < n; ++i) {
        Conn* c = static_cast<Conn*>(events[i].data.ptr);
        if (c == nullptr) {  // wake eventfd
          uint64_t drained;
          while (read(wake_fd_, &drained, sizeof(drained)) > 0) {
          }
          continue;
        }
        if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) c->closing = true;
        if ((events[i].events & (EPOLLRDHUP | EPOLLHUP)) != 0) c->peer_hup = true;
        if ((events[i].events & (EPOLLIN | EPOLLRDHUP)) != 0) c->read_ready = true;
        // EPOLLOUT needs no flag: the post-drain flush below retries every
        // connection with pending output each cycle.
      }
      // Revisits (frames left buffered by fairness/backpressure yields) make
      // work even on timeout wake-ups.
      if (!any_ready && !HasRevisitWork()) continue;
      DrainCycle();
    }
    // Worker exit: FlushBatch ran inside the last DrainCycle; nothing is
    // in flight. Close everything we own. pending_ is drained by Join()
    // once the acceptor can no longer hand off new connections.
    for (Conn* c : conns_) {
      close(c->fd);
      delete c;
    }
    open_conns_.store(0, std::memory_order_relaxed);
    conns_.clear();
    exited_.store(true, std::memory_order_release);
  }

  /// Actionable buffered work: frames/bytes the next drain cycle could make
  /// progress on right now. Connections gated on the client draining output
  /// (backpressure, or closing with unflushed responses) are excluded: their
  /// FlushOut already hit EAGAIN and armed EPOLLOUT, so epoll is the right
  /// thing to wait on — counting them would turn the zero-timeout revisit
  /// poll in Run() into a busy spin.
  bool HasRevisitWork() const {
    for (Conn* c : conns_) {
      if (c->closing) continue;  // reaped same cycle, or waiting on EPOLLOUT
      if (c->pending_out() > server_->options_.max_pending_out_bytes) continue;
      if (c->read_ready || c->dec.HasCompleteFrame()) return true;
    }
    return false;
  }

  /// One coalescing pass over every connection with work, under a single
  /// epoch pin. This is the batch-occupancy driver: all GET frames decoded
  /// anywhere in the cycle funnel into one LookupBatch stream.
  void DrainCycle() {
    trace::Span span("drain", "server");
    uint64_t frames_before = frames_in_.load(std::memory_order_relaxed);
    {
      ShardEpochPin pin(*server_->index_);
      for (Conn* c : conns_) {
        if (c->closing) continue;
        if (c->pending_out() > 0) FlushOut(c);
        if (c->pending_out() > server_->options_.max_pending_out_bytes) continue;
        if (c->read_ready || c->dec.HasCompleteFrame()) DrainConn(c);
      }
      FlushBatch();
    }
    for (Conn* c : conns_) {
      if (c->pending_out() > 0) FlushOut(c);
    }
    ReapClosed();
    span.set_detail(frames_in_.load(std::memory_order_relaxed) - frames_before);
  }

  void AdoptPending() {
    std::vector<Conn*> adopted;
    {
      SpinLockGuard g(pending_lock_);
      adopted.swap(pending_);
    }
    for (Conn* c : adopted) {
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
      ev.data.ptr = c;
      if (epoll_ctl(epfd_, EPOLL_CTL_ADD, c->fd, &ev) != 0) {
        close(c->fd);
        delete c;
        continue;
      }
      // Bytes may have arrived before the ADD; treat the connection as
      // readable so the first cycle drains it to EAGAIN regardless.
      c->read_ready = true;
      conns_.push_back(c);
      open_conns_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Read + decode one connection until it is drained, a fairness/backpressure
  /// limit, or a fatal frame. GETs accumulate in the batch; everything else
  /// flushes it first (per-connection response order, DESIGN.md §13.2).
  ///
  /// Under EPOLLET a recv that fills less than the buffer proves the socket
  /// drained: bytes that arrive later raise a new edge. So read_ready clears
  /// there, without the recv that would only return EAGAIN. Once the peer has
  /// shut down its side (EPOLLRDHUP/EPOLLHUP), the reads go on until recv
  /// returns 0, since that EOF raises no further edge.
  void DrainConn(Conn* c) {
    size_t frames = 0;
    for (;;) {
      FrameHeader h;
      const uint8_t* body = nullptr;
      FrameDecoder::Result r = c->dec.Next(&h, &body);
      if (r == FrameDecoder::Result::kFrame) {
        HandleFrame(c, h, body);
        if (c->closing) return;
        if (++frames >= server_->options_.max_frames_per_drain) return;
        if (c->pending_out() > server_->options_.max_pending_out_bytes) return;
        continue;
      }
      if (r == FrameDecoder::Result::kError) {
        // Framing is unrecoverable (no boundary to resync on): best-effort
        // MALFORMED notice with request_id 0, then close. Flush first so the
        // notice does not overtake responses to earlier coalesced GETs.
        FlushBatch();
        malformed_.fetch_add(1, std::memory_order_relaxed);
        AppendStatusResponse(&c->out, 0, RespStatus::kMalformed);
        responses_out_.fetch_add(1, std::memory_order_relaxed);
        c->closing = true;
        return;
      }
      // kNeedMore:
      if (!c->read_ready) return;
      ssize_t k = recv(c->fd, recv_buf_, sizeof(recv_buf_), 0);
      recv_calls_.fetch_add(1, std::memory_order_relaxed);
      if (k > 0) {
        c->dec.Feed(recv_buf_, static_cast<size_t>(k));
        if (static_cast<size_t>(k) < sizeof(recv_buf_) && !c->peer_hup) c->read_ready = false;
        continue;
      }
      if (k == 0) {  // orderly shutdown; answer what was received, then close
        c->closing = true;
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        c->read_ready = false;
        return;
      }
      c->closing = true;
      return;
    }
  }

  void HandleFrame(Conn* c, const FrameHeader& h, const uint8_t* body) {
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    const RespStatus v = ValidateRequest(h);
    if (v != RespStatus::kOk) {
      // Error responses obey per-connection order too (PROTOCOL.md lets
      // clients match positionally): flush coalesced GETs before replying.
      FlushBatch();
      malformed_.fetch_add(1, std::memory_order_relaxed);
      Respond(c, [&] { AppendStatusResponse(&c->out, h.request_id, v, h.code); });
      // A body-size mismatch means the client's encoder is broken; later
      // frames cannot be trusted even though framing still parses.
      if (v == RespStatus::kMalformed) c->closing = true;
      return;
    }
    switch (h.op()) {
      case Op::kGet: {
        batch_keys_buf_[batch_n_] = GetU64(body);
        batch_meta_[batch_n_] = {c, h.request_id};
        if (++batch_n_ >= std::min(server_->options_.batch_size, kMaxBatch)) {
          FlushBatch();
        }
        break;
      }
      case Op::kPut: {
        FlushBatch();
        const Key key = GetU64(body);
        const Value value = GetU64(body + 8);
        // Upsert: Insert loses to a concurrent insert of the same key, Update
        // loses to a concurrent remove; retry the pair a few times before
        // reporting an internal error.
        bool created = false, done = false;
        for (int attempt = 0; attempt < 8 && !done; ++attempt) {
          if (server_->index_->Insert(key, value)) {
            created = true;
            done = true;
          } else if (server_->index_->Update(key, value)) {
            done = true;
          }
        }
        Respond(c, [&] {
          if (done) {
            AppendPutResponse(&c->out, h.request_id, created);
          } else {
            AppendStatusResponse(&c->out, h.request_id, RespStatus::kServerError,
                                 static_cast<uint8_t>(Op::kPut));
          }
        });
        break;
      }
      case Op::kDel: {
        FlushBatch();
        const bool removed = server_->index_->Remove(GetU64(body));
        Respond(c, [&] {
          AppendStatusResponse(&c->out, h.request_id,
                               removed ? RespStatus::kOk : RespStatus::kNotFound,
                               static_cast<uint8_t>(Op::kDel));
        });
        break;
      }
      case Op::kScan: {
        FlushBatch();
        const Key start = GetU64(body);
        const uint32_t count = GetU32(body + 8);
        if (count > server_->options_.max_scan_count) {
          Respond(c, [&] {
            AppendStatusResponse(&c->out, h.request_id, RespStatus::kTooLarge,
                                 static_cast<uint8_t>(Op::kScan));
          });
          break;
        }
        scan_scratch_.clear();
        server_->index_->Scan(start, count, &scan_scratch_);
        Respond(c, [&] {
          AppendScanResponse(&c->out, h.request_id, scan_scratch_.data(),
                             static_cast<uint32_t>(scan_scratch_.size()));
        });
        break;
      }
      case Op::kStats: {
        FlushBatch();
        const std::string json = server_->StatsJson();
        Respond(c, [&] { AppendStatsResponse(&c->out, h.request_id, json); });
        break;
      }
    }
  }

  template <typename Fn>
  void Respond(Conn* c, Fn&& append) {
    append();
    responses_out_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Issue the coalesced GETs as one AMAC batch and scatter responses back
  /// to their connections in FIFO order.
  void FlushBatch() {
    const size_t n = batch_n_;
    if (n == 0) return;
    batch_n_ = 0;
    trace::Span span("batch_flush", "server", n);
    server_->index_->LookupBatch(batch_keys_buf_, n, batch_values_, batch_found_);
    for (size_t i = 0; i < n; ++i) {
      Conn* c = batch_meta_[i].conn;
      if (batch_found_[i]) {
        AppendValueResponse(&c->out, batch_meta_[i].request_id, batch_values_[i]);
      } else {
        AppendStatusResponse(&c->out, batch_meta_[i].request_id,
                             RespStatus::kNotFound,
                             static_cast<uint8_t>(Op::kGet));
      }
      responses_out_.fetch_add(1, std::memory_order_relaxed);
    }
    occ_hist_[n].fetch_add(1, std::memory_order_relaxed);
  }

  void FlushOut(Conn* c) {
    while (c->out_off < c->out.size()) {
      ssize_t k = send(c->fd, c->out.data() + c->out_off,
                       c->out.size() - c->out_off, MSG_NOSIGNAL);
      send_calls_.fetch_add(1, std::memory_order_relaxed);
      if (k > 0) {
        c->out_off += static_cast<size_t>(k);
        continue;
      }
      if (k < 0 && errno == EINTR) continue;
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!c->epollout_armed) {
          epoll_event ev{};
          ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
          ev.data.ptr = c;
          epoll_ctl(epfd_, EPOLL_CTL_MOD, c->fd, &ev);
          c->epollout_armed = true;
        }
        return;
      }
      // Peer gone: drop the rest of the output and reap.
      c->out.clear();
      c->out_off = 0;
      c->closing = true;
      return;
    }
    c->out.clear();
    c->out_off = 0;
    if (c->epollout_armed) {
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
      ev.data.ptr = c;
      epoll_ctl(epfd_, EPOLL_CTL_MOD, c->fd, &ev);
      c->epollout_armed = false;
    }
  }

  void ReapClosed() {
    for (size_t i = 0; i < conns_.size();) {
      Conn* c = conns_[i];
      if (c->closing && c->pending_out() == 0) {
        close(c->fd);  // removes the fd from epfd_ implicitly
        delete c;
        conns_[i] = conns_.back();
        conns_.pop_back();
        open_conns_.fetch_sub(1, std::memory_order_relaxed);
        continue;
      }
      ++i;
    }
  }

  KvServer* const server_;
  const int id_;
  int epfd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;

  SpinLock pending_lock_;
  std::vector<Conn*> pending_ GUARDED_BY(pending_lock_);

  // Worker-thread-private state below (no locks: one owner).
  std::vector<Conn*> conns_;
  Key batch_keys_buf_[kMaxBatch];
  BatchEntry batch_meta_[kMaxBatch];
  Value batch_values_[kMaxBatch];
  bool batch_found_[kMaxBatch];
  size_t batch_n_ = 0;
  uint8_t recv_buf_[64 * 1024];
  std::vector<std::pair<Key, Value>> scan_scratch_;

  std::atomic<uint64_t> frames_in_{0};
  std::atomic<uint64_t> responses_out_{0};
  std::atomic<uint64_t> malformed_{0};
  std::atomic<uint64_t> open_conns_{0};
  std::atomic<uint64_t> epoll_waits_{0};
  std::atomic<uint64_t> recv_calls_{0};
  std::atomic<uint64_t> send_calls_{0};
  std::atomic<bool> exited_{false};
  std::atomic<bool> failed_{false};  ///< exited on an epoll_wait error
  std::array<std::atomic<uint64_t>, kMaxBatch + 1> occ_hist_;
};

KvServer::KvServer(ServerOptions options) : options_(std::move(options)) {
  options_.batch_size = std::max<size_t>(1, std::min(options_.batch_size, kMaxBatch));
  if (options_.num_workers < 1) options_.num_workers = 1;
  index_ = std::make_unique<shard::ShardedAltIndex>(options_.sharded);
}

KvServer::~KvServer() { Stop(); }

Status KvServer::Preload(const Key* keys, const Value* values, size_t n) {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("Preload must run before Start");
  }
  Status s = index_->BulkLoad(keys, values, n);
  preloaded_ = s.ok();
  return s;
}

Status KvServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already running");
  }
  if (!preloaded_) {
    // An empty BulkLoad publishes the whole-range tail model, so a server
    // started cold still serves PUT/GET immediately.
    Status s = index_->BulkLoad(nullptr, nullptr, 0);
    if (!s.ok()) return s;
    preloaded_ = true;
  }

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status::IOError("socket() failed");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(options_.port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Stop();
    return Status::IOError(std::string("bind() failed: ") + std::strerror(errno));
  }
  if (listen(listen_fd_, 256) != 0) {
    Stop();
    return Status::IOError("listen() failed");
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Stop();
    return Status::IOError("getsockname() failed");
  }
  bound_port_ = ntohs(addr.sin_port);

  accept_epfd_ = epoll_create1(EPOLL_CLOEXEC);
  accept_wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (accept_epfd_ < 0 || accept_wake_fd_ < 0) {
    Stop();
    return Status::Internal("acceptor epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  epoll_ctl(accept_epfd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = accept_wake_fd_;
  epoll_ctl(accept_epfd_, EPOLL_CTL_ADD, accept_wake_fd_, &ev);

  stopping_.store(false, std::memory_order_release);
  workers_.clear();
  for (int i = 0; i < options_.num_workers; ++i) {
    auto w = std::make_unique<Worker>(this, i);
    Status s = w->Init();
    if (!s.ok()) {
      Stop();
      return s;
    }
    workers_.push_back(std::move(w));
  }
  for (auto& w : workers_) w->StartThread();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  running_.store(true, std::memory_order_release);
  return Status::OK();
}

void KvServer::AcceptLoop() {
  epoll_event events[16];
  while (!stopping_.load(std::memory_order_acquire)) {
    int n = epoll_wait(accept_epfd_, events, 16, kEpollTimeoutMs);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == accept_wake_fd_) {
        uint64_t drained;
        while (read(accept_wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      trace::Span span("accept", "server");
      uint64_t accepted = 0;
      for (;;) {
        int fd = accept4(listen_fd_, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) break;  // EAGAIN: burst drained (or transient error)
        int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        Conn* c = new Conn(fd);
        const size_t nw = workers_.size();
        size_t w = static_cast<size_t>(
            next_worker_.fetch_add(1, std::memory_order_relaxed) % nw);
        // Skip workers that died on an epoll failure — a connection assigned
        // to one would never be adopted and hang until the client times out.
        // (If every worker is dead, the Enqueue below still lands somewhere;
        // Worker::Join drains and closes unadopted connections at Stop().)
        for (size_t probe = 0; probe < nw && workers_[w]->exited(); ++probe) {
          w = (w + 1) % nw;
        }
        workers_[w]->Enqueue(c);
        accepts_.fetch_add(1, std::memory_order_relaxed);
        ++accepted;
      }
      span.set_detail(accepted);
    }
  }
}

void KvServer::Stop() {
  if (!stopping_.exchange(true, std::memory_order_acq_rel)) {
    if (accept_wake_fd_ >= 0) {
      uint64_t one = 1;
      ssize_t ignored = write(accept_wake_fd_, &one, sizeof(one));
      (void)ignored;
    }
    for (auto& w : workers_) w->Wake();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& w : workers_) w->Join();
  stopped_ = CollectStats();
  stopped_.open_connections = 0;  // joined workers closed all of theirs
  workers_.clear();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_epfd_ >= 0) {
    close(accept_epfd_);
    accept_epfd_ = -1;
  }
  if (accept_wake_fd_ >= 0) {
    close(accept_wake_fd_);
    accept_wake_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

ServerStats KvServer::CollectStats() const {
  ServerStats s = stopped_;
  s.accepts = accepts_.load(std::memory_order_relaxed);
  s.occupancy_hist.resize(kMaxBatch + 1, 0);
  for (const auto& w : workers_) {
    s.frames_in += w->frames_in();
    s.responses_out += w->responses_out();
    s.malformed += w->malformed();
    s.worker_failures += w->failed() ? 1 : 0;
    s.open_connections += w->open_conns();
    s.epoll_waits += w->epoll_waits();
    s.recv_calls += w->recv_calls();
    s.send_calls += w->send_calls();
    for (size_t i = 0; i <= kMaxBatch; ++i) s.occupancy_hist[i] += w->occ_hist(i);
  }
  // Flush totals are the histogram's mass and first moment.
  s.batch_flushes = 0;
  s.batch_keys = 0;
  for (size_t n = 0; n <= kMaxBatch; ++n) {
    s.batch_flushes += s.occupancy_hist[n];
    s.batch_keys += n * s.occupancy_hist[n];
  }
  return s;
}

std::string KvServer::StatsJson() const {
  const ServerStats s = CollectStats();
  std::string out = "{\"server\":{";
  auto field = [&out](const char* name, uint64_t v, bool comma = true) {
    out += '"';
    out += name;
    out += "\":";
    out += std::to_string(v);
    if (comma) out += ',';
  };
  field("accepts", s.accepts);
  field("open_connections", s.open_connections);
  field("frames_in", s.frames_in);
  field("responses_out", s.responses_out);
  field("malformed_frames", s.malformed);
  field("worker_failures", s.worker_failures);
  field("batch_flushes", s.batch_flushes);
  field("batch_keys", s.batch_keys);
  field("epoll_waits", s.epoll_waits);
  field("recv_calls", s.recv_calls);
  field("send_calls", s.send_calls);
  out += "\"mean_batch_occupancy\":";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", s.mean_batch_occupancy());
  out += buf;
  out += ",\"batch_occupancy_hist\":[";
  for (size_t i = 0; i < s.occupancy_hist.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(s.occupancy_hist[i]);
  }
  out += "]},\"metrics\":";
  out += metrics::ToJson(metrics::TakeSnapshot());
  out += "}";
  return out;
}

}  // namespace server
}  // namespace alt
