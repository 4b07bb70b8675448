/// \file
/// \brief The `served` workload: a fresh alt_server child per run driven by
/// a seeded closed-loop generator; plus the shard and server layer probes.

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/random.h"
#include "common/timer.h"
#include "datasets/dataset.h"
#include "server/client.h"
#include "server/protocol.h"
#include "shard/sharded_alt_index.h"
#include "spans.h"

namespace perfbench {
namespace {

namespace srv = alt::server;

/// The PUT pool is this fraction of the preload: a run's first PUTs grow
/// the index by it, later PUTs update, so the structure settles early.
constexpr size_t kPutPoolDivisor = 10;
constexpr int kGetPct = 90;
constexpr int kPutPct = 5;  // the remaining 5% are SCANs
constexpr int kServerSpawns = 11;
constexpr size_t kRttProbes = 2000;
constexpr uint64_t kOpSpanEvery = 1024;
constexpr size_t kSpanCapPerThread = 2048;
constexpr double kProbePhaseSeconds = 2.0;
constexpr uint64_t kStartupTimeoutNs = 60ull * 1000000000ull;
constexpr uint64_t kStopTimeoutNs = 20ull * 1000000000ull;

std::string ReadFile(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

uint64_t FieldAfter(const std::string& text, const std::string& label) {
  const size_t p = text.find(label);
  if (p == std::string::npos) return 0;
  return std::strtoull(text.c_str() + p + label.size(), nullptr, 10);
}

/// CPU time, context switches (summed over threads) and RSS of a process.
struct ProcSample {
  double user_s = 0;
  double sys_s = 0;
  uint64_t ctx = 0;
  uint64_t rss_bytes = 0;
};

ProcSample ReadProc(pid_t pid) {
  ProcSample s;
  const std::string dir = "/proc/" + std::to_string(pid);
  const std::string stat = ReadFile(dir + "/stat");
  const size_t close = stat.rfind(')');
  if (close != std::string::npos) {
    std::istringstream in(stat.substr(close + 2));
    std::vector<std::string> f;
    std::string tok;
    while (in >> tok) f.push_back(tok);
    // Fields after the command name start at field 3 (state); utime and
    // stime are fields 14 and 15.
    if (f.size() > 12) {
      const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
      s.user_s = std::strtod(f[11].c_str(), nullptr) / tick;
      s.sys_s = std::strtod(f[12].c_str(), nullptr) / tick;
    }
  }
  s.rss_bytes = FieldAfter(ReadFile(dir + "/status"), "VmRSS:") * 1024;
  if (DIR* d = opendir((dir + "/task").c_str())) {
    while (dirent* e = readdir(d)) {
      if (e->d_name[0] == '.') continue;
      const std::string st = ReadFile(dir + "/task/" + e->d_name + "/status");
      s.ctx += FieldAfter(st, "\nvoluntary_ctxt_switches:") +
               FieldAfter(st, "nonvoluntary_ctxt_switches:");
    }
    closedir(d);
  }
  return s;
}

bool PinToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

double GenCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// A fresh alt_server child. The destructor always stops it with SIGTERM
/// and reaps it, so no path leaves a server running.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawn and wait for the startup JSON line. \return empty or an error.
  std::string Start(const Config& cfg, uint64_t key_seed) {
    const std::vector<std::string> args = {
        cfg.server_bin, "--port", "0", "--workers", std::to_string(cfg.server_workers),
        "--shards", std::to_string(cfg.server_shards), "--partition", "range",
        "--batch", std::to_string(cfg.server_batch), "--dataset", "fb", "--keys",
        std::to_string(cfg.served_keys), "--seed", std::to_string(key_seed)};
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    // The server runs on the first `workers` CPUs of the affinity mask, the
    // generator on the ones after them, so the two never compete for a core.
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    for (int c = 0; c < cfg.server_workers; ++c) CPU_SET(cfg.cpus[c], &cpus);
    int out_pipe[2], err_pipe[2];
    if (pipe2(out_pipe, O_CLOEXEC) != 0) return "pipe failed";
    if (pipe2(err_pipe, O_CLOEXEC) != 0) {
      close(out_pipe[0]);
      close(out_pipe[1]);
      return "pipe failed";
    }
    const pid_t parent = getpid();
    const uint64_t t0 = alt::NowNanos();
    pid_ = fork();
    if (pid_ == 0) {
      // Child: only async-signal-safe calls until exec.
      prctl(PR_SET_PDEATHSIG, SIGTERM);
      if (getppid() != parent) _exit(126);
      if (sched_setaffinity(0, sizeof(cpus), &cpus) != 0) _exit(125);
      dup2(out_pipe[1], 1);
      dup2(err_pipe[1], 2);
      execv(argv[0], argv.data());
      _exit(127);
    }
    close(out_pipe[1]);
    close(err_pipe[1]);
    out_fd_ = out_pipe[0];
    err_fd_ = err_pipe[0];
    if (pid_ < 0) return "fork failed";
    std::string line;
    while (line.find('\n') == std::string::npos) {
      const uint64_t now = alt::NowNanos();
      if (now - t0 > kStartupTimeoutNs) return "alt_server did not start within 60 s";
      pollfd p{out_fd_, POLLIN, 0};
      if (poll(&p, 1, 100) <= 0) continue;
      char buf[512];
      const ssize_t k = read(out_fd_, buf, sizeof(buf));
      if (k <= 0) {
        return "alt_server exited before printing its startup line (it exits with code 125 "
               "if it cannot be pinned to its CPUs)";
      }
      line.append(buf, static_cast<size_t>(k));
    }
    ready_s_ = static_cast<double>(alt::NowNanos() - t0) * 1e-9;
    port_ = static_cast<uint16_t>(FieldAfter(line, "\"port\":"));
    if (port_ == 0) return "no port in alt_server startup line: " + line;
    return "";
  }

  /// SIGTERM, collect stderr (its last line is the final STATS JSON) and
  /// reap. Escalates to SIGKILL if the server ignores SIGTERM.
  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    const uint64_t t0 = alt::NowNanos();
    std::string err;
    bool killed = false;
    for (;;) {
      if (!killed && alt::NowNanos() - t0 > kStopTimeoutNs) {
        kill(pid_, SIGKILL);
        killed = true;
      }
      pollfd p{err_fd_, POLLIN, 0};
      if (poll(&p, 1, 100) <= 0) continue;
      char buf[4096];
      const ssize_t k = read(err_fd_, buf, sizeof(buf));
      if (k <= 0) break;  // EOF: the server has closed stderr
      err.append(buf, static_cast<size_t>(k));
    }
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    exit_ok_ = !killed && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    const size_t p = err.rfind("{\"server\"");
    final_stats_ = p == std::string::npos ? "" : err.substr(p, err.find('\n', p) - p);
    close(out_fd_);
    close(err_fd_);
    pid_ = -1;
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }
  double ready_s() const { return ready_s_; }
  bool exit_ok() const { return exit_ok_; }
  const std::string& final_stats() const { return final_stats_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int err_fd_ = -1;
  uint16_t port_ = 0;
  double ready_s_ = 0;
  bool exit_ok_ = false;
  std::string final_stats_;
};

/// Server-side counters around one phase.
struct ServerSample {
  ProcSample proc;
  uint64_t batch_keys = 0;
  uint64_t batch_flushes = 0;
};

bool SampleServer(const ServerProcess& server, srv::KvClient* stats, ServerSample* out,
                  uint64_t parent) {
  PhaseSpan span("stats_fetch", "server", parent);
  std::string json;
  if (!stats->Stats(&json).ok()) return false;
  out->batch_keys = FieldAfter(json, "\"batch_keys\":");
  out->batch_flushes = FieldAfter(json, "\"batch_flushes\":");
  out->proc = ReadProc(server.pid());
  return true;
}

/// Closed-loop generator phase against a running server.
struct GenPhase {
  std::vector<Window> windows;
  uint64_t completed = 0;
  std::vector<Key> puts;  ///< acknowledged PUT keys
  double gen_cpu_s = 0;
};

struct Pending {
  uint64_t send_ns;
  Key key;
  uint64_t id;
  int kind;
  bool fresh;  ///< PUT: first time this key is written, so it must be created
};

struct Conn {
  srv::KvClient client;
  int fd = -1;
  srv::FrameDecoder dec;
  std::vector<uint8_t> out;
  size_t off = 0;
  std::deque<Pending> pending;
};

struct GenThreadOut {
  std::vector<Window> windows;
  uint64_t completed = 0;
  std::vector<Key> puts;
  std::vector<SpanRec> spans;
};

/// The GET keyset (what alt_server preloads) and the PUT pool: shuffled fb
/// keys outside the GET keyset, so PUTs land all over the key space and
/// never overwrite a key a GET verifies.
struct ServedKeys {
  std::vector<Key> preload;
  std::vector<Key> put_pool;
};

GenPhase RunGenPhase(const Config& cfg, uint16_t port, const ServedKeys& sk, double seconds,
                     int phase_no, bool traced, uint64_t parent, Outcome* out) {
  const std::vector<Key>& keys = sk.preload;
  PhaseSpan span(traced ? "timed_phase.traced" : "timed_phase", "bench", parent);
  const int nt = cfg.gen_threads;
  const size_t num_windows = static_cast<size_t>(std::max(1.0, seconds));  // 1-second windows
  const uint64_t win_ns = static_cast<uint64_t>(seconds * 1e9 / num_windows);
  std::vector<GenThreadOut> outs(nt);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<uint64_t> t0_shared{0};
  std::atomic<bool> pin_failed{false};

  auto worker = [&](int tid) {
    GenThreadOut& res = outs[tid];
    res.windows.resize(num_windows);
    if (!PinToCpu(cfg.cpus[cfg.server_workers + tid])) {
      pin_failed.store(true, std::memory_order_relaxed);
    }
    alt::Rng rng(SubSeed(cfg.seed, 300 + phase_no * 16 + tid));
    // Each thread owns a disjoint slice of the PUT pool; after a full pass it
    // starts over, and those PUTs must then report an update.
    const size_t put_begin = sk.put_pool.size() * tid / nt;
    const size_t put_end = sk.put_pool.size() * (tid + 1) / nt;
    size_t put_pos = put_begin;
    bool put_fresh = true;
    uint64_t next_id = 1;
    const int nc = cfg.conns_per_thread;
    std::unique_ptr<Conn[]> conns(new Conn[nc]);
    bool failed = false;
    for (int i = 0; i < nc && !failed; ++i) {
      Conn& c = conns[i];
      if (!c.client.Connect("127.0.0.1", port, 5000).ok()) {
        out->failures.Add("generator could not connect to alt_server");
        failed = true;
        break;
      }
      c.fd = c.client.fd();
      fcntl(c.fd, F_SETFL, fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    }
    ready.fetch_add(1, std::memory_order_acq_rel);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    if (failed) return;
    const uint64_t t0 = t0_shared.load(std::memory_order_relaxed);
    const uint64_t t_end = t0 + win_ns * num_windows;

    auto fail = [&](const std::string& why) {
      out->failures.Add(why);
      failed = true;
    };
    auto queue = [&](Conn& c) {
      const uint64_t dice = rng.NextBounded(100);
      Pending p{0, 0, next_id++, kRead, false};
      if (dice < kGetPct) {
        p.key = keys[rng.NextBounded(keys.size())];
        srv::AppendGet(&c.out, p.id, p.key);
      } else if (dice < kGetPct + kPutPct) {
        p.kind = kWrite;
        if (put_pos == put_end) {
          put_pos = put_begin;
          put_fresh = false;
        }
        p.key = sk.put_pool[put_pos++];
        p.fresh = put_fresh;
        srv::AppendPut(&c.out, p.id, p.key, alt::ValueFor(p.key));
      } else {
        p.kind = kScan;
        p.key = keys[rng.NextBounded(keys.size())];
        srv::AppendScan(&c.out, p.id, p.key, kServedScanLen);
      }
      p.send_ns = alt::NowNanos();
      c.pending.push_back(p);
    };
    auto flush = [&](Conn& c) {
      while (c.off < c.out.size()) {
        const ssize_t k = send(c.fd, c.out.data() + c.off, c.out.size() - c.off, MSG_NOSIGNAL);
        if (k > 0) {
          c.off += static_cast<size_t>(k);
          continue;
        }
        if (k < 0 && errno == EINTR) continue;
        if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        fail(std::string("send to alt_server failed: ") + std::strerror(errno));
        return;
      }
      c.out.clear();
      c.off = 0;
    };
    srv::Response resp;
    auto handle = [&](Conn& c, const srv::FrameHeader& h, const uint8_t* body) {
      const uint64_t now = alt::NowNanos();
      if (c.pending.empty()) return fail("response without a request");
      const Pending p = c.pending.front();
      c.pending.pop_front();
      if (!h.is_response() || h.request_id != p.id || !srv::DecodeResponse(h, body, &resp)) {
        return fail("undecodable or out-of-order response");
      }
      std::string why;
      if (p.kind == kRead) {
        if (resp.status != srv::RespStatus::kOk || resp.value != alt::ValueFor(p.key)) {
          why = "GET of a preloaded key returned a wrong answer";
        }
      } else if (p.kind == kWrite) {
        if (resp.status != srv::RespStatus::kOk || resp.created != p.fresh) {
          why = p.fresh ? "PUT of a fresh key was not acknowledged as created"
                        : "PUT of a written key was not acknowledged as an update";
        } else if (p.fresh) {
          res.puts.push_back(p.key);
        }
      } else if (resp.status != srv::RespStatus::kOk) {
        why = "SCAN failed";
      } else {
        why = CheckScan(keys, p.key, kServedScanLen, resp.pairs.data(), resp.pairs.size());
      }
      if (!why.empty()) out->failures.Add(why);
      if (now >= t_end) return;  // completed after the phase: checked, not counted
      size_t w = static_cast<size_t>((now - t0) / win_ns);
      if (w >= num_windows) w = num_windows - 1;
      res.windows[w].ops += 1;
      res.windows[w].lat[p.kind].Record(now - p.send_ns);
      res.completed += 1;
      if (traced && p.id % kOpSpanEvery == 0 && res.spans.size() < kSpanCapPerThread) {
        SpanRec r;
        r.name = "op";
        r.category = "server";
        r.id = SpanLog::Get().NewId();
        r.parent = span.id();
        r.start_ns = p.send_ns;
        r.end_ns = now;
        r.tid = SpanLog::ThreadId();
        r.op = OpKindName(p.kind);
        r.served_by = "unattributed";  // the serving path reports no ServedBy
        r.op_id = (static_cast<uint64_t>(tid + 1) << 48) | p.id;
        res.spans.push_back(std::move(r));
      }
    };
    auto drain = [&](Conn& c) {
      for (;;) {
        srv::FrameHeader h;
        const uint8_t* body = nullptr;
        const auto r = c.dec.Next(&h, &body);
        if (r == srv::FrameDecoder::Result::kFrame) {
          handle(c, h, body);
          if (failed) return;
          continue;
        }
        if (r == srv::FrameDecoder::Result::kError) return fail("protocol error from alt_server");
        uint8_t buf[16384];
        const ssize_t k = recv(c.fd, buf, sizeof(buf), 0);
        if (k > 0) {
          c.dec.Feed(buf, static_cast<size_t>(k));
          continue;
        }
        if (k == 0) return fail("alt_server closed a connection");
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        return fail(std::string("recv from alt_server failed: ") + std::strerror(errno));
      }
    };

    for (int i = 0; i < nc; ++i) {
      for (int j = 0; j < cfg.window; ++j) queue(conns[i]);
      flush(conns[i]);
    }
    std::vector<pollfd> pfds(nc);
    while (!failed) {
      const uint64_t now = alt::NowNanos();
      if (now >= t_end) break;
      for (int i = 0; i < nc; ++i) {
        pfds[i].fd = conns[i].fd;
        pfds[i].events = static_cast<short>(
            POLLIN | (conns[i].off < conns[i].out.size() ? POLLOUT : 0));
        pfds[i].revents = 0;
      }
      const int timeout_ms = static_cast<int>(std::min<uint64_t>(100, (t_end - now) / 1000000 + 1));
      if (poll(pfds.data(), nc, timeout_ms) < 0 && errno != EINTR) {
        fail("poll failed");
        break;
      }
      for (int i = 0; i < nc && !failed; ++i) {
        Conn& c = conns[i];
        if ((pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
          fail("alt_server connection error");
          break;
        }
        if ((pfds[i].revents & POLLOUT) != 0) flush(c);
        if ((pfds[i].revents & POLLIN) != 0) drain(c);
        while (!failed && c.pending.size() < static_cast<size_t>(cfg.window)) queue(c);
        flush(c);
      }
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < nt; ++t) threads.emplace_back(worker, t);
  while (ready.load(std::memory_order_acquire) < nt) std::this_thread::yield();
  const double cpu0 = GenCpuSeconds();
  t0_shared.store(alt::NowNanos(), std::memory_order_relaxed);
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  if (pin_failed.load(std::memory_order_relaxed) && out->error.empty()) {
    out->error = "could not pin a generator thread to its CPU";
  }
  GenPhase res;
  res.gen_cpu_s = GenCpuSeconds() - cpu0;
  res.windows.resize(num_windows);
  for (GenThreadOut& o : outs) {
    for (size_t w = 0; w < num_windows; ++w) res.windows[w].Merge(o.windows[w]);
    res.completed += o.completed;
    res.puts.insert(res.puts.end(), o.puts.begin(), o.puts.end());
    SpanLog::Get().AddAll(&o.spans);
  }
  for (Window& w : res.windows) w.seconds = static_cast<double>(win_ns) * 1e-9;
  return res;
}

/// Median round-trip of single GETs, one in flight, before any load.
double UnloadedRttUs(uint16_t port, const std::vector<Key>& keys, uint64_t seed, Outcome* out,
                     uint64_t parent) {
  PhaseSpan span("probe.get_rtt_unloaded", "server", parent);
  srv::KvClient c;
  if (!c.Connect("127.0.0.1", port, 5000).ok()) {
    out->failures.Add("RTT probe could not connect");
    return 0;
  }
  alt::Rng rng(seed);
  Hist h;
  for (size_t i = 0; i < kRttProbes; ++i) {
    const Key k = keys[rng.NextBounded(keys.size())];
    Value v = 0;
    bool found = false;
    const uint64_t t0 = alt::NowNanos();
    const bool ok = c.Get(k, &v, &found).ok();
    h.Record(alt::NowNanos() - t0);
    if (!ok || !found || v != alt::ValueFor(k)) out->failures.Add("RTT probe GET wrong answer");
  }
  return h.Percentile(0.5) * 1e-3;
}

void ReportServerLayer(const GenPhase& phase, const ServerSample& a, const ServerSample& b,
                       double rtt_us, Outcome* out) {
  const double ops = static_cast<double>(std::max<uint64_t>(1, phase.completed));
  out->layer.Set("server.cpu_user_us_per_op", (b.proc.user_s - a.proc.user_s) * 1e6 / ops, "us");
  out->layer.Set("server.cpu_sys_us_per_op", (b.proc.sys_s - a.proc.sys_s) * 1e6 / ops, "us");
  out->layer.Set("server.ctx_switches_per_op", static_cast<double>(b.proc.ctx - a.proc.ctx) / ops,
                 "count");
  const double keys = static_cast<double>(b.batch_keys - a.batch_keys);
  const double flushes = static_cast<double>(b.batch_flushes - a.batch_flushes);
  out->layer.Set("server.batch_occupancy", flushes > 0 ? keys / flushes : 0.0, "count");
  out->layer.Set("server.get_rtt_unloaded_us", rtt_us, "us");
  out->layer.Set("gen.cpu_us_per_op", phase.gen_cpu_s * 1e6 / ops, "us");
  out->Diag("base.server.batch_occupancy", WithBase(keys, flushes, "GET keys per flush"));
  out->Diag("base.server.per_op", "over " + std::to_string(phase.completed) +
                                      " completed ops; server user " +
                                      Num(b.proc.user_s - a.proc.user_s) + " s, sys " +
                                      Num(b.proc.sys_s - a.proc.sys_s) + " s, generator " +
                                      Num(phase.gen_cpu_s) + " s");
}

/// In-process ShardedAltIndex with the server's options over the served
/// keyset plus the given PUT keys: shard balance and LookupBatch cost. With
/// `replay`, also the served op mix through the ServedBy-reporting calls
/// (the serving path itself reports no path), for the core/art shares.
void ShardProbes(const Config& cfg, const ServedKeys& sk, const std::vector<Key>& puts,
                 bool replay, Outcome* out, uint64_t parent) {
  PhaseSpan span("probe.shard", "shard", parent);
  const std::vector<Key>& keys = sk.preload;
  alt::shard::ShardedOptions so;
  so.num_shards = cfg.server_shards;
  so.partition = alt::shard::Partition::kRange;
  alt::shard::ShardedAltIndex sh(so);
  std::vector<Value> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = alt::ValueFor(keys[i]);
  if (!sh.BulkLoad(keys.data(), values.data(), keys.size()).ok()) {
    out->error = "ShardedAltIndex BulkLoad failed";
    return;
  }
  for (Key k : puts) {
    if (!sh.Insert(k, alt::ValueFor(k))) out->failures.Add("shard probe insert failed");
  }
  double max_keys = 0, sum_keys = 0;
  for (size_t i = 0; i < sh.num_shards(); ++i) {
    const double n = static_cast<double>(sh.shard(i).Size());
    max_keys = std::max(max_keys, n);
    sum_keys += n;
  }
  const double mean = sum_keys / static_cast<double>(sh.num_shards());
  out->layer.Set("shard.imbalance", mean > 0 ? max_keys / mean : 0.0, "ratio");
  out->Diag("base.shard.imbalance", "max " + Num(max_keys) + " / mean " + Num(mean) +
                                        " keys over " + std::to_string(sh.num_shards()) +
                                        " shards, after " + std::to_string(puts.size()) +
                                        " PUT keys");

  const size_t batch = static_cast<size_t>(cfg.server_batch);
  const size_t nb = std::max<size_t>(1, cfg.probe_keys / batch);
  alt::Rng rng(SubSeed(cfg.seed, 60));
  std::vector<Key> probe(nb * batch);
  for (Key& k : probe) k = keys[rng.NextBounded(keys.size())];
  std::vector<Value> got(batch);
  std::unique_ptr<bool[]> found(new bool[batch]);
  std::vector<double> reps;
  for (int r = 0; r < 3; ++r) {
    const uint64_t t0 = alt::NowNanos();
    for (size_t b = 0; b < nb; ++b) {
      const Key* ks = probe.data() + b * batch;
      if (sh.LookupBatch(ks, batch, got.data(), found.get()) != batch) {
        out->failures.Add("LookupBatch missed a loaded key");
      }
      for (size_t i = 0; i < batch; ++i) {
        if (got[i] != alt::ValueFor(ks[i])) out->failures.Add("LookupBatch wrong value");
      }
    }
    reps.push_back(static_cast<double>(alt::NowNanos() - t0) / static_cast<double>(probe.size()));
  }
  out->layer.Set("shard.lookup_batch_ns_per_key", Median(reps), "ns");

  if (!replay) return;
  PhaseSpan rs("probe.served_mix_replay", "core", parent);
  Attribution attr;
  std::vector<std::pair<Key, Value>> buf;
  // Replayed inserts take fresh fb keys: candidates already present are
  // skipped (outside the timed call).
  const std::vector<Key> fresh =
      alt::GenerateKeys(alt::Dataset::kFb, cfg.served_keys, SubSeed(cfg.seed, 55));
  size_t next_put = fresh.size();
  const size_t ops = 2 * cfg.probe_keys;
  for (size_t i = 0; i < ops; ++i) {
    const uint64_t dice = rng.NextBounded(100);
    alt::ServedBy by = alt::ServedBy::kUnattributed;
    if (dice < kGetPct) {
      const Key k = keys[rng.NextBounded(keys.size())];
      Value v = 0;
      const uint64_t t0 = alt::NowNanos();
      const bool ok = sh.LookupServed(k, &v, &by);
      attr.Note(kRead, by, alt::NowNanos() - t0);
      if (!ok || v != alt::ValueFor(k)) out->failures.Add("replay Lookup wrong answer");
    } else if (dice < kGetPct + kPutPct) {
      Key k = 0;
      Value v = 0;
      do {
        if (next_put == 0) break;
        k = fresh[--next_put];
      } while (sh.Lookup(k, &v));
      if (next_put == 0) continue;  // pool used up: the mix keeps its reads
      const uint64_t t0 = alt::NowNanos();
      const bool ok = sh.InsertServed(k, alt::ValueFor(k), &by);
      attr.Note(kWrite, by, alt::NowNanos() - t0);
      if (!ok) out->failures.Add("replay Insert failed");
    } else {
      const Key k = keys[rng.NextBounded(keys.size())];
      buf.clear();
      sh.Scan(k, kServedScanLen, &buf);
      const std::string why = CheckScan(keys, k, kServedScanLen, buf.data(), buf.size());
      if (!why.empty()) out->failures.Add(why);
    }
  }
  attr.Report(out);
  out->Diag("attribution_source", "in-process replay of the served mix on the shard fixture (" +
                                      std::to_string(ops) + " ops)");
}

/// The seed alt_server generates its preload keyset from.
uint64_t PreloadSeed(const Config& cfg) { return SubSeed(cfg.seed, 50); }

ServedKeys MakeServedKeys(const Config& cfg, uint64_t parent) {
  PhaseSpan span("keygen", "bench", parent);
  ServedKeys sk;
  sk.preload = alt::GenerateKeys(alt::Dataset::kFb, cfg.served_keys, PreloadSeed(cfg));
  // Same size as the preload so the candidates span the same key range.
  const std::vector<Key> candidates =
      alt::GenerateKeys(alt::Dataset::kFb, cfg.served_keys, SubSeed(cfg.seed, 53));
  for (Key k : candidates) {
    if (!std::binary_search(sk.preload.begin(), sk.preload.end(), k)) sk.put_pool.push_back(k);
  }
  alt::Rng rng(SubSeed(cfg.seed, 54));
  for (size_t i = sk.put_pool.size(); i > 1; --i) {
    std::swap(sk.put_pool[i - 1], sk.put_pool[rng.NextBounded(i)]);
  }
  sk.put_pool.resize(std::min(sk.put_pool.size(), cfg.served_keys / kPutPoolDivisor));
  return sk;
}

}  // namespace

void RunServedWorkload(const Config& cfg, Outcome* out) {
  PhaseSpan root("served", "bench");
  const uint64_t key_seed = PreloadSeed(cfg);
  const ServedKeys sk = MakeServedKeys(cfg, root.id());
  const std::vector<Key>& keys = sk.preload;
  out->Diag("keys", std::to_string(keys.size()) + " preloaded (fb), server seed " +
                        std::to_string(key_seed) + "; " + std::to_string(sk.put_pool.size()) +
                        " keys in the PUT pool");

  // Set-up is spawn -> startup line; several fresh servers, the last serves.
  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server;
  for (int i = 0; i < kServerSpawns; ++i) {
    PhaseSpan span("server_spawn_ready", "server", root.id());
    auto p = std::make_unique<ServerProcess>();
    const std::string err = p->Start(cfg, key_seed);
    if (!err.empty()) {
      out->error = err;
      return;
    }
    setups.push_back(p->ready_s());
    if (i + 1 < kServerSpawns) {
      p->Stop();
      if (!p->exit_ok() || p->final_stats().empty()) {
        out->error = "alt_server did not shut down cleanly on SIGTERM";
        return;
      }
    } else {
      server = std::move(p);
    }
  }
  out->e2e.Set("setup_s", Median(setups), "s");
  out->Diag("setup_spawns", "spawn->ready seconds: " + Joined(setups));

  const double rtt_us = UnloadedRttUs(server->port(), keys, SubSeed(cfg.seed, 51), out, root.id());
  srv::KvClient stats;
  if (!stats.Connect("127.0.0.1", server->port(), 5000).ok()) {
    out->error = "cannot open the STATS connection";
    return;
  }
  ServerSample before, after;
  if (!SampleServer(*server, &stats, &before, root.id())) {
    out->error = "STATS failed";
    return;
  }
  GenPhase plain = RunGenPhase(cfg, server->port(), sk, PassSeconds(cfg), 0, false, root.id(), out);
  if (!SampleServer(*server, &stats, &after, root.id())) {
    out->error = "STATS failed";
    return;
  }
  const PhaseSummary ps = Summarize(plain.windows);
  out->attempted += plain.completed;
  out->e2e.Set("throughput_mops", ps.throughput_mops, "Mops/s");
  for (int kind = 0; kind < kNumOpKinds; ++kind) {
    const std::string name = OpKindName(kind);
    out->e2e.Set(name + "_p50_us", ps.p50_us[kind], "us");
    out->e2e.Set(name + "_p99_us", ps.p99_us[kind], "us");
    out->Diag(name + "_p999", "p999 " + Num(ps.p999_us[kind]) + " us over " +
                                  std::to_string(ps.samples[kind]) + " samples");
  }
  const double resident_keys = static_cast<double>(keys.size() + plain.puts.size());
  out->e2e.Set("bytes_per_key", static_cast<double>(after.proc.rss_bytes) / resident_keys, "B");
  out->Diag("base.bytes_per_key", "alt_server VmRSS " + std::to_string(after.proc.rss_bytes) +
                                      " B over " + Num(resident_keys) + " resident keys");
  out->Diag("windows", std::to_string(plain.windows.size()) + " windows, " +
                           std::to_string(plain.completed) + " ops; Mops/s per window: " +
                           Joined(ps.window_mops));

  out->Diag("server_stats_phase",
            "batch_keys " + std::to_string(after.batch_keys - before.batch_keys) +
                ", batch_flushes " + std::to_string(after.batch_flushes - before.batch_flushes));
  stats.Close();
  server->Stop();
  if (!server->exit_ok()) out->failures.Add("alt_server exited uncleanly");
  out->Diag("server_final_stats", server->final_stats());
  server.reset();

  if (cfg.trace) {
    ReportServerLayer(plain, before, after, rtt_us, out);
    // The traced phase gets its own fresh server, so the PUTs of the
    // untraced phase do not bias the comparison.
    ServerProcess fresh;
    const std::string err = fresh.Start(cfg, key_seed);
    if (!err.empty()) {
      out->error = err;
      return;
    }
    GenPhase traced = RunGenPhase(cfg, fresh.port(), sk, PassSeconds(cfg), 1, true, root.id(), out);
    fresh.Stop();
    if (!fresh.exit_ok()) out->failures.Add("alt_server exited uncleanly");
    out->attempted += traced.completed;
    const double traced_mops = Summarize(traced.windows).throughput_mops;
    out->layer.Set("trace.overhead_frac",
                   ps.throughput_mops > 0 ? 1.0 - traced_mops / ps.throughput_mops : 0.0,
                   "ratio");
    out->Diag("base.trace.overhead_frac", "untraced " + Num(ps.throughput_mops) +
                                              " Mops/s, traced " + Num(traced_mops) + " Mops/s");
    // Core / art / epoch probes on one AltIndex over the served keyset.
    std::vector<Value> values(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) values[i] = alt::ValueFor(keys[i]);
    OwnedIndex idx;
    std::vector<double> loads;
    for (int i = 0; i < 3; ++i) {
      PhaseSpan span("bulk_load", "core", root.id());
      loads.push_back(BulkLoadTimed(keys, values, &idx));
    }
    out->layer.Set("core.bulk_load_s", Median(loads), "s");
    alt::Rng rng(SubSeed(cfg.seed, 52));
    std::vector<Key> sample(std::min(cfg.probe_keys, keys.size()));
    for (Key& k : sample) k = keys[rng.NextBounded(keys.size())];
    CoreLayerProbes(idx, sample, out, root.id());
    ShardProbes(cfg, sk, plain.puts, true, out, root.id());
  }
}

void ServerAndShardProbes(const Config& cfg, Outcome* out) {
  PhaseSpan root("server_shard_probes", "bench");
  const ServedKeys sk = MakeServedKeys(cfg, root.id());
  const std::vector<Key>& keys = sk.preload;
  ServerProcess server;
  {
    PhaseSpan span("server_spawn_ready", "server", root.id());
    const std::string err = server.Start(cfg, PreloadSeed(cfg));
    if (!err.empty()) {
      out->error = err;
      return;
    }
  }
  const double rtt_us = UnloadedRttUs(server.port(), keys, SubSeed(cfg.seed, 51), out, root.id());
  srv::KvClient stats;
  ServerSample before, after;
  if (!stats.Connect("127.0.0.1", server.port(), 5000).ok() ||
      !SampleServer(server, &stats, &before, root.id())) {
    out->error = "STATS failed";
    return;
  }
  GenPhase phase =
      RunGenPhase(cfg, server.port(), sk, kProbePhaseSeconds, 2, false, root.id(), out);
  if (!SampleServer(server, &stats, &after, root.id())) {
    out->error = "STATS failed";
    return;
  }
  out->attempted += phase.completed;
  ReportServerLayer(phase, before, after, rtt_us, out);
  stats.Close();
  server.Stop();
  if (!server.exit_ok()) out->failures.Add("alt_server exited uncleanly");
  ShardProbes(cfg, sk, phase.puts, false, out, root.id());
}

}  // namespace perfbench
