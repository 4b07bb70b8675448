#include "common/trace.h"

#include <cstdio>

#include "common/json.h"

#if !defined(ALT_TRACING_DISABLED)
#include <memory>

#include "common/spinlock.h"
#include "common/timer.h"
#endif

namespace alt {
namespace trace {

#if !defined(ALT_TRACING_DISABLED)

namespace {

/// Records retained per thread. Power of two; at 64 B/cell one ring is 256 KiB,
/// allocated lazily on the thread's first record while tracing is enabled.
constexpr uint64_t kRingCapacity = 4096;

/// One ring cell. Every field is atomic so a concurrent exporter is race-free
/// (TSan-clean); the generation is validated through `seq` exactly like the
/// learned layer's per-line optimistic words. Generation g of ring position
/// p publishes seq = 2*(g+1): the reader accepts a cell only when both seq
/// loads around the payload reads return the even value of the generation it
/// expects, so a wrapped or in-flight overwrite is discarded, never torn.
struct Cell {
  std::atomic<uint64_t> seq{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<const char*> category{nullptr};
  std::atomic<uint64_t> start_ns{0};
  std::atomic<uint64_t> dur_ns{0};
  std::atomic<uint64_t> detail{0};
  std::atomic<uint8_t> phase{0};
};

struct ThreadRing {
  explicit ThreadRing(uint32_t id) : tid(id) {}
  const uint32_t tid;
  std::atomic<uint64_t> head{0};  ///< records ever written (next generation)
  Cell cells[kRingCapacity];
};

std::atomic<bool> g_enabled{false};

/// Registry of every thread's ring. Rings are never deallocated while the
/// process lives (flight-recorder semantics: a finished thread's history stays
/// exportable), so the thread-local pointer below can never dangle.
class Registry {
 public:
  static Registry& Global() {
    static Registry* r = new Registry();  // leaked: outlives late-exiting threads
    return *r;
  }

  ThreadRing* Register() {
    SpinLockGuard g(lock_);
    rings_.push_back(std::make_unique<ThreadRing>(static_cast<uint32_t>(rings_.size())));
    return rings_.back().get();
  }

  std::vector<ThreadRing*> SnapshotRings() {
    SpinLockGuard g(lock_);
    std::vector<ThreadRing*> out;
    out.reserve(rings_.size());
    for (auto& r : rings_) out.push_back(r.get());
    return out;
  }

 private:
  SpinLock lock_;
  std::vector<std::unique_ptr<ThreadRing>> rings_;
};

ThreadRing* LocalRing() {
  thread_local ThreadRing* ring = nullptr;
  if (ring == nullptr) ring = Registry::Global().Register();
  return ring;
}

void Push(const char* name, const char* category, uint64_t start_ns,
          uint64_t dur_ns, uint64_t detail, Phase phase) {
  ThreadRing* ring = LocalRing();
  const uint64_t h = ring->head.load(std::memory_order_relaxed);
  Cell& c = ring->cells[h & (kRingCapacity - 1)];
  c.seq.store(2 * h + 1, std::memory_order_relaxed);
  // StoreStore: the odd ("write in progress") mark must reach memory before
  // any payload byte. TSan does not model fences, but every field is atomic,
  // so the exporter race stays instrumented-clean regardless.
  std::atomic_thread_fence(std::memory_order_release);
  c.name.store(name, std::memory_order_relaxed);
  c.category.store(category, std::memory_order_relaxed);
  c.start_ns.store(start_ns, std::memory_order_relaxed);
  c.dur_ns.store(dur_ns, std::memory_order_relaxed);
  c.detail.store(detail, std::memory_order_relaxed);
  c.phase.store(static_cast<uint8_t>(phase), std::memory_order_relaxed);
  c.seq.store(2 * (h + 1), std::memory_order_release);
  ring->head.store(h + 1, std::memory_order_release);
}

}  // namespace

uint64_t Span::ClockNow() { return NowNanos(); }

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void RecordSpan(const char* name, const char* category, uint64_t start_ns,
                uint64_t dur_ns, uint64_t detail) {
  Push(name, category, start_ns, dur_ns, detail, Phase::kComplete);
}

void RecordInstant(const char* name, const char* category, uint64_t detail) {
  if (!Enabled()) return;
  Push(name, category, NowNanos(), 0, detail, Phase::kInstant);
}

std::vector<Record> Collect(uint64_t* dropped) {
  uint64_t lost = 0;
  std::vector<Record> out;
  for (ThreadRing* ring : Registry::Global().SnapshotRings()) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    const uint64_t begin = head > kRingCapacity ? head - kRingCapacity : 0;
    lost += begin;  // wrapped away before this collect
    for (uint64_t g = begin; g < head; ++g) {
      Cell& c = ring->cells[g & (kRingCapacity - 1)];
      const uint64_t want = 2 * (g + 1);
      if (c.seq.load(std::memory_order_acquire) != want) {
        ++lost;  // being overwritten right now (or already wrapped)
        continue;
      }
      Record r;
      r.name = c.name.load(std::memory_order_relaxed);
      r.category = c.category.load(std::memory_order_relaxed);
      r.start_ns = c.start_ns.load(std::memory_order_relaxed);
      r.dur_ns = c.dur_ns.load(std::memory_order_relaxed);
      r.detail = c.detail.load(std::memory_order_relaxed);
      r.tid = ring->tid;
      r.phase = static_cast<Phase>(c.phase.load(std::memory_order_relaxed));
      std::atomic_thread_fence(std::memory_order_acquire);
      if (c.seq.load(std::memory_order_relaxed) != want) {
        ++lost;  // overwritten underneath us — discard the torn copy
        continue;
      }
      out.push_back(r);
    }
  }
  if (dropped != nullptr) *dropped = lost;
  return out;
}

void ResetForTest() {
  // Rings stay registered (live threads cache pointers into them); only the
  // contents are discarded. Callers guarantee no concurrent recording.
  for (ThreadRing* ring : Registry::Global().SnapshotRings()) {
    for (uint64_t i = 0; i < kRingCapacity; ++i) {
      ring->cells[i].seq.store(0, std::memory_order_relaxed);
    }
    ring->head.store(0, std::memory_order_release);
  }
}

#endif  // !ALT_TRACING_DISABLED

namespace {

void AppendEvent(const Record& r, std::string* out) {
  char buf[160];
  // Chrome trace-event timestamps are microseconds; keep ns resolution with
  // three decimals. pid is fixed (single process).
  std::snprintf(buf, sizeof(buf), "{\"pid\":1,\"tid\":%u,\"ts\":%.3f,",
                r.tid, static_cast<double>(r.start_ns) / 1000.0);
  *out += buf;
  if (r.phase == Phase::kComplete) {
    std::snprintf(buf, sizeof(buf), "\"ph\":\"X\",\"dur\":%.3f,",
                  static_cast<double>(r.dur_ns) / 1000.0);
    *out += buf;
  } else {
    *out += "\"ph\":\"i\",\"s\":\"t\",";
  }
  *out += "\"name\":";
  AppendJsonQuoted(r.name != nullptr ? r.name : "?", out);
  *out += ",\"cat\":";
  AppendJsonQuoted(r.category != nullptr ? r.category : "alt", out);
  std::snprintf(buf, sizeof(buf), ",\"args\":{\"detail\":%llu}}",
                static_cast<unsigned long long>(r.detail));
  *out += buf;
}

}  // namespace

std::string ToChromeJson(const std::vector<Record>& records) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Record& r : records) {
    if (!first) out += ",\n";
    first = false;
    AppendEvent(r, &out);
  }
  out += "],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

bool WriteChromeTrace(const std::string& path) {
  const std::string doc = ToChromeJson(Collect());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
  const int rc = std::fclose(f);
  return n == doc.size() && rc == 0;
}

}  // namespace trace
}  // namespace alt
