#include "spans.h"

#include <atomic>
#include <cstdio>

#include "common/timer.h"
#include "stats.h"

namespace perfbench {

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

uint64_t SpanLog::NewId() {
  std::lock_guard<std::mutex> g(mu_);
  return next_id_++;
}

uint32_t SpanLog::ThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void SpanLog::Add(SpanRec rec) {
  std::lock_guard<std::mutex> g(mu_);
  spans_.push_back(std::move(rec));
}

void SpanLog::AddAll(std::vector<SpanRec>* recs) {
  std::lock_guard<std::mutex> g(mu_);
  for (SpanRec& r : *recs) spans_.push_back(std::move(r));
  recs->clear();
}

size_t SpanLog::size() {
  std::lock_guard<std::mutex> g(mu_);
  return spans_.size();
}

bool SpanLog::Write(const std::string& path) {
  std::lock_guard<std::mutex> g(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t t0 = ~uint64_t{0};
  for (const SpanRec& r : spans_) t0 = r.start_ns < t0 ? r.start_ns : t0;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& r = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu",
                 i == 0 ? "" : ",\n", r.name, r.category, r.tid,
                 static_cast<double>(r.start_ns - t0) * 1e-3,
                 static_cast<double>(r.end_ns - r.start_ns) * 1e-3,
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent));
    if (r.op != nullptr) {
      std::fprintf(f, ",\"op_id\":%llu,\"op\":\"%s\",\"served_by\":\"%s\"",
                   static_cast<unsigned long long>(r.op_id), r.op,
                   r.served_by != nullptr ? r.served_by : "unattributed");
    }
    if (!r.args.empty()) std::fprintf(f, ",%s", r.args.c_str());
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

PhaseSpan::PhaseSpan(const char* name, const char* category, uint64_t parent)
    : on_(SpanLog::Get().enabled()) {
  if (!on_) return;
  rec_.name = name;
  rec_.category = category;
  rec_.parent = parent;
  rec_.id = SpanLog::Get().NewId();
  rec_.tid = SpanLog::ThreadId();
  rec_.start_ns = alt::NowNanos();
}

PhaseSpan::~PhaseSpan() {
  if (!on_) return;
  rec_.end_ns = alt::NowNanos();
  SpanLog::Get().Add(std::move(rec_));
}

void PhaseSpan::Arg(const char* key, double value) {
  if (!on_) return;
  if (!rec_.args.empty()) rec_.args += ",";
  rec_.args += std::string("\"") + key + "\":" + Num(value);
}

}  // namespace perfbench
