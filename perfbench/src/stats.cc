#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

Hist::Hist() : counts_(kLinear + static_cast<size_t>(kOctaves) * (1u << kSubBits), 0) {}

size_t Hist::BucketOf(uint64_t ns) {
  if (ns < kLinear) return static_cast<size_t>(ns);
  const int msb = 63 - __builtin_clzll(ns);  // >= 12
  int octave = msb - 12;
  if (octave >= kOctaves) return kLinear + static_cast<size_t>(kOctaves) * (1u << kSubBits) - 1;
  const uint64_t sub = (ns >> (msb - kSubBits)) & ((1u << kSubBits) - 1);
  return kLinear + static_cast<size_t>(octave) * (1u << kSubBits) + static_cast<size_t>(sub);
}

double Hist::BucketLow(size_t b) {
  if (b < kLinear) return static_cast<double>(b);
  const size_t k = b - kLinear;
  const int octave = static_cast<int>(k >> kSubBits);
  const double base = std::ldexp(1.0, 12 + octave);
  return base + static_cast<double>(k & ((1u << kSubBits) - 1)) * (base / (1u << kSubBits));
}

double Hist::BucketWidth(size_t b) {
  if (b < kLinear) return 1.0;
  const int octave = static_cast<int>((b - kLinear) >> kSubBits);
  return std::ldexp(1.0, 12 + octave - kSubBits);
}

void Hist::Record(uint64_t ns) {
  counts_[BucketOf(ns)] += 1;
  total_ += 1;
}

void Hist::Merge(const Hist& other) {
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double Hist::Percentile(double q) const {
  if (total_ == 0) return 0;
  const double rank = std::max(1.0, std::ceil(q * static_cast<double>(total_)));
  uint64_t cum = 0;
  for (size_t b = 0; b < counts_.size(); ++b) {
    const uint64_t c = counts_[b];
    if (c == 0) continue;
    if (static_cast<double>(cum + c) >= rank) {
      // Samples spread evenly inside the bucket; take the rank's midpoint.
      const double within = (rank - static_cast<double>(cum) - 0.5) / static_cast<double>(c);
      return BucketLow(b) + within * BucketWidth(b);
    }
    cum += c;
  }
  return BucketLow(counts_.size() - 1);
}

const char* OpKindName(int kind) {
  switch (kind) {
    case kRead: return "read";
    case kWrite: return "write";
    case kScan: return "scan";
  }
  return "?";
}

void Window::Merge(const Window& o) {
  seconds = std::max(seconds, o.seconds);
  ops += o.ops;
  for (int k = 0; k < kNumOpKinds; ++k) lat[k].Merge(o.lat[k]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

PhaseSummary Summarize(const std::vector<Window>& windows) {
  PhaseSummary s;
  std::vector<double> tput;
  std::vector<double> p50[kNumOpKinds], p99[kNumOpKinds], p999[kNumOpKinds];
  for (const Window& w : windows) {
    if (w.seconds <= 0) continue;
    s.ops += w.ops;
    s.seconds += w.seconds;
    tput.push_back(static_cast<double>(w.ops) / w.seconds * 1e-6);
    for (int k = 0; k < kNumOpKinds; ++k) {
      const Hist& h = w.lat[k];
      s.samples[k] += h.Count();
      if (h.Count() == 0) continue;
      p50[k].push_back(h.Percentile(0.50) * 1e-3);
      p99[k].push_back(h.Percentile(0.99) * 1e-3);
      p999[k].push_back(h.Percentile(0.999) * 1e-3);
    }
  }
  s.window_mops = tput;
  s.throughput_mops = Median(tput);
  for (int k = 0; k < kNumOpKinds; ++k) {
    s.p50_us[k] = Median(p50[k]);
    s.p99_us[k] = Median(p99[k]);
    s.p999_us[k] = Median(p999[k]);
  }
  return s;
}

std::string MetricTable::Json() const {
  std::string out = "{";
  for (const Row& r : rows_) {
    if (out.size() > 1) out += ",";
    out += "\"" + r.name + "\":{\"value\":" + Num(r.value) + ",\"unit\":\"" + r.unit + "\"}";
  }
  return out + "}";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Joined(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof(buf), "%s%.4g", out.empty() ? "" : " ", x);
    out += buf;
  }
  return out;
}

std::string WithBase(double num, double den, const char* what) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%.4f (%.0f/%.0f %s)", den > 0 ? num / den : 0.0, num,
                den, what);
  return buf;
}

}  // namespace perfbench
