#pragma once

/// \file
/// \brief Latency histograms, windowed phase statistics and the metric table
/// the benchmark prints.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// \brief Fine-grained latency histogram (nanoseconds).
///
/// 1 ns buckets below 4096 ns, then 512 sub-buckets per power of two (0.2%
/// wide), so percentiles move with the system rather than snapping to a
/// coarse bucket edge. Percentiles interpolate inside the bucket.
class Hist {
 public:
  Hist();
  void Record(uint64_t ns);
  void Merge(const Hist& other);
  uint64_t Count() const { return total_; }
  /// \param q in (0, 1]. \return nanoseconds; 0 when empty.
  double Percentile(double q) const;

 private:
  static constexpr int kLinear = 4096;
  static constexpr int kSubBits = 9;
  static constexpr int kOctaves = 30;
  static size_t BucketOf(uint64_t ns);
  static double BucketLow(size_t b);
  static double BucketWidth(size_t b);

  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

enum OpKind { kRead = 0, kWrite = 1, kScan = 2, kNumOpKinds = 3 };
const char* OpKindName(int kind);

/// One time slice of a timed phase: completed ops and per-kind latency.
struct Window {
  double seconds = 0;
  uint64_t ops = 0;
  Hist lat[kNumOpKinds];
  void Merge(const Window& o);
};

double Median(std::vector<double> v);

/// Summary of a windowed phase. Each figure is the median over windows, so a
/// single disturbed second does not move it.
struct PhaseSummary {
  double throughput_mops = 0;
  double p50_us[kNumOpKinds] = {};
  double p99_us[kNumOpKinds] = {};
  double p999_us[kNumOpKinds] = {};  ///< diagnostic only, never compared
  uint64_t samples[kNumOpKinds] = {};
  uint64_t ops = 0;
  double seconds = 0;
  std::vector<double> window_mops;  ///< per window, in time order
};
PhaseSummary Summarize(const std::vector<Window>& windows);

/// Metrics in the order they are set; each name is set once.
class MetricTable {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }
  /// `{"name":{"value":v,"unit":"u"},...}`
  std::string Json() const;

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

/// Decimal form of `v` with all 17 significant digits.
std::string Num(double v);

/// "a b c" with 4 significant digits each (diagnostic lists).
std::string Joined(const std::vector<double>& v);

/// A ratio with its base, e.g. "0.8342 (4171000/5000000 reads)".
std::string WithBase(double num, double den, const char* what);

}  // namespace perfbench
