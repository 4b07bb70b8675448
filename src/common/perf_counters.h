#pragma once

#include <cstdint>
#include <string>

namespace alt {
namespace perf {

/// \brief Per-thread micro-architectural counter group (DESIGN.md §10): the
/// measurement side of the hot-path pass, reporting *why* a path is fast
/// (cycles, LLC misses, branch mispredictions per lookup) instead of only
/// ops/sec.
///
/// Backed by perf_event_open with a three-tier fallback so the harness runs
/// everywhere and never silently reports zeros:
///  - kHardware: cycles + instructions + LLC(cache)-misses + branch-misses in
///    one scheduled group (read with PERF_FORMAT_GROUP, multiplexing-scaled
///    via time_enabled/time_running);
///  - kSoftware: hardware PMU unavailable (most containers/VMs) — task-clock
///    and page-faults still work and TSC supplies a cycles-per-op estimate;
///  - kUnavailable: perf_event_open rejected entirely (seccomp); only the TSC
///    cycle estimate is reported, with the open error preserved for display.
///
/// Usage (one instance per worker thread; not thread-safe):
///   ThreadCounters tc;            // opens fds, picks the tier
///   tc.Start();                   // reset + enable + TSC start
///   ... measured section ...
///   Reading r = tc.Stop();        // disable + read + TSC delta
enum class Tier { kHardware, kSoftware, kUnavailable };

struct Reading {
  Tier tier = Tier::kUnavailable;
  /// Hardware tier only; 0 otherwise.
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t llc_misses = 0;
  uint64_t branch_misses = 0;
  /// Software tier (also filled on the hardware tier where available).
  uint64_t task_clock_ns = 0;
  uint64_t page_faults = 0;
  /// Always valid on x86-64: TSC delta across Start()..Stop(). Reference
  /// cycles, not core cycles — unaffected by turbo/throttling, which is why
  /// scripts/perf_env.sh pins the clocks for comparable numbers.
  uint64_t tsc_cycles = 0;
  /// Multiplexing correction applied to the hardware group
  /// (time_enabled / time_running); 1.0 when the group was always scheduled.
  double scale = 1.0;

  void Accumulate(const Reading& other);
};

class ThreadCounters {
 public:
  ThreadCounters();
  ~ThreadCounters();

  ThreadCounters(const ThreadCounters&) = delete;
  ThreadCounters& operator=(const ThreadCounters&) = delete;

  void Start();
  Reading Stop();

  Tier tier() const { return tier_; }
  /// strerror of the failed hardware open when tier() != kHardware.
  const std::string& error() const { return error_; }

 private:
  static constexpr int kMaxEvents = 4;
  Tier tier_ = Tier::kUnavailable;
  int group_fd_ = -1;
  int fds_[kMaxEvents] = {-1, -1, -1, -1};
  int num_events_ = 0;
  uint64_t tsc_start_ = 0;
  std::string error_;
};

/// Name of the active tier for run headers: "hardware", "software (<why>)",
/// "unavailable (<why>)". `error` is the Open error of a representative
/// ThreadCounters.
std::string TierName(Tier tier, const std::string& error);

}  // namespace perf
}  // namespace alt
