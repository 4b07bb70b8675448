#pragma once

/// \file
/// \brief Flight-recorder span tracer (DESIGN.md §9).
///
/// A per-thread lock-free ring buffer of spans and instant events, recorded
/// with RAII `trace::Span` objects and exported as Chrome trace-event JSON
/// (loadable in Perfetto / chrome://tracing). The recorder is a *flight
/// recorder*: each thread keeps only its most recent `kRingCapacity` records,
/// so tracing can stay enabled for a whole run and the export shows the tail
/// of history — exactly what is needed to see where time went just before an
/// interesting moment (a retrain stall, a latency spike).
///
/// ## Cost model
///  - Compiled out (`-DALT_TRACING=OFF` → `ALT_TRACING_DISABLED`): every API
///    is an empty inline; spans cost nothing and no symbol is emitted.
///  - Compiled in but disabled (the default at runtime): one relaxed atomic
///    load per span constructor. Hot paths may instrument freely.
///  - Enabled: one `NowNanos()` pair plus ~6 relaxed stores into the calling
///    thread's own ring; no shared cache line is written.
///
/// ## Concurrency
/// Writers are wait-free and touch only their thread-local ring. A concurrent
/// reader (the exporter) snapshots rings through a per-cell sequence protocol:
/// the writer publishes odd-seq before and even-seq after the payload stores,
/// and the reader discards any cell whose sequence moved while it was read —
/// the same discipline as the per-line optimistic locks in the learned layer,
/// so concurrent export is TSan-clean without slowing the writer.
///
/// ## Contract
/// `name` and `category` must be string literals (or otherwise outlive the
/// recorder) — the ring stores the pointers, not copies.

#include <cstdint>
#include <string>
#include <vector>

#if !defined(ALT_TRACING_DISABLED)
#include <atomic>
#endif

namespace alt {
namespace trace {

/// Chrome trace-event phase of a record.
enum class Phase : uint8_t {
  kComplete,  ///< "X": a span with start + duration
  kInstant,   ///< "i": a point event (e.g. retrain trigger)
};

/// One exported record (already validated by the collector).
struct Record {
  const char* name;
  const char* category;
  uint64_t start_ns;  ///< NowNanos() at span begin / instant emit
  uint64_t dur_ns;    ///< 0 for instants
  uint64_t detail;    ///< span-specific payload (key count, bytes, ...)
  uint32_t tid;       ///< recorder-assigned dense thread id
  Phase phase;
};

#if !defined(ALT_TRACING_DISABLED)

/// \return true when spans are currently being recorded.
bool Enabled();

/// Turn recording on/off (relaxed global flag; spans started before the flip
/// may still record). Rings persist across disable/enable — WriteChromeTrace
/// exports whatever the flight recorder currently holds.
void SetEnabled(bool on);

/// Record a completed span (normally via trace::Span, not directly).
void RecordSpan(const char* name, const char* category, uint64_t start_ns,
                uint64_t dur_ns, uint64_t detail);

/// Record an instant event.
void RecordInstant(const char* name, const char* category, uint64_t detail);

/// Snapshot every thread's ring (oldest first per thread). Safe to call while
/// other threads record; torn cells are skipped. \param dropped if non-null,
/// receives the number of records lost to ring wrap-around or tearing.
std::vector<Record> Collect(uint64_t* dropped = nullptr);

/// Serialize records as Chrome trace-event JSON ({"traceEvents": [...]}).
std::string ToChromeJson(const std::vector<Record>& records);

/// Collect + serialize + write to `path`. \return false on I/O failure.
/// Always writes a valid (possibly empty) trace document.
bool WriteChromeTrace(const std::string& path);

/// Drop all recorded spans and thread registrations. Test-only: callers must
/// guarantee no thread is concurrently recording.
void ResetForTest();

/// \brief RAII scoped span: records [construction, destruction) into the
/// calling thread's ring when tracing is enabled at construction time.
class Span {
 public:
  explicit Span(const char* name, const char* category = "alt",
                uint64_t detail = 0)
      : name_(name), category_(category), detail_(detail), active_(Enabled()) {
    if (active_) start_ns_ = ClockNow();
  }

  ~Span() {
    if (active_) RecordSpan(name_, category_, start_ns_, ClockNow() - start_ns_, detail_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach/replace the span's payload after construction (e.g. a count that
  /// is only known at the end of the traced scope).
  void set_detail(uint64_t detail) { detail_ = detail; }

 private:
  static uint64_t ClockNow();

  const char* name_;
  const char* category_;
  uint64_t start_ns_ = 0;
  uint64_t detail_;
  bool active_;
};

#else  // ALT_TRACING_DISABLED: every entry point is a no-op inline.

inline bool Enabled() { return false; }
inline void SetEnabled(bool) {}
inline void RecordSpan(const char*, const char*, uint64_t, uint64_t, uint64_t) {}
inline void RecordInstant(const char*, const char*, uint64_t) {}
inline std::vector<Record> Collect(uint64_t* dropped = nullptr) {
  if (dropped != nullptr) *dropped = 0;
  return {};
}
std::string ToChromeJson(const std::vector<Record>& records);  // still links
bool WriteChromeTrace(const std::string& path);  // writes an empty document
inline void ResetForTest() {}

class Span {
 public:
  explicit Span(const char*, const char* = "alt", uint64_t = 0) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void set_detail(uint64_t) {}
};

#endif  // ALT_TRACING_DISABLED

}  // namespace trace
}  // namespace alt
