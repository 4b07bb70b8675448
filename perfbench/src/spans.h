#pragma once

/// \file
/// \brief The benchmark's own span log. Spans are recorded only in a traced
/// run, kept in memory, and written once at the end as Chrome trace-event
/// JSON (open it at https://ui.perfetto.dev or chrome://tracing).
///
/// Every span carries an id and its parent's id, so a sampled per-op span
/// points at the phase span that issued it even though the two live on
/// different threads.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRec {
  const char* name = "";      ///< string literal
  const char* category = "";  ///< layer: "bench", "core", "art", "shard", "server", ...
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t tid = 0;
  // Per-op spans only.
  const char* op = nullptr;
  const char* served_by = nullptr;
  uint64_t op_id = 0;
  std::string args;  ///< extra `"k":v` pairs for phase spans (may be empty)
};

class SpanLog {
 public:
  static SpanLog& Get();

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  uint64_t NewId();
  static uint32_t ThreadId();

  void Add(SpanRec rec);
  void AddAll(std::vector<SpanRec>* recs);
  size_t size();

  /// Write every span as {"traceEvents":[...]}. \return false on I/O error.
  bool Write(const std::string& path);

 private:
  bool enabled_ = false;
  std::mutex mu_;
  std::vector<SpanRec> spans_;  // guarded by mu_
  uint64_t next_id_ = 1;        // guarded by mu_
};

/// RAII span around one benchmark phase (key generation, BulkLoad, a timed
/// phase, a probe loop, server spawn, ...). A no-op unless tracing is on.
class PhaseSpan {
 public:
  PhaseSpan(const char* name, const char* category, uint64_t parent = 0);
  ~PhaseSpan();
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

  uint64_t id() const { return rec_.id; }
  void Arg(const char* key, double value);

 private:
  bool on_;
  SpanRec rec_;
};

}  // namespace perfbench
