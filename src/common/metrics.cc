#include "common/metrics.h"

#include <algorithm>
#include <cstdio>

#include "common/json.h"
#include "common/timer.h"

namespace alt {
namespace metrics {

const char* CounterName(Counter c) {
  switch (c) {
    case Counter::kLearnedHits: return "learned_hits";
    case Counter::kLearnedNegatives: return "learned_negatives";
    case Counter::kSlotInserts: return "slot_inserts";
    case Counter::kConflictInserts: return "conflict_inserts";
    case Counter::kArtLookups: return "art_lookups";
    case Counter::kArtLookupSteps: return "art_lookup_steps";
    case Counter::kArtRootFallbacks: return "art_root_fallbacks";
    case Counter::kFastPointerHits: return "fast_pointer_hits";
    case Counter::kWriteBacks: return "write_backs";
    case Counter::kScanOps: return "scan_ops";
    case Counter::kEmptyScans: return "empty_scans";
    case Counter::kRetrainStarted: return "retrain_started";
    case Counter::kRetrainFinished: return "retrain_finished";
    case Counter::kTailModelsAppended: return "tail_models_appended";
    case Counter::kBatchLookups: return "batch_lookups";
    case Counter::kBatchScalarFallbacks: return "batch_scalar_fallbacks";
    case Counter::kCount: break;
  }
  return "unknown";
}

Registry& Registry::Global() {
  static Registry registry;
  return registry;
}

Snapshot Registry::TakeSnapshot() const {
  Snapshot s;
  s.at_ns = NowNanos();
  for (const Shard& shard : shards_) {
    for (size_t i = 0; i < kNumCounters; ++i) {
      s.counters[i] += shard.cells[i].load(std::memory_order_relaxed);
    }
    for (size_t i = 0; i < kFpDepthBuckets; ++i) {
      s.fp_hit_depth[i] +=
          shard.cells[kNumCounters + i].load(std::memory_order_relaxed);
    }
  }
  return s;
}

void Registry::ResetForTest() {
  for (Shard& shard : shards_) {
    for (auto& cell : shard.cells) cell.store(0, std::memory_order_relaxed);
  }
}

Snapshot Snapshot::DeltaSince(const Snapshot& base) const {
  Snapshot d = *this;
  for (size_t i = 0; i < kNumCounters; ++i) {
    d.counters[i] -= std::min(base.counters[i], d.counters[i]);
  }
  for (size_t i = 0; i < kFpDepthBuckets; ++i) {
    d.fp_hit_depth[i] -= std::min(base.fp_hit_depth[i], d.fp_hit_depth[i]);
  }
  return d;
}

Snapshot TakeSnapshot() {
#if defined(ALT_METRICS_DISABLED)
  Snapshot s;
  s.at_ns = NowNanos();
  return s;
#else
  return Registry::Global().TakeSnapshot();
#endif
}

void ResetForTest() {
#if !defined(ALT_METRICS_DISABLED)
  Registry::Global().ResetForTest();
#endif
}

namespace {

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out->append(buf);
}

}  // namespace

std::string ToJson(const Snapshot& s) {
  std::string out;
  out.reserve(1024);
  out += "{\"at_ns\":";
  AppendU64(&out, s.at_ns);
  out += ",\"counters\":{";
  for (size_t i = 0; i < kNumCounters; ++i) {
    if (i != 0) out += ',';
    // Names are static identifiers today, but route them through the shared
    // escaper anyway so a future name can never corrupt the document.
    AppendJsonQuoted(CounterName(static_cast<Counter>(i)), &out);
    out += ':';
    AppendU64(&out, s.counters[i]);
  }
  out += "},\"fp_hit_depth\":[";
  for (size_t i = 0; i < kFpDepthBuckets; ++i) {
    if (i != 0) out += ',';
    AppendU64(&out, s.fp_hit_depth[i]);
  }
  out += "]}";
  return out;
}

}  // namespace metrics
}  // namespace alt
