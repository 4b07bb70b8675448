#include "bench.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>

#include "common/random.h"
#include "common/timer.h"
#include "datasets/dataset.h"

namespace perfbench {
namespace {
volatile uint32_t g_walk_sink = 0;  // keeps the latency walk observable
}  // namespace

void FailureLog::Add(const std::string& what) {
  count_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> g(mu_);
  if (messages_.size() < 8) messages_.push_back(what);
}

std::vector<std::string> FailureLog::messages() {
  std::lock_guard<std::mutex> g(mu_);
  return messages_;
}

void Outcome::Diag(const std::string& name, const std::string& value) {
  diag.emplace_back(name, value);
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

double MemoryLatencyNs(uint64_t seed) {
  constexpr size_t kSlots = (64u << 20) / sizeof(uint32_t);
  constexpr size_t kSteps = 1u << 20;
  // Sattolo's shuffle makes one cycle through every slot.
  std::vector<uint32_t> next(kSlots);
  for (size_t i = 0; i < kSlots; ++i) next[i] = static_cast<uint32_t>(i);
  alt::Rng rng(seed);
  for (size_t i = kSlots - 1; i > 0; --i) std::swap(next[i], next[rng.NextBounded(i)]);
  uint32_t p = 0;
  const uint64_t t0 = alt::NowNanos();
  for (size_t i = 0; i < kSteps; ++i) p = next[p];
  const uint64_t t1 = alt::NowNanos();
  g_walk_sink = p;
  return static_cast<double>(t1 - t0) / kSteps;
}

uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  return alt::Mix64(seed * 0x9e3779b97f4a7c15ULL + purpose + 1);
}

double PassSeconds(const Config& cfg) {
  return cfg.trace ? std::max(1.0, cfg.seconds / 2.0) : cfg.seconds;
}

std::string CheckScan(const std::vector<Key>& base, Key start, size_t count,
                      const std::pair<Key, Value>* got, size_t n) {
  char buf[160];
  if (n > count) return "scan returned more pairs than requested";
  for (size_t i = 0; i < n; ++i) {
    if (got[i].second != alt::ValueFor(got[i].first)) {
      std::snprintf(buf, sizeof(buf), "scan from %llu: wrong value for key %llu",
                    static_cast<unsigned long long>(start),
                    static_cast<unsigned long long>(got[i].first));
      return buf;
    }
    if (i > 0 && got[i].first <= got[i - 1].first) return "scan not strictly ascending";
  }
  if (n > 0 && got[0].first < start) return "scan returned a key below its start";
  auto it = std::lower_bound(base.begin(), base.end(), start);
  if (n == 0) return it == base.end() ? "" : "scan returned nothing although keys exist";
  // Every never-removed key between start and the last returned key must be
  // present: a gap means the scan skipped live data.
  const Key last = got[n - 1].first;
  size_t j = 0;
  for (; it != base.end() && *it <= last; ++it) {
    while (j < n && got[j].first < *it) ++j;
    if (j == n || got[j].first != *it) {
      std::snprintf(buf, sizeof(buf), "scan from %llu skipped live key %llu",
                    static_cast<unsigned long long>(start),
                    static_cast<unsigned long long>(*it));
      return buf;
    }
  }
  if (n < count && !base.empty() && last < base.back()) {
    return "scan returned fewer pairs than requested before the last key";
  }
  return "";
}

void Attribution::Note(int kind, alt::ServedBy by, uint64_t ns) {
  const size_t t = static_cast<size_t>(by);
  if (kind == kRead) {
    read_tag[t] += 1;
    if (by == alt::ServedBy::kLearnedSlot) read_learned.Record(ns);
    if (by == alt::ServedBy::kArtFpShallow || by == alt::ServedBy::kArtFpMid ||
        by == alt::ServedBy::kArtFpDeep) {
      read_fp.Record(ns);
    }
  } else if (kind == kWrite) {
    write_tag[t] += 1;
    if (by == alt::ServedBy::kConflictInsert) write_conflict.Record(ns);
  }
}

void Attribution::Merge(const Attribution& o) {
  for (size_t t = 0; t < alt::kNumServedBy; ++t) {
    read_tag[t] += o.read_tag[t];
    write_tag[t] += o.write_tag[t];
  }
  read_learned.Merge(o.read_learned);
  read_fp.Merge(o.read_fp);
  write_conflict.Merge(o.write_conflict);
}

void Attribution::Report(Outcome* out) const {
  using alt::ServedBy;
  auto tag = [](const uint64_t* v, ServedBy s) {
    return static_cast<double>(v[static_cast<size_t>(s)]);
  };
  double reads = 0, writes = 0;
  for (size_t t = 0; t < alt::kNumServedBy; ++t) {
    reads += static_cast<double>(read_tag[t]);
    writes += static_cast<double>(write_tag[t]);
  }
  const double learned = tag(read_tag, ServedBy::kLearnedSlot);
  const double fp = tag(read_tag, ServedBy::kArtFpShallow) +
                    tag(read_tag, ServedBy::kArtFpMid) + tag(read_tag, ServedBy::kArtFpDeep);
  const double root = tag(read_tag, ServedBy::kArtRoot);
  const double slot_ins = tag(write_tag, ServedBy::kSlotInsert);
  const double expansion =
      tag(read_tag, ServedBy::kExpansionPath) + tag(write_tag, ServedBy::kExpansionPath);
  auto share = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  out->layer.Set("core.learned_slot_share", share(learned, reads), "ratio");
  out->layer.Set("core.learned_slot_p99_ns", read_learned.Percentile(0.99), "ns");
  out->layer.Set("core.slot_insert_share", share(slot_ins, writes), "ratio");
  out->layer.Set("core.conflict_insert_p99_ns", write_conflict.Percentile(0.99), "ns");
  out->layer.Set("core.expansion_path_share", share(expansion, reads + writes), "ratio");
  out->layer.Set("art.fp_share", share(fp, reads), "ratio");
  out->layer.Set("art.root_share", share(root, reads), "ratio");
  out->layer.Set("art.fp_p99_ns", read_fp.Percentile(0.99), "ns");
  out->Diag("base.core.learned_slot_share", WithBase(learned, reads, "reads"));
  out->Diag("base.core.slot_insert_share", WithBase(slot_ins, writes, "inserts"));
  out->Diag("base.core.expansion_path_share",
            WithBase(expansion, reads + writes, "point ops"));
  out->Diag("base.art.fp_share", WithBase(fp, reads, "reads"));
  out->Diag("base.art.root_share", WithBase(root, reads, "reads"));
  out->Diag("base.per_path_p99_samples",
            "learned_slot " + std::to_string(read_learned.Count()) + ", fp " +
                std::to_string(read_fp.Count()) + ", conflict_insert " +
                std::to_string(write_conflict.Count()));
  std::string tags;
  for (size_t t = 0; t < alt::kNumServedBy; ++t) {
    if (read_tag[t] + write_tag[t] == 0) continue;
    tags += std::string(tags.empty() ? "" : ", ") +
            alt::ServedByName(static_cast<ServedBy>(t)) + " r" +
            std::to_string(read_tag[t]) + "/w" + std::to_string(write_tag[t]);
  }
  out->Diag("served_by_counts", tags);
}

double BulkLoadTimed(const std::vector<Key>& keys, const std::vector<Value>& values,
                     OwnedIndex* out) {
  out->index.reset();
  out->epoch.reset();
  out->epoch = std::make_unique<alt::EpochManager>("perfbench");
  alt::AltOptions options;
  options.epoch_manager = out->epoch.get();
  out->index = std::make_unique<alt::AltIndex>(options);
  const uint64_t t0 = alt::NowNanos();
  const alt::Status s = out->index->BulkLoad(keys.data(), values.data(), keys.size());
  const uint64_t t1 = alt::NowNanos();
  if (!s.ok()) return -1;
  return static_cast<double>(t1 - t0) * 1e-9;
}

}  // namespace perfbench
