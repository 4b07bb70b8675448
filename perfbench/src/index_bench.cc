/// \file
/// \brief The in-process workloads `index-read` and `index-write`, and the
/// single-thread core / art / epoch probes.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <thread>

#include "bench.h"
#include "common/random.h"
#include "common/timer.h"
#include "common/zipf.h"
#include "core/model_directory.h"
#include "datasets/dataset.h"
#include "spans.h"

namespace perfbench {
namespace {

constexpr uint64_t kSpanEvery = 4096;  // 1-in-N sampled per-op spans
constexpr size_t kSpanCapPerThread = 2048;
constexpr int kProbeReps = 3;          // probe loops: median of this many
constexpr double kRoundSeconds = 3;    // index-read: timed seconds per loaded index
constexpr double kBurstSeconds = 0.5;  // index-read: insert + scan burst per round
constexpr double kWarmupSeconds = 1;   // the untimed warm-up round

volatile uint64_t g_sink = 0;  // keeps probe results observable

/// Operation mix of a timed phase; the remainder after reads and inserts
/// are scans.
struct Mix {
  int read_pct;
  int insert_pct;
  bool zipf_reads;    ///< Zipf-0.99 (scrambled) instead of uniform
  double pool_share;  ///< share of the insert pool after which the phase ends
};
constexpr Mix kReadMix{100, 0, false, 1.0};
// An index-write round ends after inserting 90% of the pool: far enough for
// models that drew more than their share of inserts to pass the §III-F
// trigger (inserts > build size), short of running the pool dry.
constexpr Mix kWriteMix{48, 50, true, 0.9};
constexpr Mix kBurstMix{0, 90, false, 1.0};

struct Data {
  std::vector<Key> loaded;  ///< sorted bulk-load half
  std::vector<Value> values;
  std::vector<Key> pool;  ///< the other half, shuffled: the insert pool
};

Data MakeData(const Config& cfg, uint64_t parent) {
  PhaseSpan span("keygen", "bench", parent);
  Data d;
  const std::vector<Key> keys =
      alt::GenerateKeys(alt::Dataset::kOsm, cfg.index_keys, SubSeed(cfg.seed, 1));
  const uint64_t split = SubSeed(cfg.seed, 2);
  d.loaded.reserve(keys.size() / 2 + 1);
  d.pool.reserve(keys.size() / 2 + 1);
  for (size_t i = 0; i < keys.size(); ++i) {
    (alt::Mix64(split + i) & 1 ? d.loaded : d.pool).push_back(keys[i]);
  }
  d.values.resize(d.loaded.size());
  for (size_t i = 0; i < d.loaded.size(); ++i) d.values[i] = alt::ValueFor(d.loaded[i]);
  alt::Rng rng(SubSeed(cfg.seed, 3));
  for (size_t i = d.pool.size(); i > 1; --i) std::swap(d.pool[i - 1], d.pool[rng.NextBounded(i)]);
  span.Arg("keys", static_cast<double>(keys.size()));
  return d;
}

struct ThreadOut {
  std::vector<Window> windows;
  Attribution attr;
  std::vector<SpanRec> spans;
};

/// One closed-loop timed phase over `threads` threads.
struct PhaseResult {
  std::vector<Window> windows;
  Attribution attr;
  bool pool_limited = false;
};

PhaseResult RunTimedPhase(const Config& cfg, alt::AltIndex* index, const Data& d,
                          const Mix& mix, bool traced, uint64_t seed, double seconds,
                          size_t num_windows, uint64_t parent, FailureLog* failures) {
  PhaseSpan span(traced ? "timed_phase.traced" : "timed_phase", "bench", parent);
  const int nt = cfg.threads;
  const uint64_t win_ns = static_cast<uint64_t>(seconds * 1e9 / num_windows);
  std::vector<ThreadOut> outs(nt);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<uint64_t> t0_shared{0};
  std::atomic<uint64_t> stop_ns{~uint64_t{0}};
  const size_t n = d.loaded.size();

  auto worker = [&](int tid) {
    ThreadOut& out = outs[tid];
    out.windows.resize(num_windows);
    alt::Rng rng(SubSeed(seed, 100 + tid));
    std::optional<alt::ScrambledZipf> zipf;
    if (mix.zipf_reads) zipf.emplace(n, 0.99, SubSeed(seed, 200 + tid));
    size_t pool_pos = d.pool.size() * tid / nt;
    const size_t pool_end =
        pool_pos + static_cast<size_t>(mix.pool_share * (d.pool.size() / nt));
    std::vector<std::pair<Key, Value>> scan_buf;
    scan_buf.reserve(kIndexScanLen);
    ready.fetch_add(1, std::memory_order_acq_rel);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    const uint64_t t0 = t0_shared.load(std::memory_order_relaxed);
    const uint64_t t_end = t0 + win_ns * num_windows;
    uint64_t now = alt::NowNanos();
    for (uint64_t opn = 0; now < t_end; ++opn) {
      if (stop_ns.load(std::memory_order_relaxed) != ~uint64_t{0}) break;
      const uint64_t dice = mix.read_pct == 100 ? 0 : rng.NextBounded(100);
      int kind = kScan;
      Key key = 0;
      if (dice < static_cast<uint64_t>(mix.read_pct)) {
        kind = kRead;
        key = d.loaded[zipf ? zipf->Next() : rng.NextBounded(n)];
      } else if (dice < static_cast<uint64_t>(mix.read_pct + mix.insert_pct)) {
        kind = kWrite;
        if (pool_pos == pool_end) {
          uint64_t expected = ~uint64_t{0};
          stop_ns.compare_exchange_strong(expected, now);
          break;
        }
        key = d.pool[pool_pos++];
      } else {
        key = d.loaded[rng.NextBounded(n)];
      }
      alt::ServedBy by = alt::ServedBy::kUnattributed;
      bool ok = true;
      Value v = 0;
      const uint64_t s = alt::NowNanos();
      if (kind == kRead) {
        const bool found = traced ? index->Lookup(key, &v, &by) : index->Lookup(key, &v);
        ok = found && v == alt::ValueFor(key);
      } else if (kind == kWrite) {
        ok = traced ? index->Insert(key, alt::ValueFor(key), &by)
                    : index->Insert(key, alt::ValueFor(key));
      } else {
        scan_buf.clear();
        index->Scan(key, kIndexScanLen, &scan_buf);
      }
      const uint64_t e = alt::NowNanos();
      size_t w = static_cast<size_t>((s - t0) / win_ns);
      if (w >= num_windows) w = num_windows - 1;
      out.windows[w].ops += 1;
      out.windows[w].lat[kind].Record(e - s);
      if (kind == kScan) {
        const std::string why =
            CheckScan(d.loaded, key, kIndexScanLen, scan_buf.data(), scan_buf.size());
        if (!why.empty()) failures->Add(why);
      } else if (!ok) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%s of key %llu failed or returned a wrong value",
                      kind == kRead ? "Lookup" : "Insert",
                      static_cast<unsigned long long>(key));
        failures->Add(buf);
      }
      if (traced) {
        out.attr.Note(kind, by, e - s);
        if (opn % kSpanEvery == 0 && out.spans.size() < kSpanCapPerThread) {
          SpanRec r;
          r.name = "op";
          r.category = "core";
          r.id = SpanLog::Get().NewId();
          r.parent = span.id();
          r.start_ns = s;
          r.end_ns = e;
          r.tid = SpanLog::ThreadId();
          r.op = OpKindName(kind);
          r.served_by = alt::ServedByName(by);
          r.op_id = (static_cast<uint64_t>(tid + 1) << 48) | opn;
          out.spans.push_back(std::move(r));
        }
      }
      now = e;
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < nt; ++t) threads.emplace_back(worker, t);
  while (ready.load(std::memory_order_acquire) < nt) std::this_thread::yield();
  const uint64_t t0 = alt::NowNanos();
  t0_shared.store(t0, std::memory_order_relaxed);
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  PhaseResult res;
  const uint64_t end = std::min(t0 + win_ns * num_windows, stop_ns.load());
  res.pool_limited = stop_ns.load() != ~uint64_t{0};
  for (size_t w = 0; w < num_windows; ++w) {
    Window merged;
    for (ThreadOut& o : outs) merged.Merge(o.windows[w]);
    const uint64_t ws = t0 + w * win_ns;
    const uint64_t we = std::min(ws + win_ns, end);
    // A window cut short by an exhausted insert pool counts over the part
    // that ran.
    if (we <= ws || merged.ops == 0) continue;
    merged.seconds = static_cast<double>(we - ws) * 1e-9;
    res.windows.push_back(std::move(merged));
  }
  for (ThreadOut& o : outs) {
    res.attr.Merge(o.attr);
    SpanLog::Get().AddAll(&o.spans);
  }
  return res;
}

std::vector<Key> SampleKeys(const std::vector<Key>& keys, size_t n, uint64_t seed) {
  alt::Rng rng(seed);
  std::vector<Key> out(std::min(n, keys.size()));
  for (Key& k : out) k = keys[rng.NextBounded(keys.size())];
  return out;
}

double BytesPerKey(const alt::AltIndex& index) {
  return static_cast<double>(index.MemoryUsage()) / static_cast<double>(index.Size());
}

void SetLatencyMetrics(const PhaseSummary& s, int kind, MetricTable* m, Outcome* out) {
  const std::string name = OpKindName(kind);
  m->Set(name + "_p50_us", s.p50_us[kind], "us");
  m->Set(name + "_p99_us", s.p99_us[kind], "us");
  char buf[128];
  std::snprintf(buf, sizeof(buf), "p999 %.3f us over %llu samples", s.p999_us[kind],
                static_cast<unsigned long long>(s.samples[kind]));
  out->Diag(name + "_p999", buf);
}

}  // namespace

void CoreLayerProbes(const OwnedIndex& idx, const std::vector<Key>& sample, Outcome* out,
                     uint64_t parent) {
  const alt::AltIndex& index = *idx.index;
  alt::EpochManager& epoch = *idx.epoch;
  const double n = static_cast<double>(sample.size());
  auto timed = [](auto&& body) {
    const uint64_t t0 = alt::NowNanos();
    body();
    return static_cast<double>(alt::NowNanos() - t0);
  };
  {
    PhaseSpan span("probe.epoch_pin", "common", parent);
    constexpr size_t kPins = 1000000;
    std::vector<double> reps;
    for (int r = 0; r < kProbeReps; ++r) {
      reps.push_back(timed([&] {
                       for (size_t i = 0; i < kPins; ++i) alt::EpochGuard g(epoch);
                     }) /
                     kPins);
    }
    out->layer.Set("epoch.pin_ns", Median(reps), "ns");
  }
  {
    PhaseSpan span("probe.locate", "core", parent);
    std::vector<double> reps;
    uint64_t sink = 0;
    for (int r = 0; r < kProbeReps; ++r) {
      alt::EpochGuard g(epoch);
      const alt::ModelDirectory::Snapshot* snap = index.directory().snapshot();
      reps.push_back(timed([&] {
                       for (Key k : sample) sink += alt::ModelDirectory::Locate(*snap, k);
                     }) /
                     n);
    }
    g_sink = sink;
    out->layer.Set("core.locate_ns", Median(reps), "ns");
  }
  {
    PhaseSpan span("probe.lookup", "core", parent);
    std::vector<double> reps;
    for (int r = 0; r < kProbeReps; ++r) {
      reps.push_back(timed([&] {
                       for (Key k : sample) {
                         Value v = 0;
                         if (!index.Lookup(k, &v) || v != alt::ValueFor(k)) {
                           out->failures.Add("probe Lookup returned a wrong answer");
                         }
                       }
                     }) /
                     n);
    }
    out->layer.Set("core.lookup_ns", Median(reps), "ns");
  }
  {
    PhaseSpan span("probe.art_root", "art", parent);
    std::vector<Key> art_keys;
    for (Key k : sample) {
      Value v = 0;
      alt::ServedBy by = alt::ServedBy::kUnattributed;
      index.Lookup(k, &v, &by);
      if (by == alt::ServedBy::kArtFpShallow || by == alt::ServedBy::kArtFpMid ||
          by == alt::ServedBy::kArtFpDeep || by == alt::ServedBy::kArtRoot) {
        art_keys.push_back(k);
      }
    }
    std::vector<double> reps;
    int steps = 0;
    for (int r = 0; r < kProbeReps && !art_keys.empty(); ++r) {
      steps = 0;
      alt::EpochGuard g(epoch);
      reps.push_back(timed([&] {
                       for (Key k : art_keys) {
                         Value v = 0;
                         if (!index.art().Lookup(k, &v, &steps) || v != alt::ValueFor(k)) {
                           out->failures.Add("ART root lookup missed an ART-resident key");
                         }
                       }
                     }) /
                     static_cast<double>(art_keys.size()));
    }
    const double an = static_cast<double>(art_keys.size());
    out->layer.Set("art.root_lookup_ns", Median(reps), "ns");
    out->layer.Set("art.root_steps", an > 0 ? steps / an : 0.0, "count");
    out->Diag("base.art.root_lookup", WithBase(an, n, "sampled keys resident in ART"));
  }
  {
    PhaseSpan span("probe.structure", "core", parent);
    const alt::AltIndex::StructuralStats st = index.CollectStructuralStats();
    const double keys = static_cast<double>(index.Size());
    out->layer.Set("core.expanding_models_end", static_cast<double>(st.expanding_models),
                   "count");
    out->layer.Set("core.expansion_bytes_per_key", st.expansion_bytes / keys, "B");
    out->layer.Set("core.model_bytes_per_key", st.model_bytes / keys, "B");
    const double occupied = static_cast<double>(st.slot_states[1]);
    out->layer.Set("core.slot_occupancy",
                   st.total_slots > 0 ? occupied / static_cast<double>(st.total_slots) : 0.0,
                   "ratio");
    out->layer.Set("art.bytes_per_key", st.art_bytes / keys, "B");
    out->Diag("base.core.slot_occupancy",
              WithBase(occupied, static_cast<double>(st.total_slots), "slots"));
    out->Diag("base.core.expanding_models_end",
              std::to_string(st.expanding_models) + " of " + std::to_string(st.num_models) +
                  " models");
    out->Diag("base.bytes_per_key_components",
              "keys " + std::to_string(index.Size()) + ", total " +
                  std::to_string(st.total_bytes) + " B, models " +
                  std::to_string(st.model_bytes) + ", expansions " +
                  std::to_string(st.expansion_bytes) + ", art " +
                  std::to_string(st.art_bytes) + ", directory " +
                  std::to_string(st.directory_bytes) + ", fast pointers " +
                  std::to_string(st.fast_pointer_bytes));
  }
}

void RunIndexWorkload(const Config& cfg, bool write_mix, Outcome* out) {
  PhaseSpan root(write_mix ? "index-write" : "index-read", "bench");
  const Data d = MakeData(cfg, root.id());
  out->Diag("keys", std::to_string(d.loaded.size()) + " loaded, " +
                        std::to_string(d.pool.size()) + " in the insert pool (osm)");
  const Mix mix = write_mix ? kWriteMix : kReadMix;
  // Every round runs on a freshly loaded index: the median over rounds
  // evens out where one index happened to land in memory, and no round can
  // run the insert pool dry. An index-read round lasts kRoundSeconds. An
  // index-write round lasts until it has inserted 90% of the pool, and rounds
  // repeat until the pass's seconds are used, so every round takes the same
  // structural path into the §III-F expansions.
  const double pass_s = PassSeconds(cfg);
  const int read_rounds = std::max(1, static_cast<int>(pass_s / kRoundSeconds));
  const double round_cap_s = write_mix ? pass_s : pass_s / read_rounds;

  std::vector<double> loads;
  std::vector<double> bytes_per_key;
  bool write_round_hit_cap = false;
  bool burst_ran_dry = false;
  Attribution attr;
  OwnedIndex idx;
  uint64_t warmup_ops = 0;
  // One pass of all rounds. The traced pass also attributes paths and runs
  // the single-thread layer probes on its last index. The first pass starts
  // with a warm-up round on its own index, whose answers are checked but
  // whose timings are dropped: a process's first round runs slow while its
  // heap grows and its pages fault in, memory that later rounds reuse.
  auto pass = [&](bool traced, bool warmup_round, uint64_t salt, std::vector<Window>* timed,
                  std::vector<Window>* probe) {
    double timed_s = 0;
    for (int r = warmup_round ? -1 : 0; write_mix ? timed_s < pass_s : r < read_rounds; ++r) {
      const bool warmup = r < 0;
      {
        PhaseSpan span(warmup ? "bulk_load.warmup" : "bulk_load", "core", root.id());
        const double s = BulkLoadTimed(d.loaded, d.values, &idx);
        if (s < 0) {
          out->error = "BulkLoad failed";
          return;
        }
        if (!warmup) loads.push_back(s);
      }
      if (warmup) {
        const PhaseResult w =
            RunTimedPhase(cfg, idx.index.get(), d, mix, traced, SubSeed(cfg.seed, salt + 99),
                          kWarmupSeconds, 1, root.id(), &out->failures);
        for (const Window& win : w.windows) warmup_ops += win.ops;
        continue;
      }
      PhaseResult p = RunTimedPhase(cfg, idx.index.get(), d, mix, traced,
                                    SubSeed(cfg.seed, salt + r), round_cap_s, 1, root.id(),
                                    &out->failures);
      write_round_hit_cap |= write_mix && !p.pool_limited;
      for (Window& w : p.windows) {
        timed_s += w.seconds;
        timed->push_back(std::move(w));
      }
      attr.Merge(p.attr);
      if (!traced) bytes_per_key.push_back(BytesPerKey(*idx.index));
      const bool last = write_mix ? timed_s >= pass_s : r + 1 == read_rounds;
      if (traced && last) {
        CoreLayerProbes(idx, SampleKeys(d.loaded, cfg.probe_keys, SubSeed(cfg.seed, 6)), out,
                        root.id());
      }
      if (!write_mix) {
        PhaseResult b = RunTimedPhase(cfg, idx.index.get(), d, kBurstMix, traced,
                                      SubSeed(cfg.seed, salt + 100 + r), kBurstSeconds, 1,
                                      root.id(), &out->failures);
        burst_ran_dry |= b.pool_limited;
        for (Window& w : b.windows) probe->push_back(std::move(w));
        attr.Merge(b.attr);
      }
    }
  };

  // Untraced pass: the end-to-end numbers, and the baseline of
  // trace.overhead_frac in a traced run.
  std::vector<Window> plain, plain_probe;
  pass(false, true, 10, &plain, &plain_probe);
  if (!out->error.empty()) return;
  const PhaseSummary ps = Summarize(plain);
  // index-read has no writes or scans of its own; it reports those of the
  // short insert + scan burst that follows each round's read phase.
  const PhaseSummary ws = write_mix ? ps : Summarize(plain_probe);
  out->attempted += warmup_ops + ps.ops + (write_mix ? 0 : ws.ops);

  double traced_mops = 0;
  if (cfg.trace) {
    std::vector<Window> traced, traced_probe;
    pass(true, false, 40, &traced, &traced_probe);
    if (!out->error.empty()) return;
    const PhaseSummary ts = Summarize(traced);
    out->attempted += ts.ops + Summarize(traced_probe).ops;
    traced_mops = ts.throughput_mops;
  }

  out->e2e.Set("setup_s", Median(loads), "s");
  out->e2e.Set("throughput_mops", ps.throughput_mops, "Mops/s");
  SetLatencyMetrics(ps, kRead, &out->e2e, out);
  SetLatencyMetrics(ws, kWrite, &out->e2e, out);
  SetLatencyMetrics(ws, kScan, &out->e2e, out);
  out->e2e.Set("bytes_per_key", Median(bytes_per_key), "B");
  out->Diag("rounds", std::to_string(plain.size()) + " rounds, " + std::to_string(ps.ops) +
                          " ops in " + Num(ps.seconds) + " s; Mops/s per round: " +
                          Joined(ps.window_mops));
  if (write_round_hit_cap) out->Diag("round_end", "a round hit the time cap before 90% of the pool");
  if (burst_ran_dry) out->Diag("round_end", "an insert burst ran its pool slice dry");

  if (cfg.trace) {
    out->layer.Set("core.bulk_load_s", Median(loads), "s");
    attr.Report(out);
    out->layer.Set("trace.overhead_frac",
                   ps.throughput_mops > 0 ? 1.0 - traced_mops / ps.throughput_mops : 0.0,
                   "ratio");
    out->Diag("base.trace.overhead_frac", "untraced " + Num(ps.throughput_mops) +
                                              " Mops/s, traced " + Num(traced_mops) + " Mops/s");
    idx.index.reset();
    idx.epoch.reset();
    ServerAndShardProbes(cfg, out);
  }
}

}  // namespace perfbench
