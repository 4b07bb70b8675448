#include "workload/runner.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>

#include "common/json.h"
#include "common/latency_recorder.h"
#include "common/metrics.h"
#include "common/spinlock.h"
#include "common/timer.h"
#include "common/trace.h"
#include "datasets/dataset.h"

namespace alt {

namespace {

constexpr size_t kNumOpTypes = 5;  // kRead..kRemove in workload.h
constexpr size_t kNumPathCells = kNumOpTypes * kNumServedBy;

size_t PathCell(OpType op, ServedBy served) {
  return static_cast<size_t>(op) * kNumServedBy + static_cast<size_t>(served);
}

/// Per-thread attribution state: one total-op counter and one sampled-latency
/// histogram per (op type × serving path) cell. Only allocated when
/// RunOptions::path_breakdown is set.
struct PathGrid {
  std::vector<uint64_t> counts{std::vector<uint64_t>(kNumPathCells, 0)};
  std::vector<LatencyHistogram> hists{std::vector<LatencyHistogram>(kNumPathCells)};

  void Account(OpType op, ServedBy served, bool sampled, uint64_t ns) {
    const size_t cell = PathCell(op, served);
    counts[cell]++;
    if (sampled) hists[cell].Record(ns);
  }
};

void AppendDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out->append(buf);
}

/// One JSON line of the --metrics_json stream. `result` is null for interval
/// snapshots (the run is still executing); the final line carries it and the
/// index's `live_keys` after the run.
std::string RunJsonLine(const std::string& label, const char* phase,
                        const RunResult* result, const metrics::Snapshot& delta,
                        size_t live_keys = 0) {
  std::string line = "{\"label\":";
  AppendJsonQuoted(label, &line);
  line += ",\"phase\":";
  AppendJsonQuoted(phase, &line);
  if (result != nullptr) {
    line += ",\"throughput_mops\":";
    AppendDouble(&line, result->throughput_mops);
    line += ",\"seconds\":";
    AppendDouble(&line, result->seconds);
    line += ",\"total_ops\":" + std::to_string(result->total_ops);
    line += ",\"failed_ops\":" + std::to_string(result->failed_ops);
    line += ",\"empty_scans\":" + std::to_string(result->empty_scans);
    line += ",\"p50_ns\":" + std::to_string(result->p50_ns);
    line += ",\"p99_ns\":" + std::to_string(result->p99_ns);
    line += ",\"p999_ns\":" + std::to_string(result->p999_ns);
    line += ",\"live_keys\":" + std::to_string(live_keys);
    if (result->perf.enabled) {
      const PerfStatResult& pf = result->perf;
      line += ",\"perf\":{\"tier\":";
      AppendJsonQuoted(pf.tier_name, &line);
      line += ",\"available\":";
      line += pf.tier != perf::Tier::kUnavailable ? "true" : "false";
      line += ",\"ops\":" + std::to_string(pf.ops);
      // Only the rows the active tier actually measured: a software-tier run
      // must not report cycles_per_op=0 as if it were a measurement.
      if (pf.tier == perf::Tier::kHardware) {
        line += ",\"cycles_per_op\":";
        AppendDouble(&line, pf.PerOp(pf.totals.cycles));
        line += ",\"instructions_per_op\":";
        AppendDouble(&line, pf.PerOp(pf.totals.instructions));
        line += ",\"ipc\":";
        AppendDouble(&line, pf.totals.cycles > 0
                                ? static_cast<double>(pf.totals.instructions) /
                                      static_cast<double>(pf.totals.cycles)
                                : 0);
        line += ",\"llc_misses_per_kop\":";
        AppendDouble(&line, pf.PerKop(pf.totals.llc_misses));
        line += ",\"branch_misses_per_kop\":";
        AppendDouble(&line, pf.PerKop(pf.totals.branch_misses));
        line += ",\"mux_scale\":";
        AppendDouble(&line, pf.totals.scale);
      } else if (pf.tier == perf::Tier::kSoftware) {
        line += ",\"task_clock_ns_per_op\":";
        AppendDouble(&line, pf.PerOp(pf.totals.task_clock_ns));
        line += ",\"page_faults_per_kop\":";
        AppendDouble(&line, pf.PerKop(pf.totals.page_faults));
      }
      line += ",\"tsc_cycles_per_op\":";
      AppendDouble(&line, pf.PerOp(pf.totals.tsc_cycles));
      line += '}';
    }
    if (!result->path_stats.empty()) {
      line += ",\"paths\":[";
      bool first = true;
      for (const PathStat& p : result->path_stats) {
        if (!first) line += ',';
        first = false;
        line += "{\"op\":";
        AppendJsonQuoted(OpTypeName(p.op), &line);
        line += ",\"served\":";
        AppendJsonQuoted(ServedByName(p.served), &line);
        line += ",\"count\":" + std::to_string(p.count);
        line += ",\"samples\":" + std::to_string(p.samples);
        line += ",\"mean_ns\":";
        AppendDouble(&line, p.mean_ns);
        line += ",\"p50_ns\":" + std::to_string(p.p50_ns);
        line += ",\"p99_ns\":" + std::to_string(p.p99_ns);
        line += ",\"p999_ns\":" + std::to_string(p.p999_ns) + '}';
      }
      line += ']';
    }
  }
  line += ",\"metrics\":";
  line += metrics::ToJson(delta);
  line += '}';
  return line;
}

}  // namespace

const char* OpTypeName(OpType t) {
  switch (t) {
    case OpType::kRead: return "read";
    case OpType::kInsert: return "insert";
    case OpType::kScan: return "scan";
    case OpType::kUpdate: return "update";
    case OpType::kRemove: return "remove";
  }
  return "unknown";
}

void PrintPathBreakdown(const RunResult& result, std::FILE* f) {
  if (result.path_stats.empty()) return;
  if (f == nullptr) f = stdout;
  std::fprintf(f, "%-8s %-18s %12s %10s %10s %10s %10s %10s\n", "op",
               "served_by", "count", "samples", "mean_ns", "p50_ns", "p99_ns",
               "p999_ns");
  for (const PathStat& p : result.path_stats) {
    std::fprintf(f, "%-8s %-18s %12llu %10llu %10.0f %10llu %10llu %10llu\n",
                 OpTypeName(p.op), ServedByName(p.served),
                 static_cast<unsigned long long>(p.count),
                 static_cast<unsigned long long>(p.samples), p.mean_ns,
                 static_cast<unsigned long long>(p.p50_ns),
                 static_cast<unsigned long long>(p.p99_ns),
                 static_cast<unsigned long long>(p.p999_ns));
  }
}

void PrintPerfStat(const RunResult& result, std::FILE* f) {
  const PerfStatResult& pf = result.perf;
  if (!pf.enabled) return;
  if (f == nullptr) f = stdout;
  std::fprintf(f, "perf counters: %s\n", pf.tier_name.c_str());
  if (pf.tier == perf::Tier::kHardware) {
    std::fprintf(f, "  %-22s %12.1f\n", "cycles/op", pf.PerOp(pf.totals.cycles));
    std::fprintf(f, "  %-22s %12.1f\n", "instructions/op",
                 pf.PerOp(pf.totals.instructions));
    std::fprintf(f, "  %-22s %12.2f\n", "IPC",
                 pf.totals.cycles > 0
                     ? static_cast<double>(pf.totals.instructions) /
                           static_cast<double>(pf.totals.cycles)
                     : 0.0);
    std::fprintf(f, "  %-22s %12.2f\n", "LLC-misses/Kop",
                 pf.PerKop(pf.totals.llc_misses));
    std::fprintf(f, "  %-22s %12.2f\n", "branch-misses/Kop",
                 pf.PerKop(pf.totals.branch_misses));
    if (pf.totals.scale > 1.0) {
      std::fprintf(f, "  %-22s %12.2f\n", "multiplex-scale", pf.totals.scale);
    }
  } else if (pf.tier == perf::Tier::kSoftware) {
    std::fprintf(f, "  %-22s %12.1f\n", "task-clock-ns/op",
                 pf.PerOp(pf.totals.task_clock_ns));
    std::fprintf(f, "  %-22s %12.3f\n", "page-faults/Kop",
                 pf.PerKop(pf.totals.page_faults));
  } else {
    std::fprintf(f,
                 "  (hardware and software counters unavailable; TSC estimate "
                 "only)\n");
  }
  // TSC reference cycles are always measured on x86-64 — the cycles-per-op
  // estimate of record when the PMU is unavailable (VMs, containers).
  std::fprintf(f, "  %-22s %12.1f\n", "tsc-ref-cycles/op",
               pf.PerOp(pf.totals.tsc_cycles));
}

RunResult RunWorkload(ConcurrentIndex* index,
                      const std::vector<std::vector<Op>>& streams,
                      const RunOptions& options) {
  const int num_threads = static_cast<int>(streams.size());
  const size_t scan_length = options.scan_length;
  const size_t read_batch = options.read_batch > 0 ? options.read_batch : 1;
  const bool paths = options.path_breakdown;
  const bool perf_stat = options.perf_stat;
  // One sampler per worker; each starts at its own phase (LatencyRecorder).
  std::vector<LatencyRecorder> recorders(static_cast<size_t>(num_threads));
  std::vector<PathGrid> grids(paths ? static_cast<size_t>(num_threads) : 0);
  std::vector<uint64_t> fails(static_cast<size_t>(num_threads), 0);
  std::vector<uint64_t> empties(static_cast<size_t>(num_threads), 0);
  std::vector<perf::Reading> perf_readings(
      perf_stat ? static_cast<size_t>(num_threads) : 0);
  std::vector<perf::Tier> perf_tiers(
      perf_stat ? static_cast<size_t>(num_threads) : 0, perf::Tier::kUnavailable);
  std::vector<std::string> perf_errors(
      perf_stat ? static_cast<size_t>(num_threads) : 0);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};

  auto worker = [&](int tid) {
    const auto& stream = streams[static_cast<size_t>(tid)];
    LatencyRecorder& rec = recorders[static_cast<size_t>(tid)];
    PathGrid* grid = paths ? &grids[static_cast<size_t>(tid)] : nullptr;
    // Per-thread counter group, opened before the barrier (fd setup excluded
    // from the measured window) and started only after `go` (barrier spin
    // excluded too). Per-thread because inherited events cannot be read with
    // PERF_FORMAT_GROUP, and a single group would multiplex across threads.
    std::unique_ptr<perf::ThreadCounters> counters;
    if (perf_stat) {
      counters = std::make_unique<perf::ThreadCounters>();
      perf_tiers[static_cast<size_t>(tid)] = counters->tier();
      perf_errors[static_cast<size_t>(tid)] = counters->error();
    }
    uint64_t failed = 0;
    uint64_t empty = 0;
    std::vector<std::pair<Key, Value>> scan_buf;
    // Read-coalescing buffers (read_batch > 1): consecutive kRead ops are
    // collected here and resolved with one LookupBatch call.
    std::vector<Key> batch_keys(read_batch);
    std::vector<Value> batch_vals(read_batch);
    std::unique_ptr<bool[]> batch_found(new bool[read_batch]);
    size_t pending = 0;
    ready.fetch_add(1, std::memory_order_acq_rel);
    while (!go.load(std::memory_order_acquire)) CpuRelax();
    if (counters != nullptr) counters->Start();
    trace::Span worker_span("worker", "runner", stream.size());
    auto flush_reads = [&] {
      if (pending == 0) return;
      const bool sample = rec.ShouldSample();
      const uint64_t t0 = sample ? NowNanos() : 0;
      const size_t hits =
          index->LookupBatch(batch_keys.data(), pending, batch_vals.data(),
                             batch_found.get());
      failed += pending - hits;
      const uint64_t per_op = sample ? (NowNanos() - t0) / pending : 0;
      if (sample) rec.Record(per_op);
      if (grid != nullptr) {
        // The batch pipeline does not attribute individual keys; the whole
        // group lands in (read, unattributed) at its mean per-op latency.
        for (size_t i = 0; i < pending; ++i) {
          grid->Account(OpType::kRead, ServedBy::kUnattributed,
                        sample && i == 0, per_op);
        }
      }
      pending = 0;
    };
    for (const Op& op : stream) {
      if (read_batch > 1) {
        if (op.type == OpType::kRead) {
          batch_keys[pending++] = op.key;
          if (pending == read_batch) flush_reads();
          continue;
        }
        flush_reads();  // a non-read op breaks the run of coalescible reads
      }
      const bool sample = rec.ShouldSample();
      const uint64_t t0 = sample ? NowNanos() : 0;
      bool ok = true;
      ServedBy served = ServedBy::kUnattributed;
      ServedBy* sp = grid != nullptr ? &served : nullptr;
      switch (op.type) {
        case OpType::kRead: {
          Value v;
          ok = index->Lookup(op.key, &v, sp);
          break;
        }
        case OpType::kInsert:
          ok = index->Insert(op.key, ValueFor(op.key), sp);
          break;
        case OpType::kScan:
          // A scan that finds nothing hit the end of the keyspace (every
          // start key is drawn from the live key space, so there is no
          // "miss" to report) — count it separately, not as a failure.
          if (index->Scan(op.key, scan_length, &scan_buf) == 0) ++empty;
          break;
        case OpType::kUpdate:
          ok = index->Update(op.key, ValueFor(op.key) ^ 0x5a5a, sp);
          break;
        case OpType::kRemove:
          ok = index->Remove(op.key, sp);
          break;
      }
      if (!ok) ++failed;
      const uint64_t ns = sample ? NowNanos() - t0 : 0;
      if (sample) rec.Record(ns);
      if (grid != nullptr) grid->Account(op.type, served, sample, ns);
    }
    if (read_batch > 1) flush_reads();
    if (counters != nullptr) {
      perf_readings[static_cast<size_t>(tid)] = counters->Stop();
    }
    fails[static_cast<size_t>(tid)] = failed;
    empties[static_cast<size_t>(tid)] = empty;
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) threads.emplace_back(worker, t);
  while (ready.load(std::memory_order_acquire) < num_threads) CpuRelax();

  // Metrics export: scope the process-global registry to this run by diffing
  // against a baseline taken right before the start barrier opens.
  const bool export_metrics = !options.metrics_json.empty();
  const metrics::Snapshot baseline = export_metrics ? metrics::TakeSnapshot()
                                                    : metrics::Snapshot{};
  std::vector<std::string> interval_lines;
  std::atomic<bool> stop_sampler{false};
  std::thread sampler;
  if (export_metrics && options.metrics_interval_seconds > 0) {
    sampler = std::thread([&] {
      metrics::Snapshot prev = baseline;
      const auto interval = std::chrono::duration<double>(
          options.metrics_interval_seconds);
      auto next_wake = std::chrono::steady_clock::now() + interval;
      while (!stop_sampler.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (std::chrono::steady_clock::now() < next_wake) continue;
        next_wake += interval;
        metrics::Snapshot now = metrics::TakeSnapshot();
        interval_lines.push_back(RunJsonLine(options.metrics_label, "interval",
                                             nullptr, now.DeltaSince(prev)));
        prev = std::move(now);
      }
    });
  }

  const Stopwatch clock;
  {
    trace::Span measure_span("measure", "runner",
                             static_cast<uint64_t>(num_threads));
    go.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();
  }
  const double seconds = clock.ElapsedSeconds();
  if (sampler.joinable()) {
    stop_sampler.store(true, std::memory_order_release);
    sampler.join();
  }

  RunResult r;
  LatencyHistogram merged;
  for (int t = 0; t < num_threads; ++t) {
    merged.Merge(recorders[static_cast<size_t>(t)].histogram());
    r.total_ops += streams[static_cast<size_t>(t)].size();
    r.failed_ops += fails[static_cast<size_t>(t)];
    r.empty_scans += empties[static_cast<size_t>(t)];
  }
  r.seconds = seconds;
  r.throughput_mops = seconds > 0
                          ? static_cast<double>(r.total_ops) / seconds / 1e6
                          : 0;
  r.p50_ns = merged.Percentile(0.50);
  r.p99_ns = merged.Percentile(0.99);
  r.p999_ns = merged.Percentile(0.999);
  r.mean_ns = merged.MeanNs();

  if (perf_stat) {
    r.perf.enabled = true;
    r.perf.ops = r.total_ops;
    for (const perf::Reading& reading : perf_readings) {
      r.perf.totals.Accumulate(reading);
    }
    // All threads land on the same tier (same kernel, same paranoid level);
    // report thread 0's, with its open-failure reason when degraded.
    if (num_threads > 0) {
      r.perf.tier = perf_tiers[0];
      r.perf.tier_name = perf::TierName(perf_tiers[0], perf_errors[0]);
    } else {
      r.perf.tier_name = perf::TierName(perf::Tier::kUnavailable, "no worker threads");
    }
    r.perf.totals.tier = r.perf.tier;
  }

  if (paths) {
    for (size_t cell = 0; cell < kNumPathCells; ++cell) {
      uint64_t count = 0;
      LatencyHistogram cell_hist;
      for (const PathGrid& g : grids) {
        count += g.counts[cell];
        cell_hist.Merge(g.hists[cell]);
      }
      if (count == 0) continue;
      PathStat p;
      p.op = static_cast<OpType>(cell / kNumServedBy);
      p.served = static_cast<ServedBy>(cell % kNumServedBy);
      p.count = count;
      p.samples = cell_hist.Count();
      p.mean_ns = cell_hist.MeanNs();
      p.p50_ns = cell_hist.Percentile(0.50);
      p.p99_ns = cell_hist.Percentile(0.99);
      p.p999_ns = cell_hist.Percentile(0.999);
      r.path_stats.push_back(p);
    }
  }

  if (export_metrics) {
    const metrics::Snapshot delta = metrics::TakeSnapshot().DeltaSince(baseline);
    std::ofstream out(options.metrics_json, std::ios::app);
    if (out) {
      for (const std::string& line : interval_lines) out << line << '\n';
      out << RunJsonLine(options.metrics_label, "final", &r, delta, index->Size())
          << '\n';
    } else {
      std::fprintf(stderr, "runner: cannot open metrics_json file '%s'\n",
                   options.metrics_json.c_str());
    }
  }
  return r;
}

RunResult RunWorkload(ConcurrentIndex* index,
                      const std::vector<std::vector<Op>>& streams,
                      size_t scan_length) {
  RunOptions options;
  options.scan_length = scan_length;
  return RunWorkload(index, streams, options);
}

BenchSetup SplitDataset(const std::vector<Key>& keys, double bulk_fraction) {
  BenchSetup setup;
  if (keys.empty()) return setup;  // nothing to split (and no front() to read)
  if (bulk_fraction < 0.01) bulk_fraction = 0.01;
  if (bulk_fraction > 1.0) bulk_fraction = 1.0;
  // Interleave: of every `period` keys, the first `bulk_per` go to the bulk
  // set, the rest to the pool, so both follow the dataset's distribution.
  const int period = 10;
  const int bulk_per = static_cast<int>(bulk_fraction * period + 0.5);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (static_cast<int>(i % period) < bulk_per) {
      setup.loaded.push_back(keys[i]);
    } else {
      setup.pool.push_back(keys[i]);
    }
  }
  if (setup.loaded.empty()) {
    // Move (not copy) the first key out of the pool: a copy would leave the
    // key in both sets, and its later pool insert would fail as a duplicate.
    setup.loaded.push_back(setup.pool.front());
    setup.pool.erase(setup.pool.begin());
  }
  return setup;
}

}  // namespace alt
