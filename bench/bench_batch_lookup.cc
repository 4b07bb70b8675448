// Batched read path sweep: LookupBatch throughput vs. call width on the
// ALT-index, for uniform and Zipfian (theta = --zipf-theta) query draws,
// read-only and with concurrent insert/remove churn in the background.
// Width 0 rows ("scalar") call the plain Lookup loop as the baseline the
// AMAC pipeline has to beat; widths 1..64 call LookupBatch with that many
// keys per call (LookupBatch keeps up to 16 of them in flight).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/epoch.h"
#include "common/random.h"
#include "common/spinlock.h"
#include "common/timer.h"
#include "common/zipf.h"
#include "core/alt_index.h"

namespace alt {
namespace bench {
namespace {

constexpr size_t kWidths[] = {1, 2, 4, 8, 16, 32, 64};

inline void DoNotOptimize(const Value& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

// Per-thread query stream, pre-generated so the timed region is index-only.
std::vector<std::vector<Key>> MakeQueries(const std::vector<Key>& loaded,
                                          int threads, size_t per_thread,
                                          bool zipfian, double theta,
                                          uint64_t seed) {
  std::vector<std::vector<Key>> streams(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    auto& q = streams[static_cast<size_t>(t)];
    q.reserve(per_thread);
    Rng rng(seed + static_cast<uint64_t>(t) * 7919);
    ScrambledZipf zipf(loaded.size(), theta, seed + static_cast<uint64_t>(t));
    for (size_t i = 0; i < per_thread; ++i) {
      const size_t r = zipfian ? zipf.Next() : rng.NextBounded(loaded.size());
      q.push_back(loaded[r]);
    }
  }
  return streams;
}

// Run every query stream through the index at `width` keys per call
// (width 0 = scalar Lookup loop) and return aggregate Mops.
double TimedSweep(AltIndex* index, const std::vector<std::vector<Key>>& streams,
                  size_t width) {
  const int threads = static_cast<int>(streams.size());
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const auto& q = streams[static_cast<size_t>(t)];
      std::vector<Value> out(width ? width : 1);
      std::unique_ptr<bool[]> found(new bool[width ? width : 1]);
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) CpuRelax();
      if (width == 0) {
        Value v;
        for (const Key k : q) {
          if (index->Lookup(k, &v)) DoNotOptimize(v);
        }
      } else {
        for (size_t i = 0; i < q.size(); i += width) {
          const size_t n = std::min(width, q.size() - i);
          index->LookupBatch(&q[i], n, out.data(), found.get());
          DoNotOptimize(out[0]);
        }
      }
    });
  }
  while (ready.load(std::memory_order_acquire) < threads) CpuRelax();
  const Stopwatch clock;
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const double seconds = clock.ElapsedSeconds();
  size_t total = 0;
  for (const auto& q : streams) total += q.size();
  return seconds > 0 ? static_cast<double>(total) / seconds / 1e6 : 0;
}

void RunSection(const BenchConfig& cfg, AltIndex* index,
                const std::vector<Key>& loaded, const std::vector<Key>& pool,
                bool zipfian, bool with_churn) {
  const auto streams =
      MakeQueries(loaded, cfg.threads, cfg.ops_per_thread, zipfian,
                  cfg.zipf_theta, cfg.seed);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  if (with_churn) {
    // Two background writers cycle insert/remove over disjoint pool shards so
    // the read path sees live slot churn (and, with enough traffic, expansion).
    for (int t = 0; t < 2; ++t) {
      writers.emplace_back([&, t] {
        while (!stop.load(std::memory_order_acquire)) {
          for (size_t i = static_cast<size_t>(t); i < pool.size(); i += 2) {
            index->Insert(pool[i], ValueFor(pool[i]));
            if (stop.load(std::memory_order_acquire)) return;
          }
          for (size_t i = static_cast<size_t>(t); i < pool.size(); i += 2) {
            index->Remove(pool[i]);
            if (stop.load(std::memory_order_acquire)) return;
          }
        }
      });
    }
  }
  const double scalar = TimedSweep(index, streams, 0);
  std::vector<std::string> row = {zipfian ? "zipf" : "uniform",
                                  with_churn ? "yes" : "no", Fmt(scalar)};
  for (const size_t w : kWidths) {
    const double mops = TimedSweep(index, streams, w);
    row.push_back(Fmt(mops) + "(" + Fmt(mops / scalar) + "x)");
  }
  PrintRow(row);
  stop.store(true, std::memory_order_release);
  for (auto& w : writers) w.join();
}

void Run(const BenchConfig& cfg) {
  for (const Dataset d : cfg.datasets) {
    const auto keys = LoadKeys(cfg, d);
    AltIndex index;
    const BenchSetup setup = SplitDataset(keys, cfg.bulk_fraction);
    std::vector<Value> values(setup.loaded.size());
    for (size_t i = 0; i < setup.loaded.size(); ++i) {
      values[i] = ValueFor(setup.loaded[i]);
    }
    const Status st =
        index.BulkLoad(setup.loaded.data(), values.data(), setup.loaded.size());
    if (!st.ok()) {
      std::fprintf(stderr, "bulk load failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    std::vector<std::string> cols = {"dist", "churn", "scalar"};
    for (const size_t w : kWidths) cols.push_back("w=" + std::to_string(w));
    PrintHeader(std::string("LookupBatch width sweep, ") + DatasetName(d) +
                    ", " + std::to_string(setup.loaded.size()) + " keys, " +
                    std::to_string(cfg.threads) + " threads (Mops, x = vs scalar)",
                cols);
    RunSection(cfg, &index, setup.loaded, setup.pool, /*zipfian=*/false,
               /*with_churn=*/false);
    RunSection(cfg, &index, setup.loaded, setup.pool, /*zipfian=*/true,
               /*with_churn=*/false);
    RunSection(cfg, &index, setup.loaded, setup.pool, /*zipfian=*/false,
               /*with_churn=*/true);
    RunSection(cfg, &index, setup.loaded, setup.pool, /*zipfian=*/true,
               /*with_churn=*/true);
    EpochManager::Global().DrainAll();
  }
}

}  // namespace
}  // namespace bench
}  // namespace alt

int main(int argc, char** argv) {
  alt::bench::Run(alt::bench::BenchConfig::Parse(argc, argv));
  return 0;
}
