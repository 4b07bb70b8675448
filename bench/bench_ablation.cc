// Design-choice ablations for ALT-index (DESIGN.md §4 "ablation benches"):
//  - fast pointer buffer on/off (secondary-search entry point),
//  - dynamic retraining on/off under hot writes,
//  - gapped-array expansion factor sweep (space vs conflict-rate trade),
//  - upper model: pure binary search (paper) vs radix-table acceleration.
#include "core/alt_index.h"

#include "bench_common.h"
#include "common/epoch.h"

using namespace alt;
using namespace alt::bench;

namespace {

RunResult RunAlt(const BenchConfig& cfg, const std::vector<Key>& keys,
                 WorkloadType w, const AltOptions& o, bool hot_write = false) {
  auto index = MakeIndex("alt", o);
  BenchSetup setup;
  if (hot_write) {
    // Reserve a consecutive 20% range for sequential inserts.
    const size_t lo = keys.size() * 2 / 5, hi = keys.size() * 3 / 5;
    for (size_t i = 0; i < keys.size(); ++i) {
      (i >= lo && i < hi ? setup.pool : setup.loaded).push_back(keys[i]);
    }
    std::vector<Value> vals(setup.loaded.size());
    for (size_t i = 0; i < vals.size(); ++i) vals[i] = ValueFor(setup.loaded[i]);
    index->BulkLoad(setup.loaded.data(), vals.data(), setup.loaded.size());
  } else {
    setup = LoadIndex(index.get(), keys, cfg.bulk_fraction);
  }
  WorkloadOptions opts;
  opts.type = w;
  opts.ops_per_thread = cfg.ops_per_thread;
  opts.zipf_theta = cfg.zipf_theta;
  opts.seed = cfg.seed;
  opts.sequential_inserts = hot_write;
  const auto streams = GenerateOpStreams(setup.loaded, setup.pool, cfg.threads, opts);
  const RunResult r = RunWorkload(index.get(), streams, cfg.scan_length);
  index.reset();
  EpochManager::Global().DrainAll();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::Parse(argc, argv);
  const auto keys = LoadKeys(cfg, Dataset::kOsm);

  PrintHeader("Ablation 1: fast pointer buffer (osm, balanced, Mops/s)",
              {"Config", "Mops/s", "P99.9(us)"});
  for (const bool fp : {true, false}) {
    AltOptions o;
    o.enable_fast_pointers = fp;
    const RunResult r = RunAlt(cfg, keys, WorkloadType::kBalanced, o);
    PrintRow({fp ? "with fast ptr" : "root-only", Fmt(r.throughput_mops),
              Fmt(static_cast<double>(r.p999_ns) / 1000.0)});
  }

  PrintHeader("Ablation 2: dynamic retraining under hot writes (osm, Mops/s)",
              {"Config", "Mops/s", "P99.9(us)"});
  for (const bool retrain : {true, false}) {
    AltOptions o;
    o.enable_retraining = retrain;
    const RunResult r = RunAlt(cfg, keys, WorkloadType::kBalanced, o, true);
    PrintRow({retrain ? "retraining on" : "retraining off", Fmt(r.throughput_mops),
              Fmt(static_cast<double>(r.p999_ns) / 1000.0)});
  }

  PrintHeader("Ablation 3: gap factor sweep (osm, balanced)",
              {"gap", "Mops/s", "ART share", "bytes/key"});
  for (const double gap : {1.2, 1.5, 2.0, 2.5, 3.0}) {
    AltOptions o;
    o.gap_factor = gap;
    const RunResult r = RunAlt(cfg, keys, WorkloadType::kBalanced, o);
    // Structural stats from a fresh load.
    AltIndex probe(o);
    auto setup = SplitDataset(keys, cfg.bulk_fraction);
    std::vector<Value> vals(setup.loaded.size());
    for (size_t i = 0; i < vals.size(); ++i) vals[i] = ValueFor(setup.loaded[i]);
    probe.BulkLoad(setup.loaded.data(), vals.data(), setup.loaded.size());
    const auto st = probe.CollectStructuralStats();
    PrintRow({Fmt(gap, 1), Fmt(r.throughput_mops),
              Fmt(static_cast<double>(st.art_keys) /
                      static_cast<double>(st.art_keys + st.learned_layer_keys()),
                  3),
              Fmt(static_cast<double>(st.total_bytes) /
                      static_cast<double>(setup.loaded.size()),
                  1)});
  }

  PrintHeader("Ablation 4: upper model search (osm, read-only, Mops/s)",
              {"Config", "Mops/s"});
  for (const int bits : {0, 8, 12, 16}) {
    AltOptions o;
    o.upper_radix_bits = bits;
    const RunResult r = RunAlt(cfg, keys, WorkloadType::kReadOnly, o);
    PrintRow({bits == 0 ? "binary search" : ("radix " + std::to_string(bits) + "b"),
              Fmt(r.throughput_mops)});
  }
  return 0;
}
