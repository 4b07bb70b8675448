// Reproduces Fig. 10, the inside analysis of ALT-index:
//  (a) average ART lookup length with vs without the fast pointer buffer,
//  (b) fast pointer count with vs without the merge scheme,
//  (c) data distribution between the learned layer and ART-OPT,
//  (d) bulk-load time of ALT-index vs the competitors.
#include "core/alt_index.h"

#include "bench_common.h"
#include "common/epoch.h"
#include "common/metrics.h"
#include "common/timer.h"

using namespace alt;
using namespace alt::bench;

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::Parse(argc, argv);

  PrintHeader("Fig. 10(a): avg ART lookup length (nodes visited per secondary search)",
              {"Dataset", "with FP", "without FP"});
  for (Dataset d : cfg.datasets) {
    const auto keys = LoadKeys(cfg, d);
    double avg[2] = {0, 0};
    for (int variant = 0; variant < 2; ++variant) {
      AltOptions o;
      o.enable_fast_pointers = (variant == 0);
      AltIndex index(o);
      auto setup = SplitDataset(keys, cfg.bulk_fraction);
      std::vector<Value> vals(setup.loaded.size());
      for (size_t i = 0; i < vals.size(); ++i) vals[i] = ValueFor(setup.loaded[i]);
      index.BulkLoad(setup.loaded.data(), vals.data(), setup.loaded.size());
      const auto base = metrics::TakeSnapshot();
      Value v;
      for (size_t i = 0; i < setup.loaded.size(); ++i) index.Lookup(setup.loaded[i], &v);
      const auto delta = metrics::TakeSnapshot().DeltaSince(base);
      const uint64_t lookups = delta.counter(metrics::Counter::kArtLookups);
      avg[variant] =
          lookups > 0
              ? static_cast<double>(delta.counter(metrics::Counter::kArtLookupSteps)) /
                    static_cast<double>(lookups)
              : 0.0;
    }
    PrintRow({DatasetName(d), Fmt(avg[0]), Fmt(avg[1])});
  }

  PrintHeader("Fig. 10(b): fast pointers with vs without the merge scheme",
              {"Dataset", "merged", "unmerged", "reduction"});
  for (Dataset d : cfg.datasets) {
    const auto keys = LoadKeys(cfg, d);
    AltIndex index;
    auto setup = SplitDataset(keys, cfg.bulk_fraction);
    std::vector<Value> vals(setup.loaded.size());
    for (size_t i = 0; i < vals.size(); ++i) vals[i] = ValueFor(setup.loaded[i]);
    index.BulkLoad(setup.loaded.data(), vals.data(), setup.loaded.size());
    const auto st = index.CollectStructuralStats();
    const double reduction =
        st.fast_pointer_adds > 0
            ? 1.0 - static_cast<double>(st.fast_pointers) /
                        static_cast<double>(st.fast_pointer_adds)
            : 0.0;
    PrintRow({DatasetName(d), std::to_string(st.fast_pointers),
              std::to_string(st.fast_pointer_adds), Fmt(100 * reduction, 1) + "%"});
  }

  PrintHeader("Fig. 10(c): data distribution across ALT-index layers",
              {"Dataset", "learned %", "ART %", "models"});
  for (Dataset d : cfg.datasets) {
    const auto keys = LoadKeys(cfg, d);
    AltIndex index;
    auto setup = SplitDataset(keys, cfg.bulk_fraction);
    std::vector<Value> vals(setup.loaded.size());
    for (size_t i = 0; i < vals.size(); ++i) vals[i] = ValueFor(setup.loaded[i]);
    index.BulkLoad(setup.loaded.data(), vals.data(), setup.loaded.size());
    const auto st = index.CollectStructuralStats();
    const double total = static_cast<double>(st.learned_layer_keys() + st.art_keys);
    PrintRow({DatasetName(d),
              Fmt(100.0 * static_cast<double>(st.learned_layer_keys()) / total, 1),
              Fmt(100.0 * static_cast<double>(st.art_keys) / total, 1),
              std::to_string(st.num_models)});
  }

  PrintHeader("Fig. 10(d): bulk-load time (seconds)",
              {"Index", "Dataset", "seconds"});
  for (const auto& name : cfg.indexes) {
    for (Dataset d : cfg.datasets) {
      const auto keys = LoadKeys(cfg, d);
      auto index = MakeIndex(name);
      auto setup = SplitDataset(keys, 1.0);
      std::vector<Value> vals(setup.loaded.size());
      for (size_t i = 0; i < vals.size(); ++i) vals[i] = ValueFor(setup.loaded[i]);
      const Stopwatch sw;
      index->BulkLoad(setup.loaded.data(), vals.data(), setup.loaded.size());
      PrintRow({index->Name(), DatasetName(d), Fmt(sw.ElapsedSeconds(), 3)});
      index.reset();
      EpochManager::Global().DrainAll();
    }
  }
  return 0;
}
