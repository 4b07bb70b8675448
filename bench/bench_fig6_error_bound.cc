// Reproduces Fig. 6: the relationship between the GPL error bound and (a) the
// number of GPL models (Eq. 1's inverse proportionality) and (b) ALT-index
// throughput, including the "stable area" around the suggested epsilon =
// N/1000 (§III-D).
#include "core/alt_index.h"

#include "bench_common.h"

using namespace alt;
using namespace alt::bench;

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::Parse(argc, argv);

  PrintHeader("Fig. 6(a): #GPL models vs error bound",
              {"ErrorBound", "libio", "osm", "fb", "longlat"});
  const std::vector<double> bounds = {8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096};
  // Cache generated keys per dataset.
  std::vector<std::vector<Key>> all_keys;
  for (Dataset d : PaperDatasets()) all_keys.push_back(LoadKeys(cfg, d));
  for (double eps : bounds) {
    std::vector<std::string> row{Fmt(eps, 0)};
    for (const auto& keys : all_keys) {
      AltOptions o;
      o.error_bound = eps;
      AltIndex index(o);
      auto setup = SplitDataset(keys, cfg.bulk_fraction);
      std::vector<Value> vals(setup.loaded.size());
      for (size_t i = 0; i < vals.size(); ++i) vals[i] = ValueFor(setup.loaded[i]);
      index.BulkLoad(setup.loaded.data(), vals.data(), setup.loaded.size());
      row.push_back(std::to_string(index.CollectStructuralStats().num_models));
    }
    PrintRow(row);
  }

  PrintHeader("Fig. 6(b): ALT-index throughput vs error bound (read-only, Mops/s)",
              {"ErrorBound", "libio", "osm", "fb", "longlat"});
  for (double eps : bounds) {
    std::vector<std::string> row{Fmt(eps, 0)};
    for (size_t di = 0; di < all_keys.size(); ++di) {
      AltOptions o;
      o.error_bound = eps;
      const RunResult r = RunOne(cfg, "alt", all_keys[di], WorkloadType::kReadOnly, o);
      row.push_back(Fmt(r.throughput_mops));
    }
    PrintRow(row);
  }
  const double suggested =
      AltOptions::SuggestErrorBound(static_cast<size_t>(
          static_cast<double>(cfg.keys) * cfg.bulk_fraction));
  std::printf("\nSuggested epsilon (N_bulk/1000) = %.0f — expect it inside the"
              " stable area above.\n", suggested);
  return 0;
}
