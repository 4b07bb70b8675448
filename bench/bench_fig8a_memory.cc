// Reproduces Fig. 8(a): memory overhead per index after bulk-loading half of
// each dataset and inserting the rest. Expected shape: ALEX+ smallest,
// ALT-index next (less than the delta-buffer designs), LIPP+ largest.
//
// The figure now decomposes each total into the components behind it
// (CollectMemoryBreakdown, DESIGN.md §9.3): learned models / inner nodes,
// delta structures (ALT's conflict ART + in-flight expansions), and auxiliary
// metadata (fast pointers, directories, headers). Baselines without a
// structural walker land in "other". Pass --dump_structure PATH|- for the
// full JSON report (segment/occupancy histograms, ART node census).
//
// Two bytes/key columns. "bytes/key" is the counted footprint
// (MemoryUsage: the sizeof of every structure). "alloc B/key" is what the
// allocator holds for the index: the drop in glibc's in-use bytes
// (mallinfo2) when the index is destroyed and its retired memory drained,
// plus the bytes it maps itself (ALT's slot slab and ART-OPT region). It
// includes malloc's per-chunk overhead and rounding; EXPERIMENTS.md says
// which column the paper's claim is judged by.
#include <algorithm>
#include <cstdlib>
#include <string>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench_common.h"
#include "common/epoch.h"

using namespace alt;
using namespace alt::bench;

namespace {

// Bytes malloc has handed out and not had back, in every arena; 0 where
// glibc's mallinfo2 is missing.
size_t MallocInUse() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
#else
  return 0;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::Parse(argc, argv);
  PrintHeader("Fig. 8(a): memory overhead (bytes/key) after load + insert-all",
              {"Index", "Dataset", "MB", "bytes/key", "alloc B/key", "model%",
               "delta%", "aux%", "other%"});
  for (const auto& name : cfg.indexes) {
    for (Dataset d : cfg.datasets) {
      const auto keys = LoadKeys(cfg, d);
      auto index = MakeIndex(name);
      const BenchSetup setup = LoadIndex(index.get(), keys, cfg.bulk_fraction);
      for (Key k : setup.pool) index->Insert(k, ValueFor(k));
      const size_t bytes = index->MemoryUsage();
      const ConcurrentIndex::MemoryBreakdown mb = index->CollectMemoryBreakdown();
      const double total =
          mb.total() > 0 ? static_cast<double>(mb.total()) : 1.0;
      auto pct = [&](size_t part) {
        return Fmt(100.0 * static_cast<double>(part) / total, 1);
      };
      if (!cfg.dump_structure.empty()) {
        const std::string report = index->StructureJson();
        if (cfg.dump_structure == "-") {
          std::fwrite(report.data(), 1, report.size(), stdout);
        } else {
          std::FILE* f = std::fopen(cfg.dump_structure.c_str(), "a");
          if (f != nullptr) {
            std::fwrite(report.data(), 1, report.size(), f);
            std::fclose(f);
          }
        }
      }
      const std::string index_name = index->Name();
      const size_t mapped = index->MappedBytes();
      const size_t in_use = MallocInUse();
      index.reset();
      EpochManager::Global().DrainAll();
      const size_t freed = in_use - std::min(in_use, MallocInUse());
      const std::string alloc =
          in_use == 0 ? "n/a"
                      : Fmt(static_cast<double>(freed + mapped) /
                                static_cast<double>(keys.size()),
                            1);
      PrintRow({index_name, DatasetName(d),
                Fmt(static_cast<double>(bytes) / 1048576.0),
                Fmt(static_cast<double>(bytes) / static_cast<double>(keys.size()), 1),
                alloc, pct(mb.model_bytes), pct(mb.delta_bytes),
                pct(mb.auxiliary_bytes), pct(mb.other_bytes)});
    }
  }
  return 0;
}
