// Reproduces Fig. 9: scalability under the read-write-balanced workload as
// the thread count grows (paper: 1..32 on 36 physical cores). Thread counts
// above the host's hardware threads (printed first) time-slice. `--indexes`
// picks the columns (default: the paper lineup).
#include <thread>

#include "bench_common.h"

using namespace alt;
using namespace alt::bench;

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::Parse(argc, argv);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware threads available: %u\n", hw);
  for (Dataset d : cfg.datasets) {
    const auto keys = LoadKeys(cfg, d);
    std::vector<std::string> columns{"Threads"};
    for (const auto& name : cfg.indexes) columns.push_back(MakeIndex(name)->Name());
    PrintHeader(std::string("Fig. 9: scalability, balanced workload, ") +
                    DatasetName(d) + " (Mops/s)",
                columns);
    for (int threads : {1, 2, 4, 8, 16, 32}) {
      BenchConfig c = cfg;
      c.threads = threads;
      // Keep total work constant across thread counts.
      c.ops_per_thread = std::max<size_t>(
          1000, cfg.ops_per_thread * static_cast<size_t>(cfg.threads) /
                    static_cast<size_t>(threads));
      std::vector<std::string> row{std::to_string(threads)};
      for (const auto& name : cfg.indexes) {
        const RunResult r = RunOne(c, name, keys, WorkloadType::kBalanced);
        row.push_back(Fmt(r.throughput_mops));
      }
      PrintRow(row);
    }
  }
  return 0;
}
