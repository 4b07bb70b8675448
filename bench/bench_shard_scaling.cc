// Shard-count sweep for the sharded front-end (DESIGN.md §12): the Fig. 9
// read-heavy mix run against one monolithic ALT-Index and 2/4/16-shard
// ShardedAltIndex facades as the thread count grows. Each shard owns a
// private EpochManager, so the sweep isolates the cost of the global epoch
// ticker vs per-shard tickers under contention. Thread counts above the
// host's hardware threads (printed first) time-slice. Pass --path_breakdown
// to attribute time to serving paths (per-shard epoch spans show up as
// epoch/shardN in --trace_json output).
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
    PrintHeader(std::string("Shard scaling, read-heavy workload, ") +
                    DatasetName(d) + " (Mops/s)",
                {"Threads", "ALT", "sharded2", "sharded4", "sharded16"});
    for (int threads : {1, 2, 4, 8, 16, 32, 64}) {
      BenchConfig c = cfg;
      c.threads = threads;
      // Keep total work constant across thread counts.
      c.ops_per_thread = std::max<size_t>(
          1000, cfg.ops_per_thread * static_cast<size_t>(cfg.threads) /
                    static_cast<size_t>(threads));
      std::vector<std::string> row{std::to_string(threads)};
      for (const char* name :
           {"alt", "alt-sharded2", "alt-sharded4", "alt-sharded16"}) {
        const RunResult r = RunOne(c, name, keys, WorkloadType::kReadHeavy);
        row.push_back(Fmt(r.throughput_mops));
      }
      PrintRow(row);
    }
  }
  return 0;
}
