#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/factory.h"
#include "common/index_interface.h"
#include "datasets/dataset.h"
#include "workload/runner.h"
#include "workload/workload.h"

namespace alt {
namespace bench {

/// Shared benchmark configuration, parsed from argv (`--keys 1000000`,
/// `--threads 8`, `--ops 200000`, `--datasets libio,osm`, `--indexes alt,art`,
/// `--bulk-fraction 0.5`, `--dataset-file path` to use a real SOSD binary).
/// The env var ALT_BENCH_SCALE multiplies --keys and --ops (e.g. =10 for a
/// server-scale run).
struct BenchConfig {
  size_t keys = 1000000;
  int threads = 4;
  size_t ops_per_thread = 100000;
  double bulk_fraction = 0.5;
  double zipf_theta = 0.99;
  size_t scan_length = 100;
  /// Consecutive reads coalesced into one LookupBatch call (`--read_batch N`).
  /// 1 = scalar Lookup path (default, keeps historical numbers comparable).
  size_t read_batch = 1;
  uint64_t seed = 42;
  std::vector<Dataset> datasets = PaperDatasets();
  std::vector<std::string> indexes = PaperIndexLineup();
  std::string dataset_file;  // optional real SOSD file
  /// `--metrics_json PATH`: append one JSON line per run (see
  /// RunOptions::metrics_json); empty = disabled.
  std::string metrics_json;
  /// `--metrics_interval S`: seconds between interval snapshots within a run
  /// (0 = final snapshot only).
  double metrics_interval = 0;
  /// `--trace_json PATH`: enable the flight recorder (common/trace.h) for the
  /// whole process and write a Chrome trace-event JSON file (loadable in
  /// Perfetto / chrome://tracing) on exit of each RunOne. Empty = disabled.
  /// With ALT_TRACING=OFF builds the file still appears but holds no events.
  std::string trace_json;
  /// `--dump_structure PATH`: after each run, append the index's structural
  /// JSON report (memory decomposition, segment/occupancy histograms, ART
  /// census; see AltIndex::StructureJson) to PATH. "-" = stdout.
  std::string dump_structure;
  /// `--path_breakdown`: collect per-(op × serving path) latency attribution
  /// and print the breakdown table after each run.
  bool path_breakdown = false;
  /// `--perf_stat`: per-thread perf_event_open counter groups around the
  /// timed loop; prints the cycles/instructions/LLC-miss/branch-miss per-op
  /// block after each run and adds a "perf" object to the metrics JSON line.
  /// Degrades tier-by-tier when the PMU is unavailable (see
  /// common/perf_counters.h) and says so instead of printing zeros.
  bool perf_stat = false;

  static BenchConfig Parse(int argc, char** argv);
};

/// Dataset keys for `d` under `cfg` (generated, or loaded from --dataset-file).
std::vector<Key> LoadKeys(const BenchConfig& cfg, Dataset d);

/// Bulk-load `index` with cfg.bulk_fraction of `keys` (values = ValueFor) and
/// return the split. Aborts on bulk-load failure.
BenchSetup LoadIndex(ConcurrentIndex* index, const std::vector<Key>& keys,
                     double bulk_fraction);

/// Run `workload` against a freshly built `index_name` over `keys`.
RunResult RunOne(const BenchConfig& cfg, const std::string& index_name,
                 const std::vector<Key>& keys, WorkloadType workload,
                 const AltOptions& alt_options = {});

/// Name of the upper-model search `radix_bits` selects, for table rows and
/// the --perf_stat header: "binary search (paper)" or "radix <bits>b".
std::string UpperModelSearchName(int radix_bits);

/// Printing helpers: paper-style aligned table rows.
void PrintHeader(const std::string& title, const std::vector<std::string>& columns);
void PrintRow(const std::vector<std::string>& cells);
std::string Fmt(double v, int precision = 2);

}  // namespace bench
}  // namespace alt
