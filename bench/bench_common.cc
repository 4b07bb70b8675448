#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/cpu_features.h"
#include "common/epoch.h"
#include "common/trace.h"
#include "datasets/sosd_loader.h"

namespace alt {
namespace bench {

namespace {

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

BenchConfig BenchConfig::Parse(int argc, char** argv) {
  BenchConfig cfg;
  auto next = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (!std::strcmp(a, "--keys")) {
      cfg.keys = std::strtoull(next(i), nullptr, 10);
    } else if (!std::strcmp(a, "--threads")) {
      cfg.threads = std::atoi(next(i));
    } else if (!std::strcmp(a, "--ops")) {
      cfg.ops_per_thread = std::strtoull(next(i), nullptr, 10);
    } else if (!std::strcmp(a, "--bulk-fraction")) {
      cfg.bulk_fraction = std::atof(next(i));
    } else if (!std::strcmp(a, "--zipf-theta")) {
      cfg.zipf_theta = std::atof(next(i));
    } else if (!std::strcmp(a, "--scan-length")) {
      cfg.scan_length = std::strtoull(next(i), nullptr, 10);
    } else if (!std::strcmp(a, "--read_batch") || !std::strcmp(a, "--read-batch")) {
      cfg.read_batch = std::strtoull(next(i), nullptr, 10);
      if (cfg.read_batch == 0) cfg.read_batch = 1;
    } else if (!std::strcmp(a, "--seed")) {
      cfg.seed = std::strtoull(next(i), nullptr, 10);
    } else if (!std::strcmp(a, "--dataset-file")) {
      cfg.dataset_file = next(i);
    } else if (!std::strcmp(a, "--metrics_json") || !std::strcmp(a, "--metrics-json")) {
      cfg.metrics_json = next(i);
    } else if (!std::strcmp(a, "--metrics_interval") ||
               !std::strcmp(a, "--metrics-interval")) {
      cfg.metrics_interval = std::atof(next(i));
    } else if (!std::strcmp(a, "--trace_json") || !std::strcmp(a, "--trace-json")) {
      cfg.trace_json = next(i);
    } else if (!std::strcmp(a, "--dump_structure") ||
               !std::strcmp(a, "--dump-structure")) {
      cfg.dump_structure = next(i);
    } else if (!std::strcmp(a, "--path_breakdown") ||
               !std::strcmp(a, "--path-breakdown")) {
      cfg.path_breakdown = true;
    } else if (!std::strcmp(a, "--perf_stat") || !std::strcmp(a, "--perf-stat")) {
      cfg.perf_stat = true;
    } else if (!std::strcmp(a, "--datasets")) {
      cfg.datasets.clear();
      for (const auto& name : SplitCsv(next(i))) {
        Dataset d;
        if (!ParseDataset(name, &d).ok()) {
          std::fprintf(stderr, "unknown dataset %s\n", name.c_str());
          std::exit(2);
        }
        cfg.datasets.push_back(d);
      }
    } else if (!std::strcmp(a, "--indexes")) {
      cfg.indexes = SplitCsv(next(i));
      for (const auto& name : cfg.indexes) {
        if (MakeIndex(name) == nullptr) {
          std::fprintf(stderr, "unknown index %s\n", name.c_str());
          std::exit(2);
        }
      }
    } else if (!std::strcmp(a, "--help")) {
      std::printf(
          "flags: --keys N --threads T --ops N --bulk-fraction F "
          "--zipf-theta F --scan-length N --read_batch N --seed N "
          "--datasets a,b --indexes a,b --dataset-file PATH "
          "--metrics_json PATH --metrics_interval S "
          "--trace_json PATH --dump_structure PATH|- --path_breakdown "
          "--perf_stat\n"
          "env: ALT_BENCH_SCALE=K multiplies --keys and --ops\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", a);
      std::exit(2);
    }
  }
  if (const char* scale_env = std::getenv("ALT_BENCH_SCALE")) {
    const double scale = std::atof(scale_env);
    if (scale > 0) {
      cfg.keys = static_cast<size_t>(static_cast<double>(cfg.keys) * scale);
      cfg.ops_per_thread =
          static_cast<size_t>(static_cast<double>(cfg.ops_per_thread) * scale);
    }
  }
  // Arm the flight recorder as early as possible so key generation and bulk
  // load are captured too, not just the timed run.
  if (!cfg.trace_json.empty()) trace::SetEnabled(true);
  return cfg;
}

std::vector<Key> LoadKeys(const BenchConfig& cfg, Dataset d) {
  trace::Span span("load_keys", "bench", cfg.keys);
  if (!cfg.dataset_file.empty()) {
    std::vector<Key> keys;
    const Status st = LoadSosdFile(cfg.dataset_file, cfg.keys, &keys);
    if (!st.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", cfg.dataset_file.c_str(),
                   st.ToString().c_str());
      std::exit(1);
    }
    return keys;
  }
  return GenerateKeys(d, cfg.keys, cfg.seed);
}

BenchSetup LoadIndex(ConcurrentIndex* index, const std::vector<Key>& keys,
                     double bulk_fraction) {
  trace::Span span("load_index", "bench", keys.size());
  BenchSetup setup = SplitDataset(keys, bulk_fraction);
  std::vector<Value> values(setup.loaded.size());
  for (size_t i = 0; i < setup.loaded.size(); ++i) {
    values[i] = ValueFor(setup.loaded[i]);
  }
  const Status st =
      index->BulkLoad(setup.loaded.data(), values.data(), setup.loaded.size());
  if (!st.ok()) {
    std::fprintf(stderr, "bulk load failed for %s: %s\n", index->Name().c_str(),
                 st.ToString().c_str());
    std::exit(1);
  }
  return setup;
}

RunResult RunOne(const BenchConfig& cfg, const std::string& index_name,
                 const std::vector<Key>& keys, WorkloadType workload,
                 const AltOptions& alt_options) {
  auto index = MakeIndex(index_name, alt_options);
  if (index == nullptr) {
    std::fprintf(stderr, "unknown index %s\n", index_name.c_str());
    std::exit(2);
  }
  const BenchSetup setup = LoadIndex(index.get(), keys, cfg.bulk_fraction);
  WorkloadOptions opts;
  opts.type = workload;
  opts.ops_per_thread = cfg.ops_per_thread;
  opts.zipf_theta = cfg.zipf_theta;
  opts.scan_length = cfg.scan_length;
  opts.seed = cfg.seed;
  const auto streams = GenerateOpStreams(setup.loaded, setup.pool, cfg.threads, opts);
  RunOptions run_opts;
  run_opts.scan_length = cfg.scan_length;
  run_opts.read_batch = cfg.read_batch;
  run_opts.metrics_json = cfg.metrics_json;
  run_opts.metrics_interval_seconds = cfg.metrics_interval;
  run_opts.path_breakdown = cfg.path_breakdown;
  run_opts.perf_stat = cfg.perf_stat;
  run_opts.metrics_label = index_name;
  run_opts.metrics_label += '/';
  run_opts.metrics_label += WorkloadName(workload);
  run_opts.metrics_label += '/';
  run_opts.metrics_label += std::to_string(cfg.threads) + "t";
  const RunResult r = RunWorkload(index.get(), streams, run_opts);
  if (cfg.path_breakdown) PrintPathBreakdown(r);
  if (cfg.perf_stat) {
    // The counter numbers are only interpretable against the code path that
    // produced them, so name the active read-path kernel alongside them.
    std::printf("read-path simd: %s\n", cpu::SimdModeName());
    PrintPerfStat(r);
  }
  if (!cfg.dump_structure.empty()) {
    const std::string report = index->StructureJson();
    if (cfg.dump_structure == "-") {
      std::fwrite(report.data(), 1, report.size(), stdout);
    } else {
      std::FILE* f = std::fopen(cfg.dump_structure.c_str(), "a");
      if (f != nullptr) {
        std::fwrite(report.data(), 1, report.size(), f);
        std::fclose(f);
      } else {
        std::fprintf(stderr, "cannot open dump_structure file '%s'\n",
                     cfg.dump_structure.c_str());
      }
    }
  }
  if (!cfg.trace_json.empty()) {
    // Rewrite the cumulative trace after every run so a partial bench sweep
    // still leaves a loadable document behind.
    if (!trace::WriteChromeTrace(cfg.trace_json)) {
      std::fprintf(stderr, "cannot write trace_json file '%s'\n",
                   cfg.trace_json.c_str());
    }
  }
  index.reset();
  EpochManager::Global().DrainAll();
  return r;
}

void PrintHeader(const std::string& title, const std::vector<std::string>& columns) {
  std::printf("\n=== %s ===\n", title.c_str());
  for (const auto& c : columns) std::printf("%-14s", c.c_str());
  std::printf("\n");
  for (size_t i = 0; i < columns.size(); ++i) std::printf("%-14s", "------------");
  std::printf("\n");
}

void PrintRow(const std::vector<std::string>& cells) {
  for (const auto& c : cells) std::printf("%-14s", c.c_str());
  std::printf("\n");
  std::fflush(stdout);
}

std::string Fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace bench
}  // namespace alt
