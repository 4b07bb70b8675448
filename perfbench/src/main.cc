/// \file
/// \brief perfbench: runs one workload of the repository benchmark and prints
/// one JSON object as the last line of standard output. run.py builds and
/// drives it; see ../README.md.
///
///   perfbench --workload index-read|index-write|served --seed N --seconds S
///             --trace 0|1 --server-bin PATH [--out-dir DIR] [--scale full|tiny]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "common/cpu_features.h"
#include "spans.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload index-read|index-write|served --seed N "
               "--seconds S --trace 0|1 --server-bin PATH [--out-dir DIR] "
               "[--scale full|tiny]\n");
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  std::string scale = "full";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const std::string v = argv[++i];
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::atoi(v.c_str());
    } else if (a == "--trace") {
      cfg.trace = v == "1";
    } else if (a == "--out-dir") {
      cfg.out_dir = v;
    } else if (a == "--server-bin") {
      cfg.server_bin = v;
    } else if (a == "--scale") {
      scale = v;
    } else {
      Usage();
      return 2;
    }
  }
  const bool index_workload = cfg.workload == "index-read" || cfg.workload == "index-write";
  if ((!index_workload && cfg.workload != "served") || cfg.seconds < 1 ||
      cfg.server_bin.empty() || (scale != "full" && scale != "tiny")) {
    Usage();
    return 2;
  }
  if (scale == "tiny") {
    cfg.index_keys = 200000;
    cfg.served_keys = 20000;
    cfg.probe_keys = 10000;
  }

  // The load generator never oversubscribes the CPUs this process may use:
  // index threads, and generator threads plus server workers, each fit in
  // them; so do the generator's connections. `served` pins the server and
  // the generator to disjoint CPUs of this set.
  cfg.cpus = perfbench::AllowedCpus();
  const long nproc = static_cast<long>(cfg.cpus.size());
  const int served_threads = cfg.gen_threads + cfg.server_workers;
  const int conns = cfg.gen_threads * cfg.conns_per_thread;
  if (cfg.threads > nproc || served_threads > nproc || conns > nproc) {
    std::fprintf(stderr,
                 "perfbench: needs %d index threads, %d generator+server threads and %d "
                 "connections within the %ld CPUs of its affinity mask\n",
                 cfg.threads, served_threads, conns, nproc);
    return 1;
  }

  perfbench::SpanLog::Get().Enable(cfg.trace);
  perfbench::Outcome out;
  const double mem_before = perfbench::MemoryLatencyNs(perfbench::SubSeed(cfg.seed, 7));
  if (index_workload) {
    perfbench::RunIndexWorkload(cfg, cfg.workload == "index-write", &out);
  } else {
    perfbench::RunServedWorkload(cfg, &out);
  }
  const double mem_after = perfbench::MemoryLatencyNs(perfbench::SubSeed(cfg.seed, 8));
  char mem[128];
  std::snprintf(mem, sizeof(mem),
                "before %.1f, after %.1f (64 MiB random walk; machine state, not compared)",
                mem_before, mem_after);
  out.Diag("host_mem_latency_ns", mem);
  if (!out.error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", out.error.c_str());
    return 1;
  }

  const uint64_t failed = out.failures.count();
  const uint64_t attempted = out.attempted > 0 ? out.attempted : 1;
  const double failed_frac = static_cast<double>(failed) / static_cast<double>(attempted);
  out.Diag("failed_frac", perfbench::WithBase(static_cast<double>(failed),
                                              static_cast<double>(attempted), "ops"));
  if (cfg.trace) {
    out.layer.Set("failed_frac", failed_frac, "ratio");
    const std::string span_file = (cfg.out_dir.empty() ? std::string(".") : cfg.out_dir) +
                                  "/spans-" + cfg.workload + "-seed" +
                                  std::to_string(cfg.seed) + ".json";
    if (!perfbench::SpanLog::Get().Write(span_file)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", span_file.c_str());
      return 1;
    }
    out.Diag("span_file", span_file + " (" +
                              std::to_string(perfbench::SpanLog::Get().size()) + " spans)");
  }

  const perfbench::MetricTable& metrics = cfg.trace ? out.layer : out.e2e;
  std::string diag = "{";
  for (size_t i = 0; i < out.diag.size(); ++i) {
    if (i > 0) diag += ",";
    diag += JsonString(out.diag[i].first) + ":" + JsonString(out.diag[i].second);
  }
  diag += "}";
  std::string failures = "[";
  for (const std::string& m : out.failures.messages()) {
    failures += (failures.size() > 1 ? "," : "") + JsonString(m);
  }
  failures += "]";
  const char* force = std::getenv("ALT_FORCE_SCALAR");
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s,"
      "\"diagnostics\":%s,\"failures\":%s,\"env\":{\"simd\":%s,\"alt_force_scalar\":%s,"
      "\"nproc\":%ld,\"scale\":%s}}\n",
      failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.Json().c_str(), diag.c_str(),
      failures.c_str(), JsonString(alt::cpu::SimdModeName()).c_str(),
      JsonString(force != nullptr ? force : "<unset>").c_str(), nproc,
      JsonString(scale).c_str());
  return failed == 0 ? 0 : 3;
}
