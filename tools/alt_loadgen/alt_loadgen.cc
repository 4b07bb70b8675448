/// \file
/// \brief alt_loadgen: closed/open-loop load generator for alt_server.
///
/// Drives the wire protocol (docs/PROTOCOL.md) against a live server and
/// prints one JSON result line: latency percentiles (p50/p99/p999), achieved
/// throughput, failure counts, and the server's own STATS document. GETs draw
/// from the keyset the server preloaded, so every failed op is a real
/// correctness failure — see docs/OPERATIONS.md for the keyset contract.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "server/loadgen.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "Usage: %s [options]\n"
      "  --host H          server IPv4 literal (default 127.0.0.1)\n"
      "  --port N          server port (default 9117)\n"
      "  --threads N       generator threads (default 2)\n"
      "  --conns N         connections per thread (default 4)\n"
      "  --ops N           total operations (default 100000)\n"
      "  --open_loop       fixed-arrival-rate mode (default: closed loop)\n"
      "  --rate R          aggregate ops/sec target (open loop; default 50000)\n"
      "  --pipeline N      in-flight ops per connection (closed loop; default 8)\n"
      "  --put_pct P       percent PUTs (default 5)\n"
      "  --del_pct P       percent DELs (default 0)\n"
      "  --scan_pct P      percent SCANs (default 5; remainder = GETs)\n"
      "  --scan_count N    keys per SCAN (default 20)\n"
      "  --dataset D       server's preload dataset (default fb)\n"
      "  --keys N          server's preload keyset size (default 200000)\n"
      "  --seed N          server's preload seed, also seeds the op stream (default 99)\n"
      "  --no_verify       skip GET value verification\n",
      argv0);
}

uint64_t ParseU64(const char* s, const char* flag) {
  char* end = nullptr;
  const uint64_t v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') {
    std::fprintf(stderr, "alt_loadgen: bad value for %s: '%s'\n", flag, s);
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  alt::server::LoadgenOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "alt_loadgen: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--host") {
      opt.host = next("--host");
    } else if (a == "--port") {
      opt.port = static_cast<uint16_t>(ParseU64(next("--port"), "--port"));
    } else if (a == "--threads") {
      opt.threads = static_cast<int>(ParseU64(next("--threads"), "--threads"));
    } else if (a == "--conns") {
      opt.connections_per_thread =
          static_cast<int>(ParseU64(next("--conns"), "--conns"));
    } else if (a == "--ops") {
      opt.ops = ParseU64(next("--ops"), "--ops");
    } else if (a == "--open_loop") {
      opt.open_loop = true;
    } else if (a == "--rate") {
      opt.rate_ops_per_sec = std::atof(next("--rate"));
    } else if (a == "--pipeline") {
      opt.pipeline = static_cast<int>(ParseU64(next("--pipeline"), "--pipeline"));
    } else if (a == "--put_pct") {
      opt.put_pct = static_cast<unsigned>(ParseU64(next("--put_pct"), "--put_pct"));
    } else if (a == "--del_pct") {
      opt.del_pct = static_cast<unsigned>(ParseU64(next("--del_pct"), "--del_pct"));
    } else if (a == "--scan_pct") {
      opt.scan_pct =
          static_cast<unsigned>(ParseU64(next("--scan_pct"), "--scan_pct"));
    } else if (a == "--scan_count") {
      opt.scan_count =
          static_cast<uint32_t>(ParseU64(next("--scan_count"), "--scan_count"));
    } else if (a == "--dataset") {
      alt::Status s = alt::ParseDataset(next("--dataset"), &opt.dataset);
      if (!s.ok()) {
        std::fprintf(stderr, "alt_loadgen: %s\n", s.ToString().c_str());
        return 2;
      }
    } else if (a == "--keys") {
      opt.keyspace = ParseU64(next("--keys"), "--keys");
    } else if (a == "--seed") {
      opt.seed = ParseU64(next("--seed"), "--seed");
    } else if (a == "--no_verify") {
      opt.verify_values = false;
    } else if (a == "--help" || a == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "alt_loadgen: unknown flag '%s'\n", a.c_str());
      Usage(argv[0]);
      return 2;
    }
  }
  if (opt.put_pct + opt.del_pct + opt.scan_pct > 100) {
    std::fprintf(stderr, "alt_loadgen: op mix exceeds 100%%\n");
    return 2;
  }

  const alt::server::LoadgenResult result = alt::server::RunLoadgen(opt);
  std::printf("%s\n", alt::server::LoadgenResultJson(opt, result).c_str());
  if (!result.ok) {
    std::fprintf(stderr, "alt_loadgen: %s\n", result.error.c_str());
    return 1;
  }
  return result.failed_ops == 0 ? 0 : 1;
}
