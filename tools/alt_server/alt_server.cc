/// \file
/// \brief alt_server: network-facing KV server over ShardedAltIndex.
///
/// Preloads a deterministic keyset (same GenerateKeys(dataset, keys, seed)
/// call the load generator makes — see docs/OPERATIONS.md), starts the epoll
/// server, prints one JSON line with the bound port, then runs until SIGINT/
/// SIGTERM or --duration elapses. STATS responses and a final stderr line
/// carry the serving counters (docs/PROTOCOL.md, DESIGN.md §13).

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/trace.h"
#include "datasets/dataset.h"
#include "server/server.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "Usage: %s [options]\n"
      "  --port N        TCP port (0 = ephemeral; default 9117)\n"
      "  --workers N     epoll worker threads (default 2)\n"
      "  --batch N       max GET keys per coalesced LookupBatch, 1..64\n"
      "                  (default 16; 1 = scalar baseline)\n"
      "  --shards N      index shards (default 4)\n"
      "  --partition P   range | hash (default range)\n"
      "  --dataset D     libio|osm|fb|longlat|uniform|lognormal|sequential\n"
      "                  (default fb)\n"
      "  --keys N        preloaded keyset size (default 200000)\n"
      "  --seed N        keyset seed (default 99)\n"
      "  --duration S    exit after S seconds (default 0 = run until signal)\n"
      "  --trace_json F  flight-recorder spans -> Chrome trace-event JSON at\n"
      "                  shutdown (open in Perfetto; empty = tracing off)\n",
      argv0);
}

uint64_t ParseU64(const char* s, const char* flag) {
  char* end = nullptr;
  const uint64_t v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') {
    std::fprintf(stderr, "alt_server: bad value for %s: '%s'\n", flag, s);
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  alt::server::ServerOptions opt;
  alt::Dataset dataset = alt::Dataset::kFb;
  size_t keys_n = 200000;
  uint64_t seed = 99;
  uint64_t duration_s = 0;
  std::string trace_json;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "alt_server: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--port") {
      opt.port = static_cast<uint16_t>(ParseU64(next("--port"), "--port"));
    } else if (a == "--workers") {
      opt.num_workers = static_cast<int>(ParseU64(next("--workers"), "--workers"));
    } else if (a == "--batch") {
      opt.batch_size = ParseU64(next("--batch"), "--batch");
    } else if (a == "--shards") {
      opt.sharded.num_shards =
          static_cast<int>(ParseU64(next("--shards"), "--shards"));
    } else if (a == "--partition") {
      const std::string p = next("--partition");
      if (p == "range") {
        opt.sharded.partition = alt::shard::Partition::kRange;
      } else if (p == "hash") {
        opt.sharded.partition = alt::shard::Partition::kHash;
      } else {
        std::fprintf(stderr, "alt_server: --partition must be range|hash\n");
        return 2;
      }
    } else if (a == "--dataset") {
      alt::Status s = alt::ParseDataset(next("--dataset"), &dataset);
      if (!s.ok()) {
        std::fprintf(stderr, "alt_server: %s\n", s.ToString().c_str());
        return 2;
      }
    } else if (a == "--keys") {
      keys_n = ParseU64(next("--keys"), "--keys");
    } else if (a == "--seed") {
      seed = ParseU64(next("--seed"), "--seed");
    } else if (a == "--duration") {
      duration_s = ParseU64(next("--duration"), "--duration");
    } else if (a == "--trace_json") {
      trace_json = next("--trace_json");
    } else if (a == "--help" || a == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "alt_server: unknown flag '%s'\n", a.c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  // Block the shutdown signals before any thread spawns so sigtimedwait below
  // is the only consumer (worker threads inherit the mask).
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  if (!trace_json.empty()) alt::trace::SetEnabled(true);

  alt::server::KvServer server(opt);
  {
    const std::vector<alt::Key> keys = alt::GenerateKeys(dataset, keys_n, seed);
    std::vector<alt::Value> values(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) values[i] = alt::ValueFor(keys[i]);
    alt::Status s = server.Preload(keys.data(), values.data(), keys.size());
    if (!s.ok()) {
      std::fprintf(stderr, "alt_server: preload failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
  }
  alt::Status s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "alt_server: start failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // One machine-readable line for wrappers (CI smoke leg parses the port).
  std::printf(
      "{\"alt_server\":{\"port\":%u,\"workers\":%d,\"batch\":%zu,"
      "\"shards\":%d,\"partition\":\"%s\",\"dataset\":\"%s\",\"keys\":%zu,"
      "\"seed\":%llu}}\n",
      server.port(), opt.num_workers, opt.batch_size, opt.sharded.num_shards,
      opt.sharded.partition == alt::shard::Partition::kRange ? "range" : "hash",
      alt::DatasetName(dataset), keys_n,
      static_cast<unsigned long long>(seed));
  std::fflush(stdout);

  if (duration_s > 0) {
    timespec left{static_cast<time_t>(duration_s), 0};
    sigtimedwait(&sigs, nullptr, &left);  // signal or timeout both end the run
  } else {
    int sig = 0;
    sigwait(&sigs, &sig);
  }

  server.Stop();
  // Stop() keeps the counters, so this line reports the whole run.
  std::fprintf(stderr, "%s\n", server.StatsJson().c_str());
  if (!trace_json.empty() && !alt::trace::WriteChromeTrace(trace_json)) {
    std::fprintf(stderr, "alt_server: failed to write %s\n", trace_json.c_str());
    return 1;
  }
  return 0;
}
