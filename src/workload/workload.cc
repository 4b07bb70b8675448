#include "workload/workload.h"

#include "common/random.h"
#include "common/zipf.h"

namespace alt {

Status ParseWorkload(const std::string& name, WorkloadType* out) {
  if (name == "read-only" || name == "ro") {
    *out = WorkloadType::kReadOnly;
  } else if (name == "read-heavy" || name == "rh") {
    *out = WorkloadType::kReadHeavy;
  } else if (name == "balanced" || name == "rwb") {
    *out = WorkloadType::kBalanced;
  } else if (name == "write-heavy" || name == "wh") {
    *out = WorkloadType::kWriteHeavy;
  } else if (name == "write-only" || name == "wo") {
    *out = WorkloadType::kWriteOnly;
  } else if (name == "scan") {
    *out = WorkloadType::kScan;
  } else {
    return Status::InvalidArgument("unknown workload: " + name);
  }
  return Status::OK();
}

const char* WorkloadName(WorkloadType w) {
  switch (w) {
    case WorkloadType::kReadOnly: return "read-only";
    case WorkloadType::kReadHeavy: return "read-heavy";
    case WorkloadType::kBalanced: return "balanced";
    case WorkloadType::kWriteHeavy: return "write-heavy";
    case WorkloadType::kWriteOnly: return "write-only";
    case WorkloadType::kScan: return "scan";
  }
  return "?";
}

std::vector<WorkloadType> PaperWorkloads() {
  return {WorkloadType::kReadOnly, WorkloadType::kReadHeavy, WorkloadType::kBalanced,
          WorkloadType::kWriteHeavy, WorkloadType::kWriteOnly};
}

namespace {
int InsertPercent(WorkloadType t) {
  switch (t) {
    case WorkloadType::kReadOnly: return 0;
    case WorkloadType::kReadHeavy: return 20;
    case WorkloadType::kBalanced: return 50;
    case WorkloadType::kWriteHeavy: return 80;
    case WorkloadType::kWriteOnly: return 100;
    case WorkloadType::kScan: return 0;
  }
  return 0;
}
}  // namespace

std::vector<std::vector<Op>> GenerateOpStreams(const std::vector<Key>& loaded_keys,
                                               const std::vector<Key>& insert_pool,
                                               int num_threads,
                                               const WorkloadOptions& options) {
  std::vector<std::vector<Op>> streams(static_cast<size_t>(num_threads));
  const int insert_pct = InsertPercent(options.type);
  const bool scans = options.type == WorkloadType::kScan;

  for (int t = 0; t < num_threads; ++t) {
    Rng rng(options.seed * 1000003 + static_cast<uint64_t>(t));
    ScrambledZipf zipf(loaded_keys.empty() ? 1 : loaded_keys.size(),
                       options.zipf_theta, options.seed + static_cast<uint64_t>(t));
    // Disjoint per-thread shard of the insert pool. Normal mode consumes the
    // shard in a shuffled order (the paper's "insertions are distributed
    // uniformly"); hot-write mode (§IV-E) consumes it in key order to keep
    // hammering one region.
    const size_t shard_size = insert_pool.size() / static_cast<size_t>(num_threads);
    const size_t shard_begin = static_cast<size_t>(t) * shard_size;
    std::vector<uint32_t> order(shard_size);
    for (size_t i = 0; i < shard_size; ++i) order[i] = static_cast<uint32_t>(i);
    if (!options.sequential_inserts) {
      for (size_t i = shard_size; i > 1; --i) {  // Fisher-Yates
        std::swap(order[i - 1], order[rng.NextBounded(i)]);
      }
    }
    size_t shard_next = 0;

    auto& stream = streams[static_cast<size_t>(t)];
    stream.reserve(options.ops_per_thread);
    for (size_t i = 0; i < options.ops_per_thread; ++i) {
      const bool do_insert =
          insert_pct > 0 && shard_size > 0 &&
          rng.NextBounded(100) < static_cast<uint64_t>(insert_pct);
      if (do_insert) {
        // The shard is used up: end the stream rather than repeat a key.
        if (shard_next == shard_size) break;
        const size_t pick = order[shard_next++];
        stream.push_back(Op{OpType::kInsert, insert_pool[shard_begin + pick]});
      } else if (scans) {
        stream.push_back(Op{OpType::kScan, loaded_keys[zipf.Next()]});
      } else {
        stream.push_back(Op{OpType::kRead, loaded_keys[zipf.Next()]});
      }
    }
  }
  return streams;
}

}  // namespace alt
