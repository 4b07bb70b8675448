#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/key_codec.h"
#include "common/status.h"

namespace alt {

/// Workload mixes from the paper (§IV-A2).
enum class WorkloadType {
  kReadOnly,   ///< 100% reads
  kReadHeavy,  ///< 80% reads, 20% inserts
  kBalanced,   ///< 50% reads, 50% inserts
  kWriteHeavy, ///< 20% reads, 80% inserts
  kWriteOnly,  ///< 100% inserts
  kScan,       ///< 100-key scans
};

Status ParseWorkload(const std::string& name, WorkloadType* out);
const char* WorkloadName(WorkloadType w);
std::vector<WorkloadType> PaperWorkloads();

enum class OpType : uint8_t { kRead, kInsert, kScan, kUpdate, kRemove };

struct Op {
  OpType type;
  Key key;
};

/// \brief Pre-generated per-thread operation streams, so the timed region
/// measures only index work.
///
/// Key selection follows the paper: reads draw Zipfian (theta = 0.99 by
/// default) over the bulk-loaded keys; inserts draw uniformly from the
/// reserved (not-yet-loaded) key pool, partitioned per thread so concurrent
/// inserters never collide on the same key; scans start at Zipfian-chosen
/// loaded keys.
struct WorkloadOptions {
  WorkloadType type = WorkloadType::kBalanced;
  /// Upper bound: a stream ends early once its insert shard is used up, so
  /// no insert key repeats.
  size_t ops_per_thread = 200000;
  double zipf_theta = 0.99;
  size_t scan_length = 100;
  uint64_t seed = 1234;
  /// Hot-write mode (§IV-E): inserts are drawn *sequentially* from the pool
  /// (which the caller arranges to be a consecutive key range) to hammer one
  /// region and trigger retraining.
  bool sequential_inserts = false;
};

std::vector<std::vector<Op>> GenerateOpStreams(
    const std::vector<Key>& loaded_keys, const std::vector<Key>& insert_pool,
    int num_threads, const WorkloadOptions& options);

}  // namespace alt
