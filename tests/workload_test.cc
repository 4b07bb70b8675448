#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "baselines/factory.h"
#include "common/epoch.h"
#include "common/metrics.h"
#include "datasets/dataset.h"
#include "datasets/sosd_loader.h"
#include "workload/runner.h"
#include "workload/workload.h"

namespace alt {
namespace {

// ---------------------------------------------------------------------------
// Dataset generators
// ---------------------------------------------------------------------------

class DatasetTest : public ::testing::TestWithParam<Dataset> {};

TEST_P(DatasetTest, SortedUniqueExactCount) {
  const auto keys = GenerateKeys(GetParam(), 50000, 5);
  ASSERT_EQ(keys.size(), 50000u);
  for (size_t i = 1; i < keys.size(); ++i) {
    ASSERT_LT(keys[i - 1], keys[i]) << DatasetName(GetParam()) << " at " << i;
  }
}

TEST_P(DatasetTest, DeterministicForSeed) {
  const auto a = GenerateKeys(GetParam(), 5000, 9);
  const auto b = GenerateKeys(GetParam(), 5000, 9);
  EXPECT_EQ(a, b);
  const auto c = GenerateKeys(GetParam(), 5000, 10);
  if (GetParam() != Dataset::kSequential) EXPECT_NE(a, c);
}

INSTANTIATE_TEST_SUITE_P(
    All, DatasetTest,
    ::testing::Values(Dataset::kLibio, Dataset::kOsm, Dataset::kFb,
                      Dataset::kLonglat, Dataset::kUniform, Dataset::kLognormal,
                      Dataset::kSequential),
    [](const auto& info) { return DatasetName(info.param); });

TEST(DatasetTest, ParseRoundTrips) {
  for (const char* name :
       {"libio", "osm", "fb", "longlat", "uniform", "lognormal", "sequential"}) {
    Dataset d;
    ASSERT_TRUE(ParseDataset(name, &d).ok()) << name;
    EXPECT_STREQ(DatasetName(d), name);
  }
  Dataset d;
  EXPECT_FALSE(ParseDataset("nope", &d).ok());
}

// ---------------------------------------------------------------------------
// SOSD loader
// ---------------------------------------------------------------------------

TEST(SosdLoaderTest, RoundTrip) {
  const auto keys = GenerateKeys(Dataset::kOsm, 10000, 3);
  const std::string path = ::testing::TempDir() + "/sosd_roundtrip.bin";
  ASSERT_TRUE(WriteSosdFile(path, keys).ok());
  std::vector<Key> loaded;
  ASSERT_TRUE(LoadSosdFile(path, 0, &loaded).ok());
  EXPECT_EQ(loaded, keys);
  // Limited read.
  ASSERT_TRUE(LoadSosdFile(path, 100, &loaded).ok());
  EXPECT_EQ(loaded.size(), 100u);
  std::remove(path.c_str());
}

TEST(SosdLoaderTest, MissingFileFails) {
  std::vector<Key> out;
  EXPECT_EQ(LoadSosdFile("/no/such/file.bin", 0, &out).code(),
            Status::Code::kIOError);
}

// ---------------------------------------------------------------------------
// Workload generation
// ---------------------------------------------------------------------------

TEST(WorkloadTest, ParseRoundTrips) {
  for (const char* name :
       {"read-only", "read-heavy", "balanced", "write-heavy", "write-only", "scan"}) {
    WorkloadType w;
    ASSERT_TRUE(ParseWorkload(name, &w).ok()) << name;
    EXPECT_STREQ(WorkloadName(w), name);
  }
  WorkloadType w;
  ASSERT_TRUE(ParseWorkload("rwb", &w).ok());
  EXPECT_EQ(w, WorkloadType::kBalanced);
}

TEST(WorkloadTest, MixRatiosApproximatelyHonored) {
  const auto loaded = GenerateKeys(Dataset::kUniform, 10000, 3);
  const auto pool = GenerateKeys(Dataset::kLognormal, 40000, 4);
  for (auto [type, expect_pct] :
       std::vector<std::pair<WorkloadType, int>>{{WorkloadType::kReadOnly, 0},
                                                 {WorkloadType::kReadHeavy, 20},
                                                 {WorkloadType::kBalanced, 50},
                                                 {WorkloadType::kWriteHeavy, 80},
                                                 {WorkloadType::kWriteOnly, 100}}) {
    WorkloadOptions opts;
    opts.type = type;
    opts.ops_per_thread = 20000;
    auto streams = GenerateOpStreams(loaded, pool, 2, opts);
    ASSERT_EQ(streams.size(), 2u);
    size_t inserts = 0, total = 0;
    for (const auto& s : streams) {
      for (const auto& op : s) {
        total++;
        if (op.type == OpType::kInsert) inserts++;
      }
    }
    const double pct = 100.0 * static_cast<double>(inserts) / static_cast<double>(total);
    EXPECT_NEAR(pct, expect_pct, 2.0) << WorkloadName(type);
  }
}

TEST(WorkloadTest, InsertKeysAreDisjointAcrossThreads) {
  const auto loaded = GenerateKeys(Dataset::kUniform, 1000, 3);
  const auto pool = GenerateKeys(Dataset::kUniform, 40000, 77);
  WorkloadOptions opts;
  opts.type = WorkloadType::kWriteOnly;
  opts.ops_per_thread = 5000;
  auto streams = GenerateOpStreams(loaded, pool, 4, opts);
  std::set<Key> seen;
  for (const auto& s : streams) {
    std::set<Key> mine;
    for (const auto& op : s) mine.insert(op.key);
    for (Key k : mine) {
      EXPECT_TRUE(seen.insert(k).second) << "key shared across threads";
    }
  }
}

TEST(WorkloadTest, StreamsEndWhenTheInsertShardIsUsedUp) {
  // Asking for more inserts than a thread's shard holds must not wrap the
  // shard: a repeated insert is a rejected duplicate, not throughput.
  const auto loaded = GenerateKeys(Dataset::kUniform, 1000, 3);
  const auto pool = GenerateKeys(Dataset::kUniform, 4000, 77);
  WorkloadOptions opts;
  opts.type = WorkloadType::kWriteOnly;
  opts.ops_per_thread = 5000;  // above each thread's 1000-key shard
  auto streams = GenerateOpStreams(loaded, pool, 4, opts);
  std::set<Key> seen;
  for (const auto& s : streams) {
    EXPECT_EQ(s.size(), pool.size() / 4);
    for (const auto& op : s) {
      EXPECT_TRUE(seen.insert(op.key).second) << "insert key repeated";
    }
  }
}

TEST(WorkloadTest, ScanWorkloadEmitsScans) {
  const auto loaded = GenerateKeys(Dataset::kUniform, 1000, 3);
  WorkloadOptions opts;
  opts.type = WorkloadType::kScan;
  opts.ops_per_thread = 100;
  auto streams = GenerateOpStreams(loaded, {}, 1, opts);
  for (const auto& op : streams[0]) EXPECT_EQ(op.type, OpType::kScan);
}

TEST(WorkloadTest, SequentialInsertsAreSequential) {
  const auto loaded = GenerateKeys(Dataset::kUniform, 1000, 3);
  const auto pool = GenerateKeys(Dataset::kSequential, 10000, 3);
  WorkloadOptions opts;
  opts.type = WorkloadType::kWriteOnly;
  opts.ops_per_thread = 1000;
  opts.sequential_inserts = true;
  auto streams = GenerateOpStreams(loaded, pool, 1, opts);
  for (size_t i = 1; i < streams[0].size(); ++i) {
    EXPECT_GT(streams[0][i].key, streams[0][i - 1].key);
  }
}

// ---------------------------------------------------------------------------
// SplitDataset + runner end-to-end
// ---------------------------------------------------------------------------

TEST(RunnerTest, SplitDatasetPreservesAllKeysDisjointly) {
  const auto keys = GenerateKeys(Dataset::kOsm, 10000, 3);
  const auto setup = SplitDataset(keys, 0.5);
  EXPECT_EQ(setup.loaded.size() + setup.pool.size(), keys.size());
  EXPECT_NEAR(static_cast<double>(setup.loaded.size()) / keys.size(), 0.5, 0.05);
  std::set<Key> all(setup.loaded.begin(), setup.loaded.end());
  for (Key k : setup.pool) EXPECT_TRUE(all.insert(k).second);
}

TEST(RunnerTest, SplitDatasetHandlesEmptyInput) {
  // Regression: an empty dataset used to dereference keys.front().
  const auto setup = SplitDataset({}, 0.5);
  EXPECT_TRUE(setup.loaded.empty());
  EXPECT_TRUE(setup.pool.empty());
}

TEST(RunnerTest, SplitDatasetTinyBulkFractionStillLoadsSomething) {
  const auto keys = GenerateKeys(Dataset::kUniform, 1000, 3);
  const auto setup = SplitDataset(keys, 0.0);
  EXPECT_FALSE(setup.loaded.empty());
  EXPECT_EQ(setup.loaded.size() + setup.pool.size(), keys.size());
}

TEST(RunnerTest, EndToEndBalancedRunProducesSaneNumbers) {
  auto index = MakeIndex("alt");
  const auto keys = GenerateKeys(Dataset::kLibio, 40000, 3);
  const auto setup = SplitDataset(keys, 0.5);
  std::vector<Value> vals(setup.loaded.size());
  for (size_t i = 0; i < setup.loaded.size(); ++i) vals[i] = ValueFor(setup.loaded[i]);
  ASSERT_TRUE(
      index->BulkLoad(setup.loaded.data(), vals.data(), setup.loaded.size()).ok());
  WorkloadOptions opts;
  opts.type = WorkloadType::kBalanced;
  // About 7.5k inserts per thread against a ~10k-key shard, so no stream
  // ends early.
  opts.ops_per_thread = 15000;
  auto streams = GenerateOpStreams(setup.loaded, setup.pool, 2, opts);
  const RunResult r = RunWorkload(index.get(), streams);
  EXPECT_EQ(r.total_ops, 30000u);
  EXPECT_GT(r.throughput_mops, 0.0);
  EXPECT_GT(r.p999_ns, 0u);
  EXPECT_GE(r.p999_ns, r.p50_ns);
  // Reads draw from loaded keys and inserts are fresh keys.
  EXPECT_EQ(r.failed_ops, 0u);
  EpochManager::Global().DrainAll();
}

TEST(RunnerTest, ReadOnlyRunHasNoFailures) {
  auto index = MakeIndex("art");
  const auto keys = GenerateKeys(Dataset::kOsm, 20000, 3);
  std::vector<Value> vals(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) vals[i] = ValueFor(keys[i]);
  ASSERT_TRUE(index->BulkLoad(keys.data(), vals.data(), keys.size()).ok());
  WorkloadOptions opts;
  opts.type = WorkloadType::kReadOnly;
  opts.ops_per_thread = 10000;
  auto streams = GenerateOpStreams(keys, {}, 2, opts);
  const RunResult r = RunWorkload(index.get(), streams);
  EXPECT_EQ(r.failed_ops, 0u);
  EpochManager::Global().DrainAll();
}

TEST(RunnerTest, ScanPastEndOfKeyspaceIsNotAFailure) {
  // Regression: a scan starting beyond the last key legitimately returns 0
  // results; the runner used to count it as a failed op.
  auto index = MakeIndex("alt");
  std::vector<Key> keys;
  for (Key k = 0; k < 1000; ++k) keys.push_back(k * 2);
  std::vector<Value> vals(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) vals[i] = ValueFor(keys[i]);
  ASSERT_TRUE(index->BulkLoad(keys.data(), vals.data(), keys.size()).ok());
  std::vector<std::vector<Op>> streams(1);
  const Key beyond = keys.back() + 1;
  for (int i = 0; i < 64; ++i) streams[0].push_back({OpType::kScan, beyond});
  for (int i = 0; i < 64; ++i) streams[0].push_back({OpType::kScan, 0});
  const RunResult r = RunWorkload(index.get(), streams);
  EXPECT_EQ(r.failed_ops, 0u);
  EXPECT_EQ(r.empty_scans, 64u);
  EpochManager::Global().DrainAll();
}

// Minimal structural JSON check: balanced braces/brackets outside strings,
// no trailing garbage. Catches malformed exporter output without a parser.
bool LooksLikeJsonObject(const std::string& s) {
  if (s.empty() || s.front() != '{') return false;
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
      if (depth == 0 && i + 1 != s.size()) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(RunnerTest, MetricsJsonEmitsParseableFinalLine) {
  auto index = MakeIndex("alt");
  const auto keys = GenerateKeys(Dataset::kLibio, 20000, 3);
  const auto setup = SplitDataset(keys, 0.5);
  std::vector<Value> vals(setup.loaded.size());
  for (size_t i = 0; i < setup.loaded.size(); ++i) vals[i] = ValueFor(setup.loaded[i]);
  ASSERT_TRUE(
      index->BulkLoad(setup.loaded.data(), vals.data(), setup.loaded.size()).ok());
  WorkloadOptions opts;
  opts.type = WorkloadType::kBalanced;
  opts.ops_per_thread = 10000;
  auto streams = GenerateOpStreams(setup.loaded, setup.pool, 2, opts);

  const std::string path = ::testing::TempDir() + "/runner_metrics.jsonl";
  std::remove(path.c_str());
  RunOptions run_opts;
  run_opts.metrics_json = path;
  run_opts.metrics_label = "alt/balanced/2t";
  const RunResult r = RunWorkload(index.get(), streams, run_opts);
  EXPECT_GT(r.total_ops, 0u);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 1u) << "one final line, no interval sampler";
  const std::string& line = lines[0];
  EXPECT_TRUE(LooksLikeJsonObject(line)) << line;
  EXPECT_NE(line.find("\"label\":\"alt/balanced/2t\""), std::string::npos);
  EXPECT_NE(line.find("\"phase\":\"final\""), std::string::npos);
  // The issue's minimum payload: learned hits, ART lookups, conflict inserts,
  // fast-pointer hits, retrain counters (the trace carries the durations),
  // and the index's live key count after the run.
  for (const char* field :
       {"\"learned_hits\":", "\"art_lookups\":", "\"conflict_inserts\":",
        "\"fast_pointer_hits\":", "\"retrain_started\":", "\"retrain_finished\":",
        "\"live_keys\":", "\"throughput_mops\":", "\"empty_scans\":"}) {
    EXPECT_NE(line.find(field), std::string::npos) << field;
  }
#if !defined(ALT_METRICS_DISABLED)
  // A balanced run over a fresh index must actually touch the learned layer.
  EXPECT_EQ(line.find("\"learned_hits\":0,"), std::string::npos)
      << "learned-hit counter stayed zero across a balanced run";
#endif
  std::remove(path.c_str());
  EpochManager::Global().DrainAll();
}

TEST(RunnerTest, MetricsJsonIntervalSamplerAppendsLines) {
  auto index = MakeIndex("alt");
  const auto keys = GenerateKeys(Dataset::kUniform, 30000, 7);
  std::vector<Value> vals(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) vals[i] = ValueFor(keys[i]);
  ASSERT_TRUE(index->BulkLoad(keys.data(), vals.data(), keys.size()).ok());
  WorkloadOptions opts;
  opts.type = WorkloadType::kReadOnly;
  opts.ops_per_thread = 400000;  // long enough to cross a few 5ms intervals
  auto streams = GenerateOpStreams(keys, {}, 2, opts);

  const std::string path = ::testing::TempDir() + "/runner_metrics_interval.jsonl";
  std::remove(path.c_str());
  RunOptions run_opts;
  run_opts.metrics_json = path;
  run_opts.metrics_interval_seconds = 0.005;
  run_opts.metrics_label = "interval-test";
  RunWorkload(index.get(), streams, run_opts);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  size_t total = 0, finals = 0;
  for (std::string line; std::getline(in, line);) {
    ++total;
    EXPECT_TRUE(LooksLikeJsonObject(line)) << line;
    if (line.find("\"phase\":\"final\"") != std::string::npos) ++finals;
  }
  EXPECT_EQ(finals, 1u);
  EXPECT_GE(total, 1u);  // interval count is timing-dependent; final is not
  std::remove(path.c_str());
  EpochManager::Global().DrainAll();
}

}  // namespace
}  // namespace alt
