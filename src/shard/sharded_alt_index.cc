#include "shard/sharded_alt_index.h"

#include <algorithm>
#include <thread>

#include "common/json.h"
#include "common/trace.h"

namespace alt {
namespace shard {

namespace {

/// Per-shard flight-recorder categories. The trace ring stores the pointer,
/// so these must be string literals with static storage (common/trace.h).
const char* ShardEpochCategory(size_t i) {
  static const char* const kCategories[] = {
      "epoch/shard0",  "epoch/shard1",  "epoch/shard2",  "epoch/shard3",
      "epoch/shard4",  "epoch/shard5",  "epoch/shard6",  "epoch/shard7",
      "epoch/shard8",  "epoch/shard9",  "epoch/shard10", "epoch/shard11",
      "epoch/shard12", "epoch/shard13", "epoch/shard14", "epoch/shard15",
      "epoch/shard16", "epoch/shard17", "epoch/shard18", "epoch/shard19",
      "epoch/shard20", "epoch/shard21", "epoch/shard22", "epoch/shard23",
      "epoch/shard24", "epoch/shard25", "epoch/shard26", "epoch/shard27",
      "epoch/shard28", "epoch/shard29", "epoch/shard30", "epoch/shard31",
  };
  static_assert(sizeof(kCategories) / sizeof(kCategories[0]) ==
                    ShardedOptions::kMaxShards,
                "one category literal per possible shard");
  return kCategories[i];
}

}  // namespace

ShardedAltIndex::ShardedAltIndex(ShardedOptions options) : options_(options) {
  options_.num_shards =
      std::clamp(options_.num_shards, 1, ShardedOptions::kMaxShards);
  const size_t n = static_cast<size_t>(options_.num_shards);
  // Pre-BulkLoad boundaries: uniform keyspace split. BulkLoad rebalances to
  // equal key counts; an index used without BulkLoad keeps these.
  const Key step = ~Key{0} / static_cast<Key>(n);
  starts_.resize(n);
  for (size_t i = 0; i < n; ++i) starts_[i] = static_cast<Key>(i) * step;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(MakeShard(i));
    // Empty-load so the index is fully operational without a facade BulkLoad
    // (AltIndex requires one bulk load before any operation).
    shards_.back().index->BulkLoad(nullptr, nullptr, 0);
  }
}

ShardedAltIndex::~ShardedAltIndex() = default;

ShardedAltIndex::Shard ShardedAltIndex::MakeShard(size_t i) const {
  Shard s;
  s.epoch = std::make_unique<EpochManager>(ShardEpochCategory(i));
  AltOptions o = options_.index;
  o.epoch_manager = s.epoch.get();
  s.index = std::make_unique<AltIndex>(o);
  return s;
}

std::string ShardedAltIndex::Name() const {
  return "ALT-sharded" + std::to_string(shards_.size());
}

size_t ShardedAltIndex::ShardIndexOf(Key key) const {
  // Largest i with starts_[i] <= key; starts_[0] == 0 makes this total.
  const auto it = std::upper_bound(starts_.begin(), starts_.end(), key);
  return static_cast<size_t>(it - starts_.begin()) - 1;
}

Status ShardedAltIndex::BulkLoad(const Key* keys, const Value* values, size_t n) {
  trace::Span span("shard_bulk_load", "shard", n);
  if (loaded_) {
    return Status::InvalidArgument("BulkLoad may only run once");
  }
  for (size_t i = 1; i < n; ++i) {
    if (keys[i] <= keys[i - 1]) {
      return Status::InvalidArgument("keys must be sorted and duplicate-free");
    }
  }
  const size_t num_shards = shards_.size();

  // Equal-count cuts over the sorted input, cut i at index i*n/N; the key at
  // each cut becomes the shard's start so runtime dispatch agrees with the
  // load split.
  std::vector<size_t> cut(num_shards + 1);
  for (size_t i = 0; i <= num_shards; ++i) cut[i] = i * n / num_shards;
  std::vector<Key> new_starts = starts_;  // committed only on success
  for (size_t i = 1; i < num_shards; ++i) {
    if (cut[i] < n) new_starts[i] = keys[cut[i]];
  }

  // Rebuild every shard and load its slice. The constructor's empty-loaded
  // shards are discarded: AltIndex bulk-loads exactly once. Each shard is
  // constructed *and* loaded on its worker thread so first-touch places the
  // shard's memory with its loader (the NUMA policy, DESIGN.md §12).
  std::vector<Shard> fresh(num_shards);
  std::vector<Status> status(num_shards);
  auto load_one = [&](size_t i) {
    fresh[i] = MakeShard(i);
    status[i] = fresh[i].index->BulkLoad(keys + cut[i], values + cut[i],
                                         cut[i + 1] - cut[i]);
  };
  if (num_shards == 1) {
    load_one(0);
  } else {
    std::vector<std::thread> loaders;
    loaders.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i) loaders.emplace_back(load_one, i);
    for (auto& t : loaders) t.join();
  }
  for (size_t i = 0; i < num_shards; ++i) {
    if (!status[i].ok()) return status[i];
  }
  starts_ = std::move(new_starts);
  shards_ = std::move(fresh);
  loaded_ = true;
  return Status::OK();
}

bool ShardedAltIndex::Lookup(Key key, Value* out, ServedBy* served) const {
  return shards_[ShardIndexOf(key)].index->Lookup(key, out, served);
}

bool ShardedAltIndex::Insert(Key key, Value value, ServedBy* served) {
  return shards_[ShardIndexOf(key)].index->Insert(key, value, served);
}

bool ShardedAltIndex::Update(Key key, Value value, ServedBy* served) {
  return shards_[ShardIndexOf(key)].index->Update(key, value, served);
}

bool ShardedAltIndex::Remove(Key key, ServedBy* served) {
  return shards_[ShardIndexOf(key)].index->Remove(key, served);
}

size_t ShardedAltIndex::LookupBatch(const Key* keys, size_t n, Value* out,
                                    bool* found) const {
  if (shards_.size() == 1) {
    return shards_[0].index->LookupBatch(keys, n, out, found);
  }
  // Group keys by shard (order within a shard preserved) so each shard runs
  // one AMAC-pipelined batch, then scatter results back to caller positions.
  std::vector<std::vector<uint32_t>> groups(shards_.size());
  for (size_t i = 0; i < n; ++i) {
    groups[ShardIndexOf(keys[i])].push_back(static_cast<uint32_t>(i));
  }
  std::vector<Key> shard_keys;
  std::vector<Value> shard_out;
  std::unique_ptr<bool[]> shard_found(new bool[n]);
  size_t hits = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const auto& g = groups[s];
    if (g.empty()) continue;
    shard_keys.clear();
    shard_keys.reserve(g.size());
    for (uint32_t idx : g) shard_keys.push_back(keys[idx]);
    shard_out.resize(g.size());
    hits += shards_[s].index->LookupBatch(shard_keys.data(), g.size(),
                                          shard_out.data(), shard_found.get());
    for (size_t j = 0; j < g.size(); ++j) {
      found[g[j]] = shard_found[j];
      if (shard_found[j]) out[g[j]] = shard_out[j];
    }
  }
  return hits;
}

size_t ShardedAltIndex::Scan(Key start, size_t count,
                             std::vector<std::pair<Key, Value>>* out) const {
  out->clear();
  if (count == 0) return 0;
  // Shards hold disjoint ascending ranges, so the scan is their
  // concatenation: start in the shard owning `start`, continue from each next
  // shard's first key, and stop at the first shard that fills `count`.
  std::vector<std::pair<Key, Value>> tmp;
  Key cursor = start;
  for (size_t i = ShardIndexOf(start);
       i < shards_.size() && out->size() < count; ++i) {
    shards_[i].index->Scan(cursor, count - out->size(), &tmp);
    out->insert(out->end(), tmp.begin(), tmp.end());
    if (i + 1 < shards_.size()) cursor = starts_[i + 1];
  }
  return out->size();
}

ConcurrentIndex::MemoryBreakdown ShardedAltIndex::CollectMemoryBreakdown()
    const {
  MemoryBreakdown b;
  for (const Shard& s : shards_) {
    const MemoryBreakdown sb = s.index->CollectMemoryBreakdown();
    b.model_bytes += sb.model_bytes;
    b.delta_bytes += sb.delta_bytes;
    b.auxiliary_bytes += sb.auxiliary_bytes;
    b.other_bytes += sb.other_bytes;
  }
  return b;
}

std::string ShardedAltIndex::StructureJson() const {
  std::string out = "{\n  \"name\": \"";
  out += JsonEscape(Name());
  out += "\",\n  \"num_shards\": " + std::to_string(shards_.size());
  out += ",\n  \"partition\": \"range\",\n  \"shards\": [\n";
  for (size_t i = 0; i < shards_.size(); ++i) {
    out += shards_[i].index->StructureJson();
    if (i + 1 < shards_.size()) out += ",\n";
  }
  out += "\n  ]\n}\n";
  return out;
}

size_t ShardedAltIndex::MemoryUsage() const {
  size_t total = 0;
  for (const Shard& s : shards_) total += s.index->MemoryUsage();
  return total;
}

size_t ShardedAltIndex::Size() const {
  size_t total = 0;
  for (const Shard& s : shards_) total += s.index->Size();
  return total;
}

void ShardedAltIndex::DrainAllShards() {
  for (Shard& s : shards_) s.epoch->DrainAll();
}

}  // namespace shard
}  // namespace alt
