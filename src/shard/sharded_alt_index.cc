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
  // A width AltIndex::BulkLoad rejects would leave every shard without a
  // directory, so it is clamped like num_shards.
  options_.index.upper_radix_bits =
      std::clamp(options_.index.upper_radix_bits, 0, ModelDirectory::kMaxRadixBits);
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
  // Chunk by chunk, with every buffer on the stack (no allocation per
  // coalesced server batch, which is at most 64 keys): counting-sort the
  // chunk's keys by shard (order within a shard preserved), run one
  // AMAC-pipelined batch per non-empty shard group, then scatter the results
  // back to caller positions.
  constexpr size_t kChunk = 256;
  constexpr size_t kMaxShards = ShardedOptions::kMaxShards;
  uint8_t shard_of[kChunk];
  uint16_t origin[kChunk];  ///< grouped position -> chunk position
  Key grouped[kChunk];
  Value grouped_out[kChunk];
  bool grouped_found[kChunk];
  size_t hits = 0;
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t m = std::min(kChunk, n - base);
    size_t begin[kMaxShards + 1] = {};
    for (size_t i = 0; i < m; ++i) {
      shard_of[i] = static_cast<uint8_t>(ShardIndexOf(keys[base + i]));
      ++begin[shard_of[i] + 1];
    }
    for (size_t s = 0; s < shards_.size(); ++s) begin[s + 1] += begin[s];
    size_t next[kMaxShards];
    std::copy(begin, begin + shards_.size(), next);
    for (size_t i = 0; i < m; ++i) {
      const size_t pos = next[shard_of[i]]++;
      origin[pos] = static_cast<uint16_t>(i);
      grouped[pos] = keys[base + i];
    }
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (begin[s + 1] == begin[s]) continue;
      hits += shards_[s].index->LookupBatch(grouped + begin[s], begin[s + 1] - begin[s],
                                            grouped_out + begin[s],
                                            grouped_found + begin[s]);
    }
    for (size_t pos = 0; pos < m; ++pos) {
      const size_t i = base + origin[pos];
      found[i] = grouped_found[pos];
      if (grouped_found[pos]) out[i] = grouped_out[pos];
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

size_t ShardedAltIndex::MappedBytes() const {
  size_t total = 0;
  for (const Shard& s : shards_) total += s.index->MappedBytes();
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
