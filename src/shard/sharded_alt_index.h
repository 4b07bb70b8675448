#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/epoch.h"
#include "common/index_interface.h"
#include "common/key_codec.h"
#include "core/alt_index.h"

namespace alt {
namespace shard {

// Kept only for perfbench/src/served_bench.cc, which sets `partition`
// explicitly; drop the enum and the field with the next change to the
// benchmark. Range partitioning is the only layout.
enum class Partition { kRange };

/// Tuning for ShardedAltIndex.
struct ShardedOptions {
  /// Number of AltIndex shards; clamped to [1, kMaxShards].
  int num_shards = 4;

  Partition partition = Partition::kRange;  // perfbench-only leftover

  /// Per-shard AltIndex tuning. `index.epoch_manager` is ignored: each shard
  /// always gets its own private EpochManager. `index.upper_radix_bits` is
  /// clamped to [0, ModelDirectory::kMaxRadixBits].
  AltOptions index;

  static constexpr int kMaxShards = 32;
};

/// \brief N AltIndex instances behind one ConcurrentIndex facade
/// (ROADMAP item 1; DESIGN.md §12).
///
/// Each shard owns a private EpochManager, so retirement and reclamation —
/// the one piece of read-side state every operation of a single AltIndex
/// shares — scale with the shard count instead of serializing process-wide.
/// The shard's manager carries a per-shard trace category, so flight-recorder
/// epoch_advance/epoch_drain spans attribute to the owning shard.
///
/// Shards hold contiguous, disjoint key ranges: shard i owns
/// [starts_[i], starts_[i+1]). BulkLoad cuts the sorted input into equal-count
/// slices and, with more than one shard, loads each on its own thread.
///
/// Concurrency contract is ConcurrentIndex's: BulkLoad runs once,
/// single-threaded, before anything else; all other operations are
/// thread-safe. Point operations dispatch to exactly one shard and inherit
/// its per-key linearizability. Scan walks the shards in key order, each
/// shard's part being one AltIndex::Scan, so it keeps that per-line-atomic
/// contract.
class ShardedAltIndex final : public ConcurrentIndex {
 public:
  explicit ShardedAltIndex(ShardedOptions options = ShardedOptions{});
  ~ShardedAltIndex() override;

  ShardedAltIndex(const ShardedAltIndex&) = delete;
  ShardedAltIndex& operator=(const ShardedAltIndex&) = delete;

  std::string Name() const override;

  /// Splits the (sorted, duplicate-free) data into equal-count key ranges and
  /// bulk-loads every shard, each on its own thread when there are several.
  Status BulkLoad(const Key* keys, const Value* values, size_t n) override;

  bool Lookup(Key key, Value* out, ServedBy* served = nullptr) const override;
  size_t LookupBatch(const Key* keys, size_t n, Value* out,
                     bool* found) const override;
  bool Insert(Key key, Value value, ServedBy* served = nullptr) override;
  bool Update(Key key, Value value, ServedBy* served = nullptr) override;
  bool Remove(Key key, ServedBy* served = nullptr) override;

  // Forwards kept only for perfbench/src/served_bench.cc, which predates the
  // single-method API; drop them with the next change to the benchmark.
  bool LookupServed(Key key, Value* out, ServedBy* served) const {
    return Lookup(key, out, served);
  }
  bool InsertServed(Key key, Value value, ServedBy* served) {
    return Insert(key, value, served);
  }

  /// Up to `count` pairs with key >= start, ascending, walking shards in order.
  size_t Scan(Key start, size_t count,
              std::vector<std::pair<Key, Value>>* out) const override;

  /// Sum of the shards' breakdowns.
  MemoryBreakdown CollectMemoryBreakdown() const override;
  std::string StructureJson() const override;
  size_t MemoryUsage() const override;
  size_t MappedBytes() const override;
  size_t Size() const override;

  // -- shard introspection (tests, benches) ---------------------------------

  size_t num_shards() const { return shards_.size(); }
  const AltIndex& shard(size_t i) const { return *shards_[i].index; }
  EpochManager& shard_epoch(size_t i) { return *shards_[i].epoch; }

  /// The shard `key` dispatches to (stable between structural phases).
  size_t ShardIndexOf(Key key) const;

  /// First key of shard i's range.
  Key ShardLowerBound(size_t i) const { return starts_[i]; }

  /// Drain every shard's epoch manager (quiescent; between bench phases).
  void DrainAllShards();

  const ShardedOptions& options() const { return options_; }

 private:
  struct Shard {
    std::unique_ptr<EpochManager> epoch;
    std::unique_ptr<AltIndex> index;
  };

  /// Construct shard i's epoch manager + index (on the calling thread, which
  /// is what makes the per-shard load threads a first-touch policy).
  Shard MakeShard(size_t i) const;

  ShardedOptions options_;
  std::vector<Shard> shards_;
  /// starts_[i] = smallest key dispatched to shard i. starts_[0] is
  /// always 0. Written only by the constructor and BulkLoad (single-threaded
  /// phases by contract), read-only afterwards.
  std::vector<Key> starts_;
  bool loaded_ = false;
};

}  // namespace shard
}  // namespace alt
