#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/key_codec.h"
#include "common/path_tag.h"
#include "common/status.h"

namespace alt {

/// \brief Uniform facade over every index in this repository (ALT-index, the
/// four learned-index competitors, ART, B+-tree), used by the benchmark
/// harness, workload runner and integration tests.
///
/// Contract: BulkLoad runs once, single-threaded, before any other call; all
/// other operations are thread-safe and may run concurrently.
class ConcurrentIndex {
 public:
  virtual ~ConcurrentIndex() = default;

  /// Human-readable name used in benchmark table rows (e.g. "ALT-index").
  virtual std::string Name() const = 0;

  /// Build from sorted, duplicate-free data.
  virtual Status BulkLoad(const Key* keys, const Value* values, size_t n) = 0;

  // -- Point operations ------------------------------------------------------
  //
  // Each takes an optional path-attribution out-param (observability,
  // DESIGN.md §9.2). Indexes with internal path structure (ALT-index: learned
  // slot vs ART-OPT vs fast pointer vs expansion) write the terminal path that
  // served the op through it; an index that does not attribute leaves
  // *served untouched, so callers that want a tag preset it to kUnattributed.
  // `served` may be null everywhere.

  /// \return true and set *out if `key` is present.
  virtual bool Lookup(Key key, Value* out, ServedBy* served = nullptr) const = 0;

  /// Batched point lookups: found[i] is set for every key, out[i] only when
  /// found[i]. Indexes with a pipelined read path (ALT-index) override this;
  /// the default is the scalar loop, so every index accepts batched reads.
  /// \return the number of keys found.
  virtual size_t LookupBatch(const Key* keys, size_t n, Value* out, bool* found) const {
    size_t hits = 0;
    for (size_t i = 0; i < n; ++i) {
      found[i] = Lookup(keys[i], &out[i]);
      hits += found[i] ? 1 : 0;
    }
    return hits;
  }

  /// \return false if the key already exists (no change).
  virtual bool Insert(Key key, Value value, ServedBy* served = nullptr) = 0;

  /// Overwrite an existing key; \return false if absent.
  virtual bool Update(Key key, Value value, ServedBy* served = nullptr) = 0;

  /// \return true if the key was present.
  virtual bool Remove(Key key, ServedBy* served = nullptr) = 0;

  // -- Structural introspection (observability, DESIGN.md §9.3) -------------

  /// Coarse memory decomposition for figures that break MemoryUsage() down by
  /// component. Indexes that can't decompose report everything under `other`.
  struct MemoryBreakdown {
    size_t model_bytes = 0;      ///< learned models / inner nodes
    size_t delta_bytes = 0;      ///< conflict tree, delta buffers, expansions
    size_t auxiliary_bytes = 0;  ///< fast pointers, directories, headers
    size_t other_bytes = 0;      ///< anything unclassified
    size_t total() const {
      return model_bytes + delta_bytes + auxiliary_bytes + other_bytes;
    }
  };

  /// Default: everything is unclassified, totals still match MemoryUsage().
  virtual MemoryBreakdown CollectMemoryBreakdown() const {
    MemoryBreakdown b;
    b.other_bytes = MemoryUsage();
    return b;
  }

  /// JSON structural report (--dump_structure). Indexes without structural
  /// walkers report only their name and footprint.
  virtual std::string StructureJson() const {
    std::string out = "{\n  \"name\": \"";
    out += JsonEscape(Name());
    out += "\",\n  \"memory\": {\n    \"total_bytes\": ";
    out += std::to_string(MemoryUsage());
    out += "\n  }\n}\n";
    return out;
  }

  /// Up to `count` pairs with key >= start, ascending. \return pairs written.
  virtual size_t Scan(Key start, size_t count,
                      std::vector<std::pair<Key, Value>>* out) const = 0;

  /// Approximate heap footprint in bytes (quiescent).
  virtual size_t MemoryUsage() const = 0;

  /// Bytes the index holds in mappings of its own, outside malloc (ALT's slot
  /// slab and ART-OPT region), so that an allocator's in-use count plus these
  /// is what the index costs. 0 for indexes that only use malloc.
  virtual size_t MappedBytes() const { return 0; }

  /// Approximate live key count.
  virtual size_t Size() const = 0;
};

}  // namespace alt
