#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "art/art_tree.h"
#include "common/key_codec.h"
#include "common/path_tag.h"
#include "common/status.h"
#include "core/alt_options.h"
#include "core/fast_pointer_buffer.h"
#include "core/gpl_model.h"
#include "core/model_directory.h"

namespace alt {

/// \brief ALT-index: the paper's hybrid learned index (learned GPL layer over
/// an optimized ART), with fast pointer buffer and dynamic retraining.
///
/// ## Architecture (paper §III)
///  - *Learned index layer*: a flattened array of GPL models (Alg. 1
///    segmentation) behind one binary-searchable upper model. Every resident
///    key sits at exactly its predicted slot — no secondary search ever runs
///    in this layer.
///  - *ART-OPT layer*: keys whose predicted slot was already taken (bulk-load
///    conflicts and runtime insertion conflicts) live in an ART; the fast
///    pointer buffer jumps secondary searches into the deepest covering
///    subtree.
///  - *Dynamic retraining* (§III-F): a crowded model expands into a temporal
///    buffer with twice the slots; migration is amortized over subsequent
///    inserts and finished with a sweep plus an ART write-back pass.
///
/// ## Concurrency (paper §III-E)
/// Per-slot optimistic versions in the learned layer, spin locks per fast
/// pointer entry, optimistic lock coupling in ART, epoch-based reclamation for
/// replaced models/nodes. All public operations are thread-safe; Lookup /
/// Insert / Update / Remove are linearizable per key. Scans are per-slot
/// atomic snapshots (keys may be concurrently inserted/removed mid-scan).
///
/// Thread-safety exception: BulkLoad must complete before concurrent use, and
/// CollectStats / MemoryUsage expect a quiescent index.
class AltIndex {
 public:
  explicit AltIndex(AltOptions options = AltOptions{});
  ~AltIndex();

  AltIndex(const AltIndex&) = delete;
  AltIndex& operator=(const AltIndex&) = delete;

  /// Build the index from sorted, duplicate-free data. Must be called exactly
  /// once, before any concurrent operation. O(n).
  Status BulkLoad(const Key* keys, const Value* values, size_t n);
  Status BulkLoad(const std::vector<std::pair<Key, Value>>& sorted_pairs);

  /// \return true and set *out if present.
  bool Lookup(Key key, Value* out) const;

  /// Lookup with per-path attribution: *served reports the terminal path that
  /// answered (learned slot, fast-pointer ART hit by depth, root fallback,
  /// negative; see common/path_tag.h). Same result contract as Lookup.
  bool Lookup(Key key, Value* out, ServedBy* served) const;

  /// \brief Batched point lookups: resolve `n` independent keys with their
  /// cache misses overlapped (AMAC-style group prefetching; see
  /// src/core/lookup_batch.cc and DESIGN.md "Batched read path").
  ///
  /// Semantically equivalent to calling Lookup(keys[i], &out[i]) for each i:
  /// found[i] is set, and out[i] is written only when found[i] is true. Each
  /// key's result is one a standalone Lookup could have returned at some point
  /// during the call (per-key linearizability; no cross-key snapshot).
  /// `keys` may contain duplicates and need not be sorted.
  /// \return the number of keys found.
  size_t LookupBatch(const Key* keys, size_t n, Value* out, bool* found) const;

  /// Insert a new key. \return false (no change) if the key already exists.
  bool Insert(Key key, Value value);
  bool Insert(Key key, Value value, ServedBy* served);

  /// Overwrite an existing key's value. \return false if absent.
  bool Update(Key key, Value value);
  bool Update(Key key, Value value, ServedBy* served);

  /// Insert or overwrite. \return true if the key was newly inserted.
  bool Upsert(Key key, Value value);

  /// Delete a key. \return true if it was present.
  bool Remove(Key key);
  bool Remove(Key key, ServedBy* served);

  /// Collect up to `count` pairs with key >= start, ascending (merged across
  /// the learned layer and ART-OPT, paper §III-G "Range Query").
  size_t Scan(Key start, size_t count, std::vector<std::pair<Key, Value>>* out) const;

  /// All pairs with lo <= key <= hi, ascending.
  size_t RangeQuery(Key lo, Key hi, std::vector<std::pair<Key, Value>>* out) const;

  /// Approximate live key count (maintained with relaxed counters).
  size_t Size() const { return size_.load(std::memory_order_relaxed); }

  /// \brief Forward cursor over the merged key space (batched on top of
  /// Scan). Not a stable snapshot: concurrent inserts/removes may or may not
  /// appear, but keys arrive in strictly ascending order and each observed
  /// (key, value) pair was live at some point during the iteration.
  ///
  ///   AltIndex::Iterator it(index);
  ///   for (it.Seek(lo); it.Valid() && it.key() <= hi; it.Next()) { ... }
  class Iterator {
   public:
    explicit Iterator(const AltIndex& index) : index_(&index) {}

    /// Position at the first key >= `key`.
    void Seek(Key key) {
      exhausted_ = false;
      Refill(key);
    }

    bool Valid() const { return pos_ < batch_.size(); }
    Key key() const { return batch_[pos_].first; }
    Value value() const { return batch_[pos_].second; }

    void Next() {
      if (++pos_ >= batch_.size() && !exhausted_) {
        const Key last = batch_.empty() ? 0 : batch_.back().first;
        if (last == ~Key{0}) {
          exhausted_ = true;
          batch_.clear();
          pos_ = 0;
          return;
        }
        Refill(last + 1);
      }
    }

   private:
    static constexpr size_t kBatch = 128;

    void Refill(Key from) {
      index_->Scan(from, kBatch, &batch_);
      pos_ = 0;
      if (batch_.size() < kBatch) exhausted_ = true;
    }

    const AltIndex* index_;
    std::vector<std::pair<Key, Value>> batch_;
    size_t pos_ = 0;
    bool exhausted_ = true;
  };

  /// Structural / behavioural statistics. Quiescent-only.
  struct Stats {
    size_t num_models = 0;          ///< GPL models in the directory
    size_t learned_layer_keys = 0;  ///< keys resident at predicted slots
    size_t art_keys = 0;            ///< conflict keys in ART-OPT
    size_t fast_pointers = 0;       ///< merged fast pointer entries
    size_t fast_pointer_adds = 0;   ///< entries without the merge scheme
    size_t retrain_started = 0;     ///< expansions triggered (§III-F)
    size_t retrain_finished = 0;    ///< expansions completed & published
    size_t memory_bytes = 0;        ///< models + directory + buffer + ART
    double error_bound = 0;         ///< effective epsilon
  };
  // Traffic counters (ART lookups, fast-pointer hits, conflict inserts, ...)
  // live in the always-on metrics registry; see common/metrics.h.
  Stats CollectStats() const;

  /// \brief Deep structural introspection (quiescent-only; defined in
  /// structural_stats.cc, DESIGN.md §9.3). The component byte fields are
  /// computed from the same accessors as MemoryUsage(), so
  /// `header_bytes + directory_bytes + model_bytes + expansion_bytes +
  /// fast_pointer_bytes + art_bytes == MemoryUsage()` at a quiescent point.
  struct StructuralStats {
    // --- memory decomposition (bytes) -------------------------------------
    size_t header_bytes = 0;        ///< sizeof(AltIndex)
    size_t directory_bytes = 0;     ///< snapshot arrays + radix (no models)
    size_t model_bytes = 0;         ///< published GPL models (headers + slots)
    size_t expansion_bytes = 0;     ///< in-flight §III-F temporal buffers
    size_t fast_pointer_bytes = 0;  ///< fast pointer buffer
    size_t art_bytes = 0;           ///< ART-OPT nodes + leaves
    size_t total_bytes = 0;         ///< sum of the above (== MemoryUsage())

    // --- learned layer ----------------------------------------------------
    size_t num_models = 0;
    size_t expanding_models = 0;  ///< models with an expansion installed
    size_t tail_models = 0;       ///< models with the zero-error invariant suspended
    size_t slab_models = 0;  ///< slot arrays in the BulkLoad slab (DESIGN.md §10.2)
    size_t slab_bytes = 0;   ///< the slab's size; 0 without one (empty load)
    size_t total_slots = 0;
    size_t slot_states[4] = {};  ///< by SlotState: empty/occupied/tombstone/migrated
    uint32_t min_segment = 0;    ///< smallest model build_size
    uint32_t max_segment = 0;    ///< largest model build_size
    /// Models bucketed by log2(build_size): segment_len_hist[b] counts models
    /// with build_size in [2^b, 2^(b+1)). 17 buckets, last one open-ended.
    size_t segment_len_hist[17] = {};
    /// Models bucketed by occupancy decile (occupied / num_slots).
    size_t occupancy_hist[10] = {};

    // --- conflict population ----------------------------------------------
    size_t art_keys = 0;
    /// art_keys / (art_keys + occupied slots): fraction of resident keys that
    /// lost their predicted slot (paper §III-A conflict ratio).
    double conflict_ratio = 0;

    art::ArtTree::Census art;
  };
  StructuralStats CollectStructuralStats() const;

  /// CollectStructuralStats serialized as a single JSON object (pretty, 2-space
  /// indent) — the payload behind the `--dump_structure` bench flag.
  std::string StructureJson() const;

  size_t MemoryUsage() const;

  const AltOptions& options() const { return options_; }
  double effective_error_bound() const { return epsilon_; }

  /// The epoch manager this index retires through: the instance from
  /// AltOptions::epoch_manager, or the process-wide global. Readers outside
  /// the index (tests, cross-shard merge cursors) pin it before touching
  /// retire-capable internals.
  EpochManager& epoch() const { return *epoch_; }

  /// Internal structures, exposed read-only for tests and benches.
  const art::ArtTree& art() const { return art_; }
  const FastPointerBuffer& fast_pointer_buffer() const { return fp_buffer_; }
  const ModelDirectory& directory() const { return directory_; }

 private:
  enum class Probe { kHit, kExistsSameKey, kEmpty, kGoArt, kGoArtTombstone, kMigrated };

  /// Read `model`'s predicted slot for `key`. On kHit, *out is set. Returns
  /// the observed slot + word so callers can re-validate after an ART miss.
  Probe ProbeSlot(const GplModel* model, Key key, Value* out, const GplSlot** slot_out,
                  uint32_t* word_out) const ALT_REQUIRES_EPOCH;

  /// Secondary search in ART-OPT via the model's fast pointer (root fallback).
  /// `served` (optional) receives the attribution of the terminal descent.
  bool ArtLookup(const GplModel* model, Key key, Value* out,
                 ServedBy* served = nullptr) const ALT_REQUIRES_EPOCH;

  /// Insert into ART-OPT via the model's fast pointer; updates conflict stats.
  /// \return true if inserted, false if the key already existed.
  bool ArtInsert(GplModel* model, Key key, Value value) ALT_REQUIRES_EPOCH;

  bool LookupInternal(Key key, Value* out,
                      ServedBy* served = nullptr) const ALT_REQUIRES_EPOCH;

  /// Batched read path internals (defined in lookup_batch.cc).
  struct BatchCursor;
  struct BatchStatsDelta;
  /// Advance one in-flight lookup by one pipeline stage. \return true when
  /// the cursor reached a terminal state (result written).
  bool BatchStep(BatchCursor& c, Value* out, bool* found,
                 BatchStatsDelta* st) const ALT_REQUIRES_EPOCH;
  bool InsertInternal(Key key, Value value,
                      ServedBy* served = nullptr) ALT_REQUIRES_EPOCH;
  bool RemoveInternal(Key key, ServedBy* served = nullptr) ALT_REQUIRES_EPOCH;
  bool UpdateInternal(Key key, Value value,
                      ServedBy* served = nullptr) ALT_REQUIRES_EPOCH;

  /// Slow path: model under §III-F expansion. \return true if inserted,
  /// false if the key exists; sets *retry when the caller must re-run.
  bool InsertExpanding(GplModel* model, Expansion* exp, Key key, Value value,
                       bool* retry) ALT_REQUIRES_EPOCH;

  /// Place (key, value) into the temporal buffer; conflicts go to ART.
  /// Used for victim migration (never fails; victims are unique).
  void MigrateInto(GplModel* new_model, Key key, Value value) ALT_REQUIRES_EPOCH;

  /// Insert a *new* key into the temporal buffer (dup checks against ART).
  /// \return true if inserted, false if the key already exists; sets *retry
  /// when the buffer was published and is itself migrating (stale caller).
  bool InsertIntoNewModel(GplModel* old_model, Expansion* exp, Key key, Value value,
                          bool* retry) ALT_REQUIRES_EPOCH;

  /// Post-ART-insert repair for routing races: if a concurrently appended
  /// tail model now owns `key`'s range and would answer "absent" from an
  /// EMPTY slot, write the key back from ART into that slot before the
  /// insert returns.
  void EnsureArtKeyVisible(Key key);

  void MaybeTriggerExpansion(GplModel* model);
  void MaybeFinishExpansion(GplModel* model, Expansion* exp) ALT_REQUIRES_EPOCH;
  void FinishExpansion(GplModel* model, Expansion* exp) ALT_REQUIRES_EPOCH;
  void AppendTailModelIfLast(const GplModel* published);

  /// RAII bracket around an ART→slot write-back (finish sweep, tail-append
  /// sweep, EnsureArtKeyVisible). A write-back removes the key from ART after
  /// locking its slot, so a scan that read the slot as EMPTY before the lock
  /// and queries ART after the removal sees the key in *neither* layer. Point
  /// lookups survive this by re-validating the routed slot word after an ART
  /// miss; scans validate coarsely instead, against this generation seqlock
  /// (see Scan).
  class WriteBackSection {
   public:
    explicit WriteBackSection(const AltIndex* index) : index_(index) {
      index_->write_backs_active_.fetch_add(1, std::memory_order_acq_rel);
      index_->write_back_gen_.fetch_add(1, std::memory_order_acq_rel);
    }
    ~WriteBackSection() {
      index_->write_backs_active_.fetch_sub(1, std::memory_order_acq_rel);
      index_->write_back_gen_.fetch_add(1, std::memory_order_acq_rel);
    }
    WriteBackSection(const WriteBackSection&) = delete;
    WriteBackSection& operator=(const WriteBackSection&) = delete;

   private:
    const AltIndex* index_;
  };

  AltOptions options_;
  double epsilon_ = 0;
  // Resolved before directory_/art_ (declaration order): both retire through
  // this manager.
  EpochManager* epoch_ = nullptr;
  /// Holds every bulk-loaded slot array; nullptr until a non-empty BulkLoad.
  /// The index's reference is dropped in the destructor (see SlotSlab).
  SlotSlab* slab_ = nullptr;
  ModelDirectory directory_;
  art::ArtTree art_;
  FastPointerBuffer fp_buffer_;

  std::atomic<size_t> size_{0};
  std::atomic<size_t> retrain_started_{0};
  std::atomic<size_t> retrain_finished_{0};

  // Write-back seqlock (see WriteBackSection). `mutable`: bumped from
  // EnsureArtKeyVisible and the expansion sweeps, read by const scans.
  mutable std::atomic<uint64_t> write_back_gen_{0};
  mutable std::atomic<uint32_t> write_backs_active_{0};
};

}  // namespace alt
