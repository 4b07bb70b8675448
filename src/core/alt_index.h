#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "art/art_tree.h"
#include "common/debug_checks.h"
#include "common/index_interface.h"
#include "common/key_codec.h"
#include "common/path_tag.h"
#include "common/sharded_counter.h"
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
///    key sits in a lane of its predicted 64 B slot line — a probe reads one
///    line, and no secondary search ever runs in this layer.
///  - *ART-OPT layer*: keys whose predicted line was already full (bulk-load
///    conflicts and runtime insertion conflicts) live in an ART; the fast
///    pointer buffer jumps secondary searches into the deepest covering
///    subtree.
///  - *Dynamic retraining* (§III-F): a crowded model expands into a temporal
///    buffer with twice the slots; migration is amortized over subsequent
///    inserts and finished with a sweep plus an ART write-back pass.
///
/// ## Concurrency (paper §III-E)
/// One optimistic version word per learned-layer slot line, spin locks per
/// fast pointer entry, optimistic lock coupling in ART, epoch-based reclamation for
/// replaced models/nodes. All public operations are thread-safe; Lookup /
/// Insert / Update / Remove are linearizable per key. Scans are per-line
/// atomic snapshots (keys may be concurrently inserted/removed mid-scan).
///
/// Thread-safety exception: BulkLoad must complete before concurrent use, and
/// CollectStructuralStats / MemoryUsage expect a quiescent index.
///
/// AltIndex is itself the ConcurrentIndex the benchmark harness drives.
/// `final` keeps calls through an `AltIndex*` / `const AltIndex&` direct
/// (devirtualised), e.g. every per-shard call in ShardedAltIndex.
class AltIndex final : public ConcurrentIndex {
 public:
  explicit AltIndex(AltOptions options = AltOptions{});
  ~AltIndex() override;

  AltIndex(const AltIndex&) = delete;
  AltIndex& operator=(const AltIndex&) = delete;

  /// Build the index from sorted, duplicate-free data. Must be called exactly
  /// once, before any concurrent operation. O(n).
  Status BulkLoad(const Key* keys, const Value* values, size_t n) override;
  Status BulkLoad(const std::vector<std::pair<Key, Value>>& sorted_pairs);

  /// "ALT-index" (benchmark table rows).
  std::string Name() const override { return "ALT-index"; }

  /// \return true and set *out if present. `served` (optional) receives the
  /// terminal path that answered (learned slot, fast-pointer ART hit by
  /// depth, root fallback, negative; see common/path_tag.h); likewise for the
  /// `served` of Insert / Update / Remove.
  bool Lookup(Key key, Value* out, ServedBy* served = nullptr) const override;

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
  size_t LookupBatch(const Key* keys, size_t n, Value* out,
                     bool* found) const override;

  /// Insert a new key. \return false (no change) if the key already exists.
  bool Insert(Key key, Value value, ServedBy* served = nullptr) override;

  /// Overwrite an existing key's value. \return false if absent.
  bool Update(Key key, Value value, ServedBy* served = nullptr) override;

  /// Delete a key. \return true if it was present.
  bool Remove(Key key, ServedBy* served = nullptr) override;

  /// Collect up to `count` pairs with key >= start, ascending (merged across
  /// the learned layer and ART-OPT, paper §III-G "Range Query").
  size_t Scan(Key start, size_t count,
              std::vector<std::pair<Key, Value>>* out) const override;

  /// All pairs with lo <= key <= hi, ascending.
  size_t RangeQuery(Key lo, Key hi, std::vector<std::pair<Key, Value>>* out) const;

  /// Live key count: exact at a quiescent point, approximate while writers
  /// run (a per-thread-sharded counter; see ShardedCounter).
  size_t Size() const override { return size_.Value(); }

  /// \brief Structural / behavioural statistics (quiescent-only; defined in
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

    // --- upper model (DESIGN.md §2.3) -------------------------------------
    int radix_bits = 0;   ///< radix table width; 0 = whole-directory search
    int radix_shift = 0;  ///< bucket = (key - first anchor) >> radix_shift
    /// Models Locate searches: the widest radix window, and the mean over
    /// models of the window holding each model's first key. Both equal
    /// num_models when the table is off.
    size_t locate_window_max = 0;
    double locate_window_mean = 0;

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
    /// ART-OPT's build region (DESIGN.md §10.2): the bytes BulkLoad carved
    /// (mapped, not counted in art_bytes' sizeof terms), and the share of
    /// them still holding live nodes and leaves. 0 without a region.
    size_t art_region_bytes = 0;
    double art_region_live_share = 0;
    /// art_keys / (art_keys + occupied slots): fraction of resident keys that
    /// found their predicted line full (paper §III-A conflict ratio).
    double conflict_ratio = 0;

    art::ArtTree::Census art;

    // --- fast pointers and retraining -------------------------------------
    size_t fast_pointers = 0;      ///< merged fast pointer entries
    size_t fast_pointer_adds = 0;  ///< entries without the merge scheme
    size_t retrain_started = 0;    ///< expansions triggered (§III-F)
    size_t retrain_finished = 0;   ///< expansions completed & published

    /// Keys resident in their predicted lines (occupied learned-layer slots).
    size_t learned_layer_keys() const {
      return slot_states[static_cast<size_t>(SlotState::kOccupied)];
    }
  };
  // Traffic counters (ART lookups, fast-pointer hits, conflict inserts, ...)
  // live in the always-on metrics registry; see common/metrics.h.
  StructuralStats CollectStructuralStats() const;

  /// CollectStructuralStats mapped onto the harness's coarse components;
  /// totals match MemoryUsage() at a quiescent point.
  MemoryBreakdown CollectMemoryBreakdown() const override;

  /// CollectStructuralStats serialized as a single JSON object (pretty, 2-space
  /// indent) — the payload behind the `--dump_structure` bench flag.
  std::string StructureJson() const override;

  /// Test hook (quiescent-only, O(n)): the placement invariant of the line
  /// rule (DESIGN.md §2.2). Every lane key sits in its predicted line; no key
  /// sits in two places (two lanes, or a lane and ART-OPT); and no ART key of
  /// a strict_empty model without an expansion has an EMPTY lane in its
  /// predicted line. \return the first violation as an Internal status.
  Status CheckPlacementInvariant() const;

  size_t MemoryUsage() const override;
  /// The slot slab's and the ART-OPT region's mapped bytes.
  size_t MappedBytes() const override;

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
  enum class Probe { kHit, kEmpty, kGoArt, kMigrated };

  struct ArtRoute;

  /// Read `model`'s predicted line for `key` (the line rule, DESIGN.md §2.2):
  /// kHit if a lane holds the key (*out set), kMigrated if a lane is
  /// MIGRATED, kEmpty if a lane is EMPTY, else kGoArt — a full line or an
  /// out-of-coverage key (no line). One validated read of the line word;
  /// records the line and that word in `route`.
  Probe ProbeSlot(GplModel* model, Key key, Value* out,
                  ArtRoute* route) const ALT_REQUIRES_EPOCH;

  /// The model the current directory snapshot routes `key` to. Inline: the
  /// batched path calls it once per key from another translation unit.
  GplModel* RoutedModel(Key key) const ALT_REQUIRES_EPOCH {
    const ModelDirectory::Snapshot* snap = directory_.snapshot();
    return snap->models[ModelDirectory::Locate(*snap, key)].load(
        std::memory_order_acquire);
  }

  /// Where a point op's routing ended: the revalidation token for an ART
  /// miss (RouteHolds) and the line an in-place action or write-back uses.
  struct ArtRoute {
    static constexpr uint32_t kNoLine = ~uint32_t{0};

    GplModel* model = nullptr;   ///< the model the directory routed to
    GplModel* target = nullptr;  ///< `model` or its temporal buffer: owns `line`
    uint32_t line = kNoLine;     ///< target's line; kNoLine: ART is the key's only home
    uint32_t lane = 0;           ///< kHit: the key's lane
    uint64_t word = 0;           ///< the line word the probe validated

    bool has_line() const { return line != kNoLine; }
    /// \return true if the probed line had a lane in state `st`.
    bool Saw(SlotState st) const {
      return target->FirstLane(line, word, st) != SlotLine::kLanes;
    }
  };

  enum class Resolve {
    kInSlot,  ///< route.slot holds the key (*out set)
    kAbsent,  ///< EMPTY lane under the zero-error invariant: authoritative miss
    kGoArt,   ///< ART-OPT decides; `route` revalidates a miss
    kRetry,   ///< stale snapshot or migrated line: re-route
  };

  /// The one slot resolver behind Lookup, Update, Remove and
  /// EnsureArtKeyVisible (Alg. 2's search over the learned layer): walks
  /// {routed model, its §III-F temporal buffer} for `key`.
  Resolve ResolveSlot(Key key, Value* out, ArtRoute* route) const ALT_REQUIRES_EPOCH;

  /// After an ART miss: \return true if `route` still sends `key` to ART —
  /// the line word the probe read is unchanged or, with no line, the
  /// directory still routes `key` to route.model — so the miss is
  /// authoritative. False means a write-back, migration or tail append may
  /// have moved the key.
  bool RouteHolds(const ArtRoute& route, Key key) const ALT_REQUIRES_EPOCH;

  /// Secondary search in ART-OPT via the model's fast pointer (root fallback).
  /// `served` (optional) receives the attribution of the terminal descent.
  bool ArtLookup(const GplModel* model, Key key, Value* out,
                 ServedBy* served = nullptr) const ALT_REQUIRES_EPOCH;

  /// Insert into ART-OPT via the model's fast pointer; updates conflict stats.
  /// \return true if inserted, false if the key already existed.
  bool ArtInsert(GplModel* model, Key key, Value value) ALT_REQUIRES_EPOCH;

  bool LookupInternal(Key key, Value* out,
                      ServedBy* served = nullptr) const ALT_REQUIRES_EPOCH;

  /// Update (`value` set) or Remove (`value` null): one routing loop, with
  /// the in-place action and the ART call the only difference.
  bool UpdateOrRemove(Key key, const Value* value, ServedBy* served);

  /// The one collection core behind Scan and RangeQuery: the first `limit`
  /// pairs with lo <= key <= hi, merged across both layers (pins the epoch).
  size_t ScanRange(Key lo, Key hi, size_t limit,
                   std::vector<std::pair<Key, Value>>* out) const;

  /// Batched read path internals (defined in lookup_batch.cc).
  struct BatchCursor;
  struct BatchStatsDelta;
  /// Advance one in-flight lookup by one pipeline stage. \return true when
  /// the cursor reached a terminal state (result written).
  bool BatchStep(BatchCursor& c, Value* out, bool* found,
                 BatchStatsDelta* st) const ALT_REQUIRES_EPOCH;

  enum class Placed { kInserted, kExists, kRetry };

  /// Insert into `model`, or with `exp` into its temporal buffer: under the
  /// line word, claim the first EMPTY lane of the predicted line, else (full
  /// line, out of coverage) go to ART-OPT.
  Placed InsertInto(GplModel* model, Expansion* exp, Key key, Value value,
                    ServedBy* served) ALT_REQUIRES_EPOCH;

  /// ART-OPT insert for a full line, under the line's lock and only if the
  /// line word is still the one the probe read, so no write-back can move
  /// `key` into the line around the ART insert (DESIGN.md §2.2). kRetry: the
  /// line changed since the probe.
  Placed InsertConflict(const ArtRoute& route, Key key, Value value) ALT_REQUIRES_EPOCH;

  /// Slow path: `model` is under §III-F expansion. Moves the key's old line
  /// to the temporal buffer, then inserts into it.
  Placed InsertExpanding(GplModel* model, Expansion* exp, Key key,
                         Value value) ALT_REQUIRES_EPOCH;

  /// A successful insert's bookkeeping: size, then the §III-F trigger or,
  /// with `exp`, the finish check.
  void CountInsert(GplModel* model, Expansion* exp) ALT_REQUIRES_EPOCH;

  /// Place (key, value) into the first EMPTY lane of its temporal-buffer
  /// line; a full line sends it to ART. Used for victim migration (never
  /// fails; victims are unique).
  void MigrateInto(GplModel* new_model, Key key, Value value) ALT_REQUIRES_EPOCH;

  /// §III-F line move: under `old`'s line lock and line word, move every
  /// occupant of line `l` to `new_model` and publish every lane as MIGRATED
  /// at once. An already moved line is left as it is, and so is an all-EMPTY
  /// one when `key` is given (an insert; the finish sweep passes none).
  /// \return true if a moved lane held `*key` (when given).
  bool MigrateLine(GplModel* old, uint32_t l, GplModel* new_model,
                   const Key* key) ALT_REQUIRES_EPOCH;

  /// Post-ART-insert repair for routing races of an out-of-coverage insert:
  /// if `key`'s routed line has an EMPTY lane (a concurrently appended tail
  /// model or temporal buffer now owns its range), write the key back from
  /// ART before the insert returns.
  void EnsureArtKeyVisible(Key key) ALT_REQUIRES_EPOCH;

  /// The one ART→lane write-back (Alg. 2 lines 10-13, §III-F): under the
  /// line lock and line word of `owner`'s line `l`, if `owner` has no
  /// expansion, move `key` from ART-OPT into the first lane in state `from`
  /// (its value to *moved). Must run inside a WriteBackSection;
  /// ALT_DEBUG_CHECKS enforces it.
  void WriteBack(GplModel* owner, uint32_t l, Key key, SlotState from,
                 Value* moved = nullptr) ALT_REQUIRES_EPOCH;

  void MaybeTriggerExpansion(GplModel* model);
  void MaybeFinishExpansion(GplModel* model, Expansion* exp) ALT_REQUIRES_EPOCH;
  void FinishExpansion(GplModel* model, Expansion* exp) ALT_REQUIRES_EPOCH;
  void AppendTailModelIfLast(const GplModel* published) ALT_REQUIRES_EPOCH;

  /// The catch-all model behind an empty load and a §III-F tail append:
  /// tail_model_slots slots from `first_key` at `slope`, a build size of half
  /// its slots, and the ART root's fast-pointer entry.
  GplModel* NewCatchAllModel(Key first_key, double slope);

  /// The one ART-range adoption step of the §III-F finish and tail-append
  /// sweeps: collect ART's keys in m's routing range outside any
  /// WriteBackSection, write each back into an EMPTY lane of its line inside
  /// one, then re-arm m's strict_empty. \return the keys collected.
  size_t AdoptArtRange(GplModel* m) ALT_REQUIRES_EPOCH;

  /// RAII bracket around every WriteBack call (AdoptArtRange,
  /// EnsureArtKeyVisible, Alg. 2's tombstone write-back in Lookup).
  /// A write-back removes the key from ART after locking its slot, so a scan
  /// that read the slot before the lock and queries ART after the removal
  /// sees the key in *neither* layer. Point lookups survive this by
  /// re-validating the routed line's word after an ART miss (RouteHolds); scans
  /// validate coarsely instead, against this generation seqlock (ScanRange).
  class WriteBackSection {
   public:
    explicit WriteBackSection(const AltIndex* index) : index_(index) {
      ALT_DEBUG_NOTE_ACQUIRED(&index_->write_backs_active_, "write-back");
      index_->write_backs_active_.fetch_add(1, std::memory_order_acq_rel);
      index_->write_back_gen_.fetch_add(1, std::memory_order_acq_rel);
    }
    ~WriteBackSection() {
      index_->write_backs_active_.fetch_sub(1, std::memory_order_acq_rel);
      index_->write_back_gen_.fetch_add(1, std::memory_order_acq_rel);
      ALT_DEBUG_NOTE_RELEASED(&index_->write_backs_active_, "write-back");
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
  /// The index's reference is dropped in the destructor (see Slab).
  Slab* slab_ = nullptr;
  ModelDirectory directory_;
  art::ArtTree art_;
  FastPointerBuffer fp_buffer_;

  ShardedCounter size_;
  std::atomic<size_t> retrain_started_{0};
  std::atomic<size_t> retrain_finished_{0};

  // Write-back seqlock (see WriteBackSection). `mutable`: bumped by const
  // Lookup's tombstone write-back, read by const scans.
  mutable std::atomic<uint64_t> write_back_gen_{0};
  mutable std::atomic<uint32_t> write_backs_active_{0};
};

}  // namespace alt
