#include "core/alt_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/aligned_mem.h"
#include "common/epoch.h"
#include "common/metrics.h"
#include "common/run_parts.h"
#include "common/spinlock.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/gpl.h"

namespace alt {

namespace {

using metrics::Counter;

// Merge the ascending run [mid, end) of `v` into the ascending run
// [begin, mid) in place, keep one copy of each key and truncate `v` to `limit`
// pairs. A key that a migration or write-back moves between layers mid-scan
// is observed by two collection passes; the stable merge keeps the first.
void MergeRun(std::vector<std::pair<Key, Value>>* v, size_t begin, size_t mid,
              size_t limit) {
  const auto first = v->begin() + static_cast<ptrdiff_t>(begin);
  std::inplace_merge(first, v->begin() + static_cast<ptrdiff_t>(mid), v->end(),
                     [](const auto& x, const auto& y) { return x.first < y.first; });
  v->erase(std::unique(first, v->end(),
                       [](const auto& x, const auto& y) { return x.first == y.first; }),
           v->end());
  if (v->size() > limit) v->resize(limit);
}

// Fewest keys per BulkLoad thread: for smaller shares of the sortedness check
// and the slot fill, starting and joining a thread cost more than it saved
// in timed loads (EXPERIMENTS.md "Parallel bulk load: thread cutoff").
constexpr size_t kLoadThreadKeys = size_t{1} << 16;

// CPUs this process may run on; BulkLoad's helper threads inherit the mask.
size_t AffinityCpus() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

// Terminal accounting for lookups the learned layer answers by itself.
inline bool FinishLearnedHit(ServedBy* served) {
  metrics::Inc(Counter::kLearnedHits);
  SetServedBy(served, ServedBy::kLearnedSlot);
  return true;
}

inline bool FinishLearnedNegative(ServedBy* served) {
  metrics::Inc(Counter::kLearnedNegatives);
  SetServedBy(served, ServedBy::kLearnedNegative);
  return false;
}

}  // namespace

AltIndex::AltIndex(AltOptions options)
    : options_(options),
      epoch_(options_.epoch_manager != nullptr ? options_.epoch_manager
                                               : &EpochManager::Global()),
      directory_(epoch_),
      art_(epoch_) {
  if (options_.enable_fast_pointers) art_.SetListener(&fp_buffer_);
}

AltIndex::~AltIndex() {
  // Models keep the slab mapped until the last of them (possibly one still in
  // an epoch retire queue) is freed.
  if (slab_ != nullptr) slab_->Unref();
}

// ---------------------------------------------------------------------------
// Bulk load
// ---------------------------------------------------------------------------

Status AltIndex::BulkLoad(const std::vector<std::pair<Key, Value>>& sorted_pairs) {
  std::vector<Key> keys(sorted_pairs.size());
  std::vector<Value> values(sorted_pairs.size());
  for (size_t i = 0; i < sorted_pairs.size(); ++i) {
    keys[i] = sorted_pairs[i].first;
    values[i] = sorted_pairs[i].second;
  }
  return BulkLoad(keys.data(), values.data(), keys.size());
}

Status AltIndex::BulkLoad(const Key* keys, const Value* values, size_t n) {
  trace::Span span("bulk_load", "build", n);
  if (directory_.NumModels() != 0) {
    return Status::InvalidArgument("BulkLoad may only run once");
  }
  if (options_.upper_radix_bits < 0 ||
      options_.upper_radix_bits > ModelDirectory::kMaxRadixBits) {
    return Status::InvalidArgument("upper_radix_bits must lie in [0, " +
                                   std::to_string(ModelDirectory::kMaxRadixBits) + "]");
  }
  if (n == 0) {
    // Empty load: publish one tail-like model spanning the whole keyspace so
    // every operation has a routing target from the start. Runtime inserts
    // land at predicted slots (or ART on conflict) exactly as they would
    // behind a §III-F tail model. Sharded deployments rely on this: a range
    // partition may leave shards with no bulk keys.
    epsilon_ = options_.EffectiveErrorBound(0);
    // One fast-pointer entry: the ART root's, shared with later tail models.
    if (options_.enable_fast_pointers) fp_buffer_.Reserve(1);
    const double slope =
        static_cast<double>(options_.tail_model_slots) / static_cast<double>(~Key{0});
    directory_.Build({NewCatchAllModel(0, slope)}, options_.upper_radix_bits);
    return Status::OK();
  }

  // The check and the slot fill split across up to one thread per CPU; the
  // rest runs on this thread (DESIGN.md §10.2).
  const size_t parts = std::clamp<size_t>(n / kLoadThreadKeys, 1, AffinityCpus());
  {
    trace::Span check("check", "build", parts);
    std::atomic<bool> unsorted{false};
    RunParts(parts, [&](size_t p) {
      bool bad = false;
      for (size_t i = std::max<size_t>(1, n * p / parts); i < n * (p + 1) / parts; ++i) {
        bad |= keys[i] <= keys[i - 1];
      }
      if (bad) unsorted.store(true, std::memory_order_relaxed);
    });
    if (unsorted.load(std::memory_order_relaxed)) {
      return Status::InvalidArgument("keys must be sorted and duplicate-free");
    }
  }

  std::vector<Segment> segments;
  std::vector<GplModel*> models;
  try {
    {
      trace::Span segment("segment", "build");
      epsilon_ = options_.EffectiveErrorBound(n);
      segments = GplSegment(keys, n, epsilon_);
      segment.set_detail(segments.size());
      // Slot counts first: they size the one slab every bulk-loaded slot
      // array is carved from (DESIGN.md §10.2).
      std::vector<uint32_t> slot_counts;
      slot_counts.reserve(segments.size());
      size_t slab_bytes = 0;
      for (const Segment& seg : segments) {
        const Key first = keys[seg.start];
        const Key last = keys[seg.start + seg.length - 1];
        const double scaled_slope = seg.slope * options_.gap_factor;
        uint64_t slots = 1;
        if (seg.length >= 2 && scaled_slope > 0) {
          const double span = static_cast<double>(last - first);
          slots = static_cast<uint64_t>(scaled_slope * span) + 2;
        }
        // Safety clamp: predicted span is ~gap_factor * length by construction
        // of the GPL slope; a generous cap guards degenerate doubles.
        const uint64_t cap =
            static_cast<uint64_t>(options_.gap_factor * static_cast<double>(seg.length)) +
            2 * static_cast<uint64_t>(epsilon_) + 16;
        if (slots > cap) slots = cap;
        slot_counts.push_back(static_cast<uint32_t>(slots));
        slab_bytes +=
            Slab::SliceFootprint(GplModel::SlotArrayBytes(static_cast<uint32_t>(slots)));
      }
      slab_ = Slab::Create(slab_bytes);
      if (slab_ == nullptr) throw std::bad_alloc();
      models.reserve(segments.size());
      for (size_t m = 0; m < segments.size(); ++m) {
        const Segment& seg = segments[m];
        models.push_back(new GplModel(keys[seg.start], seg.slope * options_.gap_factor,
                                      slot_counts[m], static_cast<uint32_t>(seg.length),
                                      ~Key{0}, slab_));
      }
    }

    // Which keys go to ART-OPT (§III-A conflicts) follows from the predictions
    // alone: LineOf is monotone in the key, so the keys of one line are
    // consecutive, and the line rule gives its lanes to the first LanesIn of
    // them in ascending order (DESIGN.md §2.2). A part is a key-balanced run
    // of whole models, so no line straddles two parts. Each part places its
    // keys, faulting its share of the fresh slab in as it goes, and copies
    // its conflicts, in key order, to `art_keys` / `art_values` from its first
    // key's index on: a part has no more conflicts than keys, so the parts'
    // runs never overlap. Only the pages the runs touch are faulted in.
    std::vector<size_t> first_model(parts + 1, segments.size());
    std::vector<size_t> first_key(parts + 1, n);
    for (size_t p = 0; p < parts; ++p) {
      const auto it = std::partition_point(
          segments.begin(), segments.end(),
          [&](const Segment& seg) { return seg.start < n * p / parts; });
      first_model[p] = static_cast<size_t>(it - segments.begin());
      if (it != segments.end()) first_key[p] = it->start;
    }
    std::unique_ptr<Key[]> art_keys(new Key[n]);
    std::unique_ptr<Value[]> art_values(new Value[n]);
    std::vector<size_t> part_conflicts(parts, 0);
    {
      trace::Span fill("fill", "build", parts);
      RunParts(parts, [&](size_t p) {
        size_t out = first_key[p];
        for (size_t m = first_model[p]; m < first_model[p + 1]; ++m) {
          const Segment& seg = segments[m];
          GplModel* model = models[m];
          uint32_t prev = ~uint32_t{0};  // no line yet
          uint32_t rank = 0;             // keys before this one in its line
          for (size_t i = seg.start; i < seg.start + seg.length; ++i) {
            const Key k = keys[i];
            const uint32_t l = model->LineOf(k);
            rank = l == prev ? rank + 1 : 0;
            prev = l;
            // ProbeSlot never reads a line for a key at or past coverage_end
            // (here only ~Key{0}), so that key goes to ART like a conflict.
            if (rank >= model->LanesIn(l) || k >= model->coverage_end()) {
              art_keys[out] = k;
              art_values[out++] = values[i];
              continue;
            }
            // Bulk load owns the index, but writing under the line word keeps
            // the pair stores inside the capability the analysis checks (the
            // uncontended CAS costs nothing next to the O(n) load itself). One
            // lock per key, not per line: a loop over each line's keys
            // mispredicts its exit about once per line, and filled ~20%
            // slower (EXPERIMENTS.md "One version word per line").
            SlotLine& line = model->line(l);
            const uint64_t lw = line.word.Lock();
            line.Store(rank, k, values[i]);
            line.word.Unlock(LineWord::WithState(lw, rank, SlotState::kOccupied));
          }
        }
        part_conflicts[p] = out - first_key[p];
      });
    }

    // Each part copies its run of conflicts to its place in one ascending
    // pair of arrays, and ART-OPT is built from them in parts too: its nodes
    // and leaves come from one region the tree maps, not from malloc
    // (DESIGN.md §2.4, §10.2).
    trace::Span art_build("art_build", "build");
    std::vector<size_t> first_conflict(parts + 1, 0);
    for (size_t p = 0; p < parts; ++p) {
      first_conflict[p + 1] = first_conflict[p] + part_conflicts[p];
    }
    const size_t conflicts = first_conflict[parts];
    std::unique_ptr<Key[]> conflict_keys(new Key[conflicts]);
    std::unique_ptr<Value[]> conflict_values(new Value[conflicts]);
    RunParts(parts, [&](size_t p) {
      std::copy_n(art_keys.get() + first_key[p], part_conflicts[p],
                  conflict_keys.get() + first_conflict[p]);
      std::copy_n(art_values.get() + first_key[p], part_conflicts[p],
                  conflict_values.get() + first_conflict[p]);
    });
    art_build.set_detail(conflicts);
    art_.BuildSorted(conflict_keys.get(), conflict_values.get(), conflicts,
                     std::clamp<size_t>(conflicts / kLoadThreadKeys, 1, parts));
  } catch (...) {
    // An allocation failed: leave no slab behind on an index with an empty
    // directory.
    for (GplModel* model : models) delete model;
    if (slab_ != nullptr) slab_->Unref();
    slab_ = nullptr;
    throw;
  }

  directory_.Build(std::move(models), options_.upper_radix_bits);

  if (options_.enable_fast_pointers) {
    trace::Span fast_pointers("fast_pointers", "build");
    // §III-C1: for each pair of adjacent GPL models, point at the deepest ART
    // node covering the model's key range; duplicates are merged.
    const ModelDirectory::Snapshot* snap = directory_.snapshot();
    const size_t m = snap->first_keys.size();
    // One entry per model, plus the ART root's for tail models (§III-F).
    fp_buffer_.Reserve(m + 1);
    for (size_t i = 0; i < m; ++i) {
      const Key lo = snap->first_keys[i];
      const Key hi = (i + 1 < m) ? snap->first_keys[i + 1] - 1 : ~Key{0};
      int depth = 0;
      art::Node* lca = art_.FindLcaNode(lo, hi, &depth);
      const int32_t slot = fp_buffer_.AddPointer(lca, depth, KeyPrefix(lo, depth));
      snap->models[i].load(std::memory_order_relaxed)->set_fp_index(slot);
    }
    fast_pointers.set_detail(m);
  }

  size_.Add(static_cast<int64_t>(n));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Slot probing and ART-OPT access
// ---------------------------------------------------------------------------

AltIndex::Probe AltIndex::ProbeSlot(GplModel* model, Key key, Value* out,
                                    ArtRoute* route) const ALT_REQUIRES_EPOCH {
  route->target = model;
  if (key >= model->coverage_end()) {
    // Out-of-coverage keys are never stored in slots (see GplModel ctor doc);
    // ART is their authoritative home and there is no line to validate.
    route->line = ArtRoute::kNoLine;
    return Probe::kGoArt;
  }
  const uint32_t l = model->LineOf(key);
  const SlotLine& line = model->line(l);
  route->line = l;
  // One snapshot of the line: its word gives every lane's state, and one
  // validation covers the keys read (DESIGN.md §2.2).
  for (;;) {
    const uint64_t w = line.word.Read();
    route->word = w;
    // A line moves as a whole, so one MIGRATED lane means all have moved.
    if (LineWord::StateOf(w, 0) == SlotState::kMigrated) return Probe::kMigrated;
    uint32_t hit = SlotLine::kLanes;
    Value v = 0;
    for (uint32_t lane = 0; lane < model->LanesIn(l); ++lane) {
      if (LineWord::StateOf(w, lane) == SlotState::kOccupied &&
          line.OptimisticKey(lane) == key) {
        hit = lane;
        v = line.OptimisticValue(lane);
        break;
      }
    }
    if (!line.word.Validate(w)) continue;  // a writer raced: re-read the line
    if (hit != SlotLine::kLanes) {
      route->lane = hit;
      if (out != nullptr) *out = v;
      return Probe::kHit;
    }
    return route->Saw(SlotState::kEmpty) ? Probe::kEmpty : Probe::kGoArt;
  }
}

AltIndex::Resolve AltIndex::ResolveSlot(Key key, Value* out,
                                        ArtRoute* route) const ALT_REQUIRES_EPOCH {
  GplModel* model = RoutedModel(key);
  Expansion* exp = model->expansion();
  route->model = model;
  for (GplModel* t = model;; t = exp->new_model) {
    // During a §III-F expansion the old model defers to its temporal buffer
    // for every key it no longer answers for.
    const bool buffer_next = t == model && exp != nullptr;
    switch (ProbeSlot(t, key, out, route)) {
      case Probe::kHit:
        return Resolve::kInSlot;
      case Probe::kGoArt:
        // Coverage gap (§III-F): the temporal buffer spans slightly more key
        // space than the old model, so a key beyond the old coverage may
        // live in a temporal slot.
        if (!route->has_line() && buffer_next) continue;
        return Resolve::kGoArt;
      case Probe::kEmpty:
        // New inserts land in the temporal buffer. Otherwise the zero-error
        // invariant: an EMPTY lane in the predicted line proves absence —
        // unless it is suspended (fresh tail model, temporal buffer before its
        // sweep).
        if (buffer_next) continue;
        return t->strict_empty() ? Resolve::kAbsent : Resolve::kGoArt;
      case Probe::kMigrated:
        if (buffer_next) continue;
        return Resolve::kRetry;  // stale snapshot: re-route
    }
  }
}

bool AltIndex::RouteHolds(const ArtRoute& route, Key key) const ALT_REQUIRES_EPOCH {
  if (!route.has_line()) return RoutedModel(key) == route.model;
  return route.target->line(route.line).word.Validate(route.word);
}

bool AltIndex::ArtLookup(const GplModel* model, Key key, Value* out,
                         ServedBy* served) const ALT_REQUIRES_EPOCH {
  int steps = 0;
  bool found = false;
  bool used_hint = false;
  const int32_t fpi = model->fp_index();
  if (options_.enable_fast_pointers && fpi >= 0) {
    const FastPointerBuffer::Ref ref = fp_buffer_.Get(fpi);
    if (ref.node != nullptr && FastPointerBuffer::Covers(ref, key)) {
      used_hint = true;
      const art::HintOutcome r = art_.LookupFrom(ref.node, key, out, &steps);
      if (r == art::HintOutcome::kFound) {
        found = true;
        metrics::Inc(Counter::kFastPointerHits);
        metrics::FpDepthHit(ref.depth);
        SetServedBy(served, FpDepthTag(ref.depth));
      } else {
        // Miss within the hinted subtree is not authoritative under races
        // (an SMO may have momentarily moved the key above the hint).
        metrics::Inc(Counter::kArtRootFallbacks);
        found = art_.Lookup(key, out, &steps);
        SetServedBy(served, found ? ServedBy::kArtRoot : ServedBy::kArtNegative);
      }
    }
  }
  if (!used_hint) {
    found = art_.Lookup(key, out, &steps);
    SetServedBy(served, found ? ServedBy::kArtRoot : ServedBy::kArtNegative);
  }
  metrics::Inc(Counter::kArtLookups);
  metrics::Inc(Counter::kArtLookupSteps, static_cast<uint64_t>(steps));
  return found;
}

bool AltIndex::ArtInsert(GplModel* model, Key key,
                         Value value) ALT_REQUIRES_EPOCH {
  const int32_t fpi = model->fp_index();
  if (options_.enable_fast_pointers && fpi >= 0) {
    const FastPointerBuffer::Ref ref = fp_buffer_.Get(fpi);
    if (ref.node != nullptr && FastPointerBuffer::Covers(ref, key)) {
      const art::HintOutcome r = art_.InsertFrom(ref.node, key, value);
      if (r == art::HintOutcome::kInserted) {
        metrics::Inc(Counter::kConflictInserts);
        return true;
      }
      if (r == art::HintOutcome::kExists) return false;
      // kNeedRoot: the SMO involves the hint node itself — the root-based
      // insert below performs it and the listener refreshes the entry.
    }
  }
  const bool inserted = art_.Insert(key, value);
  if (inserted) metrics::Inc(Counter::kConflictInserts);
  return inserted;
}

// ---------------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------------

bool AltIndex::Lookup(Key key, Value* out, ServedBy* served) const {
  EpochGuard g(*epoch_);
  return LookupInternal(key, out, served);
}

bool AltIndex::LookupInternal(Key key, Value* out, ServedBy* served) const {
  ALT_ASSERT_EPOCH_PINNED("AltIndex::LookupInternal", *epoch_);
  for (;;) {
    ArtRoute route;
    switch (ResolveSlot(key, out, &route)) {
      case Resolve::kInSlot:
        return FinishLearnedHit(served);
      case Resolve::kAbsent:
        return FinishLearnedNegative(served);
      case Resolve::kRetry:
        continue;
      case Resolve::kGoArt:
        break;
    }

    // Secondary search in ART-OPT (replaces error-correction, §III-A).
    Value art_value = 0;
    if (ArtLookup(route.model, key, &art_value, served)) {
      if (out != nullptr) *out = art_value;
      // Write-back scheme (Alg. 2 lines 10-13): a tombstoned lane of the
      // predicted line re-adopts its key from ART. Skipped during expansion
      // (§III-F owns lane transitions then; WriteBack re-checks under the
      // line word). The write-back only moves a key between layers, so a
      // const Lookup may perform it.
      if (route.has_line() && route.Saw(SlotState::kTombstone) &&
          route.model->expansion() == nullptr) {
        WriteBackSection wb(this);
        const_cast<AltIndex*>(this)->WriteBack(route.target, route.line, key,
                                               SlotState::kTombstone, out);
      }
      return true;
    }
    // ART miss: a concurrent write-back, migration or tail append may have
    // moved the key while we searched.
    if (RouteHolds(route, key)) return false;
  }
}

// ---------------------------------------------------------------------------
// Insert
// ---------------------------------------------------------------------------

bool AltIndex::Insert(Key key, Value value, ServedBy* served) {
  EpochGuard g(*epoch_);
  for (;;) {
    GplModel* model = RoutedModel(key);
    Expansion* exp = model->expansion();
    const Placed r = exp == nullptr ? InsertInto(model, nullptr, key, value, served)
                                    : InsertExpanding(model, exp, key, value);
    if (r == Placed::kRetry) continue;
    if (exp != nullptr) SetServedBy(served, ServedBy::kExpansionPath);
    return r == Placed::kInserted;
  }
}

AltIndex::Placed AltIndex::InsertInto(GplModel* model, Expansion* exp, Key key,
                                      Value value,
                                      ServedBy* served) ALT_REQUIRES_EPOCH {
  GplModel* t = exp != nullptr ? exp->new_model : model;
  ArtRoute route;
  switch (ProbeSlot(t, key, nullptr, &route)) {
    case Probe::kHit:
      SetServedBy(served, ServedBy::kLearnedSlot);
      return Placed::kExists;  // exists in place
    case Probe::kMigrated:
      // An expansion appeared, or the temporal buffer was published and is
      // itself expanding: re-route from the top.
      return Placed::kRetry;
    case Probe::kGoArt: {
      // Full line (§III-A conflict), or out of coverage (no line): the key
      // belongs in ART-OPT. ART's insert is atomic w.r.t. duplicates.
      SetServedBy(served, ServedBy::kConflictInsert);
      if (route.has_line()) {
        // The line stays full, and a §III-F sweep moves it only after the
        // ART insert (it takes the line lock InsertConflict holds), so the
        // finish sweep's adoption finds the key: no repair is needed.
        const Placed r = InsertConflict(route, key, value);
        if (r == Placed::kInserted) CountInsert(model, exp);
        return r;
      }
      if (!ArtInsert(t, key, value)) return Placed::kExists;  // exists in ART
      CountInsert(model, exp);
      EnsureArtKeyVisible(key);
      return Placed::kInserted;
    }
    case Probe::kEmpty:
      break;
  }
  if (!t->strict_empty()) {
    // Suspended invariant (fresh tail model, temporal buffer before its
    // finish sweep): the key may still sit in ART; check before placing,
    // then re-validate the line so a racing write-back sweep is observed.
    Value existing = 0;
    const bool in_art = ArtLookup(t, key, &existing);
    if (!RouteHolds(route, key)) return Placed::kRetry;
    if (in_art) {
      SetServedBy(served, ServedBy::kArtRoot);
      return Placed::kExists;
    }
  }
  SlotLine& line = t->line(route.line);
  const uint64_t lw = line.word.Lock();
  // Re-check the expansion under the line word: if one was installed on `t`
  // since it was routed, a concurrent insert may already have placed a
  // conflicting key in the temporal buffer while this line had an EMPTY lane.
  // Occupying it now would shadow that key behind the full line → ART route
  // and strand it (lookups would never probe the buffer). The lock
  // acquisition is an RMW, so any install visible to a writer that saw this
  // line with an EMPTY lane is visible to this load too. A line that changed
  // since the probe is probed again: another insert of the same key may have
  // taken a lane of it, or the line may have filled up.
  if (lw != route.word || t->expansion() != nullptr) {
    line.word.Unlock(lw);
    return Placed::kRetry;
  }
  const uint32_t lane = t->FirstLane(route.line, lw, SlotState::kEmpty);
  line.Store(lane, key, value);
  line.word.Unlock(LineWord::WithState(lw, lane, SlotState::kOccupied));
  metrics::Inc(Counter::kSlotInserts);
  SetServedBy(served, ServedBy::kSlotInsert);
  CountInsert(model, exp);
  return Placed::kInserted;
}

AltIndex::Placed AltIndex::InsertConflict(const ArtRoute& route, Key key,
                                          Value value) ALT_REQUIRES_EPOCH {
  // The line lock excludes write-backs and line moves. With the line word
  // still as the probe read it, no write-back (Alg. 2's tombstone write-back
  // above all) moved `key` into the line since the probe, and none can until
  // the ART insert is done, so the key cannot end up in both places.
  SpinLockGuard g(route.target->line(route.line).lock);
  if (!RouteHolds(route, key)) return Placed::kRetry;
  return ArtInsert(route.target, key, value) ? Placed::kInserted : Placed::kExists;
}

AltIndex::Placed AltIndex::InsertExpanding(GplModel* model, Expansion* exp,
                                           Key key,
                                           Value value) ALT_REQUIRES_EPOCH {
  if (key >= exp->new_model->coverage_end()) {
    // The temporal buffer will not store this key; InsertInto sends it to
    // ART. The old model's clamp line may still hold it from before the
    // expansion — check for a duplicate there first.
    ArtRoute route;
    if (ProbeSlot(model, key, nullptr, &route) == Probe::kHit) return Placed::kExists;
    return InsertInto(model, exp, key, value, nullptr);
  }
  // §III-F step 2: move the key's old line to the temporal buffer, then place
  // the new key there too.
  if (MigrateLine(model, model->LineOf(key), exp->new_model, &key)) {
    return Placed::kExists;  // it was in the old line and moved with it
  }
  return InsertInto(model, exp, key, value, nullptr);
}

void AltIndex::CountInsert(GplModel* model, Expansion* exp) ALT_REQUIRES_EPOCH {
  size_.Add(1);
  if (exp == nullptr) {
    model->BumpInsertCount();
    MaybeTriggerExpansion(model);
  } else {
    exp->new_inserts.fetch_add(1, std::memory_order_relaxed);
    MaybeFinishExpansion(model, exp);
  }
}

void AltIndex::MigrateInto(GplModel* new_model, Key key,
                           Value value) ALT_REQUIRES_EPOCH {
  if (key < new_model->coverage_end()) {
    const uint32_t l = new_model->LineOf(key);
    SlotLine& line = new_model->line(l);
    const uint64_t lw = line.word.Lock();
    const uint32_t lane = new_model->FirstLane(l, lw, SlotState::kEmpty);
    if (lane != SlotLine::kLanes) {
      line.Store(lane, key, value);
      line.word.Unlock(LineWord::WithState(lw, lane, SlotState::kOccupied));
      return;
    }
    line.word.Unlock(lw);
  }
  // A full line in the temporal buffer too, or a pre-expansion clamp-line
  // resident beyond the new coverage (a future tail model takes its range
  // over from ART): the victim goes to ART-OPT. Victims are unique keys that
  // lived only in the old model, so this cannot collide.
  const bool ok = ArtInsert(new_model, key, value);
  assert(ok && "migrated victim unexpectedly present in ART");
  (void)ok;
}

bool AltIndex::MigrateLine(GplModel* old, uint32_t l, GplModel* new_model,
                           const Key* key) ALT_REQUIRES_EPOCH {
  SlotLine& line = old->line(l);
  // A line moves as a whole and EMPTY lanes are a suffix, so lane 0 tells a
  // moved line and an all-EMPTY one. A moved line stays moved. An insert
  // skips an all-EMPTY line, which has nothing to move yet; the finish sweep
  // (no `key`) locks it all the same: a writer that locked the line before
  // the expansion was installed may not have seen the install (InsertInto
  // and WriteBack re-check under the line word), and only the lock orders the
  // sweep after that writer's key.
  const SlotState first = LineWord::StateOf(line.word.Read(), 0);
  if (first == SlotState::kMigrated || (first == SlotState::kEmpty && key != nullptr)) {
    return false;
  }
  SpinLockGuard g(line.lock);
  uint64_t lw = line.word.Lock();
  bool found = false;
  for (uint32_t lane = 0; lane < old->LanesIn(l); ++lane) {
    if (LineWord::StateOf(lw, lane) == SlotState::kOccupied) {
      const Key k = line.pair[lane].key.load(std::memory_order_relaxed);
      found |= key != nullptr && k == *key;
      MigrateInto(new_model, k, line.pair[lane].value.load(std::memory_order_relaxed));
    }
    lw = LineWord::WithState(lw, lane, SlotState::kMigrated);  // EMPTY, TOMBSTONE too
  }
  line.word.Unlock(lw);
  return found;
}

// ---------------------------------------------------------------------------
// Update / Remove
// ---------------------------------------------------------------------------

bool AltIndex::Update(Key key, Value value, ServedBy* served) {
  return UpdateOrRemove(key, &value, served);
}

bool AltIndex::Remove(Key key, ServedBy* served) {
  return UpdateOrRemove(key, nullptr, served);
}

bool AltIndex::UpdateOrRemove(Key key, const Value* value, ServedBy* served) {
  EpochGuard g(*epoch_);
  for (;;) {
    ArtRoute route;
    switch (ResolveSlot(key, nullptr, &route)) {
      case Resolve::kRetry:
        continue;
      case Resolve::kAbsent:
        SetServedBy(served, ServedBy::kLearnedNegative);
        return false;
      case Resolve::kInSlot: {
        SlotLine& line = route.target->line(route.line);
        const uint64_t lw = line.word.Lock();
        if (LineWord::StateOf(lw, route.lane) != SlotState::kOccupied ||
            line.pair[route.lane].key.load(std::memory_order_relaxed) != key) {
          line.word.Unlock(lw);
          continue;  // changed underneath; retry from the top
        }
        if (value != nullptr) {
          line.pair[route.lane].value.store(*value, std::memory_order_relaxed);
          line.word.Unlock(lw);
        } else {
          // In-place delete leaves a tombstone (§III-G): conflicting keys in
          // ART rely on this lane staying non-empty.
          line.word.Unlock(LineWord::WithState(lw, route.lane, SlotState::kTombstone));
          size_.Add(-1);
        }
        SetServedBy(served, ServedBy::kLearnedSlot);
        return true;
      }
      case Resolve::kGoArt:
        break;
    }
    if (value != nullptr ? art_.Update(key, *value) : art_.Remove(key)) {
      if (value == nullptr) size_.Add(-1);
      SetServedBy(served, ServedBy::kArtRoot);
      return true;
    }
    if (RouteHolds(route, key)) {
      SetServedBy(served, ServedBy::kArtNegative);
      return false;
    }
  }
}

// ---------------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------------

size_t AltIndex::Scan(Key start, size_t count,
                      std::vector<std::pair<Key, Value>>* out) const {
  out->clear();
  if (count == 0) return 0;
  if (ScanRange(start, ~Key{0}, count, out) == 0) metrics::Inc(Counter::kEmptyScans);
  return out->size();
}

size_t AltIndex::RangeQuery(Key lo, Key hi,
                            std::vector<std::pair<Key, Value>>* out) const {
  out->clear();
  if (hi < lo) return 0;
  return ScanRange(lo, hi, ~size_t{0}, out);
}

size_t AltIndex::ScanRange(Key lo, Key hi, size_t limit,
                           std::vector<std::pair<Key, Value>>* out) const {
  EpochGuard g(*epoch_);
  metrics::Inc(Counter::kScanOps);

  // Sized once, so neither a retry nor a typical (<= kScanReserve) scan
  // reallocates; an unbounded `limit` must not reserve unboundedly. `out`
  // holds the learned run and then ART's run behind it, two capped runs,
  // hence twice the cap. ART's run gets no buffer of its own: freeing one
  // after every scan could trim the thread's malloc arena, and a later
  // allocation fault the pages back in (EXPERIMENTS.md "ART-OPT node
  // region").
  constexpr size_t kScanReserve = 256;
  out->reserve(2 * std::min(limit, kScanReserve));
  size_t learned = 0;
  for (;;) {
    // Write-back seqlock read side: a concurrent ART→slot write-back could
    // move a key out of ART after its (EMPTY) slot was already collected,
    // hiding it from both layers of this composite read. Redo the collection
    // if a write-back was active at any point during it (see
    // WriteBackSection; point lookups use per-line word validation instead).
    const uint64_t wb_gen = write_back_gen_.load(std::memory_order_acquire);
    if (write_backs_active_.load(std::memory_order_acquire) != 0) {
      CpuRelax();
      continue;
    }
    out->clear();
    const ModelDirectory::Snapshot* snap = directory_.snapshot();
    const size_t num_models = snap->first_keys.size();
    for (size_t i = ModelDirectory::Locate(*snap, lo);
         i < num_models && out->size() < limit; ++i) {
      if (snap->first_keys[i] > hi) break;
      GplModel* model = snap->models[i].load(std::memory_order_acquire);
      // The first `want` keys of a union of ascending (line-ordered) runs
      // lie within the first `want` keys of each run, so capping every run
      // at `want` is exact (DESIGN.md §12.5).
      const size_t before = out->size();
      const size_t want = limit - before;
      model->CollectRange(lo, hi, out, want);
      // Walk the whole §III-F expansion chain, not just one level: under
      // churn the temporal buffer may itself be expanding (its old slots are
      // marked kMigrated, so they no longer show up as occupied), and a
      // one-level walk would skip every key already migrated to the second
      // level.
      for (Expansion* e = model->expansion(); e != nullptr;
           e = e->new_model->expansion()) {
        const size_t mid = out->size();
        e->new_model->CollectRange(lo, hi, out, want);
        MergeRun(out, before, mid, limit);
      }
    }
    // Models are disjoint and ascending, so `out` is sorted. Once it holds
    // `limit` keys, ART keys past the last one cannot reach the result.
    const Key art_hi = out->size() >= limit ? out->back().first : hi;
    learned = out->size();
    art_.AppendRange(lo, art_hi, out, limit);
    if (write_back_gen_.load(std::memory_order_acquire) == wb_gen) break;
  }

  MergeRun(out, 0, learned, limit);
  return out->size();
}

// ---------------------------------------------------------------------------
// Dynamic retraining (§III-F)
// ---------------------------------------------------------------------------

void AltIndex::EnsureArtKeyVisible(Key key) ALT_REQUIRES_EPOCH {
  ArtRoute route;
  ResolveSlot(key, nullptr, &route);
  // Only an EMPTY lane in the line can ever make the key unreachable. Attempt
  // the write-back even while the line's model has the invariant suspended:
  // the sweep that will re-arm strict_empty may already have passed this
  // key's position in ART, so the inserter itself must make the key visible.
  if (!route.has_line() || !route.Saw(SlotState::kEmpty)) return;
  WriteBackSection wb(this);
  WriteBack(route.target, route.line, key, SlotState::kEmpty);
}

void AltIndex::WriteBack(GplModel* owner, uint32_t l, Key key, SlotState from,
                         Value* moved) ALT_REQUIRES_EPOCH {
  ALT_DEBUG_CHECK(::alt::debug::LockHeldByThisThread(&write_backs_active_), "write-back",
                  "ART->slot write-back outside a WriteBackSection", this);
  SlotLine& line = owner->line(l);
  if (owner->FirstLane(l, line.word.Read(), from) == SlotLine::kLanes) return;
  SpinLockGuard g(line.lock);  // no conflict insert or line move in between
  uint64_t lw = line.word.Lock();
  const uint32_t lane = owner->FirstLane(l, lw, from);
  // TOCTOU guard (see InsertInto): once an expansion is installed on
  // `owner`, §III-F owns its lane transitions; the key stays in ART,
  // reachable behind the suspended invariant, and the finish sweep writes
  // it back.
  Value v = 0;
  if (lane != SlotLine::kLanes && owner->expansion() == nullptr && art_.Remove(key, &v)) {
    line.Store(lane, key, v);
    lw = LineWord::WithState(lw, lane, SlotState::kOccupied);
    metrics::Inc(Counter::kWriteBacks);
    if (moved != nullptr) *moved = v;
  }
  line.word.Unlock(lw);
}

void AltIndex::MaybeTriggerExpansion(GplModel* model) {
  if (!options_.enable_retraining) return;
  const double trigger =
      options_.retrain_trigger_ratio * static_cast<double>(model->build_size());
  if (static_cast<double>(model->insert_count()) <= trigger) return;
  if (model->expansion() != nullptr) return;

  // Expansion preparation: temporal buffer with twice the slots, doubled
  // train slope (§III-F step 1).
  const uint64_t new_slots = static_cast<uint64_t>(model->num_slots()) * 2 + 1;
  if (new_slots > (uint64_t{1} << 31)) return;  // refuse pathological growth
  Key coverage = ~Key{0};
  const double new_slope = model->slope() * 2.0;
  if (new_slope > 0) {
    const double span = static_cast<double>(new_slots) / new_slope;
    if (span < static_cast<double>(~Key{0} - model->first_key())) {
      coverage = model->first_key() + static_cast<Key>(span) + 1;
    }
  }
  auto* new_model =
      new GplModel(model->first_key(), new_slope, static_cast<uint32_t>(new_slots),
                   model->build_size() + model->insert_count(), coverage);
  new_model->set_fp_index(model->fp_index());
  // Until the finish sweep writes eligible ART keys back, EMPTY temporal
  // slots do not prove absence.
  new_model->set_strict_empty(false);
  auto* exp = new Expansion(new_model);
  exp->finish_threshold = std::max<uint32_t>(64, model->build_size());
  exp->start_ns = NowNanos();
  if (!model->TryInstallExpansion(exp)) {
    delete exp;
    return;
  }
  retrain_started_.fetch_add(1, std::memory_order_relaxed);
  metrics::Inc(Counter::kRetrainStarted);
  trace::RecordInstant("retrain_start", "retrain", model->first_key());
}

void AltIndex::MaybeFinishExpansion(GplModel* model,
                                    Expansion* exp) ALT_REQUIRES_EPOCH {
  if (exp->new_inserts.load(std::memory_order_relaxed) < exp->finish_threshold) return;
  if (exp->finishing.exchange(true, std::memory_order_acq_rel)) return;
  FinishExpansion(model, exp);
}

void AltIndex::FinishExpansion(GplModel* model,
                               Expansion* exp) ALT_REQUIRES_EPOCH {
  GplModel* nm = exp->new_model;
  trace::Span finish_span("retrain_finish", "retrain", model->first_key());

  {
    // Step 1: sweep the remaining old lines into the temporal buffer.
    trace::Span sweep_span("retrain_sweep", "retrain", model->num_slots());
    for (uint32_t l = 0; l < model->num_lines(); ++l) MigrateLine(model, l, nm, nullptr);
  }

  {
    // Step 2: restore the zero-error invariant (§III-F).
    trace::Span wb_span("retrain_write_back", "retrain");
    wb_span.set_detail(AdoptArtRange(nm));
  }

  // Step 3: publish the temporal buffer as the model (§III-F step 3);
  // ownership moves to the directory (see Expansion dtor).
  GplModel* published = exp->new_model;
  const bool ok = directory_.PublishReplacement(model, published);
  assert(ok && "only the finishing thread publishes a replacement");
  (void)ok;
  exp->done.store(true, std::memory_order_release);
  retrain_finished_.fetch_add(1, std::memory_order_relaxed);
  metrics::Inc(Counter::kRetrainFinished);
  // The whole expansion, trigger to publish (retrain_start marks its start).
  if (trace::Enabled()) {
    trace::RecordSpan("retrain", "retrain", exp->start_ns, NowNanos() - exp->start_ns,
                      published->first_key());
  }

  AppendTailModelIfLast(published);
}

void AltIndex::AppendTailModelIfLast(const GplModel* published) ALT_REQUIRES_EPOCH {
  const ModelDirectory::Snapshot* snap = directory_.snapshot();
  const size_t n = snap->first_keys.size();
  if (n == 0 || snap->models[n - 1].load(std::memory_order_acquire) != published) {
    return;
  }
  // §III-F: "if the retraining GPL model is the last one, we create a new GPL
  // model behind it" — first key just beyond the published model's coverage.
  const Key tail_first = published->coverage_end();
  if (tail_first == ~Key{0}) return;  // infinite coverage: nothing to take over
  if (tail_first <= snap->first_keys[n - 1]) return;
  GplModel* tail = NewCatchAllModel(tail_first, published->slope());
  // The tail steals [tail_first, +inf) from the published model; ART keys in
  // that range would otherwise look "absent" behind the tail's EMPTY slots.
  // Publish with the invariant suspended, then adopt those ART keys. Once an
  // insert storm starts expanding the (already published) tail, WriteBack
  // declines and that expansion's finish sweep takes over.
  tail->set_strict_empty(false);
  if (!directory_.AppendTail(tail)) {
    // A concurrent finishing thread appended a covering tail first.
    delete tail;
    return;
  }
  metrics::Inc(Counter::kTailModelsAppended);
  trace::Span span("tail_append", "retrain", tail_first);
  AdoptArtRange(tail);
}

GplModel* AltIndex::NewCatchAllModel(Key first_key, double slope) {
  const uint32_t slots = options_.tail_model_slots;
  auto* model = new GplModel(first_key, slope, slots, slots / 2);
  if (options_.enable_fast_pointers) {
    model->set_fp_index(fp_buffer_.AddPointer(art_.root(), 0, 0));
  }
  return model;
}

size_t AltIndex::AdoptArtRange(GplModel* m) ALT_REQUIRES_EPOCH {
  // m's routing range (from key 0 for the first model), clipped below
  // coverage_end: keys at or past it never live in slots (ProbeSlot).
  const ModelDirectory::Snapshot* snap = directory_.snapshot();
  const size_t idx = ModelDirectory::Locate(*snap, m->first_key());
  const Key lo = idx == 0 ? 0 : m->first_key();
  Key hi = m->coverage_end() - 1;
  if (idx + 1 < snap->first_keys.size()) hi = std::min(hi, snap->first_keys[idx + 1] - 1);
  // Collected before the section opens, since scans spin while one is open.
  // A key inserted into ART after this collection either has a full line in
  // m or makes itself visible (EnsureArtKeyVisible).
  std::vector<std::pair<Key, Value>> keys;
  art_.RangeQuery(lo, hi, &keys);
  WriteBackSection wb(this);
  for (const auto& [k, unused_v] : keys) WriteBack(m, m->LineOf(k), k, SlotState::kEmpty);
  // The invariant now holds: every ART key of the range either has a full
  // line or was just written back.
  m->set_strict_empty(true);
  return keys.size();
}

size_t AltIndex::MemoryUsage() const {
  return sizeof(AltIndex) + directory_.MemoryBytes() + fp_buffer_.MemoryBytes() +
         art_.MemoryUsage();
}

size_t AltIndex::MappedBytes() const {
  return (slab_ != nullptr ? slab_->capacity() : 0) + art_.RegionBytes();
}

}  // namespace alt
