#include "core/alt_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <new>
#include <system_error>
#include <thread>

#include "common/aligned_mem.h"
#include "common/epoch.h"
#include "common/metrics.h"
#include "common/spinlock.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/gpl.h"

namespace alt {

namespace {

using metrics::Counter;

// Merge two ascending (key, value) runs, truncating at `limit`. Each run may
// briefly contain a key the other also holds (a migration or write-back can
// move a key between the learned layer and ART mid-collection), so equal keys
// are emitted once — the first observed copy wins.
void MergePairs(std::vector<std::pair<Key, Value>>& a,
                std::vector<std::pair<Key, Value>>& b, size_t limit,
                std::vector<std::pair<Key, Value>>* out) {
  out->clear();
  out->reserve(std::min(limit, a.size() + b.size()));
  size_t i = 0, j = 0;
  while (out->size() < limit && (i < a.size() || j < b.size())) {
    std::pair<Key, Value> next;
    if (j >= b.size() || (i < a.size() && a[i].first <= b[j].first)) {
      next = a[i++];
    } else {
      next = b[j++];
    }
    if (!out->empty() && out->back().first == next.first) continue;
    out->push_back(next);
  }
}

// Drop all but the first copy of each key from the sorted tail [begin, end) of
// `v` (§III-F scan dedupe: during an expansion the old model and the temporal
// buffer are collected over the same key range, and a key migrated between the
// two per-slot-atomic collection passes appears in both).
void DedupeSortedTail(std::vector<std::pair<Key, Value>>* v, size_t begin) {
  auto first = v->begin() + static_cast<ptrdiff_t>(begin);
  v->erase(std::unique(first, v->end(),
                       [](const auto& x, const auto& y) { return x.first == y.first; }),
           v->end());
}

// Smallest BulkLoad slab worth a helper thread for the slot fill (about 860k
// keys at the default gap factor). Below 35MB the helper lost in every timed
// run; from 47MB up it won or lost with the host's load (EXPERIMENTS.md "Slot
// slab: helper-thread cutoff").
constexpr size_t kFillThreadBytes = size_t{64} << 20;

// Terminal accounting for lookups the learned layer answers by itself.
inline bool FinishLearnedHit(ServedBy* served) {
  metrics::Inc(Counter::kLearnedHits);
  SetServed(served, ServedBy::kLearnedSlot);
  return true;
}

inline bool FinishLearnedNegative(ServedBy* served) {
  metrics::Inc(Counter::kLearnedNegatives);
  SetServed(served, ServedBy::kLearnedNegative);
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
  const Stopwatch load_clock;
  trace::Span span("bulk_load", "build", n);
  if (directory_.NumModels() != 0) {
    return Status::InvalidArgument("BulkLoad may only run once");
  }
  if (n == 0) {
    // Empty load: publish one tail-like model spanning the whole keyspace so
    // every operation has a routing target from the start. Runtime inserts
    // land at predicted slots (or ART on conflict) exactly as they would
    // behind a §III-F tail model. Sharded deployments rely on this: a range
    // partition may leave shards with no bulk keys.
    epsilon_ = options_.EffectiveErrorBound(0);
    const uint32_t slots = options_.tail_model_slots;
    const double slope =
        static_cast<double>(slots) / static_cast<double>(~Key{0});
    auto* model = new GplModel(0, slope, slots, slots / 2);
    if (options_.enable_fast_pointers) {
      const int32_t slot = fp_buffer_.AddPointer(art_.root(), 0, 0);
      model->set_fp_index(slot);
    }
    directory_.Build({model}, options_.upper_radix_bits);
    metrics::SetGauge(metrics::Gauge::kNumModels, 1);
    metrics::RecordEvent(metrics::EventType::kBulkLoad, load_clock.ElapsedNanos(), 0);
    return Status::OK();
  }
  for (size_t i = 1; i < n; ++i) {
    if (keys[i] <= keys[i - 1]) {
      return Status::InvalidArgument("keys must be sorted and duplicate-free");
    }
  }

  epsilon_ = options_.EffectiveErrorBound(n);
  const std::vector<Segment> segments = GplSegment(keys, n, epsilon_);

  // Slot counts first: they size the one slab every bulk-loaded slot array
  // is carved from (DESIGN.md §10.2).
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
    // Safety clamp: predicted span is ~gap_factor * length by construction of
    // the GPL slope; a generous cap guards degenerate doubles.
    const uint64_t cap =
        static_cast<uint64_t>(options_.gap_factor * static_cast<double>(seg.length)) +
        2 * static_cast<uint64_t>(epsilon_) + 16;
    if (slots > cap) slots = cap;
    slot_counts.push_back(static_cast<uint32_t>(slots));
    slab_bytes += SlotSlab::SliceFootprint(sizeof(GplSlot) * slots);
  }
  slab_ = SlotSlab::Create(slab_bytes);
  if (slab_ == nullptr) throw std::bad_alloc();

  std::vector<GplModel*> models;
  // Which keys lose their slot to a prediction conflict (§III-A) follows from
  // the predictions alone: Predict is monotone in the key, so a key conflicts
  // exactly when its predecessor in the same model predicted the same slot.
  // The slot fill and the ART-OPT inserts therefore need nothing from each
  // other and run side by side.
  auto for_each_key = [&](auto&& visit) {
    for (size_t m = 0; m < segments.size(); ++m) {
      const Segment& seg = segments[m];
      uint32_t prev = 0;
      for (size_t i = 0; i < seg.length; ++i) {
        const uint32_t p = models[m]->Predict(keys[seg.start + i]);
        visit(models[m], p, i > 0 && p == prev, keys[seg.start + i], values[seg.start + i]);
        prev = p;
      }
    }
  };
  // The slab is a fresh mapping, so the fill also faults it in.
  auto fill = [&] {
    for_each_key([](GplModel* model, uint32_t p, bool conflict, Key k, Value v) {
      if (conflict) return;
      GplSlot& s = model->slot(p);
      // Bulk load owns the index, but writing under the slot lock keeps the
      // key/value stores inside the capability the analysis checks (the
      // uncontended CAS costs nothing next to the O(n) load itself).
      const uint32_t lw = s.word.Lock();
      s.key.store(k, std::memory_order_relaxed);
      s.value.store(v, std::memory_order_relaxed);
      s.word.Unlock(lw, SlotState::kOccupied);
    });
  };
  std::thread filler;
  try {
    models.reserve(segments.size());
    for (size_t m = 0; m < segments.size(); ++m) {
      const Segment& seg = segments[m];
      models.push_back(new GplModel(keys[seg.start], seg.slope * options_.gap_factor,
                                    slot_counts[m], static_cast<uint32_t>(seg.length),
                                    ~Key{0}, slab_));
    }
    // From kFillThreadBytes on, a helper thread fills the slab while this one
    // inserts the conflicts into ART-OPT. The fill allocates nothing, so no
    // malloc arena opens for the helper, and the helper inherits this
    // thread's CPU affinity. Without a thread to spare the fill runs inline.
    if (slab_->capacity() >= kFillThreadBytes) {
      try {
        filler = std::thread(fill);
      } catch (const std::system_error&) {
      }
    }
    {
      EpochGuard g(*epoch_);
      for_each_key([this](GplModel*, uint32_t, bool conflict, Key k, Value v) {
        if (conflict) art_.Insert(k, v);
      });
    }
    if (filler.joinable()) {
      filler.join();
    } else {
      fill();
    }
  } catch (...) {
    // An allocation failed: stop the helper before its models go, and leave
    // no slab behind on an index with an empty directory.
    if (filler.joinable()) filler.join();
    for (GplModel* model : models) delete model;
    slab_->Unref();
    slab_ = nullptr;
    throw;
  }

  directory_.Build(std::move(models), options_.upper_radix_bits);

  if (options_.enable_fast_pointers) {
    // §III-C1: for each pair of adjacent GPL models, point at the deepest ART
    // node covering the model's key range; duplicates are merged.
    const ModelDirectory::Snapshot* snap = directory_.snapshot();
    const size_t m = snap->first_keys.size();
    for (size_t i = 0; i < m; ++i) {
      const Key lo = snap->first_keys[i];
      const Key hi = (i + 1 < m) ? snap->first_keys[i + 1] - 1 : ~Key{0};
      int depth = 0;
      art::Node* lca = art_.FindLcaNode(lo, hi, &depth);
      const int32_t slot = fp_buffer_.AddPointer(lca, depth, KeyPrefix(lo, depth));
      snap->models[i].load(std::memory_order_relaxed)->set_fp_index(slot);
    }
  }

  size_.store(n, std::memory_order_relaxed);
  metrics::SetGauge(metrics::Gauge::kNumModels,
                    static_cast<int64_t>(directory_.NumModels()));
  metrics::RecordEvent(metrics::EventType::kBulkLoad, load_clock.ElapsedNanos(), n);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Slot probing and ART-OPT access
// ---------------------------------------------------------------------------

AltIndex::Probe AltIndex::ProbeSlot(const GplModel* model, Key key, Value* out,
                                    const GplSlot** slot_out,
                                    uint32_t* word_out) const ALT_REQUIRES_EPOCH {
  if (key >= model->coverage_end()) {
    // Out-of-coverage keys are never stored in slots (see GplModel ctor doc);
    // ART is their authoritative home and there is no slot to validate.
    *slot_out = nullptr;
    *word_out = 0;
    return Probe::kGoArt;
  }
  const GplSlot& s = model->slot(model->Predict(key));
  *slot_out = &s;
  for (;;) {
    const uint32_t w = s.word.Read();
    *word_out = w;
    switch (SlotWord::StateOf(w)) {
      case SlotState::kEmpty:
        return Probe::kEmpty;
      case SlotState::kMigrated:
        return Probe::kMigrated;
      case SlotState::kTombstone:
        return Probe::kGoArtTombstone;
      case SlotState::kOccupied: {
        const Key k = s.OptimisticKey();
        const Value v = s.OptimisticValue();
        if (!s.word.Validate(w)) break;  // writer raced; re-read
        if (k == key) {
          if (out != nullptr) *out = v;
          return Probe::kHit;
        }
        return Probe::kGoArt;
      }
    }
    if (SlotWord::StateOf(w) != SlotState::kOccupied) break;
  }
  // unreachable; loop either returns or re-reads
  return Probe::kEmpty;
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
        SetServed(served, FpDepthTag(ref.depth));
      } else {
        // Miss within the hinted subtree is not authoritative under races
        // (an SMO may have momentarily moved the key above the hint).
        metrics::Inc(Counter::kArtRootFallbacks);
        found = art_.Lookup(key, out, &steps);
        SetServed(served, found ? ServedBy::kArtRoot : ServedBy::kArtNegative);
      }
    }
  }
  if (!used_hint) {
    found = art_.Lookup(key, out, &steps);
    SetServed(served, found ? ServedBy::kArtRoot : ServedBy::kArtNegative);
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

bool AltIndex::Lookup(Key key, Value* out) const {
  EpochGuard g(*epoch_);
  return LookupInternal(key, out);
}

bool AltIndex::Lookup(Key key, Value* out, ServedBy* served) const {
  EpochGuard g(*epoch_);
  return LookupInternal(key, out, served);
}

bool AltIndex::LookupInternal(Key key, Value* out, ServedBy* served) const {
  ALT_ASSERT_EPOCH_PINNED("AltIndex::LookupInternal", *epoch_);
  for (;;) {
    const ModelDirectory::Snapshot* snap = directory_.snapshot();
    const size_t idx = ModelDirectory::Locate(*snap, key);
    GplModel* model = snap->models[idx].load(std::memory_order_acquire);
    Expansion* exp = model->expansion();

    const GplSlot* slot = nullptr;
    uint32_t word = 0;
    Probe p = ProbeSlot(model, key, out, &slot, &word);
    if (p == Probe::kHit) return FinishLearnedHit(served);

    if (slot == nullptr && exp != nullptr) {
      // Coverage gap (§III-F): the temporal buffer spans slightly more key
      // space than the old model (span grows by half a slot), so during an
      // expansion a key beyond the old coverage may live in a temporal slot.
      p = ProbeSlot(exp->new_model, key, out, &slot, &word);
      if (p == Probe::kHit) return FinishLearnedHit(served);
      if (p == Probe::kMigrated) continue;  // stale snapshot: re-route
      if (p == Probe::kEmpty && exp->new_model->strict_empty()) {
        return FinishLearnedNegative(served);
      }
      // Otherwise fall through to ART with the temporal slot as the routed
      // slot (or none if the key is beyond the temporal coverage too).
    } else if (p == Probe::kEmpty) {
      if (exp == nullptr) {
        // Zero-error invariant: an EMPTY predicted slot proves absence —
        // unless the model's invariant is suspended (fresh tail model).
        if (model->strict_empty()) return FinishLearnedNegative(served);
      } else {
        // §III-F: new inserts land in the temporal buffer.
        p = ProbeSlot(exp->new_model, key, out, &slot, &word);
        if (p == Probe::kHit) return FinishLearnedHit(served);
        if (p == Probe::kMigrated) continue;  // stale snapshot: re-route
        if (p == Probe::kEmpty && exp->new_model->strict_empty()) {
          return FinishLearnedNegative(served);
        }
        // Pre-sweep temporal slot: fall through to ART.
      }
    } else if (p == Probe::kMigrated) {
      p = ProbeSlot(exp != nullptr ? exp->new_model : model, key, out, &slot,
                    &word);
      if (p == Probe::kHit) return FinishLearnedHit(served);
      if (p == Probe::kMigrated) continue;  // stale snapshot: re-route
      if (p == Probe::kEmpty &&
          (exp == nullptr || exp->new_model->strict_empty())) {
        return FinishLearnedNegative(served);
      }
    }

    // Secondary search in ART-OPT (replaces error-correction, §III-A).
    Value art_value = 0;
    if (ArtLookup(model, key, &art_value, served)) {
      if (out != nullptr) *out = art_value;
      // Write-back scheme (Alg. 2 lines 10-13): a tombstoned predicted slot
      // re-adopts its key from ART. Skipped during expansion (§III-F owns
      // slot transitions then).
      if (p == Probe::kGoArtTombstone && exp == nullptr) {
        auto* ms = const_cast<GplSlot*>(slot);
        const uint32_t lw = ms->word.Lock();
        if (SlotWord::StateOf(lw) == SlotState::kTombstone) {
          Value moved = 0;
          if (const_cast<art::ArtTree&>(art_).Remove(key, &moved)) {
            ms->key.store(key, std::memory_order_relaxed);
            ms->value.store(moved, std::memory_order_relaxed);
            ms->word.Unlock(lw, SlotState::kOccupied);
            metrics::Inc(Counter::kWriteBacks);
            if (out != nullptr) *out = moved;
            return true;
          }
        }
        ms->word.Unlock(lw, SlotWord::StateOf(lw));
      }
      return true;
    }

    // ART miss: re-validate the slot we routed from; a concurrent write-back
    // or migration may have moved the key while we searched. Out-of-coverage
    // probes have no slot — re-validate the routing instead (a tail append
    // may have taken over the range).
    if (slot != nullptr) {
      if (slot->word.Validate(word)) return false;
    } else {
      const ModelDirectory::Snapshot* snap2 = directory_.snapshot();
      if (snap2->models[ModelDirectory::Locate(*snap2, key)].load(
              std::memory_order_acquire) == model) {
        return false;
      }
    }
    // else: retry the whole lookup
  }
}

// ---------------------------------------------------------------------------
// Insert / Upsert
// ---------------------------------------------------------------------------

bool AltIndex::Insert(Key key, Value value) {
  EpochGuard g(*epoch_);
  return InsertInternal(key, value);
}

bool AltIndex::Insert(Key key, Value value, ServedBy* served) {
  EpochGuard g(*epoch_);
  return InsertInternal(key, value, served);
}

bool AltIndex::Upsert(Key key, Value value) {
  EpochGuard g(*epoch_);
  for (;;) {
    if (InsertInternal(key, value)) return true;   // newly inserted
    if (UpdateInternal(key, value)) return false;  // overwrote existing
    // The key vanished between the exists check and the update; retry.
  }
}

bool AltIndex::InsertInternal(Key key, Value value, ServedBy* served) {
  ALT_ASSERT_EPOCH_PINNED("AltIndex::InsertInternal", *epoch_);
  for (;;) {
    const ModelDirectory::Snapshot* snap = directory_.snapshot();
    const size_t idx = ModelDirectory::Locate(*snap, key);
    GplModel* model = snap->models[idx].load(std::memory_order_acquire);
    Expansion* exp = model->expansion();

    if (exp != nullptr) {
      bool retry = false;
      const bool ok = InsertExpanding(model, exp, key, value, &retry);
      if (retry) continue;
      SetServed(served, ServedBy::kExpansionPath);
      return ok;
    }

    if (key >= model->coverage_end()) {
      // Out-of-coverage keys live exclusively in ART (no slot state).
      SetServed(served, ServedBy::kConflictInsert);
      if (!ArtInsert(model, key, value)) return false;
      size_.fetch_add(1, std::memory_order_relaxed);
      model->BumpInsertCount();
      MaybeTriggerExpansion(model);
      EnsureArtKeyVisible(key);
      return true;
    }

    GplSlot& s = model->slot(model->Predict(key));
    const uint32_t w = s.word.Read();
    switch (SlotWord::StateOf(w)) {
      case SlotState::kEmpty: {
        if (!model->strict_empty()) {
          // Suspended invariant (fresh tail model): the key may still sit in
          // ART; check before placing, then re-validate the slot so a racing
          // write-back sweep is observed.
          Value existing = 0;
          if (ArtLookup(model, key, &existing)) {
            if (!s.word.Validate(w)) continue;
            SetServed(served, ServedBy::kArtRoot);
            return false;  // exists in ART
          }
          if (!s.word.Validate(w)) continue;
        }
        const uint32_t lw = s.word.Lock();
        if (SlotWord::StateOf(lw) != SlotState::kEmpty) {
          s.word.Unlock(lw, SlotWord::StateOf(lw));
          continue;  // slot changed underneath; retry from the top
        }
        // Re-check the expansion under the slot lock: if one was installed
        // since `exp` was read, a concurrent insert may already have placed a
        // conflicting key in the temporal buffer while this slot was EMPTY.
        // Occupying it now would shadow that key behind the occupied → ART
        // route and strand it (lookups would never probe the buffer). The
        // lock acquisition is an RMW, so any install visible to a writer
        // that saw this slot EMPTY is visible to this load too.
        if (model->expansion() != nullptr) {
          s.word.Unlock(lw, SlotState::kEmpty);
          continue;  // retry routes through InsertExpanding
        }
        s.key.store(key, std::memory_order_relaxed);
        s.value.store(value, std::memory_order_relaxed);
        s.word.Unlock(lw, SlotState::kOccupied);
        metrics::Inc(Counter::kSlotInserts);
        size_.fetch_add(1, std::memory_order_relaxed);
        model->BumpInsertCount();
        MaybeTriggerExpansion(model);
        SetServed(served, ServedBy::kSlotInsert);
        return true;
      }
      case SlotState::kOccupied: {
        const Key k = s.OptimisticKey();
        if (!s.word.Validate(w)) continue;
        if (k == key) {
          SetServed(served, ServedBy::kLearnedSlot);
          return false;  // exists in place
        }
        // Conflict: the key belongs in ART-OPT.
        SetServed(served, ServedBy::kConflictInsert);
        if (ArtInsert(model, key, value)) {
          size_.fetch_add(1, std::memory_order_relaxed);
          model->BumpInsertCount();
          MaybeTriggerExpansion(model);
          EnsureArtKeyVisible(key);
          return true;
        }
        return false;  // exists in ART
      }
      case SlotState::kTombstone: {
        // Tombstone inserts route to ART (ART's insert is atomic w.r.t.
        // duplicates; writing in place here would race the write-back).
        SetServed(served, ServedBy::kConflictInsert);
        if (ArtInsert(model, key, value)) {
          size_.fetch_add(1, std::memory_order_relaxed);
          model->BumpInsertCount();
          MaybeTriggerExpansion(model);
          EnsureArtKeyVisible(key);
          return true;
        }
        return false;
      }
      case SlotState::kMigrated:
        continue;  // expansion appeared; retry picks it up
    }
  }
}

bool AltIndex::InsertExpanding(GplModel* model, Expansion* exp, Key key,
                               Value value, bool* retry) ALT_REQUIRES_EPOCH {
  *retry = false;
  GplModel* nm = exp->new_model;
  if (key >= nm->coverage_end()) {
    // The temporal buffer will not store this key; it belongs in ART. The
    // old model's clamp slot may still hold it from before the expansion —
    // check for a duplicate there first.
    if (key < model->coverage_end()) {
      const GplSlot& os = model->slot(model->Predict(key));
      for (;;) {
        const uint32_t ow = os.word.Read();
        if (SlotWord::StateOf(ow) != SlotState::kOccupied) break;
        const Key ok_key = os.OptimisticKey();
        if (!os.word.Validate(ow)) continue;
        if (ok_key == key) return false;  // exists in the old model
        break;
      }
    }
    if (!ArtInsert(nm, key, value)) return false;
    size_.fetch_add(1, std::memory_order_relaxed);
    exp->new_inserts.fetch_add(1, std::memory_order_relaxed);
    MaybeFinishExpansion(model, exp);
    EnsureArtKeyVisible(key);
    return true;
  }
  GplSlot& s = model->slot(model->Predict(key));
  const uint32_t w = s.word.Read();
  switch (SlotWord::StateOf(w)) {
    case SlotState::kOccupied: {
      const uint32_t lw = s.word.Lock();
      if (SlotWord::StateOf(lw) != SlotState::kOccupied) {
        s.word.Unlock(lw, SlotWord::StateOf(lw));
        *retry = true;
        return false;
      }
      const Key okey = s.key.load(std::memory_order_relaxed);
      const Value oval = s.value.load(std::memory_order_relaxed);
      if (okey == key) {
        s.word.Unlock(lw, SlotState::kOccupied);
        return false;  // exists in place
      }
      // §III-F step 2: evict the old occupant to the temporal buffer, then
      // place the new key there too.
      MigrateInto(exp->new_model, okey, oval);
      s.word.Unlock(lw, SlotState::kMigrated);
      return InsertIntoNewModel(model, exp, key, value, retry);
    }
    case SlotState::kTombstone: {
      const uint32_t lw = s.word.Lock();
      if (SlotWord::StateOf(lw) != SlotState::kTombstone) {
        s.word.Unlock(lw, SlotWord::StateOf(lw));
        *retry = true;
        return false;
      }
      s.word.Unlock(lw, SlotState::kMigrated);  // nothing to move
      return InsertIntoNewModel(model, exp, key, value, retry);
    }
    case SlotState::kEmpty:
    case SlotState::kMigrated:
      return InsertIntoNewModel(model, exp, key, value, retry);
  }
  *retry = true;
  return false;
}

void AltIndex::MigrateInto(GplModel* new_model, Key key,
                           Value value) ALT_REQUIRES_EPOCH {
  if (key >= new_model->coverage_end()) {
    // Pre-expansion clamp-slot resident beyond the new coverage: its home is
    // now ART (a future tail model takes the range over from there).
    const bool ok = ArtInsert(new_model, key, value);
    assert(ok && "migrated victim unexpectedly present in ART");
    (void)ok;
    return;
  }
  GplSlot& s = new_model->slot(new_model->Predict(key));
  const uint32_t lw = s.word.Lock();
  if (SlotWord::StateOf(lw) == SlotState::kEmpty) {
    s.key.store(key, std::memory_order_relaxed);
    s.value.store(value, std::memory_order_relaxed);
    s.word.Unlock(lw, SlotState::kOccupied);
    return;
  }
  s.word.Unlock(lw, SlotWord::StateOf(lw));
  // Conflict in the temporal buffer too: the victim goes to ART-OPT. Victims
  // are unique keys that lived only in the old model, so this cannot collide.
  const bool ok = ArtInsert(new_model, key, value);
  assert(ok && "migrated victim unexpectedly present in ART");
  (void)ok;
}

bool AltIndex::InsertIntoNewModel(GplModel* old_model, Expansion* exp, Key key,
                                  Value value, bool* retry) ALT_REQUIRES_EPOCH {
  GplModel* nm = exp->new_model;
  assert(key < nm->coverage_end() && "routed by InsertExpanding");
  for (;;) {
    GplSlot& s = nm->slot(nm->Predict(key));
    const uint32_t w = s.word.Read();
    switch (SlotWord::StateOf(w)) {
      case SlotState::kEmpty: {
        // While expanding, the zero-error invariant is suspended: the key may
        // still sit in ART from before the expansion. Check before placing.
        if (!nm->strict_empty()) {
          Value existing = 0;
          if (ArtLookup(nm, key, &existing)) {
            // Re-validate: if the slot changed, the write-back sweep may have
            // just moved a key here; retry to observe the final state.
            if (!s.word.Validate(w)) continue;
            return false;  // exists in ART
          }
          if (!s.word.Validate(w)) continue;
        }
        const uint32_t lw = s.word.Lock();
        if (SlotWord::StateOf(lw) != SlotState::kEmpty) {
          s.word.Unlock(lw, SlotWord::StateOf(lw));
          continue;
        }
        // Same TOCTOU guard as the non-expanding insert: `nm` may have been
        // published and started its own expansion, in which case this key
        // must go through that expansion's routing, not occupy a slot here.
        if (nm->expansion() != nullptr) {
          s.word.Unlock(lw, SlotState::kEmpty);
          *retry = true;
          return false;
        }
        s.key.store(key, std::memory_order_relaxed);
        s.value.store(value, std::memory_order_relaxed);
        s.word.Unlock(lw, SlotState::kOccupied);
        metrics::Inc(Counter::kSlotInserts);
        size_.fetch_add(1, std::memory_order_relaxed);
        exp->new_inserts.fetch_add(1, std::memory_order_relaxed);
        MaybeFinishExpansion(old_model, exp);
        return true;
      }
      case SlotState::kOccupied: {
        const Key k = s.OptimisticKey();
        if (!s.word.Validate(w)) continue;
        if (k == key) return false;  // exists in place
        if (ArtInsert(nm, key, value)) {
          size_.fetch_add(1, std::memory_order_relaxed);
          exp->new_inserts.fetch_add(1, std::memory_order_relaxed);
          MaybeFinishExpansion(old_model, exp);
          EnsureArtKeyVisible(key);
          return true;
        }
        return false;
      }
      case SlotState::kTombstone: {
        if (ArtInsert(nm, key, value)) {
          size_.fetch_add(1, std::memory_order_relaxed);
          exp->new_inserts.fetch_add(1, std::memory_order_relaxed);
          MaybeFinishExpansion(old_model, exp);
          EnsureArtKeyVisible(key);
          return true;
        }
        return false;
      }
      case SlotState::kMigrated:
        // The temporal buffer was published and is itself expanding; this
        // caller is working off a stale snapshot — re-route from the top.
        *retry = true;
        return false;
    }
  }
}

// ---------------------------------------------------------------------------
// Update / Remove
// ---------------------------------------------------------------------------

bool AltIndex::Update(Key key, Value value) {
  EpochGuard g(*epoch_);
  return UpdateInternal(key, value);
}

bool AltIndex::Update(Key key, Value value, ServedBy* served) {
  EpochGuard g(*epoch_);
  return UpdateInternal(key, value, served);
}

bool AltIndex::UpdateInternal(Key key, Value value, ServedBy* served) {
  ALT_ASSERT_EPOCH_PINNED("AltIndex::UpdateInternal", *epoch_);
  for (;;) {
    const ModelDirectory::Snapshot* snap = directory_.snapshot();
    const size_t idx = ModelDirectory::Locate(*snap, key);
    GplModel* model = snap->models[idx].load(std::memory_order_acquire);
    Expansion* exp = model->expansion();

    GplModel* targets[2] = {model, exp != nullptr ? exp->new_model : nullptr};
    const GplSlot* routed_slot = nullptr;
    uint32_t routed_word = 0;
    bool decided = false;

    for (GplModel* t : targets) {
      if (t == nullptr || decided) continue;
      if (key >= t->coverage_end()) {
        // Coverage gap (§III-F): the temporal buffer spans slightly more key
        // space than the old model, so consult it before declaring ART the
        // authoritative home.
        if (t == model && exp != nullptr) continue;
        routed_slot = nullptr;  // no slot: ART is the authoritative home
        decided = true;
        continue;
      }
      GplSlot& s = t->slot(t->Predict(key));
      for (;;) {
        const uint32_t w = s.word.Read();
        const SlotState st = SlotWord::StateOf(w);
        if (st == SlotState::kOccupied) {
          const Key k = s.OptimisticKey();
          if (!s.word.Validate(w)) continue;
          if (k == key) {
            const uint32_t lw = s.word.Lock();
            if (SlotWord::StateOf(lw) != SlotState::kOccupied ||
                s.key.load(std::memory_order_relaxed) != key) {
              s.word.Unlock(lw, SlotWord::StateOf(lw));
              break;  // changed underneath; retry from the top
            }
            s.value.store(value, std::memory_order_relaxed);
            s.word.Unlock(lw, SlotState::kOccupied);
            SetServed(served, ServedBy::kLearnedSlot);
            return true;
          }
          routed_slot = &s;
          routed_word = w;
          decided = true;
          break;
        }
        if (st == SlotState::kTombstone) {
          routed_slot = &s;
          routed_word = w;
          decided = true;
          break;
        }
        if (st == SlotState::kMigrated) break;  // consult next target
        // kEmpty:
        if (t == model && exp != nullptr) break;  // check temporal buffer
        if (t->strict_empty()) {
          SetServed(served, ServedBy::kLearnedNegative);
          return false;  // authoritative absence
        }
        routed_slot = &s;
        routed_word = w;
        decided = true;
        break;
      }
    }

    if (!decided) continue;  // slot changed underneath or all-migrated: retry

    if (art_.Update(key, value)) {
      SetServed(served, ServedBy::kArtRoot);
      return true;
    }
    if (routed_slot != nullptr) {
      if (!routed_slot->word.Validate(routed_word)) continue;
    } else {
      const ModelDirectory::Snapshot* snap2 = directory_.snapshot();
      if (snap2->models[ModelDirectory::Locate(*snap2, key)].load(
              std::memory_order_acquire) != model) {
        continue;  // routing changed (tail appended); retry
      }
    }
    SetServed(served, ServedBy::kArtNegative);
    return false;
  }
}

bool AltIndex::Remove(Key key) {
  EpochGuard g(*epoch_);
  return RemoveInternal(key);
}

bool AltIndex::Remove(Key key, ServedBy* served) {
  EpochGuard g(*epoch_);
  return RemoveInternal(key, served);
}

bool AltIndex::RemoveInternal(Key key, ServedBy* served) {
  ALT_ASSERT_EPOCH_PINNED("AltIndex::RemoveInternal", *epoch_);
  for (;;) {
    const ModelDirectory::Snapshot* snap = directory_.snapshot();
    const size_t idx = ModelDirectory::Locate(*snap, key);
    GplModel* model = snap->models[idx].load(std::memory_order_acquire);
    Expansion* exp = model->expansion();

    GplModel* targets[2] = {model, exp != nullptr ? exp->new_model : nullptr};
    const GplSlot* routed_slot = nullptr;
    uint32_t routed_word = 0;
    bool decided = false;

    for (GplModel* t : targets) {
      if (t == nullptr || decided) continue;
      if (key >= t->coverage_end()) {
        // Coverage gap (§III-F): the temporal buffer spans slightly more key
        // space than the old model, so consult it before declaring ART the
        // authoritative home.
        if (t == model && exp != nullptr) continue;
        routed_slot = nullptr;  // no slot: ART is the authoritative home
        decided = true;
        continue;
      }
      GplSlot& s = t->slot(t->Predict(key));
      for (;;) {
        const uint32_t w = s.word.Read();
        const SlotState st = SlotWord::StateOf(w);
        if (st == SlotState::kOccupied) {
          const Key k = s.OptimisticKey();
          if (!s.word.Validate(w)) continue;
          if (k == key) {
            const uint32_t lw = s.word.Lock();
            if (SlotWord::StateOf(lw) != SlotState::kOccupied ||
                s.key.load(std::memory_order_relaxed) != key) {
              s.word.Unlock(lw, SlotWord::StateOf(lw));
              break;
            }
            // In-place delete leaves a tombstone (§III-G): conflicting keys
            // in ART rely on this slot staying non-empty.
            s.word.Unlock(lw, SlotState::kTombstone);
            size_.fetch_sub(1, std::memory_order_relaxed);
            SetServed(served, ServedBy::kLearnedSlot);
            return true;
          }
          routed_slot = &s;
          routed_word = w;
          decided = true;
          break;
        }
        if (st == SlotState::kTombstone) {
          routed_slot = &s;
          routed_word = w;
          decided = true;
          break;
        }
        if (st == SlotState::kMigrated) break;
        // kEmpty:
        if (t == model && exp != nullptr) break;
        if (t->strict_empty()) {
          SetServed(served, ServedBy::kLearnedNegative);
          return false;  // authoritative absence
        }
        routed_slot = &s;
        routed_word = w;
        decided = true;
        break;
      }
    }

    if (!decided) continue;  // slot changed underneath or all-migrated: retry

    if (art_.Remove(key)) {
      size_.fetch_sub(1, std::memory_order_relaxed);
      SetServed(served, ServedBy::kArtRoot);
      return true;
    }
    if (routed_slot != nullptr) {
      if (!routed_slot->word.Validate(routed_word)) continue;
    } else {
      const ModelDirectory::Snapshot* snap2 = directory_.snapshot();
      if (snap2->models[ModelDirectory::Locate(*snap2, key)].load(
              std::memory_order_acquire) != model) {
        continue;  // routing changed (tail appended); retry
      }
    }
    SetServed(served, ServedBy::kArtNegative);
    return false;
  }
}

// ---------------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------------

size_t AltIndex::Scan(Key start, size_t count,
                      std::vector<std::pair<Key, Value>>* out) const {
  out->clear();
  if (count == 0) return 0;
  EpochGuard g(*epoch_);
  metrics::Inc(Counter::kScanOps);

  std::vector<std::pair<Key, Value>> learned;
  std::vector<std::pair<Key, Value>> art_items;
  for (;;) {
    // Write-back seqlock read side: a concurrent ART→slot write-back could
    // move a key out of ART after its (EMPTY) slot was already collected,
    // hiding it from both layers of this composite read. Redo the collection
    // if a write-back was active at any point during it (see
    // WriteBackSection; point lookups use per-slot word validation instead).
    const uint64_t wb_gen = write_back_gen_.load(std::memory_order_acquire);
    if (write_backs_active_.load(std::memory_order_acquire) != 0) {
      CpuRelax();
      continue;
    }
    learned.clear();
    art_items.clear();
    const ModelDirectory::Snapshot* snap = directory_.snapshot();
    const size_t num_models = snap->first_keys.size();
    for (size_t i = ModelDirectory::Locate(*snap, start);
         i < num_models && learned.size() < count; ++i) {
      GplModel* model = snap->models[i].load(std::memory_order_acquire);
      const size_t before = learned.size();
      model->CollectRange(start, ~Key{0}, &learned, count);
      bool expanded = false;
      // Walk the whole §III-F expansion chain, not just one level: under
      // churn the temporal buffer may itself be expanding (its old slots are
      // marked kMigrated, so they no longer show up as occupied), and a
      // one-level walk would skip every key already migrated to the second
      // level. The chain passes also run uncapped — their `limit` counts
      // pairs appended per call, so a `count` cap would drop migrated keys
      // inside the window whenever a buffer holds more than `count`
      // residents; cost is bounded by the chain's residents, and excess is
      // truncated downstream.
      for (Expansion* e = model->expansion(); e != nullptr;
           e = e->new_model->expansion()) {
        e->new_model->CollectRange(start, ~Key{0}, &learned);
        expanded = true;
      }
      if (expanded) {
        std::sort(learned.begin() + static_cast<ptrdiff_t>(before), learned.end());
        // A key migrated to the temporal buffer between two per-slot-atomic
        // collection passes is observed by both; keep the first copy.
        DedupeSortedTail(&learned, before);
      }
    }
    // Keys in the learned layer are slot-ordered per model and models are
    // disjoint and ascending, so `learned` is sorted.
    const Key hi = learned.size() >= count ? learned[count - 1].first : ~Key{0};

    art_.RangeQuery(start, hi, &art_items);
    if (write_back_gen_.load(std::memory_order_acquire) == wb_gen) break;
  }

  MergePairs(learned, art_items, count, out);
  if (out->empty()) metrics::Inc(Counter::kEmptyScans);
  return out->size();
}

size_t AltIndex::RangeQuery(Key lo, Key hi,
                            std::vector<std::pair<Key, Value>>* out) const {
  out->clear();
  if (hi < lo) return 0;
  EpochGuard g(*epoch_);
  metrics::Inc(Counter::kScanOps);

  std::vector<std::pair<Key, Value>> learned;
  std::vector<std::pair<Key, Value>> art_items;
  for (;;) {
    // See Scan: validate the composite models∪ART read against concurrent
    // ART→slot write-backs.
    const uint64_t wb_gen = write_back_gen_.load(std::memory_order_acquire);
    if (write_backs_active_.load(std::memory_order_acquire) != 0) {
      CpuRelax();
      continue;
    }
    learned.clear();
    art_items.clear();
    const ModelDirectory::Snapshot* snap = directory_.snapshot();
    const size_t num_models = snap->first_keys.size();
    for (size_t i = ModelDirectory::Locate(*snap, lo); i < num_models; ++i) {
      if (snap->first_keys[i] > hi) break;
      GplModel* model = snap->models[i].load(std::memory_order_acquire);
      const size_t before = learned.size();
      model->CollectRange(lo, hi, &learned);
      bool expanded = false;
      // See Scan: follow the whole expansion chain or keys migrated past the
      // first temporal buffer are silently dropped.
      for (Expansion* e = model->expansion(); e != nullptr;
           e = e->new_model->expansion()) {
        e->new_model->CollectRange(lo, hi, &learned);
        expanded = true;
      }
      if (expanded) {
        std::sort(learned.begin() + static_cast<ptrdiff_t>(before), learned.end());
        // See Scan: drop the second copy of keys caught mid-migration.
        DedupeSortedTail(&learned, before);
      }
    }

    art_.RangeQuery(lo, hi, &art_items);
    if (write_back_gen_.load(std::memory_order_acquire) == wb_gen) break;
  }

  MergePairs(learned, art_items, ~size_t{0}, out);
  return out->size();
}

// ---------------------------------------------------------------------------
// Dynamic retraining (§III-F)
// ---------------------------------------------------------------------------

void AltIndex::EnsureArtKeyVisible(Key key) {
  const ModelDirectory::Snapshot* snap = directory_.snapshot();
  GplModel* model = snap->models[ModelDirectory::Locate(*snap, key)].load(
      std::memory_order_acquire);
  GplModel* t = model;
  Expansion* exp = t->expansion();
  GplSlot* s = nullptr;
  uint32_t w = 0;
  SlotState st = SlotState::kEmpty;
  if (key >= t->coverage_end()) {
    // Out of the old model's coverage. With no expansion ART is authoritative
    // (visible); with one, the temporal buffer's slightly wider coverage may
    // make a slot the key's home (§III-F coverage gap).
    if (exp == nullptr) return;
    t = exp->new_model;
    if (key >= t->coverage_end()) return;
    s = &t->slot(t->Predict(key));
    w = s->word.Read();
    st = SlotWord::StateOf(w);
  } else {
    s = &t->slot(t->Predict(key));
    w = s->word.Read();
    st = SlotWord::StateOf(w);
    if (exp != nullptr && (st == SlotState::kMigrated || st == SlotState::kEmpty)) {
      t = exp->new_model;
      if (key >= t->coverage_end()) return;
      s = &t->slot(t->Predict(key));
      w = s->word.Read();
      st = SlotWord::StateOf(w);
    }
  }
  // Only an EMPTY slot can ever make the key unreachable. Attempt the
  // write-back even while the model's invariant is suspended: the sweep that
  // will re-arm strict_empty may already have passed this key's position in
  // ART, so the inserter itself must make the key slot-visible.
  if (st != SlotState::kEmpty) return;
  WriteBackSection wb(this);
  const uint32_t lw = s->word.Lock();
  // TOCTOU guard (see InsertInternal): if an expansion appeared on `t` since
  // it was chosen, leave the key in ART — the suspended invariant keeps it
  // reachable, and the finish sweep owns the write-back from here.
  if (SlotWord::StateOf(lw) == SlotState::kEmpty && t->expansion() == nullptr) {
    Value moved = 0;
    if (art_.Remove(key, &moved)) {
      s->key.store(key, std::memory_order_relaxed);
      s->value.store(moved, std::memory_order_relaxed);
      s->word.Unlock(lw, SlotState::kOccupied);
      metrics::Inc(Counter::kWriteBacks);
      return;
    }
  }
  s->word.Unlock(lw, SlotWord::StateOf(lw));
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
  metrics::RecordEvent(metrics::EventType::kRetrainStart, 0, model->first_key());
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
    // Step 1: sweep the remaining old slots into the temporal buffer.
    trace::Span sweep_span("retrain_sweep", "retrain", model->num_slots());
    for (uint32_t i = 0; i < model->num_slots(); ++i) {
      GplSlot& s = model->slot(i);
      const uint32_t lw = s.word.Lock();
      if (SlotWord::StateOf(lw) == SlotState::kOccupied) {
        const Key k = s.key.load(std::memory_order_relaxed);
        const Value v = s.value.load(std::memory_order_relaxed);
        MigrateInto(nm, k, v);
      }
      s.word.Unlock(lw, SlotState::kMigrated);
    }
  }

  {
    // Step 2: restore the zero-error invariant — ART keys of this model whose
    // new predicted slot is empty are written back (§III-F).
    trace::Span wb_span("retrain_write_back", "retrain");
    WriteBackSection wb(this);
    const ModelDirectory::Snapshot* snap = directory_.snapshot();
    const size_t idx = ModelDirectory::Locate(*snap, model->first_key());
    const Key lo = model->first_key();
    const Key hi = (idx + 1 < snap->first_keys.size()) ? snap->first_keys[idx + 1] - 1
                                                       : ~Key{0};
    std::vector<std::pair<Key, Value>> art_keys;
    art_.RangeQuery(lo, hi, &art_keys);
    wb_span.set_detail(art_keys.size());
    for (const auto& [k, unused_v] : art_keys) {
      if (k >= nm->coverage_end()) continue;  // stays in ART (tail range)
      GplSlot& s = nm->slot(nm->Predict(k));
      const uint32_t lw = s.word.Lock();
      if (SlotWord::StateOf(lw) == SlotState::kEmpty) {
        Value moved = 0;
        if (art_.Remove(k, &moved)) {
          s.key.store(k, std::memory_order_relaxed);
          s.value.store(moved, std::memory_order_relaxed);
          s.word.Unlock(lw, SlotState::kOccupied);
          metrics::Inc(Counter::kWriteBacks);
          continue;
        }
      }
      s.word.Unlock(lw, SlotWord::StateOf(lw));
    }
  }

  // The invariant now holds for the temporal buffer: every ART key of this
  // range either has an occupied predicted slot or was just written back.
  nm->set_strict_empty(true);

  // Step 3: publish the temporal buffer as the model (§III-F step 3);
  // ownership moves to the directory (see Expansion dtor).
  GplModel* published = exp->new_model;
  const bool ok = directory_.PublishReplacement(model, published);
  assert(ok && "only the finishing thread publishes a replacement");
  (void)ok;
  exp->done.store(true, std::memory_order_release);
  retrain_finished_.fetch_add(1, std::memory_order_relaxed);
  metrics::Inc(Counter::kRetrainFinished);
  metrics::RecordEvent(metrics::EventType::kRetrainFinish,
                       NowNanos() - exp->start_ns, published->first_key());

  AppendTailModelIfLast(published);
}

void AltIndex::AppendTailModelIfLast(const GplModel* published) {
  const ModelDirectory::Snapshot* snap = directory_.snapshot();
  const size_t n = snap->first_keys.size();
  if (n == 0 || snap->models[n - 1].load(std::memory_order_acquire) != published) {
    return;
  }
  trace::Span span("tail_append", "retrain");
  // §III-F: "if the retraining GPL model is the last one, we create a new GPL
  // model behind it" — first key just beyond the published model's coverage.
  const Key tail_first = published->coverage_end();
  if (tail_first == ~Key{0}) return;  // infinite coverage: nothing to take over
  if (tail_first <= snap->first_keys[n - 1]) return;
  auto* tail = new GplModel(tail_first, published->slope(), options_.tail_model_slots,
                            options_.tail_model_slots / 2);
  if (options_.enable_fast_pointers) {
    const int32_t slot = fp_buffer_.AddPointer(art_.root(), 0, 0);
    tail->set_fp_index(slot);
  }
  // The tail steals [tail_first, +inf) from the published model; ART keys in
  // that range would otherwise look "absent" behind the tail's EMPTY slots.
  // Publish with the invariant suspended, write those ART keys back, then
  // re-arm it.
  tail->set_strict_empty(false);
  if (!directory_.AppendTail(tail)) {
    // A concurrent finishing thread appended a covering tail first.
    delete tail;
    return;
  }
  metrics::Inc(Counter::kTailModelsAppended);
  metrics::RecordEvent(metrics::EventType::kTailModelAppend, 0, tail_first);
  metrics::SetGauge(metrics::Gauge::kNumModels,
                    static_cast<int64_t>(directory_.NumModels()));
  std::vector<std::pair<Key, Value>> strays;
  art_.RangeQuery(tail_first, ~Key{0}, &strays);
  WriteBackSection wb(this);
  for (const auto& [k, unused_v] : strays) {
    GplSlot& s = tail->slot(tail->Predict(k));
    const uint32_t lw = s.word.Lock();
    // TOCTOU guard (see InsertInternal): the tail is already published, so
    // an insert storm could have started expanding it; its sweep owns the
    // remaining write-backs then.
    if (tail->expansion() != nullptr) {
      s.word.Unlock(lw, SlotWord::StateOf(lw));
      break;
    }
    if (SlotWord::StateOf(lw) == SlotState::kEmpty) {
      Value moved = 0;
      if (art_.Remove(k, &moved)) {
        s.key.store(k, std::memory_order_relaxed);
        s.value.store(moved, std::memory_order_relaxed);
        s.word.Unlock(lw, SlotState::kOccupied);
        metrics::Inc(Counter::kWriteBacks);
        continue;
      }
    }
    s.word.Unlock(lw, SlotWord::StateOf(lw));
  }
  tail->set_strict_empty(true);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

AltIndex::Stats AltIndex::CollectStats() const {
  Stats st;
  EpochGuard g(*epoch_);
  const ModelDirectory::Snapshot* snap = directory_.snapshot();
  if (snap != nullptr) {
    st.num_models = snap->first_keys.size();
    for (const auto& m : snap->models) {
      const GplModel* model = m.load(std::memory_order_acquire);
      st.learned_layer_keys += model->CountOccupied();
      const Expansion* exp = model->expansion();
      if (exp != nullptr) st.learned_layer_keys += exp->new_model->CountOccupied();
    }
  }
  st.art_keys = art_.Size();
  st.fast_pointers = fp_buffer_.Size();
  st.fast_pointer_adds = fp_buffer_.UnmergedCount();
  st.retrain_started = retrain_started_.load(std::memory_order_relaxed);
  st.retrain_finished = retrain_finished_.load(std::memory_order_relaxed);
  st.memory_bytes = MemoryUsage();
  st.error_bound = epsilon_;
  return st;
}

size_t AltIndex::MemoryUsage() const {
  return sizeof(AltIndex) + directory_.MemoryBytes() + fp_buffer_.MemoryBytes() +
         art_.MemoryUsage();
}

}  // namespace alt
