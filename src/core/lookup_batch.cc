// Batched point-lookup path (AMAC-style group prefetching).
//
// LookupBatch keeps up to `batch_group_width` lookups in flight as explicit
// state machines (BatchCursor). Each pipeline stage performs the small amount
// of compute that depends on an already-prefetched line, issues the prefetch
// for the *next* dependent line, and yields to the other cursors in the group,
// so the group's cache misses overlap instead of serializing.
//
// Stages: kLocate (directory search; lines prefetched at issue) →
// kModel (model header → line prediction, slot line prefetched) → kProbe
// (optimistic read of the line's lanes) → kFpEntry (fast-pointer entry, hint
// node lines prefetched) → kArtInit / kArtStep (resumable OLC descent, one
// tree level per step; see ArtTree::DescentStep).
//
// Anything off the common read path — a §III-F expansion visible on the routed
// model, a MIGRATED line, a failed post-miss revalidation, or an OLC restart
// storm — falls back to the scalar LookupInternal, which handles every race
// with its own retry loop. The fallback runs under the same epoch guard and
// does its own per-path metrics accounting; the batch layer only adds
// kBatchScalarFallbacks so the fallback rate stays observable.
//
// Metrics are accumulated into a per-call BatchStatsDelta and flushed with one
// RMW per non-zero counter when the batch completes, instead of per key.

#include <algorithm>
#include <cstring>

#include "common/epoch.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/alt_index.h"

namespace alt {

namespace {
using metrics::Counter;

/// OLC restarts tolerated per cursor before giving up on the pipelined
/// descent (the scalar fallback has an unbounded retry loop of its own).
constexpr int kMaxDescentRestarts = 16;
}  // namespace

struct AltIndex::BatchCursor {
  enum class Stage : uint8_t {
    kLocate,   ///< resolve directory → model (directory lines prefetched)
    kModel,    ///< read model header, predict + prefetch the line
    kProbe,    ///< optimistic read of the line's lanes
    kFpEntry,  ///< read the fast-pointer entry (prefetched), validate coverage
    kArtInit,  ///< begin the OLC descent at hint or root
    kArtStep,  ///< advance the descent one node per touch
  };

  Stage stage = Stage::kLocate;
  Key key = 0;
  uint32_t index = 0;  ///< position in the caller's out/found arrays

  ArtRoute route;  ///< routed model; line + lane words revalidate an ART miss

  int32_t fpi = -1;
  FastPointerBuffer::Ref hint{};
  bool hint_descent = false;  ///< current descent starts at the hint node
  art::ArtTree::DescentState ds;
  int art_steps = 0;
  int restarts = 0;
};

struct AltIndex::BatchStatsDelta {
  uint64_t learned_hits = 0;
  uint64_t learned_negatives = 0;
  uint64_t art_lookups = 0;
  uint64_t art_steps = 0;
  uint64_t fp_hits = 0;
  uint64_t fp_depth[metrics::kFpDepthBuckets] = {};
  uint64_t root_fallbacks = 0;
  uint64_t scalar_fallbacks = 0;

  void Flush(size_t batch_size) const {
    metrics::Inc(Counter::kBatchLookups, batch_size);
    if (learned_hits != 0) metrics::Inc(Counter::kLearnedHits, learned_hits);
    if (learned_negatives != 0) {
      metrics::Inc(Counter::kLearnedNegatives, learned_negatives);
    }
    if (art_lookups != 0) metrics::Inc(Counter::kArtLookups, art_lookups);
    if (art_steps != 0) metrics::Inc(Counter::kArtLookupSteps, art_steps);
    if (fp_hits != 0) metrics::Inc(Counter::kFastPointerHits, fp_hits);
    for (size_t d = 0; d < metrics::kFpDepthBuckets; ++d) {
      if (fp_depth[d] != 0) metrics::FpDepthHit(static_cast<int>(d), fp_depth[d]);
    }
    if (root_fallbacks != 0) {
      metrics::Inc(Counter::kArtRootFallbacks, root_fallbacks);
    }
    if (scalar_fallbacks != 0) {
      metrics::Inc(Counter::kBatchScalarFallbacks, scalar_fallbacks);
    }
  }
};

bool AltIndex::BatchStep(BatchCursor& c, Value* out, bool* found,
                         BatchStatsDelta* st) const ALT_REQUIRES_EPOCH {
  using Stage = BatchCursor::Stage;

  // Terminal helpers; each writes the caller-visible result and retires the
  // cursor. The scalar fallback delegates wholesale to LookupInternal, which
  // performs its own (per-key) metrics accounting.
  const auto finish = [&](bool hit) {
    found[c.index] = hit;
    return true;
  };
  const auto fallback = [&]() {
    ++st->scalar_fallbacks;
    found[c.index] = LookupInternal(c.key, &out[c.index]);
    return true;
  };
  // Route the cursor into ART-OPT: through the fast-pointer hint when the
  // entry covers the key (entry line was not prefetched — accept one miss;
  // the hint node's lines are what matter and kFpEntry prefetches them).
  const auto route_to_art = [&]() {
    c.fpi = options_.enable_fast_pointers ? c.route.model->fp_index() : -1;
    if (c.fpi >= 0) {
      fp_buffer_.PrefetchEntry(c.fpi);
      c.stage = Stage::kFpEntry;
    } else {
      c.stage = Stage::kArtInit;
    }
    return false;
  };

  switch (c.stage) {
    case Stage::kLocate: {
      // Locate searches the radix window that issue()'s PrefetchLocate
      // pulled (DESIGN.md §2.3).
      c.route.model = RoutedModel(c.key);
      if (c.route.model->expansion() != nullptr) {
        // §III-F in flight on this model: the scalar path owns the
        // temporal-buffer dance (double probes, re-routing on kMigrated).
        return fallback();
      }
      // One line covers the whole hot header (alignas(64) hot/cold split).
      PrefetchReadRange(c.route.model, kCacheLineBytes);
      c.stage = Stage::kModel;
      return false;
    }

    case Stage::kModel: {
      if (c.key >= c.route.model->coverage_end()) {
        // Out-of-coverage keys never live in slots; ART is authoritative
        // (mirrors ProbeSlot's kGoArt route with no line).
        return route_to_art();
      }
      c.route.model->PrefetchLine(c.route.model->LineOf(c.key));
      c.stage = Stage::kProbe;
      return false;
    }

    case Stage::kProbe: {
      Value v = 0;
      switch (ProbeSlot(c.route.model, c.key, &v, &c.route)) {
        case Probe::kHit:
          out[c.index] = v;
          ++st->learned_hits;
          return finish(true);
        case Probe::kEmpty:
          if (c.route.model->strict_empty()) {
            // Zero-error invariant: an EMPTY lane proves absence.
            ++st->learned_negatives;
            return finish(false);
          }
          // Fresh tail model with the invariant suspended: the key may still
          // be ART-resident.
          return route_to_art();
        case Probe::kMigrated:
          // An expansion raced in after kLocate; let the scalar path re-route.
          return fallback();
        case Probe::kGoArt:
          // Secondary search. The scalar path's tombstone write-back is an
          // opportunistic repair, not needed for result correctness — the
          // batch path skips it rather than taking a slot lock mid-pipeline.
          return route_to_art();
      }
      return fallback();  // unreachable
    }

    case Stage::kFpEntry: {
      c.hint = fp_buffer_.Get(c.fpi);
      if (c.hint.node != nullptr && FastPointerBuffer::Covers(c.hint, c.key)) {
        PrefetchReadRange(c.hint.node, 2 * kCacheLineBytes);
        c.hint_descent = true;
      } else {
        c.hint.node = nullptr;
      }
      c.stage = Stage::kArtInit;
      return false;
    }

    case Stage::kArtInit: {
      art::Node* start = c.hint_descent ? c.hint.node : art_.root();
      if (!art_.DescentInit(start, &c.ds)) {
        // Hint went obsolete between Get and init (the root never does).
        c.hint_descent = false;
        if (!art_.DescentInit(art_.root(), &c.ds)) return fallback();
      }
      c.stage = Stage::kArtStep;
      return false;
    }

    case Stage::kArtStep: {
      Value v = 0;
      switch (art_.DescentStep(&c.ds, c.key, &v, &c.art_steps)) {
        case art::StepResult::kStepped:
          return false;  // next node's lines are in flight
        case art::StepResult::kFound:
          out[c.index] = v;
          ++st->art_lookups;
          st->art_steps += static_cast<uint64_t>(c.art_steps);
          if (c.hint_descent) {
            ++st->fp_hits;
            const int d = std::min<int>(c.hint.depth,
                                        static_cast<int>(metrics::kFpDepthBuckets) - 1);
            ++st->fp_depth[d < 0 ? 0 : d];
          }
          return finish(true);
        case art::StepResult::kNotFound:
          if (c.hint_descent) {
            // A miss under the hint is not authoritative during SMOs —
            // same rule as ArtLookup: fall back to a root descent.
            ++st->root_fallbacks;
            c.hint_descent = false;
            c.stage = Stage::kArtInit;
            return false;
          }
          ++st->art_lookups;
          st->art_steps += static_cast<uint64_t>(c.art_steps);
          // Authoritative ART miss unless the key moved while we searched.
          return RouteHolds(c.route, c.key) ? finish(false) : fallback();
        case art::StepResult::kRestart:
          if (++c.restarts > kMaxDescentRestarts) return fallback();
          c.stage = Stage::kArtInit;
          return false;
      }
      return fallback();  // unreachable
    }
  }
  return fallback();  // unreachable
}

size_t AltIndex::LookupBatch(const Key* keys, size_t n, Value* out,
                             bool* found) const {
  if (n == 0) return 0;
  EpochGuard g(*epoch_);
  trace::Span span("lookup_batch", "read", n);

  const uint32_t width = std::max(
      1u, std::min(options_.batch_group_width, AltOptions::kMaxBatchGroupWidth));

  BatchStatsDelta st;
  BatchCursor cursors[AltOptions::kMaxBatchGroupWidth];
  bool active[AltOptions::kMaxBatchGroupWidth] = {};
  size_t next = 0;  ///< next key index to issue
  size_t live = 0;  ///< cursors currently in flight

  const auto issue = [&](size_t lane) {
    BatchCursor& c = cursors[lane];
    c = BatchCursor{};
    c.key = keys[next];
    c.index = static_cast<uint32_t>(next);
    active[lane] = true;
    ++next;
    ++live;
    // Prefetch the directory lines the kLocate stage will touch.
    ModelDirectory::PrefetchLocate(*directory_.snapshot(), c.key);
  };

  const size_t group = std::min<size_t>(width, n);
  for (size_t i = 0; i < group; ++i) issue(i);

  // Round-robin over the in-flight group; a retired cursor is immediately
  // refilled with the next pending key so the pipeline stays full.
  while (live > 0) {
    for (size_t i = 0; i < group; ++i) {
      if (!active[i]) continue;
      if (BatchStep(cursors[i], out, found, &st)) {
        --live;
        active[i] = false;
        if (next < n) issue(i);
      }
    }
  }

  st.Flush(n);

  size_t hits = 0;
  for (size_t i = 0; i < n; ++i) {
    if (found[i]) ++hits;
  }
  return hits;
}

}  // namespace alt
