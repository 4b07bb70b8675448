// Structural introspection (DESIGN.md §9.3): CollectStructuralStats walks the
// model directory and ART-OPT and reports what the index *looks like* — the
// memory decomposition behind Fig. 8a, per-model segment/occupancy
// distributions, the conflict ratio, the ART node census, and the fast pointer
// and retraining counters.
//
// Quiescent-only, like MemoryUsage: the walkers read per-slot words and node
// headers without retry loops, so run them while no writer is active. The
// component byte fields reuse the exact expressions MemoryUsage() sums, so
// `total_bytes == MemoryUsage()` at a quiescent point by construction (the
// --dump_structure acceptance check).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/aligned_mem.h"
#include "common/epoch.h"
#include "common/json.h"
#include "core/alt_index.h"

namespace alt {

namespace {

/// log2-style bucket for a segment length: bucket b holds build_size in
/// [2^b, 2^(b+1)); the last bucket is open-ended.
size_t SegmentBucket(uint32_t build_size) {
  size_t b = 0;
  while (build_size > 1 && b < 16) {
    build_size >>= 1;
    ++b;
  }
  return b;
}

void AppendSizeArray(const char* name, const size_t* v, size_t n, bool last,
                     std::string* out) {
  *out += "    \"";
  *out += name;
  *out += "\": [";
  for (size_t i = 0; i < n; ++i) {
    if (i != 0) *out += ", ";
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%zu", v[i]);
    *out += buf;
  }
  *out += last ? "]\n" : "],\n";
}

void AppendKv(const char* name, uint64_t v, bool last, std::string* out) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "    \"%s\": %llu%s\n", name,
                static_cast<unsigned long long>(v), last ? "" : ",");
  *out += buf;
}

}  // namespace

AltIndex::StructuralStats AltIndex::CollectStructuralStats() const {
  StructuralStats st;
  EpochGuard g(*epoch_);

  st.header_bytes = sizeof(AltIndex);
  if (slab_ != nullptr) st.slab_bytes = slab_->capacity();
  st.fast_pointer_bytes = fp_buffer_.MemoryBytes();

  const ModelDirectory::Snapshot* snap = directory_.snapshot();
  if (snap != nullptr) {
    // Snapshot overhead, exactly as ModelDirectory::MemoryBytes counts it
    // (the per-model bytes are split out below).
    st.directory_bytes =
        sizeof(ModelDirectory::Snapshot) +
        snap->first_keys.size() * (sizeof(Key) + sizeof(std::atomic<GplModel*>)) +
        snap->radix.size() * sizeof(uint32_t);

    st.num_models = snap->first_keys.size();
    st.radix_bits = snap->radix_bits;
    st.radix_shift = snap->radix_shift;
    size_t window_sum = 0;
    for (const Key first : snap->first_keys) {
      const ModelDirectory::Window w = ModelDirectory::LocateWindow(*snap, first);
      window_sum += w.hi - w.lo;
      st.locate_window_max = std::max(st.locate_window_max, w.hi - w.lo);
    }
    st.locate_window_mean =
        st.num_models == 0 ? 0.0
                           : static_cast<double>(window_sum) / static_cast<double>(st.num_models);
    st.min_segment = ~uint32_t{0};
    for (const auto& m : snap->models) {
      const GplModel* model = m.load(std::memory_order_acquire);
      st.model_bytes += model->MemoryBytes();
      st.total_slots += model->num_slots();
      size_t counts[4] = {0, 0, 0, 0};
      model->CountSlotStates(counts);
      for (int s = 0; s < 4; ++s) st.slot_states[s] += counts[s];
      if (!model->strict_empty()) st.tail_models++;
      if (model->slab() != nullptr) st.slab_models++;

      const uint32_t seg = model->build_size();
      st.min_segment = std::min(st.min_segment, seg);
      st.max_segment = std::max(st.max_segment, seg);
      st.segment_len_hist[SegmentBucket(seg)]++;

      const size_t occupied = counts[static_cast<int>(SlotState::kOccupied)];
      size_t decile = (occupied * 10) / model->num_slots();
      if (decile > 9) decile = 9;
      st.occupancy_hist[decile]++;

      const Expansion* exp = model->expansion();
      if (exp != nullptr && exp->new_model != nullptr) {
        st.expanding_models++;
        st.expansion_bytes += exp->new_model->MemoryBytes();
        st.total_slots += exp->new_model->num_slots();
        exp->new_model->CountSlotStates(st.slot_states);
      }
    }
    if (st.min_segment == ~uint32_t{0}) st.min_segment = 0;
  }

  st.art = art_.CollectCensus();
  st.art_bytes = st.art.total_bytes;
  st.art_keys = art_.Size();
  st.fast_pointers = fp_buffer_.Size();
  st.fast_pointer_adds = fp_buffer_.UnmergedCount();
  st.retrain_started = retrain_started_.load(std::memory_order_relaxed);
  st.retrain_finished = retrain_finished_.load(std::memory_order_relaxed);

  st.total_bytes = st.header_bytes + st.directory_bytes + st.model_bytes +
                   st.expansion_bytes + st.fast_pointer_bytes + st.art_bytes;

  const size_t resident = st.art_keys + st.learned_layer_keys();
  st.conflict_ratio =
      resident == 0 ? 0.0
                    : static_cast<double>(st.art_keys) / static_cast<double>(resident);
  return st;
}

Status AltIndex::CheckPlacementInvariant() const {
  EpochGuard g(*epoch_);
  const ModelDirectory::Snapshot* snap = directory_.snapshot();
  const auto where = [](Key k) { return "key " + std::to_string(k); };
  // Every lane key, from every model and every level of its §III-F chain.
  std::vector<Key> lane_keys;
  for (const auto& slot : snap->models) {
    for (const GplModel* m = slot.load(std::memory_order_acquire); m != nullptr;) {
      for (uint32_t l = 0; l < m->num_lines(); ++l) {
        for (uint32_t lane = 0; lane < m->LanesIn(l); ++lane) {
          const SlotRef s = m->line(l).Lane(lane);
          const uint32_t w = s.word.Read();
          if (SlotWord::StateOf(w) != SlotState::kOccupied) continue;
          const Key k = s.OptimisticKey();
          if (!s.word.Validate(w)) return Status::Internal("index not quiescent");
          if (m->LineOf(k) != l || k >= m->coverage_end()) {
            return Status::Internal(where(k) + " sits in line " + std::to_string(l) +
                                    ", not in its predicted line");
          }
          lane_keys.push_back(k);
        }
      }
      const Expansion* e = m->expansion();
      m = e != nullptr ? e->new_model : nullptr;
    }
  }
  std::sort(lane_keys.begin(), lane_keys.end());
  const auto twice = std::adjacent_find(lane_keys.begin(), lane_keys.end());
  if (twice != lane_keys.end()) {
    return Status::Internal(where(*twice) + " sits in two lanes");
  }

  std::vector<std::pair<Key, Value>> art_keys;
  art_.RangeQuery(0, ~Key{0}, &art_keys);
  for (const auto& [k, unused_v] : art_keys) {
    if (std::binary_search(lane_keys.begin(), lane_keys.end(), k)) {
      return Status::Internal(where(k) + " sits in a lane and in ART-OPT");
    }
    // The absence proof: an ART key of a strict model has a full line.
    const GplModel* m =
        snap->models[ModelDirectory::Locate(*snap, k)].load(std::memory_order_acquire);
    if (!m->strict_empty() || m->expansion() != nullptr || k >= m->coverage_end()) {
      continue;
    }
    const uint32_t l = m->LineOf(k);
    for (uint32_t lane = 0; lane < m->LanesIn(l); ++lane) {
      if (SlotWord::StateOf(m->line(l).word[lane].Read()) == SlotState::kEmpty) {
        return Status::Internal(where(k) + " sits in ART-OPT beside an EMPTY lane of " +
                                "line " + std::to_string(l));
      }
    }
  }
  return Status::OK();
}

ConcurrentIndex::MemoryBreakdown AltIndex::CollectMemoryBreakdown() const {
  const StructuralStats st = CollectStructuralStats();
  MemoryBreakdown b;
  b.model_bytes = st.model_bytes;
  b.delta_bytes = st.art_bytes + st.expansion_bytes;
  b.auxiliary_bytes = st.fast_pointer_bytes + st.directory_bytes + st.header_bytes;
  return b;
}

std::string AltIndex::StructureJson() const {
  const StructuralStats st = CollectStructuralStats();
  std::string out = "{\n";

  out += "  \"memory\": {\n";
  AppendKv("header_bytes", st.header_bytes, false, &out);
  AppendKv("directory_bytes", st.directory_bytes, false, &out);
  AppendKv("model_bytes", st.model_bytes, false, &out);
  AppendKv("expansion_bytes", st.expansion_bytes, false, &out);
  AppendKv("fast_pointer_bytes", st.fast_pointer_bytes, false, &out);
  AppendKv("art_bytes", st.art_bytes, false, &out);
  AppendKv("total_bytes", st.total_bytes, true, &out);
  out += "  },\n";

  out += "  \"upper_model\": {\n";
  AppendKv("radix_bits", static_cast<uint64_t>(st.radix_bits), false, &out);
  AppendKv("radix_shift", static_cast<uint64_t>(st.radix_shift), false, &out);
  AppendKv("locate_window_max", st.locate_window_max, false, &out);
  char mean[64];
  std::snprintf(mean, sizeof(mean), "    \"locate_window_mean\": %.3f\n", st.locate_window_mean);
  out += mean;
  out += "  },\n";

  out += "  \"learned_layer\": {\n";
  AppendKv("num_models", st.num_models, false, &out);
  AppendKv("expanding_models", st.expanding_models, false, &out);
  AppendKv("tail_models", st.tail_models, false, &out);
  AppendKv("slab_models", st.slab_models, false, &out);
  AppendKv("slab_bytes", st.slab_bytes, false, &out);
  AppendKv("total_slots", st.total_slots, false, &out);
  AppendKv("slots_empty", st.slot_states[0], false, &out);
  AppendKv("slots_occupied", st.slot_states[1], false, &out);
  AppendKv("slots_tombstone", st.slot_states[2], false, &out);
  AppendKv("slots_migrated", st.slot_states[3], false, &out);
  AppendKv("min_segment", st.min_segment, false, &out);
  AppendKv("max_segment", st.max_segment, false, &out);
  AppendSizeArray("segment_len_hist_log2", st.segment_len_hist, 17, false, &out);
  AppendSizeArray("occupancy_deciles", st.occupancy_hist, 10, true, &out);
  out += "  },\n";

  char buf[96];
  std::snprintf(buf, sizeof(buf), "  \"art_keys\": %llu,\n  \"conflict_ratio\": %.6f,\n",
                static_cast<unsigned long long>(st.art_keys), st.conflict_ratio);
  out += buf;

  out += "  \"art\": {\n";
  AppendKv("node4", st.art.nodes[0], false, &out);
  AppendKv("node16", st.art.nodes[1], false, &out);
  AppendKv("node48", st.art.nodes[2], false, &out);
  AppendKv("node256", st.art.nodes[3], false, &out);
  AppendKv("node4_bytes", st.art.node_bytes[0], false, &out);
  AppendKv("node16_bytes", st.art.node_bytes[1], false, &out);
  AppendKv("node48_bytes", st.art.node_bytes[2], false, &out);
  AppendKv("node256_bytes", st.art.node_bytes[3], false, &out);
  AppendKv("leaves", st.art.leaves, false, &out);
  AppendKv("leaf_bytes", st.art.leaf_bytes, false, &out);
  AppendKv("height", st.art.height, false, &out);
  AppendKv("compressed_nodes", st.art.compressed_nodes, false, &out);
  AppendKv("prefix_bytes_saved", st.art.prefix_bytes, false, &out);
  AppendKv("total_bytes", st.art.total_bytes, false, &out);
  AppendSizeArray("leaf_depth_hist", st.art.depth_hist, kKeyBytes + 1, true, &out);
  out += "  }\n}\n";
  return out;
}

}  // namespace alt
