#include "core/gpl_model.h"

#include <cstddef>
#include <cstdlib>
#include <new>
#include <type_traits>

#include "common/aligned_mem.h"
#include "common/cpu_features.h"
#include "common/simd.h"

namespace alt {

// Packing contract of the vector scan + single-line prefetch (DESIGN.md §10):
// the state word leads each slot, slots are exactly half a cache line, and a
// 64-byte-aligned array therefore never lets a slot straddle a line.
static_assert(offsetof(GplSlot, word) == 0,
              "slot word must lead the slot (vector scan gathers at offset 0)");
static_assert(sizeof(GplSlot) == 32 && alignof(GplSlot) == 32,
              "GplSlot must stay exactly half a cache line");
static_assert(alignof(GplModel) == 64,
              "hot header must start on a cache-line boundary");
// The dtor releases the slot array without running per-slot destructors.
static_assert(std::is_trivially_destructible_v<GplSlot>,
              "slot arrays are released without slot destructors");
// A slab slice is used as a slot array without a constructor pass: GplSlot is
// an implicit-lifetime aggregate whose all-zero bytes are its initial state.
static_assert(std::is_aggregate_v<GplSlot>,
              "slab slices rely on implicit slot lifetimes");

GplModel::GplModel(Key first_key, double slope, uint32_t num_slots, uint32_t build_size,
                   Key coverage_end, SlotSlab* slab)
    : first_key_(first_key),
      slope_(slope),
      coverage_end_(coverage_end),
      num_slots_(num_slots == 0 ? 1 : num_slots),
      build_size_(build_size),
      slab_(slab) {
  const size_t bytes = sizeof(GplSlot) * static_cast<size_t>(num_slots_);
  if (slab_ != nullptr) {
    // No constructor pass: it would fault the slice in on this thread, while
    // BulkLoad leaves that to the thread that fills the slots.
    slots_ = static_cast<GplSlot*>(slab_->Carve(bytes));
    if (slots_ == nullptr) throw std::bad_alloc();
    return;
  }
  void* mem = AllocateHotArray(bytes);
  if (mem == nullptr) throw std::bad_alloc();
  slots_ = static_cast<GplSlot*>(mem);
  // The region is already zero-filled; the placement news formally start the
  // slot lifetimes (all member initializers are zero, so this compiles to the
  // same stores the zero-fill already made).
  for (uint32_t i = 0; i < num_slots_; ++i) new (&slots_[i]) GplSlot();
}

Expansion::~Expansion() {
  if (!done.load(std::memory_order_acquire)) delete new_model;
}

GplModel::~GplModel() {
  Expansion* e = expansion_.load(std::memory_order_acquire);
  delete e;
  if (slab_ != nullptr) {
    slab_->ReleaseSlice(slots_, sizeof(GplSlot) * static_cast<size_t>(num_slots_));
  } else {
    std::free(slots_);
  }
}

void GplModel::CountSlotStates(size_t counts[4]) const ALT_REQUIRES_EPOCH {
  uint32_t i = 0;
  if (cpu::SimdEnabled()) {
    for (; i + 8 <= num_slots_; i += 8) {
      const simd::SlotScan8 scan = simd::ScanSlotWords8(&slots_[i], sizeof(GplSlot));
      for (int st = 0; st < 4; ++st) {
        counts[st] += static_cast<size_t>(__builtin_popcount(scan.state_mask[st]));
      }
      uint8_t busy = scan.busy_mask;
      while (busy != 0) {
        const int lane = __builtin_ctz(busy);
        busy = static_cast<uint8_t>(busy & (busy - 1));
        const uint32_t state = static_cast<uint32_t>(
            SlotWord::StateOf(slots_[i + static_cast<uint32_t>(lane)].word.Read()));
        counts[state & 3]++;
      }
    }
  }
  for (; i < num_slots_; ++i) {
    const uint32_t state = static_cast<uint32_t>(SlotWord::StateOf(slots_[i].word.Read()));
    counts[state & 3]++;
  }
}

void GplModel::CollectRange(Key lo, Key hi, std::vector<std::pair<Key, Value>>* out,
                            size_t limit) const ALT_REQUIRES_EPOCH {
  size_t appended = 0;
  const bool vec = cpu::SimdEnabled();
  uint32_t skip_run = 0;  // consecutive non-occupied slots seen by the scalar probe
  // Placement is monotone in the key, so no key >= lo sits left of
  // Predict(lo), and the first resident key beyond hi ends the walk.
  for (uint32_t i = Predict(lo); i < num_slots_ && appended < limit; ++i) {
    // Skip-scan, but only once a scalar run of >= 8 misses shows the region
    // is sparse. At typical occupancy the next occupied slot is 1-2 slots
    // away and an unconditional vector step costs more than the scalar probe
    // it replaces (measured ~2x slower on dense scans); in genuinely sparse
    // stretches — a strict model's untouched half, a freshly expanded array —
    // one vector step discards 8 non-candidates at once. Only lanes that are
    // occupied — or busy, i.e. possibly *becoming* occupied — need the
    // per-slot seqlock protocol below.
    if (vec && skip_run >= 8) {
      while (i + 8 <= num_slots_) {
        const simd::SlotScan8 scan = simd::ScanSlotWords8(&slots_[i], sizeof(GplSlot));
        const uint8_t candidates = static_cast<uint8_t>(
            scan.state_mask[static_cast<int>(SlotState::kOccupied)] | scan.busy_mask);
        if (candidates != 0) {
          i += static_cast<uint32_t>(__builtin_ctz(candidates));
          break;
        }
        i += 8;
      }
      skip_run = 0;
      if (i >= num_slots_) break;
    }
    const GplSlot& s = slots_[i];
    bool occupied_here = false;
    for (;;) {
      const uint32_t w = s.word.Read();
      if (SlotWord::StateOf(w) != SlotState::kOccupied) break;
      occupied_here = true;
      const Key k = s.OptimisticKey();
      const Value v = s.OptimisticValue();
      if (!s.word.Validate(w)) continue;  // concurrent writer: re-read the slot
      if (k > hi) return;
      if (k >= lo) {
        out->emplace_back(k, v);
        ++appended;
      }
      break;
    }
    skip_run = occupied_here ? 0 : skip_run + 1;
  }
}

}  // namespace alt
