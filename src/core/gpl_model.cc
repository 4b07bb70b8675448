#include "core/gpl_model.h"

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <type_traits>

#include "common/aligned_mem.h"

namespace alt {

// Slot line layout (DESIGN.md §10.2): one word, the line lock and 7 B of
// padding, three pairs, exactly one cache line; a 64-byte-aligned array
// therefore puts every slot's pair in one line with the word that guards it.
static_assert(sizeof(LineWord) == 8, "a line's word is one 64-bit atomic");
static_assert(sizeof(SlotLine) == 64 && alignof(SlotLine) == 64,
              "a slot line is exactly one cache line");
static_assert(SlotLine::kLanes == 3, "three slots per line");
static_assert(sizeof(SpinLock) == 1 && offsetof(SlotLine, lock) == 8,
              "the line lock sits in the padding after the word");
static_assert(offsetof(SlotLine, pair) == 16,
              "pairs follow the word and 8 B of lock and padding");
static_assert(sizeof(SlotLine::Pair) == 16, "a pair is one key and one value");
static_assert(alignof(GplModel) == 64,
              "hot header must start on a cache-line boundary");
// The dtor releases the slot array without running per-line destructors.
static_assert(std::is_trivially_destructible_v<SlotLine>,
              "slot arrays are released without line destructors");
// A slab slice is used as a slot array without a constructor pass: SlotLine
// is an implicit-lifetime aggregate whose all-zero bytes are its initial state.
static_assert(std::is_aggregate_v<SlotLine>,
              "slab slices rely on implicit line lifetimes");

GplModel::GplModel(Key first_key, double slope, uint32_t num_slots, uint32_t build_size,
                   Key coverage_end, Slab* slab)
    : first_key_(first_key),
      slope_(slope),
      coverage_end_(coverage_end),
      num_slots_(num_slots == 0 ? 1 : num_slots),
      build_size_(build_size),
      slab_(slab) {
  const size_t bytes = SlotArrayBytes(num_slots_);
  if (slab_ != nullptr) {
    // No constructor pass: it would fault the slice in on this thread, while
    // BulkLoad leaves that to the thread that fills the slots.
    lines_ = static_cast<SlotLine*>(slab_->Carve(bytes));
    if (lines_ == nullptr) throw std::bad_alloc();
    return;
  }
  void* mem = AllocateHotArray(bytes);
  if (mem == nullptr) throw std::bad_alloc();
  lines_ = static_cast<SlotLine*>(mem);
  // The region is already zero-filled; the placement news formally start the
  // line lifetimes (all member initializers are zero, so this compiles to the
  // same stores the zero-fill already made).
  for (uint32_t l = 0; l < num_lines(); ++l) new (&lines_[l]) SlotLine();
}

Expansion::~Expansion() {
  if (!done.load(std::memory_order_acquire)) delete new_model;
}

GplModel::~GplModel() {
  Expansion* e = expansion_.load(std::memory_order_acquire);
  delete e;
  if (slab_ != nullptr) {
    slab_->ReleaseSlice(lines_, SlotArrayBytes(num_slots_));
  } else {
    std::free(lines_);
  }
}

void GplModel::CountSlotStates(size_t counts[4]) const ALT_REQUIRES_EPOCH {
  // Line by line; the last line's lanes past num_slots_ are not slots.
  for (uint32_t l = 0; l < num_lines(); ++l) {
    const uint64_t w = lines_[l].word.Read();
    for (uint32_t lane = 0; lane < LanesIn(l); ++lane) {
      counts[static_cast<uint32_t>(LineWord::StateOf(w, lane))]++;
    }
  }
}

void GplModel::CollectRange(Key lo, Key hi, std::vector<std::pair<Key, Value>>* out,
                            size_t limit) const ALT_REQUIRES_EPOCH {
  size_t appended = 0;
  // Lines are in key order (LineOf is monotone), so no key >= lo sits left of
  // LineOf(lo), and the line holding the first resident key beyond hi ends the
  // walk. Within a line the lanes are unordered: sort its up-to-three keys
  // before capping. The walk is sequential, so the hardware prefetcher runs
  // ahead of it.
  for (uint32_t l = LineOf(lo); l < num_lines() && appended < limit; ++l) {
    const SlotLine& line = lines_[l];
    std::pair<Key, Value> run[SlotLine::kLanes];
    uint32_t n = 0;
    bool past_hi = false;
    for (;;) {
      const uint64_t w = line.word.Read();
      n = 0;
      past_hi = false;
      for (uint32_t lane = 0; lane < LanesIn(l); ++lane) {
        if (LineWord::StateOf(w, lane) != SlotState::kOccupied) continue;
        const Key k = line.OptimisticKey(lane);
        if (k > hi) {
          past_hi = true;
        } else if (k >= lo) {
          run[n++] = {k, line.OptimisticValue(lane)};
        }
      }
      if (line.word.Validate(w)) break;  // else a writer raced: re-read the line
    }
    for (uint32_t i = 1; i < n; ++i) {  // insertion sort of at most three keys
      for (uint32_t j = i; j > 0 && run[j].first < run[j - 1].first; --j) {
        std::swap(run[j], run[j - 1]);
      }
    }
    for (uint32_t i = 0; i < n && appended < limit; ++i, ++appended) {
      out->push_back(run[i]);
    }
    if (past_hi) return;
  }
}

}  // namespace alt
