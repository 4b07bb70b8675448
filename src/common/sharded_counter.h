#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/prefetch.h"

namespace alt {

/// Round-robin thread number, assigned on a thread's first call: the shard
/// selector of every per-thread-sharded structure (metrics::Registry,
/// ShardedCounter). Callers mask it to their shard count; two threads that
/// share a shard cost each other contention, never correctness.
inline size_t ThreadShardIndex() {
  static std::atomic<size_t> next{0};
  thread_local const size_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

/// \brief A relaxed counter split over cache-line-padded cells, one per
/// thread shard, so concurrent updates from different threads write
/// different lines. The whole counter is line-aligned: the member after it
/// never shares a line with a cell.
///
/// Value() sums the cells. It is exact once the writers are quiescent; while
/// they run it is a racy read like a single relaxed counter's, except that it
/// may miss an increment whose matching decrement it saw, so it clamps at 0.
class ShardedCounter {
 public:
  static constexpr size_t kCells = 16;  // power of two

  void Add(int64_t delta) {
    cells_[ThreadShardIndex() & (kCells - 1)].v.fetch_add(static_cast<uint64_t>(delta),
                                                           std::memory_order_relaxed);
  }

  size_t Value() const {
    uint64_t sum = 0;  // cells wrap individually; their sum is the count
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    const auto s = static_cast<int64_t>(sum);
    return s < 0 ? 0 : static_cast<size_t>(s);
  }

 private:
  struct alignas(kCacheLineBytes) Cell {
    std::atomic<uint64_t> v{0};
  };
  Cell cells_[kCells];
};

}  // namespace alt
