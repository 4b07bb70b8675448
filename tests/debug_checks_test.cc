// Death tests for the ALT_DEBUG_CHECKS dynamic checkers: each test seeds one
// concrete lock-protocol or epoch-guard misuse and proves the checker aborts
// with its diagnostic, plus a positive churn test showing correct concurrent
// usage stays quiet. Compiled only when the option is on (tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "art/art_tree.h"
#include "common/epoch.h"
#include "common/optlock.h"
#include "common/spinlock.h"
#include "core/alt_index.h"
#include "core/gpl_model.h"

#if !defined(ALT_DEBUG_CHECKS)
#error "debug_checks_test requires -DALT_DEBUG_CHECKS=ON (see tests/CMakeLists.txt)"
#endif

namespace alt {
namespace {

// All death statements run threads or spin loops; the fork-per-assertion
// "threadsafe" style re-executes the binary so the child is single-threaded
// until the statement itself runs.
class DebugChecksDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

// --- version-lock protocol checker: SpinLock ---

TEST_F(DebugChecksDeathTest, SpinLockDoubleLockAborts) {
  SpinLock l;
  l.lock();
  // Without the checker this would spin forever (TTAS locks don't recurse).
  EXPECT_DEATH(l.lock(), "spinlock: double-lock");
  l.unlock();
}

TEST_F(DebugChecksDeathTest, SpinLockUnlockWithoutLockAborts) {
  SpinLock l;
  EXPECT_DEATH(l.unlock(), "spinlock: unlock-without-lock");
}

// --- version-lock protocol checker: LineWord (GPL slot line seqlock) ---

TEST_F(DebugChecksDeathTest, LineWordDoubleLockAborts) {
  LineWord word;
  const uint64_t w = word.Lock();
  EXPECT_DEATH(word.Lock(), "line-word: double-lock");
  word.Unlock(LineWord::WithState(w, 0, SlotState::kOccupied));
}

TEST_F(DebugChecksDeathTest, LineWordUnlockWithoutLockAborts) {
  LineWord word;
  EXPECT_DEATH(word.Unlock(LineWord::WithState(0, 0, SlotState::kOccupied)),
               "line-word: unlock-without-lock");
}

TEST_F(DebugChecksDeathTest, LineWordStaleUnlockTokenAborts) {
  LineWord word;
  const uint64_t w = word.Lock();
  // Publishing from a stale token would rewind the sequence number and let a
  // racing reader validate a torn snapshot.
  EXPECT_DEATH(word.Unlock(LineWord::WithState(w + (uint64_t{1} << 7), 0,
                                               SlotState::kOccupied)),
               "line-word: Unlock without the lock held or with a stale token");
  word.Unlock(LineWord::WithState(w, 0, SlotState::kOccupied));
}

TEST_F(DebugChecksDeathTest, LineWordReadWhileWriteHeldAborts) {
  LineWord word;
  const uint64_t w = word.Lock();
  // Read() spins until the lock bit clears; self-read would hang forever.
  EXPECT_DEATH(word.Read(), "line-word: Read while this thread holds");
  word.Unlock(w);
}

// --- version-lock protocol checker: OptLock (ART optimistic lock coupling) ---

TEST_F(DebugChecksDeathTest, OptLockDoubleLockAborts) {
  OptLock l;
  ASSERT_TRUE(l.WriteLockOrFail());
  EXPECT_DEATH(l.WriteLockOrFail(), "optlock: double-lock");
  l.WriteUnlock();
}

TEST_F(DebugChecksDeathTest, OptLockUnlockWithoutLockAborts) {
  OptLock l;
  EXPECT_DEATH(l.WriteUnlock(), "optlock: unlock-without-lock");
}

// --- epoch-guard validator ---

TEST_F(DebugChecksDeathTest, ArtInsertOutsideEpochGuardAborts) {
  art::ArtTree tree;
  // ArtTree's contract requires callers to hold an EpochGuard (retired nodes
  // could otherwise be reclaimed mid-traversal). Seed the misuse.
  EXPECT_DEATH(tree.Insert(42, 7), "epoch-guard: ArtTree::Insert");
}

TEST_F(DebugChecksDeathTest, ArtLookupOutsideEpochGuardAborts) {
  art::ArtTree tree;
  {
    EpochGuard g;
    ASSERT_TRUE(tree.Insert(42, 7));
  }
  Value v;
  EXPECT_DEATH(tree.Lookup(42, &v), "epoch-guard: ArtTree::Lookup");
}

TEST_F(DebugChecksDeathTest, DrainAllWhileReaderPinnedAborts) {
  // DrainAll frees every retired item unconditionally — its contract is "no
  // thread inside a read-side section". With per-shard managers multiplying
  // the call sites, the contract is now checked: a still-pinned reader slot
  // at drain time is a use-after-free in the making and must abort.
  EXPECT_DEATH(
      {
        EpochManager mgr("debug-checks-drain");
        std::atomic<bool> pinned{false};
        std::thread reader([&] {
          EpochGuard g(mgr);
          pinned.store(true);
          for (;;) std::this_thread::yield();  // never unpins
        });
        while (!pinned.load()) std::this_thread::yield();
        mgr.Retire(new int(7), [](void* p) { delete static_cast<int*>(p); });
        mgr.DrainAll();
      },
      "DrainAll while a reader is pinned");
}

TEST(DebugChecksTest, DrainAllQuietWhenQuiescent) {
  EpochManager mgr("debug-checks-drain-quiet");
  {
    EpochGuard g(mgr);
    mgr.Retire(new int(7), [](void* p) { delete static_cast<int*>(p); });
  }
  mgr.DrainAll();  // all guards released: the new check must stay silent
  EXPECT_EQ(mgr.PendingCount(), 0u);
}

// --- positive control: correct usage stays quiet under the checkers ---

TEST(DebugChecksTest, CheckersStayQuietUnderConcurrentChurn) {
  // Mixed concurrent churn over the full index exercises every checked lock
  // (line words, spin locks, ART optimistic locks, born-locked SMO nodes) and
  // the epoch-pinned hot paths; any false positive aborts the test binary.
  AltIndex index;
  constexpr size_t kBulk = 20000;
  constexpr int kThreads = 4;
  std::vector<Key> keys(kBulk);
  std::vector<Value> vals(kBulk);
  for (size_t i = 0; i < kBulk; ++i) {
    keys[i] = static_cast<Key>(i) * 16 + 5;
    vals[i] = static_cast<Value>(i);
  }
  ASSERT_TRUE(index.BulkLoad(keys.data(), vals.data(), kBulk).ok());

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < kBulk; i += kThreads) {
        const Key k = keys[i];
        // Insert a conflicting neighbor (lands in ART), update, look up both,
        // then remove the neighbor — covering all four internal hot paths.
        if (!index.Insert(k + 1, vals[i] + 100)) failed.store(true);
        if (!index.Update(k, vals[i] + 1)) failed.store(true);
        Value v;
        if (!index.Lookup(k, &v)) failed.store(true);
        if (!index.Lookup(k + 1, &v) || v != vals[i] + 100) failed.store(true);
        if (!index.Remove(k + 1)) failed.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(index.Size(), kBulk);
  EpochManager::Global().DrainAll();
}

}  // namespace
}  // namespace alt
