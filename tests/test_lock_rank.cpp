// Lock-rank checker tests (DESIGN.md section 7): correct-order
// acquisition passes, inversions and self-locks abort deterministically
// with a report naming both locks, and every rank band in the hierarchy
// has a name. The death tests only exist when the checker is compiled in
// (TEXTMR_LOCK_RANK_CHECK=ON, the default outside Release builds).

#include "common/mutex.hpp"

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "common/logging.hpp"

namespace textmr {
namespace {

TEST(LockRankTest, EveryRankBandHasAName) {
  const LockRank all[] = {
      LockRank::kEngine,      LockRank::kCluster,   LockRank::kMapTask,
      LockRank::kFreqBuf,     LockRank::kSpillBuffer, LockRank::kTempDir,
      LockRank::kFailpoint,   LockRank::kTrace,     LockRank::kLogging,
  };
  std::set<std::uint32_t> seen;
  for (LockRank rank : all) {
    EXPECT_STRNE(lock_rank_name(rank), "unknown")
        << "rank " << static_cast<std::uint32_t>(rank);
    EXPECT_TRUE(seen.insert(static_cast<std::uint32_t>(rank)).second)
        << "duplicate rank value";
  }
  EXPECT_STREQ(lock_rank_name(static_cast<LockRank>(1)), "unknown");
}

TEST(LockRankTest, IncreasingOrderPasses) {
  Mutex outer(LockRank::kEngine, "test.outer");
  Mutex inner(LockRank::kSpillBuffer, "test.inner");
  Mutex leaf(LockRank::kLogging, "test.leaf");
  {
    MutexLock a(outer);
    MutexLock b(inner);
    MutexLock c(leaf);
  }
  // Re-acquiring after release is fine, as is skipping bands.
  {
    MutexLock c(leaf);
  }
  {
    MutexLock a(outer);
    MutexLock c(leaf);
  }
}

TEST(LockRankTest, CondVarWaitKeepsHeldStackConsistent) {
  Mutex mu(LockRank::kSpillBuffer, "test.cv_mu");
  CondVar cv;
  bool ready = false;
  std::thread signaller([&] {
    MutexLock lock(mu);
    ready = true;
    cv.notify_one();
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.wait(mu);
  }
  signaller.join();
  // After the wait re-acquired and the scope released, nothing is held.
  EXPECT_EQ(held_lock_count(), 0u);
}

#if TEXTMR_LOCK_RANK_CHECKS

// Deliberately acquires `mu` twice so the runtime checker aborts; the
// static analysis would (correctly) reject this at compile time, which is
// exactly why it needs the escape hatch.
void double_lock(Mutex& mu) TEXTMR_NO_THREAD_SAFETY_ANALYSIS {
  mu.lock();
  mu.lock();
}

TEST(LockRankTest, RegistryTracksLiveMutexes) {
  const std::size_t before = lock_rank_registry().size();
  {
    Mutex mu(LockRank::kTempDir, "test.registered");
    const auto live = lock_rank_registry();
    ASSERT_EQ(live.size(), before + 1);
    EXPECT_EQ(live.back().name, "test.registered");
    EXPECT_EQ(live.back().rank, LockRank::kTempDir);
  }
  EXPECT_EQ(lock_rank_registry().size(), before);
}

TEST(LockRankTest, EveryLiveMutexHasANamedRank) {
  // Touch the global singletons so their mutexes exist, then require that
  // everything currently registered sits in a named band.
  Logger::instance().level();
  TEXTMR_LOG(kDebug) << "registry probe";
  const auto live = lock_rank_registry();
  ASSERT_FALSE(live.empty());
  for (const auto& info : live) {
    EXPECT_STRNE(lock_rank_name(info.rank), "unknown") << info.name;
    EXPECT_FALSE(info.name.empty());
  }
}

TEST(LockRankDeathTest, InvertedOrderAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex outer(LockRank::kEngine, "test.outer");
  Mutex inner(LockRank::kSpillBuffer, "test.inner");
  EXPECT_DEATH(
      {
        MutexLock b(inner);
        MutexLock a(outer);
      },
      "lock-rank violation.*test\\.outer");
}

TEST(LockRankDeathTest, EqualRankAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex first(LockRank::kTrace, "test.first");
  Mutex second(LockRank::kTrace, "test.second");
  EXPECT_DEATH(
      {
        MutexLock a(first);
        MutexLock b(second);
      },
      "lock-rank violation.*test\\.second");
}

TEST(LockRankDeathTest, SelfLockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex mu(LockRank::kFailpoint, "test.recursive");
  EXPECT_DEATH(double_lock(mu), "self-deadlock.*test\\.recursive");
}

TEST(LockRankDeathTest, ReportListsHeldLocks) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex outer(LockRank::kMapTask, "test.held_one");
  Mutex middle(LockRank::kFreqBuf, "test.held_two");
  Mutex wrong(LockRank::kEngine, "test.acquired");
  EXPECT_DEATH(
      {
        MutexLock a(outer);
        MutexLock b(middle);
        MutexLock c(wrong);
      },
      "held: \"test\\.held_one\".*held: \"test\\.held_two\"");
}

#else

TEST(LockRankTest, CheckerCompiledOut) {
  // Release builds: the registry is empty and inversions are not policed.
  EXPECT_TRUE(lock_rank_registry().empty());
  EXPECT_EQ(held_lock_count(), 0u);
}

#endif  // TEXTMR_LOCK_RANK_CHECKS

}  // namespace
}  // namespace textmr
