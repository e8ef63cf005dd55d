#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "parallel/thread_pool.h"
#include "parallel/trial_runner.h"

namespace antalloc {
namespace {

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, 1000, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  parallel_for(pool, 5, 5, [&](std::int64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 0, 100,
                   [](std::int64_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(TrialRunner, ResultsInIndexOrderAndDeterministic) {
  const auto trial = [](std::int64_t i, std::uint64_t seed) {
    return static_cast<double>(i) + static_cast<double>(seed % 100) * 1e-6;
  };
  const auto a = run_trials(50, 7, trial);
  const auto b = run_trials(50, 7, trial);
  ASSERT_EQ(a.size(), 50u);
  EXPECT_EQ(a, b);  // same base seed -> identical results
  for (std::size_t i = 0; i + 1 < a.size(); ++i) {
    EXPECT_LT(a[i], a[i + 1]);  // index order preserved
  }
}

TEST(TrialRunner, SeedsDifferAcrossTrials) {
  std::vector<std::uint64_t> seeds(20, 0);
  run_trials(20, 9, [&](std::int64_t i, std::uint64_t seed) {
    seeds[static_cast<std::size_t>(i)] = seed;
    return 0.0;
  });
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (std::size_t j = i + 1; j < seeds.size(); ++j) {
      EXPECT_NE(seeds[i], seeds[j]);
    }
  }
}

}  // namespace
}  // namespace antalloc
