#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/expect.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace ibvs {
namespace {

TEST(SplitMix64, DeterministicForSeed) {
  SplitMix64 a(12345);
  SplitMix64 b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(SplitMix64, BelowRespectsBound) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(SplitMix64, BetweenInclusive) {
  SplitMix64 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // all three values appear
  EXPECT_THROW(rng.between(5, 3), std::invalid_argument);
}

TEST(SplitMix64, UniformInUnitInterval) {
  SplitMix64 rng(99);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(SplitMix64, ForkIsIndependentStream) {
  SplitMix64 a(42);
  SplitMix64 forked = a.fork();
  // The fork and the parent should not produce identical sequences.
  int same = 0;
  for (int i = 0; i < 32; ++i) {
    if (a() == forked()) ++same;
  }
  EXPECT_LT(same, 2);
}

/// Every range one parallel_ranges() call ran, sorted by begin.
std::vector<std::pair<std::size_t, std::size_t>> ranges_of(
    ThreadPool& pool, std::size_t begin, std::size_t end,
    std::size_t min_range) {
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  pool.parallel_ranges(begin, end, min_range,
                       [&](std::size_t b, std::size_t e) {
                         std::lock_guard<std::mutex> lock(m);
                         ranges.emplace_back(b, e);
                       });
  std::sort(ranges.begin(), ranges.end());
  return ranges;
}

TEST(ThreadPool, RunsInlineBelowCutoff) {
  ThreadPool pool(4);
  // 30 items at a 16-item minimum leave one range: it runs on the caller.
  std::size_t calls = 0;
  std::thread::id ran_on;
  pool.parallel_ranges(0, 30, 16, [&](std::size_t b, std::size_t e) {
    ++calls;
    ran_on = std::this_thread::get_id();
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 30u);
  });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  // A single worker never splits.
  ThreadPool single(1);
  EXPECT_EQ(ranges_of(single, 0, 100, 1).size(), 1u);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  EXPECT_TRUE(ranges_of(pool, 5, 5, 1).empty());
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_ranges(0, hits.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ChunksPartitionRange) {
  ThreadPool pool(3);
  const std::size_t max_ranges = pool.size() * ThreadPool::kRangesPerWorker;
  for (const std::size_t min_range : {1u, 7u, 40u}) {
    const auto ranges = ranges_of(pool, 10, 113, min_range);
    EXPECT_GE(ranges.size(), 2u) << "min_range " << min_range;
    EXPECT_LE(ranges.size(), max_ranges) << "min_range " << min_range;
    // Contiguous, disjoint, non-empty and at least min_range long, covering
    // exactly [10, 113).
    std::size_t expect_begin = 10;
    for (const auto& [b, e] : ranges) {
      EXPECT_EQ(b, expect_begin);
      EXPECT_GE(e - b, min_range);
      expect_begin = e;
    }
    EXPECT_EQ(expect_begin, 113u);
  }
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(4);
  const auto throw_at_37 = [](std::size_t b, std::size_t e) {
    if (b <= 37 && 37 < e) throw std::runtime_error("x");
  };
  // From a worker's range, and from the inline path.
  EXPECT_THROW(pool.parallel_ranges(0, 100, 1, throw_at_37),
               std::runtime_error);
  EXPECT_THROW(pool.parallel_ranges(0, 100, 100, throw_at_37),
               std::runtime_error);
}

TEST(ThreadPool, GlobalPoolIsReused) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch w;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GT(w.elapsed().count(), 0);
  EXPECT_GE(w.elapsed_seconds(), 0.0);
  EXPECT_GE(w.elapsed_ms(), 0.0);
  w.reset();
  EXPECT_LT(w.elapsed_seconds(), 1.0);
}

TEST(Expect, RequireThrowsInvalidArgument) {
  EXPECT_THROW(IBVS_REQUIRE(false, "boom"), std::invalid_argument);
  EXPECT_NO_THROW(IBVS_REQUIRE(true, "fine"));
}

TEST(Expect, EnsureThrowsLogicError) {
  EXPECT_THROW(IBVS_ENSURE(false, "bug"), std::logic_error);
  EXPECT_NO_THROW(IBVS_ENSURE(true, "fine"));
}

TEST(ThreadPool, SetGlobalThreadsResizes) {
  ThreadPool::set_global_threads(3);
  EXPECT_EQ(ThreadPool::global_thread_count(), 3u);
  EXPECT_EQ(ThreadPool::global().size(), 3u);
  // The resized pool still does work.
  std::atomic<int> sum{0};
  ThreadPool::global().parallel_ranges(0, 100, 1,
                                       [&](std::size_t b, std::size_t e) {
                                         for (std::size_t i = b; i < e; ++i) {
                                           sum += int(i);
                                         }
                                       });
  EXPECT_EQ(sum.load(), 4950);
  // 0 restores the default sizing chain.
  ThreadPool::set_global_threads(0);
  EXPECT_GE(ThreadPool::global_thread_count(), 1u);
}

TEST(Expect, MessageContainsContext) {
  try {
    IBVS_REQUIRE(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("one is not two"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace ibvs
