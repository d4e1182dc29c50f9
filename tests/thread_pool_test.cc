#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

namespace slade {
namespace {

TEST(ThreadPoolTest, ExecutesAllJobs) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&counter] { ++counter; });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { ++counter; });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
    // no Wait(): the destructor must still run everything.
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ReusableAcrossWaves) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (wave + 1) * 100);
  }
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  ParallelFor(&pool, hits.size(), [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelForTest, NullPoolRunsInline) {
  std::vector<int> hits(64, 0);
  ParallelFor(nullptr, hits.size(), [&](size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
}

TEST(ParallelForTest, SingleJobRunsOnTheCallingThread) {
  // One job makes no pool round trip (the engine routes a one-chunk batch
  // this way).
  ThreadPool pool(4);
  std::thread::id ran_on;
  ParallelFor(&pool, 1, [&](size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ParallelForTest, ResultsMatchSerialComputation) {
  ThreadPool pool(8);
  std::vector<double> parallel_out(1000), serial_out(1000);
  auto compute = [](size_t i) {
    double acc = 0;
    for (size_t k = 1; k <= i % 50 + 1; ++k) {
      acc += 1.0 / static_cast<double>(k);
    }
    return acc;
  };
  ParallelFor(&pool, parallel_out.size(),
              [&](size_t i) { parallel_out[i] = compute(i); });
  for (size_t i = 0; i < serial_out.size(); ++i) {
    serial_out[i] = compute(i);
  }
  EXPECT_EQ(parallel_out, serial_out);
}

}  // namespace
}  // namespace slade
