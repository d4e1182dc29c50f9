// Copyright (c) the SLADE reproduction authors.
// A small fixed-size thread pool. DecompositionEngine runs a batch's shard
// routing and Algorithm 3 assignments on its own pool, PlanSplitter fans a
// large split out over a process-wide one, and the baseline solver runs
// independent chunk CIPs (see baseline_solver.h) on one.

#ifndef SLADE_COMMON_THREAD_POOL_H_
#define SLADE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace slade {

/// \brief Fixed-size worker pool executing `std::function<void()>` jobs.
///
/// Deliberately minimal: no futures, no work stealing. Callers that need
/// results write into pre-sized slots (one per job), so no synchronization
/// beyond Wait() is required on the result side.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job. Never blocks (unbounded queue).
  void Submit(std::function<void()> job);

  /// Blocks until every submitted job has finished executing.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// `std::thread::hardware_concurrency()` with a floor of 1.
  static size_t DefaultThreads();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::queue<std::function<void()>> queue_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

/// \brief Runs `fn(i)` for i in [0, count) across `pool`, blocking until all
/// complete. Runs inline on the calling thread when `pool` is null or has
/// one worker, or when there is at most one job (no pool round trip).
void ParallelFor(ThreadPool* pool, size_t count,
                 const std::function<void(size_t)>& fn);

}  // namespace slade

#endif  // SLADE_COMMON_THREAD_POOL_H_
