#include "common/thread_pool.h"

#include <algorithm>

namespace slade {

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t count = std::max<size_t>(num_threads, 1);
  workers_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> job) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push(std::move(job));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop();
    }
    job();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

size_t ThreadPool::DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ParallelFor(ThreadPool* pool, size_t count,
                 const std::function<void(size_t)>& fn) {
  if (pool == nullptr || pool->num_threads() <= 1 || count <= 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    pool->Submit([&fn, i] { fn(i); });
  }
  pool->Wait();
}

}  // namespace slade
