#include "common/thread_pool.h"

#include <algorithm>

#include "common/macros.h"

namespace flood {

size_t ThreadPool::DefaultConcurrency() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<size_t>(hw) : 1;
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = DefaultConcurrency();
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  FLOOD_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    FLOOD_CHECK(!stopping_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain before exiting so destruction never drops queued work.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void WaitGroup::Done() {
  // Notify while holding the lock: once Wait() can observe pending_ == 0
  // the caller may destroy this WaitGroup, so Done must not touch members
  // (the condvar included) after releasing mu_.
  std::lock_guard<std::mutex> lock(mu_);
  FLOOD_CHECK(pending_ > 0);
  --pending_;
  if (pending_ == 0) cv_.notify_all();
}

void WaitGroup::Wait() {
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return pending_ == 0; });
    error = error_;
    error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void ParallelFor(ThreadPool& pool, size_t n, size_t max_shards,
                 const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0) return;
  const ContiguousSplit split(n, max_shards);
  if (split.shards() == 1) {
    fn(0, 0, n);
    return;
  }
  WaitGroup wg;
  for (size_t s = 0; s < split.shards(); ++s) {
    pool.Submit(wg.Wrap([&fn, s, begin = split.begin(s),
                         end = split.end(s)] { fn(s, begin, end); }));
  }
  wg.Wait();
}

}  // namespace flood
