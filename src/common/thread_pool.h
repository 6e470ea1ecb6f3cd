#ifndef FLOOD_COMMON_THREAD_POOL_H_
#define FLOOD_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace flood {

/// Fixed-size FIFO thread pool: `num_threads` workers pop from one shared
/// queue (no work stealing — queries are coarse enough that a single queue
/// never bottlenecks). Submission is thread-safe from any thread; the
/// destructor drains the queue (every task submitted before ~ThreadPool
/// runs to completion) and joins the workers.
///
/// Tasks must not block on other pool tasks' completion: with a fixed
/// worker count and no stealing, a task that waits for a queued task can
/// deadlock the pool. Database::RunBatch only ever submits independent
/// per-shard work, so this never arises on the query path.
class ThreadPool {
 public:
  /// `num_threads == 0` uses DefaultConcurrency().
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// std::thread::hardware_concurrency(), or 1 when the runtime can't tell.
  static size_t DefaultConcurrency();

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues `task` to run on some worker thread. Must not be called
  /// concurrently with the destructor.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Completion barrier for a group of pool tasks, with first-error capture.
/// Wrap each task before Submit, then Wait() blocks until every wrapped
/// task ran and rethrows the first exception any of them threw (the
/// remaining tasks still run to completion). Reusable after Wait returns.
///
///   WaitGroup wg;
///   for (auto& shard : shards) pool.Submit(wg.Wrap([&shard] { ... }));
///   wg.Wait();
class WaitGroup {
 public:
  /// Wraps `fn` so the group tracks it: registers one pending completion
  /// immediately, runs fn on invocation (capturing a thrown exception
  /// instead of unwinding into the worker), then signals completion.
  template <typename F>
  std::function<void()> Wrap(F fn) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++pending_;
    }
    return [this, fn = std::move(fn)]() mutable {
      try {
        fn();
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!error_) error_ = std::current_exception();
      }
      Done();
    };
  }

  /// Blocks until every wrapped task completed; rethrows the first captured
  /// exception (and clears it, so the group can be reused).
  void Wait();

 private:
  void Done();

  std::mutex mu_;
  std::condition_variable cv_;
  size_t pending_ = 0;
  std::exception_ptr error_;
};

/// The contiguous near-equal split of [0, n) into min(max_shards, n)
/// shards (at least one): shard s covers [begin(s), end(s)), shard 0 the
/// front, and the first n % shards() shards hold one extra item.
/// ParallelFor and Database::RunBatchAsync both carve through here, so an
/// async batch is sharded exactly as the synchronous one.
class ContiguousSplit {
 public:
  ContiguousSplit(size_t n, size_t max_shards)
      : shards_(std::max<size_t>(1, std::min(max_shards, n))),
        base_(n / shards_),
        extra_(n % shards_) {}

  size_t shards() const { return shards_; }
  size_t begin(size_t s) const { return s * base_ + std::min(s, extra_); }
  size_t end(size_t s) const { return begin(s + 1); }

 private:
  size_t shards_;
  size_t base_;
  size_t extra_;
};

/// Runs fn(shard, begin, end) for each shard of ContiguousSplit(n,
/// max_shards) on the pool, blocking until all complete (n == 0 runs
/// nothing). Task errors rethrow here. Must not be called from inside a
/// pool task (see ThreadPool).
void ParallelFor(ThreadPool& pool, size_t n, size_t max_shards,
                 const std::function<void(size_t, size_t, size_t)>& fn);

}  // namespace flood

#endif  // FLOOD_COMMON_THREAD_POOL_H_
