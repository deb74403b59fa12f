#pragma once
// Fixed-size thread pool used to run LLM clients of a federated round in
// parallel (paper Alg. 1, line 5: "for k in C do in parallel") and, through
// kernels::KernelContext, to shard individual tensor kernels.
//
// Nesting policy: parallel_for detects when it is invoked from a pool worker
// thread (any pool), or from the chunk a caller thread works itself, and runs
// the loop inline instead of enqueueing.  This makes nested parallelism —
// e.g. a federated round that fans clients out across the pool while each
// client's kernels also want the pool — degrade to serial per-client compute
// rather than deadlocking on a full task queue or oversubscribing the
// machine.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace photon {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// True when the calling thread is a worker of any ThreadPool, or is
  /// working its own chunk of a parallel_for.  Used to degrade nested
  /// parallel sections to inline execution.
  static bool on_worker_thread();

  /// Enqueue a task; returns a future for its completion.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::scoped_lock lock(mu_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
      tasks_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Run fn(i) for i in [0, n) across the pool and wait for all to finish.
  /// The caller and at most size() - 1 worker tasks claim indices one at a
  /// time from a shared counter, so which thread runs an index depends on
  /// timing; fn must not care.  The caller runs nested sections inline like
  /// a worker.  Safe to call from a worker thread: runs inline instead of
  /// deadlocking.  An exception thrown by fn is captured, every other index
  /// still runs (joined before returning), and the lowest-index exception is
  /// rethrown on the caller — deterministic at any thread count.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Chunked overload: partitions [0, n) into at most size() contiguous
  /// ranges of at least `grain` indices each and runs fn(begin, end) across
  /// the pool.  The caller thread executes the last chunk itself, with
  /// nested sections inline like on a worker.  Safe to call from a worker
  /// thread (runs fn(0, n) inline).
  void parallel_for(
      std::size_t n, std::size_t grain,
      const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Pool sized to the host; shared by simulation drivers and the default
/// kernel context.
ThreadPool& global_pool();

}  // namespace photon
