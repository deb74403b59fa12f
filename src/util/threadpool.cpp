#include "util/threadpool.hpp"

#include <algorithm>
#include <atomic>

namespace photon {

namespace {
// Set for the lifetime of every worker thread, and on a caller thread while
// it works its own chunk of a parallel_for; lets nested parallel sections
// detect re-entry (from any pool) and run inline instead of enqueueing.
thread_local bool t_on_pool_worker = false;

// Marks the caller thread as inside the section for the scope of its chunk.
class CallerChunkScope {
 public:
  CallerChunkScope() : saved_(t_on_pool_worker) { t_on_pool_worker = true; }
  ~CallerChunkScope() { t_on_pool_worker = saved_; }
  CallerChunkScope(const CallerChunkScope&) = delete;
  CallerChunkScope& operator=(const CallerChunkScope&) = delete;

 private:
  bool saved_;
};
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::on_worker_thread() { return t_on_pool_worker; }

void ThreadPool::worker_loop() {
  t_on_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t threads = std::min(workers_.size(), n);
  if (threads <= 1 || on_worker_thread()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Indices are claimed one at a time from a shared counter, so a thread
  // that is descheduled or handed a slow index simply claims fewer; a
  // static split would make everyone wait for its whole share.  Each index
  // traps into its own slot and the lowest-index exception is rethrown after
  // every task has joined, as in the chunked overload.
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(n);
  const auto claim_until_done = [&fn, &next, &errors, n] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::future<void>> futures;
  futures.reserve(threads - 1);
  for (std::size_t t = 0; t + 1 < threads; ++t) {
    futures.push_back(submit(claim_until_done));
  }
  {
    const CallerChunkScope scope;
    claim_until_done();
  }
  for (auto& f : futures) f.get();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t chunks =
      std::min(workers_.size(), (n + grain - 1) / grain);
  if (chunks <= 1 || on_worker_thread()) {
    fn(0, n);
    return;
  }
  const std::size_t base = n / chunks;
  const std::size_t rem = n % chunks;
  // Exception safety: every chunk (worker or caller) traps into its own
  // slot, all chunks are joined before returning — no task may outlive the
  // locals it references — and the lowest-index exception is rethrown, so
  // "which error wins" never depends on thread scheduling.
  std::vector<std::exception_ptr> errors(chunks);
  const auto guarded = [&fn, &errors](std::size_t c, std::size_t chunk_begin,
                                      std::size_t chunk_end) {
    try {
      fn(chunk_begin, chunk_end);
    } catch (...) {
      errors[c] = std::current_exception();
    }
  };
  std::vector<std::future<void>> futures;
  futures.reserve(chunks - 1);
  std::size_t begin = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t end = begin + base + (c < rem ? 1 : 0);
    if (c + 1 == chunks) {
      // The caller thread works the last chunk itself, serial like every
      // worker chunk: fanning its nested kernels out would only queue them
      // behind the other chunks and wake an idle worker for every call.
      const CallerChunkScope scope;
      guarded(c, begin, end);
    } else {
      futures.push_back(
          submit([&guarded, c, begin, end] { guarded(c, begin, end); }));
    }
    begin = end;
  }
  for (auto& f : futures) f.get();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

}  // namespace photon
