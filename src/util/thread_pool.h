#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace repro {

/// Small work-stealing thread pool (no external dependencies).
///
/// Runs the embedder's per-vertex join, the analytic placer's gradient and
/// density loops, and the flow service's concurrent jobs:
///
///  * `submit(fn)` enqueues a task and returns a `std::future` — used by the
///    flow service, one task per job;
///  * `parallel_for(n, grain, fn)` splits an index range into chunks and
///    runs them on the pool *and* on the calling thread — used for the
///    embedder's `A[i][*]` column loop and the placer's loops. The caller
///    participates in the chunk loop, so nesting a `parallel_for` inside a
///    pool task cannot deadlock: progress never depends on another worker
///    becoming free.
///
/// Each worker owns a deque protected by a small mutex: owners push/pop at
/// the back (LIFO, keeps the working set hot and runs freshly spawned
/// `parallel_for` chunks before older submitted tasks), thieves steal from
/// the front (FIFO). A pool constructed with `threads <= 1` spawns no
/// workers; `submit` then runs the task inline, and `parallel_for` degrades
/// to a plain serial loop.
///
/// Determinism: the pool never reorders *results* — callers either join on
/// futures or partition writes by index — so every consumer in this codebase
/// produces bit-identical output for any worker count. See
/// docs/ALGORITHMS.md §11 for the argument.
class ThreadPool {
 public:
  /// `threads` = total threads participating in the pool's work, counting
  /// the caller of `parallel_for`; `threads - 1` workers are spawned.
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads (workers + caller). Always >= 1.
  unsigned num_threads() const { return num_threads_; }
  unsigned num_workers() const { return static_cast<unsigned>(workers_.size()); }

  /// `std::thread::hardware_concurrency()`, never 0.
  static unsigned hardware_threads();

  /// Enqueues `fn` and returns its future. With no workers the task runs
  /// inline (the future is ready on return).
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> fut = task->get_future();
    if (workers_.empty()) {
      (*task)();
      return fut;
    }
    push_task([task] { (*task)(); });
    return fut;
  }

  /// Runs `fn(i)` for i in [0, n). Chunks of `grain` indices are distributed
  /// over the workers and the calling thread; returns when all n calls have
  /// completed. `fn` must be safe to invoke concurrently for distinct i.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t)>& fn);

 private:
  struct ForState;

  void push_task(std::function<void()> task);
  bool try_pop_or_steal(std::function<void()>& out, unsigned self);
  void worker_loop(std::stop_token st, unsigned self);

  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  unsigned num_threads_ = 1;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::jthread> workers_;
  std::atomic<unsigned> next_queue_{0};

  // Sleep/wake machinery: workers park here when every queue is empty.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::atomic<std::size_t> pending_{0};
};

}  // namespace repro
