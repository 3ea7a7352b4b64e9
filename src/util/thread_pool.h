#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace repro {

/// Fork-join thread pool (no external dependencies).
///
/// Runs the embedder's per-vertex join, the analytic placer's gradient and
/// density loops, and the flow service's concurrent jobs, all through one
/// entry point: `parallel_for(n, grain, fn)` splits [0, n) into chunks of
/// `grain` indices and runs them on the workers *and* on the calling thread.
///
/// Workers wait on one mutex-guarded FIFO queue of loops that want help.
/// Chunks are claimed in ascending index order, so the flow service's jobs
/// (one per chunk) start in submission order. Because the caller drains its
/// own loop, a `parallel_for` nested inside a chunk cannot deadlock: its
/// completion never depends on a worker becoming free. A pool constructed
/// with `threads <= 1` spawns no workers and `parallel_for` is a serial loop.
///
/// Determinism: the pool never reorders *results* — callers partition writes
/// by index — so every consumer in this codebase produces bit-identical
/// output for any worker count. See docs/ALGORITHMS.md §11.
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

  /// Runs `fn(i)` once for every i in [0, n) and returns when all calls have
  /// finished. `fn` must be safe to invoke concurrently for distinct i. If
  /// calls throw, every other index still runs, and the first exception
  /// thrown on any thread is rethrown once the last chunk has finished.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t)>& fn);

 private:
  struct Loop;

  void worker_loop();

  unsigned num_threads_ = 1;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Loop>> queue_;  // one entry per wanted helper
  bool stop_ = false;
  std::vector<std::jthread> workers_;
};

}  // namespace repro
