#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace repro {

/// One parallel_for call. Shared with the helpers it queued: a helper that
/// pops its entry after every chunk is claimed finds the counter exhausted
/// and returns without touching `fn`, which the caller no longer keeps alive.
struct ThreadPool::Loop {
  Loop(std::size_t n, std::size_t grain, const std::function<void(std::size_t)>& fn)
      : n(n), grain(grain), chunks((n + grain - 1) / grain), fn(fn) {}

  const std::size_t n, grain, chunks;
  const std::function<void(std::size_t)>& fn;
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;       // chunks finished; guarded by mu
  std::exception_ptr error;   // first exception thrown; guarded by mu

  // Claims and runs chunks until none are left.
  void drain() {
    std::size_t finished = 0;
    for (std::size_t c; (c = next.fetch_add(1, std::memory_order_relaxed)) < chunks;
         ++finished) {
      const std::size_t hi = std::min(n, (c + 1) * grain);
      for (std::size_t i = c * grain; i < hi; ++i) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lk(mu);
          if (!error) error = std::current_exception();
        }
      }
    }
    if (finished == 0) return;
    std::lock_guard<std::mutex> lk(mu);
    if ((done += finished) == chunks) cv.notify_all();
  }
};

unsigned ThreadPool::hardware_threads() {
  unsigned n = std::thread::hardware_concurrency();
  return n ? n : 1;
}

ThreadPool::ThreadPool(unsigned threads) : num_threads_(std::max(1u, threads)) {
  workers_.reserve(num_threads_ - 1);
  for (unsigned i = 1; i < num_threads_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  workers_.clear();  // joins
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Loop> loop;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      loop = std::move(queue_.front());
      queue_.pop_front();
    }
    loop->drain();
  }
}

void ThreadPool::parallel_for(std::size_t n, std::size_t grain,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const auto loop = std::make_shared<Loop>(n, std::max<std::size_t>(1, grain), fn);
  const std::size_t helpers = std::min<std::size_t>(workers_.size(), loop->chunks - 1);
  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      queue_.insert(queue_.end(), helpers, loop);
    }
    for (std::size_t h = 0; h < helpers; ++h) cv_.notify_one();
  }

  loop->drain();  // the caller always takes part

  // Chunks may still run on helpers; `fn` (and the caller's stack) must stay
  // alive until the last one finishes.
  std::unique_lock<std::mutex> lk(loop->mu);
  loop->cv.wait(lk, [&] { return loop->done == loop->chunks; });
  if (loop->error) std::rethrow_exception(loop->error);
}

}  // namespace repro
