#pragma once

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>

namespace repro {

/// Thrown by CancelToken::check() when a stage deadline has passed or the
/// owning service requested a shutdown. Long-running loops let it unwind to
/// run_attempt (serve/service.h), which classifies the job TIMED_OUT
/// (deadline) or CHECKPOINTED (kill flag; the last stage checkpoint is
/// already on disk).
class FlowCancelled : public std::runtime_error {
 public:
  FlowCancelled(const std::string& where, bool killed)
      : std::runtime_error("cancelled in " + where +
                           (killed ? " (shutdown)" : " (deadline)")),
        killed_(killed) {}

  /// True when the external kill flag (not a deadline) triggered the cancel.
  bool killed() const { return killed_; }

 private:
  bool killed_;
};

/// Cooperative cancellation: a wall-clock deadline plus an optional external
/// kill flag. The token is polled — never signalled — so cancellation points
/// are explicit: the annealer checks once per temperature (and every few
/// thousand moves), the replication engine once per iteration, and the
/// router once per negotiation pass. A null token pointer in the options
/// structs means "never cancel" and costs one branch per check site.
class CancelToken {
 public:
  CancelToken() = default;

  void set_deadline(std::chrono::steady_clock::time_point d) {
    deadline_ = d;
    has_deadline_ = true;
  }
  void set_deadline_after(double seconds) {
    set_deadline(std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(seconds)));
  }
  void set_kill_flag(const std::atomic<bool>* kill) { kill_ = kill; }

  bool has_deadline() const { return has_deadline_; }

  bool killed() const {
    return kill_ && kill_->load(std::memory_order_relaxed);
  }
  bool expired() const {
    if (killed()) return true;
    return has_deadline_ && std::chrono::steady_clock::now() >= deadline_;
  }

  /// Throws FlowCancelled when expired; `where` names the stage for the
  /// error message ("anneal", "replicate", "route", ...).
  void check(const char* where) const {
    if (killed()) throw FlowCancelled(where, /*killed=*/true);
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_)
      throw FlowCancelled(where, /*killed=*/false);
  }

 private:
  const std::atomic<bool>* kill_ = nullptr;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
};

}  // namespace repro
