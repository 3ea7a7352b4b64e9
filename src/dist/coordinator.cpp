#include "dist/coordinator.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <thread>

#include "dist/frame.h"
#include "dist/protocol.h"
#include "serve/snapshot.h"
#include "serve/wire.h"
#include "util/log.h"

namespace repro {
namespace {

const char* const kShutdownMessage =
    "service shut down before the job finished";

double mono_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

}  // namespace

std::string DistStats::summary() const {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "workers: %llu spawned (%llu respawned), %llu connected, %llu died "
      "(%llu heartbeat timeouts, %llu frame errors) | jobs: %llu remote, "
      "%llu reassigned, %llu quarantined-from-remote, %llu degraded | "
      "%llu checkpoints streamed (%llu bytes)",
      static_cast<unsigned long long>(workers_spawned),
      static_cast<unsigned long long>(workers_respawned),
      static_cast<unsigned long long>(workers_connected),
      static_cast<unsigned long long>(workers_died),
      static_cast<unsigned long long>(heartbeat_timeouts),
      static_cast<unsigned long long>(frame_errors),
      static_cast<unsigned long long>(jobs_completed_remote),
      static_cast<unsigned long long>(jobs_reassigned),
      static_cast<unsigned long long>(jobs_quarantined_remote),
      static_cast<unsigned long long>(jobs_degraded),
      static_cast<unsigned long long>(checkpoints_streamed),
      static_cast<unsigned long long>(checkpoint_stream_bytes));
  return buf;
}

struct Coordinator::Impl {
  explicit Impl(Coordinator& self)
      : self_(self),
        opt_(self.opt_),
        policy_(opt_.service, &self.shutdown_requested_) {}

  Coordinator& self_;
  const CoordinatorOptions& opt_;
  /// Settles every attempt, remote or in-process, and keeps the job
  /// counters across batches.
  RetryPolicy policy_;

  UniqueFd listen_fd_;
  SocketAddr bound_;
  bool started_ = false;
  bool stopped_ = false;

  struct Conn {
    UniqueFd fd;
    FrameDecoder decoder;
    int worker_id = -1;
    long pid = -1;
    bool hello_done = false;
    double last_seen = 0;
    int job = -1;  ///< batch job index in flight, -1 = idle
    bool dead = false;
  };
  std::vector<std::unique_ptr<Conn>> conns_;

  struct Child {
    pid_t pid = -1;
    bool alive = true;
  };
  std::vector<Child> children_;
  int next_worker_id_ = 1;
  int respawns_used_ = 0;
  bool batch_active_ = false;

  // ---- per-batch runtime ---------------------------------------------------
  struct JobRt : JobTicket {
    int index = -1;  ///< batch index = position in jobs_/results
    std::string ckpt;  ///< latest stage-boundary snapshot bytes ("" = none)
    std::vector<int> dead_workers;  ///< distinct worker_ids that died on it
    double ready_at = 0;            ///< retry backoff gate
    bool local_only = false;  ///< quarantined from remote execution
    const std::string& id() const { return result->spec.id; }
  };
  std::vector<JobRt> jobs_;
  std::deque<int> pending_;
  int unfinished_ = 0;
  double batch_start_ = 0;
  bool degraded_ = false;
  double zero_workers_since_ = -1;

  bool shutting_down() const {
    return self_.shutdown_requested_.load(std::memory_order_relaxed);
  }

  // ---- lifecycle -----------------------------------------------------------

  SocketAddr start() {
    listen_fd_ = listen_socket(opt_.listen, &bound_);
    set_nonblocking(listen_fd_.get(), true);
    for (int slot = 0; slot < opt_.spawn_workers; ++slot) {
      const std::string fault =
          slot < static_cast<int>(opt_.worker_faults.size())
              ? opt_.worker_faults[slot]
              : "";
      spawn_child(fault, /*respawn=*/false);
    }
    started_ = true;
    return bound_;
  }

  void spawn_child(const std::string& fault, bool respawn) {
    std::vector<std::string> args;
    args.push_back(opt_.worker_exe);
    args.push_back("--worker");
    args.push_back("--connect");
    args.push_back(bound_.to_string());
    for (const std::string& a : opt_.worker_args) args.push_back(a);
    if (!fault.empty()) {
      args.push_back("--fault");
      args.push_back(fault);
    }
    const pid_t pid = ::fork();
    if (pid == 0) {
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    if (pid < 0) {
      LOG_WARN() << "coordinator: fork failed, worker not spawned";
      return;
    }
    children_.push_back({pid, true});
    ++self_.dist_stats_.workers_spawned;
    if (respawn) ++self_.dist_stats_.workers_respawned;
  }

  int live_children() const {
    int n = 0;
    for (const Child& c : children_) n += c.alive ? 1 : 0;
    return n;
  }

  void reap_children(bool allow_respawn) {
    for (Child& c : children_) {
      if (!c.alive) continue;
      int status = 0;
      const pid_t r = ::waitpid(c.pid, &status, WNOHANG);
      if (r == c.pid) {
        c.alive = false;
        maybe_respawn(allow_respawn);
      }
    }
  }

  void maybe_respawn(bool allow) {
    if (!allow || !batch_active_ || unfinished_ == 0) return;
    if (respawns_used_ >= opt_.respawn_budget) return;
    ++respawns_used_;
    // Replacements never inherit fault plans: a chaos schedule names the
    // original workers, and an injected fault recurring forever would turn
    // bounded chaos into a livelock.
    spawn_child("", /*respawn=*/true);
  }

  void kill_child_pid(long pid) {
    if (pid <= 0 || pid == static_cast<long>(::getpid())) return;
    for (Child& c : children_) {
      if (c.pid != static_cast<pid_t>(pid) || !c.alive) continue;
      ::kill(c.pid, SIGKILL);
      ::waitpid(c.pid, nullptr, 0);
      c.alive = false;
      maybe_respawn(true);
      return;
    }
  }

  void stop() {
    if (stopped_) return;
    stopped_ = true;
    for (auto& c : conns_) {
      if (c->dead || !c->fd.valid()) continue;
      const std::string bytes = encode_frame(kFrameShutdown, "");
      send_all(c->fd.get(), bytes.data(), bytes.size());
    }
    conns_.clear();
    // Give clean exits a moment, then make sure nothing outlives us.
    const double deadline = mono_seconds() + 2.0;
    while (live_children() > 0 && mono_seconds() < deadline) {
      reap_children(/*allow_respawn=*/false);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    for (Child& c : children_) {
      if (!c.alive) continue;
      ::kill(c.pid, SIGKILL);
      ::waitpid(c.pid, nullptr, 0);
      c.alive = false;
    }
    listen_fd_.reset();
    if (started_) cleanup_socket(bound_);
  }

  // ---- batch ---------------------------------------------------------------

  std::vector<JobResult> run_batch(const std::vector<JobSpec>& specs) {
    create_checkpoint_dir(opt_.service);

    std::vector<JobResult> results(specs.size());
    jobs_.clear();
    jobs_.resize(specs.size());
    pending_.clear();
    unfinished_ = 0;
    degraded_ = false;
    zero_workers_since_ = -1;
    batch_start_ = mono_seconds();

    const std::vector<std::string> errors = validate_batch(specs);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      results[i].spec = specs[i];
      JobRt& jr = jobs_[i];
      jr.index = static_cast<int>(i);
      jr.result = &results[i];
      if (!errors[i].empty()) {
        policy_.reject(results[i], errors[i]);
        jr.finished = true;
        continue;
      }
      jr.backoff_seed = fnv1a64(specs[i].id);
      if (opt_.service.resume && !opt_.service.checkpoint_dir.empty())
        read_file(checkpoint_path(opt_.service, jr.id()), &jr.ckpt);
      pending_.push_back(static_cast<int>(i));
      ++unfinished_;
    }

    batch_active_ = true;
    // Workers idled between batches without anyone reading their
    // heartbeats; what is buffered in the sockets is history, not silence.
    const double now0 = mono_seconds();
    for (auto& c : conns_) c->last_seen = now0;

    event_loop();

    if (shutting_down()) {
      // Unlike FlowService, whose jobs all start and unwind through their
      // kill flag, jobs still queued here never ran; they are reported
      // interrupted with this message unless an earlier attempt left one.
      for (JobRt& jr : jobs_)
        if (!jr.finished)
          end_attempt(jr, AttemptOutcome::kKilled,
                      jr.result->error.empty() ? kShutdownMessage : "");
    }
    batch_active_ = false;
    return results;
  }

  void event_loop() {
    while (unfinished_ > 0 && !shutting_down()) {
      reap_children(/*allow_respawn=*/true);
      poll_once();
      if (shutting_down()) break;
      scan_heartbeats();
      run_local_only_jobs();
      dispatch();
      check_degradation();
      prune_dead_conns();
    }
  }

  void poll_once() {
    std::vector<PollFd> fds;
    fds.reserve(conns_.size() + 1);
    PollFd lf;
    lf.fd = listen_fd_.get();
    fds.push_back(lf);
    std::vector<Conn*> order;
    for (auto& c : conns_) {
      if (c->dead) continue;
      PollFd p;
      p.fd = c->fd.get();
      fds.push_back(p);
      order.push_back(c.get());
    }
    poll_wait(fds, 20);

    if (fds[0].readable) accept_pending();
    for (std::size_t i = 0; i < order.size(); ++i) {
      const PollFd& p = fds[i + 1];
      Conn& c = *order[i];
      if (p.readable) read_conn(c);
      if (!c.dead && p.closed) on_worker_death(c, "connection closed");
    }
  }

  void accept_pending() {
    for (;;) {
      UniqueFd fd = accept_connection(listen_fd_.get());
      if (!fd.valid()) return;
      auto c = std::make_unique<Conn>();
      c->fd = std::move(fd);
      c->last_seen = mono_seconds();
      conns_.push_back(std::move(c));
    }
  }

  void read_conn(Conn& c) {
    char buf[64 * 1024];
    const long n = recv_bytes(c.fd.get(), buf, sizeof buf);
    if (n == 0 || n == -2) {
      on_worker_death(c, "connection closed");
      return;
    }
    if (n < 0) return;
    try {
      c.decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      Frame f;
      while (!c.dead && c.decoder.next(&f)) handle_frame(c, f);
    } catch (const FrameError& e) {
      ++self_.dist_stats_.frame_errors;
      on_worker_death(c, e.what());
    }
  }

  void handle_frame(Conn& c, const Frame& f) {
    c.last_seen = mono_seconds();
    switch (f.tag) {
      case kFrameHello: {
        const HelloMsg m = decode_hello(f.payload);
        if (m.protocol_version != kProtocolVersion) {
          LOG_WARN() << "coordinator: worker speaks protocol "
                     << m.protocol_version << ", want " << kProtocolVersion
                     << "; dropping";
          on_worker_death(c, "protocol mismatch");
          return;
        }
        c.worker_id = next_worker_id_++;
        c.pid = static_cast<long>(m.pid);
        c.hello_done = true;
        ++self_.dist_stats_.workers_connected;
        send_to(c, kFrameHelloAck,
                encode_hello_ack({static_cast<std::uint32_t>(c.worker_id)}));
        break;
      }
      case kFrameHeartbeat:
        decode_heartbeat(f.payload);  // validates; last_seen already bumped
        break;
      case kFrameCheckpoint: {
        const CheckpointMsg m = decode_checkpoint(f.payload);
        JobRt* jr = job_for(m.job_index);
        if (!jr || jr->finished) break;  // stale frame from a reassigned job
        jr->ckpt = m.snapshot;
        ++self_.dist_stats_.checkpoints_streamed;
        self_.dist_stats_.checkpoint_stream_bytes += m.snapshot.size();
        record_checkpoint_file(*jr);
        break;
      }
      case kFrameResult: {
        const ResultMsg m = decode_result(f.payload);
        JobRt* jr = job_for(m.job_index);
        if (c.job == static_cast<int>(m.job_index)) c.job = -1;
        if (!jr || jr->finished) break;
        apply_result_payload(m, *jr->result);
        end_attempt(*jr, m.outcome, m.error);
        if (jr->finished) ++self_.dist_stats_.jobs_completed_remote;
        break;
      }
      default:
        break;  // unknown tag from a newer worker: skippable by design
    }
  }

  JobRt* job_for(std::uint32_t index) {
    if (index >= jobs_.size()) return nullptr;
    return &jobs_[index];
  }

  void record_checkpoint_file(JobRt& jr) {
    if (opt_.service.checkpoint_dir.empty()) return;
    write_file_atomic(checkpoint_path(opt_.service, jr.id()), jr.ckpt);
    policy_.count_checkpoint(jr.ckpt.size());
  }

  void send_to(Conn& c, std::uint32_t tag, const std::string& payload) {
    const std::string bytes = encode_frame(tag, payload);
    if (!send_all(c.fd.get(), bytes.data(), bytes.size()))
      on_worker_death(c, "send failed");
  }

  void on_worker_death(Conn& c, const char* why) {
    if (c.dead) return;
    c.dead = true;
    ++self_.dist_stats_.workers_died;
    const JobRt* lost =
        c.job >= 0 && !jobs_[c.job].finished ? &jobs_[c.job] : nullptr;
    LOG_WARN() << "coordinator: worker " << c.worker_id << " died (" << why
               << ")"
               << (lost ? "; reassigning job " + lost->id() : std::string());
    if (c.job >= 0) {
      JobRt& jr = jobs_[c.job];
      c.job = -1;
      if (!jr.finished) {
        if (std::find(jr.dead_workers.begin(), jr.dead_workers.end(),
                      c.worker_id) == jr.dead_workers.end())
          jr.dead_workers.push_back(c.worker_id);
        ++self_.dist_stats_.jobs_reassigned;
        if (static_cast<int>(jr.dead_workers.size()) >=
            opt_.max_worker_deaths_per_job) {
          jr.local_only = true;
          ++self_.dist_stats_.jobs_quarantined_remote;
          LOG_WARN() << "coordinator: job " << jr.id() << " survived "
                     << jr.dead_workers.size()
                     << " worker deaths; finishing it in-process";
        }
        // Front of the queue: the job resumes from its last streamed
        // checkpoint before fresh work starts. A death does NOT burn the
        // retry budget — the job did nothing wrong.
        pending_.push_front(jr.index);
      }
    }
    kill_child_pid(c.pid);
  }

  void scan_heartbeats() {
    if (opt_.heartbeat_timeout_s <= 0) return;
    const double now = mono_seconds();
    for (auto& c : conns_) {
      if (c->dead) continue;
      if (now - c->last_seen > opt_.heartbeat_timeout_s) {
        ++self_.dist_stats_.heartbeat_timeouts;
        on_worker_death(*c, "missed its heartbeat deadline");
      }
    }
  }

  void prune_dead_conns() {
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const std::unique_ptr<Conn>& c) {
                                  return c->dead;
                                }),
                 conns_.end());
  }

  void dispatch() {
    const double now = mono_seconds();
    for (auto& c : conns_) {
      if (c->dead || !c->hello_done || c->job >= 0) continue;
      // First pending job that is remote-eligible and past its backoff.
      auto it = std::find_if(pending_.begin(), pending_.end(), [&](int j) {
        return !jobs_[j].local_only && jobs_[j].ready_at <= now;
      });
      if (it == pending_.end()) return;
      const int job = *it;
      pending_.erase(it);
      assign(*c, job);
    }
  }

  void assign(Conn& c, int job) {
    JobRt& jr = jobs_[job];
    policy_.start(jr, batch_start_);
    AssignMsg m;
    m.job_index = static_cast<std::uint32_t>(job);
    m.attempt = static_cast<std::uint32_t>(jr.attempt);
    m.spec = jr.result->spec;
    m.snapshot = jr.ckpt;
    c.job = job;
    send_to(c, kFrameAssign, encode_assign(m));
    // send_to may have declared the worker dead, which requeued the job.
  }

  /// One attempt ended (remote Result frame or local execution): the
  /// shared policy finishes the job, or it is requeued behind its jittered
  /// backoff for another attempt.
  void end_attempt(JobRt& jr, AttemptOutcome outcome,
                   const std::string& error) {
    const double backoff = policy_.settle(jr, outcome, error);
    if (jr.finished) {
      --unfinished_;
      return;
    }
    jr.ready_at = mono_seconds() + backoff;
    pending_.push_back(jr.index);
  }

  // ---- in-process execution (quarantine + degradation) ---------------------

  void run_local_only_jobs() {
    for (;;) {
      auto it = std::find_if(pending_.begin(), pending_.end(), [&](int j) {
        return jobs_[j].local_only;
      });
      if (it == pending_.end()) return;
      const int job = *it;
      pending_.erase(it);
      run_in_process(jobs_[job], /*degraded=*/false);
      reset_liveness_clock();
      if (shutting_down()) return;
    }
  }

  void check_degradation() {
    if (degraded_) return;
    const bool zero_workers = conns_.empty() && live_children() == 0;
    if (!zero_workers) {
      zero_workers_since_ = -1;
      return;
    }
    const double now = mono_seconds();
    if (zero_workers_since_ < 0) zero_workers_since_ = now;
    if (now - zero_workers_since_ < opt_.degrade_grace_s) return;
    degraded_ = true;
    LOG_WARN() << "coordinator: no workers available; degrading to "
               << "in-process execution for " << pending_.size()
               << " remaining job(s)";
    while (!pending_.empty() && !shutting_down()) {
      const int job = pending_.front();
      pending_.pop_front();
      run_in_process(jobs_[job], /*degraded=*/true);
    }
    reset_liveness_clock();
  }

  /// In-process runs block the event loop; whatever silence accumulated on
  /// worker sockets during them is the coordinator's fault, not the
  /// workers'. Reset the clocks before judging anyone.
  void reset_liveness_clock() {
    const double now = mono_seconds();
    for (auto& c : conns_) c->last_seen = now;
  }

  void run_in_process(JobRt& jr, bool degraded) {
    if (degraded) ++self_.dist_stats_.jobs_degraded;
    policy_.start(jr, batch_start_);
    while (!jr.finished) {
      sleep_until_ready(jr);
      if (shutting_down()) {
        end_attempt(jr, AttemptOutcome::kKilled, kShutdownMessage);
        return;
      }
      FlowAttemptRequest req;
      req.attempt = jr.attempt;
      req.resume = jr.ckpt;
      req.kill_flag = &self_.shutdown_requested_;
      req.on_checkpoint = [this, &jr](const FlowSnapshot& snap) {
        jr.ckpt = serialize_snapshot(snap);
        record_checkpoint_file(jr);
      };
      std::string error;
      const AttemptOutcome outcome = run_attempt(
          [&] { run_flow_attempt(opt_.service, req, *jr.result); }, &error);
      end_attempt(jr, outcome, error);
      // A retry re-enters this loop directly: the queue entry end_attempt()
      // pushed is for remote dispatch, which this job no longer gets.
      if (!jr.finished) {
        auto it = std::find(pending_.begin(), pending_.end(), jr.index);
        if (it != pending_.end()) pending_.erase(it);
      }
    }
  }

  void sleep_until_ready(JobRt& jr) {
    while (!shutting_down() && mono_seconds() < jr.ready_at)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
};

Coordinator::Coordinator(const CoordinatorOptions& opt) : opt_(opt) {
  impl_ = std::make_unique<Impl>(*this);
}

Coordinator::~Coordinator() { stop(); }

SocketAddr Coordinator::start() { return impl_->start(); }

std::vector<JobResult> Coordinator::run_batch(
    const std::vector<JobSpec>& specs) {
  return impl_->run_batch(specs);
}

void Coordinator::request_shutdown() {
  shutdown_requested_.store(true, std::memory_order_relaxed);
}

void Coordinator::stop() {
  if (impl_) impl_->stop();
}

ServiceStats Coordinator::stats() const { return impl_->policy_.stats(); }

}  // namespace repro
