#include "dist/worker.h"

#include <unistd.h>

#include <sys/socket.h>

#include <chrono>
#include <mutex>
#include <thread>

#include "dist/protocol.h"
#include "serve/snapshot.h"
#include "util/log.h"

namespace repro {
namespace {

/// Stage-boundary checkpoints are named by the stage that just completed.
const char* checkpoint_stage_name(FlowStage s) {
  switch (s) {
    case FlowStage::kPlaced: return "place";
    case FlowStage::kReplicated: return "replicate";
    case FlowStage::kRouted: return "route";
    default: return "";
  }
}

/// Non-std exceptions on purpose: run_attempt classifies std::exception
/// subtypes as job outcomes, and an injected worker death or a lost
/// coordinator is not a job failure — it must unwind past every
/// catch(std::exception) untouched.
struct ConnLost {};
struct KillInjected {};

/// Mutable one-shot state of a FaultPlan, shared across reconnects of the
/// same worker so "the 3rd data frame" means the 3rd this worker ever sent,
/// not the 3rd since the last reconnect.
struct FaultState {
  int data_frames_sent = 0;
  int hang_seen = 0;
  int kill_seen = 0;
  bool drop_done = false;
  bool corrupt_done = false;
  bool hang_done = false;
};

enum class SessionEnd { kShutdown, kStopped, kLost, kKilled };

class Session {
 public:
  Session(int fd, const WorkerOptions& opt, const std::atomic<bool>* stop,
          FaultState& fault, WorkerStats& stats)
      : fd_(fd), opt_(opt), stop_(stop), fault_(fault), stats_(stats) {}

  SessionEnd run() {
    SessionEnd end = SessionEnd::kLost;
    try {
      send_frame(kFrameHello,
                 encode_hello({kProtocolVersion,
                               static_cast<std::uint64_t>(::getpid())}));
      start_heartbeats();
      end = read_loop();
    } catch (const ConnLost&) {
      end = SessionEnd::kLost;
    } catch (const FrameError& e) {
      LOG_WARN() << "worker: dropping connection: " << e.what();
      end = SessionEnd::kLost;
    } catch (const KillInjected&) {
      end = SessionEnd::kKilled;
    }
    stop_heartbeats();
    return end;
  }

 private:
  bool stopped() const {
    return stop_ && stop_->load(std::memory_order_relaxed);
  }

  SessionEnd read_loop() {
    FrameDecoder decoder;
    char buf[64 * 1024];
    while (!stopped()) {
      std::vector<PollFd> fds(1);
      fds[0].fd = fd_;
      poll_wait(fds, 100);
      if (fds[0].closed) return SessionEnd::kLost;
      if (!fds[0].readable) continue;
      const long n = recv_bytes(fd_, buf, sizeof buf);
      if (n == 0 || n == -2) return SessionEnd::kLost;
      if (n < 0) continue;
      decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      Frame f;
      while (decoder.next(&f)) {
        switch (f.tag) {
          case kFrameHelloAck:
            decode_hello_ack(f.payload);  // nothing to keep yet; validates
            break;
          case kFrameAssign:
            handle_assign(decode_assign(f.payload));
            break;
          case kFrameShutdown:
            return SessionEnd::kShutdown;
          default:
            // Unknown tag from a newer coordinator: skippable by design.
            break;
        }
      }
    }
    return SessionEnd::kStopped;
  }

  void handle_assign(AssignMsg am) {
    ++stats_.jobs_run;
    JobResult out;
    out.spec = std::move(am.spec);
    FlowAttemptRequest req;
    req.attempt = static_cast<int>(am.attempt);
    req.resume = std::move(am.snapshot);
    req.kill_flag = stop_;
    req.on_checkpoint = [this, &am](const FlowSnapshot& snap) {
      stream_checkpoint(am.job_index, snap);
    };
    // ConnLost / KillInjected unwind past run_attempt: there is nobody to
    // report to (or we are dying); the coordinator reassigns from the last
    // checkpoint.
    std::string error;
    const AttemptOutcome outcome =
        run_attempt([&] { run_flow_attempt(opt_.service, req, out); }, &error);
    send_frame(kFrameResult, encode_result(result_msg_from(
                                 out, am.job_index, am.attempt, outcome,
                                 error)));
  }

  void stream_checkpoint(std::uint32_t job_index, const FlowSnapshot& snap) {
    CheckpointMsg cm;
    cm.job_index = job_index;
    cm.stage = static_cast<std::uint8_t>(snap.stage);
    cm.snapshot = serialize_snapshot(snap);
    send_frame(kFrameCheckpoint, encode_checkpoint(cm));
    ++stats_.checkpoints_sent;

    const char* stage = checkpoint_stage_name(snap.stage);
    const FaultPlan& plan = opt_.fault;
    if (!plan.kill_stage.empty() && plan.kill_stage == stage &&
        ++fault_.kill_seen == plan.kill_nth) {
      // The checkpoint frame above is already on the wire: the coordinator
      // has everything it needs to resume this exact boundary elsewhere.
      if (opt_.process_mode) ::_exit(9);
      throw KillInjected{};
    }
    if (!fault_.hang_done && !plan.hang_stage.empty() &&
        plan.hang_stage == stage && ++fault_.hang_seen == plan.hang_nth) {
      fault_.hang_done = true;
      hang();
      throw ConnLost{};  // abandon the job; rejoin as a fresh worker
    }
  }

  /// Goes silent: heartbeats off, no frames, connection left open — the
  /// worst liveness case (a live TCP peer that stopped making progress),
  /// detectable only by the coordinator's heartbeat deadline.
  void hang() {
    hb_enabled_.store(false, std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    while (!stopped()) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (elapsed >= opt_.hang_max_s) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  /// Serializes every frame onto the socket (the heartbeat thread and the
  /// job thread share it) and applies the send-side fault hooks. Throws
  /// ConnLost when a data frame cannot be delivered; heartbeat failures are
  /// swallowed (the reader notices the dead peer).
  void send_frame(std::uint32_t tag, const std::string& payload) {
    std::lock_guard<std::mutex> lock(send_mu_);
    std::string bytes = encode_frame(tag, payload);
    const bool data = tag != kFrameHeartbeat;
    bool drop_now = false;
    if (data) {
      ++fault_.data_frames_sent;
      ++stats_.frames_sent;
      const FaultPlan& plan = opt_.fault;
      if (!fault_.corrupt_done && plan.corrupt_frame > 0 &&
          fault_.data_frames_sent == plan.corrupt_frame) {
        fault_.corrupt_done = true;
        // Flip one payload byte AFTER framing, so the checksum no longer
        // matches and the receiver's FrameError path fires.
        bytes[kFrameHeaderBytes + payload.size() / 2] ^=
            static_cast<char>(0x5a);
      }
      if (!fault_.drop_done && plan.drop_after_frames > 0 &&
          fault_.data_frames_sent == plan.drop_after_frames) {
        fault_.drop_done = true;
        drop_now = true;
      }
    }
    const bool ok = send_all(fd_, bytes.data(), bytes.size());
    if (drop_now) {
      ::shutdown(fd_, SHUT_RDWR);
      throw ConnLost{};
    }
    if (!ok && data) throw ConnLost{};
  }

  void start_heartbeats() {
    hb_stop_.store(false, std::memory_order_relaxed);
    hb_enabled_.store(true, std::memory_order_relaxed);
    hb_thread_ = std::thread([this] {
      std::uint64_t seq = 0;
      const auto interval =
          std::chrono::duration<double>(opt_.heartbeat_interval_s);
      auto next = std::chrono::steady_clock::now();
      while (!hb_stop_.load(std::memory_order_relaxed)) {
        if (std::chrono::steady_clock::now() >= next) {
          if (hb_enabled_.load(std::memory_order_relaxed))
            send_frame(kFrameHeartbeat, encode_heartbeat({seq++}));
          next = std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<
                     std::chrono::steady_clock::duration>(interval);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }

  void stop_heartbeats() {
    hb_stop_.store(true, std::memory_order_relaxed);
    if (hb_thread_.joinable()) hb_thread_.join();
  }

  int fd_;
  const WorkerOptions& opt_;
  const std::atomic<bool>* stop_;
  FaultState& fault_;
  WorkerStats& stats_;
  std::mutex send_mu_;
  std::thread hb_thread_;
  std::atomic<bool> hb_stop_{false};
  std::atomic<bool> hb_enabled_{true};
};

}  // namespace

bool parse_fault_plan(const std::string& spec, FaultPlan* out,
                      std::string* err) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string hook = spec.substr(pos, end - pos);
    pos = end + 1;
    if (hook.empty()) continue;
    const std::size_t eq = hook.find('=');
    if (eq == std::string::npos) {
      *err = "fault hook '" + hook + "' needs '=value'";
      return false;
    }
    const std::string name = hook.substr(0, eq);
    const std::string value = hook.substr(eq + 1);
    auto parse_count = [&](const std::string& v, int* n) {
      char* rest = nullptr;
      const long parsed = std::strtol(v.c_str(), &rest, 10);
      if (!rest || *rest != '\0' || parsed <= 0) {
        *err = "fault hook '" + name + "' needs a positive integer, got '" +
               v + "'";
        return false;
      }
      *n = static_cast<int>(parsed);
      return true;
    };
    auto parse_stage = [&](const std::string& v, std::string* stage, int* nth) {
      std::string s = v;
      *nth = 1;
      const std::size_t colon = v.find(':');
      if (colon != std::string::npos) {
        s = v.substr(0, colon);
        if (!parse_count(v.substr(colon + 1), nth)) return false;
      }
      if (s.empty() || !stage_name_valid(s)) {
        *err = "fault hook '" + name + "' needs place|replicate|route, got '" +
               s + "'";
        return false;
      }
      *stage = s;
      return true;
    };
    if (name == "drop_connection_after_frames") {
      if (!parse_count(value, &plan.drop_after_frames)) return false;
    } else if (name == "corrupt_frame") {
      if (!parse_count(value, &plan.corrupt_frame)) return false;
    } else if (name == "hang_worker") {
      if (!parse_stage(value, &plan.hang_stage, &plan.hang_nth)) return false;
    } else if (name == "kill_worker_at_stage") {
      if (!parse_stage(value, &plan.kill_stage, &plan.kill_nth)) return false;
    } else {
      *err = "unknown fault hook '" + name + "'";
      return false;
    }
  }
  *out = plan;
  return true;
}

int run_worker(const WorkerOptions& opt, const std::atomic<bool>* stop,
               WorkerStats* stats_out) {
  WorkerStats stats;
  FaultState fault;
  auto stopped = [&] { return stop && stop->load(std::memory_order_relaxed); };

  int rc = 0;
  int attempts_left = opt.max_reconnect_attempts;
  double backoff = opt.reconnect_initial_s;
  bool connected_before = false;
  while (!stopped()) {
    std::string err;
    UniqueFd fd = connect_socket(opt.connect, &err);
    if (!fd.valid()) {
      if (--attempts_left < 0) {
        LOG_WARN() << "worker: giving up after "
                   << opt.max_reconnect_attempts
                   << " reconnect attempts: " << err;
        rc = 1;
        break;
      }
      // Sleep in slices so a shutdown request is honoured promptly.
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             std::chrono::duration<double>(backoff));
      while (!stopped() && std::chrono::steady_clock::now() < until)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      backoff = std::min(backoff * 2, opt.reconnect_max_s);
      continue;
    }
    attempts_left = opt.max_reconnect_attempts;
    backoff = opt.reconnect_initial_s;
    if (connected_before) ++stats.reconnects;
    connected_before = true;

    Session session(fd.get(), opt, stop, fault, stats);
    const SessionEnd end = session.run();
    if (end == SessionEnd::kShutdown || end == SessionEnd::kStopped) {
      rc = 0;
      break;
    }
    if (end == SessionEnd::kKilled) {
      rc = 9;
      break;
    }
    // SessionEnd::kLost: reconnect with a fresh backoff run.
  }
  if (stats_out) *stats_out = stats;
  return rc;
}

}  // namespace repro
