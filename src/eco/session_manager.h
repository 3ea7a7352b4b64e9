#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "eco/session.h"
#include "flow/experiment.h"

namespace repro {

/// One parsed session-op line (the union of every op's keys; combinations
/// are validated per op). See examples/eco_session.jsonl.
struct SessionOp {
  std::string op;       ///< open_session | apply_delta | query | close_session
  std::string session;  ///< session id ([A-Za-z0-9._-])

  // open_session — either a checkpoint to restore ...
  std::string from_checkpoint;  ///< path to an .rps/.ckpt flow snapshot
  // ... or a flow spec to run as a batch job's attempt without routing
  // (generate -> place -> optionally replicate).
  std::string circuit;
  double scale = 0;  ///< 0 = inherit the manager's base config
  std::uint64_t seed = 0;
  bool has_seed = false;
  std::string variant = "none";  ///< replication variant or "none"
  std::string placer;            ///< "" = inherit the base backend

  // apply_delta
  Delta delta;
  bool has_delta = false;

  // query
  bool route = false;  ///< full routed metrics instead of incremental ones
};

/// Parses one session-op JSONL line (flat object; unknown keys rejected).
/// A line is a session op iff it has an "op" key — is_session_op_line() is
/// how the server tells session traffic from batch job specs. Throws
/// JsonlError on malformed JSON, EcoError on a bad op shape.
bool is_session_op_line(const std::string& line);
SessionOp parse_session_op(const std::string& line);

struct SessionManagerOptions {
  /// Directory for .ecs session files ("" = persistence off). Created if
  /// missing. Every applied delta re-persists its session, so a killed
  /// server resumes mid-stream; an open_session whose id already has a file
  /// here resumes it instead of opening fresh.
  std::string sessions_dir;
  /// Per-delta audit battery level inside every session.
  AuditLevel audit = AuditLevel::kOff;
  /// Run the cold-rebuild delta-chain audit on every close_session (and
  /// fail the close on disagreement). The paranoid mode of the ECO surface.
  bool cold_audit = false;
  /// Baseline flow configuration for open-from-spec sessions; its audit
  /// level runs the same stage audits as a batch job's.
  FlowConfig base;
  /// Test/CI hook simulating a crash: after this many *applied* deltas
  /// (process-wide, counted after the session file is persisted),
  /// crash_requested() turns true and the server exits 42 (0 = off).
  int crash_after_deltas = 0;
  /// Cooperative cancellation for mid-delta shutdown (the server's signal
  /// flag): checked between the structural mutation and the evaluation of
  /// every apply; a cancelled delta rolls back to the committed state.
  const std::atomic<bool>* kill_flag = nullptr;
};

/// Owns the live ECO sessions of a server process plus their shared result
/// cache, and maps session-op lines to result lines. handle_line() never
/// throws: every failure — a malformed line, an unknown session, a
/// cancelled or audit-failed delta, an unwritable sessions dir — comes back
/// as an {"ok":false,"error":...} line with the session (if any) still at
/// its last committed state.
class SessionManager {
 public:
  explicit SessionManager(SessionManagerOptions opt);

  /// Handles one session-op line; returns exactly one result line.
  std::string handle_line(const std::string& line);

  /// Persists every open session (graceful-shutdown path). No-op without a
  /// sessions dir.
  void checkpoint_all();

  std::size_t open_sessions() const { return sessions_.size(); }
  std::uint64_t deltas_persisted() const { return deltas_persisted_; }
  bool crash_requested() const {
    return opt_.crash_after_deltas > 0 &&
           deltas_persisted_ >=
               static_cast<std::uint64_t>(opt_.crash_after_deltas);
  }
  EcoResultCache& cache() { return cache_; }

 private:
  std::string session_path(const std::string& id) const;
  void persist(const EcoSession& s);
  std::string handle_open(const SessionOp& op);
  std::string handle_apply(const SessionOp& op);
  std::string handle_query(const SessionOp& op);
  std::string handle_close(const SessionOp& op);
  EcoSession* find(const std::string& id);

  SessionManagerOptions opt_;
  EcoResultCache cache_;
  /// Ordered map: checkpoint_all() persists in deterministic id order.
  std::map<std::string, std::unique_ptr<EcoSession>> sessions_;
  std::uint64_t deltas_persisted_ = 0;
};

}  // namespace repro
