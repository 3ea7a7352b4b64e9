#include "eco/session_manager.h"

#include <filesystem>

#include "serve/jsonl.h"
#include "serve/service.h"
#include "serve/snapshot.h"

namespace repro {
namespace {

/// The deterministic per-op fields every successful result line carries.
void counter_fields(JsonlWriter& w, const EcoDeltaResult& res) {
  w.field("chain", res.chain);
  w.field("crit_ns", res.crit_ns);
  w.field("wirelength", res.wirelength);
  w.field("deltas_applied", static_cast<std::int64_t>(res.deltas_applied));
  w.field("cache_hits", res.cache_hits);
  w.field("cache_misses", res.cache_misses);
}

}  // namespace

bool is_session_op_line(const std::string& line) {
  try {
    return parse_jsonl_object(line).count("op") > 0;
  } catch (const JsonlError&) {
    return false;
  }
}

SessionOp parse_session_op(const std::string& line) {
  const auto obj = parse_jsonl_object(line);
  SessionOp op;
  for (const auto& [key, v] : obj) {
    if (key == "op") op.op = json_string(v, key);
    else if (key == "session") op.session = json_string(v, key);
    else if (key == "from_checkpoint") op.from_checkpoint = json_string(v, key);
    else if (key == "circuit") op.circuit = json_string(v, key);
    else if (key == "scale") op.scale = json_number(v, key);
    else if (key == "seed") { op.seed = json_u64(v, key); op.has_seed = true; }
    else if (key == "variant") op.variant = json_string(v, key);
    else if (key == "placer") op.placer = json_string(v, key);
    else if (key == "route") op.route = json_bool(v, key);
    else if (key == "delta") {
      if (!parse_delta_kind(json_string(v, key), &op.delta.kind))
        throw EcoError("unknown delta kind '" + v.str + "'");
      op.has_delta = true;
    } else if (key == "cell") op.delta.cell = json_i32(v, key);
    else if (key == "x") op.delta.x = json_i32(v, key);
    else if (key == "y") op.delta.y = json_i32(v, key);
    else if (key == "function") op.delta.function = json_u64(v, key);
    else if (key == "registered") op.delta.registered = json_bool(v, key);
    else if (key == "pin") op.delta.pin = json_i32(v, key);
    else if (key == "net") op.delta.net = json_i32(v, key);
    else if (key == "wire_delay_per_unit")
      op.delta.wire_delay_per_unit = json_number(v, key);
    else if (key == "logic_delay") op.delta.logic_delay = json_number(v, key);
    else if (key == "io_delay") op.delta.io_delay = json_number(v, key);
    else if (key == "ff_delay") op.delta.ff_delay = json_number(v, key);
    else throw JsonlError("unknown session-op key \"" + key + "\"");
  }
  if (op.op.empty()) throw EcoError("session op needs an \"op\" key");
  if (!filename_safe(op.session))
    throw EcoError(
        "\"session\" must be a non-empty filename-safe string ([A-Za-z0-9._-])");
  return op;
}

SessionManager::SessionManager(SessionManagerOptions opt)
    : opt_(std::move(opt)) {
  if (!opt_.sessions_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(opt_.sessions_dir), ec);
    if (ec)
      throw EcoError("cannot create sessions dir " + opt_.sessions_dir + ": " +
                     ec.message());
  }
}

std::string SessionManager::session_path(const std::string& id) const {
  return opt_.sessions_dir + "/" + id + ".ecs";
}

void SessionManager::persist(const EcoSession& s) {
  if (opt_.sessions_dir.empty()) return;
  write_file_atomic(session_path(s.id()), s.serialize());
}

EcoSession* SessionManager::find(const std::string& id) {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

void SessionManager::checkpoint_all() {
  for (const auto& [id, s] : sessions_) persist(*s);
}

std::string SessionManager::handle_line(const std::string& line) {
  std::string opname = "?";
  std::string sid;
  try {
    const SessionOp op = parse_session_op(line);
    opname = op.op;
    sid = op.session;
    if (op.op == "open_session") return handle_open(op);
    if (op.op == "apply_delta") return handle_apply(op);
    if (op.op == "query") return handle_query(op);
    if (op.op == "close_session") return handle_close(op);
    throw EcoError("unknown op '" + op.op + "'");
  } catch (const std::exception& e) {
    JsonlWriter w;
    w.field("op", opname);
    if (!sid.empty()) w.field("session", sid);
    w.field("ok", false);
    w.field("error", std::string(e.what()));
    return w.take();
  }
}

std::string SessionManager::handle_open(const SessionOp& op) {
  if (find(op.session))
    throw EcoError("session '" + op.session + "' is already open");

  EcoSessionOptions sopt;
  sopt.audit = opt_.audit;
  sopt.cache = &cache_;

  std::unique_ptr<EcoSession> s;
  bool resumed = false;
  const std::string path =
      opt_.sessions_dir.empty() ? std::string() : session_path(op.session);
  if (!path.empty() &&
      std::filesystem::exists(std::filesystem::path(path))) {
    // A persisted file under this id wins over the spec on the line: the
    // stream is continuing a session an earlier server run left behind.
    std::string bytes;
    if (!read_file(path, &bytes))
      throw EcoError("eco session: cannot open " + path);
    s = EcoSession::resume(bytes, sopt);
    resumed = true;
  } else if (!op.from_checkpoint.empty()) {
    s = std::make_unique<EcoSession>(op.session,
                                     read_snapshot_file(op.from_checkpoint),
                                     sopt);
  } else {
    // Fresh flow run: the batch job's own place -> replicate attempt (no
    // route), so a session opened on (circuit, scale, seed, placer, variant)
    // starts from the base a batch job of that spec checkpoints.
    JobSpec spec;
    spec.id = "eco";
    spec.circuit = op.circuit;
    spec.scale = op.scale > 0 ? op.scale : opt_.base.scale;
    spec.seed = op.has_seed ? op.seed : opt_.base.seed;
    spec.variant = op.variant;
    spec.placer = op.placer;
    spec.route = false;
    const std::string invalid = validate_job_spec(spec);
    if (!invalid.empty()) throw EcoError(invalid);
    ServiceOptions service;
    service.base = opt_.base;
    std::string base;  // the attempt's last stage-boundary snapshot
    FlowAttemptRequest req;
    req.on_checkpoint = [&base](const FlowSnapshot& snap) {
      base = serialize_snapshot(snap);
    };
    JobResult result;
    result.spec = spec;
    run_flow_attempt(service, req, result);
    s = std::make_unique<EcoSession>(op.session, parse_snapshot(base), sopt);
  }

  // Persist before acknowledging: a crash after the open must resume this
  // exact base (and chain anchor), not re-run the flow.
  persist(*s);
  EcoSession* raw = s.get();
  sessions_.emplace(op.session, std::move(s));

  const EcoDeltaResult q = raw->query();
  JsonlWriter w;
  w.field("op", op.op);
  w.field("session", raw->id());
  w.field("ok", true);
  if (resumed) w.field("resumed", true);
  w.field("circuit", raw->circuit());
  w.field("base_checksum", raw->base_checksum());
  counter_fields(w, q);
  return w.take();
}

std::string SessionManager::handle_apply(const SessionOp& op) {
  EcoSession* s = find(op.session);
  if (!s) throw EcoError("unknown session '" + op.session + "'");
  if (!op.has_delta)
    throw EcoError("apply_delta needs a \"delta\" kind key");
  CancelToken token;
  token.set_kill_flag(opt_.kill_flag);
  const EcoDeltaResult res = s->apply(op.delta, &token);
  if (res.applied) {
    persist(*s);
    ++deltas_persisted_;
  }
  JsonlWriter w;
  w.field("op", op.op);
  w.field("session", s->id());
  w.field("ok", true);
  w.field("applied", res.applied);
  if (!res.reject.empty()) w.field("reject", res.reject);
  if (res.cache_hit) w.field("cache_hit", true);
  counter_fields(w, res);
  if (res.legalizer_moves > 0) w.field("legalizer_moves", res.legalizer_moves);
  if (res.cells_deleted > 0) w.field("cells_deleted", res.cells_deleted);
  if (res.audit_checks > 0) w.field("audit_checks", res.audit_checks);
  return w.take();
}

std::string SessionManager::handle_query(const SessionOp& op) {
  EcoSession* s = find(op.session);
  if (!s) throw EcoError("unknown session '" + op.session + "'");
  const EcoDeltaResult res = s->query();
  JsonlWriter w;
  w.field("op", op.op);
  w.field("session", s->id());
  w.field("ok", true);
  counter_fields(w, res);
  if (op.route) {
    CancelToken token;
    token.set_kill_flag(opt_.kill_flag);
    const CircuitMetrics m = s->routed_metrics(&token);
    w.field("crit_winf_ns", m.crit_winf);
    w.field("crit_wls_ns", m.crit_wls);
    w.field("routed_wirelength", static_cast<std::int64_t>(m.wirelength));
    w.field("wmin", m.wmin);
    w.field("blocks", static_cast<std::uint64_t>(m.blocks));
    w.field("fpga_n", m.fpga_n);
  }
  return w.take();
}

std::string SessionManager::handle_close(const SessionOp& op) {
  EcoSession* s = find(op.session);
  if (!s) throw EcoError("unknown session '" + op.session + "'");
  bool cold_ok = false;
  if (opt_.cold_audit) {
    // Paranoid mode: the whole journal must replay cold to the same bytes
    // and metrics before the session is allowed to close cleanly. On
    // disagreement the session stays open for inspection.
    const std::string err = s->cold_rebuild_audit();
    if (!err.empty()) throw EcoError(err);
    cold_ok = true;
  }
  persist(*s);
  const EcoDeltaResult q = s->query();
  JsonlWriter w;
  w.field("op", op.op);
  w.field("session", s->id());
  w.field("ok", true);
  if (cold_ok) w.field("cold_audit", "ok");
  counter_fields(w, q);
  sessions_.erase(op.session);
  return w.take();
}

}  // namespace repro
