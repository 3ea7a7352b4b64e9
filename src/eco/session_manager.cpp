#include "eco/session_manager.h"

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "gen/circuit_gen.h"
#include "place/placer.h"
#include "replicate/engine.h"
#include "serve/jsonl.h"
#include "serve/snapshot.h"
#include "util/rng.h"

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
  auto str = [](const JsonValue& v, const std::string& key) {
    if (v.kind != JsonValue::Kind::kString)
      throw JsonlError("key \"" + key + "\" must be a string");
    return v.str;
  };
  auto num = [](const JsonValue& v, const std::string& key) {
    if (v.kind != JsonValue::Kind::kNumber)
      throw JsonlError("key \"" + key + "\" must be a number");
    return v.num;
  };
  auto boolean = [](const JsonValue& v, const std::string& key) {
    if (v.kind != JsonValue::Kind::kBool)
      throw JsonlError("key \"" + key + "\" must be a boolean");
    return v.b;
  };
  auto u64 = [&num](const JsonValue& v, const std::string& key) {
    const double d = num(v, key);
    if (!(d >= 0) || !(d < 18446744073709551616.0) || d != std::floor(d))
      throw JsonlError("key \"" + key +
                       "\" must be a non-negative integer < 2^64");
    return static_cast<std::uint64_t>(d);
  };
  auto i32 = [&num](const JsonValue& v, const std::string& key) {
    const double d = num(v, key);
    if (!(d >= -2147483648.0) || !(d <= 2147483647.0) || d != std::floor(d))
      throw JsonlError("key \"" + key + "\" must be a 32-bit integer");
    return static_cast<std::int32_t>(d);
  };
  for (const auto& [key, v] : obj) {
    if (key == "op") op.op = str(v, key);
    else if (key == "session") op.session = str(v, key);
    else if (key == "from_checkpoint") op.from_checkpoint = str(v, key);
    else if (key == "circuit") op.circuit = str(v, key);
    else if (key == "scale") op.scale = num(v, key);
    else if (key == "seed") { op.seed = u64(v, key); op.has_seed = true; }
    else if (key == "variant") op.variant = str(v, key);
    else if (key == "placer") op.placer = str(v, key);
    else if (key == "route") op.route = boolean(v, key);
    else if (key == "delta") {
      if (!parse_delta_kind(str(v, key), &op.delta.kind))
        throw EcoError("unknown delta kind '" + v.str + "'");
      op.has_delta = true;
    } else if (key == "cell") op.delta.cell = i32(v, key);
    else if (key == "x") op.delta.x = i32(v, key);
    else if (key == "y") op.delta.y = i32(v, key);
    else if (key == "function") op.delta.function = u64(v, key);
    else if (key == "registered") op.delta.registered = boolean(v, key);
    else if (key == "pin") op.delta.pin = i32(v, key);
    else if (key == "net") op.delta.net = i32(v, key);
    else if (key == "wire_delay_per_unit")
      op.delta.wire_delay_per_unit = num(v, key);
    else if (key == "logic_delay") op.delta.logic_delay = num(v, key);
    else if (key == "io_delay") op.delta.io_delay = num(v, key);
    else if (key == "ff_delay") op.delta.ff_delay = num(v, key);
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
    // Fresh flow run: generate -> place -> (optionally) replicate, the same
    // recipe and RNG discipline as a batch job, so a session opened on
    // (circuit, scale, seed, placer, variant) is deterministic.
    const McncCircuit* c = find_mcnc_circuit(op.circuit);
    if (!c) throw EcoError("unknown circuit '" + op.circuit + "'");
    EmbedVariant variant = EmbedVariant::kRtEmbedding;
    if (op.variant != "none" && !parse_variant(op.variant, &variant))
      throw EcoError("unknown variant '" + op.variant + "'");
    FlowConfig cfg = opt_.base;
    if (op.scale > 0) cfg.scale = op.scale;
    if (op.has_seed) cfg.seed = op.seed;
    if (!op.placer.empty() && !parse_placer_backend(op.placer, &cfg.placer))
      throw EcoError("unknown placer '" + op.placer + "'");

    FlowSnapshot snap;
    snap.job_id = op.session;
    snap.circuit = op.circuit;
    snap.variant = op.variant;
    snap.cfg = cfg;
    Rng rng(cfg.seed);
    snap.nl = std::make_unique<Netlist>(
        generate_circuit(spec_for(*c, cfg.scale, cfg.seed)));
    snap.grid_n = FpgaGrid::min_grid_for(
        snap.nl->num_logic(),
        snap.nl->num_input_pads() + snap.nl->num_output_pads());
    snap.grid = std::make_unique<FpgaGrid>(snap.grid_n, snap.grid_io_rat);
    PlacerOptions popt;
    popt.backend = cfg.placer;
    popt.annealer = cfg.annealer;
    popt.annealer.seed = rng.next_u64();
    popt.analytic = cfg.analytic;
    snap.pl = std::make_unique<Placement>(
        place_circuit(*snap.nl, *snap.grid, cfg.delay, popt));
    if (op.variant != "none") {
      EngineOptions eopt;
      eopt.variant = variant;
      eopt.num_threads = 1;
      run_replication_engine(*snap.nl, *snap.pl, cfg.delay, eopt);
    }
    snap.rng_state = rng.state();
    snap.stage = FlowStage::kReplicated;
    s = std::make_unique<EcoSession>(op.session, std::move(snap), sopt);
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
