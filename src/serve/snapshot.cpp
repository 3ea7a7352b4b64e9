#include "serve/snapshot.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "serve/wire.h"

namespace repro {
namespace {

// Byte I/O primitives and the checksummed envelope live in serve/wire.h,
// shared with the eco session format (same layout, different magic).

constexpr char kMagic[4] = {'R', 'P', 'S', '1'};

// ---- id helpers -------------------------------------------------------------

template <typename Tag>
void put_id(ByteWriter& w, Id<Tag> id) {
  w.i32(id.value());
}

template <typename IdT>
IdT get_id(ByteReader& r) {
  return IdT(r.i32());
}

}  // namespace

// ---- private-state access (friend of Netlist and Placement) -----------------

struct SnapshotAccess {
  static void save(const Netlist& nl, ByteWriter& w) {
    w.u64(nl.cells_.size());
    for (const Cell& c : nl.cells_) {
      w.u8(static_cast<std::uint8_t>(c.kind));
      w.str(c.name);
      w.u64(c.inputs.size());
      for (NetId n : c.inputs) put_id(w, n);
      put_id(w, c.output);
      w.u64(c.function);
      w.boolean(c.registered);
      put_id(w, c.eq_class);
      w.boolean(c.alive);
    }
    w.u64(nl.nets_.size());
    for (const Net& n : nl.nets_) {
      w.str(n.name);
      put_id(w, n.driver);
      w.u64(n.sinks.size());
      for (const Sink& s : n.sinks) {
        put_id(w, s.cell);
        w.i32(s.pin);
      }
      w.boolean(n.alive);
    }
    w.u64(nl.eq_classes_.size());
    for (const auto& members : nl.eq_classes_) {
      w.u64(members.size());
      for (CellId c : members) put_id(w, c);
    }
    w.u64(nl.num_live_cells_);
  }

  static Netlist load_netlist(ByteReader& r) {
    Netlist nl;
    nl.cells_.resize(r.count(24));
    for (Cell& c : nl.cells_) {
      const std::uint8_t kind = r.u8();
      if (kind > static_cast<std::uint8_t>(CellKind::kOutputPad))
        throw SnapshotError("snapshot: invalid cell kind " + std::to_string(kind));
      c.kind = static_cast<CellKind>(kind);
      c.name = r.str();
      c.inputs.resize(r.count(4));
      for (NetId& n : c.inputs) n = get_id<NetId>(r);
      c.output = get_id<NetId>(r);
      c.function = r.u64();
      c.registered = r.boolean();
      c.eq_class = get_id<EqClassId>(r);
      c.alive = r.boolean();
    }
    nl.nets_.resize(r.count(21));
    for (Net& n : nl.nets_) {
      n.name = r.str();
      n.driver = get_id<CellId>(r);
      n.sinks.resize(r.count(8));
      for (Sink& s : n.sinks) {
        s.cell = get_id<CellId>(r);
        s.pin = r.i32();
      }
      n.alive = r.boolean();
    }
    nl.eq_classes_.resize(r.count(8));
    for (auto& members : nl.eq_classes_) {
      members.resize(r.count(4));
      for (CellId& c : members) c = get_id<CellId>(r);
    }
    nl.num_live_cells_ = r.u64();
    const std::string err = nl.validate();
    if (!err.empty()) throw SnapshotError("snapshot: invalid netlist: " + err);
    return nl;
  }

  static void save(const Placement& pl, ByteWriter& w) {
    w.u64(pl.loc_.size());
    for (std::size_t i = 0; i < pl.loc_.size(); ++i) {
      w.i32(pl.loc_[i].x);
      w.i32(pl.loc_[i].y);
      w.boolean(pl.placed_[i]);
    }
    w.u64(pl.occupants_.size());
    for (const auto& occ : pl.occupants_) {
      w.u64(occ.size());
      for (CellId c : occ) put_id(w, c);
    }
  }

  static void load_into(Placement& pl, ByteReader& r) {
    const std::size_t num_cells = r.count(9);
    if (num_cells != pl.loc_.size())
      throw SnapshotError("snapshot: placement cell count mismatch");
    for (std::size_t i = 0; i < num_cells; ++i) {
      pl.loc_[i].x = r.i32();
      pl.loc_[i].y = r.i32();
      pl.placed_[i] = r.boolean() ? 1 : 0;
      // A placed coordinate is an index into the occupant grid (slot_at);
      // accepting an out-of-array point would corrupt every later lookup.
      if (pl.placed_[i] && !pl.grid_->in_array(pl.loc_[i]))
        throw SnapshotError("snapshot: placed cell outside the grid array");
    }
    const std::size_t num_slots = r.count(8);
    if (num_slots != pl.occupants_.size())
      throw SnapshotError("snapshot: placement slot count mismatch");
    for (auto& occ : pl.occupants_) {
      occ.resize(r.count(4));
      for (CellId& c : occ) {
        c = get_id<CellId>(r);
        if (c.value() < 0 || c.index() >= num_cells)
          throw SnapshotError("snapshot: occupant cell id out of range");
      }
    }
  }
};

namespace {

// ---- config / metrics blocks ------------------------------------------------

void save_config(const FlowConfig& cfg, ByteWriter& w) {
  w.f64(cfg.scale);
  // Placement backend + analytic knobs (format v2). Everything that affects
  // the deterministic trajectory is serialized. num_threads is written too
  // (last field) although it never changes results: run_flow_attempt
  // overwrites it on resume and normalize_base pins it to 1 in ECO bases.
  // The cancel pointers and the audit level are process-local, not written.
  w.u8(static_cast<std::uint8_t>(cfg.placer));
  const AnalyticPlacerOptions& ap = cfg.analytic;
  w.i32(ap.max_iterations);
  w.i32(ap.min_iterations);
  w.f64(ap.target_overflow);
  w.f64(ap.learning_rate);
  w.f64(ap.beta1);
  w.f64(ap.beta2);
  w.f64(ap.gamma);
  w.f64(ap.gamma_max_fraction);
  w.f64(ap.density_weight_initial);
  w.f64(ap.density_weight_mult);
  w.i32(ap.blur_radius);
  w.i32(ap.blur_passes);
  w.i32(ap.reweight_interval);
  w.f64(ap.crit_weight);
  w.f64(ap.crit_exponent);
  w.f64(ap.reweight_start_overflow);
  w.u64(ap.seed);
  w.f64(cfg.annealer.lambda);
  w.f64(cfg.annealer.max_crit_exponent);
  w.f64(cfg.annealer.inner_num);
  w.boolean(cfg.annealer.timing_driven);
  w.u64(cfg.annealer.seed);
  w.f64(cfg.delay.wire_delay_per_unit);
  w.f64(cfg.delay.logic_delay);
  w.f64(cfg.delay.io_delay);
  w.f64(cfg.delay.ff_delay);
  const RouterOptions& r = cfg.router;
  w.i32(r.channel_width);
  w.i32(r.max_iterations);
  w.f64(r.present_factor_initial);
  w.f64(r.present_factor_mult);
  w.f64(r.history_increment);
  w.boolean(r.use_astar);
  w.f64(r.astar_factor);
  w.boolean(r.incremental_reroute);
  w.f64(r.incremental_iterations_mult);
  w.boolean(r.warm_start_wmin);
  w.f64(r.warm_history_decay);
  w.i32(r.stall_abort_window);
  w.i32(r.stall_abort_min_overused);
  w.i64(r.max_expansions_per_connection);
  w.boolean(r.self_check);
  w.boolean(r.verify_lookahead);
  // RouterOptions::cancel and AnnealerOptions::cancel are process-local
  // pointers and are deliberately not serialized.
  w.f64(cfg.router_crit_exponent);
  w.boolean(cfg.route_lowstress);
  w.u64(cfg.seed);
  w.i32(cfg.num_threads);
}

FlowConfig load_config(ByteReader& r) {
  FlowConfig cfg;
  cfg.scale = r.f64_finite("config.scale");
  const std::uint8_t placer = r.u8();
  if (placer > static_cast<std::uint8_t>(PlacerBackend::kHybrid))
    throw SnapshotError("snapshot: invalid placer backend " +
                        std::to_string(placer));
  cfg.placer = static_cast<PlacerBackend>(placer);
  AnalyticPlacerOptions& ap = cfg.analytic;
  ap.max_iterations = r.i32();
  ap.min_iterations = r.i32();
  ap.target_overflow = r.f64_finite("analytic.target_overflow");
  ap.learning_rate = r.f64_finite("analytic.learning_rate");
  ap.beta1 = r.f64_finite("analytic.beta1");
  ap.beta2 = r.f64_finite("analytic.beta2");
  ap.gamma = r.f64_finite("analytic.gamma");
  ap.gamma_max_fraction = r.f64_finite("analytic.gamma_max_fraction");
  ap.density_weight_initial = r.f64_finite("analytic.density_weight_initial");
  ap.density_weight_mult = r.f64_finite("analytic.density_weight_mult");
  ap.blur_radius = r.i32();
  ap.blur_passes = r.i32();
  ap.reweight_interval = r.i32();
  ap.crit_weight = r.f64_finite("analytic.crit_weight");
  ap.crit_exponent = r.f64_finite("analytic.crit_exponent");
  ap.reweight_start_overflow = r.f64_finite("analytic.reweight_start_overflow");
  ap.seed = r.u64();
  cfg.annealer.lambda = r.f64_finite("annealer.lambda");
  cfg.annealer.max_crit_exponent = r.f64_finite("annealer.max_crit_exponent");
  cfg.annealer.inner_num = r.f64_finite("annealer.inner_num");
  cfg.annealer.timing_driven = r.boolean();
  cfg.annealer.seed = r.u64();
  cfg.delay.wire_delay_per_unit = r.f64_finite("delay.wire_delay_per_unit");
  cfg.delay.logic_delay = r.f64_finite("delay.logic_delay");
  cfg.delay.io_delay = r.f64_finite("delay.io_delay");
  cfg.delay.ff_delay = r.f64_finite("delay.ff_delay");
  RouterOptions& ro = cfg.router;
  ro.channel_width = r.i32();
  ro.max_iterations = r.i32();
  ro.present_factor_initial = r.f64_finite("router.present_factor_initial");
  ro.present_factor_mult = r.f64_finite("router.present_factor_mult");
  ro.history_increment = r.f64_finite("router.history_increment");
  ro.use_astar = r.boolean();
  ro.astar_factor = r.f64_finite("router.astar_factor");
  ro.incremental_reroute = r.boolean();
  ro.incremental_iterations_mult = r.f64_finite("router.incremental_iterations_mult");
  ro.warm_start_wmin = r.boolean();
  ro.warm_history_decay = r.f64_finite("router.warm_history_decay");
  ro.stall_abort_window = r.i32();
  ro.stall_abort_min_overused = r.i32();
  ro.max_expansions_per_connection = r.i64();
  ro.self_check = r.boolean();
  ro.verify_lookahead = r.boolean();
  cfg.router_crit_exponent = r.f64_finite("config.router_crit_exponent");
  cfg.route_lowstress = r.boolean();
  cfg.seed = r.u64();
  cfg.num_threads = r.i32();
  return cfg;
}

}  // namespace

void wire_save_metrics(const CircuitMetrics& m, ByteWriter& w) {
  w.str(m.circuit);
  w.f64(m.crit_winf);
  w.f64(m.crit_wls);
  w.i64(m.wirelength);
  w.i32(m.wmin);
  w.u64(m.luts);
  w.u64(m.ios);
  w.u64(m.blocks);
  w.i32(m.fpga_n);
  w.f64(m.density);
  w.f64(m.route_seconds);
  w.u64(m.route_nodes_expanded);
  w.u64(m.route_passes);
  w.u64(m.embed_region_truncations);
}

CircuitMetrics wire_load_metrics(ByteReader& r) {
  CircuitMetrics m;
  m.circuit = r.str();
  m.crit_winf = r.f64_finite("metrics.crit_winf");
  m.crit_wls = r.f64_finite("metrics.crit_wls");
  m.wirelength = r.i64();
  m.wmin = r.i32();
  m.luts = r.u64();
  m.ios = r.u64();
  m.blocks = r.u64();
  m.fpga_n = r.i32();
  m.density = r.f64_finite("metrics.density");
  m.route_seconds = r.f64_finite("metrics.route_seconds");
  m.route_nodes_expanded = r.u64();
  m.route_passes = r.u64();
  m.embed_region_truncations = r.u64();
  return m;
}

void wire_save_engine(const EngineSummary& e, ByteWriter& w) {
  w.boolean(e.ran);
  w.f64(e.initial_critical);
  w.f64(e.final_critical);
  w.f64(e.initial_wirelength);
  w.f64(e.final_wirelength);
  w.i64(e.initial_blocks);
  w.i64(e.final_blocks);
  w.i32(e.total_replicated);
  w.i32(e.total_unified);
  w.i32(e.iterations);
  w.boolean(e.ran_out_of_slots);
  w.boolean(e.reached_lower_bound);
  w.f64(e.lower_bound);
  w.u64(e.region_truncations);
}

EngineSummary wire_load_engine(ByteReader& r) {
  EngineSummary e;
  e.ran = r.boolean();
  e.initial_critical = r.f64_finite("engine.initial_critical");
  e.final_critical = r.f64_finite("engine.final_critical");
  e.initial_wirelength = r.f64_finite("engine.initial_wirelength");
  e.final_wirelength = r.f64_finite("engine.final_wirelength");
  e.initial_blocks = r.i64();
  e.final_blocks = r.i64();
  e.total_replicated = r.i32();
  e.total_unified = r.i32();
  e.iterations = r.i32();
  e.ran_out_of_slots = r.boolean();
  e.reached_lower_bound = r.boolean();
  e.lower_bound = r.f64_finite("engine.lower_bound");
  e.region_truncations = r.u64();
  return e;
}

const char* flow_stage_name(FlowStage s) {
  switch (s) {
    case FlowStage::kInit: return "init";
    case FlowStage::kPlaced: return "placed";
    case FlowStage::kReplicated: return "replicated";
    case FlowStage::kRouted: return "routed";
  }
  return "?";
}

std::string serialize_snapshot(const FlowSnapshot& s) {
  ByteWriter w;
  w.str(s.job_id);
  w.str(s.circuit);
  w.str(s.variant);
  w.u8(static_cast<std::uint8_t>(s.stage));
  save_config(s.cfg, w);
  for (std::uint64_t x : s.rng_state) w.u64(x);
  w.i32(s.grid_n);
  w.i32(s.grid_io_rat);
  const bool has_state = s.nl != nullptr;
  w.boolean(has_state);
  if (has_state) {
    if (!s.pl) throw SnapshotError("snapshot: netlist without placement");
    SnapshotAccess::save(*s.nl, w);
    SnapshotAccess::save(*s.pl, w);
  }
  w.f64(s.place_seconds);
  w.f64(s.replicate_seconds);
  wire_save_engine(s.engine, w);
  w.boolean(s.has_metrics);
  if (s.has_metrics) wire_save_metrics(s.metrics, w);
  w.i32(s.audit_checks);

  return wire_envelope(kMagic, kSnapshotVersion, w.take());
}

FlowSnapshot parse_snapshot(std::string_view bytes) try {
  const std::string_view payload =
      parse_wire_envelope(bytes, kMagic, kSnapshotVersion, "snapshot");

  ByteReader r(payload);
  FlowSnapshot s;
  s.job_id = r.str();
  s.circuit = r.str();
  s.variant = r.str();
  const std::uint8_t stage = r.u8();
  if (stage > static_cast<std::uint8_t>(FlowStage::kRouted))
    throw SnapshotError("snapshot: invalid stage marker");
  s.stage = static_cast<FlowStage>(stage);
  s.cfg = load_config(r);
  for (std::uint64_t& x : s.rng_state) x = r.u64();
  s.grid_n = r.i32();
  s.grid_io_rat = r.i32();
  if (r.boolean()) {
    if (s.grid_n <= 0) throw SnapshotError("snapshot: placement without grid");
    // Grid dimensions come from the file and size (n+2)^2 allocations; cap
    // them far above any real design but far below an OOM-as-a-service.
    constexpr int kMaxGridN = 1 << 14;
    constexpr int kMaxIoRat = 1 << 10;
    if (s.grid_n > kMaxGridN)
      throw SnapshotError("snapshot: implausible grid size " +
                          std::to_string(s.grid_n));
    if (s.grid_io_rat <= 0 || s.grid_io_rat > kMaxIoRat)
      throw SnapshotError("snapshot: implausible io_rat " +
                          std::to_string(s.grid_io_rat));
    s.nl = std::make_unique<Netlist>(SnapshotAccess::load_netlist(r));
    s.grid = std::make_unique<FpgaGrid>(s.grid_n, s.grid_io_rat);
    s.pl = std::make_unique<Placement>(*s.nl, *s.grid);
    SnapshotAccess::load_into(*s.pl, r);
  }
  s.place_seconds = r.f64_finite("place_seconds");
  s.replicate_seconds = r.f64_finite("replicate_seconds");
  s.engine = wire_load_engine(r);
  s.has_metrics = r.boolean();
  if (s.has_metrics) s.metrics = wire_load_metrics(r);
  // Appended after the format shipped; absent in older snapshots, which
  // predate the counter and resume with it at zero.
  s.audit_checks = r.exhausted() ? 0 : r.i32();
  if (!r.exhausted()) throw SnapshotError("snapshot: trailing bytes");
  return s;
} catch (const WireError& e) {
  // Reader-level truncation/corruption surfaces as the format's error type,
  // message-compatible with the pre-wire.h parser.
  throw SnapshotError(std::string("snapshot: ") + e.what());
}

void write_file_atomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) throw SnapshotError("snapshot: cannot open " + tmp + " for writing");
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    throw SnapshotError("snapshot: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SnapshotError("snapshot: cannot rename " + tmp + " to " + path);
  }
}

bool read_file(const std::string& path, std::string* bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  bytes->clear();
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes->append(buf, n);
  const bool read_err = std::ferror(f) != 0;
  std::fclose(f);
  if (read_err) bytes->clear();
  return !read_err;
}

bool filename_safe(const std::string& id) {
  if (id.empty() || id.size() > 128) return false;
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

void write_snapshot_file(const FlowSnapshot& s, const std::string& path) {
  write_file_atomic(path, serialize_snapshot(s));
}

FlowSnapshot read_snapshot_file(const std::string& path) {
  std::string bytes;
  if (!read_file(path, &bytes))
    throw SnapshotError("snapshot: cannot open " + path);
  try {
    return parse_snapshot(bytes);
  } catch (const SnapshotError& e) {
    throw SnapshotError(path + ": " + e.what());
  }
}

}  // namespace repro
