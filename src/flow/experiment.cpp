#include "flow/experiment.h"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <utility>
#include <vector>

#include "timing/timing_engine.h"
#include "timing/timing_graph.h"
#include "util/log.h"
#include "util/mem.h"
#include "util/stats.h"

namespace repro {
namespace {

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

}  // namespace

bool parse_double(const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool parse_long(const char* s, long* out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

// A malformed or out-of-range knob degrades to the default instead of
// silently zeroing a scale or aborting a batch.
double env_double(const char* name, double fallback, double min_exclusive) {
  const char* s = std::getenv(name);
  double v = 0;
  if (!s || !parse_double(s, &v) || v <= min_exclusive) return fallback;
  return v;
}

long env_long(const char* name, long fallback, long min_inclusive) {
  const char* s = std::getenv(name);
  long v = 0;
  if (!s || !parse_long(s, &v) || v < min_inclusive) return fallback;
  return v;
}

FlowConfig config_from_env() {
  FlowConfig cfg;
  cfg.scale = env_double("REPRO_SCALE", cfg.scale, 0.0);
  if (const char* q = std::getenv("REPRO_QUICK"); q && q[0] == '1') {
    cfg.scale = std::min(cfg.scale, 0.1);
    cfg.annealer.inner_num = 0.3;
  }
  cfg.num_threads =
      static_cast<int>(env_long("REPRO_THREADS", cfg.num_threads, 0));
  try {
    cfg.audit = audit_level_from_env(cfg.audit);
  } catch (const std::exception& e) {
    // Same degrade-to-default policy as the other knobs: a typo'd level must
    // not abort a batch.
    LOG_WARN() << e.what() << "; auditing stays " << audit_level_name(cfg.audit);
  }
  if (const char* v = std::getenv("REPRO_PLACER"); v && *v) {
    PlacerBackend b;
    if (parse_placer_backend(v, &b))
      cfg.placer = b;
    else
      LOG_WARN() << "REPRO_PLACER=" << v << " not one of annealer|analytic|hybrid; "
                 << "placer stays " << placer_backend_name(cfg.placer);
  }
  return cfg;
}

PlacedCircuit prepare_circuit(const McncCircuit& c, const FlowConfig& cfg) {
  PlacedCircuit out;
  out.name = c.name;
  CircuitSpec spec = spec_for(c, cfg.scale, cfg.seed);
  out.nl = std::make_unique<Netlist>(generate_circuit(spec));

  const int n = FpgaGrid::min_grid_for(out.nl->num_logic(),
                                       out.nl->num_input_pads() +
                                           out.nl->num_output_pads());
  out.grid = std::make_unique<FpgaGrid>(n);

  PlacerOptions popt;
  popt.backend = cfg.placer;
  popt.annealer = cfg.annealer;
  popt.annealer.seed = cfg.seed * 977 + 13;
  popt.analytic = cfg.analytic;
  popt.audit = cfg.audit;
  popt.audit_seed = cfg.seed;
  const double t0 = now_seconds();
  out.pl = std::make_unique<Placement>(
      place_circuit(*out.nl, *out.grid, cfg.delay, popt, &out.placer_stats));
  out.anneal_seconds = now_seconds() - t0;
  out.peak_rss_bytes = peak_rss_bytes();

  if (cfg.audit != AuditLevel::kOff) {
    AuditOptions aud;
    aud.level = cfg.audit;
    aud.seed = cfg.seed;
    Auditor auditor(aud);
    Auditor::require_clean(
        "place", auditor.audit_stage("place", *out.nl, out.pl.get(),
                                     &cfg.delay, nullptr, nullptr));
  }
  return out;
}

CircuitMetrics evaluate_routed(const std::string& name, const Netlist& nl,
                               const Placement& pl, const FlowConfig& cfg) {
  CircuitMetrics m;
  m.circuit = name;
  m.luts = nl.num_logic();
  m.ios = nl.num_input_pads() + nl.num_output_pads();
  m.blocks = nl.num_live_cells();
  m.fpga_n = pl.grid().n();
  m.density = FpgaGrid::design_density(m.luts, m.fpga_n);

  const double t0 = now_seconds();
  // Placement-level criticalities steer the timing-driven router; like VPR's
  // routing schedule, criticalities are then refreshed from the ROUTED
  // delays and the nets re-routed, so connections stretched through shared
  // trees in the first pass get direct routes in the next.
  TimingEngine eng(nl, pl, cfg.delay);
  // Criticality per (sink cell, input pin) in a flat table laid out like
  // ConnectionLengths; connections without a timing edge read 0. The netlist
  // is fixed here, so every refresh rewrites the same slots.
  constexpr std::size_t kPins = ConnectionLengths::kPinsPerCell;
  std::vector<double> crit(nl.cell_capacity() * kPins, 0.0);
  auto refresh_crit = [&]() {
    const TimingGraph& tg = eng.graph();
    for (std::size_t e = 0; e < tg.num_edges(); ++e) {
      if (!tg.edge_live(e)) continue;
      const TimingEdge& ed = tg.edge(e);
      crit[tg.node(ed.to).cell.index() * kPins + static_cast<std::size_t>(ed.pin)] =
          criticality_weight(tg.edge_criticality(e), cfg.router_crit_exponent);
    }
  };
  refresh_crit();
  auto crit_fn = [&crit](CellId sink, int pin) {
    return crit[sink.index() * kPins + static_cast<std::size_t>(pin)];
  };
  auto retime_from = [&](const RoutingResult& routing) {
    eng.retime_with_wire_lengths([&routing](CellId sink, int pin, int fallback) {
      return routing.length_of(sink, pin, fallback);
    });
    refresh_crit();
    eng.retime_with_wire_lengths(nullptr);
  };

  auto count_route = [&m](const RoutingResult& r) {
    m.route_nodes_expanded += r.nodes_expanded;
    m.route_passes += static_cast<std::uint64_t>(r.iterations);
  };

  // Route audits recompute occupancy from the exported per-net route trees
  // (see Auditor::check_routing). At kStage only the final result of each
  // mode is audited; kParanoid audits every pass.
  auto audit_route = [&](const RoutingResult& r, bool final_pass) {
    if (cfg.audit == AuditLevel::kOff) return;
    if (!final_pass && cfg.audit != AuditLevel::kParanoid) return;
    AuditOptions aud;
    aud.level = cfg.audit;
    aud.seed = cfg.seed;
    Auditor auditor(aud);
    Auditor::require_clean("route", auditor.check_routing(nl, pl, r, "route"));
  };

  // Infinite-resource routing: the placement-evaluation metric of Table I.
  RouterOptions inf = cfg.router;
  inf.channel_width = 0;
  RoutingResult r_inf = route(nl, pl, inf, crit_fn);
  count_route(r_inf);
  audit_route(r_inf, /*final_pass=*/false);
  retime_from(r_inf);
  r_inf = route(nl, pl, inf, crit_fn);
  count_route(r_inf);
  audit_route(r_inf, /*final_pass=*/true);
  m.crit_winf = routed_critical_delay(eng, r_inf);
  m.wirelength = r_inf.total_wirelength;

  if (cfg.route_lowstress) {
    WminSearchStats wstats;
    m.wmin = find_min_channel_width(nl, pl, cfg.router, &wstats);
    m.route_nodes_expanded += wstats.nodes_expanded;
    for (const WminProbeStats& p : wstats.probes)
      m.route_passes += static_cast<std::uint64_t>(p.passes);
    m.wmin_probes = std::move(wstats.probes);
    RouterOptions ls = cfg.router;
    ls.channel_width = static_cast<int>(std::ceil(1.2 * m.wmin));
    RoutingResult r_ls = route(nl, pl, ls, crit_fn);
    count_route(r_ls);
    audit_route(r_ls, /*final_pass=*/false);
    retime_from(r_ls);
    r_ls = route(nl, pl, ls, crit_fn);
    count_route(r_ls);
    audit_route(r_ls, /*final_pass=*/true);
    m.crit_wls = routed_critical_delay(eng, r_ls);
    m.wirelength = r_ls.total_wirelength;
  } else {
    m.crit_wls = m.crit_winf;
  }
  m.route_seconds = now_seconds() - t0;
  m.peak_rss_bytes = peak_rss_bytes();
  m.arena_bytes = arena_counters().total_bytes();
  return m;
}

}  // namespace repro
