// Workloads `replicate` and `place_route`: closed loop, one client, each job
// place -> (replicate) -> route through the program's public calls, with a
// span around each call.

#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "audit/auditor.h"
#include "audit/fault_inject.h"
#include "bench.h"
#include "flow/experiment.h"
#include "gen/circuit_gen.h"
#include "layers.h"
#include "place/placer.h"
#include "replicate/engine.h"
#include "route/router.h"
#include "util/mem.h"
#include "util/rng.h"
#include "util/strfmt.h"

namespace flowbench {

using namespace repro;

const McncCircuit& suite_circuit(const std::string& name) {
  for (const McncCircuit& m : mcnc_suite())
    if (name == m.name) return m;
  throw std::runtime_error("unknown suite circuit " + name);
}

std::string check_final_state(const std::string& id, Netlist& nl,
                              Placement& pl, const Netlist& golden,
                              const LinearDelayModel& dm,
                              const std::string& fault, Tracer& tr,
                              std::uint64_t* checks) {
  const std::uint64_t fault_seed = 0xF1B0;
  if (fault == "function" && !AuditFaultInjector::corrupt_function_bit(nl, fault_seed).valid())
    return "fault injection found no logic cell to corrupt";
  if (fault == "occupant" && !AuditFaultInjector::corrupt_occupant_entry(pl, fault_seed).valid())
    return "fault injection found no occupant entry to corrupt";
  if (!nl.validate().empty()) return "netlist invalid: " + nl.validate();

  RoutingResult routing;
  {
    Scope s(tr, "check.route", id);
    RouterOptions ro;
    ro.channel_width = 0;
    routing = route(nl, pl, ro);
  }
  if (fault == "route" && !AuditFaultInjector::corrupt_route_edge(routing, fault_seed).valid())
    return "fault injection found no routed edge to corrupt";
  if (!routing.success || routing.unrouted_connections != 0)
    return "W_inf re-route left " + std::to_string(routing.unrouted_connections) +
           " unrouted connections";

  AuditOptions ao;
  ao.level = AuditLevel::kStage;
  ao.seed = kInstanceSeed;
  const Auditor auditor(ao);
  AuditReport rep;
  {
    Scope s(tr, "audit", id);
    rep = auditor.audit_stage("final", nl, &pl, &dm, &golden, &routing);
  }
  *checks += static_cast<std::uint64_t>(rep.checks_run);
  if (rep.clean()) return "";
  std::string first = rep.to_jsonl_lines();
  first = first.substr(0, first.find('\n'));
  return "audit failed (" + rep.summary() + "): " + first;
}

namespace {

struct JobDef {
  const char* circuit;
  double scale;
  const char* variant;  ///< rt | lex3 | none
  PlacerBackend placer;
};

std::string job_id(const JobDef& d) {
  std::string id = std::string(d.circuit) + "-" + d.variant;
  if (d.placer != PlacerBackend::kAnnealer) id += std::string("-") + placer_backend_name(d.placer);
  return id;
}

struct JobOut {
  std::unique_ptr<Netlist> nl;
  std::unique_ptr<FpgaGrid> grid;
  std::unique_ptr<Placement> pl;
  PlacerStats ps;
  bool engine = false;  ///< the replication engine ran (variant != none)
  EngineResult er;
  CircuitMetrics m;
};

/// One job; returns its latency (submit -> routed metrics).
double run_job(const JobDef& d, const std::string& id, const Netlist& input,
               Tracer& tr, JobOut& out) {
  const FlowConfig cfg;  // defaults: audit off, low-stress routing on
  out.nl = std::make_unique<Netlist>(input);  // the client's copy, untimed
  const double t0 = now_s();
  Scope job(tr, "job", id);
  out.grid = std::make_unique<FpgaGrid>(FpgaGrid::min_grid_for(
      out.nl->num_logic(), out.nl->num_input_pads() + out.nl->num_output_pads()));
  {
    Scope s(tr, "place", id);
    PlacerOptions popt;
    popt.backend = d.placer;
    popt.annealer = cfg.annealer;
    popt.annealer.seed = kInstanceSeed * 977 + 13;
    popt.analytic = cfg.analytic;
    out.pl = std::make_unique<Placement>(
        place_circuit(*out.nl, *out.grid, cfg.delay, popt, &out.ps));
  }
  if (std::strcmp(d.variant, "none") != 0) {
    Scope s(tr, "replicate", id);
    EngineOptions eopt;
    eopt.variant = !std::strcmp(d.variant, "rt") ? EmbedVariant::kRtEmbedding
                                                 : EmbedVariant::kLex3;
    eopt.num_threads = 1;
    out.er = run_replication_engine(*out.nl, *out.pl, cfg.delay, eopt);
    out.engine = true;
  }
  {
    Scope s(tr, "route", id);
    out.m = evaluate_routed(d.circuit, *out.nl, *out.pl, cfg);
  }
  return now_s() - t0;
}

void run_jobs(const Args& a, Tracer& tr, Report& rep,
              const std::vector<JobDef>& defs) {
  // Submission order is the seeded part of these workloads.
  std::vector<const JobDef*> order;
  for (const JobDef& d : defs) order.push_back(&d);
  Rng rng(a.seed);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.next_below(i)]);

  // Set-up: generate every circuit of the job list. It takes milliseconds,
  // so it is repeated for a steady median, half before and half after the
  // passes, so that one burst of machine noise cannot move the median.
  auto generate = [&]() {
    std::vector<Netlist> gen;
    const double t0 = now_s();
    for (const JobDef* d : order) {
      Scope s(tr, "gen", job_id(*d));
      gen.push_back(generate_circuit(
          spec_for(suite_circuit(d->circuit), d->scale, kInstanceSeed)));
    }
    rep.setup_s.push_back(now_s() - t0);
    return gen;
  };
  const int kSetupReps = 20;
  std::vector<Netlist> inputs;
  for (int r = 0; r < kSetupReps; ++r) {
    tr.set_active(a.trace && r == kSetupReps - 1);
    inputs = generate();
  }
  tr.set_active(false);

  std::vector<JobOut> outs(order.size());
  TimingSnap timing_before, timing_after;
  run_passes(a, tr, rep, [&](bool traced) {
    timing_before = TimingSnap::take();
    double pass = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      outs[i] = JobOut{};
      const double lat = run_job(*order[i], job_id(*order[i]), inputs[i], tr, outs[i]);
      pass += lat;
      if (!traced) rep.requests_s.push_back(lat);
      ++rep.attempted;
    }
    timing_after = TimingSnap::take();
    rep.fingerprint.clear();
    char buf[512];
    for (std::size_t i = 0; i < order.size(); ++i) {
      const JobOut& o = outs[i];
      std::snprintf(buf, sizeof buf,
                    "%s crit_winf=%s crit_wls=%s wl=%lld wmin=%d eng_final=%s "
                    "repl=%d unif=%d iters=%zu place_work=%llu route_nodes=%llu "
                    "route_passes=%llu\n",
                    job_id(*order[i]).c_str(), format_double_17g(o.m.crit_winf).c_str(),
                    format_double_17g(o.m.crit_wls).c_str(),
                    static_cast<long long>(o.m.wirelength), o.m.wmin,
                    format_double_17g(o.er.final_critical).c_str(), o.er.total_replicated,
                    o.er.total_unified, o.er.history.size(),
                    static_cast<unsigned long long>(o.ps.work_units()),
                    static_cast<unsigned long long>(o.m.route_nodes_expanded),
                    static_cast<unsigned long long>(o.m.route_passes));
      rep.fingerprint += buf;
    }
    for (const auto& [k, v] : timing_after.minus(timing_before).named())
      rep.fingerprint += k + "=" + format_double_17g(v) + "\n";
    return pass;
  });
  rep.peak_rss_mib = mib(peak_rss_bytes());
  rep.ops_per_pass = static_cast<int>(order.size());
  for (int r = 0; r < kSetupReps; ++r) generate();

  LayerTotals lt;
  for (const JobOut& o : outs) {
    lt.add_place(o.ps);
    if (o.engine) lt.add_engine(o.er);
    lt.add_route(o.m);
    rep.crit_ns.push_back(o.m.crit_winf);
    rep.wirelength.push_back(static_cast<double>(o.m.wirelength));
  }
  lt.store(rep.layer);
  for (const auto& [k, v] : timing_after.minus(timing_before).named())
    rep.layer[k] = v;

  // Correctness, outside the timed passes, on the last pass's outputs.
  std::uint64_t checks = 0;
  tr.set_active(a.trace);
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const std::string id = job_id(*order[i]);
    const std::string err = check_final_state(
        id, *outs[i].nl, *outs[i].pl, inputs[i], FlowConfig{}.delay,
        i == 0 ? a.fault : std::string(), tr, &checks);
    if (!err.empty()) rep.miss(id + ": " + err);
  }
  tr.set_active(false);
  rep.layer["audit.checks"] = static_cast<double>(checks);
}

}  // namespace

void run_replicate(const Args& a, Tracer& tr, Report& rep) {
  std::vector<JobDef> defs;
  const std::vector<const char*> circuits =
      a.smoke ? std::vector<const char*>{"tseng"}
              : std::vector<const char*>{"ex5p", "tseng", "apex4", "misex3", "apex2"};
  const double scale = a.smoke ? 0.04 : 0.10;
  for (const char* c : circuits) {
    defs.push_back({c, scale, "rt", PlacerBackend::kAnnealer});
    defs.push_back({c, scale, "lex3", PlacerBackend::kAnnealer});
  }
  run_jobs(a, tr, rep, defs);
}

void run_place_route(const Args& a, Tracer& tr, Report& rep) {
  const double scale = a.smoke ? 0.04 : 0.30;
  std::vector<JobDef> defs;
  if (a.smoke) {
    defs = {{"ex5p", scale, "none", PlacerBackend::kAnnealer},
            {"ex5p", scale, "none", PlacerBackend::kAnalytic}};
  } else {
    // The largest circuit runs once more with the analytic backend.
    defs = {{"ex1010", scale, "none", PlacerBackend::kAnnealer},
            {"pdc", scale, "none", PlacerBackend::kAnnealer},
            {"s38417", scale, "none", PlacerBackend::kAnnealer},
            {"s38417", scale, "none", PlacerBackend::kAnalytic}};
  }
  run_jobs(a, tr, rep, defs);
}

}  // namespace flowbench
