// Placer backend benchmark: analytic gradient/density global placement vs
// the timing-driven annealer, through the Placer interface (DESIGN.md §10).
//
// Both backends run the same circuits (the clma profile scaled to each LUT
// count) end to end through place_circuit():
//   annealer  T-VPlace simulated annealing (the paper's baseline placer).
//             At 2k/10k two seeds are run and their geomean taken as the
//             quality baseline — annealer results vary several percent with
//             the seed, and a single unlucky draw would make the quality
//             ratio meaningless. Timing uses the first seed only.
//   analytic  gradient/density global place -> legalizer -> low-temperature
//             polish, run twice (1 thread, then 4) — the two trajectories
//             must be bit-identical, which is also the run-to-run
//             determinism check since nothing else differs.
//
// Quality is compared post-route (W_inf: unlimited channel width, wire-length
// delays — the flow's evaluate_routed W_inf leg) at the sizes where routing
// is affordable; the largest size times place+legalize only, which is where
// the annealer wall-time wall actually bites.
//
// Gates:
//   full run    analytic wall-time speedup >= 5x at the largest size;
//               routed crit and wirelength ratio geomeans <= 1.05 over the
//               routed sizes; analytic fingerprints identical across thread
//               counts at every size.
//   --smoke     smallest size only; determinism always. With
//               --reference <committed BENCH_placer.json>, the analytic
//               iteration count, gradient_pin_evals, and placement
//               fingerprint must match the committed values exactly (they
//               are pure functions of the inputs), and the measured
//               annealer/analytic speedup must stay above half the committed
//               one — a ratio of two runs on one machine, so a uniformly
//               slower CI box cancels out; only a true backend regression
//               trips it. The committed quality geomeans and largest-size
//               speedup must pass the full-run gates.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "gen/circuit_gen.h"
#include "place/placer.h"
#include "route/router.h"
#include "timing/timing_engine.h"
#include "timing/timing_graph.h"

namespace repro {
namespace {

// ---- W_inf routed evaluation ----------------------------------------------

/// The flow's W_inf leg (flow/experiment.cpp evaluate_routed): route with
/// unlimited channels, retime with realized wire lengths, re-route with the
/// updated criticalities, report routed critical delay and wirelength.
void eval_winf(const Netlist& nl, const Placement& pl,
               const LinearDelayModel& dm, double* crit, std::int64_t* wl) {
  TimingEngine eng(nl, pl, dm);
  std::unordered_map<std::int64_t, double> crit_map;
  auto refresh = [&]() {
    const TimingGraph& tg = eng.graph();
    for (std::size_t e = 0; e < tg.num_edges(); ++e) {
      if (!tg.edge_live(e)) continue;
      const TimingEdge& ed = tg.edge(e);
      const std::int64_t key =
          (static_cast<std::int64_t>(tg.node(ed.to).cell.value()) << 8) |
          static_cast<std::int64_t>(ed.pin);
      crit_map[key] = criticality_weight(tg.edge_criticality(e), 8.0);
    }
  };
  refresh();
  auto crit_fn = [&crit_map](CellId sink, int pin) {
    auto it = crit_map.find((static_cast<std::int64_t>(sink.value()) << 8) |
                            static_cast<std::int64_t>(pin));
    return it == crit_map.end() ? 0.0 : it->second;
  };
  RouterOptions inf;
  inf.channel_width = 0;
  RoutingResult r = route(nl, pl, inf, crit_fn);
  eng.retime_with_wire_lengths([&r](CellId sink, int pin, int fallback) {
    return r.length_of(sink, pin, fallback);
  });
  refresh();
  eng.retime_with_wire_lengths(nullptr);
  r = route(nl, pl, inf, crit_fn);
  *crit = routed_critical_delay(eng, r);
  *wl = r.total_wirelength;
}

// ---- bench ----------------------------------------------------------------

struct BackendResult {
  std::string backend;
  double place_seconds = 0;        ///< place + legalize (+ polish), seed 1
  std::uint64_t work_units = 0;    ///< moves (annealer) / pin evals + moves
  std::uint64_t placement_fp = 0;  ///< seed-1 final placement fingerprint
  double hpwl = 0;
  double routed_crit = 0;      ///< W_inf routed critical delay (0 = unrouted)
  std::int64_t routed_wl = 0;  ///< W_inf routed wirelength
  double route_seconds = 0;
  // analytic-only observability
  int iterations = 0;
  std::uint64_t gradient_pin_evals = 0;
  int timing_reweights = 0;
  double final_overflow = 0;
  bool deterministic = true;  ///< threads=1 vs threads=4 fingerprints equal
};

struct SizeResult {
  int num_logic = 0;
  std::size_t cells = 0;
  int fpga_n = 0;
  bool routed = false;
  BackendResult annealer, analytic;
  double crit_ratio = 0;  ///< analytic/annealer routed crit (geomean baseline)
  double wl_ratio = 0;
  double speedup = 0;  ///< annealer/analytic place wall time
};

CircuitSpec spec_for_size(int num_logic, std::uint64_t seed) {
  const McncCircuit& clma = mcnc_suite().back();
  return spec_for(clma, static_cast<double>(num_logic) / clma.luts, seed);
}

BackendResult run_annealer(const Netlist& nl, const FpgaGrid& grid,
                           const LinearDelayModel& dm, bool do_route,
                           int num_seeds) {
  BackendResult out;
  out.backend = "annealer";
  double crit_log_sum = 0, wl_log_sum = 0;
  for (int s = 1; s <= num_seeds; ++s) {
    Netlist copy = nl;
    PlacerOptions popt;
    popt.backend = PlacerBackend::kAnnealer;
    popt.annealer.seed = static_cast<std::uint64_t>(s) * 977 + 13;
    PlacerStats st;
    const double t0 = bench::now_seconds();
    Placement pl = place_circuit(copy, grid, dm, popt, &st);
    const double sec = bench::now_seconds() - t0;
    if (s == 1) {
      out.place_seconds = sec;
      out.work_units = st.work_units();
      out.placement_fp = bench::placement_fingerprint(copy, pl);
      out.hpwl = pl.total_wirelength();
    }
    if (do_route) {
      double crit = 0;
      std::int64_t wl = 0;
      const double r0 = bench::now_seconds();
      eval_winf(copy, pl, dm, &crit, &wl);
      if (s == 1) out.route_seconds = bench::now_seconds() - r0;
      crit_log_sum += std::log(crit);
      wl_log_sum += std::log(static_cast<double>(wl));
    }
  }
  if (do_route) {
    out.routed_crit = std::exp(crit_log_sum / num_seeds);
    out.routed_wl =
        static_cast<std::int64_t>(std::exp(wl_log_sum / num_seeds));
  }
  return out;
}

BackendResult run_analytic(const Netlist& nl, const FpgaGrid& grid,
                           const LinearDelayModel& dm, bool do_route) {
  BackendResult out;
  out.backend = "analytic";
  std::uint64_t fp[2] = {0, 0};
  for (int pass = 0; pass < 2; ++pass) {
    Netlist copy = nl;
    PlacerOptions popt;
    popt.backend = PlacerBackend::kAnalytic;
    popt.annealer.seed = 977 + 13;  // polish seed, matches the annealer run
    popt.analytic.num_threads = pass == 0 ? 1 : 4;
    PlacerStats st;
    const double t0 = bench::now_seconds();
    Placement pl = place_circuit(copy, grid, dm, popt, &st);
    const double sec = bench::now_seconds() - t0;
    fp[pass] = bench::placement_fingerprint(copy, pl);
    if (pass != 0) continue;  // pass 1 exists only for the determinism check
    out.place_seconds = sec;
    out.work_units = st.work_units();
    out.placement_fp = fp[0];
    out.hpwl = pl.total_wirelength();
    out.iterations = st.analytic.iterations;
    out.gradient_pin_evals = st.analytic.gradient_pin_evals;
    out.timing_reweights = st.analytic.timing_reweights;
    out.final_overflow = st.analytic.final_overflow;
    if (do_route) {
      double crit = 0;
      std::int64_t wl = 0;
      const double r0 = bench::now_seconds();
      eval_winf(copy, pl, dm, &crit, &wl);
      out.route_seconds = bench::now_seconds() - r0;
      out.routed_crit = crit;
      out.routed_wl = wl;
    }
  }
  out.deterministic = fp[0] == fp[1];
  return out;
}

}  // namespace
}  // namespace repro

int main(int argc, char** argv) {
  using namespace repro;
  bench::BenchArgs args;
  if (!bench::parse_bench_args(argc, argv, "placer", &args)) return 2;
  const bool smoke = args.smoke;

  const std::uint64_t gen_seed = 7;
  // Routed sizes feed the quality gate; the largest size is place-only (the
  // wall-time wall) — routing 1e5 cells at W_inf costs more than both
  // placements combined and exercises no placer code.
  const std::vector<int> routed_sizes =
      smoke ? std::vector<int>{2000} : std::vector<int>{2000, 10000, 30000};
  const std::vector<int> place_only_sizes =
      smoke ? std::vector<int>{} : std::vector<int>{100000};

  const LinearDelayModel dm;
  std::vector<SizeResult> results;
  int failures = 0;

  auto run_size = [&](int num_logic, bool do_route) {
    SizeResult sr;
    sr.num_logic = num_logic;
    sr.routed = do_route;
    Netlist nl = generate_circuit(spec_for_size(num_logic, gen_seed));
    sr.cells = nl.num_live_cells();
    sr.fpga_n = FpgaGrid::min_grid_for(
        nl.num_logic(), nl.num_input_pads() + nl.num_output_pads());
    FpgaGrid grid(sr.fpga_n);
    // Two annealer seeds where routing makes the result a quality baseline;
    // one is enough when only wall time is on trial.
    const int num_seeds = do_route && !smoke ? 2 : 1;
    sr.annealer = run_annealer(nl, grid, dm, do_route, num_seeds);
    sr.analytic = run_analytic(nl, grid, dm, do_route);
    sr.speedup = sr.annealer.place_seconds /
                 std::max(sr.analytic.place_seconds, 1e-9);
    if (do_route) {
      sr.crit_ratio = sr.analytic.routed_crit / sr.annealer.routed_crit;
      sr.wl_ratio = static_cast<double>(sr.analytic.routed_wl) /
                    static_cast<double>(sr.annealer.routed_wl);
    }
    if (!sr.analytic.deterministic) {
      std::fprintf(stderr,
                   "FAIL n=%d: analytic placement differs between 1 and 4 "
                   "threads\n",
                   num_logic);
      ++failures;
    }
    std::printf(
        "n=%6d cells=%6zu grid=%3d | annealer %8.2fs (%llu moves) | "
        "analytic %7.2fs (%d iters, %llu pin evals) | speedup %5.2fx",
        num_logic, sr.cells, sr.fpga_n, sr.annealer.place_seconds,
        static_cast<unsigned long long>(sr.annealer.work_units),
        sr.analytic.place_seconds, sr.analytic.iterations,
        static_cast<unsigned long long>(sr.analytic.gradient_pin_evals),
        sr.speedup);
    if (do_route)
      std::printf(" | crit %.2f/%.2f (%.3fx) wl %lld/%lld (%.3fx)",
                  sr.analytic.routed_crit, sr.annealer.routed_crit,
                  sr.crit_ratio, static_cast<long long>(sr.analytic.routed_wl),
                  static_cast<long long>(sr.annealer.routed_wl), sr.wl_ratio);
    std::printf("\n");
    std::fflush(stdout);
    results.push_back(std::move(sr));
  };

  for (int n : routed_sizes) run_size(n, true);
  for (int n : place_only_sizes) run_size(n, false);

  // Quality: geomean ratios over the routed sizes.
  double crit_geo = 0, wl_geo = 0;
  {
    double cs = 0, ws = 0;
    for (const SizeResult& sr : results)
      if (sr.routed) {
        cs += std::log(sr.crit_ratio);
        ws += std::log(sr.wl_ratio);
      }
    const double k = static_cast<double>(routed_sizes.size());
    crit_geo = std::exp(cs / k);
    wl_geo = std::exp(ws / k);
  }
  std::printf("quality geomeans over routed sizes: crit %.3fx wl %.3fx\n",
              crit_geo, wl_geo);

  // The speedup gate reads the largest size (the smoke size is too small
  // for the annealer wall to matter; there the speedup is held against the
  // committed smoke_speedup instead, a ratio of two runs on one machine).
  const SizeResult& largest = results.back();
  std::printf("largest size %d: place %.2fs -> %.2fs (%.2fx)\n",
              largest.num_logic, largest.annealer.place_seconds,
              largest.analytic.place_seconds, largest.speedup);
  const SizeResult& smallest = results[0];
  const std::vector<bench::GateField> smoke_gate = {
      bench::exact("smoke_iterations", smallest.analytic.iterations),
      bench::exact("smoke_gradient_pin_evals",
                   smallest.analytic.gradient_pin_evals),
      bench::exact("smoke_placement_fp",
                   bench::hex(smallest.analytic.placement_fp)),
      bench::bounded("smoke_speedup", smallest.speedup,
                     bench::GateRule::kAtLeast, 0.5, 2),
  };
  const std::vector<bench::HeadlineGate> headline = {
      {"quality", "crit_ratio_geomean", bench::GateRule::kAtMost, 1.05,
       crit_geo},
      {"quality", "wl_ratio_geomean", bench::GateRule::kAtMost, 1.05, wl_geo},
      {"summary", "aggregate_speedup", bench::GateRule::kAtLeast, 5.0,
       largest.speedup},
  };
  failures += bench::check_gates(args, smoke_gate, headline);

  FILE* out = std::fopen("BENCH_placer.json", "w");
  if (!out) {
    std::fprintf(stderr, "cannot open BENCH_placer.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::emit_summary(out, "placer", largest.speedup);
  std::fprintf(out,
               "  \"benchmark\": \"placer\",\n  \"smoke\": %s,\n"
               "  \"quality\": {\"crit_ratio_geomean\": %.4f, "
               "\"wl_ratio_geomean\": %.4f},\n",
               smoke ? "true" : "false", crit_geo, wl_geo);
  bench::write_smoke_gate(out, smoke_gate);
  std::fprintf(out,
               "  \"note\": \"speedup/seconds are machine-dependent "
               "telemetry; the smoke gate matches the analytic trajectory "
               "(iterations, pin evals, placement fingerprint — pure "
               "functions of the inputs) exactly and bounds the speedup "
               "ratio, which cancels machine speed\",\n  \"sizes\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& sr = results[i];
    std::fprintf(out,
                 "    {\"num_logic\": %d, \"cells\": %zu, \"fpga_n\": %d, "
                 "\"speedup\": %.2f,\n",
                 sr.num_logic, sr.cells, sr.fpga_n, sr.speedup);
    if (sr.routed)
      std::fprintf(out,
                   "     \"crit_ratio\": %.4f, \"wl_ratio\": %.4f,\n",
                   sr.crit_ratio, sr.wl_ratio);
    auto emit = [&](const BackendResult& b, const char* tail) {
      std::fprintf(out,
                   "     \"%s\": {\"place_seconds\": %.3f, "
                   "\"work_units\": %llu, \"placement_fp\": \"%016llx\", "
                   "\"hpwl\": %.1f, \"routed_crit_ns\": %.4f, "
                   "\"routed_wirelength\": %lld, \"route_seconds\": %.3f",
                   b.backend.c_str(), b.place_seconds,
                   static_cast<unsigned long long>(b.work_units),
                   static_cast<unsigned long long>(b.placement_fp), b.hpwl,
                   b.routed_crit, static_cast<long long>(b.routed_wl),
                   b.route_seconds);
      if (b.backend == "analytic")
        std::fprintf(out,
                     ", \"iterations\": %d, \"gradient_pin_evals\": %llu, "
                     "\"timing_reweights\": %d, \"final_overflow\": %.4f, "
                     "\"deterministic\": %s",
                     b.iterations,
                     static_cast<unsigned long long>(b.gradient_pin_evals),
                     b.timing_reweights, b.final_overflow,
                     b.deterministic ? "true" : "false");
      std::fprintf(out, "}%s\n", tail);
    };
    emit(sr.annealer, ",");
    emit(sr.analytic, "");
    std::fprintf(out, "    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);

  if (failures) {
    std::fprintf(stderr, "%d gate failure(s)\n", failures);
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}
