// Microbenchmark: router fast path vs the pre-PR PathFinder
// (docs/ALGORITHMS.md §12).
//
// Four configurations route the same placed circuits:
//   baseline  pre-PR behavior: Dijkstra expansion, full rip-up every pass,
//             cold W_min probes, no stall abort
//   astar     + A* lookahead
//   incr      + incremental rip-up (only illegal nets) and stall abort
//   fast      + warm-started W_min binary search (all defaults)
//
// The interesting metric is hardware-independent work: maze nodes expanded
// during the W_min binary search. The W_min search's wall time is recorded
// per config (`wmin_seconds`) for information only; no gate reads it.
// Gates (full mode):
//   - fast W_min <= baseline W_min on every circuit
//   - total fast W_min-search node expansions at least 3x below baseline
//   - low-stress routed wirelength and critical delay aggregate (geomean)
//     within 1% of baseline (equal-cost path tie-breaks differ; quality must
//     not)
//   - fast results bit-identical across two runs (determinism)
// --smoke runs the smallest circuit only and skips the 3x and 1% gates
// (counters and determinism are still checked). With --reference <committed
// BENCH_router.json> the smallest circuit's W_min, probes, W_min-search
// expansions and infinite-width wirelength must equal the committed
// `smoke_gate` values for every config, and the committed headline numbers
// must pass the full-run gates (bench::check_gates).
//
// Emits BENCH_router.json in the working directory.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gen/circuit_gen.h"
#include "place/annealer.h"
#include "route/router.h"
#include "timing/timing_graph.h"
#include "util/rng.h"

namespace repro {
namespace {

struct Config {
  const char* name;
  bool astar, incr, warm;
};

constexpr Config kConfigs[] = {{"baseline", false, false, false},
                               {"astar", true, false, false},
                               {"incr", true, true, false},
                               {"fast", true, true, true}};

RouterOptions options_for(const Config& c) {
  RouterOptions opt;
  opt.use_astar = c.astar;
  opt.incremental_reroute = c.incr;
  opt.warm_start_wmin = c.warm;
  opt.self_check = true;
  // The baseline models the pre-PR router, which always ran negotiation to
  // max_iterations on a failing width.
  if (!c.astar && !c.incr && !c.warm) opt.stall_abort_window = 0;
  return opt;
}

struct Fixture {
  Netlist nl;
  FpgaGrid grid;
  LinearDelayModel dm;
  Placement pl;

  static Netlist make(int num_logic, std::uint64_t seed) {
    CircuitSpec spec;
    spec.num_logic = num_logic;
    spec.num_inputs = 8;
    spec.num_outputs = 8;
    spec.registered_fraction = 0.2;
    spec.depth = 6;
    spec.seed = seed;
    return generate_circuit(spec);
  }

  Fixture(int num_logic, std::uint64_t seed)
      : nl(make(num_logic, seed)),
        grid(FpgaGrid::min_grid_for(nl.num_logic(),
                                    nl.num_input_pads() + nl.num_output_pads())),
        pl([&] {
          Rng rng(seed * 3 + 1);
          return random_placement(nl, grid, rng);
        }()) {}
};

struct ConfigResult {
  std::string config;
  int wmin = 0;
  std::uint64_t wmin_expansions = 0;
  std::uint64_t wmin_pushes = 0;
  std::uint64_t wmin_pops = 0;
  int wmin_probes = 0;
  double wmin_seconds = 0;  ///< wall time of the W_min search (not gated)
  std::int64_t inf_wirelength = 0;
  std::int64_t ls_wirelength = 0;
  double inf_delay = 0;
  double ls_delay = 0;
  std::uint64_t ls_expansions = 0;
  int ls_passes = 0;
};

struct CircuitResult {
  int num_logic = 0;
  std::uint64_t seed = 0;
  std::vector<ConfigResult> configs;
};

ConfigResult run_config(const Fixture& f, const Config& c) {
  const RouterOptions opt = options_for(c);
  ConfigResult out;
  out.config = c.name;

  RoutingResult inf = route(f.nl, f.pl, opt);
  out.inf_wirelength = inf.total_wirelength;
  out.inf_delay = routed_critical_delay(f.nl, f.pl, f.dm, inf);

  WminSearchStats ws;
  const double t0 = bench::now_seconds();
  out.wmin = find_min_channel_width(f.nl, f.pl, opt, &ws);
  out.wmin_seconds = bench::now_seconds() - t0;
  out.wmin_expansions = ws.nodes_expanded;
  out.wmin_pushes = ws.heap_pushes;
  out.wmin_pops = ws.heap_pops;
  out.wmin_probes = static_cast<int>(ws.probes.size());

  RouterOptions ls = opt;
  ls.channel_width = (out.wmin * 12 + 9) / 10;  // ceil(1.2 * wmin)
  RoutingResult rls = route(f.nl, f.pl, ls);
  out.ls_wirelength = rls.total_wirelength;
  out.ls_delay = routed_critical_delay(f.nl, f.pl, f.dm, rls);
  out.ls_expansions = rls.nodes_expanded;
  out.ls_passes = rls.iterations;
  return out;
}

/// Determinism gate: the fast config must produce bit-identical results on a
/// second run (same W_min, identical connection lengths and pass stats at
/// the low-stress width), in both incremental and full-reroute modes.
bool check_deterministic(const Fixture& f, const Config& c) {
  const RouterOptions opt = options_for(c);
  WminSearchStats ws1, ws2;
  const int w1 = find_min_channel_width(f.nl, f.pl, opt, &ws1);
  const int w2 = find_min_channel_width(f.nl, f.pl, opt, &ws2);
  if (w1 != w2 || ws1.nodes_expanded != ws2.nodes_expanded) return false;
  RouterOptions ls = opt;
  ls.channel_width = (w1 * 12 + 9) / 10;
  RoutingResult a = route(f.nl, f.pl, ls);
  RoutingResult b = route(f.nl, f.pl, ls);
  return a.success == b.success && a.total_wirelength == b.total_wirelength &&
         a.connection_length == b.connection_length && a.pass_stats == b.pass_stats;
}

const ConfigResult& find_config(const CircuitResult& cr, const char* name) {
  for (const ConfigResult& c : cr.configs)
    if (c.config == name) return c;
  std::fprintf(stderr, "missing config %s\n", name);
  std::abort();
}

}  // namespace
}  // namespace repro

int main(int argc, char** argv) {
  using namespace repro;
  bench::BenchArgs args;
  if (!bench::parse_bench_args(argc, argv, "router", &args)) return 2;
  const bool smoke = args.smoke;

  const std::vector<int> sizes = smoke ? std::vector<int>{60}
                                       : std::vector<int>{60, 120, 200};
  const std::vector<std::uint64_t> seeds =
      smoke ? std::vector<std::uint64_t>{1} : std::vector<std::uint64_t>{1, 2};

  std::vector<CircuitResult> results;
  int failures = 0;
  for (int num_logic : sizes) {
    for (std::uint64_t seed : seeds) {
      Fixture f(num_logic, seed);
      CircuitResult cr;
      cr.num_logic = num_logic;
      cr.seed = seed;
      for (const Config& c : kConfigs) cr.configs.push_back(run_config(f, c));

      const ConfigResult& base = find_config(cr, "baseline");
      const ConfigResult& fast = find_config(cr, "fast");
      for (const ConfigResult& c : cr.configs)
        std::printf("n=%3d s=%llu %-8s wmin=%d wmin_exp=%llu probes=%d "
                    "wmin_s=%.3f inf_wl=%lld ls_wl=%lld inf_d=%.3f ls_d=%.3f\n",
                    num_logic, static_cast<unsigned long long>(seed),
                    c.config.c_str(), c.wmin,
                    static_cast<unsigned long long>(c.wmin_expansions),
                    c.wmin_probes, c.wmin_seconds,
                    static_cast<long long>(c.inf_wirelength),
                    static_cast<long long>(c.ls_wirelength), c.inf_delay,
                    c.ls_delay);

      if (fast.wmin > base.wmin) {
        std::fprintf(stderr, "FAIL n=%d s=%llu: fast wmin %d > baseline %d\n",
                     num_logic, static_cast<unsigned long long>(seed), fast.wmin,
                     base.wmin);
        ++failures;
      }
      for (const ConfigResult& c : cr.configs) {
        if (c.wmin_expansions == 0 || c.wmin_pushes < c.wmin_pops) {
          std::fprintf(stderr, "FAIL n=%d s=%llu %s: implausible counters "
                       "(exp=%llu pushes=%llu pops=%llu)\n",
                       num_logic, static_cast<unsigned long long>(seed),
                       c.config.c_str(),
                       static_cast<unsigned long long>(c.wmin_expansions),
                       static_cast<unsigned long long>(c.wmin_pushes),
                       static_cast<unsigned long long>(c.wmin_pops));
          ++failures;
        }
      }
      for (const Config& c : kConfigs) {
        const bool is_fast = !std::strcmp(c.name, "fast");
        const bool is_full = !std::strcmp(c.name, "astar");
        if (!is_fast && !is_full) continue;  // incremental + full-reroute modes
        if (!check_deterministic(f, c)) {
          std::fprintf(stderr, "FAIL n=%d s=%llu %s: non-deterministic routing\n",
                       num_logic, static_cast<unsigned long long>(seed), c.name);
          ++failures;
        }
      }
      results.push_back(std::move(cr));
    }
  }

  // Aggregate gates over all circuits.
  std::uint64_t base_exp = 0, fast_exp = 0;
  double log_wl_ratio = 0, log_delay_ratio = 0;
  for (const CircuitResult& cr : results) {
    const ConfigResult& base = find_config(cr, "baseline");
    const ConfigResult& fast = find_config(cr, "fast");
    base_exp += base.wmin_expansions;
    fast_exp += fast.wmin_expansions;
    log_wl_ratio += std::log(static_cast<double>(fast.ls_wirelength) /
                             static_cast<double>(base.ls_wirelength));
    log_delay_ratio += std::log(fast.ls_delay / base.ls_delay);
  }
  const double reduction = static_cast<double>(base_exp) /
                           static_cast<double>(fast_exp ? fast_exp : 1);
  const double wl_geomean = std::exp(log_wl_ratio / results.size());
  const double delay_geomean = std::exp(log_delay_ratio / results.size());
  std::printf("W_min search expansions: baseline=%llu fast=%llu (%.2fx "
              "reduction)\nlow-stress quality vs baseline: wirelength %.4fx, "
              "delay %.4fx (geomean)\n",
              static_cast<unsigned long long>(base_exp),
              static_cast<unsigned long long>(fast_exp), reduction, wl_geomean,
              delay_geomean);
  // Equal-cost tie-breaks make single-circuit quality noisy (+/- ~2%); the 1%
  // bound is meaningful on the full aggregate, smoke only catches gross
  // regressions.
  if (smoke && (wl_geomean > 1.10 || delay_geomean > 1.10)) {
    std::fprintf(stderr, "FAIL: low-stress quality regressed (wl %.4fx, delay "
                 "%.4fx)\n", wl_geomean, delay_geomean);
    ++failures;
  }

  // The smoke gate reads the smallest circuit, which both full and smoke runs
  // execute first.
  std::vector<bench::GateField> smoke_gate;
  for (const ConfigResult& c : results[0].configs) {
    const std::string k = "smoke_" + c.config + "_";
    smoke_gate.push_back(bench::exact(k + "wmin", static_cast<std::uint64_t>(c.wmin)));
    smoke_gate.push_back(
        bench::exact(k + "wmin_probes", static_cast<std::uint64_t>(c.wmin_probes)));
    smoke_gate.push_back(bench::exact(k + "wmin_nodes_expanded", c.wmin_expansions));
    smoke_gate.push_back(
        bench::exact(k + "inf_wirelength", static_cast<std::uint64_t>(c.inf_wirelength)));
  }
  const std::vector<bench::HeadlineGate> headline = {
      {"quality", "wmin_expansion_reduction", bench::GateRule::kAtLeast, 3.0,
       reduction},
      {"quality", "ls_wirelength_geomean_vs_baseline", bench::GateRule::kAtMost,
       1.01, wl_geomean},
      {"quality", "ls_delay_geomean_vs_baseline", bench::GateRule::kAtMost, 1.01,
       delay_geomean},
  };
  failures += bench::check_gates(args, smoke_gate, headline);

  FILE* out = std::fopen("BENCH_router.json", "w");
  if (!out) {
    std::fprintf(stderr, "cannot open BENCH_router.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::emit_summary(out, "router", reduction);
  std::fprintf(out,
               "  \"benchmark\": \"router\",\n  \"smoke\": %s,\n"
               "  \"quality\": {\"wmin_expansion_reduction\": %.2f, "
               "\"ls_wirelength_geomean_vs_baseline\": %.4f, "
               "\"ls_delay_geomean_vs_baseline\": %.4f},\n",
               smoke ? "true" : "false", reduction, wl_geomean, delay_geomean);
  bench::write_smoke_gate(out, smoke_gate);
  std::fprintf(out,
               "  \"note\": \"all counters are hardware-independent work "
               "(maze nodes expanded, heap ops); baseline reproduces the "
               "pre-PR router configuration; wmin_seconds is the W_min "
               "search's wall time on the recording host, informational and "
               "never gated\",\n  \"circuits\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CircuitResult& cr = results[i];
    std::fprintf(out, "    {\"num_logic\": %d, \"seed\": %llu, \"configs\": [\n",
                 cr.num_logic, static_cast<unsigned long long>(cr.seed));
    for (std::size_t j = 0; j < cr.configs.size(); ++j) {
      const ConfigResult& c = cr.configs[j];
      std::fprintf(
          out,
          "      {\"config\": \"%s\", \"wmin\": %d, \"wmin_probes\": %d,\n"
          "       \"wmin_nodes_expanded\": %llu, \"wmin_heap_pushes\": %llu, "
          "\"wmin_heap_pops\": %llu, \"wmin_seconds\": %.4f,\n"
          "       \"inf_wirelength\": %lld, \"inf_delay\": %.6f,\n"
          "       \"ls_wirelength\": %lld, \"ls_delay\": %.6f, "
          "\"ls_nodes_expanded\": %llu, \"ls_passes\": %d}%s\n",
          c.config.c_str(), c.wmin, c.wmin_probes,
          static_cast<unsigned long long>(c.wmin_expansions),
          static_cast<unsigned long long>(c.wmin_pushes),
          static_cast<unsigned long long>(c.wmin_pops), c.wmin_seconds,
          static_cast<long long>(c.inf_wirelength), c.inf_delay,
          static_cast<long long>(c.ls_wirelength), c.ls_delay,
          static_cast<unsigned long long>(c.ls_expansions), c.ls_passes,
          j + 1 < cr.configs.size() ? "," : "");
    }
    std::fprintf(out, "    ]}%s\n", i + 1 < results.size() ? "," : "");
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
