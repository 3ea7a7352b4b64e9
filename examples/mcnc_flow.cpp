// Full experiment flow on one MCNC-like circuit, end to end — the Fig. 10
// pipeline as a user of the public API would run it:
//
//   generate -> timing-driven anneal ("VPR") -> replication engine
//            -> PathFinder routing (W_inf and low-stress) -> report.
//
// Usage: mcnc_flow [circuit-name] [variant]
//   circuit-name: one of the 20 Table I names (default: apex2)
//   variant:      rt | lex2 | lex3 | lex4 | lex5 | mc (default: lex3)
// Respects REPRO_SCALE (default 0.25).

#include <cstdio>
#include <string>

#include "flow/experiment.h"
#include "netlist/sim.h"
#include "replicate/engine.h"
#include "timing/monotone.h"
#include "timing/timing_graph.h"

using namespace repro;

int main(int argc, char** argv) {
  const char* name = argc > 1 ? argv[1] : "apex2";
  const char* variant_arg = argc > 2 ? argv[2] : "lex3";

  const McncCircuit* circuit = find_mcnc_circuit(name);
  if (!circuit) {
    std::printf("unknown circuit '%s'; available:", name);
    for (const McncCircuit& c : mcnc_suite()) std::printf(" %s", c.name);
    std::printf("\n");
    return 2;
  }

  EmbedVariant variant;
  if (!parse_variant(variant_arg, &variant)) {
    std::printf("unknown variant '%s' (use rt|lex2|lex3|lex4|lex5|mc)\n",
                variant_arg);
    return 2;
  }

  FlowConfig cfg = config_from_env();
  std::printf("=== %s at scale %.2f, variant %s ===\n", circuit->name, cfg.scale,
              variant_name(variant));

  PlacedCircuit pc = prepare_circuit(*circuit, cfg);
  std::printf("generated: %zu LUTs (%zu registered), %zu I/Os on %dx%d "
              "(density %.3f)\n",
              pc.nl->num_logic(), pc.nl->num_registered(),
              pc.nl->num_input_pads() + pc.nl->num_output_pads(), pc.grid->n(),
              pc.grid->n(),
              FpgaGrid::design_density(pc.nl->num_logic(), pc.grid->n()));
  std::printf("annealed in %.1fs\n", pc.anneal_seconds);

  Netlist golden = *pc.nl;
  CircuitMetrics before = evaluate_routed(pc.name, *pc.nl, *pc.pl, cfg);
  std::printf("VPR baseline: W_inf %.2f ns | W_ls %.2f ns (Wmin %d) | "
              "wirelength %lld\n",
              before.crit_winf, before.crit_wls, before.wmin,
              static_cast<long long>(before.wirelength));

  {
    TimingGraph tg(*pc.nl, *pc.pl, cfg.delay);
    std::printf("monotone lower bound: %.2f ns | critical-path detour %.2fx\n",
                monotone_lower_bound(tg), path_detour_ratio(tg, tg.critical_path()));
  }

  EngineOptions opt;
  opt.variant = variant;
  EngineResult r = run_replication_engine(*pc.nl, *pc.pl, cfg.delay, opt);
  std::printf("\nengine: %.2f -> %.2f ns estimate over %zu iterations\n",
              r.initial_critical, r.final_critical, r.history.size());
  std::printf("        %d replicated, %d unified, blocks %zu -> %zu%s%s\n",
              r.total_replicated, r.total_unified, r.initial_blocks,
              r.final_blocks, r.ran_out_of_slots ? " [ran out of free slots]" : "",
              r.reached_lower_bound ? " [reached monotone lower bound]" : "");

  std::string why;
  if (!functionally_equivalent(golden, *pc.nl, 64, 99, &why)) {
    std::printf("EQUIVALENCE FAILURE: %s\n", why.c_str());
    return 1;
  }

  CircuitMetrics after = evaluate_routed(pc.name, *pc.nl, *pc.pl, cfg);
  std::printf("\noptimized:    W_inf %.2f ns | W_ls %.2f ns (Wmin %d) | "
              "wirelength %lld\n",
              after.crit_winf, after.crit_wls, after.wmin,
              static_cast<long long>(after.wirelength));
  std::printf("normalized to VPR: W_inf %.3f | W_ls %.3f | wire %.3f | blk %.3f\n",
              after.crit_winf / before.crit_winf, after.crit_wls / before.crit_wls,
              static_cast<double>(after.wirelength) / before.wirelength,
              static_cast<double>(after.blocks) / before.blocks);
  return 0;
}
