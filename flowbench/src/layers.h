#pragma once

// Per-layer counter totals over one pass's jobs, read from the results the
// program's public calls return (PlacerStats, EngineResult, CircuitMetrics).

#include <cmath>
#include <map>
#include <string>

#include "flow/experiment.h"
#include "place/placer.h"
#include "replicate/engine.h"

namespace flowbench {

struct LayerTotals {
  double place_work = 0, place_proposed = 0, place_accepted = 0,
         legalizer_passes = 0;
  double iterations = 0, improved = 0, tree_internal = 0, replicated = 0,
         unified = 0, blocks_before = 0, blocks_after = 0, lower_bound_hits = 0,
         region_truncations = 0;
  double spec_launched = 0, spec_hits = 0, spec_discarded = 0;
  double route_nodes = 0, route_passes = 0, log_wmin = 0, routed = 0;

  void add_place(const repro::PlacerStats& s) {
    place_work += static_cast<double>(s.work_units());
    place_proposed +=
        static_cast<double>(s.anneal.moves_proposed + s.polish.moves_proposed);
    place_accepted +=
        static_cast<double>(s.anneal.moves_accepted + s.polish.moves_accepted);
    legalizer_passes += s.legalizer_passes;
  }

  void add_engine(const repro::EngineResult& r) {
    iterations += static_cast<double>(r.history.size());
    for (const repro::IterationStats& it : r.history) {
      improved += it.improved ? 1 : 0;
      tree_internal += static_cast<double>(it.tree_internal);
    }
    replicated += r.total_replicated;
    unified += r.total_unified;
    blocks_before += static_cast<double>(r.initial_blocks);
    blocks_after += static_cast<double>(r.final_blocks);
    lower_bound_hits += r.reached_lower_bound ? 1 : 0;
    region_truncations += static_cast<double>(r.region_truncations);
    spec_launched += static_cast<double>(r.speculations_launched);
    spec_hits += static_cast<double>(r.speculation_hits);
    spec_discarded += static_cast<double>(r.speculations_discarded);
  }

  void add_route(const repro::CircuitMetrics& m) {
    route_nodes += static_cast<double>(m.route_nodes_expanded);
    route_passes += static_cast<double>(m.route_passes);
    log_wmin += std::log(std::max(1, m.wmin));
    routed += 1;
  }

  void store(std::map<std::string, double>& out) const {
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    out["place.work_units"] = place_work;
    out["place.accept_ratio"] = ratio(place_accepted, place_proposed);
    out["place.legalizer_passes"] = legalizer_passes;
    out["replicate.iterations"] = iterations;
    out["replicate.improve_ratio"] = ratio(improved, iterations);
    out["replicate.tree_internal_total"] = tree_internal;
    out["replicate.replicated"] = replicated;
    out["replicate.unified"] = unified;
    out["replicate.block_overhead_pct"] =
        100.0 * ratio(blocks_after - blocks_before, blocks_before);
    out["replicate.lower_bound_hits"] = lower_bound_hits;
    out["replicate.region_truncations"] = region_truncations;
    out["replicate.spec_launched"] = spec_launched;
    out["replicate.spec_hits"] = spec_hits;
    out["replicate.spec_hit_ratio"] = ratio(spec_hits, spec_launched);
    out["replicate.spec_discarded"] = spec_discarded;
    out["route.nodes_expanded"] = route_nodes;
    out["route.passes"] = route_passes;
    out["route.wmin"] = routed > 0 ? std::exp(log_wmin / routed) : 0.0;
  }
};

}  // namespace flowbench
