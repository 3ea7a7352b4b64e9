// Microbenchmark: ECO session per-delta incremental evaluation vs a cold
// re-run (full TimingGraph rebuild + wirelength re-sum on the same state),
// plus the result-cache hit path (a second session replaying an identical
// delta stream from the shared cache).
//
// Every evaluated delta is checked against the cold rebuild (1e-9 on the
// critical path, exact on wirelength), and each session finishes with the
// paranoid cold-rebuild journal audit — the speedups reported are for
// *equivalent* answers. Emits BENCH_eco.json in the working directory.
//
// Gates:
//   full run    geomean per-delta speedup >= 10x and cache-hit speedup
//               >= 100x over the full circuits.
//   --smoke     the gate circuit only. With --reference <committed
//               BENCH_eco.json>, the deterministic smoke counters (journal
//               chain, applied/rejected/cache-hit counts) must match the
//               committed values exactly — they are machine-independent —
//               and the committed aggregates must pass the full-run gates.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "eco/session.h"
#include "gen/circuit_gen.h"
#include "place/annealer.h"
#include "timing/timing_graph.h"
#include "util/rng.h"

namespace repro {
namespace {

struct BenchCircuit {
  const char* name;
  double scale;
  std::uint64_t seed;
  int deltas;
};

// The first entry is the smoke/gate circuit; full runs extend the list.
const BenchCircuit kGate = {"tseng", 0.1, 11, 50};
const BenchCircuit kFull[] = {
    {"tseng", 5.0, 11, 64},
    {"ex5p", 5.0, 12, 64},
    {"alu4", 5.0, 13, 64},
};

FlowSnapshot make_base(const BenchCircuit& bc) {
  const McncCircuit* c = find_mcnc_circuit(bc.name);
  FlowSnapshot s;
  s.job_id = "bench";
  s.circuit = bc.name;
  s.variant = "none";
  s.stage = FlowStage::kPlaced;
  s.cfg.scale = bc.scale;
  s.cfg.seed = bc.seed;
  s.nl = std::make_unique<Netlist>(
      generate_circuit(spec_for(*c, bc.scale, bc.seed)));
  // +64 logic slots of slack so ripple legalization always has room.
  s.grid_n = FpgaGrid::min_grid_for(
      s.nl->num_logic() + 64,
      s.nl->num_input_pads() + s.nl->num_output_pads());
  s.grid = std::make_unique<FpgaGrid>(s.grid_n, s.grid_io_rat);
  Rng prng(bc.seed * 31 + 5);
  s.pl = std::make_unique<Placement>(random_placement(*s.nl, *s.grid, prng));
  return s;
}

std::vector<CellId> logic_cells(const Netlist& nl) {
  std::vector<CellId> out;
  for (CellId c : nl.live_cell_ids())
    if (nl.cell(c).kind == CellKind::kLogic) out.push_back(c);
  return out;
}

/// One deterministic pseudo-random delta, valid against the current state by
/// construction (moves target free or at-capacity logic slots, rewires only
/// duplicate a net the cell already listens to — provably acyclic).
Delta random_delta(Rng& rng, const Netlist& nl, const Placement& pl) {
  const std::vector<CellId> logic = logic_cells(nl);
  for (;;) {
    const std::uint64_t roll = rng.next_u64() % 100;
    if (roll < 55) {  // move to a free slot
      const std::vector<Point> free = pl.free_logic_locations();
      if (free.empty()) continue;
      Delta d;
      d.kind = DeltaKind::kMoveCell;
      d.cell = logic[rng.next_u64() % logic.size()].value();
      const Point p = free[rng.next_u64() % free.size()];
      d.x = p.x;
      d.y = p.y;
      return d;
    }
    if (roll < 61) {  // move onto another cell's slot (legalizer territory)
      const CellId mover = logic[rng.next_u64() % logic.size()];
      const CellId other = logic[rng.next_u64() % logic.size()];
      const Point p = pl.location(other);
      if (p == pl.location(mover)) continue;
      Delta d;
      d.kind = DeltaKind::kMoveCell;
      d.cell = mover.value();
      d.x = p.x;
      d.y = p.y;
      return d;
    }
    if (roll < 81) {  // function change, register flag kept
      const CellId c = logic[rng.next_u64() % logic.size()];
      Delta d;
      d.kind = DeltaKind::kSetFunction;
      d.cell = c.value();
      d.function = nl.cell(c).function ^ (rng.next_u64() | 1);
      d.registered = nl.cell(c).registered;
      return d;
    }
    if (roll < 96) {  // rewire pin p onto the net of sibling pin q
      const CellId c = logic[rng.next_u64() % logic.size()];
      const Cell& cc = nl.cell(c);
      if (cc.inputs.size() < 2) continue;
      const int p = static_cast<int>(rng.next_u64() % cc.inputs.size());
      const int q = static_cast<int>(rng.next_u64() % cc.inputs.size());
      if (p == q || cc.inputs[p] == cc.inputs[q]) continue;
      if (nl.net(cc.inputs[q]).driver == c) continue;  // self-driven net
      Delta d;
      d.kind = DeltaKind::kRewireInput;
      d.cell = c.value();
      d.pin = p;
      d.net = cc.inputs[q].value();
      return d;
    }
    // Delay-model nudge: perturb the wire constant a little.
    Delta d;
    d.kind = DeltaKind::kSetDelayModel;
    d.wire_delay_per_unit = 1.0 + 0.01 * static_cast<double>(rng.next_u64() % 10);
    d.logic_delay = 0.5;
    d.io_delay = 0.3;
    d.ff_delay = 0.2;
    return d;
  }
}

struct CircuitResult {
  std::string name;
  std::size_t cells = 0;
  int deltas = 0;
  int applied = 0;
  int rejected = 0;
  double inc_us = 0;   // per applied delta: session apply (validate+mutate+eval)
  double cold_us = 0;  // per applied delta: cold TimingGraph + wirelength
  double hit_us = 0;       // per plain cache-hit replay apply
  double hit_legal_us = 0; // per cache-hit apply that re-legalized a region
  int hit_legal = 0;       // how many replay applies re-legalized
  double speedup = 0;
  double hit_speedup = 0;
  std::uint64_t chain = 0;
  std::uint64_t replay_hits = 0;
  std::uint64_t replay_misses = 0;
  double final_crit = 0;
  double final_wl = 0;
};

CircuitResult run_circuit(const BenchCircuit& bc, int* failures) {
  CircuitResult r;
  r.name = bc.name;
  r.deltas = bc.deltas;

  EcoResultCache cache;
  EcoSessionOptions opt;
  opt.cache = &cache;

  FlowSnapshot base = make_base(bc);
  r.cells = base.nl->num_live_cells();
  EcoSession lead("bench-lead", std::move(base), opt);

  Rng rng(bc.seed * 977 + 1);
  std::vector<Delta> stream;
  double inc_seconds = 0, cold_seconds = 0;
  for (int i = 0; i < bc.deltas; ++i) {
    const Delta d = random_delta(rng, lead.netlist(), lead.placement());
    stream.push_back(d);
    double t0 = bench::now_seconds();
    const EcoDeltaResult res = lead.apply(d);
    inc_seconds += bench::now_seconds() - t0;
    if (!res.applied) {
      ++r.rejected;
      continue;
    }
    ++r.applied;
    // Cold re-run: what a batch user pays for the same answer.
    t0 = bench::now_seconds();
    const TimingGraph cold(lead.netlist(), lead.placement(),
                           lead.config().delay);
    const double cold_crit = cold.critical_delay();
    const double cold_wl = lead.placement().total_wirelength();
    cold_seconds += bench::now_seconds() - t0;
    if (std::abs(res.crit_ns - cold_crit) > 1e-9 ||
        res.wirelength != cold_wl) {
      std::fprintf(stderr,
                   "FAIL %s delta %d: incremental %.17g/%.17g vs cold "
                   "%.17g/%.17g\n",
                   bc.name, i, res.crit_ns, res.wirelength, cold_crit, cold_wl);
      ++*failures;
    }
    r.final_crit = res.crit_ns;
    r.final_wl = res.wirelength;
  }
  r.chain = lead.chain();

  const std::string audit = lead.cold_rebuild_audit();
  if (!audit.empty()) {
    std::fprintf(stderr, "FAIL %s: %s\n", bc.name, audit.c_str());
    ++*failures;
  }

  // Cache-hit replay: identical base, identical stream, shared cache. Hits
  // that trigger region re-legalization are timed separately: the cache
  // skips *evaluation* (timing, wirelength, audit), but a ripple re-place is
  // state mutation and runs either way.
  EcoSession follow("bench-follow", make_base(bc), opt);
  double hit_seconds = 0, hit_legal_seconds = 0;
  int hit_plain = 0;
  for (const Delta& d : stream) {
    const double t0 = bench::now_seconds();
    const EcoDeltaResult res = follow.apply(d);
    const double dt = bench::now_seconds() - t0;
    if (!res.applied) continue;
    if (res.legalizer_moves > 0) {
      hit_legal_seconds += dt;
      ++r.hit_legal;
    } else {
      hit_seconds += dt;
      ++hit_plain;
    }
  }
  r.replay_hits = follow.cache_hits();
  r.replay_misses = follow.cache_misses();
  if (follow.chain() != lead.chain() || r.replay_misses != 0) {
    std::fprintf(stderr,
                 "FAIL %s: replay diverged (chain %016llx vs %016llx, "
                 "%llu misses)\n",
                 bc.name, static_cast<unsigned long long>(follow.chain()),
                 static_cast<unsigned long long>(lead.chain()),
                 static_cast<unsigned long long>(r.replay_misses));
    ++*failures;
  }

  const double n = r.applied > 0 ? r.applied : 1;
  r.inc_us = inc_seconds / n * 1e6;
  r.cold_us = cold_seconds / n * 1e6;
  r.hit_us = hit_seconds / (hit_plain > 0 ? hit_plain : 1) * 1e6;
  r.hit_legal_us =
      hit_legal_seconds / (r.hit_legal > 0 ? r.hit_legal : 1) * 1e6;
  r.speedup = r.cold_us / std::max(r.inc_us, 1e-9);
  r.hit_speedup = r.cold_us / std::max(r.hit_us, 1e-9);
  std::printf(
      "%-8s cells=%5zu deltas=%3d applied=%3d rejected=%2d "
      "inc=%8.1fus cold=%8.1fus hit=%7.1fus (+%d relegal @%7.1fus) "
      "speedup=%6.1fx hit=%7.1fx chain=%016llx\n",
      r.name.c_str(), r.cells, r.deltas, r.applied, r.rejected, r.inc_us,
      r.cold_us, r.hit_us, r.hit_legal, r.hit_legal_us, r.speedup,
      r.hit_speedup, static_cast<unsigned long long>(r.chain));
  std::fflush(stdout);
  return r;
}

}  // namespace
}  // namespace repro

int main(int argc, char** argv) {
  using namespace repro;
  bench::BenchArgs args;
  if (!bench::parse_bench_args(argc, argv, "eco", &args)) return 2;
  const bool smoke = args.smoke;

  int failures = 0;
  std::vector<CircuitResult> results;
  results.push_back(run_circuit(kGate, &failures));
  if (!smoke)
    for (const BenchCircuit& bc : kFull)
      results.push_back(run_circuit(bc, &failures));

  // Aggregates: geomean over the full-size circuits (all, in smoke mode).
  double log_speedup = 0, log_hit = 0;
  std::size_t agg_begin = smoke ? 0 : 1, agg_n = 0;
  for (std::size_t i = agg_begin; i < results.size(); ++i) {
    log_speedup += std::log(results[i].speedup);
    log_hit += std::log(results[i].hit_speedup);
    ++agg_n;
  }
  const double geo_speedup = std::exp(log_speedup / agg_n);
  const double geo_hit = std::exp(log_hit / agg_n);
  std::printf("geomean per-delta speedup %.1fx, cache-hit speedup %.1fx\n",
              geo_speedup, geo_hit);

  // Deterministic smoke counters (always from the gate circuit, which both
  // full and smoke runs execute first).
  const CircuitResult& gate = results[0];
  const std::vector<bench::GateField> smoke_gate = {
      bench::exact("smoke_chain", bench::hex(gate.chain)),
      bench::exact("smoke_applied", gate.applied),
      bench::exact("smoke_rejected", gate.rejected),
      bench::exact("smoke_cache_hits", gate.replay_hits),
  };
  const std::vector<bench::HeadlineGate> headline = {
      {"summary", "aggregate_speedup", bench::GateRule::kAtLeast, 10.0,
       geo_speedup},
      {"cache_hit", "aggregate_speedup", bench::GateRule::kAtLeast, 100.0,
       geo_hit},
  };
  failures += bench::check_gates(args, smoke_gate, headline);

  FILE* out = std::fopen("BENCH_eco.json", "w");
  if (!out) {
    std::fprintf(stderr, "cannot open BENCH_eco.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::emit_summary(out, "eco", geo_speedup);
  std::fprintf(out,
               "  \"benchmark\": \"eco\",\n  \"smoke\": %s,\n"
               "  \"cache_hit\": {\"aggregate_speedup\": %.1f},\n",
               smoke ? "true" : "false", geo_hit);
  bench::write_smoke_gate(out, smoke_gate);
  std::fprintf(out,
               "  \"note\": \"incremental = EcoSession::apply "
               "(validate+mutate+legalize+re-time); cold = full TimingGraph "
               "rebuild + wirelength re-sum on the same state; hit = replay "
               "of an identical stream through the shared result cache, "
               "averaged over re-submissions that did not trigger region "
               "re-legalization (a ripple re-place is state mutation, not "
               "evaluation, and is timed separately as "
               "cache_hit_relegalize_us). us/speedups are machine-dependent "
               "telemetry; the smoke gate compares only the deterministic "
               "smoke counters\",\n"
               "  \"circuits\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CircuitResult& r = results[i];
    std::fprintf(
        out,
        "    {\"circuit\": \"%s\", \"cells\": %zu, \"deltas\": %d, "
        "\"applied\": %d, \"rejected\": %d,\n"
        "     \"incremental_us_per_delta\": %.1f, \"cold_us_per_delta\": "
        "%.1f, \"cache_hit_us_per_delta\": %.1f,\n"
        "     \"cache_hit_relegalize_count\": %d, "
        "\"cache_hit_relegalize_us\": %.1f,\n"
        "     \"speedup\": %.1f, \"cache_hit_speedup\": %.1f,\n"
        "     \"replay_cache_hits\": %llu, \"replay_cache_misses\": %llu,\n"
        "     \"final_critical_ns\": %.6f, \"final_wirelength\": %.1f, "
        "\"final_chain\": \"%016llx\"}%s\n",
        r.name.c_str(), r.cells, r.deltas, r.applied, r.rejected, r.inc_us,
        r.cold_us, r.hit_us, r.hit_legal, r.hit_legal_us, r.speedup,
        r.hit_speedup,
        static_cast<unsigned long long>(r.replay_hits),
        static_cast<unsigned long long>(r.replay_misses), r.final_crit,
        r.final_wl, static_cast<unsigned long long>(r.chain),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_eco.json (%s)\n", smoke ? "smoke" : "full");
  return failures == 0 ? 0 : 1;
}
