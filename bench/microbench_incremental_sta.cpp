// Microbenchmark: incremental TimingEngine updates vs from-scratch
// TimingGraph rebuilds, across circuit sizes, for the two delta shapes the
// optimization loops generate:
//
//   * placement delta — one cell moved (the annealer/legalizer case);
//   * netlist delta   — one replication (replica + rewired fanouts + possible
//     redundant-removal), the replication-engine case.
//
// For every measurement the incremental critical delay is checked against the
// rebuilt graph, so the speedup reported is for *equivalent* answers. Beside
// the times it counts the work both ways: timing nodes re-timed and edges
// re-delayed by the incremental updates, against the nodes and edges of the
// rebuilt graphs. Emits BENCH_incremental_sta.json in the working directory.
//
// Gate (--smoke runs the smallest size only). With --reference <committed
// BENCH_incremental_sta.json> the smallest size's work counts, which are
// deterministic, must equal the committed smoke_gate line exactly.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gen/circuit_gen.h"
#include "place/annealer.h"
#include "timing/timing_engine.h"
#include "timing/timing_graph.h"
#include "util/rng.h"
#include "util/stats.h"

namespace repro {
namespace {

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

struct Fixture {
  Netlist nl;
  FpgaGrid grid;
  LinearDelayModel dm;
  Placement pl;

  static Netlist make(int num_logic, std::uint64_t seed) {
    CircuitSpec spec;
    spec.num_logic = num_logic;
    spec.num_inputs = 16;
    spec.num_outputs = 16;
    spec.registered_fraction = 0.25;
    spec.depth = 9;
    spec.seed = seed;
    return generate_circuit(spec);
  }

  Fixture(int num_logic, std::uint64_t seed)
      : nl(make(num_logic, seed)),
        grid(FpgaGrid::min_grid_for(nl.num_logic() + 64,
                                    nl.num_input_pads() + nl.num_output_pads())),
        pl([&] {
          Rng rng(seed * 31 + 5);
          return random_placement(nl, grid, rng);
        }()) {}
};

/// Work of one delta shape over all its reps: what the incremental updates
/// re-timed, and what the rebuilds visited (every node and edge).
struct Work {
  std::uint64_t ops = 0;
  std::uint64_t nodes_retimed = 0;
  std::uint64_t edges_redelayed = 0;
  std::uint64_t rebuild_nodes = 0;
  std::uint64_t rebuild_edges = 0;
};

double per_op(const Work& w, std::uint64_t total) {
  return w.ops ? static_cast<double>(total) / static_cast<double>(w.ops) : 0.0;
}

struct SizeResult {
  int num_logic = 0;
  std::size_t nodes = 0;
  std::size_t edges = 0;
  double rebuild_move_us = 0;      // full TimingGraph per single-cell move
  double incremental_move_us = 0;  // on_cell_moved + update()
  double move_speedup = 0;
  double rebuild_splice_us = 0;      // full TimingGraph per replication
  double incremental_splice_us = 0;  // on_cells_rewired + update()
  double splice_speedup = 0;
  Work move;
  Work splice;
};

/// Runs one incremental update, adding the nodes and edges it re-timed.
template <class Fn>
void count_update(Work& w, Fn&& update) {
  const TimingCounters& tc = timing_counters();
  const std::uint64_t nodes = tc.nodes_reevaluated;
  const std::uint64_t edges = tc.edges_redelayed;
  update();
  w.nodes_retimed += tc.nodes_reevaluated - nodes;
  w.edges_redelayed += tc.edges_redelayed - edges;
  ++w.ops;
}

void count_rebuild(Work& w, const TimingGraph& fresh) {
  w.rebuild_nodes += fresh.num_nodes();
  w.rebuild_edges += fresh.num_edges();
}

/// Measures single-cell-move re-timing, both ways, over `reps` random moves.
void bench_moves(Fixture& f, SizeResult& out, int reps) {
  Rng rng(99);
  std::vector<CellId> logic;
  for (CellId c : f.nl.live_cells())
    if (f.nl.cell(c).kind == CellKind::kLogic) logic.push_back(c);
  const auto& slots = f.grid.logic_locations();

  TimingEngine eng(f.nl, f.pl, f.dm);
  double t_inc = 0;
  double t_full = 0;
  for (int i = 0; i < reps; ++i) {
    CellId c = logic[rng.next_below(logic.size())];
    f.pl.place(c, slots[rng.next_below(slots.size())]);

    double t0 = now_seconds();
    count_update(out.move, [&] {
      eng.on_cell_moved(c);
      eng.update();
    });
    t_inc += now_seconds() - t0;

    t0 = now_seconds();
    TimingGraph fresh(f.nl, f.pl, f.dm);
    t_full += now_seconds() - t0;
    count_rebuild(out.move, fresh);

    if (std::abs(fresh.critical_delay() - eng.graph().critical_delay()) > 1e-9) {
      std::fprintf(stderr, "MISMATCH move: %f vs %f\n", fresh.critical_delay(),
                   eng.graph().critical_delay());
      std::exit(1);
    }
  }
  out.rebuild_move_us = 1e6 * t_full / reps;
  out.incremental_move_us = 1e6 * t_inc / reps;
  out.move_speedup = t_full / t_inc;
}

/// Measures netlist-splice re-timing: replicate a fanout>=2 cell, move half
/// its fanouts to the replica, drain redundant originals.
void bench_splices(Fixture& f, SizeResult& out, int reps) {
  Rng rng(123);
  const auto& slots = f.grid.logic_locations();
  TimingEngine eng(f.nl, f.pl, f.dm);
  double t_inc = 0;
  double t_full = 0;
  for (int i = 0; i < reps; ++i) {
    std::vector<CellId> cands;
    for (CellId c : f.nl.live_cells())
      if (f.nl.cell(c).kind == CellKind::kLogic &&
          f.nl.net(f.nl.cell(c).output).sinks.size() >= 2)
        cands.push_back(c);
    if (cands.empty()) break;
    CellId orig = cands[rng.next_below(cands.size())];
    CellId rep = f.nl.replicate_cell(orig);
    f.pl.place(rep, slots[rng.next_below(slots.size())]);
    std::vector<CellId> rewired{rep};
    std::vector<Sink> sinks = f.nl.net(f.nl.cell(orig).output).sinks;
    for (std::size_t k = 0; k < sinks.size(); ++k) {
      if (k % 2) continue;
      f.nl.reassign_input(sinks[k].cell, sinks[k].pin, f.nl.cell(rep).output);
      rewired.push_back(sinks[k].cell);
    }
    std::vector<CellId> deleted;
    f.nl.remove_if_redundant(orig, &deleted);
    for (CellId d : deleted) {
      f.pl.unplace(d);
      rewired.push_back(d);
    }

    double t0 = now_seconds();
    count_update(out.splice, [&] {
      eng.on_cells_rewired(rewired);
      eng.update();
    });
    t_inc += now_seconds() - t0;

    t0 = now_seconds();
    TimingGraph fresh(f.nl, f.pl, f.dm);
    t_full += now_seconds() - t0;
    count_rebuild(out.splice, fresh);

    if (std::abs(fresh.critical_delay() - eng.graph().critical_delay()) > 1e-9) {
      std::fprintf(stderr, "MISMATCH splice: %f vs %f\n", fresh.critical_delay(),
                   eng.graph().critical_delay());
      std::exit(1);
    }
  }
  const auto done = static_cast<double>(out.splice.ops);
  out.rebuild_splice_us = 1e6 * t_full / done;
  out.incremental_splice_us = 1e6 * t_inc / done;
  out.splice_speedup = t_full / t_inc;
}

}  // namespace
}  // namespace repro

int main(int argc, char** argv) {
  using namespace repro;
  bench::BenchArgs args;
  if (!bench::parse_bench_args(argc, argv, "incremental_sta", &args)) return 2;
  const bool smoke = args.smoke;
  const std::vector<int> sizes =
      smoke ? std::vector<int>{200} : std::vector<int>{200, 800, 3200};
  std::vector<SizeResult> results;
  for (int num_logic : sizes) {
    Fixture f(num_logic, 17);
    SizeResult r;
    r.num_logic = num_logic;
    {
      TimingGraph tg(f.nl, f.pl, f.dm);
      r.nodes = tg.num_nodes();
      r.edges = tg.num_edges();
    }
    const int reps = num_logic >= 3200 ? 60 : 200;
    bench_moves(f, r, reps);
    bench_splices(f, r, reps / 2);
    std::printf(
        "n=%5d  move: full %8.1fus  incr %7.2fus  (%6.1fx)   "
        "splice: full %8.1fus  incr %7.2fus  (%6.1fx)\n"
        "         per move: %.1f nodes / %.1f edges re-timed vs %.0f / %.0f rebuilt   "
        "per splice: %.1f / %.1f vs %.0f / %.0f\n",
        r.num_logic, r.rebuild_move_us, r.incremental_move_us, r.move_speedup,
        r.rebuild_splice_us, r.incremental_splice_us, r.splice_speedup,
        per_op(r.move, r.move.nodes_retimed), per_op(r.move, r.move.edges_redelayed),
        per_op(r.move, r.move.rebuild_nodes), per_op(r.move, r.move.rebuild_edges),
        per_op(r.splice, r.splice.nodes_retimed), per_op(r.splice, r.splice.edges_redelayed),
        per_op(r.splice, r.splice.rebuild_nodes), per_op(r.splice, r.splice.rebuild_edges));
    results.push_back(r);
  }

  // The smoke gate reads the smallest size, which both full and smoke runs
  // execute first.
  std::vector<bench::GateField> smoke_gate;
  for (const auto& [name, w] : {std::pair<const char*, const Work&>{"move", results[0].move},
                                std::pair<const char*, const Work&>{"splice", results[0].splice}}) {
    const std::string k = std::string("smoke_") + name + "_";
    smoke_gate.push_back(bench::exact(k + "ops", w.ops));
    smoke_gate.push_back(bench::exact(k + "nodes_retimed", w.nodes_retimed));
    smoke_gate.push_back(bench::exact(k + "edges_redelayed", w.edges_redelayed));
    smoke_gate.push_back(bench::exact(k + "rebuild_nodes", w.rebuild_nodes));
    smoke_gate.push_back(bench::exact(k + "rebuild_edges", w.rebuild_edges));
  }
  const int failures = bench::check_gates(args, smoke_gate, {});

  FILE* out = std::fopen("BENCH_incremental_sta.json", "w");
  if (!out) {
    std::fprintf(stderr, "cannot open BENCH_incremental_sta.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::emit_summary(out, "incremental_sta", results.back().move_speedup);
  std::fprintf(out, "  \"benchmark\": \"incremental_sta\",\n  \"smoke\": %s,\n",
               smoke ? "true" : "false");
  bench::write_smoke_gate(out, smoke_gate);
  std::fprintf(out,
               "  \"note\": \"work counts are totals over each size's reps and "
               "hardware-independent: timing nodes re-timed and edges re-delayed by the "
               "incremental updates, against the nodes and edges of the rebuilt graphs; "
               "microseconds are machine-dependent telemetry\",\n  \"sizes\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    std::fprintf(out,
                 "    {\"num_logic\": %d, \"timing_nodes\": %zu, "
                 "\"timing_edges\": %zu,\n"
                 "     \"move_full_rebuild_us\": %.2f, \"move_incremental_us\": "
                 "%.3f, \"move_speedup\": %.1f,\n"
                 "     \"splice_full_rebuild_us\": %.2f, "
                 "\"splice_incremental_us\": %.3f, \"splice_speedup\": %.1f,\n",
                 r.num_logic, r.nodes, r.edges, r.rebuild_move_us,
                 r.incremental_move_us, r.move_speedup, r.rebuild_splice_us,
                 r.incremental_splice_us, r.splice_speedup);
    for (const auto& [name, w] : {std::pair<const char*, const Work&>{"move", r.move},
                                  std::pair<const char*, const Work&>{"splice", r.splice}})
      std::fprintf(out,
                   "     \"%s_ops\": %llu, \"%s_nodes_retimed\": %llu, "
                   "\"%s_edges_redelayed\": %llu, \"%s_rebuild_nodes\": %llu, "
                   "\"%s_rebuild_edges\": %llu%s\n",
                   name, static_cast<unsigned long long>(w.ops), name,
                   static_cast<unsigned long long>(w.nodes_retimed), name,
                   static_cast<unsigned long long>(w.edges_redelayed), name,
                   static_cast<unsigned long long>(w.rebuild_nodes), name,
                   static_cast<unsigned long long>(w.rebuild_edges),
                   &w == &r.move ? "," : (i + 1 < results.size() ? "}," : "}"));
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  return failures == 0 ? 0 : 1;
}
