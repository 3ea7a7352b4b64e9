// Randomized equivalence tests for the incremental TimingEngine: interleaved
// placement moves, replications (netlist splices), unifications, deletions,
// and commit/rollback must keep the engine's arrival/required/slack and
// critical delay bit-equal (1e-12) to a from-scratch TimingGraph oracle at
// every step. Also pins down the zero-rebuild property: after initialization
// the annealer and the replication engine perform no from-scratch TimingGraph
// constructions (observed via timing_counters(), not asserted by reading the
// code), and the keep-or-sort rule for the topological order after a splice.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gen/circuit_gen.h"
#include "place/annealer.h"
#include "replicate/engine.h"
#include "timing/timing_engine.h"
#include "timing/timing_graph.h"
#include "util/rng.h"
#include "util/stats.h"

namespace repro {
namespace {

Netlist make_circuit(std::uint64_t seed, int num_logic = 120) {
  CircuitSpec spec;
  spec.num_logic = num_logic;
  spec.num_inputs = 10;
  spec.num_outputs = 10;
  spec.registered_fraction = 0.25;
  spec.depth = 7;
  spec.seed = seed;
  return generate_circuit(spec);
}

/// The engine's values must match a freshly built TimingGraph on every live
/// cell's nodes (arrival, required, slack) and on the critical delay.
void expect_matches_oracle(const TimingEngine& eng, const Netlist& nl,
                           const Placement& pl, const LinearDelayModel& dm,
                           const char* ctx) {
  TimingCounterSuppressor suppress;  // oracle builds are test scaffolding
  TimingGraph oracle(nl, pl, dm);
  const TimingGraph& inc = eng.graph();
  ASSERT_NEAR(inc.critical_delay(), oracle.critical_delay(), 1e-12) << ctx;
  for (CellId c : nl.live_cells()) {
    TimingNodeId ei = inc.out_node(c);
    TimingNodeId oi = oracle.out_node(c);
    ASSERT_EQ(ei.valid(), oi.valid()) << ctx << " out node of " << nl.cell(c).name;
    if (ei.valid()) {
      ASSERT_NEAR(inc.arrival(ei), oracle.arrival(oi), 1e-12)
          << ctx << " arrival " << nl.cell(c).name;
      ASSERT_NEAR(inc.required(ei), oracle.required(oi), 1e-12)
          << ctx << " required " << nl.cell(c).name;
      ASSERT_NEAR(inc.slack(ei), oracle.slack(oi), 1e-12)
          << ctx << " slack " << nl.cell(c).name;
    }
    TimingNodeId es = inc.sink_node(c);
    TimingNodeId os = oracle.sink_node(c);
    ASSERT_EQ(es.valid(), os.valid()) << ctx << " sink node of " << nl.cell(c).name;
    if (es.valid()) {
      ASSERT_NEAR(inc.arrival(es), oracle.arrival(os), 1e-12)
          << ctx << " sink arrival " << nl.cell(c).name;
      ASSERT_NEAR(inc.required(es), oracle.required(os), 1e-12)
          << ctx << " sink required " << nl.cell(c).name;
      ASSERT_NEAR(inc.slack(es), oracle.slack(os), 1e-12)
          << ctx << " sink slack " << nl.cell(c).name;
    }
  }
}

/// The engine's kept order must list every node slot exactly once, with each
/// live edge running from an earlier position to a later one.
void expect_valid_topo_order(const TimingGraph& g, const char* ctx) {
  const std::vector<TimingNodeId>& order = g.topo_order();
  ASSERT_EQ(order.size(), g.num_nodes()) << ctx;
  std::vector<int> pos(g.num_nodes(), -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(pos[order[i].index()], -1) << ctx << " node listed twice";
    pos[order[i].index()] = static_cast<int>(i);
  }
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    if (!g.edge_live(e)) continue;
    ASSERT_LT(pos[g.edge(e).from.index()], pos[g.edge(e).to.index()])
        << ctx << " edge " << e << " runs backward";
  }
}

/// Driver of the randomized op mix. Returns a short description of the op.
class OpMixer {
 public:
  OpMixer(Netlist& nl, Placement& pl, TimingEngine& eng, Rng& rng)
      : nl_(nl), pl_(pl), eng_(eng), rng_(rng) {}

  void random_move() {
    std::vector<CellId> cells = nl_.live_cells();
    CellId c = cells[rng_.next_below(cells.size())];
    const bool is_logic = nl_.cell(c).kind == CellKind::kLogic;
    const auto& slots =
        is_logic ? pl_.grid().logic_locations() : pl_.grid().io_locations();
    pl_.place(c, slots[rng_.next_below(slots.size())]);
    eng_.on_cell_moved(c);
  }

  void random_replicate() {
    // A logic cell with fanout >= 2; partition its fanouts between the
    // original and a replica placed at a random slot.
    std::vector<CellId> cands;
    for (CellId c : nl_.live_cells())
      if (nl_.cell(c).kind == CellKind::kLogic &&
          nl_.net(nl_.cell(c).output).sinks.size() >= 2)
        cands.push_back(c);
    if (cands.empty()) return;
    CellId orig = cands[rng_.next_below(cands.size())];
    CellId rep = nl_.replicate_cell(orig);
    const auto& slots = pl_.grid().logic_locations();
    pl_.place(rep, slots[rng_.next_below(slots.size())]);
    eng_.on_cell_rewired(rep);
    std::vector<Sink> sinks = nl_.net(nl_.cell(orig).output).sinks;
    for (const Sink& s : sinks) {
      if (rng_.next_below(2) == 0) continue;
      nl_.reassign_input(s.cell, s.pin, nl_.cell(rep).output);
      eng_.on_cell_rewired(s.cell);
    }
    drain(orig);
    drain(rep);  // possible when every fanout stayed with the original
  }

  void random_unify() {
    // Two live members of one equivalence class: move every fanout of the
    // first onto the second, deleting the drained cell (and recursively its
    // newly dead fan-in).
    std::vector<CellId> cells = nl_.live_cells();
    rng_.shuffle(cells);
    for (CellId a : cells) {
      if (nl_.cell(a).kind != CellKind::kLogic) continue;
      for (CellId b : cells) {
        if (a == b || !nl_.cell_alive(a) || !nl_.cell_alive(b)) continue;
        if (nl_.cell(b).kind != CellKind::kLogic || !nl_.equivalent(a, b)) continue;
        std::vector<CellId> rewired;
        for (const Sink& s : nl_.net(nl_.cell(a).output).sinks)
          rewired.push_back(s.cell);
        std::vector<CellId> deleted;
        nl_.unify(a, b, &deleted);
        for (CellId d : deleted) pl_.unplace(d);
        eng_.on_cells_rewired(rewired);
        eng_.on_cells_rewired(deleted);
        return;
      }
    }
  }

 private:
  void drain(CellId c) {
    if (!nl_.cell_alive(c)) return;
    std::vector<CellId> deleted;
    nl_.remove_if_redundant(c, &deleted);
    for (CellId d : deleted) {
      pl_.unplace(d);
      eng_.on_cell_rewired(d);
    }
  }

  Netlist& nl_;
  Placement& pl_;
  TimingEngine& eng_;
  Rng& rng_;
};

TEST(IncrementalTiming, RandomOpsMatchFromScratchOracle) {
  Netlist nl = make_circuit(42);
  FpgaGrid grid(FpgaGrid::min_grid_for(
      nl.num_logic() + 40, nl.num_input_pads() + nl.num_output_pads()));
  LinearDelayModel dm;
  Rng rng(7);
  Placement pl = random_placement(nl, grid, rng);

  TimingEngine eng(nl, pl, dm);
  expect_matches_oracle(eng, nl, pl, dm, "bootstrap");

  // Rollback scaffolding: snapshots of the netlist/placement taken at each
  // commit (the replication engine's Snapshot pattern).
  auto snap_nl = std::make_unique<Netlist>(nl);
  auto snap_pl = std::make_unique<Placement>(pl.with_netlist(*snap_nl));
  eng.commit();

  OpMixer mix(nl, pl, eng, rng);
  for (int step = 0; step < 300; ++step) {
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 55) {
      mix.random_move();
    } else if (roll < 75) {
      mix.random_replicate();
    } else if (roll < 90) {
      mix.random_unify();
    } else if (roll < 95) {
      eng.update();
      snap_nl = std::make_unique<Netlist>(nl);
      snap_pl = std::make_unique<Placement>(pl.with_netlist(*snap_nl));
      eng.commit();
    } else {
      nl = *snap_nl;
      pl = snap_pl->with_netlist(nl);
      eng.rollback();
    }
    eng.update();
    SCOPED_TRACE(step);
    expect_valid_topo_order(eng.graph(), "step");
    expect_matches_oracle(eng, nl, pl, dm, "step");
    ASSERT_TRUE(nl.validate().empty()) << nl.validate();
  }
  EXPECT_GT(timing_counters().incremental_updates, 0u);
}

TEST(IncrementalTiming, BatchedDeltasMatchOracle) {
  // Many deltas folded into ONE update() — the replication engine's real
  // usage pattern (apply_embedding + unification + legalizer, then re-time).
  Netlist nl = make_circuit(43);
  FpgaGrid grid(FpgaGrid::min_grid_for(
      nl.num_logic() + 40, nl.num_input_pads() + nl.num_output_pads()));
  LinearDelayModel dm;
  Rng rng(11);
  Placement pl = random_placement(nl, grid, rng);
  TimingEngine eng(nl, pl, dm);
  OpMixer mix(nl, pl, eng, rng);

  for (int round = 0; round < 20; ++round) {
    for (int k = 0; k < 10; ++k) {
      const std::uint64_t roll = rng.next_below(10);
      if (roll < 6)
        mix.random_move();
      else if (roll < 8)
        mix.random_replicate();
      else
        mix.random_unify();
    }
    eng.update();
    SCOPED_TRACE(round);
    expect_valid_topo_order(eng.graph(), "batched round");
    expect_matches_oracle(eng, nl, pl, dm, "batched round");
  }
}

TEST(IncrementalTiming, ParanoidModeSelfChecks) {
  Netlist nl = make_circuit(44, 60);
  FpgaGrid grid(FpgaGrid::min_grid_for(
      nl.num_logic() + 20, nl.num_input_pads() + nl.num_output_pads()));
  LinearDelayModel dm;
  Rng rng(3);
  Placement pl = random_placement(nl, grid, rng);
  TimingEngine eng(nl, pl, dm);
  eng.set_paranoid(true);
  const std::uint64_t checks_before = timing_counters().paranoid_checks;

  OpMixer mix(nl, pl, eng, rng);
  for (int step = 0; step < 40; ++step) {
    mix.random_move();
    if (step % 3 == 0) mix.random_replicate();
    // Paranoid mode cross-checks inside update() and throws on divergence.
    ASSERT_NO_THROW(eng.update());
  }
  EXPECT_GT(timing_counters().paranoid_checks, checks_before);
}

/// in0 -> g1 -> g2 -> out0 with in0 also on g2's pin 1; in1 -> g3 -> out1.
struct SpliceOrderCircuit {
  SpliceOrderCircuit() {
    const CellId in0 = nl.add_input_pad("in0");
    const CellId in1 = nl.add_input_pad("in1");
    g1 = nl.add_logic("g1", {nl.cell(in0).output}, 0x2, false);
    g2 = nl.add_logic("g2", {nl.cell(g1).output, nl.cell(in0).output}, 0x8, false);
    g3 = nl.add_logic("g3", {nl.cell(in1).output}, 0x2, false);
    const CellId out0 = nl.add_output_pad("out0");
    const CellId out1 = nl.add_output_pad("out1");
    nl.connect(nl.cell(g2).output, out0, 0);
    nl.connect(nl.cell(g3).output, out1, 0);
    grid = std::make_unique<FpgaGrid>(FpgaGrid::min_grid_for(
        nl.num_logic() + 2, nl.num_input_pads() + nl.num_output_pads()));
    Rng rng(5);
    pl = std::make_unique<Placement>(random_placement(nl, *grid, rng));
  }
  Netlist nl;
  std::unique_ptr<FpgaGrid> grid;
  std::unique_ptr<Placement> pl;
  CellId g1, g2, g3;
  LinearDelayModel dm;
};

int topo_position(const TimingGraph& g, TimingNodeId n) {
  const std::vector<TimingNodeId>& order = g.topo_order();
  for (std::size_t i = 0; i < order.size(); ++i)
    if (order[i] == n) return static_cast<int>(i);
  return -1;
}

TEST(IncrementalTiming, SpliceKeepsOrderWhenRebuiltEdgesRunForward) {
  SpliceOrderCircuit t;
  TimingEngine eng(t.nl, *t.pl, t.dm);
  // Pin 1 of g2 onto the net of its sibling pin 0: the driver g1 already
  // feeds g2, so the kept order still fits.
  t.nl.reassign_input(t.g2, 1, t.nl.cell(t.g1).output);
  eng.on_cell_rewired(t.g2);
  const std::uint64_t sorts_before = timing_counters().topo_sorts;
  eng.update();
  EXPECT_EQ(timing_counters().topo_sorts, sorts_before);
  expect_valid_topo_order(eng.graph(), "kept");
  expect_matches_oracle(eng, t.nl, *t.pl, t.dm, "kept");
}

TEST(IncrementalTiming, SpliceSortsWhenARebuiltEdgeRunsBackward) {
  SpliceOrderCircuit t;
  TimingEngine eng(t.nl, *t.pl, t.dm);
  // g1 and g3 are independent; feed the earlier one from the later one.
  const TimingGraph& g = eng.graph();
  CellId early = t.g1, late = t.g3;
  if (topo_position(g, g.out_node(early)) > topo_position(g, g.out_node(late)))
    std::swap(early, late);
  t.nl.reassign_input(early, 0, t.nl.cell(late).output);
  eng.on_cell_rewired(early);
  const std::uint64_t sorts_before = timing_counters().topo_sorts;
  eng.update();
  EXPECT_EQ(timing_counters().topo_sorts, sorts_before + 1);
  expect_valid_topo_order(eng.graph(), "resorted");
  expect_matches_oracle(eng, t.nl, *t.pl, t.dm, "resorted");
}

TEST(IncrementalTiming, SpliceClosingACombinationalLoopStillThrows) {
  SpliceOrderCircuit t;
  TimingEngine eng(t.nl, *t.pl, t.dm);
  // g1 -> g2 -> g1.
  t.nl.reassign_input(t.g1, 0, t.nl.cell(t.g2).output);
  eng.on_cell_rewired(t.g1);
  try {
    eng.update();
    FAIL() << "expected a combinational-cycle error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("combinational cycle"), std::string::npos)
        << e.what();
  }
}

/// Exact agreement with a cold build: the same doubles, not merely close.
void expect_bit_equal_to_cold(const TimingEngine& eng, const Netlist& nl,
                              const Placement& pl, const LinearDelayModel& dm) {
  TimingCounterSuppressor suppress;
  const TimingGraph cold(nl, pl, dm);
  const TimingGraph& inc = eng.graph();
  ASSERT_EQ(inc.critical_delay(), cold.critical_delay());
  for (CellId c : nl.live_cells()) {
    const std::pair<TimingNodeId, TimingNodeId> nodes[] = {
        {inc.out_node(c), cold.out_node(c)}, {inc.sink_node(c), cold.sink_node(c)}};
    for (const auto& [mine, theirs] : nodes) {
      ASSERT_EQ(mine.valid(), theirs.valid()) << nl.cell(c).name;
      if (!mine.valid()) continue;
      ASSERT_EQ(inc.arrival(mine), cold.arrival(theirs)) << nl.cell(c).name;
      ASSERT_EQ(inc.required(mine), cold.required(theirs)) << nl.cell(c).name;
    }
  }
}

TEST(IncrementalTiming, DirtyConesOverManyWordsMatchColdBuild) {
  // Thousands of topological positions: the dirty set spans many 64-bit
  // words and more than one 4096-position summary word. Moves, splices that
  // keep the order (a pin moved onto its sibling's net), splices that
  // re-sort (replicas append nodes) and freed node slots (unification),
  // each checked bit for bit, with the work totals pinned.
  Netlist nl = make_circuit(45, 4000);
  FpgaGrid grid(FpgaGrid::min_grid_for(
      nl.num_logic() + 200, nl.num_input_pads() + nl.num_output_pads()));
  LinearDelayModel dm;
  Rng rng(19);
  Placement pl = random_placement(nl, grid, rng);
  TimingEngine eng(nl, pl, dm);
  ASSERT_GT(eng.graph().num_nodes(), 4096u);
  OpMixer mix(nl, pl, eng, rng);

  auto sibling_rewire = [&] {
    const std::vector<CellId> cells = nl.live_cells();
    for (int tries = 0; tries < 100; ++tries) {
      const CellId c = cells[rng.next_below(cells.size())];
      const Cell& cell = nl.cell(c);
      if (cell.kind != CellKind::kLogic || cell.inputs.size() < 2 ||
          cell.inputs[0] == cell.inputs[1])
        continue;
      nl.reassign_input(c, 0, cell.inputs[1]);
      eng.on_cell_rewired(c);
      return true;
    }
    return false;
  };

  const std::uint64_t nodes_before = timing_counters().nodes_reevaluated;
  const std::uint64_t edges_before = timing_counters().edges_redelayed;
  int kept = 0, resorted = 0, freed = 0;
  for (int step = 0; step < 48; ++step) {
    SCOPED_TRACE(step);
    const std::size_t live_before = nl.num_live_cells();
    const std::uint64_t sorts_before = timing_counters().topo_sorts;
    bool spliced = true;
    switch (step % 4) {
      case 0:
        for (int k = 0; k < 5; ++k) mix.random_move();
        spliced = false;
        break;
      case 1:
        ASSERT_TRUE(sibling_rewire());
        break;
      case 2:
        mix.random_replicate();
        break;
      default:
        mix.random_unify();
        break;
    }
    eng.update();
    if (spliced) {
      if (timing_counters().topo_sorts == sorts_before)
        ++kept;
      else
        ++resorted;
    }
    if (nl.num_live_cells() < live_before) ++freed;
    expect_valid_topo_order(eng.graph(), "step");
    expect_bit_equal_to_cold(eng, nl, pl, dm);
  }
  EXPECT_GT(kept, 0);
  EXPECT_GT(resorted, 0);
  EXPECT_GT(freed, 0);
  // Recorded before the worklist became a position bitset; the order, and
  // so every count, is the same.
  EXPECT_EQ(timing_counters().nodes_reevaluated - nodes_before, 4023u);
  EXPECT_EQ(timing_counters().edges_redelayed - edges_before, 616u);
}

TEST(IncrementalTiming, ReplicationEngineDoesNotRebuildGraphs) {
  Netlist nl = make_circuit(45);
  FpgaGrid grid(FpgaGrid::min_grid_for(
      nl.num_logic() + 20, nl.num_input_pads() + nl.num_output_pads()));
  LinearDelayModel dm;
  AnnealerOptions aopt;
  aopt.inner_num = 0.3;
  aopt.seed = 5;
  Placement pl = anneal_placement(nl, grid, dm, aopt);

  TimingCounters& tc = timing_counters();
  const std::uint64_t builds_before = tc.graph_builds;
  const std::uint64_t incr_before = tc.incremental_updates;
  EngineOptions opt;
  opt.max_iterations = 25;
  run_replication_engine(nl, pl, dm, opt);
  // Exactly the one bootstrap build from the persistent engine; every
  // iteration (extraction, unification, legalization, collateral guard)
  // re-timed incrementally.
  EXPECT_EQ(tc.graph_builds - builds_before, 1u);
  EXPECT_GT(tc.incremental_updates, incr_before);
  EXPECT_GT(tc.rebuilds_avoided, 0u);
}

TEST(IncrementalTiming, AnnealerDoesNotRebuildGraphs) {
  Netlist nl = make_circuit(46, 60);
  FpgaGrid grid(FpgaGrid::min_grid_for(
      nl.num_logic() + 10, nl.num_input_pads() + nl.num_output_pads()));
  LinearDelayModel dm;
  TimingCounters& tc = timing_counters();
  const std::uint64_t builds_before = tc.graph_builds;
  AnnealerOptions opt;
  opt.inner_num = 0.3;
  opt.seed = 9;
  anneal_placement(nl, grid, dm, opt);
  // One bootstrap build; per-temperature criticality refreshes are
  // incremental updates over the accepted moves.
  EXPECT_EQ(tc.graph_builds - builds_before, 1u);
}

}  // namespace
}  // namespace repro
