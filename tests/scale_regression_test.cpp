// Satellite of the million-cell scale pass: pins the arena data-layout
// refactor (DESIGN.md §9) to pre-refactor golden trajectories, byte for
// byte, and checks the generator's determinism and structure at >= 1e5
// cells.
//
// The golden constants below were captured from the UNMODIFIED pre-refactor
// build (map-based SPT/monotone/sim, recompute-on-touch annealer, vector
// erase PO pool in the generator) with exactly the options used here. Every
// arena/flat path must keep reproducing them. If a deliberate algorithm
// change invalidates them, re-capture from a build of the previous commit —
// never from the build under test.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "arch/delay_model.h"
#include "arch/fpga_grid.h"
#include "gen/circuit_gen.h"
#include "netlist/netlist.h"
#include "place/annealer.h"
#include "place/placement.h"
#include "replicate/engine.h"
#include "timing/monotone.h"
#include "timing/spt.h"
#include "timing/timing_graph.h"

namespace repro {
namespace {

// ---- FNV-1a 64 fingerprints (must match the capture driver bit for bit) --

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  }
  void mix_d(double d) {
    std::uint64_t b;
    static_assert(sizeof(b) == sizeof(d));
    __builtin_memcpy(&b, &d, 8);
    mix(b);
  }
};

std::uint64_t netlist_fingerprint(const Netlist& nl) {
  Fnv f;
  for (CellId c : nl.live_cell_ids()) {
    const Cell& cell = nl.cell(c);
    f.mix(static_cast<std::uint64_t>(cell.kind));
    f.mix(cell.function);
    f.mix(cell.registered ? 1 : 0);
    f.mix(cell.output.valid() ? cell.output.value() : -7);
    for (NetId n : cell.inputs) f.mix(n.valid() ? n.value() : -7);
  }
  for (NetId n : nl.live_net_ids()) {
    const Net& net = nl.net(n);
    f.mix(net.driver.value());
    for (const Sink& s : net.sinks) {
      f.mix(s.cell.value());
      f.mix(s.pin);
    }
  }
  return f.h;
}

std::uint64_t placement_fingerprint(const Netlist& nl, const Placement& pl) {
  Fnv f;
  for (CellId c : nl.live_cell_ids()) {
    Point p = pl.location(c);
    f.mix(p.x);
    f.mix(p.y);
  }
  return f.h;
}

std::uint64_t history_fingerprint(const EngineResult& r) {
  Fnv f;
  for (const IterationStats& it : r.history) {
    f.mix(it.iteration);
    f.mix_d(it.critical_delay);
    f.mix_d(it.epsilon);
    f.mix(it.tree_internal);
    f.mix(it.replicated_cum);
    f.mix(it.unified_cum);
    f.mix(it.improved ? 1 : 0);
    f.mix(it.ff_relocation ? 1 : 0);
  }
  return f.h;
}

// ---- shared fixtures -----------------------------------------------------

const McncCircuit& suite_entry(const char* name) {
  for (const McncCircuit& c : mcnc_suite())
    if (std::string(c.name) == name) return c;
  ADD_FAILURE() << "no suite entry " << name;
  return mcnc_suite().front();
}

struct Placed {
  Netlist nl;
  FpgaGrid grid;
  LinearDelayModel dm;
  Placement pl;

  Placed(const char* circuit, double scale, const AnnealerOptions& aopt)
      : nl(generate_circuit(spec_for(suite_entry(circuit), scale, 7))),
        grid(FpgaGrid::min_grid_for(nl.num_logic(),
                                    nl.num_input_pads() + nl.num_output_pads())),
        pl(anneal_placement(nl, grid, dm, aopt)) {}
};

AnnealerOptions golden_annealer_options() {
  AnnealerOptions aopt;
  aopt.seed = 7 * 977 + 13;
  return aopt;
}

// ---- pinned pre-refactor goldens -----------------------------------------

struct Golden {
  const char* circuit;
  std::uint64_t gen_fp;
  std::size_t cells;
  std::uint64_t place_fp;
  double total_wl;
  double final_crit;
  double final_wl;
  int replicated;
  int unified;
  std::size_t history;
  std::uint64_t hist_fp;
  std::uint64_t post_nl_fp;
  std::uint64_t post_pl_fp;
};

// gtest otherwise prints the parameter as raw bytes, which include the
// address of `circuit` and so give the test a different name on every run.
void PrintTo(const Golden& g, std::ostream* os) { *os << g.circuit; }

constexpr Golden kGoldens[] = {
    {"ex5p", 9007716736109602111ull, 105, 6640744256810646108ull,
     529.74430000000007, 25.100000000000001, 622.21559999999999, 30, 21, 49,
     6502635797490821597ull, 4894285030289752247ull, 18292034932375158894ull},
    {"s298", 6262762595882575935ull, 158, 13632590844890047540ull,
     1253.6798999999999, 38.799999999999997, 1484.3474999999996, 20, 8, 67,
     9878920138436358821ull, 11797181351298554228ull, 7268923040173613321ull},
};

class GoldenTrajectory : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenTrajectory, BitIdenticalToPreRefactorBuild) {
  const Golden& g = GetParam();
  Netlist nl = generate_circuit(spec_for(suite_entry(g.circuit), 0.08, 7));
  EXPECT_EQ(netlist_fingerprint(nl), g.gen_fp);
  EXPECT_EQ(nl.num_live_cells(), g.cells);

  FpgaGrid grid(FpgaGrid::min_grid_for(
      nl.num_logic(), nl.num_input_pads() + nl.num_output_pads()));
  LinearDelayModel dm;
  Placement pl = anneal_placement(nl, grid, dm, golden_annealer_options());
  EXPECT_EQ(placement_fingerprint(nl, pl), g.place_fp);
  EXPECT_EQ(pl.total_wirelength(), g.total_wl);  // exact, not near

  EngineOptions eopt;
  eopt.variant = EmbedVariant::kLex3;
  eopt.num_threads = 1;
  EngineResult r = run_replication_engine(nl, pl, dm, eopt);
  EXPECT_EQ(r.final_critical, g.final_crit);
  EXPECT_EQ(r.final_wirelength, g.final_wl);
  EXPECT_EQ(r.total_replicated, g.replicated);
  EXPECT_EQ(r.total_unified, g.unified);
  EXPECT_EQ(r.history.size(), g.history);
  EXPECT_EQ(history_fingerprint(r), g.hist_fp);
  EXPECT_EQ(netlist_fingerprint(nl), g.post_nl_fp);
  EXPECT_EQ(placement_fingerprint(nl, pl), g.post_pl_fp);
}

INSTANTIATE_TEST_SUITE_P(Circuits, GoldenTrajectory,
                         ::testing::ValuesIn(kGoldens),
                         [](const auto& info) { return info.param.circuit; });

// ---- generator at scale --------------------------------------------------

// clma scaled 13x: ~1.09e5 cells. Pinned against the pre-refactor build, so
// this doubles as the proof that the Fenwick-tree PO pool draws the same
// pads the erase-compacted vector did, at a size where they'd diverge on
// the first mistake.
TEST(GeneratorScale, DeterministicAndStructuralAt1e5Cells) {
  CircuitSpec spec = spec_for(suite_entry("clma"), 13.0, 42);
  Netlist nl = generate_circuit(spec);
  EXPECT_EQ(netlist_fingerprint(nl), 15528197113067072021ull);
  EXPECT_EQ(nl.num_live_cells(), 109498u);
  EXPECT_EQ(nl.num_logic(), 108979u);
  EXPECT_GE(nl.num_live_cells(), 100000u);

  // Structure: pads present, every live cell's nets wired consistently.
  EXPECT_GT(nl.num_input_pads(), 0u);
  EXPECT_GT(nl.num_output_pads(), 0u);
  std::size_t iterated = 0;
  for (CellId c : nl.live_cell_ids()) {
    ++iterated;
    const Cell& cell = nl.cell(c);
    if (cell.output.valid()) {
      EXPECT_TRUE(nl.net_alive(cell.output));
    }
    for (NetId n : cell.inputs) {
      if (n.valid()) {
        EXPECT_TRUE(nl.net_alive(n));
      }
    }
  }
  EXPECT_EQ(iterated, nl.num_live_cells());
  EXPECT_EQ(nl.num_live_nets(), nl.live_nets().size());
}

// ---- flat vs legacy differentials at anneal scale ------------------------

TEST(FlatVsLegacy, MonotoneBoundIdentical) {
  Placed p("apex2", 0.15, golden_annealer_options());
  TimingGraph tg(p.nl, p.pl, p.dm);
  EXPECT_EQ(monotone_lower_bound(tg), monotone_lower_bound_legacy(tg));
}

TEST(FlatVsLegacy, EpsSptIdentical) {
  Placed p("apex2", 0.15, golden_annealer_options());
  TimingGraph tg(p.nl, p.pl, p.dm);
  TimingNodeId sink = tg.critical_sink();
  ASSERT_TRUE(sink.valid());
  for (double eps : {0.0, 0.5, 2.0, 8.0}) {
    Spt a = extract_eps_spt(tg, sink, eps);
    Spt b = extract_eps_spt_legacy(tg, sink, eps);
    ASSERT_EQ(a.nodes, b.nodes) << "eps " << eps;
    for (TimingNodeId n : a.nodes) {
      EXPECT_EQ(a.parent(n), b.parent(n));
      EXPECT_EQ(a.parent_pin(n), b.parent_pin(n));
      EXPECT_EQ(a.dist_to_root(n), b.dist_to_root(n));
    }
  }
}

TEST(FlatVsLegacy, IncrementalBboxPlacementIdentical) {
  AnnealerOptions inc = golden_annealer_options();
  inc.incremental_bbox = true;
  AnnealerOptions legacy = golden_annealer_options();
  legacy.incremental_bbox = false;
  Placed a("apex2", 0.15, inc);
  Placed b("apex2", 0.15, legacy);
  EXPECT_EQ(placement_fingerprint(a.nl, a.pl), placement_fingerprint(b.nl, b.pl));
  EXPECT_EQ(a.pl.total_wirelength(), b.pl.total_wirelength());
}

TEST(FlatVsLegacy, WirelengthDrivenAnnealIdentical) {
  // The wirelength-driven mode skips the incremental STA entirely; the
  // trajectory must not notice (it only reads the wiring term).
  AnnealerOptions inc = golden_annealer_options();
  inc.timing_driven = false;
  AnnealerOptions legacy = inc;
  legacy.incremental_bbox = false;
  Placed a("apex2", 0.15, inc);
  Placed b("apex2", 0.15, legacy);
  EXPECT_EQ(placement_fingerprint(a.nl, a.pl), placement_fingerprint(b.nl, b.pl));
}

// ---- engine: layout and thread-count invariance --------------------------

TEST(FlatVsLegacy, EngineTrajectoryIdenticalAcrossLayoutAndThreads) {
  EngineOptions base;
  base.variant = EmbedVariant::kLex3;
  base.max_iterations = 8;
  base.num_threads = 1;

  struct Run {
    std::uint64_t hist, nl_fp, pl_fp, truncations;
  };
  auto run = [&](bool flat, int threads, int region_points) {
    Placed p("ex5p", 0.08, golden_annealer_options());
    EngineOptions eopt = base;
    eopt.flat_scratch = flat;
    eopt.num_threads = threads;
    eopt.max_region_points = region_points;
    EngineResult r = run_replication_engine(p.nl, p.pl, p.dm, eopt);
    return Run{history_fingerprint(r), netlist_fingerprint(p.nl),
               placement_fingerprint(p.nl, p.pl), r.region_truncations};
  };

  const Run ref = run(true, 1, 0);
  EXPECT_EQ(ref.truncations, 0u);  // guard off => counter stays silent
  for (bool flat : {true, false}) {
    for (int threads : {1, 2, 4}) {
      Run o = run(flat, threads, 0);
      EXPECT_EQ(o.hist, ref.hist) << "flat " << flat << " threads " << threads;
      EXPECT_EQ(o.nl_fp, ref.nl_fp) << "flat " << flat << " threads " << threads;
      EXPECT_EQ(o.pl_fp, ref.pl_fp) << "flat " << flat << " threads " << threads;
    }
  }

  // The region guard changes which embeddings run (legitimately different
  // results from uncapped), but must itself be deterministic across layouts
  // and thread counts.
  // The cap must sit below the die's point count (ex5p at this scale is a
  // ~12x12 grid, ~144 sites) or the guard never fires; 48 points forces
  // truncation on any region spanning more than a ~7x7 window, which the
  // consumed trajectory is guaranteed to contain.
  const Run guarded = run(true, 1, 48);
  EXPECT_GT(guarded.truncations, 0u);
  for (bool flat : {true, false}) {
    for (int threads : {1, 4}) {
      Run o = run(flat, threads, 48);
      EXPECT_EQ(o.hist, guarded.hist) << "flat " << flat << " threads " << threads;
      EXPECT_EQ(o.nl_fp, guarded.nl_fp) << "flat " << flat << " threads " << threads;
      EXPECT_EQ(o.truncations, guarded.truncations)
          << "flat " << flat << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace repro
