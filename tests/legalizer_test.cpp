#include <gtest/gtest.h>

#include <array>
#include <climits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "gen/circuit_gen.h"
#include "place/annealer.h"
#include "place/legalizer.h"
#include "test_helpers.h"
#include "timing/timing_engine.h"
#include "timing/timing_graph.h"
#include "util/rng.h"

namespace repro {
namespace {

using testing::TinyPlaced;

TEST(Legalizer, NoopOnLegalPlacement) {
  TinyPlaced t;
  LegalizerResult r = legalize_timing_driven(t.nl, *t.pl, t.dm);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.ripple_moves, 0);
  EXPECT_EQ(r.overlaps_resolved, 0);
}

TEST(Legalizer, ResolvesSingleOverlap) {
  TinyPlaced t;
  t.pl->place(t.g1, {2, 2});  // stack g1 on g3
  LegalizerResult r = legalize_timing_driven(t.nl, *t.pl, t.dm);
  EXPECT_TRUE(r.success);
  EXPECT_TRUE(t.pl->legal()) << t.pl->check_legal();
  EXPECT_GE(r.ripple_moves, 1);
  EXPECT_EQ(r.overlaps_resolved, 1);
}

TEST(Legalizer, ResolvesMultipleOverlaps) {
  TinyPlaced t;
  t.pl->place(t.g1, {2, 2});
  t.pl->place(t.g2, {2, 2});  // triple-stacked slot
  LegalizerResult r = legalize_timing_driven(t.nl, *t.pl, t.dm);
  EXPECT_TRUE(r.success);
  EXPECT_TRUE(t.pl->legal()) << t.pl->check_legal();
}

TEST(Legalizer, MovesCellsAtMostLocally) {
  // Ripple moves shift each cell by one slot; after resolving one overlap
  // the displaced cells stay near their origins.
  TinyPlaced t;
  Point g3_before = t.pl->location(t.g3);
  t.pl->place(t.g1, {2, 2});
  legalize_timing_driven(t.nl, *t.pl, t.dm);
  // Every live logic cell is within the 4x4 array and at most a few slots
  // from where it was.
  EXPECT_LE(manhattan(t.pl->location(t.g3), g3_before), 2);
}

TEST(Legalizer, UnifiesWhenRippleLandsOnEquivalent) {
  TinyPlaced t;
  // Replica of g3 placed on top of g3's slot neighbor; force a ripple from
  // that neighbor onto g3's slot by stacking.
  CellId rep = t.nl.replicate_cell(t.g3);
  // Give the replica a fanout so it is a "real" cell.
  t.nl.reassign_input(t.r, 0, t.nl.cell(rep).output);
  t.pl->place(rep, {2, 2});  // overlap with g3 directly
  LegalizerResult r = legalize_timing_driven(t.nl, *t.pl, t.dm);
  EXPECT_TRUE(r.success);
  EXPECT_TRUE(t.pl->legal()) << t.pl->check_legal();
  // Either the ripple separated them or unification merged them; both are
  // legal outcomes, but the netlist must stay valid either way.
  EXPECT_TRUE(t.nl.validate().empty()) << t.nl.validate();
}

TEST(Legalizer, FailsGracefullyWhenFull) {
  // 1x1 logic array with two logic cells: unsolvable.
  Netlist nl;
  CellId a = nl.add_input_pad("a");
  CellId g1 = nl.add_logic("g1", {nl.cell(a).output}, 0b10, false);
  CellId g2 = nl.add_logic("g2", {nl.cell(a).output}, 0b01, false);
  CellId po1 = nl.add_output_pad("po1");
  CellId po2 = nl.add_output_pad("po2");
  nl.connect(nl.cell(g1).output, po1, 0);
  nl.connect(nl.cell(g2).output, po2, 0);
  FpgaGrid grid(1, 2);
  Placement pl(nl, grid);
  pl.place(a, {0, 1});
  pl.place(g1, {1, 1});
  pl.place(g2, {1, 1});
  pl.place(po1, {2, 1});
  pl.place(po2, {2, 1});
  LinearDelayModel dm;
  LegalizerResult r = legalize_timing_driven(nl, pl, dm);
  EXPECT_FALSE(r.success);  // out of free slots, as the paper hits for ex5p
}

TEST(Legalizer, PrefersNotToDegradeTiming) {
  // A congested slot on the critical path: the legalizer should move the
  // *non-critical* occupant away (alpha = 0.95 favors timing).
  TinyPlaced t;
  // g2 near-critical; add an unrelated spare cell stacked on g3.
  CellId spare =
      t.nl.add_logic("spare", {t.nl.cell(t.pi0).output}, 0b10, false);
  CellId po3 = t.nl.add_output_pad("po3");
  t.nl.connect(t.nl.cell(spare).output, po3, 0);
  t.pl->place(po3, {0, 2});
  t.pl->place(spare, {2, 2});  // overlap with critical g3

  TimingGraph before(t.nl, *t.pl, t.dm);
  double crit_before = before.critical_delay();
  Point g3_loc = t.pl->location(t.g3);

  LegalizerResult r = legalize_timing_driven(t.nl, *t.pl, t.dm);
  EXPECT_TRUE(r.success);
  TimingGraph after(t.nl, *t.pl, t.dm);
  // The critical cell g3 should not have been displaced (the spare moves).
  EXPECT_EQ(t.pl->location(t.g3), g3_loc);
  EXPECT_LE(after.critical_delay(), crit_before + 1e-9);
}

TEST(Legalizer, LargeRandomizedStress) {
  CircuitSpec spec;
  spec.num_logic = 80;
  spec.num_inputs = 8;
  spec.num_outputs = 8;
  spec.depth = 6;
  spec.seed = 77;
  Netlist nl = generate_circuit(spec);
  FpgaGrid grid(FpgaGrid::min_grid_for(
      nl.num_logic() + 10, nl.num_input_pads() + nl.num_output_pads()));
  Rng rng(3);
  Placement pl = random_placement(nl, grid, rng);
  // Stack 10 random logic cells onto occupied slots.
  auto cells = nl.live_cells();
  int stacked = 0;
  for (CellId c : cells) {
    if (nl.cell(c).kind != CellKind::kLogic) continue;
    for (CellId d : cells) {
      if (d == c || nl.cell(d).kind != CellKind::kLogic) continue;
      pl.place(c, pl.location(d));
      ++stacked;
      break;
    }
    if (stacked >= 10) break;
  }
  EXPECT_FALSE(pl.legal());
  LinearDelayModel dm;
  LegalizerResult r = legalize_timing_driven(nl, pl, dm);
  EXPECT_TRUE(r.success);
  EXPECT_TRUE(pl.legal()) << pl.check_legal();
  EXPECT_TRUE(nl.validate().empty()) << nl.validate();
}

// ---- adversarial seeds: repair or report, never corrupt -------------------

// Occupant-list <-> coordinate agreement, via the audit subsystem's placement
// battery. Legality findings (over capacity, incompatible kinds) are allowed
// here — a failed repair may leave the placement illegal — but the occupant
// lists and the coordinate array must still agree with each other.
bool occupant_lists_consistent(const Netlist& nl, const Placement& pl) {
  AuditOptions opt;
  opt.level = AuditLevel::kStage;
  const AuditReport rep = Auditor(opt).check_placement(nl, pl, "test");
  for (const Finding& f : rep.findings) {
    if (f.severity < AuditSeverity::kError) continue;
    if (f.message.find("over capacity") != std::string::npos) continue;
    if (f.message.find("kind-incompatible") != std::string::npos) continue;
    ADD_FAILURE() << "occupant-list corruption: " << f.to_jsonl();
    return false;
  }
  return true;
}

TEST(Legalizer, RepairsEveryCellStackedOnOneSlot) {
  // Worst-case over-capacity seed: the entire logic array's population
  // dropped on a single location. The legalizer must spread it back out.
  CircuitSpec spec;
  spec.num_logic = 60;
  spec.num_inputs = 8;
  spec.num_outputs = 8;
  spec.depth = 6;
  spec.seed = 99;
  Netlist nl = generate_circuit(spec);
  FpgaGrid grid(FpgaGrid::min_grid_for(
      nl.num_logic() + 10, nl.num_input_pads() + nl.num_output_pads()));
  Rng rng(5);
  Placement pl = random_placement(nl, grid, rng);
  for (CellId c : nl.live_cells())
    if (nl.cell(c).kind == CellKind::kLogic) pl.place(c, {1, 1});
  ASSERT_FALSE(pl.legal());

  LinearDelayModel dm;
  LegalizerResult r = legalize_timing_driven(nl, pl, dm);
  EXPECT_TRUE(r.success);
  EXPECT_TRUE(pl.legal()) << pl.check_legal();
  EXPECT_TRUE(occupant_lists_consistent(nl, pl));
}

TEST(Legalizer, ReportsFailureWithoutCorruptionWhenHopelesslyOverfull) {
  // More logic cells than the whole array holds: repair is impossible; the
  // legalizer must report failure and leave a coherent (if overfull) state.
  CircuitSpec spec;
  spec.num_logic = 30;
  spec.num_inputs = 4;
  spec.num_outputs = 4;
  spec.seed = 42;
  Netlist nl = generate_circuit(spec);
  FpgaGrid grid(4, 8);  // 16 logic slots for 30 logic cells
  Placement pl(nl, grid);
  int i = 0;
  for (CellId c : nl.live_cells()) {
    const Cell& cell = nl.cell(c);
    if (cell.kind == CellKind::kLogic) {
      pl.place(c, {1 + (i % 4), 1 + ((i / 4) % 4)});
      ++i;
    } else {
      pl.place(c, {0, 1});  // pile the pads on one IO location
    }
  }
  LinearDelayModel dm;
  LegalizerResult r = legalize_timing_driven(nl, pl, dm);
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.failure.empty());
  EXPECT_TRUE(occupant_lists_consistent(nl, pl));
}

TEST(Legalizer, ZeroAreaGridFailsCleanly) {
  // FpgaGrid(0) has no logic slots at all (extent 2, all four locations are
  // corners). Any logic cell is unplaceable; the legalizer must report, not
  // loop or crash.
  Netlist nl;
  CellId a = nl.add_input_pad("a");
  CellId g = nl.add_logic("g", {nl.cell(a).output}, 0b10, false);
  CellId po = nl.add_output_pad("po");
  nl.connect(nl.cell(g).output, po, 0);
  FpgaGrid grid(0, 2);
  EXPECT_TRUE(grid.logic_locations().empty());
  Placement pl(nl, grid);
  pl.place(a, {0, 0});
  pl.place(g, {1, 1});
  pl.place(po, {0, 1});
  LinearDelayModel dm;
  LegalizerResult r = legalize_timing_driven(nl, pl, dm);
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(occupant_lists_consistent(nl, pl));
}

// The whole-grid scan quadrant_free_slots used before its ring search, kept
// as the oracle: every logic slot in row-major order, the first free one at
// the smallest distance winning its quadrant.
std::vector<Point> quadrant_free_slots_by_full_scan(const Placement& pl, Point c) {
  const FpgaGrid& grid = pl.grid();
  Point best[4];
  int best_d[4] = {INT_MAX, INT_MAX, INT_MAX, INT_MAX};
  for (Point p : grid.logic_locations()) {
    if (p == c || pl.occupancy(p) >= grid.capacity(p)) continue;
    const int q = (p.x >= c.x ? 1 : 0) | (p.y >= c.y ? 2 : 0);
    const int d = manhattan(p, c);
    if (d < best_d[q]) {
      best_d[q] = d;
      best[q] = p;
    }
  }
  std::vector<Point> out;
  for (int q = 0; q < 4; ++q)
    if (best_d[q] != INT_MAX) out.push_back(best[q]);
  return out;
}

TEST(Legalizer, RingSearchMatchesFullScan) {
  Rng rng(2024);
  int short_answers = 0;
  int full_quadrants = 0;
  for (int n : {1, 2, 3, 5, 8, 13, 21}) {
    Netlist nl;
    const CellId pi = nl.add_input_pad("pi");
    std::vector<CellId> cells;
    for (int i = 0; i < n * n + 1; ++i)
      cells.push_back(
          nl.add_logic("g" + std::to_string(i), {nl.cell(pi).output}, 0b10, false));
    const FpgaGrid grid(n);
    for (int trial = 0; trial < 80; ++trial) {
      // The congested slot: anywhere, on a border, on a logic corner, or on
      // a corner of the array itself.
      const int e = n + 1;
      Point c{1 + static_cast<int>(rng.next_below(n)), 1 + static_cast<int>(rng.next_below(n))};
      switch (trial % 4) {
        case 1:
          (rng.next_below(2) ? c.x : c.y) = rng.next_below(2) ? 1 : n;
          break;
        case 2:
          c = Point{rng.next_below(2) ? 1 : n, rng.next_below(2) ? 1 : n};
          break;
        case 3:
          c = Point{rng.next_below(2) ? 0 : e, rng.next_below(2) ? 0 : e};
          break;
      }
      // Random fill, sometimes with one quadrant left without a free slot.
      Placement pl(nl, grid);
      const std::uint64_t fill_pct = rng.next_below(101);
      const int full = static_cast<int>(rng.next_below(6));  // 4, 5: none
      if (full < 4) ++full_quadrants;
      std::size_t next = 0;
      for (Point p : grid.logic_locations()) {
        const int q = (p.x >= c.x ? 1 : 0) | (p.y >= c.y ? 2 : 0);
        if (q == full || rng.next_below(100) < fill_pct) pl.place(cells[next++], p);
      }
      if (grid.is_logic(c)) pl.place(cells[next++], c);  // congest it
      SCOPED_TRACE(::testing::Message() << "n=" << n << " trial=" << trial
                                        << " c=" << c << " fill=" << fill_pct);
      const std::vector<Point> want = quadrant_free_slots_by_full_scan(pl, c);
      EXPECT_EQ(quadrant_free_slots(pl, c), want);
      if (want.size() < 4) ++short_answers;
    }
  }
  EXPECT_GT(full_quadrants, 100);
  EXPECT_GT(short_answers, 100);
}

using PinnedMoves = std::vector<std::array<int, 3>>;  // cell id, x, y

PinnedMoves moves_of(const LegalizerResult& r) {
  PinnedMoves out;
  for (const LegalizerMove& m : r.moves)
    out.push_back({static_cast<int>(m.cell.value()), m.to.x, m.to.y});
  return out;
}

// A generated 60-LUT circuit placed at random on a grid with `spare` more
// logic slots than it needs (at least; the grid is square).
struct GeneratedPlaced {
  GeneratedPlaced(std::uint64_t seed, std::size_t spare) : rng(seed) {
    CircuitSpec spec;
    spec.num_logic = 60;
    spec.num_inputs = 6;
    spec.num_outputs = 6;
    spec.depth = 5;
    spec.seed = seed;
    nl = generate_circuit(spec);
    grid = std::make_unique<FpgaGrid>(FpgaGrid::min_grid_for(
        nl.num_logic() + spare, nl.num_input_pads() + nl.num_output_pads()));
    pl = std::make_unique<Placement>(random_placement(nl, *grid, rng));
    for (CellId c : nl.live_cell_ids())
      if (nl.cell(c).kind == CellKind::kLogic) logic.push_back(c);
  }
  Netlist nl;
  Rng rng;
  std::unique_ptr<FpgaGrid> grid;
  std::unique_ptr<Placement> pl;
  std::vector<CellId> logic;
  LinearDelayModel dm;
};

TEST(Legalizer, MovesPinned) {
  // Move lists recorded before the ring search, the resumed overlap scan and
  // the per-pass cost neighborhoods: the legalizer must make exactly these.
  {
    // One overlap on a grid with four free slots: a four-step ripple.
    GeneratedPlaced g(5, 0);
    g.pl->place(g.logic[10], g.pl->location(g.logic[40]));
    const LegalizerResult r = legalize_timing_driven(g.nl, *g.pl, g.dm);
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.overlaps_resolved, 1);
    EXPECT_EQ(moves_of(r), (PinnedMoves{{54, 2, 6}, {52, 3, 6}, {51, 3, 5}, {46, 3, 4}}));
  }
  for (bool engine : {false, true}) {
    SCOPED_TRACE(engine ? "engine" : "standalone");
    // Two replicas next to their originals and eight cells stacked on
    // occupied slots: nine overlaps, one of them ending in a unification.
    GeneratedPlaced g(9, 6);
    int made = 0;
    for (CellId c : g.logic) {
      const Net& out = g.nl.net(g.nl.cell(c).output);
      if (out.sinks.size() < 2 || made == 2) continue;
      const Sink s = out.sinks[0];
      const CellId rep = g.nl.replicate_cell(c);
      g.nl.reassign_input(s.cell, s.pin, g.nl.cell(rep).output);
      const Point o = g.pl->location(c);
      g.pl->place(rep, Point{o.x < g.grid->n() ? o.x + 1 : o.x - 1, o.y});
      ++made;
    }
    for (int k = 0; k < 8; ++k) {
      const CellId a = g.logic[g.rng.next_below(g.logic.size())];
      const CellId b = g.logic[g.rng.next_below(g.logic.size())];
      if (a != b) g.pl->place(a, g.pl->location(b));
    }
    LegalizerResult r;
    if (engine) {
      TimingEngine eng(g.nl, *g.pl, g.dm);
      r = legalize_timing_driven(g.nl, *g.pl, g.dm, {}, &eng);
    } else {
      r = legalize_timing_driven(g.nl, *g.pl, g.dm);
    }
    EXPECT_TRUE(r.success);
    EXPECT_TRUE(g.pl->legal()) << g.pl->check_legal();
    EXPECT_EQ(r.overlaps_resolved, 9);
    EXPECT_EQ(r.unifications, 1);
    EXPECT_EQ(r.ripple_moves, 19);
    EXPECT_EQ(moves_of(r),
              (PinnedMoves{{29, 6, 1}, {29, 6, 2}, {21, 6, 1}, {56, 8, 1}, {49, 7, 3},
                           {24, 6, 3}, {40, 4, 3}, {32, 4, 4}, {45, 4, 5}, {62, 2, 5},
                           {6, 7, 6},  {19, 8, 6}, {54, 5, 6}, {28, 5, 7}, {45, 3, 5},
                           {37, 4, 5}, {54, 4, 6}, {28, 5, 6}, {60, 5, 7}}));
  }
}

TEST(Legalizer, SoleOverfullHintChangesNothingButTheScan) {
  // A caller that names the only overfull slot (an ECO move onto a legal
  // placement) gets exactly the moves of the scanning legalizer.
  int ripples = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    GeneratedPlaced scan(seed, seed % 3), hint(seed, seed % 3);
    const CellId a = scan.logic[seed], b = scan.logic[40 - seed];
    const Point at = scan.pl->location(b);
    scan.pl->place(a, at);
    hint.pl->place(a, at);
    LegalizerOptions opt;
    opt.sole_overfull = at;
    TimingEngine scan_eng(scan.nl, *scan.pl, scan.dm), hint_eng(hint.nl, *hint.pl, hint.dm);
    const LegalizerResult rs =
        legalize_timing_driven(scan.nl, *scan.pl, scan.dm, {}, &scan_eng);
    const LegalizerResult rh =
        legalize_timing_driven(hint.nl, *hint.pl, hint.dm, opt, &hint_eng);
    EXPECT_TRUE(rh.success);
    EXPECT_EQ(rh.overlaps_resolved, rs.overlaps_resolved);
    EXPECT_EQ(moves_of(rh), moves_of(rs));
    ripples += rh.ripple_moves;
  }
  EXPECT_GT(ripples, 12);
}

TEST(Placement, RejectsOutOfGridCoordinates) {
  // Coordinates can come from untrusted placement files and snapshots;
  // place() must throw instead of indexing out of the occupant array, and a
  // rejected move must leave the previous state untouched.
  TinyPlaced t;
  const Point before = t.pl->location(t.g1);
  EXPECT_THROW(t.pl->place(t.g1, {-1, 0}), std::out_of_range);
  EXPECT_THROW(t.pl->place(t.g1, {0, -7}), std::out_of_range);
  EXPECT_THROW(t.pl->place(t.g1, {t.grid->extent(), 1}), std::out_of_range);
  EXPECT_THROW(t.pl->place(t.g1, {1, 100000}), std::out_of_range);
  EXPECT_TRUE(t.pl->placed(t.g1));
  EXPECT_EQ(t.pl->location(t.g1), before);
  EXPECT_TRUE(occupant_lists_consistent(t.nl, *t.pl));
}

}  // namespace
}  // namespace repro
