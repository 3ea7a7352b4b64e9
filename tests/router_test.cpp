#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "gen/circuit_gen.h"
#include "place/annealer.h"
#include "route/maze_queue.h"
#include "route/router.h"
#include "test_helpers.h"
#include "timing/timing_graph.h"
#include "util/rng.h"

namespace repro {
namespace {

using testing::TinyPlaced;

/// Medium generated circuit with a random placement: enough congestion for
/// the negotiation/W_min machinery to be exercised, small enough to stay
/// fast. Same fixture as the pinned goldens below; the defaults are the
/// fixture every test uses unless it names another circuit.
struct SeededPlaced {
  Netlist nl;
  FpgaGrid grid;
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

  explicit SeededPlaced(int num_logic = 60, std::uint64_t seed = 1,
                        std::uint64_t place_seed = 4)
      : nl(make(num_logic, seed)),
        grid(FpgaGrid::min_grid_for(nl.num_logic(),
                                    nl.num_input_pads() + nl.num_output_pads())),
        pl([&] {
          Rng rng(place_seed);
          return random_placement(nl, grid, rng);
        }()) {}
};

/// FNV-1a over every net's committed route edges, each net prefixed by its
/// edge count so that moving an edge between nets changes the hash.
std::uint64_t route_hash(const RoutingResult& r) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const std::vector<std::int32_t>& edges : r.net_route_edges) {
    mix(edges.size());
    for (std::int32_t e : edges) mix(static_cast<std::uint32_t>(e));
  }
  return h;
}

/// "width/success/passes/nodes" of every W_min probe, space-separated.
std::string probe_list(const WminSearchStats& st) {
  std::string s;
  for (const WminProbeStats& p : st.probes) {
    if (!s.empty()) s += ' ';
    s += std::to_string(p.width) + '/' + (p.success ? '1' : '0') + '/' +
         std::to_string(p.passes) + '/' + std::to_string(p.nodes_expanded);
  }
  return s;
}

/// Deterministic per-connection criticalities in [0, 0.9].
double pinned_crit(CellId cell, int pin) {
  return ((cell.index() * 7 + static_cast<std::size_t>(pin)) % 10) / 10.0;
}

TEST(Router, InfiniteResourcesRouteEverything) {
  TinyPlaced t;
  RouterOptions opt;
  opt.channel_width = 0;
  RoutingResult r = route(t.nl, *t.pl, opt);
  EXPECT_TRUE(r.success);
  EXPECT_GT(r.total_wirelength, 0);
  EXPECT_GE(r.max_channel_occupancy, 1);
}

TEST(Router, ConnectionLengthsAtLeastManhattan) {
  TinyPlaced t;
  RouterOptions opt;
  RoutingResult r = route(t.nl, *t.pl, opt);
  for (NetId n : t.nl.live_nets()) {
    const Net& net = t.nl.net(n);
    Point d = t.pl->location(net.driver);
    for (const Sink& s : net.sinks) {
      int len = r.length_of(s.cell, s.pin, -1);
      ASSERT_GE(len, 0) << "connection missing from routing";
      EXPECT_GE(len, manhattan(d, t.pl->location(s.cell)));
    }
  }
}

TEST(Router, InfiniteRoutingIsShortestPath) {
  // With no congestion every connection should match Manhattan distance
  // exactly when the net has a single sink.
  Netlist nl;
  CellId a = nl.add_input_pad("a");
  CellId g = nl.add_logic("g", {nl.cell(a).output}, 0b10, false);
  CellId po = nl.add_output_pad("po");
  nl.connect(nl.cell(g).output, po, 0);
  FpgaGrid grid(4, 2);
  Placement pl(nl, grid);
  pl.place(a, {0, 2});
  pl.place(g, {2, 3});
  pl.place(po, {5, 1});
  RoutingResult r = route(nl, pl, RouterOptions{});
  EXPECT_EQ(r.length_of(g, 0, -1), manhattan({0, 2}, {2, 3}));
  EXPECT_EQ(r.length_of(po, 0, -1), manhattan({2, 3}, {5, 1}));
}

TEST(Router, SteinerSharingShortensMultiFanout) {
  // Driver with two sinks on the same row: the shared trunk must be counted
  // once (wirelength < sum of the two Manhattan distances).
  Netlist nl;
  CellId a = nl.add_input_pad("a");
  CellId g1 = nl.add_logic("g1", {nl.cell(a).output}, 0b10, false);
  CellId g2 = nl.add_logic("g2", {nl.cell(a).output}, 0b10, false);
  CellId po1 = nl.add_output_pad("po1");
  CellId po2 = nl.add_output_pad("po2");
  nl.connect(nl.cell(g1).output, po1, 0);
  nl.connect(nl.cell(g2).output, po2, 0);
  FpgaGrid grid(6, 2);
  Placement pl(nl, grid);
  pl.place(a, {0, 1});
  pl.place(g1, {5, 1});
  pl.place(g2, {6, 1});
  pl.place(po1, {7, 1});
  pl.place(po2, {7, 2});
  RoutingResult r = route(nl, pl, RouterOptions{});
  // Net a: sinks at distance 5 and 6 along one line; shared tree uses 6.
  // Total wirelength must be below the unshared sum for this net.
  EXPECT_TRUE(r.success);
  EXPECT_LE(r.total_wirelength, 6 + 2 + 2);  // a-tree + two output hops
}

TEST(Router, CapacityOneForcesDetours) {
  // Two parallel nets through a narrow region with W=1: one must detour,
  // but routing must still succeed.
  Netlist nl;
  CellId a = nl.add_input_pad("a");
  CellId b = nl.add_input_pad("b");
  CellId ga = nl.add_logic("ga", {nl.cell(a).output}, 0b10, false);
  CellId gb = nl.add_logic("gb", {nl.cell(b).output}, 0b10, false);
  CellId poa = nl.add_output_pad("poa");
  CellId pob = nl.add_output_pad("pob");
  nl.connect(nl.cell(ga).output, poa, 0);
  nl.connect(nl.cell(gb).output, pob, 0);
  FpgaGrid grid(4, 2);
  Placement pl(nl, grid);
  pl.place(a, {0, 2});
  pl.place(b, {0, 2});  // same pad location (io_rat 2)
  pl.place(ga, {1, 2});
  pl.place(gb, {2, 2});
  pl.place(poa, {5, 2});
  pl.place(pob, {5, 2});
  RouterOptions opt;
  opt.channel_width = 1;
  RoutingResult r = route(nl, pl, opt);
  EXPECT_TRUE(r.success);
  EXPECT_LE(r.max_channel_occupancy, 1);
}

TEST(Router, MinChannelWidthMonotone) {
  TinyPlaced t;
  int wmin = find_min_channel_width(t.nl, *t.pl);
  ASSERT_GE(wmin, 1);
  // Routing at wmin succeeds; at wmin-1 it must fail (if wmin > 1).
  RouterOptions at;
  at.channel_width = wmin;
  EXPECT_TRUE(route(t.nl, *t.pl, at).success);
  if (wmin > 1) {
    RouterOptions below;
    below.channel_width = wmin - 1;
    EXPECT_FALSE(route(t.nl, *t.pl, below).success);
  }
}

TEST(Router, RoutedDelayAtLeastPlacedEstimate) {
  TinyPlaced t;
  TimingGraph tg(t.nl, *t.pl, t.dm);
  double placed = tg.critical_delay();
  RoutingResult inf = route(t.nl, *t.pl, RouterOptions{});
  double routed = routed_critical_delay(t.nl, *t.pl, t.dm, inf);
  EXPECT_GE(routed, placed - 1e-9);
}

TEST(Router, LowStressNoWorseStructure) {
  // W_ls >= W_inf critical path (congestion can only lengthen wires); both
  // on an annealed medium circuit — the Table I relationship.
  CircuitSpec spec;
  spec.num_logic = 120;
  spec.num_inputs = 10;
  spec.num_outputs = 10;
  spec.depth = 7;
  spec.seed = 5;
  Netlist nl = generate_circuit(spec);
  FpgaGrid grid(FpgaGrid::min_grid_for(nl.num_logic(),
                                       nl.num_input_pads() + nl.num_output_pads()));
  LinearDelayModel dm;
  AnnealerOptions aopt;
  aopt.inner_num = 0.5;
  Placement pl = anneal_placement(nl, grid, dm, aopt);

  RoutingResult inf = route(nl, pl, RouterOptions{});
  double crit_inf = routed_critical_delay(nl, pl, dm, inf);
  int wmin = find_min_channel_width(nl, pl);
  RouterOptions ls;
  ls.channel_width = static_cast<int>(std::ceil(1.2 * wmin));
  RoutingResult rls = route(nl, pl, ls);
  EXPECT_TRUE(rls.success);
  double crit_ls = routed_critical_delay(nl, pl, dm, rls);
  EXPECT_GE(crit_ls, crit_inf - 1e-9);
  EXPECT_LE(crit_ls, crit_inf * 1.5);  // low-stress, not pathological
}

TEST(Router, DeterministicAcrossRuns) {
  TinyPlaced t;
  RoutingResult a = route(t.nl, *t.pl, RouterOptions{});
  RoutingResult b = route(t.nl, *t.pl, RouterOptions{});
  EXPECT_EQ(a.total_wirelength, b.total_wirelength);
  EXPECT_EQ(a.connection_length, b.connection_length);
}

TEST(Router, DeterministicInBothRerouteModes) {
  // Same inputs -> bit-identical results, in incremental and full-reroute
  // mode, including the per-pass work counters.
  SeededPlaced s;
  for (bool incremental : {true, false}) {
    RouterOptions opt;
    opt.incremental_reroute = incremental;
    opt.channel_width = 8;  // congested enough for multiple passes
    RoutingResult a = route(s.nl, s.pl, opt);
    RoutingResult b = route(s.nl, s.pl, opt);
    EXPECT_EQ(a.success, b.success);
    EXPECT_EQ(a.total_wirelength, b.total_wirelength);
    EXPECT_EQ(a.connection_length, b.connection_length);
    EXPECT_EQ(a.pass_stats, b.pass_stats);
    EXPECT_EQ(a.nodes_expanded, b.nodes_expanded);
  }
}

TEST(Router, AStarMatchesDijkstraOracle) {
  // The lookahead is admissible and consistent, so every A* maze search must
  // find the same path cost as a reference Dijkstra — uncongested,
  // congested, and with timing-driven criticalities.
  SeededPlaced s;
  RouterOptions opt;
  opt.verify_lookahead = true;

  opt.channel_width = 0;
  RoutingResult inf = route(s.nl, s.pl, opt);
  EXPECT_TRUE(inf.success);
  EXPECT_EQ(inf.lookahead_mismatches, 0u);

  opt.channel_width = 8;
  RoutingResult tight = route(s.nl, s.pl, opt);
  EXPECT_EQ(tight.lookahead_mismatches, 0u);

  RoutingResult crit_routed = route(s.nl, s.pl, opt, pinned_crit);
  EXPECT_EQ(crit_routed.lookahead_mismatches, 0u);
  EXPECT_GT(crit_routed.nodes_expanded, 0u);
}

TEST(Router, IncrementalMatchesFullRerouteWmin) {
  SeededPlaced s;
  RouterOptions incr;
  incr.incremental_reroute = true;
  RouterOptions full;
  full.incremental_reroute = false;
  EXPECT_EQ(find_min_channel_width(s.nl, s.pl, incr),
            find_min_channel_width(s.nl, s.pl, full));
}

TEST(Router, WarmWminMatchesColdAndReportsStats) {
  SeededPlaced s;
  RouterOptions warm;
  warm.warm_start_wmin = true;
  RouterOptions cold;
  cold.warm_start_wmin = false;
  WminSearchStats ws, cs;
  const int w_warm = find_min_channel_width(s.nl, s.pl, warm, &ws);
  const int w_cold = find_min_channel_width(s.nl, s.pl, cold, &cs);
  EXPECT_EQ(w_warm, w_cold);

  for (const WminSearchStats* st : {&ws, &cs}) {
    EXPECT_LE(st->lower_bound, st->wmin);
    EXPECT_LE(st->wmin, st->upper_bound);
    ASSERT_FALSE(st->probes.empty());
    EXPECT_EQ(st->probes.front().width, 0);  // infinite-resource seeding run
    bool wmin_probed_ok = false;
    for (const WminProbeStats& p : st->probes)
      wmin_probed_ok |= p.width == st->wmin && p.success;
    EXPECT_TRUE(wmin_probed_ok);
    EXPECT_GT(st->nodes_expanded, 0u);
    EXPECT_GE(st->heap_pushes, st->heap_pops);
  }
  // The warm search ends with the cold verification of the returned width.
  EXPECT_TRUE(ws.probes.back().success);
  EXPECT_EQ(ws.probes.back().width, ws.wmin);
  EXPECT_FALSE(ws.probes.back().warm);
  // Warm probes actually reuse the persistent router.
  bool any_warm = false;
  for (const WminProbeStats& p : ws.probes) any_warm |= p.warm;
  EXPECT_TRUE(any_warm);
  // The warm search's answer is always reproducible by a cold route().
  RouterOptions at = warm;
  at.channel_width = w_warm;
  at.self_check = true;
  EXPECT_TRUE(route(s.nl, s.pl, at).success);
}

TEST(Router, PinnedGoldensSmallSeedCircuit) {
  // Pinned quality numbers for the seeded fixture. A change here means the
  // router's routed quality moved: verify W_min and wirelength did not
  // regress before re-pinning.
  SeededPlaced s;
  EXPECT_EQ(find_min_channel_width(s.nl, s.pl), 7);

  RoutingResult inf = route(s.nl, s.pl, RouterOptions{});
  EXPECT_TRUE(inf.success);
  EXPECT_EQ(inf.total_wirelength, 717);

  RouterOptions at;
  at.channel_width = 7;
  at.self_check = true;
  RoutingResult r = route(s.nl, s.pl, at);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.total_wirelength, 784);
  EXPECT_EQ(r.connection_length.size(), 196u);
}

TEST(Router, BoundedSearchReportsUnroutedConnections) {
  // A connection that exhausts its expansion budget must be recorded as
  // unrouted — success false, counted — never silently dropped (the release
  // -mode failure mode this replaces was an assert that compiled out).
  SeededPlaced s;
  RouterOptions opt;
  opt.max_expansions_per_connection = 1;
  opt.max_iterations = 2;
  opt.self_check = true;
  RoutingResult r = route(s.nl, s.pl, opt);
  EXPECT_FALSE(r.success);
  EXPECT_GT(r.unrouted_connections, 0);
  ASSERT_FALSE(r.pass_stats.empty());
  EXPECT_EQ(r.pass_stats.back().unrouted_connections, r.unrouted_connections);
}

TEST(Router, StallAbortOnlyDeclaresTrueFailures) {
  // The early stall abort must agree with the full 30-pass negotiation on
  // both sides of W_min.
  SeededPlaced s;
  const int wmin = find_min_channel_width(s.nl, s.pl);
  for (int window : {0, 2}) {
    RouterOptions opt;
    opt.stall_abort_window = window;
    opt.channel_width = wmin;
    EXPECT_TRUE(route(s.nl, s.pl, opt).success) << "window " << window;
    opt.channel_width = wmin - 1;
    EXPECT_FALSE(route(s.nl, s.pl, opt).success) << "window " << window;
  }
}

TEST(MazeQueue, MakesTheStdHeapMovesEvenOnTies) {
  // The maze queue must leave its entries where std::make_heap /
  // std::push_heap / std::pop_heap would, so that entries with equal
  // (f, node) still pop in the order the std:: heap gave them. Few distinct
  // keys force many such ties; the version tells tied entries apart.
  using Entry = MazeQueue::Entry;
  auto worse = [](const Entry& a, const Entry& b) {
    if (a.f != b.f) return a.f > b.f;
    return a.node > b.node;
  };
  auto same = [](const Entry& a, const Entry& b) {
    return a.f == b.f && a.node == b.node && a.version == b.version;
  };
  Rng rng(11);
  std::uint32_t version = 0;
  auto draw = [&] {
    return Entry{0.5 * rng.next_int(0, 4), rng.next_int(0, 3), ++version};
  };
  for (int round = 0; round < 40; ++round) {
    MazeQueue q;
    std::vector<Entry> ref;
    const int seeds = rng.next_int(0, 20);
    for (int i = 0; i < seeds; ++i) {
      const Entry x = draw();
      q.append(x);
      ref.push_back(x);
    }
    q.heapify();
    std::make_heap(ref.begin(), ref.end(), worse);
    for (int op = 0; op < 300 || !ref.empty(); ++op) {
      if (op < 300 && (ref.empty() || rng.next_int(0, 2) != 0)) {
        const Entry x = draw();
        q.push(x);
        ref.push_back(x);
        std::push_heap(ref.begin(), ref.end(), worse);
        continue;
      }
      ASSERT_FALSE(q.empty());
      const Entry got = q.pop();
      std::pop_heap(ref.begin(), ref.end(), worse);
      ASSERT_TRUE(same(got, ref.back())) << "round " << round << " op " << op;
      ref.pop_back();
    }
    EXPECT_TRUE(q.empty());
  }
}

struct PinnedSearch {
  std::string probes;
  std::uint64_t wmin_nodes, wmin_pushes, wmin_pops;
  std::uint64_t cold_hash, cold_nodes, cold_pushes, cold_pops;
  std::uint64_t crit_hash, crit_nodes, crit_pushes, crit_pops;
};

void expect_pinned(const SeededPlaced& s, const PinnedSearch& want) {
  WminSearchStats ws;
  const int wmin = find_min_channel_width(s.nl, s.pl, RouterOptions{}, &ws);
  EXPECT_EQ(probe_list(ws), want.probes);
  EXPECT_EQ(ws.nodes_expanded, want.wmin_nodes);
  EXPECT_EQ(ws.heap_pushes, want.wmin_pushes);
  EXPECT_EQ(ws.heap_pops, want.wmin_pops);

  RouterOptions at;
  at.channel_width = wmin;
  const RoutingResult cold = route(s.nl, s.pl, at);
  EXPECT_TRUE(cold.success);
  EXPECT_EQ(route_hash(cold), want.cold_hash);
  EXPECT_EQ(cold.nodes_expanded, want.cold_nodes);
  EXPECT_EQ(cold.heap_pushes, want.cold_pushes);
  EXPECT_EQ(cold.heap_pops, want.cold_pops);

  const RoutingResult crit = route(s.nl, s.pl, at, pinned_crit);
  EXPECT_EQ(route_hash(crit), want.crit_hash);
  EXPECT_EQ(crit.nodes_expanded, want.crit_nodes);
  EXPECT_EQ(crit.heap_pushes, want.crit_pushes);
  EXPECT_EQ(crit.heap_pops, want.crit_pops);
}

TEST(Router, SearchWorkAndRoutesPinned) {
  // Exactness pin for the maze search: the W_min probe sequence, the heap
  // work counters and a hash of every committed route tree, cold and with
  // criticalities. Any change to the search's pop order or relaxation shows
  // here even when W_min and wirelength happen to survive it. A change to
  // the queue's implementation must leave every value untouched.
  expect_pinned(SeededPlaced(),
                PinnedSearch{"0/1/1/1201 9/1/1/1119 7/1/4/5579 6/0/90/73144 7/1/5/7510",
                             88553, 178718, 93263,
                             9563802444390795327ull, 7510, 17745, 7888,
                             16371964472994749417ull, 9391, 21803, 10147});
  expect_pinned(SeededPlaced(150, 3, 10),
                PinnedSearch{"0/1/1/4764 16/1/1/3409 12/1/4/11229 10/1/11/39387 "
                             "9/0/13/240878 10/1/8/68199",
                             367866, 705438, 419538,
                             15940430858674230589ull, 68199, 128179, 78673,
                             5438962860307481764ull, 72232, 147587, 83076});
}

}  // namespace
}  // namespace repro
