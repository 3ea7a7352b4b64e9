#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "embed/embedder.h"
#include "embed/embedding_graph.h"
#include "embed/fanin_tree.h"

namespace repro {
namespace {

/// The paper's worked example (Fig. 7): a 5-slot line, tree s -> x -> t with
/// s fixed at slot 0 and t at slot 4; wire cost = length; wire delay
/// quadratic in the unbranched run length; gate delay 1; placement cost of x
/// = slot index; s and t free.
struct WorkedExample {
  EmbeddingGraph graph = EmbeddingGraph::make_line(5, /*cost*/ 1.0, /*len*/ 1.0);
  FaninTree tree;
  TreeNodeId s, x, t;

  WorkedExample() {
    s = tree.add_leaf("s", {0, 0}, 0.0, true);
    x = tree.add_gate("x", {s}, 1.0);
    t = tree.add_gate("t", {x}, 1.0);
    tree.set_root(t, {4, 0});
  }

  EmbedOptions options() const {
    EmbedOptions opt;
    opt.stem_delay = [](int len) { return static_cast<double>(len) * len; };
    return opt;
  }

  double pcost(TreeNodeId i, EmbedVertexId j) const {
    if (i != x) return 0.0;
    const int slot = graph.point(j).x;
    // Slots 0 and 4 hold the fixed s and t; the example implicitly keeps x
    // off them (its candidate solutions run over slots 1..3 only).
    if (slot == 0 || slot == 4) return 1e6;
    return static_cast<double>(slot);
  }
};

TEST(WorkedExampleFig7, RootTradeoffMatchesPaper) {
  WorkedExample w;
  FaninTreeEmbedder e(
      w.tree, w.graph,
      [&w](TreeNodeId i, EmbedVertexId j) { return w.pcost(i, j); }, w.options());
  ASSERT_TRUE(e.run());
  // Paper: A[t][4] = {(5, 12), (6, 10)}.
  ASSERT_EQ(e.tradeoff().size(), 2u);
  EXPECT_DOUBLE_EQ(e.tradeoff()[0].cost, 5.0);
  EXPECT_DOUBLE_EQ(e.tradeoff()[0].delay.primary(), 12.0);
  EXPECT_DOUBLE_EQ(e.tradeoff()[1].cost, 6.0);
  EXPECT_DOUBLE_EQ(e.tradeoff()[1].delay.primary(), 10.0);
}

TEST(WorkedExampleFig7, CheapestFastEnoughSelection) {
  WorkedExample w;
  FaninTreeEmbedder e(
      w.tree, w.graph,
      [&w](TreeNodeId i, EmbedVertexId j) { return w.pcost(i, j); }, w.options());
  ASSERT_TRUE(e.run());
  // Paper: with a circuit lower bound of 15, choose (5,12) over (6,10).
  int pick = e.pick_cheapest_within(15.0);
  ASSERT_GE(pick, 0);
  EXPECT_DOUBLE_EQ(e.tradeoff()[pick].cost, 5.0);
  // With a bound of 11, only the fast solution qualifies.
  pick = e.pick_cheapest_within(11.0);
  ASSERT_GE(pick, 0);
  EXPECT_DOUBLE_EQ(e.tradeoff()[pick].cost, 6.0);
  // Nothing is faster than 9.
  EXPECT_EQ(e.pick_cheapest_within(9.0), -1);
}

TEST(WorkedExampleFig7, ExtractionPlacesXPerPaper) {
  WorkedExample w;
  FaninTreeEmbedder e(
      w.tree, w.graph,
      [&w](TreeNodeId i, EmbedVertexId j) { return w.pcost(i, j); }, w.options());
  ASSERT_TRUE(e.run());
  // Cheap solution: x at slot 1. Fast solution: x at slot 2.
  auto cheap = e.extract(0);
  EXPECT_EQ(w.graph.point(cheap.at(w.x)), (Point{1, 0}));
  EXPECT_EQ(w.graph.point(cheap.at(w.t)), (Point{4, 0}));
  EXPECT_EQ(w.graph.point(cheap.at(w.s)), (Point{0, 0}));
  auto fast = e.extract(1);
  EXPECT_EQ(w.graph.point(fast.at(w.x)), (Point{2, 0}));
}

// ---------------------------------------------------------------------------
// Linear-delay embedding on grids.

TEST(Embedder, SingleGateSitsOnShortestPath) {
  // a(0,0) -> g -> root(4,0): with zero placement cost, any position on the
  // line gives wire 4; delay = arr + 4*wd + gates.
  EmbeddingGraph g = EmbeddingGraph::make_grid({0, 0, 4, 2}, 1.0, 1.0);
  FaninTree tree;
  TreeNodeId a = tree.add_leaf("a", {0, 0}, 0.0, true);
  TreeNodeId gate = tree.add_gate("g", {a}, 1.0);
  TreeNodeId root = tree.add_gate("root", {gate}, 1.0);
  tree.set_root(root, {4, 0});

  FaninTreeEmbedder e(tree, g, nullptr, EmbedOptions{});
  ASSERT_TRUE(e.run());
  int best = e.pick_fastest();
  EXPECT_DOUBLE_EQ(e.tradeoff()[best].delay.primary(), 4.0 + 2.0);
  EXPECT_DOUBLE_EQ(e.tradeoff()[best].cost, 4.0);  // pure wire
  auto emb = e.extract(best);
  Point p = g.point(emb.at(gate));
  EXPECT_EQ(p.y, 0);  // on the straight line
}

TEST(Embedder, BalancesTwoLeaves) {
  // Leaves at (0,0) and (0,4) with equal arrivals; root at (4,2).
  EmbeddingGraph g = EmbeddingGraph::make_grid({0, 0, 4, 4}, 1.0, 1.0);
  FaninTree tree;
  TreeNodeId a = tree.add_leaf("a", {0, 0}, 0.0, true);
  TreeNodeId b = tree.add_leaf("b", {0, 4}, 0.0, true);
  TreeNodeId gate = tree.add_gate("g", {a, b}, 1.0);
  TreeNodeId root = tree.add_gate("root", {gate}, 1.0);
  tree.set_root(root, {4, 2});

  FaninTreeEmbedder e(tree, g, nullptr, EmbedOptions{});
  ASSERT_TRUE(e.run());
  int best = e.pick_fastest();
  // Optimal: gate in the y=2 corridor: 2 + x + 1 + (4-x) + 1 = 8.
  EXPECT_DOUBLE_EQ(e.tradeoff()[best].delay.primary(), 8.0);
  auto emb = e.extract(best);
  EXPECT_EQ(g.point(emb.at(gate)).y, 2);
}

TEST(Embedder, UnequalArrivalsShiftTheGate) {
  // b arrives 4 late: the gate should move toward b to equalize.
  EmbeddingGraph g = EmbeddingGraph::make_grid({0, 0, 6, 0}, 1.0, 1.0);
  FaninTree tree;
  TreeNodeId a = tree.add_leaf("a", {0, 0}, 0.0, true);
  TreeNodeId b = tree.add_leaf("b", {6, 0}, 4.0, true);
  TreeNodeId gate = tree.add_gate("g", {a, b}, 0.0);
  TreeNodeId root = tree.add_gate("root", {gate}, 0.0);
  tree.set_root(root, {3, 0});

  FaninTreeEmbedder e(tree, g, nullptr, EmbedOptions{});
  ASSERT_TRUE(e.run());
  int best = e.pick_fastest();
  auto emb = e.extract(best);
  // Gate at x: max(x, 4 + (6-x)) + |3-x| ties at 7 for x in {3,4,5}; the
  // cheapest of the fastest (x = 3, pure wire cost 6) must win.
  EXPECT_DOUBLE_EQ(e.tradeoff()[best].delay.primary(), 7.0);
  EXPECT_DOUBLE_EQ(e.tradeoff()[best].cost, 6.0);
  EXPECT_EQ(g.point(emb.at(gate)).x, 3);
}

TEST(Embedder, PlacementCostCreatesTradeoff) {
  // A high-cost row (the Fig. 4 shaded region): the cheap solution detours
  // the gate around it; the fast one pays.
  EmbeddingGraph g = EmbeddingGraph::make_grid({0, 0, 4, 2}, 1.0, 1.0);
  FaninTree tree;
  TreeNodeId a = tree.add_leaf("a", {0, 0}, 0.0, true);
  TreeNodeId gate = tree.add_gate("g", {a}, 0.0);
  TreeNodeId root = tree.add_gate("root", {gate}, 0.0);
  tree.set_root(root, {4, 0});
  auto pcost = [&g, gate](TreeNodeId i, EmbedVertexId j) {
    if (i != gate) return 0.0;
    return g.point(j).y == 0 ? 10.0 : 0.0;  // row 0 is expensive for the gate
  };
  FaninTreeEmbedder e(tree, g, pcost, EmbedOptions{});
  ASSERT_TRUE(e.run());
  ASSERT_GE(e.tradeoff().size(), 2u);
  // Cheap: gate off-row (detour 2): cost 6 wire, delay 6.
  EXPECT_DOUBLE_EQ(e.tradeoff()[0].cost, 6.0);
  EXPECT_DOUBLE_EQ(e.tradeoff()[0].delay.primary(), 6.0);
  // Fast: gate on the straight line, paying 10: cost 14, delay 4.
  int fast = e.pick_fastest();
  EXPECT_DOUBLE_EQ(e.tradeoff()[fast].delay.primary(), 4.0);
  EXPECT_DOUBLE_EQ(e.tradeoff()[fast].cost, 14.0);
}

TEST(Embedder, BlockedVerticesAreAvoided) {
  // Block the whole middle column except the top crossing.
  EmbeddingGraph g = EmbeddingGraph::make_grid(
      {0, 0, 4, 4}, 1.0, 1.0, [](Point p) { return p.x == 2 && p.y != 4; });
  FaninTree tree;
  TreeNodeId a = tree.add_leaf("a", {0, 0}, 0.0, true);
  TreeNodeId gate = tree.add_gate("g", {a}, 0.0);
  TreeNodeId root = tree.add_gate("root", {gate}, 0.0);
  tree.set_root(root, {4, 0});
  FaninTreeEmbedder e(tree, g, nullptr, EmbedOptions{});
  ASSERT_TRUE(e.run());
  // Any route must climb to y=4 and back: wire = 4 + 4 + 4 = 12.
  int best = e.pick_fastest();
  EXPECT_DOUBLE_EQ(e.tradeoff()[best].delay.primary(), 12.0);
}

TEST(Embedder, TernaryJoin) {
  EmbeddingGraph g = EmbeddingGraph::make_grid({0, 0, 4, 4}, 1.0, 1.0);
  FaninTree tree;
  TreeNodeId a = tree.add_leaf("a", {0, 0}, 0.0, true);
  TreeNodeId b = tree.add_leaf("b", {0, 4}, 0.0, true);
  TreeNodeId c = tree.add_leaf("c", {4, 0}, 0.0, true);
  TreeNodeId gate = tree.add_gate("g", {a, b, c}, 1.0);
  TreeNodeId root = tree.add_gate("root", {gate}, 1.0);
  tree.set_root(root, {4, 4});
  FaninTreeEmbedder e(tree, g, nullptr, EmbedOptions{});
  ASSERT_TRUE(e.run());
  int best = e.pick_fastest();
  // Gate at center (2,2): slowest leaf 4, +1 gate, +4 wire, +1 root = 10.
  EXPECT_DOUBLE_EQ(e.tradeoff()[best].delay.primary(), 10.0);
}

TEST(Embedder, LeafOutsideGraphFails) {
  EmbeddingGraph g = EmbeddingGraph::make_grid({0, 0, 2, 2}, 1.0, 1.0);
  FaninTree tree;
  TreeNodeId a = tree.add_leaf("a", {9, 9}, 0.0, true);
  TreeNodeId root = tree.add_gate("root", {a}, 1.0);
  tree.set_root(root, {1, 1});
  FaninTreeEmbedder e(tree, g, nullptr, EmbedOptions{});
  EXPECT_FALSE(e.run());
}

TEST(Embedder, MaxLabelsStillFindsASolution) {
  EmbeddingGraph g = EmbeddingGraph::make_grid({0, 0, 6, 6}, 1.0, 1.0);
  FaninTree tree;
  TreeNodeId a = tree.add_leaf("a", {0, 0}, 0.0, true);
  TreeNodeId b = tree.add_leaf("b", {6, 0}, 1.0, true);
  TreeNodeId g1 = tree.add_gate("g1", {a, b}, 1.0);
  TreeNodeId root = tree.add_gate("root", {g1}, 1.0);
  tree.set_root(root, {3, 6});
  auto pcost = [&g](TreeNodeId, EmbedVertexId j) {
    return 0.1 * (g.point(j).x + g.point(j).y);
  };
  EmbedOptions opt;
  opt.max_labels = 2;
  FaninTreeEmbedder pruned(tree, g, pcost, opt);
  ASSERT_TRUE(pruned.run());
  FaninTreeEmbedder exact(tree, g, pcost, EmbedOptions{});
  ASSERT_TRUE(exact.run());
  double fast_pruned = pruned.tradeoff()[pruned.pick_fastest()].delay.primary();
  double fast_exact = exact.tradeoff()[exact.pick_fastest()].delay.primary();
  EXPECT_LE(fast_exact, fast_pruned + 1e-9);
  EXPECT_LE(fast_pruned, fast_exact * 1.5 + 1.0);
}

// ---------------------------------------------------------------------------
// Lex-N subcritical optimization (Section VI).

TEST(EmbedderLex, SubcriticalPathGetsOptimized) {
  // Leaf a is a late reconvergence terminator at the root's own location, so
  // the max arrival is fixed; Lex-2 additionally minimizes b's path.
  EmbeddingGraph g = EmbeddingGraph::make_grid({0, 0, 8, 0}, 1.0, 1.0);
  FaninTree tree;
  TreeNodeId a = tree.add_leaf("a", {0, 0}, 10.0, false);  // terminator
  TreeNodeId b = tree.add_leaf("b", {8, 0}, 0.0, true);
  TreeNodeId gate = tree.add_gate("g", {a, b}, 0.0);
  TreeNodeId root = tree.add_gate("root", {gate}, 0.0);
  tree.set_root(root, {0, 0});

  EmbedOptions lex2;
  lex2.lex_order = 2;
  FaninTreeEmbedder e(tree, g, nullptr, lex2);
  ASSERT_TRUE(e.run());
  int best = e.pick_fastest();
  // Gate at x: a-path = 10 + 2x, b-path = (8-x) + x = 8. Lex minimizes the
  // max first (x = 0 -> 10), then the subcritical (8).
  const DelayVec& d = e.tradeoff()[best].delay;
  ASSERT_EQ(d.n, 2);
  EXPECT_DOUBLE_EQ(d.v[0], 10.0);
  EXPECT_DOUBLE_EQ(d.v[1], 8.0);
  auto emb = e.extract(best);
  EXPECT_EQ(g.point(emb.at(gate)).x, 0);
}

TEST(EmbedderLex, DelayVecMergeKeepsLargest) {
  DelayVec a = DelayVec::pair(10, 4);
  DelayVec b = DelayVec::pair(8, 7);
  DelayVec m = a.merged_with(b, 3);
  ASSERT_EQ(m.n, 3);
  EXPECT_DOUBLE_EQ(m.v[0], 10);
  EXPECT_DOUBLE_EQ(m.v[1], 8);
  EXPECT_DOUBLE_EQ(m.v[2], 7);
}

TEST(EmbedderLex, MergeTruncates) {
  DelayVec a = DelayVec::pair(10, 9);
  DelayVec b = DelayVec::pair(8, 7);
  DelayVec m = a.merged_with(b, 2);
  ASSERT_EQ(m.n, 2);
  EXPECT_DOUBLE_EQ(m.v[0], 10);
  EXPECT_DOUBLE_EQ(m.v[1], 9);
}

TEST(EmbedderLex, LexCompareOrdering) {
  EXPECT_LT(DelayVec::pair(5, 3).lex_compare(DelayVec::pair(5, 4)), 0);
  EXPECT_GT(DelayVec::pair(6, 0).lex_compare(DelayVec::pair(5, 9)), 0);
  EXPECT_EQ(DelayVec::pair(5, 3).lex_compare(DelayVec::pair(5, 3)), 0);
  // Shorter vectors are better when prefixes tie.
  EXPECT_LT(DelayVec::single(5).lex_compare(DelayVec::pair(5, 1)), 0);
}

TEST(EmbedderLex, ShiftMovesAllEntries) {
  DelayVec d = DelayVec::pair(5, 3);
  d.shift(2.0);
  EXPECT_DOUBLE_EQ(d.v[0], 7);
  EXPECT_DOUBLE_EQ(d.v[1], 5);
}

TEST(EmbedderMc, CriticalInputWeightPropagates) {
  // Leaves: c (critical real input), d (late terminator). Lex-mc tracks the
  // delay from c separately.
  EmbeddingGraph g = EmbeddingGraph::make_grid({0, 0, 4, 0}, 1.0, 1.0);
  FaninTree tree;
  TreeNodeId c = tree.add_leaf("c", {0, 0}, 0.0, true);
  TreeNodeId d = tree.add_leaf("d", {4, 0}, 6.0, false);
  TreeNodeId gate = tree.add_gate("g", {c, d}, 1.0);
  TreeNodeId root = tree.add_gate("root", {gate}, 1.0);
  tree.set_root(root, {2, 0});

  EmbedOptions mc;
  mc.lex_mc = true;
  FaninTreeEmbedder e(tree, g, nullptr, mc);
  ASSERT_TRUE(e.run());
  int best = e.pick_fastest();
  const DelayVec& dv = e.tradeoff()[best].delay;
  ASSERT_EQ(dv.n, 2);
  // Gate at x: t = max(x, 6 + (4-x)) + 1 + |2-x| + 1; tc = x + 1 + |2-x| + 1.
  // t ties at 10 for x in {2,3,4}; lex order then minimizes tc, picking
  // x = 2 with tc = 4 — exactly the mc variant's point.
  EXPECT_DOUBLE_EQ(dv.v[0], 10.0);
  EXPECT_DOUBLE_EQ(dv.v[1], 4.0);
}

TEST(EmbedderOverlap, BranchingBitPreventsStacking) {
  EmbeddingGraph g = EmbeddingGraph::make_grid({0, 0, 3, 0}, 1.0, 1.0);
  FaninTree tree;
  TreeNodeId a = tree.add_leaf("a", {0, 0}, 0.0, true);
  TreeNodeId g1 = tree.add_gate("g1", {a}, 0.0);
  TreeNodeId g2 = tree.add_gate("g2", {g1}, 0.0);
  TreeNodeId root = tree.add_gate("root", {g2}, 0.0);
  tree.set_root(root, {3, 0});

  EmbedOptions avoid;
  avoid.overlap_avoidance = true;
  avoid.branch_capacity = 1;
  FaninTreeEmbedder e(tree, g, nullptr, avoid);
  ASSERT_TRUE(e.run());
  for (std::size_t k = 0; k < e.tradeoff().size(); ++k) {
    auto emb = e.extract(static_cast<int>(k));
    EXPECT_NE(emb.at(g1), emb.at(g2))
        << "overlap avoidance must separate parent and child";
  }
}

TEST(EmbedderOverlap, CapacityTwoAllowsOnePair) {
  EmbeddingGraph g = EmbeddingGraph::make_grid({0, 0, 3, 0}, 1.0, 1.0);
  FaninTree tree;
  TreeNodeId a = tree.add_leaf("a", {0, 0}, 0.0, true);
  TreeNodeId g1 = tree.add_gate("g1", {a}, 0.0);
  TreeNodeId g2 = tree.add_gate("g2", {g1}, 0.0);
  TreeNodeId root = tree.add_gate("root", {g2}, 0.0);
  tree.set_root(root, {3, 0});

  // Make vertex 0 strictly preferable for both gates so the cheapest
  // solution must stack them there.
  auto pcost = [&g](TreeNodeId, EmbedVertexId j) {
    return g.point(j).x == 0 ? 0.0 : 5.0;
  };
  EmbedOptions avoid;
  avoid.overlap_avoidance = true;
  avoid.branch_capacity = 2;  // hierarchical FPGA: 2 LUTs per CLB
  FaninTreeEmbedder e(tree, g, pcost, avoid);
  ASSERT_TRUE(e.run());
  auto cheapest = e.extract(0);
  EXPECT_EQ(cheapest.at(g1), cheapest.at(g2));
  EXPECT_EQ(g.point(cheapest.at(g1)), (Point{0, 0}));
}

TEST(Embedder, RejectsTreesWiderThanMaxFanin) {
  // A join keeps its partial child indices inline, so the embedder refuses a
  // node with more children than it has room for instead of overrunning.
  EmbeddingGraph g = EmbeddingGraph::make_grid({0, 0, 3, 3}, 1.0, 1.0);
  auto tree_with_fanin = [](std::size_t fanin) {
    FaninTree tree;
    std::vector<TreeNodeId> leaves;
    for (std::size_t k = 0; k < fanin; ++k)
      leaves.push_back(tree.add_leaf("l" + std::to_string(k),
                                     {static_cast<int>(k % 4), 0}, 0.0, true));
    tree.set_root(tree.add_gate("root", leaves, 1.0), {3, 3});
    return tree;
  };
  FaninTree widest = tree_with_fanin(FaninTreeEmbedder::kMaxFanin);
  FaninTreeEmbedder ok(widest, g, nullptr, EmbedOptions{});
  EXPECT_TRUE(ok.run());
  FaninTree too_wide = tree_with_fanin(FaninTreeEmbedder::kMaxFanin + 1);
  EXPECT_THROW(FaninTreeEmbedder(too_wide, g, nullptr, EmbedOptions{}),
               std::invalid_argument);
}

TEST(EmbedderRoot, RelocatableRootImprovesDelay) {
  EmbeddingGraph g = EmbeddingGraph::make_grid({0, 0, 8, 0}, 1.0, 1.0);
  FaninTree tree;
  TreeNodeId a = tree.add_leaf("a", {0, 0}, 0.0, true);
  TreeNodeId gate = tree.add_gate("g", {a}, 0.0);
  TreeNodeId root = tree.add_gate("root", {gate}, 0.0);
  tree.set_root(root, {8, 0});

  FaninTreeEmbedder fixed(tree, g, nullptr, EmbedOptions{});
  ASSERT_TRUE(fixed.run());
  double t_fixed = fixed.tradeoff()[fixed.pick_fastest()].delay.primary();
  EXPECT_DOUBLE_EQ(t_fixed, 8.0);

  EmbedOptions reloc;
  reloc.relocatable_root = true;
  FaninTreeEmbedder moving(tree, g, nullptr, reloc);
  ASSERT_TRUE(moving.run());
  double t_moving = moving.tradeoff()[moving.pick_fastest()].delay.primary();
  EXPECT_DOUBLE_EQ(t_moving, 0.0);  // root can sit on the leaf
}

TEST(Embedder, CriticalInputHeuristic) {
  FaninTree tree;
  TreeNodeId near = tree.add_leaf("near", {1, 0}, 0.0, true);
  TreeNodeId far = tree.add_leaf("far", {9, 0}, 0.0, true);
  TreeNodeId term = tree.add_leaf("term", {9, 9}, 50.0, false);
  TreeNodeId gate = tree.add_gate("g", {near, far, term}, 1.0);
  tree.set_root(tree.add_gate("root", {gate}, 1.0), {0, 0});
  // Critical input considers only real inputs: `far` wins on distance.
  EXPECT_EQ(tree.critical_input(), far);
}

}  // namespace
}  // namespace repro
