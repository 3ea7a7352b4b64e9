// The Elmore variant of Section II-D, run through FaninTreeEmbedder: the
// stem delay is ElmoreDelayModel::wire_delay and every gate's delay carries
// pin_load() (docs/ALGORITHMS.md §2). The worked examples check the paper's
// numbers; the property test checks the root trade-off curve against an
// exhaustive enumeration that sums the per-unit Elmore segment delays along
// Manhattan wires and charges c_in through each wire's full resistance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/delay_model.h"
#include "embed/embedder.h"
#include "util/rng.h"

namespace repro {
namespace {

EmbedOptions elmore_options(const ElmoreDelayModel& m) {
  EmbedOptions opt;
  opt.stem_delay = [m](int len) { return m.wire_delay(len); };
  return opt;
}

/// r = 2, c = 1, R_out = 0, c_in = 0: an unbranched run of length L has
/// delay exactly L^2, the quadratic-delay assumption of Fig. 7.
ElmoreDelayModel quadratic_model() {
  ElmoreDelayModel m;
  m.r_per_unit = 2.0;
  m.c_per_unit = 1.0;
  m.r_out = 0.0;
  m.c_in = 0.0;
  return m;
}

/// Fig. 7 on a 5-slot line: s fixed at slot 0, t at slot 4, gate delays 1,
/// placement cost of x = its slot (slots 0 and 4 are kept off limits).
struct Fig7 {
  ElmoreDelayModel m = quadratic_model();
  EmbeddingGraph g = EmbeddingGraph::make_line(5, 1.0, 1.0);
  FaninTree tree;
  TreeNodeId s, x, t;

  Fig7() {
    s = tree.add_leaf("s", {0, 0}, 0.0, true);
    x = tree.add_gate("x", {s}, 1.0 + m.pin_load());
    t = tree.add_gate("t", {x}, 1.0 + m.pin_load());
    tree.set_root(t, {4, 0});
  }

  FaninTreeEmbedder embedder() const {
    return FaninTreeEmbedder(
        tree, g,
        [this](TreeNodeId i, EmbedVertexId j) {
          const int slot = g.point(j).x;
          if (i != x) return 0.0;
          return (slot == 0 || slot == 4) ? 1e6 : static_cast<double>(slot);
        },
        elmore_options(m));
  }
};

TEST(Elmore, QuadraticWireReproducesFig7Numbers) {
  Fig7 f;
  FaninTreeEmbedder e = f.embedder();
  ASSERT_TRUE(e.run());
  // Same front as the paper's worked example: (5,12), (6,10).
  ASSERT_EQ(e.tradeoff().size(), 2u);
  EXPECT_DOUBLE_EQ(e.tradeoff()[0].cost, 5.0);
  EXPECT_DOUBLE_EQ(e.tradeoff()[0].delay.primary(), 12.0);
  EXPECT_DOUBLE_EQ(e.tradeoff()[1].cost, 6.0);
  EXPECT_DOUBLE_EQ(e.tradeoff()[1].delay.primary(), 10.0);
}

TEST(Elmore, ExtractionMatchesFig7) {
  Fig7 f;
  FaninTreeEmbedder e = f.embedder();
  ASSERT_TRUE(e.run());
  EXPECT_EQ(f.g.point(e.extract(0).at(f.x)), (Point{1, 0}));
  EXPECT_EQ(f.g.point(e.extract(1).at(f.x)), (Point{2, 0}));
}

TEST(Elmore, UpstreamResistanceMakesSegmentOrderMatter) {
  // The run delay is superlinear in its length, so a gate in the middle of
  // an 8-run must cut the delay, and the embedder must find it.
  const ElmoreDelayModel m = quadratic_model();
  EmbeddingGraph g = EmbeddingGraph::make_line(9, 1.0, 1.0);
  FaninTree tree;
  TreeNodeId s = tree.add_leaf("s", {0, 0}, 0.0, true);
  TreeNodeId buf = tree.add_gate("buf", {s}, m.pin_load());
  TreeNodeId t = tree.add_gate("t", {buf}, m.pin_load());
  tree.set_root(t, {8, 0});

  FaninTreeEmbedder e(tree, g, nullptr, elmore_options(m));
  ASSERT_TRUE(e.run());
  const int best = e.pick_fastest();
  // Unbuffered 8-run: 64. Split 4+4: 16 + 16 = 32.
  EXPECT_DOUBLE_EQ(e.tradeoff()[best].delay.primary(), 32.0);
  EXPECT_EQ(g.point(e.extract(best).at(buf)).x, 4);
}

TEST(Elmore, JoinResetsUpstreamResistance) {
  // After a gate, the wire sees only r_out again: two 2-runs with a gate
  // between differ from one 4-run.
  ElmoreDelayModel m;
  m.r_per_unit = 1.0;
  m.c_per_unit = 1.0;
  m.r_out = 0.5;
  m.c_in = 0.0;
  // one 4-run: c*L*(R0 + rL/2) = 4*(0.5 + 2) = 10.
  EXPECT_DOUBLE_EQ(m.segment_delay(0.5, 4), 10.0);
  EXPECT_DOUBLE_EQ(m.wire_delay(4), 10.0);
  // two 2-runs: each 2*(0.5 + 1) = 3; total 6 (+gate delay).
  EXPECT_DOUBLE_EQ(2 * m.segment_delay(0.5, 2), 6.0);
  EXPECT_DOUBLE_EQ(2 * m.wire_delay(2), 6.0);
}

TEST(Elmore, CheapestWithinBound) {
  Fig7 f;
  FaninTreeEmbedder e = f.embedder();
  ASSERT_TRUE(e.run());
  EXPECT_EQ(e.pick_cheapest_within(15.0), 0);
  EXPECT_EQ(e.pick_cheapest_within(11.0), 1);
  EXPECT_EQ(e.pick_cheapest_within(5.0), -1);
  EXPECT_EQ(e.pick_fastest(), 1);
}

TEST(Elmore, InputCapacitanceLoadsChildResistance) {
  // With c_in > 0, a child arriving through a long (high-R) run pays an
  // extra c_in * R penalty at the gate input; placing the gate closer to the
  // source reduces it.
  ElmoreDelayModel m = quadratic_model();
  m.c_in = 1.0;
  EmbeddingGraph g = EmbeddingGraph::make_line(5, 1.0, 1.0);
  FaninTree tree;
  TreeNodeId s = tree.add_leaf("s", {0, 0}, 0.0, true);
  TreeNodeId x = tree.add_gate("x", {s}, m.pin_load());
  TreeNodeId t = tree.add_gate("t", {x}, m.pin_load());
  tree.set_root(t, {4, 0});

  FaninTreeEmbedder e(tree, g, nullptr, elmore_options(m));
  ASSERT_TRUE(e.run());
  const int best = e.pick_fastest();
  // Gate at position p: t = p^2 + c_in*(2p) + (4-p)^2 + c_in*(2*(4-p))
  //                       = p^2 + (4-p)^2 + 8. Min at p = 2: 4+4+8 = 16.
  EXPECT_DOUBLE_EQ(e.tradeoff()[best].delay.primary(), 16.0);
}

TEST(Elmore, DominanceKeepsIncomparableTriples) {
  // Stem length is a third dominance dimension: labels with a shorter stem
  // but a later arrival coexist with their converse. The root curve is still
  // a cost-sorted staircase.
  const ElmoreDelayModel m = quadratic_model();
  EmbeddingGraph g = EmbeddingGraph::make_grid({0, 0, 3, 3}, 1.0, 1.0);
  FaninTree tree;
  TreeNodeId a = tree.add_leaf("a", {0, 0}, 0.0, true);
  TreeNodeId b = tree.add_leaf("b", {3, 0}, 1.0, true);
  TreeNodeId x = tree.add_gate("x", {a, b}, 0.5 + m.pin_load());
  TreeNodeId t = tree.add_gate("t", {x}, 0.5 + m.pin_load());
  tree.set_root(t, {3, 3});
  FaninTreeEmbedder e(
      tree, g, [](TreeNodeId, EmbedVertexId) { return 1.0; }, elmore_options(m));
  e.check_frontiers();
  ASSERT_TRUE(e.run());
  EXPECT_TRUE(e.frontiers_are_antichains());
  ASSERT_FALSE(e.tradeoff().empty());
  for (std::size_t k = 1; k < e.tradeoff().size(); ++k) {
    EXPECT_GE(e.tradeoff()[k].cost, e.tradeoff()[k - 1].cost);
    EXPECT_LT(e.tradeoff()[k].delay.primary(), e.tradeoff()[k - 1].delay.primary());
  }
}

// ---- brute force ------------------------------------------------------------

/// A random tree over a small grid and a random RC model. Every value is a
/// multiple of 1/4, so the embedder and the oracle add up the same delays
/// exactly, in whatever order.
struct ElmoreCase {
  ElmoreDelayModel m;
  double wire_cost = 0;
  Rect region;
  FaninTree tree;
  std::vector<TreeNodeId> movable;          ///< internal nodes, root excluded
  std::vector<double> gate_delay;           ///< [tree node], without pin load
  std::vector<std::vector<double>> pcost;   ///< [tree node][vertex]
};

ElmoreCase make_elmore_case(Rng& rng) {
  ElmoreCase ec;
  auto quarters = [&rng](int lo, int hi) { return 0.25 * rng.next_int(lo, hi); };
  ec.m.r_per_unit = quarters(0, 8);
  ec.m.c_per_unit = quarters(1, 8);
  ec.m.r_out = quarters(0, 8);
  ec.m.c_in = quarters(0, 8);
  ec.wire_cost = quarters(0, 4);
  const int w = rng.next_int(2, 4);
  const int h = rng.next_int(2, 4);
  ec.region = Rect{0, 0, w - 1, h - 1};
  auto rand_point = [&] { return Point{rng.next_int(0, w - 1), rng.next_int(0, h - 1)}; };

  auto gate = [&](const std::string& name, std::vector<TreeNodeId> kids, double d) {
    TreeNodeId n = ec.tree.add_gate(name, std::move(kids), d + ec.m.pin_load());
    ec.gate_delay.resize(ec.tree.size(), 0.0);
    ec.gate_delay[n.index()] = d;
    return n;
  };
  const int num_internal = rng.next_int(1, 3);
  std::vector<TreeNodeId> pool;
  const int num_leaves = num_internal + rng.next_int(1, 3);
  for (int i = 0; i < num_leaves; ++i)
    pool.push_back(ec.tree.add_leaf("l" + std::to_string(i), rand_point(),
                                    quarters(0, 16), true));
  for (int i = 0; i < num_internal; ++i) {
    const int arity = std::min<int>(static_cast<int>(pool.size()), rng.next_int(1, 3));
    std::vector<TreeNodeId> kids;
    for (int k = 0; k < arity; ++k) {
      const std::size_t pick = rng.next_below(pool.size());
      kids.push_back(pool[pick]);
      pool.erase(pool.begin() + static_cast<long>(pick));
    }
    ec.movable.push_back(gate("g" + std::to_string(i), std::move(kids), quarters(0, 8)));
    pool.push_back(ec.movable.back());
  }
  const TreeNodeId root = gate("root", pool, 1.0);
  ec.tree.set_root(root, rand_point());

  ec.pcost.assign(ec.tree.size(), std::vector<double>(static_cast<std::size_t>(w) * h));
  for (auto& row : ec.pcost)
    for (double& v : row) v = rng.next_int(0, 3);
  return ec;
}

struct CostDelay {
  double cost;
  double delay;
};

/// Every placement of the movable nodes, each wire a Manhattan run whose
/// delay is summed unit by unit as c * (R(u) + r / 2) with R(u) growing by r
/// per unit, plus the receiving pin's c_in * R at its end. Returns the
/// Pareto front sorted by cost.
std::vector<CostDelay> brute_force_front(const ElmoreCase& ec, const EmbeddingGraph& g) {
  const ElmoreDelayModel& m = ec.m;
  auto wire = [&m](int len) {
    double d = 0;
    double r = m.r_out;
    for (int k = 0; k < len; ++k) {
      d += m.segment_delay(r, 1);
      r += m.r_per_unit;
    }
    return d + m.c_in * r;
  };
  std::vector<std::size_t> assign(ec.movable.size(), 0);
  auto vertex_of = [&](TreeNodeId n) {
    for (std::size_t k = 0; k < ec.movable.size(); ++k)
      if (ec.movable[k] == n)
        return EmbedVertexId(static_cast<EmbedVertexId::value_type>(assign[k]));
    return g.vertex_at(ec.tree.node(n).fixed_loc);
  };
  auto eval = [&](auto&& self, TreeNodeId n) -> CostDelay {
    const FaninTreeNode& node = ec.tree.node(n);
    if (node.is_leaf()) return {0.0, node.leaf_arrival};
    const EmbedVertexId me = vertex_of(n);
    CostDelay out{ec.pcost[n.index()][me.index()], 0.0};
    for (TreeNodeId c : node.children) {
      const CostDelay sub = self(self, c);
      const int len = manhattan(g.point(vertex_of(c)), g.point(me));
      out.cost += sub.cost + ec.wire_cost * len;
      out.delay = std::max(out.delay, sub.delay + wire(len));
    }
    out.delay += ec.gate_delay[n.index()];
    return out;
  };

  std::vector<CostDelay> all;
  const std::size_t nv = g.num_vertices();
  while (true) {
    all.push_back(eval(eval, ec.tree.root()));
    std::size_t k = 0;
    while (k < assign.size() && ++assign[k] == nv) assign[k++] = 0;
    if (k == assign.size()) break;
  }
  std::sort(all.begin(), all.end(), [](const CostDelay& a, const CostDelay& b) {
    return a.cost != b.cost ? a.cost < b.cost : a.delay < b.delay;
  });
  std::vector<CostDelay> front;
  for (const CostDelay& s : all)
    if (front.empty() || s.delay < front.back().delay) front.push_back(s);
  return front;
}

void expect_root_curve_matches_brute_force(std::uint64_t seed) {
  Rng rng(seed);
  const ElmoreCase ec = make_elmore_case(rng);
  const EmbeddingGraph g = EmbeddingGraph::make_grid(ec.region, ec.wire_cost, 1.0);
  FaninTreeEmbedder e(
      ec.tree, g,
      [&ec](TreeNodeId i, EmbedVertexId j) { return ec.pcost[i.index()][j.index()]; },
      elmore_options(ec.m));
  e.check_frontiers();
  ASSERT_TRUE(e.run());
  EXPECT_TRUE(e.frontiers_are_antichains());
  const std::vector<CostDelay> front = brute_force_front(ec, g);
  ASSERT_EQ(e.tradeoff().size(), front.size());
  for (std::size_t k = 0; k < front.size(); ++k) {
    EXPECT_DOUBLE_EQ(e.tradeoff()[k].cost, front[k].cost);
    EXPECT_DOUBLE_EQ(e.tradeoff()[k].delay.primary(), front[k].delay);
  }
}

TEST(Elmore, RootCurveMatchesBruteForce) {
  for (std::uint64_t seed = 4200; seed < 4440; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_root_curve_matches_brute_force(seed);
  }
}

}  // namespace
}  // namespace repro
