// Property tests: the DP embedder must produce exactly the Pareto front that
// exhaustive enumeration of all internal-node placements produces, for both
// the 2-D (cost, max-arrival) objective and the Lex-N objectives, on random
// trees over full grids (where graph distance = Manhattan distance).
//
// A differential test checks the mesh sweep against GenDijkstra: the same
// mesh built by make_grid (swept) and by hand (no mesh descriptor, so the
// heap wavefront runs) must give bit-identical root curves.
//
// The second half pins the embedder's exact output — label count, the whole
// root trade-off curve bit for bit, and the extracted placements — on seeded
// irregular graphs and on the grid, for every option the replication engine
// never reaches (label cap, Lex-mc, stem delay, overlap avoidance, root
// relocation) and for 3- and 4-child joins, serially and on a thread pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "embed/embedder.h"
#include "embed/embedding_graph.h"
#include "embed/fanin_tree.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace repro {
namespace {

struct RandomCase {
  FaninTree tree;
  std::vector<TreeNodeId> internals;  // excluding root
  TreeNodeId root;
  Rect region;
  std::vector<std::vector<double>> pcost;  // [tree node][vertex]
};

/// Random tree with `num_internal` movable gates over a small grid.
RandomCase make_case(Rng& rng, int num_internal, int w, int h) {
  RandomCase rc;
  rc.region = Rect{0, 0, w - 1, h - 1};
  auto rand_point = [&] {
    return Point{rng.next_int(0, w - 1), rng.next_int(0, h - 1)};
  };

  // Build bottom-up: maintain a pool of subtree roots, join random subsets.
  std::vector<TreeNodeId> pool;
  const int num_leaves = num_internal + 1 + rng.next_int(0, 2);
  for (int i = 0; i < num_leaves; ++i)
    pool.push_back(rc.tree.add_leaf("l" + std::to_string(i), rand_point(),
                                    rng.next_double() * 4.0, true));
  for (int i = 0; i < num_internal; ++i) {
    const int arity =
        std::min<int>(static_cast<int>(pool.size()), 1 + rng.next_int(1, 2));
    std::vector<TreeNodeId> kids;
    for (int k = 0; k < arity; ++k) {
      std::size_t pick = rng.next_below(pool.size());
      kids.push_back(pool[pick]);
      pool.erase(pool.begin() + static_cast<long>(pick));
    }
    TreeNodeId gate = rc.tree.add_gate("g" + std::to_string(i), std::move(kids),
                                       rng.next_double() * 2.0);
    rc.internals.push_back(gate);
    pool.push_back(gate);
  }
  rc.root = rc.tree.add_gate("root", pool, 1.0);
  rc.tree.set_root(rc.root, rand_point());

  rc.pcost.resize(rc.tree.size());
  for (std::size_t n = 0; n < rc.tree.size(); ++n) {
    rc.pcost[n].resize(static_cast<std::size_t>(w) * h);
    for (auto& v : rc.pcost[n]) v = rng.next_int(0, 3);
  }
  return rc;
}

struct BruteSolution {
  double cost;
  DelayVec delay;
};

/// Exhaustive evaluation over all placements of the internal nodes (root
/// fixed). Wire cost/delay = Manhattan (equals grid-graph shortest path).
std::vector<BruteSolution> brute_force(const RandomCase& rc,
                                       const EmbeddingGraph& g, int lex) {
  std::vector<BruteSolution> all;
  const std::size_t nv = g.num_vertices();
  std::vector<std::size_t> assign(rc.internals.size(), 0);

  auto vertex_of = [&](TreeNodeId n) -> EmbedVertexId {
    for (std::size_t k = 0; k < rc.internals.size(); ++k)
      if (rc.internals[k] == n)
        return EmbedVertexId(static_cast<EmbedVertexId::value_type>(assign[k]));
    if (n == rc.root) return g.vertex_at(rc.tree.node(n).fixed_loc);
    return g.vertex_at(rc.tree.node(n).fixed_loc);
  };

  // Recursive evaluation: returns (cost, top-lex delay multiset) of subtree.
  auto eval = [&](auto&& self, TreeNodeId n) -> std::pair<double, DelayVec> {
    const FaninTreeNode& node = rc.tree.node(n);
    if (node.is_leaf()) return {0.0, DelayVec::single(node.leaf_arrival)};
    EmbedVertexId me = vertex_of(n);
    Point mp = g.point(me);
    double cost = rc.pcost[n.index()][me.index()];
    DelayVec merged;
    for (TreeNodeId c : node.children) {
      auto [ccost, cdelay] = self(self, c);
      Point cp = g.point(vertex_of(c));
      const double wire = manhattan(cp, mp);
      cost += ccost + wire;
      cdelay.shift(wire);
      merged = merged.merged_with(cdelay, lex);
    }
    merged.shift(node.gate_delay);
    return {cost, merged};
  };

  while (true) {
    auto [cost, delay] = eval(eval, rc.root);
    all.push_back(BruteSolution{cost, delay});
    // Advance the mixed-radix counter.
    std::size_t k = 0;
    while (k < assign.size() && ++assign[k] == nv) assign[k++] = 0;
    if (k == assign.size()) break;
  }
  return all;
}

/// Pareto filter matching the embedder's dominance (cost vs lex delay).
std::vector<BruteSolution> pareto(std::vector<BruteSolution> all) {
  std::sort(all.begin(), all.end(), [](const BruteSolution& a, const BruteSolution& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.delay.lex_compare(b.delay) < 0;
  });
  std::vector<BruteSolution> front;
  for (const auto& s : all) {
    bool dominated = false;
    for (const auto& f : front)
      if (f.cost <= s.cost + 1e-9 && f.delay.lex_compare(s.delay) <= 0) {
        dominated = true;
        break;
      }
    if (!dominated) front.push_back(s);
  }
  return front;
}

class EmbedderVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(EmbedderVsBruteForce, ParetoFrontsMatch2D) {
  Rng rng(1000 + GetParam());
  const int w = 3 + static_cast<int>(rng.next_below(2));
  const int h = 3;
  RandomCase rc = make_case(rng, 1 + static_cast<int>(rng.next_below(3)), w, h);
  EmbeddingGraph g = EmbeddingGraph::make_grid(rc.region, 1.0, 1.0);

  FaninTreeEmbedder e(
      rc.tree, g,
      [&rc](TreeNodeId i, EmbedVertexId j) { return rc.pcost[i.index()][j.index()]; },
      EmbedOptions{});
  e.check_frontiers();
  ASSERT_TRUE(e.run());
  EXPECT_TRUE(e.frontiers_are_antichains());
  auto front = pareto(brute_force(rc, g, 1));

  ASSERT_EQ(e.tradeoff().size(), front.size()) << "Pareto front size mismatch";
  for (std::size_t k = 0; k < front.size(); ++k) {
    EXPECT_NEAR(e.tradeoff()[k].cost, front[k].cost, 1e-9);
    EXPECT_NEAR(e.tradeoff()[k].delay.primary(), front[k].delay.primary(), 1e-9);
  }
}

TEST_P(EmbedderVsBruteForce, ParetoFrontsMatchLex3) {
  Rng rng(9000 + GetParam());
  RandomCase rc = make_case(rng, 1 + static_cast<int>(rng.next_below(2)), 3, 3);
  EmbeddingGraph g = EmbeddingGraph::make_grid(rc.region, 1.0, 1.0);

  EmbedOptions opt;
  opt.lex_order = 3;
  FaninTreeEmbedder e(
      rc.tree, g,
      [&rc](TreeNodeId i, EmbedVertexId j) { return rc.pcost[i.index()][j.index()]; },
      opt);
  e.check_frontiers();
  ASSERT_TRUE(e.run());
  EXPECT_TRUE(e.frontiers_are_antichains());
  auto front = pareto(brute_force(rc, g, 3));

  ASSERT_EQ(e.tradeoff().size(), front.size());
  for (std::size_t k = 0; k < front.size(); ++k) {
    EXPECT_NEAR(e.tradeoff()[k].cost, front[k].cost, 1e-9);
    EXPECT_EQ(e.tradeoff()[k].delay.lex_compare(front[k].delay), 0)
        << "lex delay vector mismatch at front position " << k;
  }
}

TEST_P(EmbedderVsBruteForce, ExtractionIsConsistentWithSignature) {
  // Re-evaluate the extracted placement by hand; its cost/delay must equal
  // the solution signature (the reconstruction invariant).
  Rng rng(5000 + GetParam());
  RandomCase rc = make_case(rng, 1 + static_cast<int>(rng.next_below(3)), 4, 3);
  EmbeddingGraph g = EmbeddingGraph::make_grid(rc.region, 1.0, 1.0);

  FaninTreeEmbedder e(
      rc.tree, g,
      [&rc](TreeNodeId i, EmbedVertexId j) { return rc.pcost[i.index()][j.index()]; },
      EmbedOptions{});
  ASSERT_TRUE(e.run());

  for (std::size_t k = 0; k < e.tradeoff().size(); ++k) {
    auto emb = e.extract(static_cast<int>(k));
    // Recompute delay/cost from the embedding.
    auto eval = [&](auto&& self, TreeNodeId n) -> std::pair<double, double> {
      const FaninTreeNode& node = rc.tree.node(n);
      if (node.is_leaf()) return {0.0, node.leaf_arrival};
      Point mp = g.point(emb.at(n));
      double cost = rc.pcost[n.index()][emb.at(n).index()];
      double arr = 0;
      for (TreeNodeId c : node.children) {
        auto [ccost, carr] = self(self, c);
        Point cp = g.point(emb.at(c));
        cost += ccost + manhattan(cp, mp);
        arr = std::max(arr, carr + manhattan(cp, mp));
      }
      return {cost, arr + node.gate_delay};
    };
    auto [cost, arr] = eval(eval, rc.root);
    // The reconstructed embedding can only be as good or better than the
    // label (wires in the label may route longer than Manhattan only if
    // detours were priced in; on a full grid they never are).
    EXPECT_NEAR(cost, e.tradeoff()[k].cost, 1e-9);
    EXPECT_NEAR(arr, e.tradeoff()[k].delay.primary(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmbedderVsBruteForce, ::testing::Range(0, 12));

// ---- pinned goldens ---------------------------------------------------------
//
// The golden strings below were captured from the embedder as it stood before
// its label store and wavefront loop were rebuilt. Label tie order decides
// which of several equal-signature solutions survives, so these pin the tie
// order too: insertion order, the wavefront's pop order, the order of partial
// joins and the label cap's sampling. Re-capture them only for a deliberate,
// documented change of the algorithm, and from a build of the previous commit.

/// Seeded strongly connected irregular graph: a bidirectional ring through
/// `n` distinct random points plus `n` one-way chords. Costs and delays are
/// small integers, so equal-key labels are common (the delays double as wire
/// lengths for the stem-delay case).
EmbeddingGraph irregular_graph(std::uint64_t seed, int n) {
  Rng rng(seed);
  EmbeddingGraph g;
  std::vector<EmbedVertexId> vs;
  while (static_cast<int>(vs.size()) < n) {
    Point p{rng.next_int(0, 11), rng.next_int(0, 11)};
    if (!g.vertex_at(p).valid()) vs.push_back(g.add_vertex(p));
  }
  for (int k = 0; k < n; ++k)
    g.add_bidi_edge(vs[k], vs[(k + 1) % n], rng.next_int(1, 3), rng.next_int(1, 3));
  for (int k = 0; k < n; ++k) {
    const int to = rng.next_int(0, n - 1);
    if (to != k) g.add_edge(vs[k], vs[to], rng.next_int(1, 3), rng.next_int(1, 3));
  }
  return g;
}

struct GoldenCase {
  EmbeddingGraph graph;
  FaninTree tree;
  std::vector<std::vector<double>> pcost;  // [tree node][vertex]
};

/// A 13-node tree with a 2-child, a 3-child and a 4-child join (the last
/// two keep their child indices in the spill pool), leaves on random graph
/// vertices, and a random placement cost with a few forbidden vertices.
GoldenCase make_golden_case(EmbeddingGraph graph, std::uint64_t seed) {
  GoldenCase gc{std::move(graph), {}, {}};
  Rng rng(seed);
  const std::size_t nv = gc.graph.num_vertices();
  auto rand_point = [&] {
    return gc.graph.point(
        EmbedVertexId(static_cast<EmbedVertexId::value_type>(rng.next_below(nv))));
  };
  auto quarter = [&](int lo, int hi) { return 0.25 * rng.next_int(lo, hi); };
  std::vector<TreeNodeId> l;
  for (int k = 0; k < 8; ++k)
    l.push_back(gc.tree.add_leaf("l" + std::to_string(k), rand_point(), quarter(0, 8),
                                 k % 3 != 2));
  TreeNodeId g0 = gc.tree.add_gate("g0", {l[0], l[1]}, quarter(2, 6));
  TreeNodeId g1 = gc.tree.add_gate("g1", {l[2], l[3], l[4]}, quarter(2, 6));
  TreeNodeId g2 = gc.tree.add_gate("g2", {g0, l[5]}, quarter(2, 6));
  TreeNodeId root = gc.tree.add_gate("root", {g1, g2, l[6], l[7]}, 1.0);
  const Point root_loc = rand_point();
  gc.tree.set_root(root, root_loc);

  gc.pcost.resize(gc.tree.size());
  for (auto& per_vertex : gc.pcost) {
    per_vertex.resize(nv);
    for (std::size_t j = 0; j < nv; ++j) {
      const bool forbidden = rng.next_bool(0.08) &&
                             gc.graph.point(EmbedVertexId(
                                 static_cast<EmbedVertexId::value_type>(j))) != root_loc;
      per_vertex[j] = forbidden ? FaninTreeEmbedder::kForbiddenCost : quarter(0, 16);
    }
  }
  return gc;
}

std::string hex(double d) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", d);
  return buf;
}

std::string render_solution(const FaninTreeEmbedder& e, int k) {
  const RootSolution& rs = e.tradeoff()[k];
  std::string out = hex(rs.cost) + " [";
  for (int d = 0; d < rs.delay.n; ++d) out += (d ? " " : "") + hex(rs.delay.v[d]);
  out += "] @";
  const TreeEmbedding emb = e.extract(k);
  for (EmbedVertexId v : emb.raw()) out += " " + std::to_string(v.value());
  return out;
}

/// Canonical text of one run: labels created, the curve length, an FNV-1a
/// over every trade-off entry's vertex, label index and cost/delay bits, and
/// the cheapest and fastest solutions in hexfloat with their extracted
/// vertex per tree node.
std::string render(const FaninTreeEmbedder& e) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  auto mix_d = [&mix](double d) {
    std::uint64_t b;
    std::memcpy(&b, &d, sizeof b);
    mix(b);
  };
  for (const RootSolution& rs : e.tradeoff()) {
    mix(rs.vertex.value());
    mix(rs.label_index);
    mix_d(rs.cost);
    mix(static_cast<std::uint64_t>(rs.delay.n));
    for (int d = 0; d < rs.delay.n; ++d) mix_d(rs.delay.v[d]);
  }
  char head[96];
  std::snprintf(head, sizeof head, "created %zu curve %zu fnv %016llx", e.labels_created(),
                e.tradeoff().size(), static_cast<unsigned long long>(h));
  return std::string(head) + " | cheapest " + render_solution(e, 0) + " | fastest " +
         render_solution(e, e.pick_fastest());
}

struct GoldenConfig {
  const char* name;
  void (*apply)(EmbedOptions&);
};

const GoldenConfig kGoldenConfigs[] = {
    {"rt", [](EmbedOptions&) {}},
    {"lex3_cap2",
     [](EmbedOptions& o) {
       o.lex_order = 3;
       o.max_labels = 2;
     }},
    {"lex_mc", [](EmbedOptions& o) { o.lex_mc = true; }},
    {"stem_quadratic",
     [](EmbedOptions& o) {
       o.stem_delay = [](int len) { return static_cast<double>(len) * len; };
     }},
    {"overlap_cap2",
     [](EmbedOptions& o) {
       o.overlap_avoidance = true;
       o.branch_capacity = 2;
     }},
    {"relocatable_root",
     [](EmbedOptions& o) {
       o.lex_order = 2;
       o.relocatable_root = true;
     }},
};

// Keyed "<graph>/<config>".
const std::map<std::string, std::string> kEmbedGoldens = {
    {"irregular/rt",
     "created 967 curve 3 fnv 7543ec5db5fe40d1 | "
     "cheapest 0x1.ap+5 [0x1.2p+4] @ 13 15 34 8 17 17 10 26 15 32 32 6 | "
     "fastest 0x1.b4p+5 [0x1.c8p+3] @ 13 15 34 8 17 17 10 26 33 5 32 6"},
    {"irregular/lex3_cap2",
     "created 1090 curve 3 fnv 61e444484541656f | "
     "cheapest 0x1.ap+5 [0x1.2p+4 0x1p+4 0x1.c8p+3] @ 13 15 34 8 17 17 10 26 15 32 32 6 | "
     "fastest 0x1.b4p+5 [0x1.c8p+3 0x1.ap+3 0x1.88p+3] @ 13 15 34 8 17 17 10 26 33 5 32 6"},
    {"irregular/lex_mc",
     "created 1124 curve 6 fnv ea6788896d64c0bc | "
     "cheapest 0x1.ap+5 [0x1.2p+4 0x1.d8p+6] @ 13 15 34 8 17 17 10 26 15 32 32 6 | "
     "fastest 0x1.fcp+5 [0x1.c8p+3 0x1.78p+6] @ 13 15 34 8 17 17 10 26 33 5 33 6"},
    {"irregular/stem_quadratic",
     "created 1425 curve 2 fnv b7e1e9980f503328 | "
     "cheapest 0x1.ap+5 [0x1.9p+6] @ 13 15 34 8 17 17 10 26 15 32 32 6 | "
     "fastest 0x1.aap+5 [0x1.4cp+6] @ 13 15 34 8 17 17 10 26 15 5 32 6"},
    {"irregular/overlap_cap2",
     "created 1106 curve 3 fnv 7543ec5db5fe40d1 | "
     "cheapest 0x1.ap+5 [0x1.2p+4] @ 13 15 34 8 17 17 10 26 15 32 32 6 | "
     "fastest 0x1.b4p+5 [0x1.c8p+3] @ 13 15 34 8 17 17 10 26 33 5 32 6"},
    {"irregular/relocatable_root",
     "created 1337 curve 274 fnv dbdc4914c9d8729e | "
     "cheapest 0x1.2cp+5 [0x1.7p+3 0x1.6p+3] @ 13 15 34 8 17 17 10 26 15 35 15 33 | "
     "fastest 0x1.6cp+5 [0x1.2p+3 0x1.dp+2] @ 13 15 34 8 17 17 10 26 33 33 33 33"},
    {"grid/rt",
     "created 892 curve 1 fnv 328e4b99382990c1 | "
     "cheapest 0x1.0cp+5 [0x1.9p+3] @ 48 49 45 5 37 34 37 43 50 13 50 11 | "
     "fastest 0x1.0cp+5 [0x1.9p+3] @ 48 49 45 5 37 34 37 43 50 13 50 11"},
    {"grid/lex3_cap2",
     "created 949 curve 2 fnv 5110795ec6ab2bca | "
     "cheapest 0x1.0cp+5 [0x1.9p+3 0x1.6p+3 0x1.58p+3] @ 48 49 45 5 37 34 37 43 50 13 50 11 | "
     "fastest 0x1.0ep+5 [0x1.9p+3 0x1.6p+3 0x1.48p+3] @ 48 49 45 5 37 34 37 43 50 13 27 11"},
    {"grid/lex_mc",
     "created 1052 curve 2 fnv a80346a7345bbd74 | "
     "cheapest 0x1.0cp+5 [0x1.9p+3 0x1.23p+6] @ 48 49 45 5 37 34 37 43 50 13 50 11 | "
     "fastest 0x1.1ap+5 [0x1.9p+3 0x1.13p+6] @ 48 49 45 5 37 34 37 43 49 13 50 11"},
    {"grid/stem_quadratic",
     "created 1636 curve 3 fnv 0404688529b9cd3c | "
     "cheapest 0x1.0cp+5 [0x1.64p+5] @ 48 49 45 5 37 34 37 43 50 13 50 11 | "
     "fastest 0x1.1p+5 [0x1.bcp+4] @ 48 49 45 5 37 34 37 43 50 13 35 11"},
    {"grid/overlap_cap2",
     "created 932 curve 1 fnv 328e4b99382990c1 | "
     "cheapest 0x1.0cp+5 [0x1.9p+3] @ 48 49 45 5 37 34 37 43 50 13 50 11 | "
     "fastest 0x1.0cp+5 [0x1.9p+3] @ 48 49 45 5 37 34 37 43 50 13 50 11"},
    {"grid/relocatable_root",
     "created 989 curve 75 fnv 3b0656e6437d226f | "
     "cheapest 0x1.5p+4 [0x1.5p+3 0x1.2p+3] @ 48 49 45 5 37 34 37 43 50 37 50 45 | "
     "fastest 0x1.6cp+4 [0x1.38p+3 0x1.3p+3] @ 48 49 45 5 37 34 37 43 50 37 50 53"},
};

std::string run_golden(const std::string& graph_name, const GoldenConfig& cfg,
                       ThreadPool* pool) {
  GoldenCase gc = graph_name == "grid"
                      ? make_golden_case(
                            EmbeddingGraph::make_grid(Rect{0, 0, 7, 7}, 1.0, 1.0), 41)
                      : make_golden_case(irregular_graph(17, 40), 43);
  EmbedOptions opt;
  cfg.apply(opt);
  opt.pool = pool;
  opt.parallel_min_vertices = 1;
  FaninTreeEmbedder e(
      gc.tree, gc.graph,
      [&gc](TreeNodeId i, EmbedVertexId j) { return gc.pcost[i.index()][j.index()]; },
      opt);
  e.check_frontiers();
  if (!e.run()) return "no solution";
  // The one-walk label insert is exact only if every frontier stays an
  // antichain.
  if (!e.frontiers_are_antichains()) return "frontier invariant broken";
  return render(e);
}

void check_goldens(ThreadPool* pool) {
  for (const char* graph_name : {"irregular", "grid"}) {
    for (const GoldenConfig& cfg : kGoldenConfigs) {
      const std::string key = std::string(graph_name) + "/" + cfg.name;
      const std::string got = run_golden(graph_name, cfg, pool);
      auto it = kEmbedGoldens.find(key);
      if (it == kEmbedGoldens.end()) {
        ADD_FAILURE() << "no golden for {\"" << key << "\", \"" << got << "\"}";
        continue;
      }
      EXPECT_EQ(got, it->second) << key;
    }
  }
}

TEST(EmbedderGoldens, SerialMatchesPinnedOutput) { check_goldens(nullptr); }

TEST(EmbedderGoldens, FourThreadPoolMatchesPinnedOutput) {
  ThreadPool pool(4);
  check_goldens(&pool);
}

// ---- mesh sweep vs GenDijkstra ----------------------------------------------

/// A mesh over region [1, w] x [1, h] with the I/O ring around it, built
/// either by make_grid (which carries the mesh descriptor, so the embedder
/// sweeps) or vertex by vertex (no descriptor, so GenDijkstra runs). Both
/// number the vertices alike.
EmbeddingGraph build_mesh(bool swept, int w, int h, double cost, double delay) {
  const Rect region{1, 1, w, h};
  if (swept) return EmbeddingGraph::make_grid(region, cost, delay);
  EmbeddingGraph g;
  for (int y = 1; y <= h; ++y)
    for (int x = 1; x <= w; ++x) g.add_vertex(Point{x, y});
  for (int y = 1; y <= h; ++y)
    for (int x = 1; x <= w; ++x) {
      const EmbedVertexId u = g.vertex_at(Point{x, y});
      if (x < w) g.add_bidi_edge(u, g.vertex_at(Point{x + 1, y}), cost, delay);
      if (y < h) g.add_bidi_edge(u, g.vertex_at(Point{x, y + 1}), cost, delay);
    }
  return g;
}

/// Splices terminals off the region onto its nearest vertex, as the
/// replication engine does for I/O-ring terminals.
void splice_terminals(EmbeddingGraph& g, const FaninTree& tree, int w, int h,
                      double cost, double delay) {
  for (TreeNodeId t : tree.post_order()) {
    const FaninTreeNode& tn = tree.node(t);
    if (!tn.is_leaf() && t != tree.root()) continue;
    const Point p = tn.fixed_loc;
    if (g.vertex_at(p).valid()) continue;
    const Point q{std::clamp(p.x, 1, w), std::clamp(p.y, 1, h)};
    const int d = manhattan(p, q);
    g.add_bidi_edge(g.add_vertex(p), g.vertex_at(q), cost * d, delay * d);
  }
}

struct MeshCase {
  int w = 0;
  int h = 0;
  double cost = 0;
  double delay = 0;
  FaninTree tree;
  /// Placement cost by tree node and point; forbidden entries are
  /// kForbiddenCost.
  std::map<std::pair<std::size_t, long long>, double> pcost;
};

/// A random tree on a w x h mesh, a quarter of its leaves (and sometimes the
/// root) on the I/O ring, and some forbidden (node, vertex) pairs. Every
/// value is a multiple of 1/4 and small, so all sums are exact in binary
/// floating point and the two wavefronts add up the same numbers.
MeshCase make_mesh_case(Rng& rng) {
  MeshCase mc;
  mc.w = rng.next_int(4, 14);
  mc.h = rng.next_int(4, 14);
  mc.cost = 0.25 * rng.next_int(1, 4);
  mc.delay = 0.25 * rng.next_int(1, 4);
  auto quarter = [&](int lo, int hi) { return 0.25 * rng.next_int(lo, hi); };
  auto inside = [&] { return Point{rng.next_int(1, mc.w), rng.next_int(1, mc.h)}; };
  auto on_ring = [&] {
    const int side = rng.next_int(0, 3);
    if (side < 2) return Point{side == 0 ? 0 : mc.w + 1, rng.next_int(0, mc.h + 1)};
    return Point{rng.next_int(0, mc.w + 1), side == 2 ? 0 : mc.h + 1};
  };
  std::vector<TreeNodeId> pool;
  const int num_internal = rng.next_int(1, 6);
  const int num_leaves = num_internal + 1 + rng.next_int(0, 3);
  for (int k = 0; k < num_leaves; ++k)
    pool.push_back(mc.tree.add_leaf("l" + std::to_string(k),
                                    rng.next_bool(0.25) ? on_ring() : inside(),
                                    quarter(0, 24), true));
  for (int k = 0; k < num_internal; ++k) {
    const int arity = std::min<int>(static_cast<int>(pool.size()), rng.next_int(2, 3));
    std::vector<TreeNodeId> kids;
    for (int c = 0; c < arity; ++c) {
      const std::size_t pick = rng.next_below(pool.size());
      kids.push_back(pool[pick]);
      pool.erase(pool.begin() + static_cast<long>(pick));
    }
    pool.push_back(mc.tree.add_gate("g" + std::to_string(k), std::move(kids), quarter(1, 8)));
  }
  const TreeNodeId root = mc.tree.add_gate("root", pool, 1.0);
  const Point root_loc = rng.next_bool(0.15) ? on_ring() : inside();
  mc.tree.set_root(root, root_loc);
  for (std::size_t n = 0; n < mc.tree.size(); ++n)
    for (int y = 0; y <= mc.h + 1; ++y)
      for (int x = 0; x <= mc.w + 1; ++x) {
        const Point p{x, y};
        const bool forbidden = rng.next_bool(0.1) && p != root_loc;
        mc.pcost[{n, (static_cast<long long>(y) << 32) | x}] =
            forbidden ? FaninTreeEmbedder::kForbiddenCost : quarter(0, 12);
      }
  return mc;
}

/// The root curve as exact (cost, delay vector) bits.
std::vector<std::string> curve_bits(const FaninTreeEmbedder& e) {
  std::vector<std::string> out;
  for (const RootSolution& rs : e.tradeoff()) {
    std::string s = hex(rs.cost);
    for (int d = 0; d < rs.delay.n; ++d) s += " " + hex(rs.delay.v[d]);
    out.push_back(s);
  }
  return out;
}

/// Graph distance in wire units between every pair of vertices (BFS over
/// edge lengths; the case's edges all cost a multiple of its per-unit cost).
std::vector<std::vector<int>> wire_lengths(const EmbeddingGraph& g, double cost) {
  const std::size_t nv = g.num_vertices();
  std::vector<std::vector<int>> dist(nv, std::vector<int>(nv, -1));
  for (std::size_t s = 0; s < nv; ++s) {
    std::vector<int>& d = dist[s];
    using Item = std::pair<int, std::size_t>;
    std::vector<Item> heap{{0, s}};
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const auto [du, u] = heap.back();
      heap.pop_back();
      if (d[u] >= 0) continue;
      d[u] = du;
      for (const auto& e : g.edges_from(EmbedVertexId(static_cast<EmbedVertexId::value_type>(u))))
        if (d[e.to.index()] < 0) {
          heap.push_back({du + static_cast<int>(e.cost / cost + 0.5), e.to.index()});
          std::push_heap(heap.begin(), heap.end(), std::greater<>());
        }
    }
  }
  return dist;
}

struct SweepRun {
  std::vector<std::string> curve;
  std::size_t created = 0;
};

/// Runs one case; with `len` (wire_lengths of g) it also re-evaluates every
/// extracted solution.
SweepRun run_mesh_case(const MeshCase& mc, const EmbeddingGraph& g, int lex,
                       const std::vector<std::vector<int>>* len = nullptr) {
  auto pcost = [&](TreeNodeId i, EmbedVertexId j) {
    const Point p = g.point(j);
    return mc.pcost.at({i.index(), (static_cast<long long>(p.y) << 32) | p.x});
  };
  EmbedOptions opt;
  opt.lex_order = lex;
  FaninTreeEmbedder e(mc.tree, g, pcost, opt);
  SweepRun out;
  e.check_frontiers();
  if (!e.run()) return out;
  EXPECT_TRUE(e.frontiers_are_antichains());
  out.curve = curve_bits(e);
  out.created = e.labels_created();
  if (!len) return out;

  // Every extracted solution re-evaluates to its signature.
  for (std::size_t k = 0; k < e.tradeoff().size(); ++k) {
    const TreeEmbedding emb = e.extract(static_cast<int>(k));
    auto eval = [&](auto&& self, TreeNodeId n) -> std::pair<double, DelayVec> {
      const FaninTreeNode& node = mc.tree.node(n);
      if (node.is_leaf()) return {0.0, DelayVec::single(node.leaf_arrival)};
      const EmbedVertexId me = emb.at(n);
      double cost = pcost(n, me);
      DelayVec merged;
      for (TreeNodeId c : node.children) {
        auto [ccost, cdelay] = self(self, c);
        const int d = (*len)[emb.at(c).index()][me.index()];
        cost += ccost + mc.cost * d;
        cdelay.shift(mc.delay * d);
        merged = merged.merged_with(cdelay, lex);
      }
      merged.shift(node.gate_delay);
      return {cost, merged};
    };
    const auto [cost, delay] = eval(eval, mc.tree.root());
    EXPECT_EQ(cost, e.tradeoff()[k].cost) << "solution " << k;
    EXPECT_EQ(delay.lex_compare(e.tradeoff()[k].delay), 0) << "solution " << k;
  }
  return out;
}

class SweepVsGenDijkstra : public ::testing::TestWithParam<int> {};

TEST_P(SweepVsGenDijkstra, RootCurvesBitIdentical) {
  Rng rng(7000 + GetParam());
  const MeshCase mc = make_mesh_case(rng);
  EmbeddingGraph swept = build_mesh(true, mc.w, mc.h, mc.cost, mc.delay);
  EmbeddingGraph heap = build_mesh(false, mc.w, mc.h, mc.cost, mc.delay);
  ASSERT_NE(swept.mesh(), nullptr);
  ASSERT_EQ(heap.mesh(), nullptr);
  splice_terminals(swept, mc.tree, mc.w, mc.h, mc.cost, mc.delay);
  splice_terminals(heap, mc.tree, mc.w, mc.h, mc.cost, mc.delay);
  ASSERT_NE(swept.mesh(), nullptr) << "splicing terminals keeps the mesh";
  const auto len = wire_lengths(swept, mc.cost);
  for (int lex = 1; lex <= 5; ++lex) {
    SCOPED_TRACE("lex " + std::to_string(lex));
    const SweepRun s = run_mesh_case(mc, swept, lex, &len);
    const SweepRun d = run_mesh_case(mc, heap, lex);
    ASSERT_FALSE(d.curve.empty());
    EXPECT_EQ(s.curve, d.curve);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SweepVsGenDijkstra, ::testing::Range(0, 120));

TEST(SweepVsGenDijkstra, EdgeAddedAfterMakeGridFallsBackToGenDijkstra) {
  // A shortcut between two mesh vertices breaks the Manhattan distances the
  // sweep relies on; the graph must drop its mesh descriptor.
  Rng rng(7999);
  const MeshCase mc = make_mesh_case(rng);
  EmbeddingGraph swept = build_mesh(true, mc.w, mc.h, mc.cost, mc.delay);
  EmbeddingGraph heap = build_mesh(false, mc.w, mc.h, mc.cost, mc.delay);
  for (EmbeddingGraph* g : {&swept, &heap})
    g->add_bidi_edge(g->vertex_at(Point{1, 1}), g->vertex_at(Point{mc.w, mc.h}),
                     mc.cost, mc.delay);
  EXPECT_EQ(swept.mesh(), nullptr);
  splice_terminals(swept, mc.tree, mc.w, mc.h, mc.cost, mc.delay);
  splice_terminals(heap, mc.tree, mc.w, mc.h, mc.cost, mc.delay);
  for (int lex : {1, 3}) {
    const SweepRun s = run_mesh_case(mc, swept, lex);
    const SweepRun d = run_mesh_case(mc, heap, lex);
    ASSERT_FALSE(d.curve.empty());
    EXPECT_EQ(s.curve, d.curve);
    EXPECT_EQ(s.created, d.created);
  }
}

TEST(SweepVsGenDijkstra, TerminalOnTwoMeshVerticesFallsBackToGenDijkstra) {
  // A spliced vertex with edges to two mesh vertices is a shortcut through
  // the ring, so the embedder keeps GenDijkstra on this graph.
  Rng rng(8999);
  const MeshCase mc = make_mesh_case(rng);
  EmbeddingGraph swept = build_mesh(true, mc.w, mc.h, mc.cost, mc.delay);
  EmbeddingGraph heap = build_mesh(false, mc.w, mc.h, mc.cost, mc.delay);
  for (EmbeddingGraph* g : {&swept, &heap}) {
    const EmbedVertexId hub = g->add_vertex(Point{0, 0});
    g->add_bidi_edge(hub, g->vertex_at(Point{1, 1}), mc.cost, mc.delay);
    g->add_bidi_edge(hub, g->vertex_at(Point{mc.w, mc.h}), mc.cost, mc.delay);
    splice_terminals(*g, mc.tree, mc.w, mc.h, mc.cost, mc.delay);
  }
  for (int lex : {1, 3}) {
    const SweepRun s = run_mesh_case(mc, swept, lex);
    const SweepRun d = run_mesh_case(mc, heap, lex);
    ASSERT_FALSE(d.curve.empty());
    EXPECT_EQ(s.curve, d.curve);
    EXPECT_EQ(s.created, d.created);
  }
}

TEST(SweepVsGenDijkstra, TerminalWithTwoEdgesToItsAnchorKeepsStoredLeaves) {
  // Two edges between a spliced terminal and its anchor can leave two labels
  // of its leaf at one vertex, which the implicit leaves' one label per
  // vertex does not give. Such a graph keeps the sweep, over stored leaves.
  const int w = 6;
  const int h = 6;
  FaninTree tree;
  const TreeNodeId l0 = tree.add_leaf("l0", Point{0, 0}, 0.0, true);
  const TreeNodeId l1 = tree.add_leaf("l1", Point{3, 5}, 1.5, true);
  const TreeNodeId l2 = tree.add_leaf("l2", Point{6, 2}, 0.75, true);
  const TreeNodeId l3 = tree.add_leaf("l3", Point{0, 4}, 2.0, true);
  const TreeNodeId g0 = tree.add_gate("g0", {l0, l1}, 1.0);
  const TreeNodeId root = tree.add_gate("root", {g0, l2, l3}, 1.0);
  tree.set_root(root, Point{4, 4});
  EmbeddingGraph swept = build_mesh(true, w, h, 0.5, 0.25);
  EmbeddingGraph heap = build_mesh(false, w, h, 0.5, 0.25);
  for (EmbeddingGraph* g : {&swept, &heap}) {
    const EmbedVertexId hub = g->add_vertex(Point{0, 0});
    const EmbedVertexId anchor = g->vertex_at(Point{1, 1});
    g->add_bidi_edge(hub, anchor, 1.0, 1.0);  // cheap and slow
    g->add_bidi_edge(hub, anchor, 2.0, 0.25);  // costly and fast
    splice_terminals(*g, tree, w, h, 0.5, 0.25);
  }
  ASSERT_NE(swept.mesh(), nullptr);
  auto pcost = [&swept](TreeNodeId i, EmbedVertexId j) {
    const Point p = swept.point(j);
    return 0.25 * ((p.x + 2 * p.y + static_cast<int>(i.index())) % 5);
  };
  for (int lex : {1, 3}) {
    EmbedOptions opt;
    opt.lex_order = lex;
    FaninTreeEmbedder s(tree, swept, pcost, opt);
    FaninTreeEmbedder d(tree, heap, pcost, opt);
    s.check_frontiers();
    ASSERT_TRUE(s.run());
    ASSERT_TRUE(d.run());
    EXPECT_TRUE(s.frontiers_are_antichains());
    EXPECT_EQ(curve_bits(s), curve_bits(d));
    EXPECT_EQ(s.labels_created(), d.labels_created());
    EXPECT_GT(s.counters().sweep_merges, 0u);
    EXPECT_EQ(s.counters().implicit_leaves, 0u);
    EXPECT_EQ(d.counters().sweep_merges, 0u);
    for (std::size_t k = 0; k < s.tradeoff().size(); ++k)
      EXPECT_EQ(s.extract(static_cast<int>(k)).raw(), d.extract(static_cast<int>(k)).raw());
  }
}

// ---- every extraction, pinned ---------------------------------------------------
//
// Compaction at the parent's freeze cuts each frozen child to the labels its
// parent's live labels reach and rewrites the label indices extraction
// follows (docs/ALGORITHMS.md §1). These digests cover the extraction of
// every trade-off entry over many seeds: on GenDijkstra graphs, with and
// without the label cap (the cap kills labels that were already expanded,
// so augment chains run through dead labels), and on the mesh sweep. They
// were captured from the embedder as it stood before compaction.

/// FNV-1a over every trade-off entry's vertex, label index and cost/delay
/// bits, and the vertex of every tree node in its extracted embedding.
void mix_extractions(const FaninTreeEmbedder& e, std::uint64_t& h) {
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  auto mix_d = [&mix](double d) {
    std::uint64_t b;
    std::memcpy(&b, &d, sizeof b);
    mix(b);
  };
  for (std::size_t k = 0; k < e.tradeoff().size(); ++k) {
    const RootSolution& rs = e.tradeoff()[k];
    mix(rs.vertex.value());
    mix(rs.label_index);
    mix_d(rs.cost);
    for (int d = 0; d < rs.delay.n; ++d) mix_d(rs.delay.v[d]);
    const TreeEmbedding emb = e.extract(static_cast<int>(k));
    for (EmbedVertexId v : emb.raw()) mix(v.value());
  }
}

TEST(ExtractionDigest, EveryTradeoffEntryOnGenDijkstraGraphs) {
  struct Pinned {
    const char* config;
    void (*apply)(EmbedOptions&);
    std::uint64_t digest;
  };
  const Pinned pinned[] = {
      {"rt", [](EmbedOptions&) {}, 0x5d57bba43d5deaa6ull},
      {"lex3", [](EmbedOptions& o) { o.lex_order = 3; }, 0xd964f749b78dc872ull},
      {"lex3_cap1",
       [](EmbedOptions& o) {
         o.lex_order = 3;
         o.max_labels = 1;
       },
       0x164c3a5c3c7db15dull},
      {"lex3_cap2",
       [](EmbedOptions& o) {
         o.lex_order = 3;
         o.max_labels = 2;
       },
       0xaebe1be2d7ccb85ull},
      {"lex_mc_cap2",
       [](EmbedOptions& o) {
         o.lex_mc = true;
         o.max_labels = 2;
       },
       0xb9088c29ecbabcccull},
      {"stem_quadratic_cap2",
       [](EmbedOptions& o) {
         o.stem_delay = [](int len) { return static_cast<double>(len) * len; };
         o.max_labels = 2;
       },
       0x88ac523f3413dba2ull},
      {"overlap_cap2",
       [](EmbedOptions& o) {
         o.overlap_avoidance = true;
         o.branch_capacity = 2;
         o.max_labels = 2;
       },
       0x254fe3d0b77a1d13ull},
  };
  for (const Pinned& p : pinned) {
    std::uint64_t h = 1469598103934665603ull;
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
      // Seed 19 (60 vertices) has a dead join two dead hops up an augment
      // chain under stem delay and the cap.
      const int vertices = 20 + static_cast<int>(seed % 5) * 10;
      GoldenCase gc = make_golden_case(irregular_graph(100 + seed, vertices), 200 + seed);
      EmbedOptions opt;
      p.apply(opt);
      FaninTreeEmbedder e(
          gc.tree, gc.graph,
          [&gc](TreeNodeId i, EmbedVertexId j) { return gc.pcost[i.index()][j.index()]; },
          opt);
      if (e.run()) mix_extractions(e, h);
    }
    EXPECT_EQ(h, p.digest) << p.config << " digest 0x" << std::hex << h;
  }
}

TEST(ExtractionDigest, EveryTradeoffEntryOnTheMeshSweep) {
  struct Pinned {
    int lex;
    int max_labels;
    std::uint64_t digest;
  };
  const Pinned pinned[] = {{1, 0, 0xcfe68c7f998ba737ull},
                            {3, 0, 0x49c2b9ead5f95172ull},
                            {3, 2, 0x9cd904ed09b2baadull}};
  for (const Pinned& p : pinned) {
    std::uint64_t h = 1469598103934665603ull;
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
      Rng rng(300 + seed);
      const MeshCase mc = make_mesh_case(rng);
      EmbeddingGraph g = build_mesh(true, mc.w, mc.h, mc.cost, mc.delay);
      splice_terminals(g, mc.tree, mc.w, mc.h, mc.cost, mc.delay);
      auto pcost = [&](TreeNodeId i, EmbedVertexId j) {
        const Point pt = g.point(j);
        return mc.pcost.at({i.index(), (static_cast<long long>(pt.y) << 32) | pt.x});
      };
      EmbedOptions opt;
      opt.lex_order = p.lex;
      opt.max_labels = p.max_labels;
      FaninTreeEmbedder e(mc.tree, g, pcost, opt);
      if (e.run()) mix_extractions(e, h);
    }
    EXPECT_EQ(h, p.digest) << "lex " << p.lex << " max_labels " << p.max_labels
                           << " digest 0x" << std::hex << h;
  }
}

// ---- embedder work counters ---------------------------------------------------

/// The work counters of one ring-spliced mesh case, serial or with every
/// join chunked on `pool`.
std::string mesh_case_counters(std::uint64_t seed, int lex, int max_labels, ThreadPool* pool) {
  Rng rng(seed);
  const MeshCase mc = make_mesh_case(rng);
  EmbeddingGraph g = build_mesh(true, mc.w, mc.h, mc.cost, mc.delay);
  splice_terminals(g, mc.tree, mc.w, mc.h, mc.cost, mc.delay);
  auto pcost = [&](TreeNodeId i, EmbedVertexId j) {
    const Point p = g.point(j);
    return mc.pcost.at({i.index(), (static_cast<long long>(p.y) << 32) | p.x});
  };
  EmbedOptions opt;
  opt.lex_order = lex;
  opt.max_labels = max_labels;
  opt.pool = pool;
  opt.parallel_min_vertices = 1;
  FaninTreeEmbedder e(mc.tree, g, pcost, opt);
  e.check_frontiers();
  if (!e.run()) return "no solution";
  if (!e.frontiers_are_antichains()) return "frontier invariant broken";
  const EmbedCounters& c = e.counters();
  char buf[240];
  std::snprintf(buf, sizeof buf,
                "leaves %llu candidates %llu skipped %llu compares %llu merges %llu "
                "unchanged %llu created %zu compacted %llu",
                static_cast<unsigned long long>(c.implicit_leaves),
                static_cast<unsigned long long>(c.join_candidates),
                static_cast<unsigned long long>(c.join_skipped),
                static_cast<unsigned long long>(c.partial_compares),
                static_cast<unsigned long long>(c.sweep_merges),
                static_cast<unsigned long long>(c.sweep_merges_unchanged), e.labels_created(),
                static_cast<unsigned long long>(c.labels_compacted));
  return buf;
}

TEST(EmbedderCounters, PinnedOnAMeshCase) {
  // The counters measure work, not output (the goldens above pin that), and
  // are the same for every thread count. A change here is a change in how
  // much work the embedder does on this case, or in how many labels the
  // freezes compact away.
  struct Pinned {
    std::uint64_t seed;
    int lex;
    int max_labels;
    const char* counters;
  };
  const Pinned pinned[] = {
      {7053, 1, 0,
       "leaves 10 candidates 2289 skipped 69 compares 755 merges 2431 unchanged 1177 "
       "created 3740 compacted 2308"},
      {7053, 3, 0,
       "leaves 10 candidates 4231 skipped 488 compares 3118 merges 2431 unchanged 1138 "
       "created 5627 compacted 3514"},
      {7053, 3, 2,
       "leaves 10 candidates 2914 skipped 191 compares 1410 merges 2431 unchanged 1028 "
       "created 3644 compacted 1905"},
      // Here a staircase with more than 2·max_labels entries takes no
      // shifted entry, and the merge must still cap it.
      {4, 3, 2,
       "leaves 7 candidates 1395 skipped 3 compares 402 merges 1370 unchanged 796 "
       "created 1796 compacted 909"},
  };
  ThreadPool pool(4);
  for (const Pinned& p : pinned) {
    SCOPED_TRACE("seed " + std::to_string(p.seed) + " lex " + std::to_string(p.lex) +
                 " max_labels " + std::to_string(p.max_labels));
    EXPECT_EQ(mesh_case_counters(p.seed, p.lex, p.max_labels, nullptr), p.counters);
    EXPECT_EQ(mesh_case_counters(p.seed, p.lex, p.max_labels, &pool), p.counters);
  }
}

}  // namespace
}  // namespace repro
