// Parallel embedder join (docs/ALGORITHMS.md §11).
//
// The hard guarantee under test: the optimization trajectory is BIT-IDENTICAL
// for every thread count. num_threads=1 must reproduce the serial engine
// exactly (hard-coded hexfloat goldens below were captured from the serial
// engine before the thread pool existed), and any other thread count must
// reproduce the num_threads=1 run — the chunked join merges its results in
// vertex order, so the pool size never reaches the output.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <vector>

#include "embed/embedder.h"
#include "embed/embedding_graph.h"
#include "embed/fanin_tree.h"
#include "gen/circuit_gen.h"
#include "netlist/sim.h"
#include "place/annealer.h"
#include "replicate/engine.h"
#include "timing/timing_graph.h"
#include "util/thread_pool.h"

namespace repro {
namespace {

// ---- thread pool unit tests -------------------------------------------------

TEST(ThreadPool, SubmitReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  EXPECT_EQ(pool.num_workers(), 3u);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 32; ++i) futs.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futs[i].get(), i * i);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_workers(), 0u);
  auto fut = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  for (unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(hits.size(), 7,
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
  }
}

TEST(ThreadPool, ParallelForInsidePoolTaskDoesNotDeadlock) {
  // A parallel_for issued from inside a task of the same pool must complete
  // even when every worker is busy: the caller participates in its own
  // chunk loop.
  ThreadPool pool(2);
  std::vector<std::future<long>> futs;
  for (int t = 0; t < 4; ++t) {
    futs.push_back(pool.submit([&pool] {
      std::atomic<long> sum{0};
      pool.parallel_for(100, 3, [&](std::size_t i) {
        sum.fetch_add(static_cast<long>(i));
      });
      return sum.load();
    }));
  }
  for (auto& f : futs) EXPECT_EQ(f.get(), 100L * 99 / 2);
}

// ---- embedder DP-level parallelism ------------------------------------------

/// A reconvergent 7-node tree over a 12x12 grid, with a placement cost that
/// varies per vertex so the tradeoff curve is nontrivial.
struct DpFixture {
  EmbeddingGraph graph =
      EmbeddingGraph::make_grid(Rect{0, 0, 11, 11}, 1.0, 1.0);
  FaninTree tree;

  DpFixture() {
    TreeNodeId a = tree.add_leaf("a", {0, 0}, 0.3, true);
    TreeNodeId b = tree.add_leaf("b", {11, 0}, 0.1, true);
    TreeNodeId c = tree.add_leaf("c", {0, 11}, 0.2, true);
    TreeNodeId d = tree.add_leaf("d", {5, 5}, 0.0, false);
    TreeNodeId g1 = tree.add_gate("g1", {a, b}, 1.0);
    TreeNodeId g2 = tree.add_gate("g2", {c, d}, 1.0);
    TreeNodeId g3 = tree.add_gate("g3", {g1, g2, d}, 1.0);
    tree.set_root(g3, {11, 11});
  }

  static double pcost(const EmbeddingGraph& g, TreeNodeId i, EmbedVertexId j) {
    Point p = g.point(j);
    return 0.25 * ((p.x * 7 + p.y * 13 + i.index() * 3) % 11);
  }
};

TEST(ParallelEmbedder, JoinColumnsBitIdenticalForAnyPoolSize) {
  DpFixture fx;
  auto pc = [&](TreeNodeId i, EmbedVertexId j) {
    return DpFixture::pcost(fx.graph, i, j);
  };

  EmbedOptions serial;
  serial.lex_order = 3;
  FaninTreeEmbedder se(fx.tree, fx.graph, pc, serial);
  ASSERT_TRUE(se.run());

  for (unsigned threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    EmbedOptions par = serial;
    par.pool = &pool;
    par.parallel_min_vertices = 1;  // force the chunked path on this grid
    FaninTreeEmbedder pe(fx.tree, fx.graph, pc, par);
    ASSERT_TRUE(pe.run());

    ASSERT_EQ(se.tradeoff().size(), pe.tradeoff().size()) << threads;
    for (std::size_t k = 0; k < se.tradeoff().size(); ++k) {
      const RootSolution& x = se.tradeoff()[k];
      const RootSolution& y = pe.tradeoff()[k];
      EXPECT_EQ(x.vertex, y.vertex);
      EXPECT_EQ(x.label_index, y.label_index);  // same table layout, not just
                                                // same values
      EXPECT_EQ(x.cost, y.cost);                // bitwise
      EXPECT_EQ(x.delay.lex_compare(y.delay), 0);
    }
    EXPECT_EQ(se.labels_created(), pe.labels_created());
    // Extraction walks provenance (including rebased spill indices).
    auto es = se.extract(0);
    auto ep = pe.extract(0);
    ASSERT_EQ(es.size(), ep.size());
    EXPECT_TRUE(es == ep);
  }
}

TEST(ParallelEmbedder, ScratchReuseAcrossRunsIsClean) {
  DpFixture fx;
  auto pc = [&](TreeNodeId i, EmbedVertexId j) {
    return DpFixture::pcost(fx.graph, i, j);
  };
  EmbedOptions eo;
  eo.lex_order = 2;
  EmbedScratch scratch;
  std::vector<double> first;
  for (int round = 0; round < 3; ++round) {
    FaninTreeEmbedder e(fx.tree, fx.graph, pc, eo, &scratch);
    ASSERT_TRUE(e.run());
    std::vector<double> costs;
    for (const RootSolution& rs : e.tradeoff()) costs.push_back(rs.cost);
    if (round == 0)
      first = costs;
    else
      EXPECT_EQ(costs, first) << "round " << round;
  }
}

// ---- engine trajectory determinism ------------------------------------------

struct ParallelHarness {
  Netlist nl;
  FpgaGrid grid;
  LinearDelayModel dm;  // must precede pl: the annealer reads it
  Placement pl;
  Netlist golden;

  static Netlist make(std::uint64_t seed) {
    CircuitSpec spec;
    spec.num_logic = 120;
    spec.num_inputs = 10;
    spec.num_outputs = 10;
    spec.registered_fraction = 0.25;
    spec.depth = 8;
    spec.seed = seed;
    return generate_circuit(spec);
  }

  explicit ParallelHarness(std::uint64_t seed, int slack = 12)
      : nl(make(seed)),
        grid(FpgaGrid::min_grid_for(nl.num_logic() + slack,
                                    nl.num_input_pads() + nl.num_output_pads())),
        pl([&] {
          AnnealerOptions opt;
          opt.inner_num = 0.5;
          opt.seed = seed;
          return anneal_placement(nl, grid, dm, opt);
        }()),
        golden(nl) {}
};

EngineResult run_at(ParallelHarness& h, int threads, int max_iterations = 40) {
  EngineOptions opt;
  opt.variant = EmbedVariant::kLex3;
  opt.max_iterations = max_iterations;
  opt.num_threads = threads;
  return run_replication_engine(h.nl, h.pl, h.dm, opt);
}

void expect_identical_runs(const ParallelHarness& a, const EngineResult& ra,
                           const ParallelHarness& b, const EngineResult& rb,
                           const char* what) {
  SCOPED_TRACE(what);
  // Scalar results, bitwise.
  EXPECT_EQ(ra.final_critical, rb.final_critical);
  EXPECT_EQ(ra.final_wirelength, rb.final_wirelength);
  EXPECT_EQ(ra.final_blocks, rb.final_blocks);
  EXPECT_EQ(ra.total_replicated, rb.total_replicated);
  EXPECT_EQ(ra.total_unified, rb.total_unified);
  EXPECT_EQ(ra.ran_out_of_slots, rb.ran_out_of_slots);
  EXPECT_EQ(ra.reached_lower_bound, rb.reached_lower_bound);
  // Full per-iteration history: the engines walked the same trajectory, not
  // just arrived at the same endpoint.
  ASSERT_EQ(ra.history.size(), rb.history.size());
  for (std::size_t i = 0; i < ra.history.size(); ++i) {
    const IterationStats& x = ra.history[i];
    const IterationStats& y = rb.history[i];
    EXPECT_EQ(x.critical_delay, y.critical_delay) << "iter " << i;
    EXPECT_EQ(x.epsilon, y.epsilon) << "iter " << i;
    EXPECT_EQ(x.tree_internal, y.tree_internal) << "iter " << i;
    EXPECT_EQ(x.replicated_cum, y.replicated_cum) << "iter " << i;
    EXPECT_EQ(x.unified_cum, y.unified_cum) << "iter " << i;
    EXPECT_EQ(x.improved, y.improved) << "iter " << i;
    EXPECT_EQ(x.ff_relocation, y.ff_relocation) << "iter " << i;
  }
  // Final netlist/placement state.
  ASSERT_EQ(a.nl.num_live_cells(), b.nl.num_live_cells());
  for (CellId c : a.nl.live_cells()) {
    ASSERT_TRUE(b.nl.cell_alive(c));
    EXPECT_EQ(a.nl.cell(c).name, b.nl.cell(c).name);
    EXPECT_EQ(a.pl.location(c), b.pl.location(c));
  }
  // Same critical path node sequence.
  TimingGraph ta(a.nl, a.pl, a.dm);
  TimingGraph tb(b.nl, b.pl, b.dm);
  EXPECT_EQ(ta.critical_delay(), tb.critical_delay());
  EXPECT_EQ(ta.critical_path(), tb.critical_path());
}

TEST(ParallelEngine, SerialMatchesPrePrGoldens) {
  // Hexfloat trajectories captured from the serial engine BEFORE the thread
  // pool existed (same toolchain and flags). Any drift here means a refactor
  // changed the serial algorithm.
  struct Golden {
    std::uint64_t seed;
    double final_critical;
    double final_wirelength;
    std::size_t final_blocks;
    std::size_t iters;
    int replicated;
    int unified;
  };
  const Golden goldens[] = {
      {21, 0x1.7666666666666p+5, 0x1.11eec710cb296p+10, 150, 40, 13, 3},
      {22, 0x1.2e66666666666p+5, 0x1.efb03e425aee7p+9, 145, 40, 13, 8},
      {23, 0x1.d666666666666p+5, 0x1.e4436113404e8p+9, 146, 40, 11, 5},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(g.seed);
    ParallelHarness h(g.seed);
    EngineResult r = run_at(h, /*threads=*/1);
    EXPECT_EQ(r.final_critical, g.final_critical);
    EXPECT_EQ(r.final_wirelength, g.final_wirelength);
    EXPECT_EQ(r.final_blocks, g.final_blocks);
    EXPECT_EQ(r.history.size(), g.iters);
    EXPECT_EQ(r.total_replicated, g.replicated);
    EXPECT_EQ(r.total_unified, g.unified);
    EXPECT_EQ(r.num_threads_used, 1);
  }
}

TEST(ParallelEngine, TrajectoryIdenticalAcrossThreadCounts) {
  ParallelHarness base(22);
  EngineResult rbase = run_at(base, /*threads=*/1);
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE(threads);
    ParallelHarness h(22);
    EngineResult r = run_at(h, threads);
    expect_identical_runs(base, rbase, h, r, "threads vs serial");
    EXPECT_EQ(r.num_threads_used, threads);
    // Function and legality preserved under concurrency.
    EXPECT_TRUE(h.pl.legal()) << h.pl.check_legal();
    EXPECT_TRUE(h.nl.validate().empty()) << h.nl.validate();
    EXPECT_TRUE(functionally_equivalent(h.golden, h.nl, 64, 1234));
  }
}

TEST(ParallelEngine, RollbackAtFourThreadsMatchesSerialOracle) {
  // Dense fixture: almost no spare slots, so legalization fails and the
  // engine exercises the rollback path, which must restore bit-exact state
  // with the parallel join running. The serial run is the oracle.
  ParallelHarness base(31, /*slack=*/0);
  EngineResult rbase = run_at(base, /*threads=*/1, /*max_iterations=*/30);
  ASSERT_TRUE(rbase.ran_out_of_slots);  // the fixture reaches the rollback
  for (int threads : {4}) {
    SCOPED_TRACE(threads);
    ParallelHarness h(31, /*slack=*/0);
    EngineResult r = run_at(h, threads, /*max_iterations=*/30);
    expect_identical_runs(base, rbase, h, r, "dense fixture");
    EXPECT_TRUE(h.pl.legal()) << h.pl.check_legal();
    EXPECT_TRUE(functionally_equivalent(h.golden, h.nl, 64, 99));
  }
}

}  // namespace
}  // namespace repro
