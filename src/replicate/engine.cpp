#include "replicate/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "embed/embedder.h"
#include "embed/embedding_graph.h"
#include "replicate/extraction.h"
#include "replicate/replication_tree.h"
#include "timing/monotone.h"
#include "timing/spt.h"
#include "timing/timing_engine.h"
#include "timing/timing_graph.h"
#include "util/log.h"
#include "util/thread_pool.h"

namespace repro {

const char* variant_name(EmbedVariant v) {
  switch (v) {
    case EmbedVariant::kRtEmbedding:
      return "RT-Embedding";
    case EmbedVariant::kLex2:
      return "Lex-2";
    case EmbedVariant::kLex3:
      return "Lex-3";
    case EmbedVariant::kLex4:
      return "Lex-4";
    case EmbedVariant::kLex5:
      return "Lex-5";
    case EmbedVariant::kLexMc:
      return "Lex-mc";
  }
  return "?";
}

namespace {

EmbedOptions embed_options_for(const EngineOptions& opt) {
  EmbedOptions eo;
  switch (opt.variant) {
    case EmbedVariant::kRtEmbedding:
      eo.lex_order = 1;
      break;
    case EmbedVariant::kLex2:
      eo.lex_order = 2;
      break;
    case EmbedVariant::kLex3:
      eo.lex_order = 3;
      break;
    case EmbedVariant::kLex4:
      eo.lex_order = 4;
      break;
    case EmbedVariant::kLex5:
      eo.lex_order = 5;
      break;
    case EmbedVariant::kLexMc:
      eo.lex_mc = true;
      break;
  }
  eo.max_labels = opt.max_labels;
  return eo;
}

struct Snapshot {
  std::unique_ptr<Netlist> nl;
  std::unique_ptr<Placement> pl;
  double crit = 0;

  void take(const Netlist& src_nl, const Placement& src_pl, double c) {
    nl = std::make_unique<Netlist>(src_nl);
    pl = std::make_unique<Placement>(src_pl.with_netlist(*nl));
    crit = c;
  }
};

/// Where one engine iteration looks: the critical sink, the SPT widening,
/// and the knobs the bookkeeping escalates on repeated failure.
struct IterationParams {
  TimingNodeId sink;
  CellId sink_cell;
  double epsilon = 0;
  bool ff_relocation = false;
  double repl_cost_mult = 1.0;
};

/// Dense CellId-indexed replacement for the engine's old
/// unordered_map<CellId, double> of parked sinks: NaN marks "not parked",
/// and the array grows on demand (replication keeps extending the id space).
struct StuckSinks {
  std::vector<double> arrival;

  bool contains(CellId c) const {
    return static_cast<std::size_t>(c.index()) < arrival.size() &&
           !std::isnan(arrival[c.index()]);
  }
  double at(CellId c) const { return arrival[c.index()]; }
  void erase(CellId c) {
    if (static_cast<std::size_t>(c.index()) < arrival.size())
      arrival[c.index()] = std::numeric_limits<double>::quiet_NaN();
  }
  void set(CellId c, double v) {
    if (static_cast<std::size_t>(c.index()) >= arrival.size())
      arrival.resize(c.index() + 1, std::numeric_limits<double>::quiet_NaN());
    arrival[c.index()] = v;
  }
};

/// Everything one iteration's read-only pipeline produces. Status mirrors
/// the engine's early-out ladder, which the main loop turns into its
/// bookkeeping transitions.
struct IterationOutcome {
  enum class Status { kEmptyTree, kTreeTooBig, kNoSolution, kSolution };
  Status status = Status::kEmptyTree;
  std::size_t tree_internal = 0;
  ReplicationTree rt;
  EmbeddingGraph graph;
  TreeEmbedding embedding;
  double picked_primary = 0;
  double picked_cost = 0;
  double fastest_primary = 0;
  std::size_t curve_size = 0;
  /// The max_region_points guard shrank this iteration's embedding region.
  bool region_truncated = false;
};

/// The read-only half of one engine iteration: SPT extraction, replication
/// tree, fanin-tree embedding, solution selection, all on the live state.
/// `dp_pool` parallelizes the embedder's join columns, bit-identically for
/// any pool size (null = serial).
IterationOutcome compute_iteration(const Netlist& nl, const Placement& pl,
                                   const TimingGraph& tg, const LinearDelayModel& dm,
                                   const EngineOptions& opt, const IterationParams& ip,
                                   double lower_bound, ThreadPool* dp_pool) {
  IterationOutcome out;
  const double crit = tg.critical_delay();

  Spt spt = opt.flat_scratch ? extract_eps_spt(tg, ip.sink, ip.epsilon)
                             : extract_eps_spt_legacy(tg, ip.sink, ip.epsilon);
  ReplicationTree rt = build_replication_tree(tg, spt);
  out.tree_internal = rt.num_internal();
  if (rt.num_internal() == 0) {
    out.status = IterationOutcome::Status::kEmptyTree;
    return out;
  }
  if (rt.num_internal() > static_cast<std::size_t>(opt.max_tree_internal)) {
    out.status = IterationOutcome::Status::kTreeTooBig;
    return out;
  }

  // Embedding region: terminals' bounding box inflated, clipped to the
  // logic array (I/O ring is not a legal location for replicas).
  const int n = pl.grid().n();
  Rect region;
  for (TreeNodeId t : rt.tree.post_order()) {
    const FaninTreeNode& tn = rt.tree.node(t);
    if (tn.is_leaf() || t == rt.tree.root()) {
      Point p = tn.fixed_loc;
      region.include(Point{std::clamp(p.x, 1, n), std::clamp(p.y, 1, n)});
    }
  }
  region = region.inflated(opt.region_margin, n, n);
  region.xmin = std::max(region.xmin, 1);
  region.ymin = std::max(region.ymin, 1);

  // Region guard: the embedding DP costs O(tree nodes x region points x
  // labels) time and memory, and a tree whose terminals span the chip gets a
  // chip-sized region — at 1e5 cells that is gigabytes for a single
  // embedding. Oversized regions are shrunk to a ~sqrt(cap)^2 window around
  // the root sink (where replicas have timing leverage); terminals left
  // outside are spliced back with straight-line edges below, the same
  // mechanism that handles I/O-ring terminals.
  if (opt.max_region_points > 0) {
    const std::int64_t pts =
        static_cast<std::int64_t>(region.xmax - region.xmin + 1) *
        static_cast<std::int64_t>(region.ymax - region.ymin + 1);
    if (pts > opt.max_region_points) {
      const int side = std::max(
          1, static_cast<int>(std::sqrt(static_cast<double>(opt.max_region_points))));
      Point root_loc = rt.tree.node(rt.tree.root()).fixed_loc;
      const int rx = std::clamp(root_loc.x, 1, n);
      const int ry = std::clamp(root_loc.y, 1, n);
      Rect w;
      w.xmin = std::clamp(rx - side / 2, 1, n);
      w.xmax = std::min(n, w.xmin + side - 1);
      w.xmin = std::max(1, w.xmax - side + 1);
      w.ymin = std::clamp(ry - side / 2, 1, n);
      w.ymax = std::min(n, w.ymin + side - 1);
      w.ymin = std::max(1, w.ymax - side + 1);
      // The root's clamped location is in both rects, so the intersection is
      // never empty.
      region.xmin = std::max(region.xmin, w.xmin);
      region.xmax = std::min(region.xmax, w.xmax);
      region.ymin = std::max(region.ymin, w.ymin);
      region.ymax = std::min(region.ymax, w.ymax);
      out.region_truncated = true;
    }
  }

  EmbeddingGraph graph = EmbeddingGraph::make_grid(
      region, opt.wire_cost_per_unit, dm.wire_delay_per_unit);
  // Fixed terminals may sit on the I/O ring, outside the logic region;
  // splice them into the graph with an edge to the nearest region vertex.
  for (TreeNodeId t : rt.tree.post_order()) {
    const FaninTreeNode& tn = rt.tree.node(t);
    if (!tn.is_leaf() && t != rt.tree.root()) continue;
    Point p = tn.fixed_loc;
    if (graph.vertex_at(p).valid()) continue;
    Point q{std::clamp(p.x, region.xmin, region.xmax),
            std::clamp(p.y, region.ymin, region.ymax)};
    EmbedVertexId pv = graph.add_vertex(p);
    EmbedVertexId qv = graph.vertex_at(q);
    assert(qv.valid());
    const int d = manhattan(p, q);
    graph.add_bidi_edge(pv, qv, opt.wire_cost_per_unit * d,
                        dm.wire_delay_per_unit * d);
  }

  // Placement cost (Section II-A): congestion plus the replication cost,
  // discounted to zero on any location holding a logically equivalent
  // cell; fanout-1 originals get the discount everywhere.
  const double repl_cost_mult = ip.repl_cost_mult;
  auto pcost = [&](TreeNodeId i, EmbedVertexId j) -> double {
    Point p = graph.point(j);
    if (i == rt.tree.root()) {
      // The sink itself is never copied; staying put is free, relocation
      // (Section V-D) pays congestion like any other move.
      if (p == pl.location(rt.root_info.cell)) return 0.0;
      if (!pl.grid().is_logic(p)) return 1e9;
      return opt.occupancy_cost * pl.occupancy(p);
    }
    if (!pl.grid().is_logic(p)) return 1e9;  // gates on logic slots only
    const FaninTreeNode& tn = rt.tree.node(i);
    for (CellId occ : pl.cells_at(p))
      if (nl.cell_alive(occ) && nl.equivalent(occ, tn.cell)) return 0.0;
    double base = opt.occupancy_cost * pl.occupancy(p);
    if (nl.net(nl.cell(tn.cell).output).sinks.size() <= 1)
      return base;  // fanout-1: no actual replication will occur
    return base + opt.replication_cost * repl_cost_mult;
  };

  EmbedOptions eo = embed_options_for(opt);
  eo.relocatable_root = ip.ff_relocation;
  eo.pool = dp_pool;
  // One embedder per iteration: the scratch keeps the warmed-up label tables
  // on this thread across calls (concurrent service jobs each own one).
  static thread_local EmbedScratch scratch;

  int pick = -1;
  {
    FaninTreeEmbedder embedder(rt.tree, graph, pcost, eo, &scratch);
    if (!embedder.run()) {
      out.status = IterationOutcome::Status::kNoSolution;
      return out;
    }

    // Solution selection (Section II-C): cheapest solution faster than the
    // circuit's monotone lower bound; if the bound is unreachable for this
    // tree, the cheapest among the fastest achievable.
    const int fastest = embedder.pick_fastest();
    if (ip.ff_relocation) {
      // Section V-D: minimize arrival plus the induced penalty on the other
      // paths launched from the relocated register.
      double best_score = 0;
      for (std::size_t k = 0; k < embedder.tradeoff().size(); ++k) {
        const RootSolution& rs = embedder.tradeoff()[k];
        Point root_loc = graph.point(rs.vertex);
        double penalty = 0;
        TimingNodeId q = tg.out_node(ip.sink_cell);
        if (q.valid()) {
          for (std::size_t e : tg.fanout_edges(q)) {
            Point to_loc = pl.location(tg.node(tg.edge(e).to).cell);
            penalty = std::max(penalty, tg.arrival(q) +
                                            dm.wire_delay(root_loc, to_loc) +
                                            tg.node_intrinsic_delay(tg.edge(e).to) +
                                            tg.downstream(tg.edge(e).to));
          }
        }
        double score = std::max(rs.delay.primary(), penalty);
        if (pick < 0 || score < best_score - 1e-12) {
          best_score = score;
          pick = static_cast<int>(k);
        }
      }
    } else {
      // "Cheapest solution that is fast enough" (Section II-C): fast enough
      // means at or below the circuit's monotone lower bound when this tree
      // can reach it; otherwise a bounded improvement step over the sink's
      // current arrival, falling back to the fastest achievable.
      if (fastest >= 0) {
        const double fastest_t = embedder.tradeoff()[fastest].delay.primary();
        const double threshold =
            std::max({lower_bound, fastest_t,
                      tg.arrival(ip.sink) - opt.improvement_step_fraction * crit});
        pick = embedder.pick_cheapest_within(threshold);
        if (pick < 0) pick = embedder.pick_cheapest_within(fastest_t);
        // Spend the subcritical budget on the lexicographically fastest
        // solution within reach — this is where Lex-N converts cost into
        // broken reconvergence for later iterations.
        if (pick >= 0) {
          const double budget =
              embedder.tradeoff()[pick].cost + opt.subcritical_budget;
          for (std::size_t k = 0; k < embedder.tradeoff().size(); ++k) {
            const RootSolution& rs = embedder.tradeoff()[k];
            if (rs.cost > budget) break;  // tradeoff is cost-sorted
            if (rs.delay.lex_compare(embedder.tradeoff()[pick].delay) < 0)
              pick = static_cast<int>(k);
          }
        }
      }
    }
    if (pick < 0) {
      out.status = IterationOutcome::Status::kNoSolution;
      return out;
    }

    out.embedding = embedder.extract(pick);
    out.picked_primary = embedder.tradeoff()[pick].delay.primary();
    out.picked_cost = embedder.tradeoff()[pick].cost;
    out.fastest_primary = embedder.tradeoff()[fastest].delay.primary();
    out.curve_size = embedder.tradeoff().size();
  }

  out.status = IterationOutcome::Status::kSolution;
  out.rt = std::move(rt);
  out.graph = std::move(graph);
  return out;
}

}  // namespace

EngineResult run_replication_engine(Netlist& nl, Placement& pl,
                                    const LinearDelayModel& dm,
                                    const EngineOptions& opt) {
  EngineResult res;
  res.initial_wirelength = pl.total_wirelength();
  res.initial_blocks = nl.num_live_cells();

  // ONE timing engine for the whole run: every iteration below re-times via
  // incremental deltas (splice + dirty-cone STA) instead of constructing a
  // fresh TimingGraph.
  TimingEngine eng(nl, pl, dm);

  // Thread pool for the embedder's join columns (null = serial).
  const int threads =
      opt.num_threads > 0 ? opt.num_threads
                          : static_cast<int>(ThreadPool::hardware_threads());
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(static_cast<unsigned>(threads));
  res.num_threads_used = threads;

  Snapshot best;
  double lower_bound = 0;
  {
    const TimingGraph& tg = eng.graph();
    res.initial_critical = tg.critical_delay();
    lower_bound = opt.flat_scratch ? monotone_lower_bound(tg)
                                   : monotone_lower_bound_legacy(tg);
    best.take(nl, pl, res.initial_critical);
  }
  res.lower_bound = lower_bound;

  CellId last_sink_cell;
  double last_sink_arrival = 0;
  int nonimprove_for_sink = 0;
  double epsilon = 0;
  int replicated_cum = 0;
  int unified_cum = 0;
  // Sinks that could not be improved at their recorded arrival. With
  // quantized delays several sinks tie at the critical value, and a sink can
  // be pinned by a reconvergent cell whose slowest-path tree belongs to a
  // *different* tied sink; rotating over the near-critical band breaks that
  // deadlock. A stuck sink becomes eligible again once its arrival changes.
  // Dense over the cell-id space (NaN = not parked), grown on demand as
  // replication extends the id space.
  StuckSinks stuck_at;
  // Adaptive backpressure on replication: every legalization failure (out of
  // free slots) rolls the iteration back and doubles the effective
  // replication cost, steering the embedder toward relocation/unification;
  // successful iterations decay it back toward 1.
  double repl_cost_mult = 1.0;
  Snapshot iteration_start;  // rollback point when legalization fails

  int stagnant_iterations = 0;
  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    if (opt.cancel) opt.cancel->check("replicate");
    const TimingGraph& tg = eng.updated();
    const double crit = tg.critical_delay();
    if (crit < best.crit - 1e-9) {
      best.take(nl, pl, crit);
      stagnant_iterations = 0;
    } else if (++stagnant_iterations > opt.max_stagnant_iterations) {
      break;  // no global progress for a long stretch — wrap up
    }

    IterationStats is;
    is.iteration = iter;
    is.critical_delay = crit;
    is.replicated_cum = replicated_cum;
    is.unified_cum = unified_cum;

    if (crit <= lower_bound * 1.005 + 1e-6) {
      // All paths are monotone w.r.t. FIXED start/end locations (Section
      // VII-B). FF relocation (Section V-D) relaxes exactly that premise:
      // when the critical sink is a movable register, keep iterating so the
      // relocation machinery gets its chance; the bound is recomputed after
      // any relocation.
      const Cell& cs = nl.cell(tg.node(tg.critical_sink()).cell);
      const bool ff_candidate = opt.enable_ff_relocation &&
                                cs.kind == CellKind::kLogic && cs.registered;
      if (!ff_candidate) {
        res.reached_lower_bound = true;
        res.history.push_back(is);
        break;
      }
    }

    // The near-critical band, slowest first.
    std::vector<TimingNodeId> band = tg.sinks();
    std::sort(band.begin(), band.end(), [&](TimingNodeId a, TimingNodeId b) {
      return tg.arrival(a) > tg.arrival(b);
    });

    // Choose the slowest sink in the band that is not stuck (stuck entries
    // are retried once their arrival has changed).
    TimingNodeId sink;
    for (TimingNodeId s : band) {
      if (tg.arrival(s) < crit * 0.75) break;
      CellId c = tg.node(s).cell;
      // Retry a parked sink only on a meaningful arrival change; a 1e-9
      // threshold lets unification-induced wiggles re-arm sinks forever.
      if (stuck_at.contains(c)) {
        if (tg.arrival(s) >= stuck_at.at(c) - 0.002 * crit) continue;
        stuck_at.erase(c);
      }
      sink = s;
      break;
    }
    if (!sink.valid()) {
      res.history.push_back(is);
      break;  // every near-critical sink is pinned — done
    }
    CellId sink_cell = tg.node(sink).cell;

    const bool sink_improved = sink_cell != last_sink_cell ||
                               tg.arrival(sink) < last_sink_arrival - 1e-9;
    is.improved = sink_improved;
    if (!sink_improved) {
      ++nonimprove_for_sink;
      epsilon += opt.eps_step_fraction * crit;
    } else {
      nonimprove_for_sink = 0;
      epsilon = 0;
    }
    last_sink_cell = sink_cell;
    last_sink_arrival = tg.arrival(sink);
    if (nonimprove_for_sink > opt.max_eps_steps) {
      // This sink is pinned at its current arrival; move on to the next
      // near-critical sink (Section V-B's widening has run its course).
      stuck_at.set(sink_cell, tg.arrival(sink));
      nonimprove_for_sink = 0;
      epsilon = 0;
      res.history.push_back(is);
      continue;
    }
    is.epsilon = epsilon;

    // Deterministic non-improvement escalation (Section V-D): after repeated
    // failures on a registered sink, free its location in the embedding.
    const bool ff_relocation = opt.enable_ff_relocation && nonimprove_for_sink >= 3 &&
                               nl.cell(sink_cell).kind == CellKind::kLogic &&
                               nl.cell(sink_cell).registered;
    is.ff_relocation = ff_relocation;

    const IterationParams ip{sink, sink_cell, epsilon, ff_relocation,
                             repl_cost_mult};
    IterationOutcome oc =
        compute_iteration(nl, pl, tg, dm, opt, ip, lower_bound, pool.get());
    is.tree_internal = oc.tree_internal;
    if (oc.region_truncated) {
      if (res.region_truncations == 0)
        LOG_WARN() << "embedding region truncated to max_region_points="
                   << opt.max_region_points
                   << " (replication scoped to a window around the critical "
                      "sink; further truncations logged in the counter only)";
      ++res.region_truncations;
    }
    if (oc.status == IterationOutcome::Status::kEmptyTree) {
      res.history.push_back(is);
      continue;  // nothing movable; the epsilon schedule advances
    }
    if (oc.status == IterationOutcome::Status::kTreeTooBig) {
      // Too large to embed within the runtime budget; park this sink (other
      // near-critical sinks may have smaller cones) and move on.
      stuck_at.set(sink_cell, tg.arrival(sink));
      nonimprove_for_sink = 0;
      epsilon = 0;
      res.history.push_back(is);
      continue;
    }
    if (oc.status == IterationOutcome::Status::kNoSolution) {
      res.history.push_back(is);
      continue;
    }

    LOG_DEBUG() << "iter " << iter << " sink=" << nl.cell(sink_cell).name
                << " arr=" << tg.arrival(sink) << " crit=" << crit
                << " eps=" << epsilon << " tree=" << oc.tree_internal
                << " fastest=" << oc.fastest_primary
                << " picked_t=" << oc.picked_primary
                << " picked_cost=" << oc.picked_cost
                << " curve=" << oc.curve_size;
    iteration_start.take(nl, pl, crit);
    eng.commit();  // rollback point must match the snapshot just taken
    ExtractionStats ex =
        apply_embedding(nl, pl, oc.rt, oc.embedding, oc.graph, &eng);
    UnificationStats un =
        postprocess_unification(nl, pl, dm, opt.aggressive_unification, &eng);
    LegalizerResult leg = legalize_timing_driven(nl, pl, dm, opt.legalizer, &eng);

    if (!leg.success) {
      // Out of free slots (Section VII-B): roll this iteration back and
      // make replication more expensive so the embedder favors relocation
      // and unification on the next attempts. The rollback is bit-exact
      // (Netlist/Placement copy-assign + TimingEngine shadow restore).
      nl = *iteration_start.nl;
      pl = iteration_start.pl->with_netlist(nl);
      eng.rollback();
      res.ran_out_of_slots = true;
      repl_cost_mult = std::min(repl_cost_mult * 2.0, 64.0);
      res.history.push_back(is);
      continue;
    }
    repl_cost_mult = std::max(1.0, repl_cost_mult * 0.5);

    {
      // Collateral-damage guard: extraction rewires shared equivalents and
      // the legalizer/unification may disturb other near-critical paths.
      // Mild intermediate degradation is tolerated (the paper accepts it,
      // Section V-D), but a clearly worse result is rolled back so errors
      // do not compound across iterations.
      const TimingGraph& tg_after = eng.updated();
      if (tg_after.critical_delay() > crit * 1.02 + 1e-9) {
        nl = *iteration_start.nl;
        pl = iteration_start.pl->with_netlist(nl);
        eng.rollback();
        res.history.push_back(is);
        continue;
      }
    }

    replicated_cum += ex.replicated;
    unified_cum += ex.deleted + un.cells_deleted + leg.unifications;
    is.replicated_cum = replicated_cum;
    is.unified_cum = unified_cum;
    res.history.push_back(is);

    if (ff_relocation) {
      // The register moved; the monotone bound must be refreshed.
      lower_bound = opt.flat_scratch ? monotone_lower_bound(eng.updated())
                                     : monotone_lower_bound_legacy(eng.updated());
      res.lower_bound = std::min(res.lower_bound, lower_bound);
    }
    assert(nl.validate().empty());
  }

  // Keep the best configuration encountered (Section V-D).
  {
    const double crit_now = eng.updated().critical_delay();
    if (crit_now > best.crit + 1e-9) {
      nl = *best.nl;
      pl = best.pl->with_netlist(nl);
      // Wholesale replacement, no delta information: rebuild in place.
      eng.resync();
    }
    res.final_critical = std::min(best.crit, crit_now);
  }
  res.final_wirelength = pl.total_wirelength();
  res.final_blocks = nl.num_live_cells();
  res.total_replicated = replicated_cum;
  res.total_unified = unified_cum;
  return res;
}

}  // namespace repro
