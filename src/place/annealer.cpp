#include "place/annealer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "arch/wirelength.h"
#include "timing/timing_engine.h"
#include "timing/timing_graph.h"
#include "util/log.h"
#include "util/stats.h"

namespace repro {

Placement random_placement(const Netlist& nl, const FpgaGrid& grid, Rng& rng) {
  Placement pl(nl, grid);
  std::vector<Point> logic_slots = grid.logic_locations();
  rng.shuffle(logic_slots);
  // I/O slots expanded by capacity.
  std::vector<Point> io_slots;
  for (Point p : grid.io_locations())
    for (int k = 0; k < grid.io_rat(); ++k) io_slots.push_back(p);
  rng.shuffle(io_slots);

  std::size_t li = 0;
  std::size_t ii = 0;
  for (CellId c : nl.live_cell_ids()) {
    if (nl.cell(c).kind == CellKind::kLogic) {
      assert(li < logic_slots.size() && "grid too small for logic blocks");
      pl.place(c, logic_slots[li++]);
    } else {
      assert(ii < io_slots.size() && "grid too small for I/O pads");
      pl.place(c, io_slots[ii++]);
    }
  }
  return pl;
}

namespace {

/// Exactly-maintained net bounding box: the Rect plus the number of terminal
/// instances sitting on each boundary. Unlike VPR's approximate incremental
/// bbox, a move that vacates a boundary (count drops to zero) triggers a full
/// rescan of the net's terminals, so `bb` is always the true terminal bbox —
/// which is what keeps the incremental path bit-identical to recomputation.
///
/// Only nets with at least kIncrementalTerms terminals are maintained this
/// way: for the small nets that dominate the distribution, a direct
/// allocation-free scan is cheaper than the bookkeeping (a 2-terminal net
/// vacates a boundary on almost every move), while the heavy-tail fanout
/// nets — exactly the ones whose rescans are expensive — update in O(moved
/// instances).
struct NetBB {
  Rect bb;
  int on_xmin = 0;
  int on_xmax = 0;
  int on_ymin = 0;
  int on_ymax = 0;
};

/// Adds a terminal instance at p. Exact: bb stays the true bbox.
void bb_add(NetBB& t, Point p) {
  if (t.bb.empty()) {
    t.bb = Rect::around(p);
    t.on_xmin = t.on_xmax = t.on_ymin = t.on_ymax = 1;
    return;
  }
  if (p.x < t.bb.xmin) {
    t.bb.xmin = p.x;
    t.on_xmin = 1;
  } else if (p.x == t.bb.xmin) {
    ++t.on_xmin;
  }
  if (p.x > t.bb.xmax) {
    t.bb.xmax = p.x;
    t.on_xmax = 1;
  } else if (p.x == t.bb.xmax) {
    ++t.on_xmax;
  }
  if (p.y < t.bb.ymin) {
    t.bb.ymin = p.y;
    t.on_ymin = 1;
  } else if (p.y == t.bb.ymin) {
    ++t.on_ymin;
  }
  if (p.y > t.bb.ymax) {
    t.bb.ymax = p.y;
    t.on_ymax = 1;
  } else if (p.y == t.bb.ymax) {
    ++t.on_ymax;
  }
}

/// Removes a terminal instance at p. Returns false when the removal vacates a
/// boundary — the caller must rescan the net's terminals from the placement.
bool bb_remove(NetBB& t, Point p) {
  if (p.x == t.bb.xmin && --t.on_xmin == 0) return false;
  if (p.x == t.bb.xmax && --t.on_xmax == 0) return false;
  if (p.y == t.bb.ymin && --t.on_ymin == 0) return false;
  if (p.y == t.bb.ymax && --t.on_ymax == 0) return false;
  return true;
}

/// One pin instance displaced by the current proposal. A cell contributes one
/// Nets with fewer terminals than this take the direct-scan path.
constexpr std::size_t kIncrementalTerms = 10;

/// instance per pin (output plus every input occurrence), so nets connected
/// to a cell more than once are counted with the right multiplicity.
struct InstanceMove {
  NetId net;
  Point from;
  Point to;
};

/// Incremental cost bookkeeping for the annealer.
class AnnealState {
 public:
  AnnealState(const Netlist& nl, Placement& pl, TimingEngine& eng,
              const AnnealerOptions& opt)
      : nl_(nl), pl_(pl), eng_(eng), tg_(eng.graph()), opt_(opt) {
    net_wl_.resize(nl.net_capacity(), 0.0);
    for (NetId n : nl.live_net_ids()) {
      net_wl_[n.index()] = pl.net_wirelength(n);
      wiring_cost_ += net_wl_[n.index()];
    }
    if (opt.incremental_bbox) {
      net_bb_.resize(nl.net_capacity());
      for (NetId n : nl.live_net_ids())
        if (nl.net(n).sinks.size() + 1 >= kIncrementalTerms)
          net_bb_[n.index()] = scan_net(n);
      // CSR of each cell's pins on incrementally-maintained nets (output
      // first, then inputs in pin order — the order inst_moves_ saw before),
      // so note_move on the hot path never probes net sizes.
      big_pin_offset_.assign(nl.cell_capacity() + 1, 0);
      std::vector<NetId> pins;
      for (std::size_t i = 0; i < nl.cell_capacity(); ++i) {
        big_pin_offset_[i] = static_cast<std::uint32_t>(big_pin_net_.size());
        CellId c{static_cast<CellId::value_type>(i)};
        if (!nl.cell_alive(c)) continue;
        const Cell& cell = nl.cell(c);
        if (cell.output.valid() &&
            nl.net(cell.output).sinks.size() + 1 >= kIncrementalTerms)
          big_pin_net_.push_back(cell.output);
        for (NetId n : cell.inputs)
          if (n.valid() && nl.net(n).sinks.size() + 1 >= kIncrementalTerms)
            big_pin_net_.push_back(n);
      }
      big_pin_offset_[nl.cell_capacity()] =
          static_cast<std::uint32_t>(big_pin_net_.size());
      arena_record_peak(arena_counters().annealer_bbox_bytes,
                        net_bb_.capacity() * sizeof(NetBB) +
                            big_pin_offset_.capacity() * sizeof(std::uint32_t) +
                            big_pin_net_.capacity() * sizeof(NetId));
    }
    if (opt.timing_driven) {
      edge_delay_.resize(tg_.num_edges(), 0.0);
      edge_weight_.resize(tg_.num_edges(), 0.0);
      cell_edges_.resize(nl.cell_capacity());
      for (std::size_t e = 0; e < tg_.num_edges(); ++e) {
        const TimingEdge& ed = tg_.edge(e);
        cell_edges_[tg_.node(ed.from).cell.index()].push_back(e);
        cell_edges_[tg_.node(ed.to).cell.index()].push_back(e);
      }
    }
    refresh_criticalities(1.0);
  }

  /// Incrementally re-times the accumulated accepted moves and recomputes
  /// criticality weights with the given exponent.
  void refresh_criticalities(double crit_exponent) {
    // Wirelength-driven anneals never read the timing term (dt is always 0),
    // so they skip the incremental STA entirely — the trajectory depends
    // only on wiring_norm_.
    if (opt_.timing_driven) {
      eng_.update();
      timing_cost_ = 0;
      for (std::size_t e = 0; e < tg_.num_edges(); ++e) {
        edge_delay_[e] = tg_.edge(e).delay;
        edge_weight_[e] = criticality_weight(tg_.edge_criticality(e), crit_exponent);
        timing_cost_ += edge_delay_[e] * edge_weight_[e];
      }
    }
    wiring_norm_ = std::max(wiring_cost_, 1e-9);
    timing_norm_ = std::max(timing_cost_, 1e-9);
  }

  double wiring_cost() const { return wiring_cost_; }
  double timing_cost() const { return timing_cost_; }

  /// Starts recording the pin-instance displacements of a new proposal.
  void begin_proposal() { inst_moves_.clear(); }

  /// Records that cell c moved from -> to: one instance per connected pin of
  /// an incrementally-maintained (high-fanout) net.
  void note_move(CellId c, Point from, Point to) {
    if (!opt_.incremental_bbox) return;
    const std::uint32_t b0 = big_pin_offset_[c.index()];
    const std::uint32_t b1 = big_pin_offset_[c.index() + 1];
    for (std::uint32_t i = b0; i < b1; ++i)
      inst_moves_.push_back({big_pin_net_[i], from, to});
  }

  /// Normalized composite delta for moving cells (already moved in pl_);
  /// `touched_nets` and `touched_cells` describe the move.
  double evaluate_delta(const std::vector<NetId>& touched_nets,
                        const std::vector<CellId>& touched_cells,
                        std::vector<double>& new_wl, std::vector<double>& new_delay,
                        std::vector<std::size_t>& touched_edges) {
    double dw = 0;
    new_wl.clear();
    if (opt_.incremental_bbox) {
      new_bb_.clear();
      for (NetId n : touched_nets) {
        const Net& net = nl_.net(n);
        double wl = 0.0;
        if (net.sinks.size() + 1 < kIncrementalTerms) {
          // Small net: a direct allocation-free scan beats the bookkeeping.
          new_bb_.emplace_back();
          if (!net.sinks.empty())
            wl = estimate_wirelength(pl_.net_bbox(n), net.sinks.size() + 1);
        } else {
          NetBB t = net_bb_[n.index()];
          for (const InstanceMove& mv : inst_moves_) {
            if (mv.net != n) continue;
            if (!bb_remove(t, mv.from)) {
              // A boundary emptied out. pl_ already holds every cell at its
              // proposed position, so one rescan yields the exact final bbox;
              // the remaining instance updates are already folded in.
              t = scan_net(n);
              break;
            }
            bb_add(t, mv.to);
          }
          new_bb_.push_back(t);
          wl = estimate_wirelength(t.bb, net.sinks.size() + 1);
        }
        new_wl.push_back(wl);
        dw += wl - net_wl_[n.index()];
      }
    } else {
      // Original layout, kept as the test oracle of the FlatVsLegacy anneal
      // tests: the original annealer recomputed each touched net's bbox
      // from a materialized terminal list, paying one vector allocation per
      // touched net per proposal. Bit-identical to the incremental path
      // (same bbox, same estimate).
      for (NetId n : touched_nets) {
        const Net& net = nl_.net(n);
        double wl = 0.0;
        if (!net.sinks.empty()) {
          std::vector<Point> pts = pl_.net_terminals(n);
          Rect bb;
          for (Point p : pts) bb.include(p);
          wl = estimate_wirelength(bb, pts.size());
        }
        new_wl.push_back(wl);
        dw += wl - net_wl_[n.index()];
      }
    }
    double dt = 0;
    new_delay.clear();
    touched_edges.clear();
    if (opt_.timing_driven) {
      for (CellId c : touched_cells) {
        for (std::size_t e : cell_edges_[c.index()]) {
          if (std::find(touched_edges.begin(), touched_edges.end(), e) !=
              touched_edges.end())
            continue;
          touched_edges.push_back(e);
          const TimingEdge& ed = tg_.edge(e);
          Point a = pl_.location(tg_.node(ed.from).cell);
          Point b = pl_.location(tg_.node(ed.to).cell);
          double d = tg_.delay_model().wire_delay(a, b) + tg_.node_intrinsic_delay(ed.to);
          new_delay.push_back(d);
          dt += (d - edge_delay_[e]) * edge_weight_[e];
        }
      }
    }
    return opt_.lambda * dt / timing_norm_ + (1 - opt_.lambda) * dw / wiring_norm_;
  }

  /// Commits the cached deltas after an accepted move and queues the moved
  /// cells for the next incremental re-time.
  void commit(const std::vector<NetId>& touched_nets, const std::vector<double>& new_wl,
              const std::vector<std::size_t>& touched_edges,
              const std::vector<double>& new_delay,
              const std::vector<CellId>& touched_cells) {
    for (std::size_t i = 0; i < touched_nets.size(); ++i) {
      wiring_cost_ += new_wl[i] - net_wl_[touched_nets[i].index()];
      net_wl_[touched_nets[i].index()] = new_wl[i];
      if (opt_.incremental_bbox &&
          nl_.net(touched_nets[i]).sinks.size() + 1 >= kIncrementalTerms)
        net_bb_[touched_nets[i].index()] = new_bb_[i];
    }
    for (std::size_t i = 0; i < touched_edges.size(); ++i) {
      timing_cost_ += (new_delay[i] - edge_delay_[touched_edges[i]]) *
                      edge_weight_[touched_edges[i]];
      edge_delay_[touched_edges[i]] = new_delay[i];
    }
    if (opt_.timing_driven) eng_.on_cells_moved(touched_cells);
  }

 private:
  /// Exact bbox + boundary counts of net n scanned from the placement.
  NetBB scan_net(NetId n) const {
    NetBB t;
    const Net& net = nl_.net(n);
    bb_add(t, pl_.location(net.driver));
    for (const Sink& s : net.sinks) bb_add(t, pl_.location(s.cell));
    return t;
  }

  const Netlist& nl_;
  Placement& pl_;
  TimingEngine& eng_;
  const TimingGraph& tg_;
  const AnnealerOptions& opt_;
  std::vector<double> net_wl_;
  std::vector<NetBB> net_bb_;        ///< committed boxes (incremental_bbox)
  std::vector<std::uint32_t> big_pin_offset_;  ///< CSR: cell -> big-net pins
  std::vector<NetId> big_pin_net_;
  std::vector<NetBB> new_bb_;        ///< tentative boxes of the open proposal
  std::vector<InstanceMove> inst_moves_;
  std::vector<double> edge_delay_;
  std::vector<double> edge_weight_;
  std::vector<std::vector<std::size_t>> cell_edges_;
  double wiring_cost_ = 0;
  double timing_cost_ = 0;
  double wiring_norm_ = 1;
  double timing_norm_ = 1;
};

/// Collects the nets incident to a cell, deduplicated into `out`.
void collect_nets(const Netlist& nl, CellId c, std::vector<NetId>& out) {
  const Cell& cell = nl.cell(c);
  auto push = [&out](NetId n) {
    if (n.valid() && std::find(out.begin(), out.end(), n) == out.end()) out.push_back(n);
  };
  push(cell.output);
  for (NetId n : cell.inputs) push(n);
}

}  // namespace

Placement anneal_placement(const Netlist& nl, const FpgaGrid& grid,
                           const LinearDelayModel& dm, const AnnealerOptions& opt,
                           AnnealStats* stats) {
  AnnealStats local;
  AnnealStats& st = stats ? *stats : local;
  st = AnnealStats{};
  Rng rng(opt.seed);
  Placement pl = random_placement(nl, grid, rng);
  // One graph build for the whole anneal; per-temperature refreshes re-time
  // only the cones disturbed by the moves accepted since the last refresh.
  TimingEngine eng(nl, pl, dm);
  AnnealState state(nl, pl, eng, opt);

  std::vector<CellId> movable = nl.live_cells();
  if (movable.empty()) return pl;
  const double num_blocks = static_cast<double>(movable.size());
  const int moves_per_temp = std::max(
      16, static_cast<int>(opt.inner_num * std::pow(num_blocks, 4.0 / 3.0)));

  double rlim = grid.extent();
  const double rlim_initial = rlim;
  auto crit_exp = [&]() {
    if (rlim_initial <= 1.0) return opt.max_crit_exponent;
    double f = (rlim_initial - rlim) / (rlim_initial - 1.0);
    return 1.0 + f * (opt.max_crit_exponent - 1.0);
  };

  std::vector<NetId> touched_nets;
  std::vector<CellId> touched_cells;
  std::vector<double> new_wl;
  std::vector<double> new_delay;
  std::vector<std::size_t> touched_edges;

  // Proposes a move/swap; returns false if no target could be found.
  // On success the placement is already updated and the touched sets filled.
  auto propose = [&](CellId& a, CellId& b, Point& a_from, Point& b_from) -> bool {
    a = movable[rng.next_below(movable.size())];
    a_from = pl.location(a);
    const bool is_logic = nl.cell(a).kind == CellKind::kLogic;
    const int r = std::max(1, static_cast<int>(rlim));
    Point target{-1, -1};
    for (int attempt = 0; attempt < 12; ++attempt) {
      Point t{a_from.x + rng.next_int(-r, r), a_from.y + rng.next_int(-r, r)};
      if (!grid.in_array(t) || t == a_from) continue;
      if (is_logic ? !grid.is_logic(t) : !grid.is_io(t)) continue;
      target = t;
      break;
    }
    if (target.x < 0) return false;

    b = CellId::invalid();
    if (pl.occupancy(target) >= grid.capacity(target)) {
      const auto& occ = pl.cells_at(target);
      b = occ[rng.next_below(occ.size())];
      b_from = target;
    }

    touched_nets.clear();
    touched_cells.clear();
    state.begin_proposal();
    touched_cells.push_back(a);
    collect_nets(nl, a, touched_nets);
    state.note_move(a, a_from, target);
    if (b.valid()) {
      touched_cells.push_back(b);
      collect_nets(nl, b, touched_nets);
      state.note_move(b, b_from, a_from);
      pl.place(b, a_from);
    }
    pl.place(a, target);
    return true;
  };

  auto revert = [&](CellId a, CellId b, Point a_from, Point b_from) {
    pl.place(a, a_from);
    if (b.valid()) pl.place(b, b_from);
  };

  // Initial temperature: std-dev of cost over num_blocks accepted random
  // moves, times 20 (VPR's rule).
  StatAccumulator probe;
  for (std::size_t i = 0; i < movable.size(); ++i) {
    CellId a;
    CellId b;
    Point af;
    Point bf;
    if (!propose(a, b, af, bf)) continue;
    double delta = state.evaluate_delta(touched_nets, touched_cells, new_wl, new_delay,
                                        touched_edges);
    state.commit(touched_nets, new_wl, touched_edges, new_delay, touched_cells);
    probe.add(delta);
  }
  double temperature = 20.0 * std::max(probe.stddev(), 1e-6);
  state.refresh_criticalities(crit_exp());

  const double num_nets = std::max<double>(1.0, static_cast<double>(nl.num_live_nets()));
  int temp_iter = 0;
  while (true) {
    if (opt.cancel) opt.cancel->check("anneal");
    int accepted = 0;
    for (int m = 0; m < moves_per_temp; ++m) {
      if (opt.cancel && (m & 0xFFF) == 0xFFF) opt.cancel->check("anneal");
      CellId a;
      CellId b;
      Point af;
      Point bf;
      if (!propose(a, b, af, bf)) continue;
      ++st.moves_proposed;
      double delta = state.evaluate_delta(touched_nets, touched_cells, new_wl,
                                          new_delay, touched_edges);
      bool accept = delta < 0 || rng.next_double() < std::exp(-delta / temperature);
      if (accept) {
        state.commit(touched_nets, new_wl, touched_edges, new_delay, touched_cells);
        ++accepted;
        ++st.moves_accepted;
      } else {
        revert(a, b, af, bf);
      }
    }
    const double success = static_cast<double>(accepted) / moves_per_temp;

    // VPR temperature update schedule.
    double gamma;
    if (success > 0.96)
      gamma = 0.5;
    else if (success > 0.8)
      gamma = 0.9;
    else if (success > 0.15 || rlim > 1.0)
      gamma = 0.95;
    else
      gamma = 0.8;
    temperature *= gamma;

    rlim = std::clamp(rlim * (1.0 - 0.44 + success), 1.0, rlim_initial);
    state.refresh_criticalities(crit_exp());
    ++temp_iter;

    // VPR exit criterion: T below a small fraction of the average per-net
    // cost. Deltas here are normalized (total composite cost ~ 1), so the
    // per-net cost is 1/num_nets. A hard iteration backstop guards odd cases.
    if (temperature < 0.005 / num_nets || temp_iter > 400) break;
  }

  st.temperatures = temp_iter;
  LOG_INFO() << "annealer finished after " << temp_iter << " temperatures; wiring cost "
             << state.wiring_cost();
  assert(pl.legal());
  return pl;
}

void anneal_polish(const Netlist& nl, const FpgaGrid& grid,
                   const LinearDelayModel& dm, Placement& pl,
                   const AnnealerOptions& opt, const PolishOptions& popt,
                   AnnealStats* stats) {
  AnnealStats local;
  AnnealStats& st = stats ? *stats : local;
  st = AnnealStats{};
  Rng rng(opt.seed);
  TimingEngine eng(nl, pl, dm);
  AnnealState state(nl, pl, eng, opt);

  std::vector<CellId> movable = nl.live_cells();
  if (movable.empty()) return;
  const double num_blocks = static_cast<double>(movable.size());
  const std::uint64_t moves_per_temp = std::max<std::uint64_t>(
      16, std::min<std::uint64_t>(
              popt.max_moves_per_temperature,
              static_cast<std::uint64_t>(popt.inner_scale * opt.inner_num *
                                         std::pow(num_blocks, 4.0 / 3.0))));
  const double auto_rlim =
      popt.rlim > 0 ? popt.rlim
                    : std::clamp(std::sqrt(static_cast<double>(grid.n())) / 1.7,
                                 4.0, 6.0);
  const int r = std::max(1, static_cast<int>(std::llround(auto_rlim)));

  std::vector<NetId> touched_nets;
  std::vector<CellId> touched_cells;
  std::vector<double> new_wl;
  std::vector<double> new_delay;
  std::vector<std::size_t> touched_edges;

  // Same move generator as the full annealer at a fixed small range limit.
  auto propose = [&](CellId& a, CellId& b, Point& a_from, Point& b_from) -> bool {
    a = movable[rng.next_below(movable.size())];
    a_from = pl.location(a);
    const bool is_logic = nl.cell(a).kind == CellKind::kLogic;
    Point target{-1, -1};
    for (int attempt = 0; attempt < 12; ++attempt) {
      Point t{a_from.x + rng.next_int(-r, r), a_from.y + rng.next_int(-r, r)};
      if (!grid.in_array(t) || t == a_from) continue;
      if (is_logic ? !grid.is_logic(t) : !grid.is_io(t)) continue;
      target = t;
      break;
    }
    if (target.x < 0) return false;

    b = CellId::invalid();
    if (pl.occupancy(target) >= grid.capacity(target)) {
      const auto& occ = pl.cells_at(target);
      b = occ[rng.next_below(occ.size())];
      b_from = target;
    }

    touched_nets.clear();
    touched_cells.clear();
    state.begin_proposal();
    touched_cells.push_back(a);
    collect_nets(nl, a, touched_nets);
    state.note_move(a, a_from, target);
    if (b.valid()) {
      touched_cells.push_back(b);
      collect_nets(nl, b, touched_nets);
      state.note_move(b, b_from, a_from);
      pl.place(b, a_from);
    }
    pl.place(a, target);
    return true;
  };

  auto revert = [&](CellId a, CellId b, Point a_from, Point b_from) {
    pl.place(a, a_from);
    if (b.valid()) pl.place(b, b_from);
  };

  // Probe temperature without committing: unlike the full annealer's probe
  // (which is happy to scramble a random start), every probe move here is
  // reverted — the incoming placement is the analytic result and must
  // survive intact.
  state.refresh_criticalities(opt.max_crit_exponent);
  StatAccumulator probe;
  const std::size_t probe_moves = std::min<std::size_t>(movable.size(), 256);
  for (std::size_t i = 0; i < probe_moves; ++i) {
    CellId a;
    CellId b;
    Point af;
    Point bf;
    if (!propose(a, b, af, bf)) continue;
    double delta = state.evaluate_delta(touched_nets, touched_cells, new_wl, new_delay,
                                        touched_edges);
    revert(a, b, af, bf);
    probe.add(delta);
  }
  double temperature =
      popt.temperature_fraction * 20.0 * std::max(probe.stddev(), 1e-6);

  const double num_nets = std::max<double>(1.0, static_cast<double>(nl.num_live_nets()));
  int temp_iter = 0;
  while (true) {
    if (opt.cancel) opt.cancel->check("anneal_polish");
    std::uint64_t accepted = 0;
    for (std::uint64_t m = 0; m < moves_per_temp; ++m) {
      if (opt.cancel && (m & 0xFFF) == 0xFFF) opt.cancel->check("anneal_polish");
      CellId a;
      CellId b;
      Point af;
      Point bf;
      if (!propose(a, b, af, bf)) continue;
      ++st.moves_proposed;
      double delta = state.evaluate_delta(touched_nets, touched_cells, new_wl,
                                          new_delay, touched_edges);
      bool accept = delta < 0 || rng.next_double() < std::exp(-delta / temperature);
      if (accept) {
        state.commit(touched_nets, new_wl, touched_edges, new_delay, touched_cells);
        ++accepted;
        ++st.moves_accepted;
      } else {
        revert(a, b, af, bf);
      }
    }
    const double success =
        static_cast<double>(accepted) / static_cast<double>(moves_per_temp);
    double gamma;
    if (success > 0.96)
      gamma = 0.5;
    else if (success > 0.8)
      gamma = 0.9;
    else if (success > 0.15)
      gamma = 0.95;
    else
      gamma = 0.8;
    temperature *= gamma;
    state.refresh_criticalities(opt.max_crit_exponent);
    ++temp_iter;
    if (temperature < 0.005 / num_nets || temp_iter >= popt.max_temperatures) break;
  }

  // Quench: greedy sweeps at T = 0 (VPR's final-temperature discipline).
  // Only strictly improving moves are accepted, so both wirelength and the
  // timing cost are monotone here — this recovers the small regressions the
  // last warm temperatures traded away.
  for (int q = 0; q < popt.quench_sweeps; ++q) {
    if (opt.cancel) opt.cancel->check("anneal_polish");
    state.refresh_criticalities(opt.max_crit_exponent);
    std::uint64_t accepted = 0;
    for (std::uint64_t m = 0; m < moves_per_temp; ++m) {
      if (opt.cancel && (m & 0xFFF) == 0xFFF) opt.cancel->check("anneal_polish");
      CellId a;
      CellId b;
      Point af;
      Point bf;
      if (!propose(a, b, af, bf)) continue;
      ++st.moves_proposed;
      double delta = state.evaluate_delta(touched_nets, touched_cells, new_wl,
                                          new_delay, touched_edges);
      if (delta < 0) {
        state.commit(touched_nets, new_wl, touched_edges, new_delay, touched_cells);
        ++accepted;
        ++st.moves_accepted;
      } else {
        revert(a, b, af, bf);
      }
    }
    ++temp_iter;
    if (accepted == 0) break;  // local minimum under this move set
  }

  st.temperatures = temp_iter;
  LOG_INFO() << "polish finished after " << temp_iter << " temperatures; wiring cost "
             << state.wiring_cost();
  assert(pl.legal());
}

}  // namespace repro
