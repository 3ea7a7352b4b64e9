#include "place/legalizer.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "timing/timing_engine.h"
#include "timing/timing_graph.h"
#include "util/log.h"

namespace repro {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Wiring component of the composite cell cost: estimated wirelength of the
/// net driven by the cell plus its input nets, with the cell hypothetically
/// at `loc` (Section V-A).
double cell_wiring_cost(const Netlist& nl, const Placement& pl, CellId cell, Point loc) {
  std::vector<NetId> nets;
  const Cell& c = nl.cell(cell);
  auto push = [&nets](NetId n) {
    if (n.valid() && std::find(nets.begin(), nets.end(), n) == nets.end())
      nets.push_back(n);
  };
  push(c.output);
  for (NetId n : c.inputs) push(n);

  double total = 0;
  for (NetId nid : nets) {
    const Net& net = nl.net(nid);
    if (!net.alive) continue;
    Rect bb;
    auto include = [&](CellId t) { bb.include(t == cell ? loc : pl.location(t)); };
    include(net.driver);
    for (const Sink& s : net.sinks) include(s.cell);
    total += estimate_wirelength(bb, net.sinks.size() + 1);
  }
  return total;
}

/// Timing component: squared delay of the slowest path through the cell with
/// the cell hypothetically at `loc`, when that delay is within
/// `near_critical_fraction` of the current critical delay; zero otherwise.
/// Neighbor arrival/downstream values come from the last STA.
double cell_timing_cost(const TimingGraph& tg, const Placement& pl, CellId cell,
                        Point loc, const LegalizerOptions& opt) {
  const LinearDelayModel& dm = tg.delay_model();
  double slowest = 0;

  auto arr_into = [&](TimingNodeId n) {
    double a = 0;
    for (std::size_t e : tg.fanin_edges(n)) {
      const TimingEdge& ed = tg.edge(e);
      Point from_loc = pl.location(tg.node(ed.from).cell);
      a = std::max(a, tg.arrival(ed.from) + dm.wire_delay(from_loc, loc) +
                          tg.node_intrinsic_delay(n));
    }
    return a;
  };
  auto down_from = [&](TimingNodeId n) {
    double d = 0;
    for (std::size_t e : tg.fanout_edges(n)) {
      const TimingEdge& ed = tg.edge(e);
      Point to_loc = pl.location(tg.node(ed.to).cell);
      d = std::max(d, dm.wire_delay(loc, to_loc) + tg.node_intrinsic_delay(ed.to) +
                          tg.downstream(ed.to));
    }
    return d;
  };

  TimingNodeId out = tg.out_node(cell);
  TimingNodeId sink = tg.sink_node(cell);
  if (out.valid()) {
    double a = tg.fanin_edges(out).empty() ? tg.arrival(out) : arr_into(out);
    slowest = std::max(slowest, a + down_from(out));
  }
  if (sink.valid()) slowest = std::max(slowest, arr_into(sink));

  const double crit = tg.critical_delay();
  if (crit <= 0 || slowest < (1.0 - opt.near_critical_fraction) * crit) return 0.0;
  return slowest * slowest;
}

double cell_cost(const Netlist& nl, const Placement& pl, const TimingGraph& tg,
                 CellId cell, Point loc, const LegalizerOptions& opt) {
  return opt.alpha * cell_timing_cost(tg, pl, cell, loc, opt) +
         (1 - opt.alpha) * cell_wiring_cost(nl, pl, cell, loc);
}

/// Finds the nearest free logic location in each quadrant around `c`
/// (Section V-A: "up to four closest free slots, one in each quadrant").
/// Quadrants partition directions as (+x,+y), (+x,-y), (-x,+y), (-x,-y) with
/// axis ties going to the positive side.
std::vector<Point> quadrant_free_slots(const Placement& pl, Point c) {
  const FpgaGrid& grid = pl.grid();
  Point best[4];
  int best_d[4] = {INT_MAX, INT_MAX, INT_MAX, INT_MAX};
  for (Point p : grid.logic_locations()) {
    if (p == c || pl.occupancy(p) >= grid.capacity(p)) continue;
    int q = (p.x >= c.x ? 1 : 0) | (p.y >= c.y ? 2 : 0);
    int d = manhattan(p, c);
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

struct RippleStep {
  CellId cell;
  Point from;
  Point to;
};

/// Max-gain monotone ripple path from congested slot `c` to free slot `t`,
/// evaluated via DP over the monotone rectangle (Fig. 12). Returns the steps
/// in c-to-t order and the total gain, or nullopt if the rectangle is
/// degenerate.
std::optional<std::pair<std::vector<RippleStep>, double>> best_path_to(
    const Netlist& nl, const Placement& pl, const TimingGraph& tg, Point c, Point t,
    const LegalizerOptions& opt) {
  const int sx = (t.x >= c.x) ? 1 : -1;
  const int sy = (t.y >= c.y) ? 1 : -1;
  const int nx = std::abs(t.x - c.x);
  const int ny = std::abs(t.y - c.y);

  // grid-local indexing over the (nx+1) x (ny+1) rectangle.
  auto at = [&](int i, int j) { return Point{c.x + sx * i, c.y + sy * j}; };
  auto idx = [&](int i, int j) { return j * (nx + 1) + i; };
  const int cells_in_rect = (nx + 1) * (ny + 1);

  std::vector<double> gain(cells_in_rect, kNegInf);
  std::vector<int> parent(cells_in_rect, -1);
  std::vector<CellId> moved(cells_in_rect);  // cell that moved INTO (i,j)
  gain[idx(0, 0)] = 0;

  // Terminal tracking: any free slot in the rectangle ends a path.
  double best_term_gain = kNegInf;
  int best_term = -1;

  for (int j = 0; j <= ny; ++j) {
    for (int i = 0; i <= nx; ++i) {
      const int u = idx(i, j);
      if (gain[u] == kNegInf) continue;
      Point up = at(i, j);
      const bool is_source = (i == 0 && j == 0);
      const bool is_free =
          !is_source && pl.occupancy(up) < pl.grid().capacity(up);
      if (is_free) {
        if (gain[u] > best_term_gain) {
          best_term_gain = gain[u];
          best_term = u;
        }
        continue;  // free slot terminates a path
      }
      // Expand one step toward t in x and in y. The moving cell is the best
      // occupant of `up` for that step.
      for (int dir = 0; dir < 2; ++dir) {
        int ni = i + (dir == 0 ? 1 : 0);
        int nj = j + (dir == 1 ? 1 : 0);
        if (ni > nx || nj > ny) continue;
        Point wp = at(ni, nj);
        if (!pl.grid().is_logic(wp)) continue;
        double best_edge = kNegInf;
        CellId best_cell;
        for (CellId occ : pl.cells_at(up)) {
          if (!nl.cell_alive(occ)) continue;
          double g = cell_cost(nl, pl, tg, occ, up, opt) -
                     cell_cost(nl, pl, tg, occ, wp, opt);
          if (g > best_edge) {
            best_edge = g;
            best_cell = occ;
          }
        }
        if (!best_cell.valid()) continue;
        const int w = idx(ni, nj);
        if (gain[u] + best_edge > gain[w]) {
          gain[w] = gain[u] + best_edge;
          parent[w] = u;
          moved[w] = best_cell;
        }
      }
    }
  }

  if (best_term < 0) return std::nullopt;
  // Reconstruct.
  std::vector<RippleStep> steps;
  int cur = best_term;
  while (parent[cur] >= 0) {
    int p = parent[cur];
    Point to = at(cur % (nx + 1), cur / (nx + 1));
    Point from = at(p % (nx + 1), p / (nx + 1));
    steps.push_back(RippleStep{moved[cur], from, to});
    cur = p;
  }
  std::reverse(steps.begin(), steps.end());
  return std::make_pair(std::move(steps), best_term_gain);
}

/// Overfull I/O locations (only possible transiently) are fixed by moving the
/// extra pad to the nearest free I/O location directly.
bool fix_io_overflow(Placement& pl, Point p, TimingEngine* eng,
                     std::vector<LegalizerMove>* moves) {
  const FpgaGrid& grid = pl.grid();
  Point best{-1, -1};
  int best_d = INT_MAX;
  for (Point q : grid.io_locations()) {
    if (pl.occupancy(q) < grid.capacity(q) && manhattan(p, q) < best_d) {
      best_d = manhattan(p, q);
      best = q;
    }
  }
  if (best.x < 0) return false;
  CellId moved = pl.cells_at(p).back();
  pl.place(moved, best);
  moves->push_back(LegalizerMove{moved, best});
  if (eng) eng->on_cell_moved(moved);
  return true;
}

}  // namespace

LegalizerResult legalize_timing_driven(Netlist& nl, Placement& pl,
                                       const LinearDelayModel& dm,
                                       const LegalizerOptions& opt,
                                       TimingEngine* eng) {
  LegalizerResult res;
  // With a shared engine the graph is patched incrementally; standalone runs
  // keep the original private-graph behavior.
  std::optional<TimingGraph> local_tg;
  if (eng)
    eng->update();
  else
    local_tg.emplace(nl, pl, dm);
  const TimingGraph& tg = eng ? eng->graph() : *local_tg;

  for (int pass = 0; pass < opt.max_passes; ++pass) {
    // Scan for the first overlap (paper: "we pick the first one we encounter
    // while we scan the placement for overlaps").
    Point congested{-1, -1};
    for (int y = 0; y < pl.grid().extent() && congested.x < 0; ++y)
      for (int x = 0; x < pl.grid().extent(); ++x) {
        if (pl.overuse(Point{x, y}) > 0) {
          congested = Point{x, y};
          break;
        }
      }
    if (congested.x < 0) {
      res.success = true;
      return res;
    }

    if (pl.grid().is_io(congested)) {
      if (!fix_io_overflow(pl, congested, eng, &res.moves)) {
        res.failure = "no free I/O location for overfull pad site";
        return res;
      }
      ++res.overlaps_resolved;
      continue;
    }

    std::vector<Point> targets = quadrant_free_slots(pl, congested);
    if (targets.empty()) {
      res.failure = "no free logic slot left";  // caller terminates the flow
      return res;
    }

    double best_gain = kNegInf;
    std::vector<RippleStep> best_steps;
    for (Point t : targets) {
      auto r = best_path_to(nl, pl, tg, congested, t, opt);
      if (r && r->second > best_gain) {
        best_gain = r->second;
        best_steps = std::move(r->first);
      }
    }
    if (best_steps.empty()) {
      res.failure = "no ripple path reached a free slot";
      return res;
    }

    // Execute the ripple from the free end backward so each slot has room
    // when its incoming cell arrives. Each cell moves exactly one slot.
    bool unified = false;
    for (auto it = best_steps.rbegin(); it != best_steps.rend() && !unified; ++it) {
      // Unify if the destination holds a logically equivalent live cell.
      CellId equivalent_resident;
      for (CellId occ : pl.cells_at(it->to)) {
        if (occ != it->cell && nl.cell_alive(occ) && nl.cell_alive(it->cell) &&
            nl.equivalent(occ, it->cell)) {
          equivalent_resident = occ;
          break;
        }
      }
      if (equivalent_resident.valid()) {
        // The unified cell's fanouts move to the resident: those receivers
        // are the netlist delta the engine must splice.
        std::vector<CellId> rewired;
        if (eng)
          for (const Sink& s : nl.net(nl.cell(it->cell).output).sinks)
            rewired.push_back(s.cell);
        std::vector<CellId> deleted;
        nl.unify(it->cell, equivalent_resident, &deleted);
        for (CellId d : deleted) pl.unplace(d);
        res.unifications += static_cast<int>(deleted.size());
        unified = true;  // paper: stop the current pass after a unification
        if (eng) {
          eng->on_cells_rewired(rewired);
          eng->on_cells_rewired(deleted);
          eng->update();
        } else {
          local_tg.emplace(nl, pl, dm);
        }
        break;
      }
      pl.place(it->cell, it->to);
      res.moves.push_back(LegalizerMove{it->cell, it->to});
      if (eng) eng->on_cell_moved(it->cell);
      ++res.ripple_moves;
    }
    ++res.overlaps_resolved;
    if (!unified) {
      if (eng)
        eng->update();
      else
        local_tg->run_sta();
    }
  }
  res.success = pl.overfull_locations().empty();
  return res;
}

}  // namespace repro
