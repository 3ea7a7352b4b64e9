#include "place/legalizer.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "timing/timing_engine.h"
#include "timing/timing_graph.h"
#include "util/log.h"

namespace repro {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// The composite cell cost of Section V-A, C = alpha * C_T + (1 - alpha) *
/// C_W, for a cell placed hypothetically at some location. Everything a cost
/// reads besides that location (the other terminals of the cell's nets, the
/// neighbors' arrival/downstream values from the last STA) is fixed for the
/// length of one legalization pass, so each cell's neighborhood is gathered
/// once per pass and every (cell, location) cost after that is a short,
/// allocation-free loop. Values are bit-identical to evaluating the
/// neighborhood afresh: the same terms combine in the same order.
class CellCosts {
 public:
  CellCosts(const Netlist& nl, const Placement& pl, const LegalizerOptions& opt)
      : nl_(nl), pl_(pl), opt_(opt) {}

  /// Forgets every gathered neighborhood: the placement or timing changed.
  void reset(const TimingGraph& tg) {
    tg_ = &tg;
    for (CellId c : gathered_) slot_[c.index()] = -1;
    gathered_.clear();
    hoods_.clear();
    nets_.clear();
    fanin_.clear();
    fanout_.clear();
  }

  double cost(CellId cell, Point loc) {
    const Hood& h = hood(cell);
    return opt_.alpha * timing_cost(h, loc) + (1 - opt_.alpha) * wiring_cost(h, loc);
  }

 private:
  /// A live net of the cell: bounding box of its other terminals and q(k).
  struct NetTerm {
    NetId id;
    Rect others;
    double q;
  };
  /// Fanin edge into one of the cell's nodes: arrival(from) and its place.
  struct FaninTerm {
    double arrival;
    Point from;
  };
  /// Fanout edge of the cell's output node.
  struct FanoutTerm {
    Point to;
    double intrinsic;   ///< intrinsic delay of the receiving node
    double downstream;  ///< downstream of the receiving node
  };
  struct Range {
    std::uint32_t begin = 0, end = 0;
  };
  struct Hood {
    Range nets;
    bool has_out = false;
    /// Output node without fanin (a source): its arrival as is.
    bool out_is_source = false;
    double out_arrival = 0;
    double out_intrinsic = 0;
    Range out_fanin, out_fanout;
    bool has_sink = false;
    double sink_intrinsic = 0;
    Range sink_fanin;
  };

  const Hood& hood(CellId cell) {
    if (slot_.size() < nl_.cell_capacity()) slot_.resize(nl_.cell_capacity(), -1);
    int& slot = slot_[cell.index()];
    if (slot < 0) {
      slot = static_cast<int>(hoods_.size());
      gathered_.push_back(cell);
      hoods_.push_back(gather(cell));
    }
    return hoods_[static_cast<std::size_t>(slot)];
  }

  static std::uint32_t size32(std::size_t n) { return static_cast<std::uint32_t>(n); }

  Hood gather(CellId cell) {
    Hood h;
    const TimingGraph& tg = *tg_;
    // Nets: the output, then each input pin's net, duplicates skipped.
    const Cell& c = nl_.cell(cell);
    h.nets.begin = size32(nets_.size());
    auto add_net = [&](NetId nid) {
      if (!nid.valid() || !nl_.net(nid).alive) return;
      for (std::uint32_t i = h.nets.begin; i < nets_.size(); ++i)
        if (nets_[i].id == nid) return;
      const Net& net = nl_.net(nid);
      NetTerm t{nid, Rect{}, net_size_coefficient(net.sinks.size() + 1)};
      if (net.driver != cell) t.others.include(pl_.location(net.driver));
      for (const Sink& s : net.sinks)
        if (s.cell != cell) t.others.include(pl_.location(s.cell));
      nets_.push_back(t);
    };
    add_net(c.output);
    for (NetId n : c.inputs) add_net(n);
    h.nets.end = size32(nets_.size());

    auto gather_fanin = [&](TimingNodeId n) {
      Range r{size32(fanin_.size()), 0};
      for (std::size_t e : tg.fanin_edges(n)) {
        const TimingEdge& ed = tg.edge(e);
        fanin_.push_back({tg.arrival(ed.from), pl_.location(tg.node(ed.from).cell)});
      }
      r.end = size32(fanin_.size());
      return r;
    };
    const TimingNodeId out = tg.out_node(cell);
    const TimingNodeId sink = tg.sink_node(cell);
    if (out.valid()) {
      h.has_out = true;
      h.out_is_source = tg.fanin_edges(out).empty();
      h.out_arrival = tg.arrival(out);
      h.out_intrinsic = tg.node_intrinsic_delay(out);
      h.out_fanin = gather_fanin(out);
      h.out_fanout.begin = size32(fanout_.size());
      for (std::size_t e : tg.fanout_edges(out)) {
        const TimingEdge& ed = tg.edge(e);
        fanout_.push_back({pl_.location(tg.node(ed.to).cell),
                           tg.node_intrinsic_delay(ed.to), tg.downstream(ed.to)});
      }
      h.out_fanout.end = size32(fanout_.size());
    }
    if (sink.valid()) {
      h.has_sink = true;
      h.sink_intrinsic = tg.node_intrinsic_delay(sink);
      h.sink_fanin = gather_fanin(sink);
    }
    return h;
  }

  /// Wiring component: q(k)-corrected HPWL of the cell's nets with the cell
  /// at `loc`.
  double wiring_cost(const Hood& h, Point loc) const {
    double total = 0;
    for (std::uint32_t i = h.nets.begin; i < h.nets.end; ++i) {
      const NetTerm& t = nets_[i];
      Rect bb = t.others;
      bb.include(loc);
      total += t.q * bb.half_perimeter();
    }
    return total;
  }

  /// Latest arrival into a node of the cell (intrinsic delay `intr`) with
  /// the cell at `loc`.
  double arrival_into(Range r, double intr, Point loc) const {
    const LinearDelayModel& dm = tg_->delay_model();
    double a = 0;
    for (std::uint32_t i = r.begin; i < r.end; ++i)
      a = std::max(a, fanin_[i].arrival + dm.wire_delay(fanin_[i].from, loc) + intr);
    return a;
  }

  /// Timing component: squared delay of the slowest path through the cell
  /// with the cell at `loc`, when that delay is within
  /// `near_critical_fraction` of the current critical delay; zero otherwise.
  double timing_cost(const Hood& h, Point loc) const {
    const LinearDelayModel& dm = tg_->delay_model();
    double slowest = 0;
    if (h.has_out) {
      double a = h.out_is_source ? h.out_arrival
                                 : arrival_into(h.out_fanin, h.out_intrinsic, loc);
      double d = 0;
      for (std::uint32_t i = h.out_fanout.begin; i < h.out_fanout.end; ++i) {
        const FanoutTerm& f = fanout_[i];
        d = std::max(d, dm.wire_delay(loc, f.to) + f.intrinsic + f.downstream);
      }
      slowest = std::max(slowest, a + d);
    }
    if (h.has_sink)
      slowest = std::max(slowest, arrival_into(h.sink_fanin, h.sink_intrinsic, loc));

    const double crit = tg_->critical_delay();
    if (crit <= 0 || slowest < (1.0 - opt_.near_critical_fraction) * crit) return 0.0;
    return slowest * slowest;
  }

  const Netlist& nl_;
  const Placement& pl_;
  const LegalizerOptions& opt_;
  const TimingGraph* tg_ = nullptr;
  std::vector<int> slot_;  ///< per cell: index into hoods_, or -1
  std::vector<CellId> gathered_;
  std::vector<Hood> hoods_;
  std::vector<NetTerm> nets_;
  std::vector<FaninTerm> fanin_;
  std::vector<FanoutTerm> fanout_;
};

struct RippleStep {
  CellId cell;
  Point from;
  Point to;
};

/// DP buffers of best_path_to, reused across targets and passes.
struct RippleBuffers {
  std::vector<double> gain;
  std::vector<int> parent;
  std::vector<CellId> moved;  ///< cell that moved INTO each rectangle slot
};

/// Max-gain monotone ripple path from congested slot `c` to free slot `t`,
/// evaluated via DP over the monotone rectangle (Fig. 12). Returns the steps
/// in c-to-t order and the total gain, or nullopt if the rectangle is
/// degenerate.
std::optional<std::pair<std::vector<RippleStep>, double>> best_path_to(
    const Netlist& nl, const Placement& pl, CellCosts& costs, Point c, Point t,
    RippleBuffers& bufs) {
  const int sx = (t.x >= c.x) ? 1 : -1;
  const int sy = (t.y >= c.y) ? 1 : -1;
  const int nx = std::abs(t.x - c.x);
  const int ny = std::abs(t.y - c.y);

  // grid-local indexing over the (nx+1) x (ny+1) rectangle.
  auto at = [&](int i, int j) { return Point{c.x + sx * i, c.y + sy * j}; };
  auto idx = [&](int i, int j) { return j * (nx + 1) + i; };
  const std::size_t cells_in_rect = static_cast<std::size_t>(nx + 1) * (ny + 1);

  std::vector<double>& gain = bufs.gain;
  std::vector<int>& parent = bufs.parent;
  std::vector<CellId>& moved = bufs.moved;
  gain.assign(cells_in_rect, kNegInf);
  parent.assign(cells_in_rect, -1);
  moved.assign(cells_in_rect, CellId::invalid());
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
      // Expand one step toward t in x (dir 0) and in y (dir 1). The moving
      // cell is the first occupant of `up` with the best gain for that step.
      Point wp[2];
      bool open[2];
      for (int dir = 0; dir < 2; ++dir) {
        const int ni = i + (dir == 0 ? 1 : 0);
        const int nj = j + (dir == 1 ? 1 : 0);
        wp[dir] = at(ni, nj);
        open[dir] = ni <= nx && nj <= ny && pl.grid().is_logic(wp[dir]);
      }
      if (!open[0] && !open[1]) continue;
      double best_edge[2] = {kNegInf, kNegInf};
      CellId best_cell[2];
      for (CellId occ : pl.cells_at(up)) {
        if (!nl.cell_alive(occ)) continue;
        const double here = costs.cost(occ, up);
        for (int dir = 0; dir < 2; ++dir) {
          if (!open[dir]) continue;
          const double g = here - costs.cost(occ, wp[dir]);
          if (g > best_edge[dir]) {
            best_edge[dir] = g;
            best_cell[dir] = occ;
          }
        }
      }
      for (int dir = 0; dir < 2; ++dir) {
        if (!best_cell[dir].valid()) continue;
        const int w = idx(i + (dir == 0 ? 1 : 0), j + (dir == 1 ? 1 : 0));
        if (gain[u] + best_edge[dir] > gain[w]) {
          gain[w] = gain[u] + best_edge[dir];
          parent[w] = u;
          moved[w] = best_cell[dir];
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

/// First overfull slot at or after slot index *from in row-major (y, x)
/// order, the paper's scan order ("we pick the first one we encounter while
/// we scan the placement for overlaps"); (-1, -1) when there is none. *from
/// is left on the slot found, where the next scan resumes.
Point next_overfull(const Placement& pl, std::size_t* from) {
  const FpgaGrid& grid = pl.grid();
  const int e = grid.extent();
  int x = static_cast<int>(*from % e);
  for (int y = static_cast<int>(*from / e); y < e; ++y, x = 0)
    for (; x < e; ++x)
      if (pl.overuse(Point{x, y}) > 0) {
        *from = grid.slot_at(Point{x, y}).index();
        return Point{x, y};
      }
  *from = grid.num_locations();
  return Point{-1, -1};
}

}  // namespace

std::vector<Point> quadrant_free_slots(const Placement& pl, Point c) {
  const FpgaGrid& grid = pl.grid();
  const int n = grid.n();
  // Logic-slot range on each side of c: [lo, hi] for bit 0 (x) and bit 1 (y)
  // of the quadrant index; an empty range has lo > hi.
  const int x_lo[2] = {1, std::max(c.x, 1)}, x_hi[2] = {std::min(c.x - 1, n), n};
  const int y_lo[2] = {1, std::max(c.y, 1)}, y_hi[2] = {std::min(c.y - 1, n), n};
  // Farthest slot of each quadrant: no ring past it holds its winner.
  int reach[4];
  for (int q = 0; q < 4; ++q) {
    const int b = q & 1, t = q >> 1;
    reach[q] = (x_lo[b] > x_hi[b] || y_lo[t] > y_hi[t])
                   ? 0
                   : std::max(std::abs(x_lo[b] - c.x), std::abs(x_hi[b] - c.x)) +
                         std::max(std::abs(y_lo[t] - c.y), std::abs(y_hi[t] - c.y));
  }

  Point best[4];
  bool found[4] = {false, false, false, false};
  for (int d = 1;; ++d) {
    // How far to go, and on which side of row c.y, for the open quadrants.
    int limit = 0;
    bool want_below = false, want_above = false;
    for (int q = 0; q < 4; ++q) {
      if (found[q] || reach[q] < d) continue;
      limit = std::max(limit, reach[q]);
      ((q >> 1) ? want_above : want_below) = true;
    }
    if (limit < d) break;
    // Within one distance, ascending y and then ascending x: the row-major
    // order of a full scan, whose first hit at the minimal distance wins.
    const int y0 = std::max(want_below ? c.y - d : c.y, 1);
    const int y1 = std::min(want_above ? c.y + d : c.y - 1, n);
    for (int y = y0; y <= y1; ++y) {
      const int r = d - std::abs(y - c.y);
      const int xs[2] = {c.x - r, c.x + r};
      for (int k = 0; k < (r == 0 ? 1 : 2); ++k) {
        const Point p{xs[k], y};
        if (p.x < 1 || p.x > n) continue;
        const int q = (p.x >= c.x ? 1 : 0) | (p.y >= c.y ? 2 : 0);
        if (found[q] || pl.occupancy(p) >= grid.capacity(p)) continue;
        best[q] = p;
        found[q] = true;
      }
    }
  }
  std::vector<Point> out;
  for (int q = 0; q < 4; ++q)
    if (found[q]) out.push_back(best[q]);
  return out;
}

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
  CellCosts costs(nl, pl, opt);
  RippleBuffers bufs;

  // No pass makes a slot overfull: a ripple fills only the slot its next
  // cell just left and, at its end, a free slot; a unification only removes
  // cells; a pad fix fills a free pad slot. So the slots before the last
  // congested one stay legal and each scan resumes there.
  std::size_t scan_from = 0;
  for (int pass = 0; pass < opt.max_passes; ++pass) {
    Point congested{-1, -1};
    if (!opt.sole_overfull)
      congested = next_overfull(pl, &scan_from);
    else if (pl.overuse(*opt.sole_overfull) > 0)
      congested = *opt.sole_overfull;
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
    costs.reset(tg);
    for (Point t : targets) {
      auto r = best_path_to(nl, pl, costs, congested, t, bufs);
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
