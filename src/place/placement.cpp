#include "place/placement.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

namespace repro {

Placement::Placement(const Netlist& nl, const FpgaGrid& grid) : nl_(&nl), grid_(&grid) {
  loc_.resize(nl.cell_capacity(), Point{-1, -1});
  placed_.resize(nl.cell_capacity(), 0);
  occupants_.resize(grid.num_locations());
}

void Placement::place(CellId c, Point p) {
  // Coordinates can come from untrusted sources (placement files, snapshots);
  // silently indexing occupants_ out of bounds would corrupt the occupant
  // lists, so reject instead of assert-only.
  if (!grid_->in_array(p)) {
    std::ostringstream err;
    err << "placement: point " << p << " outside the " << grid_->extent() << "x"
        << grid_->extent() << " array";
    throw std::out_of_range(err.str());
  }
  // Grow per-cell arrays if the netlist gained cells (replication) since
  // this placement was constructed.
  if (c.index() >= loc_.size()) {
    loc_.resize(nl_->cell_capacity(), Point{-1, -1});
    placed_.resize(nl_->cell_capacity(), 0);
  }
  if (placed_[c.index()]) unplace(c);
  loc_[c.index()] = p;
  placed_[c.index()] = 1;
  occupants_[grid_->slot_at(p).index()].push_back(c);
}

void Placement::unplace(CellId c) {
  if (c.index() >= placed_.size() || !placed_[c.index()]) return;
  auto& occ = occupants_[grid_->slot_at(loc_[c.index()]).index()];
  occ.erase(std::remove(occ.begin(), occ.end(), c), occ.end());
  placed_[c.index()] = 0;
  loc_[c.index()] = Point{-1, -1};
}

bool Placement::compatible(CellId c, Point p) const {
  const Cell& cell = nl_->cell(c);
  if (cell.kind == CellKind::kLogic) return grid_->is_logic(p);
  return grid_->is_io(p);
}

std::string Placement::check_legal() const {
  std::ostringstream err;
  for (CellId c : nl_->live_cell_ids()) {
    if (c.index() >= placed_.size() || !placed_[c.index()]) {
      err << "cell " << nl_->cell(c).name << " unplaced";
      return err.str();
    }
    if (!compatible(c, loc_[c.index()])) {
      err << "cell " << nl_->cell(c).name << " on incompatible location " << loc_[c.index()];
      return err.str();
    }
  }
  for (int y = 0; y < grid_->extent(); ++y)
    for (int x = 0; x < grid_->extent(); ++x) {
      Point p{x, y};
      // Count only live cells (dead cells should have been unplaced, but be
      // robust).
      int live = 0;
      for (CellId c : cells_at(p))
        if (nl_->cell_alive(c)) ++live;
      if (live > grid_->capacity(p)) {
        err << "location " << p << " over capacity: " << live << " > " << grid_->capacity(p);
        return err.str();
      }
    }
  return {};
}

std::vector<Point> Placement::overfull_locations() const {
  std::vector<Point> out;
  for (int y = 0; y < grid_->extent(); ++y)
    for (int x = 0; x < grid_->extent(); ++x) {
      Point p{x, y};
      if (overuse(p) > 0) out.push_back(p);
    }
  return out;
}

std::vector<Point> Placement::free_logic_locations() const {
  std::vector<Point> out;
  for (Point p : grid_->logic_locations())
    if (occupancy(p) < grid_->capacity(p)) out.push_back(p);
  return out;
}

std::vector<Point> Placement::net_terminals(NetId n) const {
  const Net& net = nl_->net(n);
  std::vector<Point> pts;
  pts.reserve(net.sinks.size() + 1);
  assert(placed_[net.driver.index()]);
  pts.push_back(loc_[net.driver.index()]);
  for (const Sink& s : net.sinks) {
    assert(placed_[s.cell.index()]);
    pts.push_back(loc_[s.cell.index()]);
  }
  return pts;
}

Rect Placement::net_bbox(NetId n) const {
  // Allocation-free: this sits on the annealer's per-move hot path, so it
  // must not materialize the terminal list the way net_terminals() does.
  const Net& net = nl_->net(n);
  Rect bb;
  assert(placed_[net.driver.index()]);
  bb.include(loc_[net.driver.index()]);
  for (const Sink& s : net.sinks) {
    assert(placed_[s.cell.index()]);
    bb.include(loc_[s.cell.index()]);
  }
  return bb;
}

double Placement::net_wirelength(NetId n) const {
  const Net& net = nl_->net(n);
  if (net.sinks.empty()) return 0.0;
  return estimate_wirelength(net_bbox(n), net.sinks.size() + 1);
}

Placement Placement::with_netlist(const Netlist& nl) const {
  Placement out(nl, *grid_);
  out.loc_ = loc_;
  out.placed_ = placed_;
  out.occupants_ = occupants_;
  // If the new netlist has more id slots than this placement tracked, grow.
  out.loc_.resize(nl.cell_capacity(), Point{-1, -1});
  out.placed_.resize(nl.cell_capacity(), 0);
  return out;
}

double Placement::total_wirelength() const {
  WirelengthSum total;
  for (NetId n : nl_->live_net_ids()) total.add(net_wirelength(n));
  return total.value();
}

}  // namespace repro
