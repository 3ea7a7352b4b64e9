#pragma once

#include <string>
#include <vector>

#include "arch/fpga_grid.h"
#include "arch/wirelength.h"
#include "netlist/netlist.h"
#include "util/geometry.h"
#include "util/ids.h"

namespace repro {

/// Cell-to-location assignment on an FpgaGrid.
///
/// The structure deliberately tolerates *illegal* intermediate states
/// (overfull locations): the paper's flow embeds replication trees allowing
/// overlaps and then invokes the timing-driven legalizer (Section II-A,
/// approach 2). legal() / overfull_locations() expose the violations.
class Placement {
 public:
  Placement(const Netlist& nl, const FpgaGrid& grid);

  const Netlist& netlist() const { return *nl_; }
  const FpgaGrid& grid() const { return *grid_; }

  /// Cells beyond the tracked range (added to the netlist after this
  /// placement was built and never placed) read as unplaced rather than
  /// indexing out of bounds.
  bool placed(CellId c) const {
    return c.index() < placed_.size() && placed_[c.index()];
  }
  Point location(CellId c) const {
    return c.index() < loc_.size() ? loc_[c.index()] : Point{-1, -1};
  }

  /// Places (or moves) a cell. Capacity is NOT enforced here, but the point
  /// must lie inside the grid array (throws std::out_of_range otherwise —
  /// coordinates may come from untrusted placement files or snapshots).
  void place(CellId c, Point p);
  void unplace(CellId c);

  /// Cells currently at location p (unspecified order).
  const std::vector<CellId>& cells_at(Point p) const {
    return occupants_[grid_->slot_at(p).index()];
  }
  int occupancy(Point p) const {
    return static_cast<int>(occupants_[grid_->slot_at(p).index()].size());
  }
  /// occupancy - capacity (positive means congested).
  int overuse(Point p) const { return occupancy(p) - grid_->capacity(p); }

  /// Every live cell placed on a kind-compatible location within capacity.
  /// Returns empty string if legal, else a description of the first problem.
  std::string check_legal() const;
  bool legal() const { return check_legal().empty(); }

  std::vector<Point> overfull_locations() const;
  /// Free logic locations (occupancy < capacity), optionally restricted to a
  /// rectangle.
  std::vector<Point> free_logic_locations() const;

  /// Terminals (driver first, then sinks) of a net; all must be placed.
  std::vector<Point> net_terminals(NetId n) const;
  /// Bounding box of a net's placed terminals.
  Rect net_bbox(NetId n) const;
  /// q(k)-corrected HPWL of one net.
  double net_wirelength(NetId n) const;
  /// Sum of net_wirelength over all live nets with >= 2 terminals: the
  /// exact sum rounded once (WirelengthSum), so it does not depend on the
  /// order the nets are visited in, and a running total kept per net (the
  /// ECO session's) reads bit-equal to it.
  double total_wirelength() const;

  /// True if location p can accept a cell of this kind (regardless of
  /// current occupancy).
  bool compatible(CellId c, Point p) const;

  /// Copy of this placement rebound to another Netlist object (which must
  /// have the same cell id space — e.g. a snapshot copy of the netlist).
  /// Used by the flow to checkpoint the best solution seen (Section V-D).
  Placement with_netlist(const Netlist& nl) const;

 private:
  /// Binary checkpoint I/O (src/serve/snapshot.cpp): occupant-list order is
  /// consulted by downstream RNG-driven code (annealer swaps), so resume
  /// restores it exactly instead of re-placing cells in id order.
  friend struct SnapshotAccess;
  /// Audit fault injection (src/audit/fault_inject.h): corrupts occupant
  /// lists to prove the auditor's placement checks catch it.
  friend struct AuditFaultInjector;

  const Netlist* nl_;
  const FpgaGrid* grid_;
  std::vector<Point> loc_;
  std::vector<char> placed_;
  std::vector<std::vector<CellId>> occupants_;
};

}  // namespace repro
