#pragma once

#include <optional>
#include <string>
#include <vector>

#include "arch/delay_model.h"
#include "netlist/netlist.h"
#include "place/placement.h"

namespace repro {

class TimingEngine;

/// Options for the timing-driven ripple-move legalizer (Section V-A).
struct LegalizerOptions {
  /// Composite cost weight: C = alpha * C_T + (1 - alpha) * C_W.
  /// The paper uses 0.95 ("the main goal ... was to improve timing").
  double alpha = 0.95;
  /// A cell's timing cost is nonzero only when the slowest path through it is
  /// within this fraction of the critical delay (paper: 40%).
  double near_critical_fraction = 0.4;
  /// Safety bound on legalization passes (one pass resolves one overlap).
  int max_passes = 100000;
  /// Set by a caller that knows this is the only overfull slot (an ECO move
  /// onto a legal placement): the legalizer then never scans the grid for
  /// overlaps. Results are those of the scan, which would find only it.
  std::optional<Point> sole_overfull;
};

/// One Placement::place() call made by the legalizer.
struct LegalizerMove {
  CellId cell;
  Point to;
};

struct LegalizerResult {
  bool success = false;  ///< all overlaps resolved
  int ripple_moves = 0;  ///< number of single-slot cell moves performed
  int overlaps_resolved = 0;
  int unifications = 0;  ///< cells removed by mid-ripple unification
  /// Every cell moved (ripple moves and I/O-overflow fixes), in call order:
  /// replaying them on a copy of the input placement reproduces the output
  /// when nothing was unified.
  std::vector<LegalizerMove> moves;
  std::string failure;   ///< empty on success; diagnostic otherwise
};

/// Resolves placement overlaps by timing-driven ripple moves, adapted from
/// Mongrel's ripple strategy as described in Section V-A:
///
///   * find the first congested location;
///   * find up to four closest free slots (one per quadrant);
///   * build the gain graph over monotone paths toward those slots, each edge
///     labeled with the composite (timing + wiring) gain of moving its cell
///     one slot toward the target;
///   * execute the max-gain path, moving each cell exactly one slot;
///   * if a ripple lands a cell on a logically equivalent cell, unify them
///     and end the pass.
///
/// May mutate the netlist (unification deletes redundant cells). Fails only
/// if no free slot exists for a remaining overlap.
///
/// With `eng` the legalizer runs against the shared incremental timing
/// engine: ripple moves and unifications are reported as deltas and re-timed
/// via dirty-cone updates instead of from-scratch TimingGraph rebuilds.
/// Without it, a private TimingGraph is built (standalone use).
LegalizerResult legalize_timing_driven(Netlist& nl, Placement& pl,
                                       const LinearDelayModel& dm,
                                       const LegalizerOptions& opt = {},
                                       TimingEngine* eng = nullptr);

/// The nearest free logic slot in each quadrant around `c` (Section V-A: "up
/// to four closest free slots, one in each quadrant"). Quadrant q holds the
/// slots with (x >= c.x) == bit 0 of q and (y >= c.y) == bit 1, so axis ties
/// go to the positive side; slots come out in ascending q, one per quadrant
/// that has a free slot. Within a quadrant the smallest Manhattan distance
/// wins, then the smallest (y, x). The search walks rings outward from `c`,
/// so it costs the area up to the farthest winner, not the whole grid.
std::vector<Point> quadrant_free_slots(const Placement& pl, Point c);

}  // namespace repro
