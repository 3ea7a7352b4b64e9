#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "arch/delay_model.h"
#include "netlist/netlist.h"
#include "place/placement.h"
#include "util/cancel.h"
#include "util/ids.h"

namespace repro {

/// Options for the negotiated-congestion (PathFinder-style) router.
struct RouterOptions {
  /// Channel width (tracks per channel). <= 0 means infinite resources —
  /// the paper's W-infinity evaluation mode.
  int channel_width = 0;
  int max_iterations = 30;
  /// Present-congestion penalty growth per iteration.
  double present_factor_initial = 0.5;
  double present_factor_mult = 1.6;
  /// History cost increment for overused edges.
  double history_increment = 1.0;

  // The three fast-path switches below (use_astar, incremental_reroute,
  // warm_start_wmin) stay on in every production flow. false selects the
  // conservative path, kept as the test oracle of the Router.*Matches* tests
  // and RouterSweep.WminAgreesAcrossSearchModes and as a microbench_router
  // config. Snapshots serialize all three.

  /// A* directed expansion: add an admissible lookahead (per-step lower-bound
  /// cost x Manhattan distance to the sink) to the maze search priority. With
  /// astar_factor == 1.0 the lookahead is admissible and consistent, so path
  /// costs are identical to plain Dijkstra (see verify_lookahead); it only
  /// prunes expansion order.
  bool use_astar = true;
  /// Lookahead weight. 1.0 = admissible/exact; > 1.0 trades optimality for
  /// speed (VPR's astar_fac). Keep at 1.0 for reproducible quality.
  double astar_factor = 1.0;

  /// Incremental negotiation: after the first iteration rip up and reroute
  /// only nets that touch an overused edge (VPR's "reroute only illegal
  /// nets") instead of every net every iteration.
  bool incremental_reroute = true;
  /// Pass-budget multiplier in incremental mode. Incremental endgame passes
  /// touch a handful of nets (an order of magnitude cheaper than full
  /// reroute passes), but resolving the last overused edge via history
  /// buildup can take more of them; without the larger budget the
  /// incremental router concedes widths the full-reroute router can
  /// legalize. The stall abort still cuts genuinely unroutable widths short.
  double incremental_iterations_mult = 3.0;

  /// Warm-started W_min search: find_min_channel_width() keeps one
  /// PathFinder alive across binary-search probes, reusing routes and decayed
  /// history as the starting point for the next width.
  bool warm_start_wmin = true;
  /// History scaling applied between warm-started W_min probes.
  double warm_history_decay = 0.5;

  /// Stall detector: declare a negotiation failed when the best overused-edge
  /// count of the last `stall_abort_window` passes is no better than that of
  /// the window before it (0 = never abort early, always run max_iterations).
  /// Only fires while more than `stall_abort_min_overused` edges are overused:
  /// low-overuse endgames converge slowly but reliably via history buildup,
  /// while high-overuse plateaus indicate an unroutable width. Failing W_min
  /// probes dominate the search cost, so this is the main probe shortener.
  int stall_abort_window = 2;
  int stall_abort_min_overused = 8;

  /// Budget of maze node expansions per connection (-1 = unlimited). When a
  /// connection exhausts the budget it is recorded as unrouted and the
  /// result is marked unsuccessful — never silently skipped.
  std::int64_t max_expansions_per_connection = -1;

  /// Post-run self-check: recompute edge occupancy from the committed routes
  /// and verify it matches the incremental bookkeeping; verify success
  /// implies zero overused edges and zero unrouted connections. Aborts on
  /// violation. Always on in debug builds; set true to enable in release.
  bool self_check = false;

  /// Testing hook: run a reference Dijkstra (no lookahead) before every A*
  /// maze search and count cost mismatches in
  /// RoutingResult::lookahead_mismatches. Doubles the search work.
  bool verify_lookahead = false;

  /// Cooperative cancellation (flow service stage timeouts): checked once
  /// per negotiation pass, including every W_min probe pass; throws
  /// FlowCancelled.
  const CancelToken* cancel = nullptr;
};

/// Routed source-to-sink wire lengths, keyed by (sink cell, input pin), in a
/// flat array. length_of() sits on the hot path of
/// retime_with_wire_lengths() — one lookup per timing edge — so this
/// replaces the previous unordered_map with O(1) indexed access.
class ConnectionLengths {
 public:
  /// Input pins per cell: up to kMaxLutInputs LUT pins; pad pin 0. Rounded
  /// up to a power of two so slot_index is a shift+add.
  static constexpr int kPinsPerCell = 8;
  static_assert(kPinsPerCell >= Netlist::kMaxLutInputs + 1);

  void reset(std::size_t num_cells) {
    lengths_.assign(num_cells * kPinsPerCell, -1);
    count_ = 0;
  }

  /// Records the routed length (>= 0) of a connection, or -1 to mark it
  /// unrouted/absent.
  void set(CellId cell, int pin, int length) {
    std::int32_t& slot = lengths_[slot_index(cell, pin)];
    if (slot < 0 && length >= 0) ++count_;
    if (slot >= 0 && length < 0) --count_;
    slot = length;
  }

  /// Routed length of a connection, or -1 if absent.
  int get(CellId cell, int pin) const {
    const std::size_t i = slot_index(cell, pin);
    if (pin < 0 || pin >= kPinsPerCell || i >= lengths_.size()) return -1;
    return lengths_[i];
  }

  /// Number of connections with a recorded (routed) length.
  std::size_t size() const { return count_; }

  bool operator==(const ConnectionLengths&) const = default;

 private:
  static std::size_t slot_index(CellId cell, int pin) {
    return cell.index() * kPinsPerCell + static_cast<std::size_t>(pin);
  }

  std::vector<std::int32_t> lengths_;
  std::size_t count_ = 0;
};

/// Per-negotiation-pass work counters (hardware-independent observability).
struct RouterPassStats {
  int nets_rerouted = 0;
  int overused_edges = 0;        ///< overused channel edges after this pass
  int unrouted_connections = 0;  ///< connections left unrouted after this pass
  std::uint64_t heap_pushes = 0;
  std::uint64_t heap_pops = 0;
  std::uint64_t nodes_expanded = 0;  ///< non-stale heap pops (real work)

  bool operator==(const RouterPassStats&) const = default;
};

/// Result of routing one netlist.
struct RoutingResult {
  bool success = false;  ///< no overused channel and no unrouted connection
  int iterations = 0;    ///< negotiation passes executed (0 = warm state clean)
  std::int64_t total_wirelength = 0;  ///< total channel segments used
  int max_channel_occupancy = 0;  ///< peak per-edge usage (useful for W_inf)
  int unrouted_connections = 0;   ///< sinks the maze search could not reach
  /// Routed source-to-sink wire length per connection.
  ConnectionLengths connection_length;

  // ---- audit export --------------------------------------------------------
  // The committed routes and the router's incremental bookkeeping, exported
  // so the audit subsystem (src/audit) can re-derive occupancy from the
  // per-net route trees and cross-check the two independently of the
  // router's internal self_check.

  /// Channel edges used by each net's committed route tree, indexed by net
  /// id (empty for unrouted or sink-less nets). Edge ids index the channel
  /// graph of the placement's grid: 2 * extent * (extent - 1) edges total.
  std::vector<std::vector<std::int32_t>> net_route_edges;
  /// Per-edge occupancy as tracked incrementally during negotiation.
  std::vector<std::int32_t> edge_occupancy;
  /// Per-net flag: the router committed a route for this net.
  std::vector<char> net_routed;
  /// Per-net count of sinks the maze search could not reach.
  std::vector<std::int32_t> net_unrouted;
  /// Channel capacity this result was produced at (0 = infinite resources).
  int channel_capacity = 0;

  /// Per-pass and whole-run work counters.
  std::vector<RouterPassStats> pass_stats;
  std::uint64_t heap_pushes = 0;
  std::uint64_t heap_pops = 0;
  std::uint64_t nodes_expanded = 0;
  /// A*-vs-Dijkstra cost disagreements (only with verify_lookahead).
  std::uint64_t lookahead_mismatches = 0;

  int length_of(CellId sink, int pin, int fallback) const {
    const int len = connection_length.get(sink, pin);
    return len < 0 ? fallback : len;
  }
};

/// Work counters of one find_min_channel_width() binary search.
struct WminProbeStats {
  int width = 0;  ///< 0 = the seeding infinite-resource run
  bool success = false;
  bool warm = false;  ///< reused the persistent PathFinder state
  int passes = 0;
  std::uint64_t nodes_expanded = 0;
};

struct WminSearchStats {
  int lower_bound = 0;  ///< bbox cut-density lower bound on W_min
  int upper_bound = 0;  ///< infinite-resource peak occupancy (always routable)
  int wmin = 0;
  /// Widths re-tried because the final cold verification failed (a
  /// warm-started probe legalized a width a from-scratch route could not).
  int cold_verify_retries = 0;
  std::vector<WminProbeStats> probes;
  std::uint64_t nodes_expanded = 0;
  std::uint64_t heap_pushes = 0;
  std::uint64_t heap_pops = 0;
};

/// Per-connection timing criticality in [0,1] used by the router to trade
/// wirelength sharing against source-to-sink path length (VPR-style
/// timing-driven routing). Null = purely congestion-driven.
using ConnectionCriticalityFn = std::function<double(CellId sink, int pin)>;

/// Routes all nets of a placed netlist over the grid's channel graph.
///
/// Model: routing resources are the channels between adjacent grid locations
/// (4-neighbor); each channel holds `channel_width` tracks. A net is routed
/// as a Steiner tree grown sink-by-sink with congestion-aware maze expansion
/// (A*-directed by default); PathFinder negotiation (present + history
/// costs) resolves overuse across iterations, ripping up only illegal nets
/// after the first pass. With a criticality function, critical connections
/// minimize their source-to-sink tree length (attaching near the driver)
/// while non-critical ones share freely — reproducing the mechanism behind
/// the paper's W_ls vs W_infinity comparison: under low-stress capacities,
/// congested channels force detours that lengthen near-critical connections.
RoutingResult route(const Netlist& nl, const Placement& pl, const RouterOptions& opt,
                    const ConnectionCriticalityFn& criticality = nullptr);

/// Smallest channel width that routes successfully. Binary search seeded by
/// the infinite-resource peak occupancy (upper bound) and a bbox cut-density
/// bound (lower bound); with opt.warm_start_wmin the probes share one
/// persistent PathFinder whose routes and decayed history warm-start each
/// width, and the returned width is verified with a from-scratch route so it
/// is always reproducible by route(). Pass `stats` to collect the search's
/// hardware-independent work counters.
int find_min_channel_width(const Netlist& nl, const Placement& pl,
                           const RouterOptions& base_opt = {},
                           WminSearchStats* stats = nullptr);

/// Post-route evaluation: reruns STA with routed wire lengths and returns
/// the routed critical-path delay.
double routed_critical_delay(const Netlist& nl, const Placement& pl,
                             const LinearDelayModel& dm, const RoutingResult& routing);

class TimingEngine;

/// Same, on a shared timing engine: re-times with the routed wire lengths,
/// reads the critical delay, and restores placement-estimated delays —
/// avoiding a from-scratch TimingGraph build per evaluation.
double routed_critical_delay(TimingEngine& eng, const RoutingResult& routing);

}  // namespace repro
