#pragma once

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "arch/delay_model.h"
#include "netlist/netlist.h"
#include "place/placement.h"
#include "util/ids.h"

namespace repro {

/// Criticality-exponent weighting shared by every consumer that turns an
/// edge/connection criticality in [0,1] into an optimization weight
/// (T-VPlace's Timing-cost term and the timing-driven router's connection
/// ordering). Hoisted here so the annealer and the router agree on one
/// definition instead of each computing pow() locally.
inline double criticality_weight(double criticality, double exponent) {
  return std::pow(criticality, exponent);
}

/// Node kinds in the timing graph.
enum class TimingNodeKind : std::uint8_t {
  kSource,  ///< Timing start point: input pad output, or flip-flop Q.
  kComb,    ///< Output of an unregistered logic cell.
  kSink,    ///< Timing end point: output pad input, or flip-flop D.
};

struct TimingNode {
  TimingNodeKind kind;
  CellId cell;  ///< The cell this node belongs to.
};

struct TimingEdge {
  TimingNodeId from;
  TimingNodeId to;
  /// The netlist connection this edge models: input pin `pin` of cell(to).
  int pin;
  /// Total edge delay: interconnect + the receiving block's intrinsic delay.
  double delay;
};

/// Placement-annotated timing graph with static timing analysis.
///
/// Structure: one node per cell output; registered logic cells contribute two
/// nodes (Q as a start point, D as an end point); output pads contribute a
/// sink node. Each net connection becomes an edge whose delay = linear
/// interconnect delay over the placed Manhattan distance plus the receiving
/// block's intrinsic (LUT / pad) delay — exactly the VPR placement-level
/// estimator the paper uses (Section II-B).
class TimingGraph {
 public:
  TimingGraph(const Netlist& nl, const Placement& pl, const LinearDelayModel& model);

  // ---- structure -----------------------------------------------------------

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_edges() const { return edges_.size(); }
  const TimingNode& node(TimingNodeId n) const { return nodes_[n.index()]; }
  const TimingEdge& edge(std::size_t e) const { return edges_[e]; }

  /// False for edge slots freed by the incremental TimingEngine (netlist
  /// deltas recycle edge storage in place). A freshly built graph has no dead
  /// slots; consumers that scan the raw edge range must skip dead ones.
  bool edge_live(std::size_t e) const { return edges_[e].from.valid(); }
  /// Same for node slots freed after a cell deletion.
  bool node_live(TimingNodeId n) const { return nodes_[n.index()].cell.valid(); }

  /// Node representing the cell's output signal (invalid for output pads).
  TimingNodeId out_node(CellId c) const { return out_node_[c.index()]; }
  /// End-point node of the cell (valid for output pads and registered logic).
  TimingNodeId sink_node(CellId c) const { return sink_node_[c.index()]; }

  const std::vector<std::size_t>& fanin_edges(TimingNodeId n) const {
    return fanin_[n.index()];
  }
  const std::vector<std::size_t>& fanout_edges(TimingNodeId n) const {
    return fanout_[n.index()];
  }
  const std::vector<TimingNodeId>& sinks() const { return sink_nodes_; }

  // ---- analysis ------------------------------------------------------------

  /// Recomputes edge delays from current placement, then runs forward
  /// (arrival) and backward (downstream / required) passes.
  void run_sta();

  /// Optional override of interconnect lengths, used to re-time the design
  /// with *routed* wire lengths instead of placed Manhattan distances.
  /// The function receives (sink cell, pin, placed Manhattan distance) and
  /// returns the wire length to use. Pass nullptr to restore the default.
  using WireLengthFn = std::function<int(CellId, int, int)>;
  void set_wire_length_override(WireLengthFn fn) { wire_length_fn_ = std::move(fn); }

  double critical_delay() const { return critical_delay_; }
  TimingNodeId critical_sink() const { return critical_sink_; }

  double arrival(TimingNodeId n) const { return arrival_[n.index()]; }
  /// Longest delay from n to any timing end point.
  double downstream(TimingNodeId n) const { return downstream_[n.index()]; }
  /// Required arrival for target = critical delay.
  double required(TimingNodeId n) const { return critical_delay_ - downstream_[n.index()]; }
  double slack(TimingNodeId n) const { return required(n) - arrival(n); }
  /// Delay of the slowest path passing through n.
  double slowest_path_through(TimingNodeId n) const {
    return arrival_[n.index()] + downstream_[n.index()];
  }
  /// Delay of the slowest path through a cell (max over its nodes); used by
  /// the legalizer's timing cost.
  double slowest_path_through_cell(CellId c) const;

  /// VPR edge criticality in [0,1]: 1 - slack(e) / Dmax.
  double edge_criticality(std::size_t e) const;
  double edge_slack(std::size_t e) const;

  /// The critical path as a node sequence from a start point to the critical
  /// sink (inclusive).
  std::vector<TimingNodeId> critical_path() const;

  /// Intrinsic delay charged on edges into this node (LUT/pad delay).
  double node_intrinsic_delay(TimingNodeId n) const;

  const LinearDelayModel& delay_model() const { return *model_; }
  const Placement& placement() const { return *pl_; }
  const Netlist& netlist() const { return *nl_; }

 private:
  /// The incremental engine mutates the graph in place (splicing nodes and
  /// edges for netlist deltas, patching arrival/downstream over dirty cones)
  /// while consumers keep reading through the const interface above.
  friend class TimingEngine;

  void build();
  void compute_edge_delays();
  void topo_sort();

  const Netlist* nl_;
  const Placement* pl_;
  const LinearDelayModel* model_;

  std::vector<TimingNode> nodes_;
  std::vector<TimingEdge> edges_;
  std::vector<std::vector<std::size_t>> fanin_;
  std::vector<std::vector<std::size_t>> fanout_;
  std::vector<TimingNodeId> out_node_;
  std::vector<TimingNodeId> sink_node_;
  std::vector<TimingNodeId> sink_nodes_;
  std::vector<TimingNodeId> topo_;

  WireLengthFn wire_length_fn_;
  std::vector<double> arrival_;
  std::vector<double> downstream_;
  double critical_delay_ = 0;
  TimingNodeId critical_sink_;
};

}  // namespace repro
