#include "timing/timing_graph.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/stats.h"

namespace repro {

TimingGraph::TimingGraph(const Netlist& nl, const Placement& pl,
                         const LinearDelayModel& model)
    : nl_(&nl), pl_(&pl), model_(&model) {
  if (!TimingCounterSuppressor::active()) ++timing_counters().graph_builds;
  build();
  topo_sort();
  run_sta();
}

void TimingGraph::build() {
  out_node_.assign(nl_->cell_capacity(), TimingNodeId::invalid());
  sink_node_.assign(nl_->cell_capacity(), TimingNodeId::invalid());

  auto add_node = [&](TimingNodeKind kind, CellId cell) {
    TimingNodeId id(static_cast<TimingNodeId::value_type>(nodes_.size()));
    nodes_.push_back(TimingNode{kind, cell});
    return id;
  };

  for (CellId c : nl_->live_cell_ids()) {
    const Cell& cell = nl_->cell(c);
    switch (cell.kind) {
      case CellKind::kInputPad:
        out_node_[c.index()] = add_node(TimingNodeKind::kSource, c);
        break;
      case CellKind::kOutputPad:
        sink_node_[c.index()] = add_node(TimingNodeKind::kSink, c);
        break;
      case CellKind::kLogic:
        if (cell.registered) {
          out_node_[c.index()] = add_node(TimingNodeKind::kSource, c);
          sink_node_[c.index()] = add_node(TimingNodeKind::kSink, c);
        } else {
          out_node_[c.index()] = add_node(TimingNodeKind::kComb, c);
        }
        break;
    }
  }

  fanin_.resize(nodes_.size());
  fanout_.resize(nodes_.size());

  for (CellId c : nl_->live_cell_ids()) {
    const Cell& cell = nl_->cell(c);
    // The receiving node of cell c: for combinational logic its output node,
    // for registered logic / output pads its sink node.
    TimingNodeId to = (cell.kind == CellKind::kLogic && !cell.registered)
                          ? out_node_[c.index()]
                          : sink_node_[c.index()];
    if (!to.valid()) continue;  // input pads receive nothing
    for (int pin = 0; pin < static_cast<int>(cell.inputs.size()); ++pin) {
      NetId n = cell.inputs[pin];
      assert(n.valid());
      CellId drv = nl_->net(n).driver;
      TimingNodeId from = out_node_[drv.index()];
      assert(from.valid());
      std::size_t e = edges_.size();
      edges_.push_back(TimingEdge{from, to, pin, 0.0});
      fanout_[from.index()].push_back(e);
      fanin_[to.index()].push_back(e);
    }
  }

  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (nodes_[i].kind == TimingNodeKind::kSink)
      sink_nodes_.push_back(TimingNodeId(static_cast<TimingNodeId::value_type>(i)));
}

double TimingGraph::node_intrinsic_delay(TimingNodeId n) const {
  const TimingNode& node = nodes_[n.index()];
  const Cell& cell = nl_->cell(node.cell);
  if (cell.kind == CellKind::kOutputPad) return model_->io_delay;
  // Logic: the LUT in front of the output (comb) or the D flip-flop (sink).
  return model_->logic_delay;
}

void TimingGraph::compute_edge_delays() {
  for (TimingEdge& e : edges_) {
    if (!e.from.valid()) continue;  // freed slot (incremental engine)
    Point a = pl_->location(nodes_[e.from.index()].cell);
    Point b = pl_->location(nodes_[e.to.index()].cell);
    int len = manhattan(a, b);
    if (wire_length_fn_) len = wire_length_fn_(nodes_[e.to.index()].cell, e.pin, len);
    e.delay = model_->wire_delay(len) + node_intrinsic_delay(e.to);
  }
}

void TimingGraph::topo_sort() {
  std::vector<int> indeg(nodes_.size(), 0);
  for (const TimingEdge& e : edges_)
    if (e.from.valid()) ++indeg[e.to.index()];
  std::vector<TimingNodeId> stack;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (indeg[i] == 0) stack.push_back(TimingNodeId(static_cast<TimingNodeId::value_type>(i)));
  topo_.clear();
  topo_.reserve(nodes_.size());
  while (!stack.empty()) {
    TimingNodeId n = stack.back();
    stack.pop_back();
    topo_.push_back(n);
    for (std::size_t e : fanout_[n.index()]) {
      TimingNodeId to = edges_[e].to;
      if (--indeg[to.index()] == 0) stack.push_back(to);
    }
  }
  if (topo_.size() != nodes_.size())
    throw std::runtime_error("timing graph contains a combinational cycle");
}

void TimingGraph::run_sta() {
  if (!TimingCounterSuppressor::active()) ++timing_counters().full_sta_passes;
  compute_edge_delays();
  arrival_.assign(nodes_.size(), 0.0);
  downstream_.assign(nodes_.size(), 0.0);

  // Source arrivals: pad delay for input pads, clock-to-Q for registers.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind != TimingNodeKind::kSource || !nodes_[i].cell.valid()) continue;
    const Cell& cell = nl_->cell(nodes_[i].cell);
    arrival_[i] = (cell.kind == CellKind::kInputPad) ? model_->io_delay : model_->ff_delay;
  }

  // Forward (topological) arrival propagation.
  for (TimingNodeId n : topo_) {
    for (std::size_t e : fanin_[n.index()]) {
      double a = arrival_[edges_[e].from.index()] + edges_[e].delay;
      arrival_[n.index()] = std::max(arrival_[n.index()], a);
    }
  }

  // Backward downstream propagation.
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    TimingNodeId n = *it;
    for (std::size_t e : fanout_[n.index()]) {
      double d = edges_[e].delay + downstream_[edges_[e].to.index()];
      downstream_[n.index()] = std::max(downstream_[n.index()], d);
    }
  }

  critical_delay_ = 0;
  critical_sink_ = TimingNodeId::invalid();
  for (TimingNodeId s : sink_nodes_) {
    if (!critical_sink_.valid() || arrival_[s.index()] > critical_delay_) {
      critical_delay_ = arrival_[s.index()];
      critical_sink_ = s;
    }
  }
}

double TimingGraph::slowest_path_through_cell(CellId c) const {
  double worst = 0;
  if (out_node_[c.index()].valid())
    worst = std::max(worst, slowest_path_through(out_node_[c.index()]));
  if (sink_node_[c.index()].valid())
    worst = std::max(worst, slowest_path_through(sink_node_[c.index()]));
  return worst;
}

double TimingGraph::edge_slack(std::size_t e) const {
  const TimingEdge& ed = edges_[e];
  if (!ed.from.valid()) return critical_delay_;  // freed slot: fully slack
  double through = arrival_[ed.from.index()] + ed.delay + downstream_[ed.to.index()];
  return critical_delay_ - through;
}

double TimingGraph::edge_criticality(std::size_t e) const {
  if (critical_delay_ <= 0 || !edges_[e].from.valid()) return 0;
  double crit = 1.0 - edge_slack(e) / critical_delay_;
  return std::clamp(crit, 0.0, 1.0);
}

std::vector<TimingNodeId> TimingGraph::critical_path() const {
  std::vector<TimingNodeId> path;
  if (!critical_sink_.valid()) return path;
  TimingNodeId cur = critical_sink_;
  path.push_back(cur);
  while (!fanin_[cur.index()].empty()) {
    // Walk to the fanin on the slowest path.
    std::size_t best_e = fanin_[cur.index()].front();
    double best_a = -1;
    for (std::size_t e : fanin_[cur.index()]) {
      double a = arrival_[edges_[e].from.index()] + edges_[e].delay;
      if (a > best_a) {
        best_a = a;
        best_e = e;
      }
    }
    cur = edges_[best_e].from;
    path.push_back(cur);
    if (nodes_[cur.index()].kind == TimingNodeKind::kSource) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace repro
