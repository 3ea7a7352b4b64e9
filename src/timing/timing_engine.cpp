#include "timing/timing_engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/stats.h"

namespace repro {

TimingEngine::TimingEngine(const Netlist& nl, const Placement& pl,
                           const LinearDelayModel& model)
    : tg_(nl, pl, model) {
  refresh_topo_positions();
  cell_moved_flag_.assign(nl.cell_capacity(), 0);
  cell_rewired_flag_.assign(nl.cell_capacity(), 0);
  edge_dirty_flag_.assign(tg_.edges_.size(), 0);
  fwd_flag_.assign(tg_.nodes_.size(), 0);
  bwd_flag_.assign(tg_.nodes_.size(), 0);
  if (const char* p = std::getenv("REPRO_TIMING_PARANOID"); p && p[0] == '1')
    paranoid_ = true;
}

void TimingEngine::refresh_topo_positions() {
  topo_pos_.assign(tg_.nodes_.size(), 0);
  for (std::size_t i = 0; i < tg_.topo_.size(); ++i)
    topo_pos_[tg_.topo_[i].index()] = static_cast<int>(i);
}

void TimingEngine::ensure_cell_arrays() {
  const std::size_t cap = tg_.nl_->cell_capacity();
  if (tg_.out_node_.size() < cap) {
    tg_.out_node_.resize(cap, TimingNodeId::invalid());
    tg_.sink_node_.resize(cap, TimingNodeId::invalid());
  }
  if (cell_moved_flag_.size() < cap) {
    cell_moved_flag_.resize(cap, 0);
    cell_rewired_flag_.resize(cap, 0);
  }
}

void TimingEngine::on_cell_moved(CellId c) {
  ensure_cell_arrays();
  if (cell_moved_flag_[c.index()]) return;
  cell_moved_flag_[c.index()] = 1;
  moved_cells_.push_back(c);
}

void TimingEngine::on_cells_moved(const std::vector<CellId>& cells) {
  for (CellId c : cells) on_cell_moved(c);
}

void TimingEngine::on_cell_rewired(CellId c) {
  ensure_cell_arrays();
  if (cell_rewired_flag_[c.index()]) return;
  cell_rewired_flag_[c.index()] = 1;
  rewired_cells_.push_back(c);
}

void TimingEngine::on_cells_rewired(const std::vector<CellId>& cells) {
  for (CellId c : cells) on_cell_rewired(c);
}

bool TimingEngine::has_pending_deltas() const {
  return !moved_cells_.empty() || !rewired_cells_.empty() || !dirty_edges_.empty() ||
         !fwd_seed_.empty() || !bwd_seed_.empty();
}

void TimingEngine::mark_fwd(TimingNodeId n) {
  if (fwd_flag_[n.index()]) return;
  fwd_flag_[n.index()] = 1;
  fwd_seed_.push_back(n);
}

void TimingEngine::mark_bwd(TimingNodeId n) {
  if (bwd_flag_[n.index()]) return;
  bwd_flag_[n.index()] = 1;
  bwd_seed_.push_back(n);
}

void TimingEngine::mark_edge(std::size_t e) {
  if (edge_dirty_flag_[e]) return;
  edge_dirty_flag_[e] = 1;
  dirty_edges_.push_back(e);
}

TimingNodeId TimingEngine::alloc_node(TimingNodeKind kind, CellId cell) {
  TimingNodeId id;
  if (!node_free_.empty()) {
    id = node_free_.back();
    node_free_.pop_back();
    assert(tg_.fanin_[id.index()].empty() && tg_.fanout_[id.index()].empty());
    tg_.nodes_[id.index()] = TimingNode{kind, cell};
  } else {
    id = TimingNodeId(static_cast<TimingNodeId::value_type>(tg_.nodes_.size()));
    tg_.nodes_.push_back(TimingNode{kind, cell});
    tg_.fanin_.emplace_back();
    tg_.fanout_.emplace_back();
    tg_.arrival_.push_back(0.0);
    tg_.downstream_.push_back(0.0);
    topo_pos_.push_back(0);
    fwd_flag_.push_back(0);
    bwd_flag_.push_back(0);
  }
  if (kind == TimingNodeKind::kSink) {
    tg_.sink_nodes_.push_back(id);
    sinks_reshaped_ = true;
  }
  mark_fwd(id);
  mark_bwd(id);
  return id;
}

void TimingEngine::free_node(TimingNodeId n) {
  assert(tg_.fanin_[n.index()].empty() && tg_.fanout_[n.index()].empty());
  if (tg_.nodes_[n.index()].kind == TimingNodeKind::kSink) {
    auto& sinks = tg_.sink_nodes_;
    sinks.erase(std::remove(sinks.begin(), sinks.end(), n), sinks.end());
    sinks_reshaped_ = true;
  }
  tg_.nodes_[n.index()] = TimingNode{TimingNodeKind::kComb, CellId::invalid()};
  tg_.arrival_[n.index()] = 0.0;
  tg_.downstream_[n.index()] = 0.0;
  fwd_flag_[n.index()] = 0;
  bwd_flag_[n.index()] = 0;
  node_free_.push_back(n);
}

void TimingEngine::alloc_edge(TimingNodeId from, TimingNodeId to, int pin) {
  std::size_t e;
  if (!edge_free_.empty()) {
    e = edge_free_.back();
    edge_free_.pop_back();
  } else {
    e = tg_.edges_.size();
    tg_.edges_.push_back(TimingEdge{});
    edge_dirty_flag_.push_back(0);
  }
  tg_.edges_[e] = TimingEdge{from, to, pin, 0.0};
  tg_.fanout_[from.index()].push_back(e);
  tg_.fanin_[to.index()].push_back(e);
  mark_edge(e);
}

void TimingEngine::detach_fanin(TimingNodeId n) {
  for (std::size_t e : tg_.fanin_[n.index()]) {
    TimingNodeId from = tg_.edges_[e].from;
    auto& fo = tg_.fanout_[from.index()];
    fo.erase(std::find(fo.begin(), fo.end(), e));
    mark_bwd(from);
    tg_.edges_[e] = TimingEdge{TimingNodeId::invalid(), TimingNodeId::invalid(), 0, 0.0};
    edge_dirty_flag_[e] = 0;
    edge_free_.push_back(e);
  }
  tg_.fanin_[n.index()].clear();
  mark_fwd(n);
}

void TimingEngine::splice_structure() {
  const Netlist& nl = *tg_.nl_;
  ensure_cell_arrays();

  // Closure: a deleted cell's surviving fanout edges point at receivers whose
  // inputs were rewired; make sure they are in the batch (the list grows
  // while we scan it, covering chains of deletions).
  for (std::size_t i = 0; i < rewired_cells_.size(); ++i) {
    CellId c = rewired_cells_[i];
    if (nl.cell_alive(c)) continue;
    for (TimingNodeId n : {tg_.out_node_[c.index()], tg_.sink_node_[c.index()]}) {
      if (!n.valid()) continue;
      for (std::size_t e : tg_.fanout_[n.index()])
        on_cell_rewired(tg_.nodes_[tg_.edges_[e].to.index()].cell);
    }
  }

  // Recycled node slots keep their old topological position; an appended
  // slot has none yet.
  const std::size_t nodes_before = tg_.nodes_.size();

  // Phase A: drop the old fanin edges of every batch cell's nodes. Receivers
  // rebuild below; drivers are marked downstream-dirty inside detach_fanin.
  for (CellId c : rewired_cells_) {
    for (TimingNodeId n : {tg_.out_node_[c.index()], tg_.sink_node_[c.index()]})
      if (n.valid()) detach_fanin(n);
  }

  // Phase B1: realize each batch cell's node set (create replicas' nodes,
  // free deleted cells' nodes, fix kinds on a registered-flag flip) BEFORE
  // any edges are rebuilt, so B2 can resolve drivers batch-order-free.
  for (CellId c : rewired_cells_) {
    TimingNodeId& out = tg_.out_node_[c.index()];
    TimingNodeId& snk = tg_.sink_node_[c.index()];
    if (!nl.cell_alive(c)) {
      if (out.valid()) {
        if (!tg_.fanout_[out.index()].empty())
          throw std::logic_error(
              "TimingEngine: deleted cell still drives timing edges "
              "(a rewired receiver was not reported)");
        free_node(out);
        out = TimingNodeId::invalid();
      }
      if (snk.valid()) {
        free_node(snk);
        snk = TimingNodeId::invalid();
      }
      continue;
    }
    const Cell& cell = nl.cell(c);
    const bool want_out = cell.kind != CellKind::kOutputPad;
    const bool want_snk = cell.kind == CellKind::kOutputPad ||
                          (cell.kind == CellKind::kLogic && cell.registered);
    const TimingNodeKind out_kind =
        (cell.kind == CellKind::kInputPad ||
         (cell.kind == CellKind::kLogic && cell.registered))
            ? TimingNodeKind::kSource
            : TimingNodeKind::kComb;
    if (want_out) {
      if (out.valid())
        tg_.nodes_[out.index()].kind = out_kind;
      else
        out = alloc_node(out_kind, c);
      mark_fwd(out);
      mark_bwd(out);
    }
    if (want_snk) {
      if (!snk.valid()) snk = alloc_node(TimingNodeKind::kSink, c);
      mark_fwd(snk);
      mark_bwd(snk);
    } else if (snk.valid()) {
      // Registered flag dropped: the D end point disappears (fanin already
      // detached in phase A; sink nodes never drive edges).
      free_node(snk);
      snk = TimingNodeId::invalid();
    }
  }

  // Phase B2: rebuild each live batch cell's fanin edges from the netlist,
  // in pin order (matching the bootstrap build for deterministic tie-walks).
  // Every other edge predates the splice and already respects topo_, so the
  // order stays valid iff each rebuilt edge runs forward in it.
  bool order_kept = tg_.nodes_.size() == nodes_before;
  for (CellId c : rewired_cells_) {
    if (!nl.cell_alive(c)) continue;
    const Cell& cell = nl.cell(c);
    TimingNodeId to = (cell.kind == CellKind::kLogic && !cell.registered)
                          ? tg_.out_node_[c.index()]
                          : tg_.sink_node_[c.index()];
    if (!to.valid()) continue;  // input pads receive nothing
    for (int pin = 0; pin < static_cast<int>(cell.inputs.size()); ++pin) {
      NetId n = cell.inputs[pin];
      assert(n.valid());
      CellId drv = nl.net(n).driver;
      TimingNodeId from = tg_.out_node_[drv.index()];
      if (!from.valid())
        throw std::logic_error(
            "TimingEngine: driver of a rewired cell has no timing node "
            "(new driver cell not reported in the delta)");
      alloc_edge(from, to, pin);
      mark_bwd(from);
      order_kept = order_kept && topo_pos_[from.index()] < topo_pos_[to.index()];
    }
  }

  for (CellId c : rewired_cells_) cell_rewired_flag_[c.index()] = 0;
  rewired_cells_.clear();

  // Keep end points in node-id order so the critical-sink tie-break stays
  // deterministic. Re-levelize only when the old order no longer fits: any
  // valid order yields the same max-reductions, so values and the re-timed
  // node set do not depend on which one propagate_dirty() walks. A new
  // combinational cycle always breaks the order, so topo_sort() still
  // catches it (dead slots are isolated and harmless).
  std::sort(tg_.sink_nodes_.begin(), tg_.sink_nodes_.end());
  if (!order_kept) {
    tg_.topo_sort();
    refresh_topo_positions();
  }
}

double TimingEngine::recompute_arrival(std::size_t n) const {
  const TimingNode& node = tg_.nodes_[n];
  double a = 0.0;
  if (node.kind == TimingNodeKind::kSource) {
    const Cell& cell = tg_.nl_->cell(node.cell);
    a = (cell.kind == CellKind::kInputPad) ? tg_.model_->io_delay : tg_.model_->ff_delay;
  }
  for (std::size_t e : tg_.fanin_[n])
    a = std::max(a, tg_.arrival_[tg_.edges_[e].from.index()] + tg_.edges_[e].delay);
  return a;
}

double TimingEngine::recompute_downstream(std::size_t n) const {
  double d = 0.0;
  for (std::size_t e : tg_.fanout_[n])
    d = std::max(d, tg_.edges_[e].delay + tg_.downstream_[tg_.edges_[e].to.index()]);
  return d;
}

void TimingEngine::propagate_dirty() {
  std::uint64_t nodes_redone = 0;
  const std::size_t crit = tg_.critical_sink_.valid()
                               ? tg_.critical_sink_.index()
                               : std::numeric_limits<std::size_t>::max();

  // The worklist is a set of topological positions. Positions are unique,
  // a fanout always sits higher and a fanin lower, so scanning the set
  // upward (downward) while adding fanouts (fanins) visits exactly the
  // nodes a min-heap (max-heap) on position would pop, in the same order.
  const std::size_t words = (tg_.topo_.size() + 63) / 64;
  if (dirty_bits_.size() < words) {
    dirty_bits_.resize(words, 0);
    dirty_words_.resize((words + 63) / 64, 0);
  }
  auto insert = [&](TimingNodeId n) {
    const auto pos = static_cast<std::size_t>(topo_pos_[n.index()]);
    dirty_bits_[pos / 64] |= std::uint64_t{1} << (pos % 64);
    dirty_words_[pos / 4096] |= std::uint64_t{1} << (pos / 64 % 64);
  };
  auto seed = [&](std::vector<TimingNodeId>& seeds, std::vector<char>& flag) {
    for (TimingNodeId n : seeds) {
      if (!flag[n.index()]) continue;  // freed, or listed twice
      flag[n.index()] = 0;
      insert(n);
    }
    seeds.clear();
  };

  // Forward: every fanin is final when a node is re-evaluated.
  seed(fwd_seed_, fwd_flag_);
  for (std::size_t s = 0; s < dirty_words_.size(); ++s) {
    while (dirty_words_[s] != 0) {
      const std::size_t w = s * 64 + std::countr_zero(dirty_words_[s]);
      while (dirty_bits_[w] != 0) {
        const std::size_t pos = w * 64 + std::countr_zero(dirty_bits_[w]);
        dirty_bits_[w] &= dirty_bits_[w] - 1;
        const std::size_t n = tg_.topo_[pos].index();
        if (!tg_.nodes_[n].cell.valid()) continue;  // freed slot
        ++nodes_redone;
        const double a = recompute_arrival(n);
        if (a == tg_.arrival_[n]) continue;
        tg_.arrival_[n] = a;
        if (n != crit && tg_.nodes_[n].kind == TimingNodeKind::kSink)
          changed_sink_max_ = std::max(changed_sink_max_, a);
        for (std::size_t e : tg_.fanout_[n]) insert(tg_.edges_[e].to);
      }
      dirty_words_[s] &= ~(std::uint64_t{1} << (w % 64));
    }
  }

  // Backward: every fanout is final when a node is re-evaluated.
  seed(bwd_seed_, bwd_flag_);
  for (std::size_t s = dirty_words_.size(); s-- > 0;) {
    while (dirty_words_[s] != 0) {
      const std::size_t w = s * 64 + 63 - std::countl_zero(dirty_words_[s]);
      while (dirty_bits_[w] != 0) {
        const int bit = 63 - std::countl_zero(dirty_bits_[w]);
        dirty_bits_[w] &= ~(std::uint64_t{1} << bit);
        const std::size_t n = tg_.topo_[w * 64 + static_cast<std::size_t>(bit)].index();
        if (!tg_.nodes_[n].cell.valid()) continue;
        ++nodes_redone;
        const double d = recompute_downstream(n);
        if (d == tg_.downstream_[n]) continue;
        tg_.downstream_[n] = d;
        for (std::size_t e : tg_.fanin_[n]) insert(tg_.edges_[e].from);
      }
      dirty_words_[s] &= ~(std::uint64_t{1} << (w % 64));
    }
  }

  timing_counters().nodes_reevaluated += nodes_redone;
}

/// The critical end point by definition: the first sink in node-id order
/// whose arrival is the largest (TimingGraph::run_sta's rule).
void TimingEngine::scan_critical(double* delay, TimingNodeId* sink) const {
  *delay = 0;
  *sink = TimingNodeId::invalid();
  for (TimingNodeId s : tg_.sink_nodes_) {
    if (!sink->valid() || tg_.arrival_[s.index()] > *delay) {
      *delay = tg_.arrival_[s.index()];
      *sink = s;
    }
  }
}

void TimingEngine::recompute_critical() {
  // Without a scan: when no sink came or went, the critical sink did not
  // fall, and every other sink whose arrival changed stays below it, the
  // critical sink keeps the first maximum. Unchanged sinks are at most the
  // old critical delay, and those equal to it come after it in id order.
  const TimingNodeId s = tg_.critical_sink_;
  if (!sinks_reshaped_ && s.valid() && tg_.arrival_[s.index()] >= tg_.critical_delay_ &&
      changed_sink_max_ < tg_.arrival_[s.index()]) {
    tg_.critical_delay_ = tg_.arrival_[s.index()];
  } else {
    scan_critical(&tg_.critical_delay_, &tg_.critical_sink_);
  }
  sinks_reshaped_ = false;
  changed_sink_max_ = -std::numeric_limits<double>::infinity();
  if (paranoid_) {
    double delay;
    TimingNodeId sink;
    scan_critical(&delay, &sink);
    if (delay != tg_.critical_delay_ || sink != tg_.critical_sink_)
      throw std::logic_error(
          "TimingEngine paranoid check failed: incremental critical sink "
          "differs from a scan of all sinks");
  }
}

void TimingEngine::full_retime() {
  // Pending rewires still need their splice; the full pass then recomputes
  // every edge delay and value, which covers every other pending delta.
  if (!rewired_cells_.empty()) splice_structure();
  tg_.run_sta();
  clear_pending();
}

void TimingEngine::update() {
  if (tg_.wire_length_fn_) {
    // A routed-wirelength override is active: every edge delay depends on it,
    // so incremental bookkeeping does not apply. Full pass.
    full_retime();
    return;
  }
  if (!has_pending_deltas()) return;

  if (!rewired_cells_.empty()) splice_structure();

  // Placement deltas: the moved cells' incident edges need new delays.
  const Netlist& nl = *tg_.nl_;
  for (CellId c : moved_cells_) {
    cell_moved_flag_[c.index()] = 0;
    if (c.index() >= nl.cell_capacity() || !nl.cell_alive(c)) continue;
    for (TimingNodeId n : {tg_.out_node_[c.index()], tg_.sink_node_[c.index()]}) {
      if (!n.valid()) continue;
      for (std::size_t e : tg_.fanin_[n.index()]) mark_edge(e);
      for (std::size_t e : tg_.fanout_[n.index()]) mark_edge(e);
    }
  }
  moved_cells_.clear();

  std::uint64_t edges_redone = 0;
  for (std::size_t e : dirty_edges_) {
    if (!edge_dirty_flag_[e]) continue;
    edge_dirty_flag_[e] = 0;
    TimingEdge& ed = tg_.edges_[e];
    if (!ed.from.valid()) continue;  // freed while pending
    Point a = tg_.pl_->location(tg_.nodes_[ed.from.index()].cell);
    Point b = tg_.pl_->location(tg_.nodes_[ed.to.index()].cell);
    const double d =
        tg_.model_->wire_delay(manhattan(a, b)) + tg_.node_intrinsic_delay(ed.to);
    ++edges_redone;
    if (d != ed.delay) {
      ed.delay = d;
      mark_fwd(ed.to);
      mark_bwd(ed.from);
    }
  }
  dirty_edges_.clear();

  propagate_dirty();
  recompute_critical();

  TimingCounters& tc = timing_counters();
  ++tc.incremental_updates;
  ++tc.rebuilds_avoided;
  tc.edges_redelayed += edges_redone;

  if (paranoid_) verify_against_oracle();
}

void TimingEngine::clear_pending() {
  for (CellId c : moved_cells_) cell_moved_flag_[c.index()] = 0;
  moved_cells_.clear();
  for (CellId c : rewired_cells_) cell_rewired_flag_[c.index()] = 0;
  rewired_cells_.clear();
  dirty_edges_.clear();
  edge_dirty_flag_.assign(tg_.edges_.size(), 0);
  fwd_seed_.clear();
  bwd_seed_.clear();
  fwd_flag_.assign(tg_.nodes_.size(), 0);
  bwd_flag_.assign(tg_.nodes_.size(), 0);
  sinks_reshaped_ = false;
  changed_sink_max_ = -std::numeric_limits<double>::infinity();
}

void TimingEngine::commit() {
  update();
  shadow_graph_ = tg_;
  shadow_topo_pos_ = topo_pos_;
  shadow_node_free_ = node_free_;
  shadow_edge_free_ = edge_free_;
}

void TimingEngine::rollback() {
  if (!shadow_graph_)
    throw std::logic_error("TimingEngine::rollback() without a prior commit()");
  tg_ = *shadow_graph_;
  topo_pos_ = shadow_topo_pos_;
  node_free_ = shadow_node_free_;
  edge_free_ = shadow_edge_free_;
  clear_pending();
}

void TimingEngine::resync() {
  ++timing_counters().engine_resyncs;
  tg_.nodes_.clear();
  tg_.edges_.clear();
  tg_.fanin_.clear();
  tg_.fanout_.clear();
  tg_.sink_nodes_.clear();
  tg_.topo_.clear();
  tg_.build();
  tg_.topo_sort();
  tg_.run_sta();
  refresh_topo_positions();
  node_free_.clear();
  edge_free_.clear();
  clear_pending();
  ensure_cell_arrays();
  if (paranoid_) verify_against_oracle();
}

void TimingEngine::retime_with_wire_lengths(TimingGraph::WireLengthFn fn) {
  tg_.set_wire_length_override(std::move(fn));
  full_retime();
}

void TimingEngine::verify_against_oracle() const {
  ++timing_counters().paranoid_checks;
  TimingCounterSuppressor suppress;  // the oracle build is bookkeeping, not work
  TimingGraph oracle(*tg_.nl_, *tg_.pl_, *tg_.model_);

  auto mismatch = [&](const char* what, CellId cell, double inc, double ref) {
    std::ostringstream os;
    os << "TimingEngine paranoid check failed: " << what << " of cell "
       << tg_.nl_->cell(cell).name << " incremental=" << inc << " oracle=" << ref;
    throw std::logic_error(os.str());
  };
  auto close = [](double a, double b) {
    return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(b));
  };

  if (!close(tg_.critical_delay_, oracle.critical_delay()))
    mismatch("critical delay", tg_.nodes_[0].cell, tg_.critical_delay_,
             oracle.critical_delay());
  for (CellId c : tg_.nl_->live_cell_ids()) {
    TimingNodeId eo = tg_.out_node_[c.index()];
    TimingNodeId oo = oracle.out_node(c);
    if (eo.valid() != oo.valid())
      mismatch("out-node existence", c, eo.valid(), oo.valid());
    if (eo.valid()) {
      if (!close(tg_.arrival_[eo.index()], oracle.arrival(oo)))
        mismatch("arrival", c, tg_.arrival_[eo.index()], oracle.arrival(oo));
      if (!close(tg_.downstream_[eo.index()], oracle.downstream(oo)))
        mismatch("downstream", c, tg_.downstream_[eo.index()], oracle.downstream(oo));
    }
    TimingNodeId es = tg_.sink_node_[c.index()];
    TimingNodeId os_ = oracle.sink_node(c);
    if (es.valid() != os_.valid())
      mismatch("sink-node existence", c, es.valid(), os_.valid());
    if (es.valid()) {
      if (!close(tg_.arrival_[es.index()], oracle.arrival(os_)))
        mismatch("sink arrival", c, tg_.arrival_[es.index()], oracle.arrival(os_));
      if (!close(tg_.downstream_[es.index()], oracle.downstream(os_)))
        mismatch("sink downstream", c, tg_.downstream_[es.index()],
                 oracle.downstream(os_));
    }
  }
}

}  // namespace repro
