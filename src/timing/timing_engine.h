#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "timing/timing_graph.h"

namespace repro {

/// Persistent, incrementally-updatable static timing engine.
///
/// The paper's whole flow is a loop of "perturb -> re-time -> decide": the
/// annealer re-times every temperature, and the replication engine re-times
/// after every replication-tree commit. Rebuilding a TimingGraph from scratch
/// at each of those points makes full STA the dominant cost on larger
/// circuits. TimingEngine instead keeps ONE TimingGraph alive for the whole
/// optimization and patches it in place:
///
///  * placement deltas (`on_cell_moved`) re-evaluate only the delays of the
///    cell's incident edges and re-propagate arrival/downstream over the
///    dirty fan-out/fan-in cones via a topo-ordered worklist;
///  * netlist deltas (`on_cells_rewired`) splice replica nodes and rewired
///    edges into the existing graph (node/edge slots are recycled through
///    free lists), re-levelize only if a rebuilt edge runs against the kept
///    topological order, and again only re-time the dirty cones;
///  * `commit()` / `rollback()` shadow the full engine state so the
///    replication engine's legalization-failure snapshot path restores
///    timing in O(copy) instead of O(rebuild).
///
/// All reads go through `graph()`: consumers written against
/// `const TimingGraph&` (SPT extraction, replication trees, reports, the
/// monotone bound, the legalizer) work unchanged. Results are bit-identical
/// to a from-scratch `TimingGraph` — the bootstrap constructor doubles as
/// the oracle, and `REPRO_TIMING_PARANOID=1` (or `set_paranoid(true)`)
/// cross-checks every incremental update against it. Work performed is
/// accounted in `timing_counters()` (util/stats.h) so the incremental win is
/// observable, not asserted.
class TimingEngine {
 public:
  /// Bootstraps from a full TimingGraph build (the oracle path).
  TimingEngine(const Netlist& nl, const Placement& pl, const LinearDelayModel& model);

  /// The shared graph. Timing values are only guaranteed current after
  /// update() (or updated(), commit(), resync(), rollback()).
  const TimingGraph& graph() const { return tg_; }

  // ---- delta notifications (lazy: folded into the next update()) ----------

  /// The cell changed location; its incident edge delays are stale.
  void on_cell_moved(CellId c);
  void on_cells_moved(const std::vector<CellId>& cells);

  /// The netlist changed around these cells: added (replicas), rewired
  /// (reassign_input / steal_fanout targets), or deleted (redundant-removal
  /// victims). Every cell whose input pins changed must be listed; deleted
  /// cells' former fanin is discovered internally.
  void on_cells_rewired(const std::vector<CellId>& cells);
  void on_cell_rewired(CellId c);

  // ---- analysis ------------------------------------------------------------

  /// Applies all pending deltas incrementally (splice + dirty-cone STA).
  void update();

  /// update() and return the graph — the common consumer idiom.
  const TimingGraph& updated() {
    update();
    return tg_;
  }

  // ---- snapshot / rollback -------------------------------------------------

  /// Marks the current (updated) state as the rollback point.
  void commit();
  /// Restores the engine to the last commit(). The caller must have restored
  /// the Netlist/Placement *objects* to the same state (the replication
  /// engine's snapshot path copy-assigns into the originals, so the
  /// references this engine holds stay valid).
  void rollback();

  /// Full in-place rebuild from the current netlist/placement — for
  /// wholesale replacements (e.g. restoring an arbitrary best-seen snapshot)
  /// where no delta information exists. Cheaper than a new TimingGraph only
  /// in allocation churn; counted separately in timing_counters().
  void resync();

  /// Re-times the whole design with an interconnect-length override (routed
  /// wire lengths). Inherently a full pass: every edge delay changes. Pass
  /// nullptr to restore placement-estimated delays — also the way to re-time
  /// after a delay-model change. Pending rewires are spliced first.
  void retime_with_wire_lengths(TimingGraph::WireLengthFn fn);

  // ---- paranoid mode -------------------------------------------------------

  /// Cross-check every incremental result against a from-scratch rebuild
  /// (throws std::logic_error on divergence > 1e-12). Also enabled by the
  /// REPRO_TIMING_PARANOID=1 environment variable.
  void set_paranoid(bool on) { paranoid_ = on; }
  bool paranoid() const { return paranoid_; }

 private:
  bool has_pending_deltas() const;
  void ensure_cell_arrays();
  TimingNodeId alloc_node(TimingNodeKind kind, CellId cell);
  void free_node(TimingNodeId n);
  void alloc_edge(TimingNodeId from, TimingNodeId to, int pin);
  void detach_fanin(TimingNodeId n);
  void splice_structure();
  void refresh_topo_positions();
  double recompute_arrival(std::size_t n) const;
  double recompute_downstream(std::size_t n) const;
  void propagate_dirty();
  void recompute_critical();
  void scan_critical(double* delay, TimingNodeId* sink) const;
  void full_retime();
  void clear_pending();
  void verify_against_oracle() const;

  void mark_fwd(TimingNodeId n);
  void mark_bwd(TimingNodeId n);
  void mark_edge(std::size_t e);

  TimingGraph tg_;

  // Pending deltas (deduplicated via flags).
  std::vector<CellId> moved_cells_;
  std::vector<CellId> rewired_cells_;
  std::vector<char> cell_moved_flag_;
  std::vector<char> cell_rewired_flag_;

  // Dirty sets for the next propagation.
  std::vector<std::size_t> dirty_edges_;
  std::vector<char> edge_dirty_flag_;
  std::vector<TimingNodeId> fwd_seed_;
  std::vector<TimingNodeId> bwd_seed_;
  std::vector<char> fwd_flag_;
  std::vector<char> bwd_flag_;

  // propagate_dirty()'s worklist: one bit per topological position, and one
  // summary bit per 64-bit word that may be non-zero, so a scan passes 4096
  // clean positions per summary word. Empty between updates; kept so it
  // never reallocates.
  std::vector<std::uint64_t> dirty_bits_;
  std::vector<std::uint64_t> dirty_words_;

  // What recompute_critical() needs to know to skip its scan of all sinks:
  // whether the sink set changed, and the latest new arrival among the
  // sinks other than the critical one whose arrival changed.
  bool sinks_reshaped_ = false;
  double changed_sink_max_ = -std::numeric_limits<double>::infinity();

  // Structure bookkeeping.
  std::vector<int> topo_pos_;
  std::vector<TimingNodeId> node_free_;
  std::vector<std::size_t> edge_free_;

  // commit()/rollback() shadow state: the whole graph, so every field it
  // gains is restored too, plus the engine's structure bookkeeping.
  // Copy-assigned on each commit() so vector capacities are reused.
  std::optional<TimingGraph> shadow_graph_;
  std::vector<int> shadow_topo_pos_;
  std::vector<TimingNodeId> shadow_node_free_;
  std::vector<std::size_t> shadow_edge_free_;

  bool paranoid_ = false;
};

}  // namespace repro
