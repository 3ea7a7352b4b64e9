#pragma once

#include <cstddef>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "embed/embedding_graph.h"
#include "embed/fanin_tree.h"
#include "embed/signature.h"
#include "embed/tree_embedding.h"

namespace repro {

class ThreadPool;

/// Per-(tree node, graph vertex) placement cost p_ij (Section II-A). This is
/// where the replication engine encodes congestion penalties and the
/// equivalent-cell discount that makes replication implicit.
using PlacementCostFn = std::function<double(TreeNodeId, EmbedVertexId)>;

/// Objective variants of the embedder.
///
///   lex_order = 1, lex_mc = false : the base 2-D cost/max-arrival algorithm
///                                   (Sections II-A..II-C, "RT-Embedding");
///   lex_order = N (2..5)          : Lex-N subcritical-path overoptimization
///                                   (Section VI-A);
///   lex_mc = true                 : the (c, t, tc, w) max-and-critical
///                                   variant (Section VI-A).
struct EmbedOptions {
  int lex_order = 1;
  bool lex_mc = false;

  /// Branching-bit overlap avoidance (Section II-A, approach 1). When true,
  /// a join is rejected if the number of children placed exactly at the join
  /// vertex exceeds branch_capacity - 1 (the join itself occupies one slot).
  bool overlap_avoidance = false;
  int branch_capacity = 1;

  /// Pareto-list size cap per (node, vertex); 0 = unlimited (exact DP).
  int max_labels = 0;

  /// Allow the root to be placed anywhere (simultaneous sink placement used
  /// for FF relocation, Section V-D). When false the root stays at its
  /// fixed location.
  bool relocatable_root = false;

  /// Optional nonlinear stem-delay function: delay of an unbranched wire run
  /// as a function of its length. When set, edge `delay` values are
  /// interpreted as *lengths* and the label's stem length enters the
  /// dominance test. Reproduces the quadratic-delay worked example (Fig. 7)
  /// and, with ElmoreDelayModel::wire_delay, the Elmore variant (§II-D).
  std::function<double(int)> stem_delay;

  /// Optional thread pool for the per-vertex column loop of each join: the
  /// A[i][*] columns are independent given the children's tables, so join
  /// vertices are processed in parallel chunks. Results are bit-identical to
  /// the serial embedder for any pool size (spill provenance is merged back
  /// in deterministic vertex order). Null = serial.
  ThreadPool* pool = nullptr;
  /// Joins over graphs smaller than this stay serial (chunking overhead).
  int parallel_min_vertices = 96;
};

/// One frontier A[i][j] of the node being processed: the labels of subtree i
/// driven from vertex j, split into a hot key array, which the dominance scan
/// walks, and a cold array with the provenance; cold[k] belongs to key[k].
/// The live keys form an antichain: none dominates another
/// (docs/ALGORITHMS.md §1).
struct LabelList {
  std::vector<LabelKey> key;
  std::vector<LabelCold> cold;
  std::uint32_t live = 0;  ///< keys with dead == 0

  void clear() {
    key.clear();
    cold.clear();
    live = 0;
  }
};

/// One entry of a mesh-sweep staircase: a label's key and the unshifted label
/// it was reached from (docs/ALGORITHMS.md §1).
struct SweepLabel {
  LabelKey key;
  EmbedVertexId origin;
  std::uint32_t origin_label;
};

/// The embedder's label arena (docs/ALGORITHMS.md §1, "Label store"). Only
/// the node being processed has growable per-vertex lists; when the node is
/// done they are frozen: the cold halves are appended to one arena
/// that extraction reads, the keys are pushed onto a stack that lives only
/// until the parent's join, and a per-node row of CSR offsets locates both.
/// Passing a scratch to FaninTreeEmbedder adopts the capacities an earlier
/// embedding grew, and the destructor returns them, so a loop that embeds
/// one tree per iteration (the replication engine — one embedder per sink)
/// stops allocating after warm-up. One scratch must serve at most one live
/// embedder at a time; the engine keeps one per thread.
struct EmbedScratch {
  /// The working lists: A[i][*] of the node being processed.
  std::vector<LabelList> work;
  /// Cold halves of every frozen node, in post-order, per node by vertex.
  std::vector<LabelCold> cold;
  /// Keys of the frozen nodes whose parent is not yet joined, laid out as in
  /// `cold`. In post-order these nodes form a stack.
  std::vector<LabelKey> keys;
  /// Row i (num_vertices + 1 entries): index in `cold` of label 0 of each
  /// A[i][j], then the end of node i's labels.
  std::vector<std::uint32_t> offsets;
  /// Index in `keys` of node i's first key (valid while i is stacked).
  std::vector<std::uint32_t> key_base;
  /// Child label indices of joins with more than two children, contiguous
  /// from each label's Provenance::spill_index.
  std::vector<std::uint32_t> spill;
  /// The mesh sweep's per-vertex staircases and its merge buffer.
  std::vector<std::vector<SweepLabel>> stairs;
  std::vector<SweepLabel> merged;

  /// Bytes of capacity held, for arena_counters().embed_scratch_bytes.
  std::size_t capacity_bytes() const;
};

/// One entry of the root trade-off curve.
struct RootSolution {
  EmbedVertexId vertex;
  std::uint32_t label_index;
  double cost;
  DelayVec delay;
};

/// Optimal timing-driven fanin tree embedding by dynamic programming over an
/// arbitrary target graph (the paper's core algorithm, Fig. 6):
/// bottom-up over the tree; at each node, candidate solutions of the child
/// subtrees are joined at every vertex and propagated through the graph by a
/// generalized Dijkstra wavefront, keeping only non-dominated
/// (cost, delay...) signatures. On a make_grid mesh with the RT or Lex-N
/// objective the wavefront is a row and column sweep instead, which yields
/// the same signatures (docs/ALGORITHMS.md §1).
class FaninTreeEmbedder {
 public:
  /// Placement costs at or above this value mark a vertex as forbidden for
  /// gate creation (blocked slot / wrong resource type): the wavefront may
  /// route through it, but no join is made there.
  static constexpr double kForbiddenCost = 1e8;
  /// Most children a tree node may have (a join keeps its partial child
  /// indices inline). Trees built from a netlist have at most
  /// Netlist::kMaxLutInputs (6); the constructor rejects wider trees.
  static constexpr std::size_t kMaxFanin = 8;

  FaninTreeEmbedder(const FaninTree& tree, const EmbeddingGraph& graph,
                    PlacementCostFn placement_cost, EmbedOptions options = {},
                    EmbedScratch* scratch = nullptr);
  ~FaninTreeEmbedder();

  /// Runs the DP. Returns false if a fixed terminal lies outside the graph
  /// or no solution reaches the root.
  bool run();

  /// Non-dominated solutions at the root, sorted by increasing cost.
  const std::vector<RootSolution>& tradeoff() const { return tradeoff_; }

  /// Index into tradeoff(): cheapest solution whose primary (max) arrival is
  /// <= bound; -1 if none (Section II-C's "cheapest solution that is fast
  /// enough").
  int pick_cheapest_within(double delay_bound) const;
  /// Index of the lexicographically fastest solution (min delay, then cost).
  int pick_fastest() const;

  /// Recovers the vertex of every tree node (leaves at their fixed vertices,
  /// internal nodes and root where the chosen solution placed them).
  TreeEmbedding extract(int tradeoff_index) const;

  /// Diagnostics.
  std::size_t labels_created() const { return labels_created_; }
  /// Test hook, called before run(): makes run() check each node's final
  /// frontier as it is frozen, in O(n^2) per frontier.
  void check_frontiers() { check_frontiers_ = true; }
  /// True if check_frontiers() was called before run() and, in every A[i][j]
  /// frozen since, no live label dominates another and the live count is
  /// right. insert_label's one-walk scan is exact only under this invariant.
  bool frontiers_are_antichains() const { return check_frontiers_ && frontiers_ok_; }

 private:
  static constexpr std::uint32_t kRejected = ~std::uint32_t{0};

  struct PartialJoin {
    double cost = 0;
    DelayVec delay;
    int mc_weight = 0;
    int sum_branch_bits = 0;
    /// Label index in A[child][j] of each child folded so far.
    std::uint32_t child_labels[kMaxFanin] = {};
  };

  /// Per-worker buffers, reused across the vertices of one chunk so the
  /// partial-fold vectors and cap_list's sort order stop reallocating in the
  /// hot loops.
  struct WorkBuffers {
    std::vector<PartialJoin> partials;
    std::vector<PartialJoin> next;
    std::vector<std::uint32_t> cap_order;
  };

  /// True if `a` dominates `b`, given c = a.delay.lex_compare(b.delay).
  bool dominates(const LabelKey& a, const LabelKey& b, int c) const {
    return a.cost <= b.cost && c <= 0 &&
           (!opt_.overlap_avoidance || a.branching <= b.branching) &&
           (!stem_delay_ || a.stem_len <= b.stem_len);
  }
  /// Appends the label unless a live label of `list` dominates it, killing
  /// the live labels it dominates. Returns its index, or kRejected.
  std::uint32_t insert_label(LabelList& list, const LabelKey& key,
                             const LabelCold& cold, WorkBuffers& wb,
                             std::size_t& created);
  void cap_list(LabelList& list, std::vector<std::uint32_t>& order);
  /// True if the sweep may replace GenDijkstra: the objective is RT or Lex-N
  /// and the graph is a make_grid mesh whose extra vertices each hang off
  /// one mesh vertex, with no negative edge. Fills spliced_in_.
  bool sweep_applies();
  /// The wavefront of the node being processed, on the working lists.
  void wavefront();
  void sweep_wavefront();
  /// Merges the non-empty staircase `src`, shifted by one edge, into the
  /// staircase `dst`.
  void merge_shifted(std::vector<SweepLabel>& dst, const std::vector<SweepLabel>& src,
                     double cost, double delay);
  void join_node(TreeNodeId i, bool root_mode);
  /// Joins node i at every vertex in [lo, hi), appending >2-child provenance
  /// to `spill` with offsets local to it, and counting new labels in
  /// `created`. Reads the children's frozen lists and writes only the
  /// working lists lo..hi — safe to run ranges concurrently.
  void join_vertex_range(TreeNodeId i, std::size_t lo, std::size_t hi,
                         WorkBuffers& wb, std::vector<std::uint32_t>& spill,
                         std::size_t& created);
  double augment_delay_delta(std::int32_t stem_len, double edge_delay_or_len) const;

  /// A frozen A[i][j]: `size` labels, keys at `key` (only while i is
  /// stacked) and cold halves at `cold`.
  struct FrozenList {
    const LabelKey* key = nullptr;
    const LabelCold* cold = nullptr;
    std::uint32_t size = 0;
  };
  FrozenList frozen(TreeNodeId i, std::size_t j) const;
  /// Node i's row of mem_.offsets.
  const std::uint32_t* offsets_row(TreeNodeId i) const {
    return mem_.offsets.data() + i.index() * (graph_.num_vertices() + 1);
  }
  /// Moves the working lists into the arena as node i's frozen lists and
  /// clears them.
  void freeze(TreeNodeId i);
  /// The frontier check of check_frontiers() on the working lists.
  bool working_lists_are_antichains() const;

  const FaninTree& tree_;
  const EmbeddingGraph& graph_;
  PlacementCostFn pcost_;
  EmbedOptions opt_;
  bool stem_delay_ = false;  ///< opt_.stem_delay is set
  EmbedScratch* scratch_ = nullptr;

  /// The label arena: the working lists A[i][*] of the node being
  /// processed, the frozen nodes and the spill pool. Branching labels
  /// (initial / join) and augmented labels share a list; the branching flag
  /// distinguishes them.
  EmbedScratch mem_;
  /// Buffers of the serial phases (wavefront, serial join).
  WorkBuffers buffers_;

  /// Set when the wavefront is the mesh sweep (sweep_applies()).
  const EmbeddingGraph::Mesh* mesh_ = nullptr;
  /// Edges from mesh vertices to the extra vertices hanging off them.
  std::vector<std::pair<EmbedVertexId, EmbeddingGraph::Edge>> spliced_in_;

  std::vector<RootSolution> tradeoff_;
  std::size_t labels_created_ = 0;
  bool check_frontiers_ = false;
  bool frontiers_ok_ = true;
};

}  // namespace repro
