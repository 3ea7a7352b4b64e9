#pragma once

#include <cstddef>
#include <functional>
#include <unordered_map>
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
  /// dominance test. Reproduces the quadratic-delay worked example (Fig. 7).
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

/// Reusable embedder storage. Constructing a FaninTreeEmbedder with a
/// scratch adopts the previously grown A[i][j] tables, label-list
/// capacities and spill pools, and the destructor returns them, so a loop
/// that embeds one tree per iteration (the replication engine — one
/// embedder per sink) stops paying the allocation churn after warm-up.
/// One scratch must serve at most one live embedder at a time; the engine
/// keeps one per thread, so concurrent service jobs never share one.
struct EmbedScratch {
  std::vector<std::vector<std::vector<Label>>> a;
  std::vector<std::vector<std::uint32_t>> spill;
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
/// (cost, delay...) signatures.
class FaninTreeEmbedder {
 public:
  /// Placement costs at or above this value mark a vertex as forbidden for
  /// gate creation (blocked slot / wrong resource type): the wavefront may
  /// route through it, but no join is made there.
  static constexpr double kForbiddenCost = 1e8;

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

 private:
  struct PartialJoin {
    double cost = 0;
    DelayVec delay;
    int mc_weight = 0;
    int sum_branch_bits = 0;
    std::vector<std::uint32_t> child_labels;
  };

  /// Per-worker join buffers, reused across the vertices of one chunk so the
  /// partial-fold vectors stop reallocating in the hot loop.
  struct JoinScratch {
    std::vector<PartialJoin> partials;
    std::vector<PartialJoin> next;
  };

  bool dominates(const Label& a, const Label& b) const;
  bool insert_label(std::vector<Label>& list, Label l, std::uint32_t* index_out,
                    std::size_t& created);
  void cap_list(std::vector<Label>& list);
  void wavefront(TreeNodeId i);
  void join_node(TreeNodeId i, bool root_mode);
  /// Joins node i at every vertex in [lo, hi), appending >2-child provenance
  /// to `spill` with indices local to it, and counting new labels in
  /// `created`. Writes only A[i][lo..hi) — safe to run ranges concurrently.
  void join_vertex_range(TreeNodeId i, std::size_t lo, std::size_t hi,
                         JoinScratch& js,
                         std::vector<std::vector<std::uint32_t>>& spill,
                         std::size_t& created);
  Label make_join_label(TreeNodeId i, EmbedVertexId j, const PartialJoin& p,
                        std::vector<std::vector<std::uint32_t>>& spill);
  double augment_delay_delta(const Label& from, double edge_delay_or_len) const;

  const FaninTree& tree_;
  const EmbeddingGraph& graph_;
  PlacementCostFn pcost_;
  EmbedOptions opt_;
  EmbedScratch* scratch_ = nullptr;

  /// A[i][j]: labels for subtree i driven from vertex j. Branching labels
  /// (initial / join) and augmented labels share the list; the branching
  /// flag distinguishes them.
  std::vector<std::vector<std::vector<Label>>> a_;
  /// Spill pool for join provenance with > 2 children.
  std::vector<std::vector<std::uint32_t>> spill_;

  std::vector<RootSolution> tradeoff_;
  std::size_t labels_created_ = 0;
  bool ran_ = false;
};

}  // namespace repro
