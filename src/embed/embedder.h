#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <functional>
#include <memory>
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

/// An append-only array kept in fixed-size chunks. Growing it never moves
/// what it holds, so its footprint is its size rounded up to one chunk,
/// where a doubling vector briefly holds its old and its new buffer.
/// clear() keeps the chunks for the next embedding.
template <class T>
class ChunkedArena {
 public:
  static constexpr std::size_t kChunkBits = 12;
  static constexpr std::size_t kChunk = std::size_t{1} << kChunkBits;

  std::size_t size() const { return size_; }
  void clear() { size_ = 0; }
  T& operator[](std::size_t k) { return chunks_[k >> kChunkBits][k & (kChunk - 1)]; }
  const T& operator[](std::size_t k) const {
    return chunks_[k >> kChunkBits][k & (kChunk - 1)];
  }
  void push_back(const T& x) {
    if (size_ == chunks_.size() * kChunk) chunks_.emplace_back(new T[kChunk]);
    (*this)[size_++] = x;
  }
  /// Appends [first, last), a contiguous range, one chunk-sized span at a
  /// time.
  void append(const T* first, const T* last) {
    while (first != last) {
      if (size_ == chunks_.size() * kChunk) chunks_.emplace_back(new T[kChunk]);
      const std::size_t at = size_ & (kChunk - 1);
      const std::size_t n =
          std::min(static_cast<std::size_t>(last - first), kChunk - at);
      std::copy(first, first + n, chunks_[size_ >> kChunkBits].get() + at);
      first += n;
      size_ += n;
    }
  }
  /// Drops the entries from n on; the chunks stay for later appends.
  void truncate(std::size_t n) { size_ = std::min(size_, n); }
  /// Copies the n entries at `from` down to `to` (to <= from), front first.
  void move_down(std::size_t from, std::size_t to, std::size_t n) {
    assert(to <= from && from + n <= size_);
    while (n > 0) {
      const std::size_t span = std::min(
          {n, kChunk - (from & (kChunk - 1)), kChunk - (to & (kChunk - 1))});
      const T* src = &(*this)[from];
      std::copy(src, src + span, &(*this)[to]);
      from += span;
      to += span;
      n -= span;
    }
  }
  std::size_t capacity_bytes() const {
    return chunks_.size() * kChunk * sizeof(T) + chunks_.capacity() * sizeof(chunks_[0]);
  }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::size_t size_ = 0;
};

/// One entry of an implicit leaf's distance table: its label at Manhattan
/// distance d from its source vertex (docs/ALGORITHMS.md §1).
struct LeafStep {
  double cost;
  double delay;
};

/// Where one frozen node's provenance sits: its first label in the cold
/// arena (its row of offsets is relative to it), its first join's spill
/// entry, and the row of the first frozen node of its subtree.
struct FrozenSpan {
  std::uint32_t cold = 0;
  std::uint32_t spill = 0;
  std::uint32_t first = 0;
};

/// A label of the node being frozen: its vertex and its index there.
struct LabelRef {
  std::uint32_t vertex;
  std::uint32_t label;
};

/// The embedder's label arena (docs/ALGORITHMS.md §1, "Label store"). Only
/// the node being processed has growable per-vertex lists; when the node is
/// done they are frozen: the cold halves are appended to one arena
/// that extraction reads, the live keys are pushed onto a stack that lives
/// only until the parent's join, and per-node rows of offsets locate both.
/// At the freeze each frozen child is cut to the labels its parent's live
/// labels reach, and the parent's subtree slides down over the freed space.
/// Passing a scratch to FaninTreeEmbedder adopts the capacities an earlier
/// embedding grew, and the destructor returns them, so a loop that embeds
/// one tree per iteration (the replication engine — one embedder per sink)
/// stops allocating after warm-up. One scratch must serve at most one live
/// embedder at a time; the engine keeps one per thread.
struct EmbedScratch {
  /// The working lists: A[i][*] of the node being processed.
  std::vector<LabelList> work;
  /// Cold halves of every frozen node, in post-order, per node by vertex:
  /// all labels of a node until its parent is frozen, then the ones the
  /// parent's live labels reach.
  ChunkedArena<LabelCold> cold;
  /// Live keys of the frozen nodes whose parent is not yet joined, and each
  /// key's label index in its A[i][j]. In post-order these nodes form a stack.
  std::vector<LabelKey> keys;
  std::vector<std::uint32_t> key_index;
  /// Per stacked node, num_vertices + 1 entries: index in `keys` of the first
  /// live key of each A[i][j], then the end of node i's keys.
  std::vector<std::uint32_t> key_offsets;
  /// Per frozen node, num_vertices + 1 entries: index of label 0 of each
  /// A[i][j] from the node's first label, then the node's label count.
  std::vector<std::uint32_t> offsets;
  /// Per frozen node, in post-order (by row of `offsets`).
  std::vector<FrozenSpan> spans;
  /// Per tree node: its row in `offsets` and, while it is stacked, the start
  /// of its row in `key_offsets`.
  std::vector<std::uint32_t> row;
  std::vector<std::uint32_t> key_row;
  /// Distance tables of the implicit leaves whose parent is not yet joined.
  std::vector<LeafStep> leaf_steps;
  /// Child label indices of joins with more than two children, contiguous
  /// from each label's Provenance::spill_index past its node's first entry.
  ChunkedArena<std::uint32_t> spill;
  /// Compaction at a freeze: which labels of the node being frozen its live
  /// labels reach, the reached joins among them, one bit per label of one
  /// child that is kept, the kept labels before each 64-label word, and a
  /// work stack for the marks.
  std::vector<std::uint8_t> reached;
  std::vector<LabelRef> joins;
  std::vector<std::uint64_t> kept;
  std::vector<std::uint32_t> kept_rank;
  std::vector<std::uint32_t> trail;
  /// The node's labels by vertex in one index space, and the child's row of
  /// `offsets` before it is cut.
  std::vector<std::uint32_t> label_base;
  std::vector<std::uint32_t> old_row;
  /// The mesh sweep's per-vertex staircases and its merge buffer.
  std::vector<std::vector<SweepLabel>> stairs;
  std::vector<SweepLabel> merged;

  /// Bytes of capacity held, for arena_counters().embed_scratch_bytes.
  std::size_t capacity_bytes() const;
};

/// Deterministic work counters of one embedding (docs/ALGORITHMS.md §1).
/// They count the same for every thread count.
struct EmbedCounters {
  /// Leaves whose frontier was read from a distance table, not swept.
  std::uint64_t implicit_leaves = 0;
  /// (partial, child label) pairs the joins enumerated, and how many of
  /// them were skipped as strictly dominated before the dominance scan.
  std::uint64_t join_candidates = 0;
  std::uint64_t join_skipped = 0;
  /// Dominance tests of a candidate against a kept partial in the join
  /// folds (each compares two delay vectors).
  std::uint64_t partial_compares = 0;
  /// Staircase merges of the mesh sweep, and how many of them left their
  /// destination unchanged because no shifted entry survived.
  std::uint64_t sweep_merges = 0;
  std::uint64_t sweep_merges_unchanged = 0;
  /// Labels of frozen children that their parent's live labels do not
  /// reach, dropped from the arena at the parent's freeze.
  std::uint64_t labels_compacted = 0;

  EmbedCounters& operator+=(const EmbedCounters& o) {
    implicit_leaves += o.implicit_leaves;
    join_candidates += o.join_candidates;
    join_skipped += o.join_skipped;
    partial_compares += o.partial_compares;
    sweep_merges += o.sweep_merges;
    sweep_merges_unchanged += o.sweep_merges_unchanged;
    labels_compacted += o.labels_compacted;
    return *this;
  }
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
  const EmbedCounters& counters() const { return counters_; }
  /// Test hook, called before run(): makes run() check each node's final
  /// frontier as it is frozen, in O(n^2) per frontier.
  void check_frontiers() { check_frontiers_ = true; }
  /// True if check_frontiers() was called before run() and, in every A[i][j]
  /// frozen since, no live label dominates another and the live count is
  /// right. insert_label's one-walk scan is exact only under this invariant.
  bool frontiers_are_antichains() const { return check_frontiers_ && frontiers_ok_; }

 private:
  static constexpr std::uint32_t kRejected = ~std::uint32_t{0};
  /// In debug builds, the child indices of the joins compaction left
  /// unreached, so that a stray read asserts.
  static constexpr std::uint32_t kDropped = ~std::uint32_t{0};

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
    /// Per child label: the cost of the cheapest partial it absorbs.
    std::vector<double> absorbed_partial_cost;
    /// The fold's kept partials by rising cost, and a dead flag per partial.
    std::vector<std::uint32_t> stair;
    std::vector<std::uint8_t> dead;
    /// The serial join's spill provenance, before it joins the arena.
    std::vector<std::uint32_t> spill;
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
  /// one mesh vertex, with no negative edge. Fills spliced_in_ and splices_.
  bool sweep_applies();
  /// The wavefront of the node being processed, on the working lists.
  void wavefront();
  /// The mesh sweep; leaves its final frontiers in mem_.stairs.
  void sweep_wavefront();
  /// Merges the non-empty staircase `src`, shifted by one edge, into the
  /// staircase `dst`.
  void merge_shifted(std::vector<SweepLabel>& dst, const std::vector<SweepLabel>& src,
                     double cost, double delay);
  /// The max_labels rule of cap_list on a staircase.
  void cap_staircase(std::vector<SweepLabel>& s) const;
  void join_node(TreeNodeId i, bool root_mode);
  /// Joins node i at every vertex in [lo, hi), appending >2-child provenance
  /// to `spill` (spill indices count from its start), and counting new
  /// labels in `created` and work in `work`. Reads the children's frozen
  /// lists and writes only the working lists lo..hi — safe to run ranges
  /// concurrently.
  void join_vertex_range(TreeNodeId i, std::size_t lo, std::size_t hi,
                         WorkBuffers& wb, std::vector<std::uint32_t>& spill,
                         std::size_t& created, EmbedCounters& work);
  double augment_delay_delta(std::int32_t stem_len, double edge_delay_or_len) const;

  /// A frozen A[i][j]: its `size` live keys at `key`, their label indices at
  /// `index`, and label 0's cold half at mem_.cold[cold_base].
  struct FrozenList {
    const LabelKey* key = nullptr;
    const std::uint32_t* index = nullptr;
    std::uint32_t size = 0;
    std::uint32_t cold_base = 0;
  };
  /// Node i's frozen A[i][j]; i must be stacked.
  FrozenList frozen(TreeNodeId i, std::size_t j) const;
  /// Index in mem_.cold of label 0 of frozen A[i][j].
  std::size_t cold_at(TreeNodeId i, std::size_t j) const {
    const std::uint32_t r = mem_.row[i.index()];
    return mem_.spans[r].cold + mem_.offsets[r * (graph_.num_vertices() + 1) + j];
  }
  /// Moves node i's frontiers into the arena as its frozen lists and clears
  /// the working lists. With `swept`, the frontiers are the working lists
  /// cut to the entries left on mem_.stairs plus the staircase entries that
  /// came from other vertices, which are appended in staircase order.
  void freeze(TreeNodeId i, bool swept);
  /// Cuts each stored child of node i, which is being frozen, to the labels
  /// i's live labels reach, rewriting the indices into it, and slides i's
  /// subtree and join spill down over the freed space (docs/ALGORITHMS.md
  /// §1). Returns the row of the first frozen node of i's subtree.
  std::uint32_t compact_children(TreeNodeId i, bool swept);
  /// The child index of frozen or working join `prov` of a node whose spill
  /// run starts at `spill`, for its k-th child.
  std::uint32_t& child_label(Provenance& prov, std::size_t spill, std::size_t k) {
    return prov.spill_index >= 0
               ? mem_.spill[spill + static_cast<std::size_t>(prov.spill_index) + k]
               : prov.child_labels_inline[k];
  }
  /// The check of check_frontiers() on one frozen list's live keys.
  bool is_antichain(const LabelKey* key, std::size_t n) const;

  /// Implicit leaves (docs/ALGORITHMS.md §1): on the mesh a non-root leaf's
  /// frontier is one label per vertex, read from a table by distance.
  bool is_implicit_leaf(TreeNodeId i) const {
    return implicit_leaves_ && tree_.node(i).is_leaf() && i != tree_.root();
  }
  /// Pushes leaf i's distance table; false if its vertex is off the graph.
  bool make_implicit_leaf(TreeNodeId i);
  /// Per implicit leaf: its vertex, the mesh point its table starts at
  /// (source_x < 0 if no edge leaves its vertex) and where its table sits in
  /// mem_.leaf_steps while the leaf is stacked.
  struct ImplicitLeaf {
    EmbedVertexId vertex;
    std::int32_t source_x = -1;
    std::int32_t source_y = -1;
    std::uint32_t steps = 0;
  };
  /// Per extra vertex: its anchor and the edges between them.
  struct Splice {
    std::int32_t anchor = -1;
    std::uint8_t num_in = 0;   ///< edges anchor -> extra
    std::uint8_t num_out = 0;  ///< edges extra -> anchor
    EmbeddingGraph::Edge in{};
    EmbeddingGraph::Edge out{};
  };
  /// Where implicit leaves' labels at a vertex come from: the mesh point
  /// (x, y) (x < 0 if none), and at a spliced vertex the edges to its anchor.
  struct LeafReach {
    std::int32_t x = -1;
    std::int32_t y = -1;
    const Splice* via = nullptr;
  };
  LeafReach leaf_reach(std::size_t jv) const;
  /// Implicit leaf c's label at vertex jv, as the sweep would have left it;
  /// false if it has none there.
  bool implicit_leaf_label(TreeNodeId c, std::size_t jv, const LeafReach& reach,
                           LabelKey& key) const;

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
  /// Indexed by extra vertex − mesh_->count.
  std::vector<Splice> splices_;
  /// On the mesh, unless an extra vertex has two edges to or from its anchor.
  bool implicit_leaves_ = false;
  /// Indexed by tree node; set for implicit leaves.
  std::vector<ImplicitLeaf> leaves_;

  /// Where the spill run of the node being processed starts in mem_.spill.
  std::size_t spill_begin_ = 0;

  std::vector<RootSolution> tradeoff_;
  std::size_t labels_created_ = 0;
  EmbedCounters counters_;
  bool check_frontiers_ = false;
  bool frontiers_ok_ = true;
};

}  // namespace repro
