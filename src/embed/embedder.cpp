#include "embed/embedder.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>

#include "util/log.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace repro {
namespace {

/// The max_labels rule: of `n` live labels in cost order, the k-th of the
/// `cap` survivors is the one at rank k·(n−1)/(cap−1), an even cost-rank
/// sample that keeps both ends.
std::size_t capped_rank(std::size_t k, std::size_t n, std::size_t cap) {
  return cap == 1 ? 0 : k * (n - 1) / (cap - 1);
}

}  // namespace

FaninTreeEmbedder::FaninTreeEmbedder(const FaninTree& tree, const EmbeddingGraph& graph,
                                     PlacementCostFn placement_cost, EmbedOptions options,
                                     EmbedScratch* scratch)
    : tree_(tree), graph_(graph), pcost_(std::move(placement_cost)), opt_(options),
      stem_delay_(static_cast<bool>(opt_.stem_delay)), scratch_(scratch) {
  assert(opt_.lex_order >= 1 && opt_.lex_order <= DelayVec::kCapacity);
  if (opt_.lex_mc) opt_.lex_order = 1;  // mc uses its own [t, tc] layout
  for (std::size_t n = 0; n < tree_.size(); ++n)
    if (tree_.node(TreeNodeId(static_cast<TreeNodeId::value_type>(n))).children.size() >
        kMaxFanin)
      throw std::invalid_argument("FaninTreeEmbedder: a tree node has more than " +
                                  std::to_string(kMaxFanin) + " children");
  if (scratch_) mem_ = std::move(*scratch_);
  if (sweep_applies()) mesh_ = graph_.mesh();
  if (implicit_leaves_) leaves_.resize(tree_.size());
}

FaninTreeEmbedder::~FaninTreeEmbedder() {
  if (scratch_) {
    arena_record_peak(arena_counters().embed_scratch_bytes, mem_.capacity_bytes());
    *scratch_ = std::move(mem_);
  }
}

std::size_t EmbedScratch::capacity_bytes() const {
  std::size_t bytes = work.capacity() * sizeof(LabelList) + cold.capacity_bytes() +
                      keys.capacity() * sizeof(LabelKey) +
                      (key_index.capacity() + key_offsets.capacity() + offsets.capacity() +
                       row.capacity() + key_row.capacity() + kept_rank.capacity() +
                       trail.capacity() + old_row.capacity() + label_base.capacity()) *
                          sizeof(std::uint32_t) +
                      kept.capacity() * sizeof(std::uint64_t) +
                      spans.capacity() * sizeof(FrozenSpan) +
                      reached.capacity() + joins.capacity() * sizeof(LabelRef) +
                      leaf_steps.capacity() * sizeof(LeafStep) + spill.capacity_bytes() +
                      stairs.capacity() * sizeof(stairs[0]) +
                      merged.capacity() * sizeof(SweepLabel);
  for (const LabelList& list : work)
    bytes += list.key.capacity() * sizeof(LabelKey) +
             list.cold.capacity() * sizeof(LabelCold);
  for (const auto& s : stairs) bytes += s.capacity() * sizeof(SweepLabel);
  return bytes;
}

std::uint32_t FaninTreeEmbedder::insert_label(LabelList& list, const LabelKey& key,
                                              const LabelCold& cold, WorkBuffers& wb,
                                              std::size_t& created) {
  // One walk makes both dominance tests. The live keys form an antichain, so
  // if a live key dominates the new one, the new one dominates no live key
  // (it would dominate that key by transitivity): nothing has been killed
  // when the walk rejects.
  std::uint32_t killed = 0;
  for (LabelKey& e : list.key) {
    if (e.dead) continue;
    const int c = e.delay.lex_compare(key.delay);
    if (dominates(e, key, c)) {
      assert(killed == 0);
      return kRejected;
    }
    if (dominates(key, e, -c)) {
      e.dead = 1;
      ++killed;
    }
  }
  list.live -= killed;
  if (opt_.max_labels > 0 && list.live > 2 * static_cast<std::uint32_t>(opt_.max_labels))
    cap_list(list, wb.cap_order);
  const auto index = static_cast<std::uint32_t>(list.key.size());
  if (list.key.capacity() < 8) {  // skip the tiny-growth reallocs
    list.key.reserve(8);
    list.cold.reserve(8);
  }
  list.key.push_back(key);
  list.cold.push_back(cold);
  ++list.live;
  ++created;
  return index;
}

void FaninTreeEmbedder::cap_list(LabelList& list, std::vector<std::uint32_t>& order) {
  // Soft cap, applied when the live population exceeds 2x the cap: keep the
  // cheapest, the (lex) fastest, and an even cost-spread of the rest.
  order.clear();
  for (std::uint32_t k = 0; k < list.key.size(); ++k)
    if (!list.key[k].dead) order.push_back(k);
  std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
    return list.key[x].cost < list.key[y].cost;
  });
  // Mark all dead, then resurrect an even sample (ends always kept).
  for (std::uint32_t k : order) list.key[k].dead = 1;
  const auto keep = static_cast<std::size_t>(opt_.max_labels);
  for (std::size_t k = 0; k < keep; ++k)
    list.key[order[capped_rank(k, order.size(), keep)]].dead = 0;
  list.live = static_cast<std::uint32_t>(keep);
}

double FaninTreeEmbedder::augment_delay_delta(std::int32_t stem_len,
                                              double edge_delay_or_len) const {
  if (!stem_delay_) return edge_delay_or_len;
  const int len = static_cast<int>(edge_delay_or_len);
  return opt_.stem_delay(stem_len + len) - opt_.stem_delay(stem_len);
}

void FaninTreeEmbedder::wavefront() {
  // Generalized Dijkstra (Fig. 6, GenDijkstra): multi-source expansion of all
  // current labels of the node through the graph, keeping non-dominated
  // signatures per vertex. Queue entries carry (cost, primary delay) and the
  // label's address; the whole delay vector is read from the table only when
  // both tie. Labels have n >= 1, so this orders entries exactly as comparing
  // (cost, whole delay vector) would.
  struct QItem {
    double cost;
    double primary;
    EmbedVertexId vertex;
    std::uint32_t label;
  };
  std::vector<LabelList>& lists = mem_.work;
  auto later = [&lists](const QItem& x, const QItem& y) {
    if (x.cost != y.cost) return x.cost > y.cost;
    if (x.primary != y.primary) return x.primary > y.primary;
    return lists[y.vertex.index()].key[y.label].delay.lex_compare(
               lists[x.vertex.index()].key[x.label].delay) < 0;
  };
  std::priority_queue<QItem, std::vector<QItem>, decltype(later)> pq(later);

  for (std::size_t j = 0; j < lists.size(); ++j)
    for (std::uint32_t li = 0; li < lists[j].key.size(); ++li) {
      const LabelKey& k = lists[j].key[li];
      if (!k.dead)
        pq.push(QItem{k.cost, k.delay.v[0],
                      EmbedVertexId(static_cast<EmbedVertexId::value_type>(j)), li});
    }

  while (!pq.empty()) {
    const QItem item = pq.top();
    pq.pop();
    const LabelList& from = lists[item.vertex.index()];
    if (from.key[item.label].dead) continue;  // superseded since queued (line d7)
    // Copy: inserts below may reallocate label vectors.
    const LabelKey cur = from.key[item.label];
    LabelCold cold;
    cold.mc_weight = from.cold[item.label].mc_weight;
    cold.prov.kind = Provenance::Kind::kAugment;
    cold.prov.from = item.vertex;
    cold.prov.pred_label = item.label;

    for (const EmbeddingGraph::Edge& e : graph_.edges_from(item.vertex)) {
      LabelKey next;
      next.cost = cur.cost + e.cost;
      const double delta = augment_delay_delta(cur.stem_len, e.delay);
      next.delay = cur.delay;
      if (opt_.lex_mc) {
        next.delay.v[0] += delta;
        if (cold.mc_weight > 0 && next.delay.n > 1) next.delay.v[1] += delta;
      } else {
        next.delay.shift(delta);
      }
      next.stem_len = stem_delay_ ? cur.stem_len + static_cast<int>(e.delay) : 0;

      const std::uint32_t at =
          insert_label(lists[e.to.index()], next, cold, buffers_, labels_created_);
      if (at != kRejected) pq.push(QItem{next.cost, next.delay.v[0], e.to, at});
    }
  }
}

bool FaninTreeEmbedder::sweep_applies() {
  // Uniform shifts keep a 2-D (cost, lex delay) dominance order; Lex-mc
  // shifts tc only for some labels, and stem delay and branching bits add
  // dominance dimensions the staircase merge does not track.
  const EmbeddingGraph::Mesh* mesh = graph_.mesh();
  if (!mesh || opt_.lex_mc || stem_delay_ || opt_.overlap_avoidance) return false;
  auto non_negative = [](double cost, double delay) { return cost >= 0 && delay >= 0; };
  if (!non_negative(mesh->cost_per_unit, mesh->delay_per_unit)) return false;
  // An extra vertex may touch only one mesh vertex (its anchor) and no other
  // extra vertex; then no shortest path passes through it, and relaxing it
  // into the mesh before the sweep and out of it after is exact.
  const std::size_t nv = graph_.num_vertices();
  splices_.assign(nv - mesh->count, Splice{});
  auto attach = [&](std::size_t extra, EmbedVertexId to) -> Splice* {
    Splice& s = splices_[extra - mesh->count];
    if (s.anchor >= 0 && s.anchor != static_cast<std::int32_t>(to.index())) return nullptr;
    s.anchor = static_cast<std::int32_t>(to.index());
    return &s;
  };
  auto count = [](std::uint8_t& n) { n = static_cast<std::uint8_t>(std::min(n + 1, 2)); };
  spliced_in_.clear();
  for (std::size_t v = 0; v < nv; ++v) {
    const EmbedVertexId from(static_cast<EmbedVertexId::value_type>(v));
    for (const EmbeddingGraph::Edge& e : graph_.edges_from(from)) {
      if (!non_negative(e.cost, e.delay)) return false;
      const bool extra_to = e.to.index() >= mesh->count;
      Splice* s = nullptr;
      if (v < mesh->count) {
        if (!extra_to) continue;  // a mesh edge
        if (!(s = attach(e.to.index(), from))) return false;
        spliced_in_.emplace_back(from, e);
        s->in = e;
        count(s->num_in);
      } else {
        if (extra_to || !(s = attach(v, e.to))) return false;
        s->out = e;
        count(s->num_out);
      }
    }
  }
  // Two edges between an extra vertex and its anchor can leave two labels
  // of one leaf at a vertex; such a graph keeps the stored leaves.
  implicit_leaves_ = std::all_of(splices_.begin(), splices_.end(), [](const Splice& s) {
    return s.num_in <= 1 && s.num_out <= 1;
  });
  return true;
}

void FaninTreeEmbedder::merge_shifted(std::vector<SweepLabel>& dst,
                                      const std::vector<SweepLabel>& src, double cost,
                                      double delay) {
  // Both inputs are staircases: costs strictly rise and delays strictly fall
  // (lexicographically). Walking them in (cost, delay) order, an entry is
  // dominated iff its delay is not below the last kept one. On a full tie
  // the entry already at the vertex goes first, so it survives.
  ++counters_.sweep_merges;
  // First find, reading only, the first shifted entry that survives. Until
  // one does, every dst entry is kept, so the last kept one is dst[a - 1].
  // The shift is added on the fly, as shifted() below adds it.
  auto compare_shifted = [delay](const DelayVec& x, const DelayVec& s) {
    const int m = std::min<int>(x.n, s.n);
    for (int k = 0; k < m; ++k) {
      const double sk = s.v[k] + delay;
      if (x.v[k] < sk) return -1;
      if (x.v[k] > sk) return 1;
    }
    return (x.n > s.n) - (x.n < s.n);
  };
  std::size_t a = 0;
  std::size_t b = 0;
  for (; b < src.size(); ++b) {
    const double c = src[b].key.cost + cost;
    while (a < dst.size() &&
           (dst[a].key.cost < c ||
            (dst[a].key.cost == c && compare_shifted(dst[a].key.delay, src[b].key.delay) <= 0)))
      ++a;
    if (a == 0 || compare_shifted(dst[a - 1].key.delay, src[b].key.delay) > 0) break;
  }
  if (b == src.size()) {
    ++counters_.sweep_merges_unchanged;
    cap_staircase(dst);
    return;
  }

  std::vector<SweepLabel>& merged = mem_.merged;
  merged.assign(dst.begin(), dst.begin() + static_cast<std::ptrdiff_t>(a));
  auto keep = [&merged](const SweepLabel& x) {
    if (merged.empty() || x.key.delay.lex_compare(merged.back().key.delay) < 0)
      merged.push_back(x);
  };
  auto shifted = [&](std::size_t k) {
    SweepLabel s = src[k];
    s.key.cost += cost;
    s.key.delay.shift(delay);
    s.key.branching = 0;
    return s;
  };
  SweepLabel next = shifted(b);
  while (true) {
    const bool take_dst =
        a < dst.size() &&
        (dst[a].key.cost < next.key.cost ||
         (dst[a].key.cost == next.key.cost &&
          dst[a].key.delay.lex_compare(next.key.delay) <= 0));
    if (take_dst) {
      keep(dst[a++]);
      continue;
    }
    keep(next);
    if (++b == src.size()) break;
    next = shifted(b);
  }
  while (a < dst.size()) keep(dst[a++]);
  cap_staircase(merged);
  dst.swap(merged);
}

void FaninTreeEmbedder::cap_staircase(std::vector<SweepLabel>& s) const {
  // The max_labels rule of cap_list. Ranks rise with k, so the in-place
  // copy reads only entries not yet overwritten.
  const auto cap = static_cast<std::size_t>(opt_.max_labels);
  if (cap > 0 && s.size() > 2 * cap) {
    const std::size_t n = s.size();
    for (std::size_t k = 0; k < cap; ++k) s[k] = s[capped_rank(k, n, cap)];
    s.resize(cap);
  }
}

void FaninTreeEmbedder::sweep_wavefront() {
  // On the mesh every edge adds the same (cost, delay), so a label at u
  // reaches v as (C + c·d, D + t·d) with d the Manhattan distance: the
  // frontier after GenDijkstra is the L1 distance transform of the joined
  // labels, computed by a forward and a backward pass along every column,
  // then along every row.
  std::vector<LabelList>& lists = mem_.work;
  std::vector<std::vector<SweepLabel>>& stairs = mem_.stairs;
  const std::size_t nv = lists.size();
  const EmbeddingGraph::Mesh& mesh = *mesh_;
  stairs.resize(nv);
  for (std::size_t j = 0; j < nv; ++j) {
    std::vector<SweepLabel>& s = stairs[j];
    s.clear();
    const EmbedVertexId v(static_cast<EmbedVertexId::value_type>(j));
    for (std::uint32_t li = 0; li < lists[j].key.size(); ++li)
      if (!lists[j].key[li].dead) s.push_back(SweepLabel{lists[j].key[li], v, li});
    // Live keys are an antichain, so their costs are distinct.
    std::sort(s.begin(), s.end(), [](const SweepLabel& x, const SweepLabel& y) {
      return x.key.cost < y.key.cost;
    });
  }

  for (std::size_t v = mesh.count; v < nv; ++v)
    if (!stairs[v].empty())
      for (const EmbeddingGraph::Edge& e :
           graph_.edges_from(EmbedVertexId(static_cast<EmbedVertexId::value_type>(v))))
        merge_shifted(stairs[e.to.index()], stairs[v], e.cost, e.delay);

  const auto w = static_cast<std::size_t>(mesh.region.width());
  const auto h = static_cast<std::size_t>(mesh.region.height());
  auto line = [&](std::size_t first, std::size_t stride, std::size_t len) {
    for (std::size_t k = 1; k < len; ++k)
      if (!stairs[first + (k - 1) * stride].empty())
        merge_shifted(stairs[first + k * stride], stairs[first + (k - 1) * stride],
                      mesh.cost_per_unit, mesh.delay_per_unit);
    for (std::size_t k = len - 1; k-- > 0;)
      if (!stairs[first + (k + 1) * stride].empty())
        merge_shifted(stairs[first + k * stride], stairs[first + (k + 1) * stride],
                      mesh.cost_per_unit, mesh.delay_per_unit);
  };
  for (std::size_t x = 0; x < w; ++x) line(x, w, h);
  for (std::size_t y = 0; y < h; ++y) line(y * w, 1, w);

  for (const auto& [from, e] : spliced_in_)
    if (!stairs[from.index()].empty())
      merge_shifted(stairs[e.to.index()], stairs[from.index()], e.cost, e.delay);
}

bool FaninTreeEmbedder::make_implicit_leaf(TreeNodeId i) {
  // The sweep would give the leaf's label (0, a) at its vertex and, at
  // every other vertex, the one label it reaches there: over the edge to
  // the anchor if the leaf is spliced, then over d mesh edges, then over
  // the edge into a spliced target. A label that went further is never
  // cheaper or faster, and repeated addition is monotone, so the survivor
  // carries the bits of the shortest route. The table repeats the sweep's
  // additions in its order.
  const FaninTreeNode& node = tree_.node(i);
  const EmbedVertexId v = graph_.vertex_at(node.fixed_loc);
  if (!v.valid()) return false;
  const EmbeddingGraph::Mesh& mesh = *mesh_;
  ImplicitLeaf& leaf = leaves_[i.index()];
  leaf = ImplicitLeaf{v};
  leaf.steps = static_cast<std::uint32_t>(mem_.leaf_steps.size());
  ++counters_.implicit_leaves;
  LeafStep step{0.0, node.leaf_arrival};
  std::size_t source = v.index();
  std::size_t created = mesh.count + spliced_in_.size();
  if (source >= mesh.count) {
    const Splice& s = splices_[source - mesh.count];
    if (s.num_out == 0) {
      ++labels_created_;
      return true;
    }
    step.cost += s.out.cost;
    step.delay += s.out.delay;
    source = static_cast<std::size_t>(s.anchor);
    created += 1 - s.num_in;
  }
  labels_created_ += created;
  const auto w = static_cast<std::size_t>(mesh.region.width());
  leaf.source_x = static_cast<std::int32_t>(source % w);
  leaf.source_y = static_cast<std::int32_t>(source / w);
  const auto max_d = static_cast<std::size_t>(mesh.region.width() + mesh.region.height() - 2);
  for (std::size_t d = 0; d <= max_d; ++d) {
    mem_.leaf_steps.push_back(step);
    step.cost += mesh.cost_per_unit;
    step.delay += mesh.delay_per_unit;
  }
  return true;
}

FaninTreeEmbedder::LeafReach FaninTreeEmbedder::leaf_reach(std::size_t jv) const {
  LeafReach r;
  if (!implicit_leaves_) return r;
  std::size_t at = jv;
  if (jv >= mesh_->count) {
    r.via = &splices_[jv - mesh_->count];
    if (r.via->num_in == 0) return r;
    at = static_cast<std::size_t>(r.via->anchor);
  }
  const auto w = static_cast<std::size_t>(mesh_->region.width());
  r.x = static_cast<std::int32_t>(at % w);
  r.y = static_cast<std::int32_t>(at / w);
  return r;
}

bool FaninTreeEmbedder::implicit_leaf_label(TreeNodeId c, std::size_t jv,
                                            const LeafReach& reach, LabelKey& key) const {
  const ImplicitLeaf& leaf = leaves_[c.index()];
  key = LabelKey{};
  if (leaf.vertex.index() == jv) {
    key.delay = DelayVec::single(tree_.node(c).leaf_arrival);
    key.branching = 1;
    return true;
  }
  if (reach.x < 0 || leaf.source_x < 0) return false;
  const LeafStep& step =
      mem_.leaf_steps[leaf.steps + static_cast<std::uint32_t>(std::abs(reach.x - leaf.source_x) +
                                                              std::abs(reach.y - leaf.source_y))];
  key.cost = step.cost;
  key.delay = DelayVec::single(step.delay);
  if (reach.via) {
    key.cost += reach.via->in.cost;
    key.delay.v[0] += reach.via->in.delay;
  }
  return true;
}

void FaninTreeEmbedder::join_vertex_range(TreeNodeId i, std::size_t lo, std::size_t hi,
                                          WorkBuffers& wb,
                                          std::vector<std::uint32_t>& spill,
                                          std::size_t& created, EmbedCounters& work) {
  const FaninTreeNode& node = tree_.node(i);
  const std::size_t fanin = node.children.size();
  assert(fanin <= kMaxFanin);
  // Without Lex-mc and branching bits, partials compare by (cost, lex
  // delay), and candidates that another candidate strictly dominates can be
  // skipped unbuilt (docs/ALGORITHMS.md §1, "Skipped candidates").
  const bool skip_dominated = !opt_.lex_mc && !opt_.overlap_avoidance;
  // Without branching bits the partials compare by (cost, lex delay) also
  // under Lex-mc and stem delay, so their prune is a staircase search.
  const bool staircase = !opt_.overlap_avoidance;
  const int lex = opt_.lex_order;
  constexpr double kNone = std::numeric_limits<double>::infinity();
  static constexpr std::uint32_t kLabelZero = 0;
  std::uint64_t candidates = 0;
  std::uint64_t skipped = 0;
  std::uint64_t compares = 0;

  FrozenList kids[kMaxFanin];
  LabelKey leaf_keys[kMaxFanin];
  for (std::size_t jv = lo; jv < hi; ++jv) {
    const LeafReach reach = leaf_reach(jv);
    bool empty = false;
    for (std::size_t k = 0; k < fanin && !empty; ++k) {
      const TreeNodeId c = node.children[k];
      if (!is_implicit_leaf(c))
        kids[k] = frozen(c, jv);
      else if (implicit_leaf_label(c, jv, reach, leaf_keys[k]))
        kids[k] = FrozenList{&leaf_keys[k], &kLabelZero, 1, 0};
      else
        kids[k] = FrozenList{};
      // A child with no live label at j leaves nothing to join.
      empty = kids[k].size == 0;
    }
    if (empty) continue;
    EmbedVertexId j(static_cast<EmbedVertexId::value_type>(jv));
    // Forbidden locations (blocked slots, wrong resource type) are modeled
    // as placement costs >= kForbiddenCost: no gate may be created there.
    const double place_cost = pcost_ ? pcost_(i, j) : 0.0;
    if (place_cost >= kForbiddenCost) continue;

    // Fold the children's label lists into partial joins, pruning dominated
    // partials at each fold (JoinTree, line c2). The kept partials form an
    // antichain too, so one walk both rejects a new partial and drops the
    // ones it dominates, preserving the order of the rest; under RT and
    // Lex-N a binary search over their staircase does the same.
    std::vector<PartialJoin>& partials = wb.partials;
    partials.clear();
    partials.push_back(PartialJoin{});
    for (std::size_t depth = 0; depth < fanin; ++depth) {
      const FrozenList& child_labels = kids[depth];
      std::vector<PartialJoin>& next = wb.next;
      next.clear();
      candidates += partials.size() * child_labels.size;
      if (depth == 0 && skip_dominated && !stem_delay_) {
        // Joined to the empty partial, each child label keeps its signature,
        // and the live labels are an antichain: all of them survive, in
        // index order.
        const PartialJoin& p = partials.front();
        for (std::uint32_t li = 0; li < child_labels.size; ++li) {
          const LabelKey& cl = child_labels.key[li];
          assert(cl.delay.n <= lex);
          PartialJoin np;
          np.cost = p.cost + cl.cost;
          np.delay = cl.delay;
          np.sum_branch_bits = cl.branching;
          np.child_labels[0] = child_labels.index[li];
          next.push_back(np);
        }
        std::swap(partials, next);
        continue;
      }
      // x is absorbed by y if y tracks `lex` delays and x's largest is at
      // most y's smallest; then x.merged_with(y) and y.merged_with(x) are y.
      // Among candidates whose delay is one absorbing partial's or child
      // label's, only the cheapest can survive.
      const bool skip = skip_dominated && depth > 0;
      std::vector<double>& cheapest_partial = wb.absorbed_partial_cost;
      wb.stair.clear();
      wb.dead.clear();
      if (skip) {
        cheapest_partial.assign(child_labels.size, kNone);
        for (std::uint32_t li = 0; li < child_labels.size; ++li) {
          const DelayVec& d = child_labels.key[li].delay;
          if (d.n != lex) continue;
          for (const PartialJoin& p : partials)
            if (p.delay.v[0] <= d.v[lex - 1])
              cheapest_partial[li] = std::min(cheapest_partial[li], p.cost);
        }
      }
      for (const PartialJoin& p : partials) {
        const bool p_absorbs = skip && p.delay.n == lex;
        double cheapest_child = kNone;
        if (p_absorbs)
          for (std::uint32_t li = 0; li < child_labels.size; ++li)
            if (child_labels.key[li].delay.v[0] <= p.delay.v[lex - 1])
              cheapest_child = std::min(cheapest_child, child_labels.key[li].cost);
        for (std::uint32_t li = 0; li < child_labels.size; ++li) {
          const LabelKey& cl = child_labels.key[li];
          const double cost = p.cost + cl.cost;
          // Skip (p, b) if a candidate with the same merged delay is
          // strictly cheaper: (p, cheapest b' p absorbs) when p absorbs b,
          // or (cheapest p' b absorbs, b) when b absorbs p.
          if (skip && ((p_absorbs && cl.delay.v[0] <= p.delay.v[lex - 1] &&
                        cost > p.cost + cheapest_child) ||
                       (cl.delay.n == lex && p.delay.v[0] <= cl.delay.v[lex - 1] &&
                        cost > cheapest_partial[li] + cl.cost))) {
            ++skipped;
            continue;
          }
          DelayVec delay;
          int mc_weight = 0;
          if (opt_.lex_mc) {
            // Section VI-A Lex-mc join: t = max(t_k); tc = sum(tc_k * w_k);
            // w = sum(w_k). The partial already folded earlier children.
            const int w =
                mem_.cold[child_labels.cold_base + child_labels.index[li]].mc_weight;
            const double t = std::max(p.delay.n ? p.delay.v[0] : 0.0, cl.delay.v[0]);
            const double tc_p = p.delay.n > 1 ? p.delay.v[1] : 0.0;
            const double tc_c = cl.delay.n > 1 ? cl.delay.v[1] : 0.0;
            delay = DelayVec::pair(t, tc_p + tc_c * w);
            mc_weight = p.mc_weight + w;
          } else {
            delay = p.delay.merged_with(cl.delay, lex);
          }
          const int branch_bits = p.sum_branch_bits + cl.branching;
          if (staircase) {
            // The kept partials are an antichain in (cost, lex delay), so in
            // cost order their delays strictly fall: the one partial that
            // can dominate the candidate is the costliest not above its
            // cost, and those it dominates are a run right after that one.
            // They are marked dead and dropped when the fold ends, so the
            // survivors keep their enumeration order.
            std::vector<std::uint32_t>& stair = wb.stair;
            auto at = std::upper_bound(stair.begin(), stair.end(), cost,
                                       [&next](double c, std::uint32_t k) {
                                         return c < next[k].cost;
                                       });
            if (at != stair.begin()) {
              const PartialJoin& q = next[*(at - 1)];
              ++compares;
              if (q.delay.lex_compare(delay) <= 0) continue;
              if (q.cost == cost) --at;  // the candidate dominates q
            }
            auto end = at;
            for (; end != stair.end(); ++end) {
              ++compares;
              if (next[*end].delay.lex_compare(delay) < 0) break;
              wb.dead[*end] = 1;
            }
            const auto index = static_cast<std::uint32_t>(next.size());
            if (at == end) {
              stair.insert(at, index);
            } else {
              *at = index;
              stair.erase(at + 1, end);
            }
            wb.dead.push_back(0);
          } else {
            // Overlap avoidance: dominance also compares branching bits.
            bool dominated = false;
            std::size_t kept = 0;
            std::size_t r = 0;
            for (; r < next.size(); ++r) {
              const PartialJoin& q = next[r];
              const int c = q.delay.lex_compare(delay);
              if (q.cost <= cost && c <= 0 &&
                  (!opt_.overlap_avoidance || q.sum_branch_bits <= branch_bits)) {
                assert(kept == r);
                dominated = true;
                break;
              }
              if (cost <= q.cost && c >= 0 &&
                  (!opt_.overlap_avoidance || branch_bits <= q.sum_branch_bits))
                continue;  // dropped: the candidate dominates q
              if (kept != r) next[kept] = q;
              ++kept;
            }
            if (dominated) {
              compares += r + 1;
              continue;
            }
            compares += r;
            next.resize(kept);
          }
          PartialJoin& np = next.emplace_back();
          np.cost = cost;
          np.delay = delay;
          np.mc_weight = mc_weight;
          np.sum_branch_bits = branch_bits;
          std::copy_n(p.child_labels, depth, np.child_labels);
          np.child_labels[depth] = child_labels.index[li];
        }
      }
      if (staircase) {
        std::size_t kept = 0;
        for (std::size_t r = 0; r < next.size(); ++r)
          if (!wb.dead[r]) next[kept++] = next[r];
        next.resize(kept);
      }
      std::swap(partials, next);
    }

    LabelList& out = mem_.work[jv];
    for (const PartialJoin& p : partials) {
      if (opt_.overlap_avoidance && p.sum_branch_bits > opt_.branch_capacity - 1)
        continue;  // Section II-A: joining branching solutions overlaps
      LabelKey key;
      key.cost = p.cost + place_cost;
      key.delay = p.delay;
      if (opt_.lex_mc) {
        key.delay.v[0] += node.gate_delay;
        if (p.mc_weight > 0 && key.delay.n > 1) key.delay.v[1] += node.gate_delay;
      } else {
        key.delay.shift(node.gate_delay);
      }
      key.branching = 1;
      LabelCold cold;
      cold.mc_weight = p.mc_weight;
      cold.prov.kind = Provenance::Kind::kJoin;
      if (fanin <= 2) {
        std::copy_n(p.child_labels, fanin, cold.prov.child_labels_inline);
      } else {
        cold.prov.spill_index = static_cast<std::int32_t>(spill.size());
        spill.insert(spill.end(), p.child_labels, p.child_labels + fanin);
      }
      insert_label(out, key, cold, wb, created);
    }
  }
  work.join_candidates += candidates;
  work.join_skipped += skipped;
  work.partial_compares += compares;
}

void FaninTreeEmbedder::join_node(TreeNodeId i, bool root_mode) {
  const FaninTreeNode& node = tree_.node(i);
  assert(!node.is_leaf());
  auto join_serially = [&](std::size_t lo, std::size_t hi) {
    buffers_.spill.clear();
    join_vertex_range(i, lo, hi, buffers_, buffers_.spill, labels_created_, counters_);
    mem_.spill.append(buffers_.spill.data(), buffers_.spill.data() + buffers_.spill.size());
  };

  // Restrict the root to its fixed vertex unless relocation is enabled.
  if (root_mode && !opt_.relocatable_root) {
    EmbedVertexId only_vertex = graph_.vertex_at(node.fixed_loc);
    if (!only_vertex.valid()) {
      LOG_WARN() << "fanin tree root '" << node.name
                 << "' lies outside the embedding graph";
      return;
    }
    join_serially(only_vertex.index(), only_vertex.index() + 1);
    return;
  }

  const std::size_t nv = graph_.num_vertices();
  ThreadPool* pool = opt_.pool;
  if (!pool || pool->num_workers() == 0 ||
      nv < static_cast<std::size_t>(opt_.parallel_min_vertices)) {
    join_serially(0, nv);
    return;
  }

  // Parallel join: the A[i][*] columns only read the children's frozen
  // lists, so contiguous vertex chunks are processed concurrently. Each
  // chunk appends >2-child provenance to its own arena; arenas are appended
  // to the node's spill run in chunk (= vertex) order with the offsets
  // rebased, so the spill pool layout — and every label bit — matches the
  // serial embedder. Counters are integers, so their sums match it too.
  const std::size_t grain =
      std::max<std::size_t>(16, nv / (4 * pool->num_threads()));
  const std::size_t nchunks = (nv + grain - 1) / grain;
  std::vector<std::vector<std::uint32_t>> arenas(nchunks);
  std::vector<std::size_t> created(nchunks, 0);
  std::vector<EmbedCounters> work(nchunks);
  pool->parallel_for(nchunks, 1, [&](std::size_t c) {
    const std::size_t lo = c * grain;
    const std::size_t hi = std::min(nv, lo + grain);
    WorkBuffers wb;
    join_vertex_range(i, lo, hi, wb, arenas[c], created[c], work[c]);
  });
  for (std::size_t c = 0; c < nchunks; ++c) {
    const auto base = static_cast<std::int32_t>(mem_.spill.size() - spill_begin_);
    if (base > 0 && !arenas[c].empty()) {
      const std::size_t lo = c * grain;
      const std::size_t hi = std::min(nv, lo + grain);
      for (std::size_t jv = lo; jv < hi; ++jv)
        for (LabelCold& l : mem_.work[jv].cold)
          if (l.prov.kind == Provenance::Kind::kJoin && l.prov.spill_index >= 0)
            l.prov.spill_index += base;
    }
    mem_.spill.append(arenas[c].data(), arenas[c].data() + arenas[c].size());
    labels_created_ += created[c];
    counters_ += work[c];
  }
}

FaninTreeEmbedder::FrozenList FaninTreeEmbedder::frozen(TreeNodeId i,
                                                        std::size_t j) const {
  const std::uint32_t* keys = mem_.key_offsets.data() + mem_.key_row[i.index()];
  return FrozenList{mem_.keys.data() + keys[j], mem_.key_index.data() + keys[j],
                    keys[j + 1] - keys[j], static_cast<std::uint32_t>(cold_at(i, j))};
}

void FaninTreeEmbedder::freeze(TreeNodeId i, bool swept) {
  // The cold halves keep every label, dead ones included, in index order,
  // until i's parent is frozen; the key stack gets the live keys and their
  // label indices.
  const std::size_t nv = mem_.work.size();
  const std::uint32_t first = compact_children(i, swept);
  const auto cold_base = static_cast<std::uint32_t>(mem_.cold.size());
  mem_.row[i.index()] = static_cast<std::uint32_t>(mem_.spans.size());
  mem_.spans.push_back(
      FrozenSpan{cold_base, static_cast<std::uint32_t>(spill_begin_), first});
  mem_.key_row[i.index()] = static_cast<std::uint32_t>(mem_.key_offsets.size());
  for (std::size_t j = 0; j < nv; ++j) {
    LabelList& list = mem_.work[j];
    const std::size_t first_key = mem_.keys.size();
    mem_.offsets.push_back(static_cast<std::uint32_t>(mem_.cold.size() - cold_base));
    mem_.key_offsets.push_back(static_cast<std::uint32_t>(first_key));
    mem_.cold.append(list.cold.data(), list.cold.data() + list.cold.size());
    if (swept) {
      // A label already in the list survives iff its own entry is still on
      // the staircase.
      for (LabelKey& k : list.key) k.dead = 1;
      for (const SweepLabel& s : mem_.stairs[j])
        if (s.origin.index() == j) list.key[s.origin_label].dead = 0;
    }
    for (std::uint32_t k = 0; k < list.key.size(); ++k)
      if (!list.key[k].dead) {
        mem_.keys.push_back(list.key[k]);
        mem_.key_index.push_back(k);
      }
    if (check_frontiers_ && !swept && mem_.keys.size() - first_key != list.live)
      frontiers_ok_ = false;
    if (swept) {
      // The other staircase entries are appended in cost order, pointing
      // straight at the label they were shifted from.
      auto index = static_cast<std::uint32_t>(list.key.size());
      for (const SweepLabel& s : mem_.stairs[j]) {
        if (s.origin.index() == j) continue;
        LabelCold cold;
        cold.prov.kind = Provenance::Kind::kAugment;
        cold.prov.from = s.origin;
        cold.prov.pred_label = s.origin_label;
        mem_.cold.push_back(cold);
        mem_.keys.push_back(s.key);
        mem_.key_index.push_back(index++);
        ++labels_created_;
      }
    }
    if (check_frontiers_ &&
        !is_antichain(mem_.keys.data() + first_key, mem_.keys.size() - first_key))
      frontiers_ok_ = false;
    list.clear();
  }
  if (mem_.cold.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("FaninTreeEmbedder: more than 2^32 labels in one embedding");
  mem_.offsets.push_back(static_cast<std::uint32_t>(mem_.cold.size() - cold_base));
  mem_.key_offsets.push_back(static_cast<std::uint32_t>(mem_.keys.size()));
}

std::uint32_t FaninTreeEmbedder::compact_children(TreeNodeId p, bool swept) {
  const auto rows = static_cast<std::uint32_t>(mem_.spans.size());
  const FaninTreeNode& node = tree_.node(p);
  const std::size_t fanin = node.children.size();
  auto next_stored = [&](std::size_t k) {
    while (k < fanin && is_implicit_leaf(node.children[k])) ++k;
    return k;
  };
  std::size_t k = next_stored(0);
  if (k == fanin) return rows;
  // In post-order, p's subtree is the tail of the arena and of the spill
  // pool from its first frozen node on, then p's own spill run.
  const std::uint32_t first = mem_.spans[mem_.row[node.children[k].index()]].first;

  // Mark the labels of p that its live labels reach along augment chains,
  // and keep the joins among them: only their child indices can be read.
  std::vector<LabelList>& lists = mem_.work;
  const std::size_t nv = lists.size();
  std::vector<std::uint32_t>& base = mem_.label_base;
  base.resize(nv + 1);
  base[0] = 0;
  for (std::size_t j = 0; j < nv; ++j)
    base[j + 1] = base[j] + static_cast<std::uint32_t>(lists[j].cold.size());
  std::vector<std::uint8_t>& reached = mem_.reached;
  reached.assign(base[nv], 0);
  std::vector<LabelRef>& joins = mem_.joins;
  joins.clear();
  auto reach = [&](std::size_t j, std::uint32_t li) {
    std::uint8_t& r = reached[base[j] + li];
    if (!r) {
      r = 1;
      joins.push_back(LabelRef{static_cast<std::uint32_t>(j), li});
    }
  };
  for (std::size_t j = 0; j < nv; ++j) {
    if (swept) {
      // A staircase entry is a label of the list it came from.
      for (const SweepLabel& s : mem_.stairs[j]) reach(s.origin.index(), s.origin_label);
    } else {
      for (std::uint32_t li = 0; li < lists[j].key.size(); ++li)
        if (!lists[j].key[li].dead) reach(j, li);
    }
  }
  for (std::size_t n = 0; n < joins.size(); ++n) {
    const Provenance& prov = lists[joins[n].vertex].cold[joins[n].label].prov;
    if (prov.kind == Provenance::Kind::kAugment) reach(prov.from.index(), prov.pred_label);
  }
  std::erase_if(joins, [&](LabelRef r) {
    return lists[r.vertex].cold[r.label].prov.kind != Provenance::Kind::kJoin;
  });

  // Slide the subtree down, cutting each stored child to what the reached
  // joins reach in it; the other nodes were cut at their own parents'
  // freezes and only move.
  const std::size_t stride = nv + 1;
  std::size_t cold_to = mem_.spans[first].cold;
  std::size_t spill_to = mem_.spans[first].spill;
  for (std::uint32_t r = first; r < rows; ++r) {
    FrozenSpan& span = mem_.spans[r];
    const std::size_t cold_from = span.cold;
    const std::size_t spill_from = span.spill;
    const std::size_t cold_end = r + 1 < rows ? mem_.spans[r + 1].cold : mem_.cold.size();
    const std::size_t spill_end = r + 1 < rows ? mem_.spans[r + 1].spill : spill_begin_;
    span.cold = static_cast<std::uint32_t>(cold_to);
    span.spill = static_cast<std::uint32_t>(spill_to);
    if (k == fanin || mem_.row[node.children[k].index()] != r) {
      if (cold_to != cold_from) mem_.cold.move_down(cold_from, cold_to, cold_end - cold_from);
      if (spill_to != spill_from)
        mem_.spill.move_down(spill_from, spill_to, spill_end - spill_from);
      cold_to += cold_end - cold_from;
      spill_to += spill_end - spill_from;
      continue;
    }

    // Child c: mark what the reached joins of p point at, then follow c's
    // own augment chains.
    std::uint32_t* row = mem_.offsets.data() + r * stride;
    std::vector<std::uint32_t>& old_row = mem_.old_row;
    old_row.assign(row, row + stride);
    const std::size_t len = old_row[nv];
    // One bit per label; the extra word lets rank() take q == len.
    std::vector<std::uint64_t>& kept = mem_.kept;
    kept.assign(len / 64 + 1, 0);
    std::vector<std::uint32_t>& trail = mem_.trail;
    auto mark = [&](std::size_t q) {
      const std::uint64_t bit = std::uint64_t{1} << (q & 63);
      if (!(kept[q >> 6] & bit)) {
        kept[q >> 6] |= bit;
        trail.push_back(static_cast<std::uint32_t>(q));
      }
    };
    for (const LabelRef ref : joins)
      mark(old_row[ref.vertex] +
           child_label(lists[ref.vertex].cold[ref.label].prov, spill_begin_, k));
    while (!trail.empty()) {
      const Provenance& prov = mem_.cold[cold_from + trail.back()].prov;
      trail.pop_back();
      if (prov.kind == Provenance::Kind::kAugment)
        mark(old_row[prov.from.index()] + prov.pred_label);
    }
    // Kept labels keep their order in each A[c][j]: a label's new index is
    // the number of kept labels before it in c, less those before A[c][j].
    std::vector<std::uint32_t>& rank_base = mem_.kept_rank;
    rank_base.resize(kept.size());
    std::uint32_t total = 0;
    for (std::size_t w = 0; w < kept.size(); ++w) {
      rank_base[w] = total;
      total += static_cast<std::uint32_t>(std::popcount(kept[w]));
    }
    auto rank = [&](std::size_t q) {
      const std::uint64_t below = (std::uint64_t{1} << (q & 63)) - 1;
      return rank_base[q >> 6] + static_cast<std::uint32_t>(std::popcount(kept[q >> 6] & below));
    };
    for (std::size_t j = 0; j <= nv; ++j) row[j] = rank(old_row[j]);
    auto remap = [&](std::size_t j, std::uint32_t li) {
      assert(kept[(old_row[j] + li) >> 6] >> ((old_row[j] + li) & 63) & 1);
      return rank(old_row[j] + li) - row[j];
    };
    // Copy them down with their pointers into c rewritten. Spill runs rise
    // with the label order, so they copy down front first too.
    const std::size_t child_fanin = tree_.node(node.children[k]).children.size();
    std::size_t to = cold_to;
    std::size_t spilled = 0;
    for (std::size_t w = 0; w < kept.size(); ++w)
      for (std::uint64_t bits = kept[w]; bits != 0; bits &= bits - 1) {
        const std::size_t q = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        LabelCold l = mem_.cold[cold_from + q];
        if (l.prov.kind == Provenance::Kind::kAugment) {
          l.prov.pred_label = remap(l.prov.from.index(), l.prov.pred_label);
        } else if (l.prov.kind == Provenance::Kind::kJoin && l.prov.spill_index >= 0) {
          mem_.spill.move_down(spill_from + static_cast<std::size_t>(l.prov.spill_index),
                               spill_to + spilled, child_fanin);
          l.prov.spill_index = static_cast<std::int32_t>(spilled);
          spilled += child_fanin;
        }
        mem_.cold[to++] = l;
      }
    // And p's reached joins point at the new indices.
    for (const LabelRef ref : joins) {
      std::uint32_t& idx = child_label(lists[ref.vertex].cold[ref.label].prov, spill_begin_, k);
      idx = remap(ref.vertex, idx);
    }
    counters_.labels_compacted += len - total;
    cold_to += total;
    spill_to += spilled;
    k = next_stored(k + 1);
  }
  // p's own spill run comes last.
  const std::size_t run = mem_.spill.size() - spill_begin_;
  if (spill_to != spill_begin_) mem_.spill.move_down(spill_begin_, spill_to, run);
  mem_.spill.truncate(spill_to + run);
  spill_begin_ = spill_to;
  mem_.cold.truncate(cold_to);
#ifndef NDEBUG
  // Nothing reads the child indices of p's unreached joins: they are stale.
  for (std::size_t j = 0; j < nv; ++j)
    for (std::uint32_t li = 0; li < lists[j].cold.size(); ++li) {
      Provenance& prov = lists[j].cold[li].prov;
      if (!reached[base[j] + li] && prov.kind == Provenance::Kind::kJoin)
        for (std::size_t c = 0; c < fanin; ++c) child_label(prov, spill_begin_, c) = kDropped;
    }
#endif
  return first;
}

bool FaninTreeEmbedder::run() {
  // A fresh arena that keeps the capacities grown so far.
  const std::size_t nv = graph_.num_vertices();
  mem_.work.resize(nv);
  for (LabelList& list : mem_.work) list.clear();
  mem_.cold.clear();
  mem_.keys.clear();
  mem_.key_index.clear();
  mem_.key_offsets.clear();
  mem_.offsets.clear();
  mem_.spans.clear();
  mem_.leaf_steps.clear();
  mem_.spill.clear();
  mem_.row.resize(tree_.size());
  mem_.key_row.resize(tree_.size());
  std::size_t stored = 0;
  for (std::size_t n = 0; n < tree_.size(); ++n)
    if (!is_implicit_leaf(TreeNodeId(static_cast<TreeNodeId::value_type>(n)))) ++stored;
  mem_.offsets.reserve(stored * (nv + 1));
  frontiers_ok_ = true;

  // Bottom-up over the tree (ComputeSubTree). Node i's keys are read only by
  // its own wavefront and by its parent's join, and in post-order the
  // children of i are the nodes on top of the key stack (and, for implicit
  // leaves, of the table stack) when i is joined.
  for (TreeNodeId i : tree_.post_order()) {
    const FaninTreeNode& node = tree_.node(i);
    const bool is_root = (i == tree_.root());
    if (node.is_leaf() && !(is_implicit_leaf(i) ? make_implicit_leaf(i)
                                                 : graph_.vertex_at(node.fixed_loc).valid())) {
      LOG_WARN() << "fanin tree leaf '" << node.name << "' lies outside the embedding graph";
      return false;
    }
    if (is_implicit_leaf(i)) continue;
    spill_begin_ = mem_.spill.size();
    if (node.is_leaf()) {
      LabelKey key;  // fixed terminals carry no placement cost (Section II)
      LabelCold cold;
      if (opt_.lex_mc) {
        key.delay = DelayVec::pair(node.leaf_arrival,
                                   node.is_real_input ? node.leaf_arrival : 0.0);
        cold.mc_weight = node.is_real_input ? 1 : 0;
      } else {
        key.delay = DelayVec::single(node.leaf_arrival);
      }
      key.branching = 1;
      insert_label(mem_.work[graph_.vertex_at(node.fixed_loc).index()], key, cold, buffers_,
                   labels_created_);
    } else {
      join_node(i, is_root);
      // Pop the children: the first stored child holds the bottom of their
      // keys, the first implicit one the bottom of their tables.
      bool keys_popped = false;
      bool steps_popped = false;
      for (TreeNodeId c : node.children) {
        if (is_implicit_leaf(c)) {
          if (!steps_popped) mem_.leaf_steps.resize(leaves_[c.index()].steps);
          steps_popped = true;
        } else if (!keys_popped) {
          const std::uint32_t r = mem_.key_row[c.index()];
          mem_.keys.resize(mem_.key_offsets[r]);
          mem_.key_index.resize(mem_.key_offsets[r]);
          mem_.key_offsets.resize(r);
          keys_popped = true;
        }
      }
    }
    if (is_root) {
      freeze(i, false);
    } else if (mesh_) {
      sweep_wavefront();
      freeze(i, true);
    } else {
      wavefront();
      freeze(i, false);
    }
  }

  // Collect the root trade-off curve (AugmentRoot / final selection).
  tradeoff_.clear();
  for (std::size_t jv = 0; jv < nv; ++jv) {
    const FrozenList root = frozen(tree_.root(), jv);
    for (std::uint32_t li = 0; li < root.size; ++li)
      tradeoff_.push_back(RootSolution{
          EmbedVertexId(static_cast<EmbedVertexId::value_type>(jv)), root.index[li],
          root.key[li].cost, root.key[li].delay});
  }
  std::sort(tradeoff_.begin(), tradeoff_.end(), [](const RootSolution& x,
                                                   const RootSolution& y) {
    if (x.cost != y.cost) return x.cost < y.cost;
    return x.delay.lex_compare(y.delay) < 0;
  });
  return !tradeoff_.empty();
}

bool FaninTreeEmbedder::is_antichain(const LabelKey* key, std::size_t n) const {
  for (std::size_t x = 0; x < n; ++x)
    for (std::size_t y = 0; y < n; ++y)
      if (x != y && dominates(key[x], key[y], key[x].delay.lex_compare(key[y].delay)))
        return false;
  return true;
}

int FaninTreeEmbedder::pick_cheapest_within(double delay_bound) const {
  for (std::size_t k = 0; k < tradeoff_.size(); ++k)
    if (tradeoff_[k].delay.primary() <= delay_bound + 1e-12)
      return static_cast<int>(k);
  return -1;
}

int FaninTreeEmbedder::pick_fastest() const {
  int best = -1;
  for (std::size_t k = 0; k < tradeoff_.size(); ++k) {
    if (best < 0 ||
        tradeoff_[k].delay.lex_compare(tradeoff_[best].delay) < 0)
      best = static_cast<int>(k);
  }
  return best;
}

TreeEmbedding FaninTreeEmbedder::extract(int tradeoff_index) const {
  TreeEmbedding out(tree_.size());
  assert(tradeoff_index >= 0 &&
         tradeoff_index < static_cast<int>(tradeoff_.size()));
  const RootSolution& rs = tradeoff_[tradeoff_index];

  struct Frame {
    TreeNodeId node;
    EmbedVertexId vertex;
    std::uint32_t label;
  };
  std::vector<Frame> stack{{tree_.root(), rs.vertex, rs.label_index}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    if (is_implicit_leaf(f.node)) {
      out.set(f.node, leaves_[f.node.index()].vertex);
      continue;
    }
    const std::uint32_t r = mem_.row[f.node.index()];
    const std::uint32_t* row = mem_.offsets.data() + r * (graph_.num_vertices() + 1);
    assert(f.label < row[f.vertex.index() + 1] - row[f.vertex.index()]);
    const Provenance& prov = mem_.cold[mem_.spans[r].cold + row[f.vertex.index()] + f.label].prov;
    switch (prov.kind) {
      case Provenance::Kind::kInitial:
        out.set(f.node, f.vertex);
        break;
      case Provenance::Kind::kAugment:
        stack.push_back(Frame{f.node, prov.from, prov.pred_label});
        break;
      case Provenance::Kind::kJoin: {
        out.set(f.node, f.vertex);
        const FaninTreeNode& node = tree_.node(f.node);
        for (std::size_t k = 0; k < node.children.size(); ++k)
          stack.push_back(Frame{node.children[k], f.vertex,
                                prov.spill_index >= 0
                                    ? mem_.spill[mem_.spans[r].spill +
                                                 static_cast<std::size_t>(prov.spill_index) + k]
                                    : prov.child_labels_inline[k]});
        break;
      }
    }
  }
  return out;
}

}  // namespace repro
