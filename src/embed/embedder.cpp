#include "embed/embedder.h"

#include <algorithm>
#include <cassert>
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
}

FaninTreeEmbedder::~FaninTreeEmbedder() {
  if (scratch_) {
    arena_record_peak(arena_counters().embed_scratch_bytes, mem_.capacity_bytes());
    *scratch_ = std::move(mem_);
  }
}

std::size_t EmbedScratch::capacity_bytes() const {
  std::size_t bytes = work.capacity() * sizeof(LabelList) +
                      cold.capacity() * sizeof(LabelCold) +
                      keys.capacity() * sizeof(LabelKey) +
                      (offsets.capacity() + key_base.capacity() + spill.capacity()) *
                          sizeof(std::uint32_t) +
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
  std::vector<EmbedVertexId> anchor(nv - mesh->count, EmbedVertexId::invalid());
  auto attach = [&](std::size_t extra, EmbedVertexId to) {
    EmbedVertexId& a = anchor[extra - mesh->count];
    if (a.valid() && a != to) return false;
    a = to;
    return true;
  };
  spliced_in_.clear();
  for (std::size_t v = 0; v < nv; ++v) {
    const EmbedVertexId from(static_cast<EmbedVertexId::value_type>(v));
    for (const EmbeddingGraph::Edge& e : graph_.edges_from(from)) {
      if (!non_negative(e.cost, e.delay)) return false;
      const bool extra_to = e.to.index() >= mesh->count;
      if (v < mesh->count) {
        if (!extra_to) continue;  // a mesh edge
        if (!attach(e.to.index(), from)) return false;
        spliced_in_.emplace_back(from, e);
      } else if (extra_to || !attach(v, e.to)) {
        return false;
      }
    }
  }
  return true;
}

void FaninTreeEmbedder::merge_shifted(std::vector<SweepLabel>& dst,
                                      const std::vector<SweepLabel>& src, double cost,
                                      double delay) {
  // Both inputs are staircases: costs strictly rise and delays strictly fall
  // (lexicographically). Walking them in (cost, delay) order, an entry is
  // dominated iff its delay is not below the last kept one. On a full tie
  // the entry already at the vertex goes first, so it survives.
  std::vector<SweepLabel>& merged = mem_.merged;
  merged.clear();
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
  std::size_t a = 0;
  std::size_t b = 0;
  SweepLabel next = shifted(0);
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
  // The max_labels rule of cap_list. Ranks rise with k, so the in-place
  // copy reads only entries not yet overwritten.
  const auto cap = static_cast<std::size_t>(opt_.max_labels);
  if (cap > 0 && merged.size() > 2 * cap) {
    const std::size_t n = merged.size();
    for (std::size_t k = 0; k < cap; ++k) merged[k] = merged[capped_rank(k, n, cap)];
    merged.resize(cap);
  }
  dst.swap(merged);
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

  // Write the final staircases back: a label already in the table survives
  // iff its own entry is still on the staircase; the others are appended in
  // cost order, pointing straight at the label they were shifted from.
  for (std::size_t j = 0; j < nv; ++j) {
    LabelList& list = lists[j];
    for (LabelKey& k : list.key) k.dead = 1;
    list.key.reserve(list.key.size() + stairs[j].size());
    list.cold.reserve(list.key.capacity());
    for (const SweepLabel& s : stairs[j]) {
      if (s.origin.index() == j) {
        list.key[s.origin_label].dead = 0;
        continue;
      }
      LabelCold cold;
      cold.prov.kind = Provenance::Kind::kAugment;
      cold.prov.from = s.origin;
      cold.prov.pred_label = s.origin_label;
      list.key.push_back(s.key);
      list.cold.push_back(cold);
      ++labels_created_;
    }
    list.live = static_cast<std::uint32_t>(stairs[j].size());
  }
}

void FaninTreeEmbedder::join_vertex_range(TreeNodeId i, std::size_t lo, std::size_t hi,
                                          WorkBuffers& wb,
                                          std::vector<std::uint32_t>& spill,
                                          std::size_t& created) {
  const FaninTreeNode& node = tree_.node(i);
  const std::size_t fanin = node.children.size();
  assert(fanin <= kMaxFanin);

  FrozenList kids[kMaxFanin];
  for (std::size_t jv = lo; jv < hi; ++jv) {
    for (std::size_t k = 0; k < fanin; ++k) kids[k] = frozen(node.children[k], jv);
    // A child with no live label at j leaves nothing to join.
    if (std::any_of(kids, kids + fanin, [](const FrozenList& l) {
          return std::all_of(l.key, l.key + l.size,
                             [](const LabelKey& k) { return k.dead; });
        }))
      continue;
    EmbedVertexId j(static_cast<EmbedVertexId::value_type>(jv));
    // Forbidden locations (blocked slots, wrong resource type) are modeled
    // as placement costs >= kForbiddenCost: no gate may be created there.
    const double place_cost = pcost_ ? pcost_(i, j) : 0.0;
    if (place_cost >= kForbiddenCost) continue;

    // Fold the children's label lists into partial joins, pruning dominated
    // partials at each fold (JoinTree, line c2). The kept partials form an
    // antichain too, so one walk both rejects a new partial and drops the
    // ones it dominates, preserving the order of the rest.
    std::vector<PartialJoin>& partials = wb.partials;
    partials.clear();
    partials.push_back(PartialJoin{});
    for (std::size_t depth = 0; depth < fanin; ++depth) {
      const FrozenList& child_labels = kids[depth];
      std::vector<PartialJoin>& next = wb.next;
      next.clear();
      for (const PartialJoin& p : partials) {
        for (std::uint32_t li = 0; li < child_labels.size; ++li) {
          const LabelKey& cl = child_labels.key[li];
          if (cl.dead) continue;
          PartialJoin np;
          np.cost = p.cost + cl.cost;
          if (opt_.lex_mc) {
            // Section VI-A Lex-mc join: t = max(t_k); tc = sum(tc_k * w_k);
            // w = sum(w_k). The partial already folded earlier children.
            const int w = child_labels.cold[li].mc_weight;
            const double t = std::max(p.delay.n ? p.delay.v[0] : 0.0, cl.delay.v[0]);
            const double tc_p = p.delay.n > 1 ? p.delay.v[1] : 0.0;
            const double tc_c = cl.delay.n > 1 ? cl.delay.v[1] : 0.0;
            np.delay = DelayVec::pair(t, tc_p + tc_c * w);
            np.mc_weight = p.mc_weight + w;
          } else {
            np.delay = p.delay.merged_with(cl.delay, opt_.lex_order);
          }
          np.sum_branch_bits = p.sum_branch_bits + cl.branching;
          std::copy_n(p.child_labels, depth, np.child_labels);
          np.child_labels[depth] = li;
          // Dominance prune among partials (cost vs delay vs bits).
          bool dominated = false;
          std::size_t kept = 0;
          for (std::size_t r = 0; r < next.size(); ++r) {
            const PartialJoin& q = next[r];
            const int c = q.delay.lex_compare(np.delay);
            if (q.cost <= np.cost && c <= 0 &&
                (!opt_.overlap_avoidance || q.sum_branch_bits <= np.sum_branch_bits)) {
              assert(kept == r);
              dominated = true;
              break;
            }
            if (np.cost <= q.cost && c >= 0 &&
                (!opt_.overlap_avoidance || np.sum_branch_bits <= q.sum_branch_bits))
              continue;  // dropped: np dominates q
            if (kept != r) next[kept] = q;
            ++kept;
          }
          if (!dominated) {
            next.resize(kept);
            next.push_back(np);
          }
        }
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
}

void FaninTreeEmbedder::join_node(TreeNodeId i, bool root_mode) {
  const FaninTreeNode& node = tree_.node(i);
  assert(!node.is_leaf());

  // Restrict the root to its fixed vertex unless relocation is enabled.
  if (root_mode && !opt_.relocatable_root) {
    EmbedVertexId only_vertex = graph_.vertex_at(node.fixed_loc);
    if (!only_vertex.valid()) {
      LOG_WARN() << "fanin tree root '" << node.name
                 << "' lies outside the embedding graph";
      return;
    }
    join_vertex_range(i, only_vertex.index(), only_vertex.index() + 1, buffers_,
                      mem_.spill, labels_created_);
    return;
  }

  const std::size_t nv = graph_.num_vertices();
  ThreadPool* pool = opt_.pool;
  if (!pool || pool->num_workers() == 0 ||
      nv < static_cast<std::size_t>(opt_.parallel_min_vertices)) {
    join_vertex_range(i, 0, nv, buffers_, mem_.spill, labels_created_);
    return;
  }

  // Parallel join: the A[i][*] columns only read the children's frozen
  // lists, so contiguous vertex chunks are processed concurrently. Each
  // chunk appends >2-child provenance to its own arena; arenas are appended
  // to the spill pool in chunk (= vertex) order with the offsets rebased, so
  // the spill pool layout — and every label bit — matches the serial
  // embedder.
  const std::size_t grain =
      std::max<std::size_t>(16, nv / (4 * pool->num_threads()));
  const std::size_t nchunks = (nv + grain - 1) / grain;
  std::vector<std::vector<std::uint32_t>> arenas(nchunks);
  std::vector<std::size_t> created(nchunks, 0);
  pool->parallel_for(nchunks, 1, [&](std::size_t c) {
    const std::size_t lo = c * grain;
    const std::size_t hi = std::min(nv, lo + grain);
    WorkBuffers wb;
    join_vertex_range(i, lo, hi, wb, arenas[c], created[c]);
  });
  for (std::size_t c = 0; c < nchunks; ++c) {
    const auto base = static_cast<std::int32_t>(mem_.spill.size());
    if (base > 0 && !arenas[c].empty()) {
      const std::size_t lo = c * grain;
      const std::size_t hi = std::min(nv, lo + grain);
      for (std::size_t jv = lo; jv < hi; ++jv)
        for (LabelCold& l : mem_.work[jv].cold)
          if (l.prov.kind == Provenance::Kind::kJoin && l.prov.spill_index >= 0)
            l.prov.spill_index += base;
    }
    mem_.spill.insert(mem_.spill.end(), arenas[c].begin(), arenas[c].end());
    labels_created_ += created[c];
  }
}

FaninTreeEmbedder::FrozenList FaninTreeEmbedder::frozen(TreeNodeId i,
                                                        std::size_t j) const {
  const std::uint32_t* row = offsets_row(i);
  return FrozenList{mem_.keys.data() + mem_.key_base[i.index()] + (row[j] - row[0]),
                    mem_.cold.data() + row[j], row[j + 1] - row[j]};
}

void FaninTreeEmbedder::freeze(TreeNodeId i) {
  if (check_frontiers_ && !working_lists_are_antichains()) frontiers_ok_ = false;
  const std::size_t nv = mem_.work.size();
  std::uint32_t* row = mem_.offsets.data() + i.index() * (nv + 1);
  mem_.key_base[i.index()] = static_cast<std::uint32_t>(mem_.keys.size());
  for (std::size_t j = 0; j < nv; ++j) {
    LabelList& list = mem_.work[j];
    row[j] = static_cast<std::uint32_t>(mem_.cold.size());
    mem_.keys.insert(mem_.keys.end(), list.key.begin(), list.key.end());
    mem_.cold.insert(mem_.cold.end(), list.cold.begin(), list.cold.end());
    list.clear();
  }
  if (mem_.cold.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("FaninTreeEmbedder: more than 2^32 labels in one embedding");
  row[nv] = static_cast<std::uint32_t>(mem_.cold.size());
}

bool FaninTreeEmbedder::run() {
  // A fresh arena that keeps the capacities grown so far.
  const std::size_t nv = graph_.num_vertices();
  mem_.work.resize(nv);
  for (LabelList& list : mem_.work) list.clear();
  mem_.cold.clear();
  mem_.keys.clear();
  mem_.spill.clear();
  mem_.offsets.resize(tree_.size() * (nv + 1));
  mem_.key_base.resize(tree_.size());
  frontiers_ok_ = true;

  // Bottom-up over the tree (ComputeSubTree). Node i's keys are read only by
  // its own wavefront and by its parent's join, and in post-order the
  // children of i are the nodes on top of the key stack when i is joined.
  for (TreeNodeId i : tree_.post_order()) {
    const FaninTreeNode& node = tree_.node(i);
    const bool is_root = (i == tree_.root());
    if (node.is_leaf()) {
      EmbedVertexId v = graph_.vertex_at(node.fixed_loc);
      if (!v.valid()) {
        LOG_WARN() << "fanin tree leaf '" << node.name
                   << "' lies outside the embedding graph";
        return false;
      }
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
      insert_label(mem_.work[v.index()], key, cold, buffers_, labels_created_);
    } else {
      join_node(i, is_root);
      mem_.keys.resize(mem_.key_base[node.children.front().index()]);
    }
    if (!is_root) {
      if (mesh_)
        sweep_wavefront();
      else
        wavefront();
    }
    freeze(i);
  }

  // Collect the root trade-off curve (AugmentRoot / final selection).
  tradeoff_.clear();
  for (std::size_t jv = 0; jv < nv; ++jv) {
    const FrozenList root = frozen(tree_.root(), jv);
    for (std::uint32_t li = 0; li < root.size; ++li) {
      const LabelKey& k = root.key[li];
      if (k.dead) continue;
      tradeoff_.push_back(RootSolution{
          EmbedVertexId(static_cast<EmbedVertexId::value_type>(jv)), li, k.cost,
          k.delay});
    }
  }
  std::sort(tradeoff_.begin(), tradeoff_.end(), [](const RootSolution& x,
                                                   const RootSolution& y) {
    if (x.cost != y.cost) return x.cost < y.cost;
    return x.delay.lex_compare(y.delay) < 0;
  });
  return !tradeoff_.empty();
}

bool FaninTreeEmbedder::working_lists_are_antichains() const {
  for (const LabelList& list : mem_.work) {
    std::uint32_t live = 0;
    for (const LabelKey& x : list.key) {
      if (x.dead) continue;
      ++live;
      for (const LabelKey& y : list.key)
        if (&x != &y && !y.dead && dominates(x, y, x.delay.lex_compare(y.delay)))
          return false;
    }
    if (live != list.live) return false;
  }
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
    const Provenance& prov =
        mem_.cold[offsets_row(f.node)[f.vertex.index()] + f.label].prov;
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
        const std::uint32_t* child_idx = prov.spill_index >= 0
                                             ? mem_.spill.data() + prov.spill_index
                                             : prov.child_labels_inline;
        for (std::size_t k = 0; k < node.children.size(); ++k)
          stack.push_back(Frame{node.children[k], f.vertex, child_idx[k]});
        break;
      }
    }
  }
  return out;
}

}  // namespace repro
