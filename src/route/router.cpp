#include "route/router.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "route/maze_queue.h"
#include "timing/timing_engine.h"
#include "timing/timing_graph.h"
#include "util/log.h"

namespace repro {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kInfiniteCap = std::numeric_limits<int>::max();

/// Channel-graph geometry helper: edges connect 4-adjacent grid locations.
struct ChannelGraph {
  explicit ChannelGraph(int extent) : e(extent), num_h((e - 1) * e) {}

  int e;
  int num_h;

  int num_edges() const { return num_h + e * (e - 1); }
  int node(Point p) const { return p.y * e + p.x; }
  Point point(int n) const { return Point{n % e, n / e}; }

  /// Edge between p and its neighbor in direction d (0:+x, 1:-x, 2:+y, 3:-y);
  /// returns -1 if off-grid.
  int edge_from(Point p, int d, Point& q) const {
    switch (d) {
      case 0:
        if (p.x + 1 >= e) return -1;
        q = Point{p.x + 1, p.y};
        return p.y * (e - 1) + p.x;
      case 1:
        if (p.x - 1 < 0) return -1;
        q = Point{p.x - 1, p.y};
        return p.y * (e - 1) + (p.x - 1);
      case 2:
        if (p.y + 1 >= e) return -1;
        q = Point{p.x, p.y + 1};
        return num_h + p.y * e + p.x;
      default:
        if (p.y - 1 < 0) return -1;
        q = Point{p.x, p.y - 1};
        return num_h + (p.y - 1) * e + p.x;
    }
  }
};

struct NetRoute {
  std::vector<int> edges;  ///< channel segments used by this net's tree
};

/// Negotiated-congestion router over the channel graph. One instance holds
/// persistent routes / occupancy / history so run() can be called repeatedly
/// with different capacities (warm-started W_min search).
class PathFinder {
 public:
  PathFinder(const Netlist& nl, const Placement& pl, const RouterOptions& opt,
             const ConnectionCriticalityFn& criticality)
      : nl_(nl), pl_(pl), opt_(opt), crit_fn_(criticality), g_(pl.grid().extent()) {
    occupancy_.assign(g_.num_edges(), 0);
    history_.assign(g_.num_edges(), 0.0);
    overused_.assign(g_.num_edges(), 0);
    routes_.assign(nl.net_capacity(), NetRoute{});
    net_routed_.assign(nl.net_capacity(), 0);
    net_unrouted_.assign(nl.net_capacity(), 0);
    conn_len_.reset(nl.cell_capacity());
    assert(g_.e <= std::numeric_limits<std::int16_t>::max());
    nodes_.assign(g_.e * g_.e, MazeNode{});
    for (int n = 0; n < g_.e * g_.e; ++n) {
      const Point p = g_.point(n);
      nodes_[n].x = static_cast<std::int16_t>(p.x);
      nodes_[n].y = static_cast<std::int16_t>(p.y);
    }
    tree_depth_.assign(g_.e * g_.e, 0);
    tree_stamp_.assign(g_.e * g_.e, 0);
    for (NetId n : nl.live_net_ids())
      if (!nl.net(n).sinks.empty()) nets_.push_back(n);
  }

  /// One negotiation run at channel capacity `cap`. Starts from the current
  /// routes/occupancy/history (empty on the first call); in incremental mode
  /// only dirty nets (unrouted, or touching an overused edge) are rerouted.
  RoutingResult run(int cap) {
    RoutingResult res;
    const std::uint64_t pushes0 = pushes_, pops0 = pops_, expanded0 = expanded_;
    const std::uint64_t mismatches0 = lookahead_mismatches_;
    double present_factor = opt_.present_factor_initial;
    const int max_passes =
        opt_.incremental_reroute
            ? std::max(opt_.max_iterations,
                       static_cast<int>(opt_.max_iterations *
                                        opt_.incremental_iterations_mult))
            : opt_.max_iterations;

    for (int pass = 0; pass < max_passes; ++pass) {
      if (opt_.cancel) opt_.cancel->check("route");
      // Occupancy index: flag overused edges, then select the nets whose
      // routes touch one (plus never-routed / partially-unrouted nets).
      int overused_now = 0;
      for (int e = 0; e < g_.num_edges(); ++e) {
        overused_[e] = occupancy_[e] > cap;
        overused_now += overused_[e];
      }
      to_route_.clear();
      for (NetId n : nets_) {
        const std::size_t i = n.index();
        bool need = !net_routed_[i] || net_unrouted_[i] > 0;
        if (!need && !opt_.incremental_reroute && overused_now > 0) need = true;
        if (!need) {
          for (int e : routes_[i].edges) {
            if (overused_[e]) {
              need = true;
              break;
            }
          }
        }
        if (need) to_route_.push_back(n);
      }
      if (to_route_.empty()) {
        // Nothing dirty: every net routed, no overuse, no unrouted sink.
        res.success = true;
        break;
      }

      const std::uint64_t pass_pushes = pushes_, pass_pops = pops_,
                          pass_expanded = expanded_;
      for (NetId n : to_route_) {
        rip_up(n);
        route_net(n, cap, present_factor);
      }
      res.iterations = pass + 1;

      int overused_after = 0;
      for (int e = 0; e < g_.num_edges(); ++e) {
        if (occupancy_[e] > cap) {
          ++overused_after;
          history_[e] += opt_.history_increment * (occupancy_[e] - cap);
        }
      }
      int unrouted_after = 0;
      for (NetId n : nets_) unrouted_after += net_unrouted_[n.index()];

      RouterPassStats ps;
      ps.nets_rerouted = static_cast<int>(to_route_.size());
      ps.overused_edges = overused_after;
      ps.unrouted_connections = unrouted_after;
      ps.heap_pushes = pushes_ - pass_pushes;
      ps.heap_pops = pops_ - pass_pops;
      ps.nodes_expanded = expanded_ - pass_expanded;
      res.pass_stats.push_back(ps);

      if (overused_after == 0 && unrouted_after == 0) {
        res.success = true;
        break;
      }
      if (stalled(res.pass_stats)) break;  // declared unroutable at this cap
      present_factor *= opt_.present_factor_mult;
    }

    res.total_wirelength = 0;
    res.max_channel_occupancy = 0;
    for (int e = 0; e < g_.num_edges(); ++e) {
      res.total_wirelength += occupancy_[e];
      res.max_channel_occupancy = std::max(res.max_channel_occupancy, occupancy_[e]);
    }
    res.unrouted_connections = 0;
    for (NetId n : nets_) res.unrouted_connections += net_unrouted_[n.index()];
    res.connection_length = conn_len_;
    res.channel_capacity = cap == kInfiniteCap ? 0 : cap;
    res.edge_occupancy.assign(occupancy_.begin(), occupancy_.end());
    res.net_routed.assign(net_routed_.begin(), net_routed_.end());
    res.net_unrouted.assign(net_unrouted_.begin(), net_unrouted_.end());
    res.net_route_edges.assign(nl_.net_capacity(), {});
    for (NetId n : nets_)
      res.net_route_edges[n.index()].assign(routes_[n.index()].edges.begin(),
                                            routes_[n.index()].edges.end());
    res.heap_pushes = pushes_ - pushes0;
    res.heap_pops = pops_ - pops0;
    res.nodes_expanded = expanded_ - expanded0;
    res.lookahead_mismatches = lookahead_mismatches_ - mismatches0;
#ifdef NDEBUG
    if (opt_.self_check) self_check(res, cap);
#else
    self_check(res, cap);
#endif
    return res;
  }

  /// Decays negotiation history between warm-started W_min probes.
  void decay_history(double factor) {
    for (double& h : history_) h *= factor;
  }

 private:
  /// Stall detector: the best overused-edge count of the last
  /// `stall_abort_window` passes is no better than the window before it,
  /// while overuse is still above `stall_abort_min_overused`. High-overuse
  /// plateaus never recover within max_iterations; low-overuse endgames
  /// (exempted) can take many passes of history buildup yet still converge.
  bool stalled(const std::vector<RouterPassStats>& pass_stats) const {
    const int w = opt_.stall_abort_window;
    const int n = static_cast<int>(pass_stats.size());
    if (w <= 0 || n < 2 * w + 2) return false;
    auto window_min = [&pass_stats](int from, int count) {
      int m = std::numeric_limits<int>::max();
      for (int i = from; i < from + count; ++i)
        m = std::min(m, pass_stats[i].overused_edges);
      return m;
    };
    const int recent = window_min(n - w, w);
    const int before = window_min(n - 2 * w, w);
    return recent >= before && recent > opt_.stall_abort_min_overused;
  }

  void rip_up(NetId n) {
    for (int e : routes_[n.index()].edges) --occupancy_[e];
    routes_[n.index()].edges.clear();
  }

  double edge_cost(int e, int cap, double present_factor) const {
    const int over_if_used = occupancy_[e] + 1 - cap;
    const double present = over_if_used > 0 ? present_factor * over_if_used : 0.0;
    return 1.0 + history_[e] + present;
  }

  /// Grows the net's Steiner tree sink by sink with bounded maze expansion.
  void route_net(NetId nid, int cap, double present_factor) {
    const Net& net = nl_.net(nid);
    Point src = pl_.location(net.driver);
    net_unrouted_[nid.index()] = 0;

    // Expansion region: net bbox inflated; grows if a sink is unreachable.
    Rect bbox = Rect::around(src);
    for (const Sink& s : net.sinks) bbox.include(pl_.location(s.cell));

    // Per-connection criticalities; critical sinks are routed first so they
    // get the most direct source paths (VPR timing-driven router order).
    crit_.assign(net.sinks.size(), 0.0);
    if (crit_fn_)
      for (std::size_t i = 0; i < net.sinks.size(); ++i)
        crit_[i] = std::clamp(crit_fn_(net.sinks[i].cell, net.sinks[i].pin), 0.0, 1.0);
    order_.resize(net.sinks.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::stable_sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      if (crit_[a] != crit_[b]) return crit_[a] > crit_[b];
      return manhattan(src, pl_.location(net.sinks[a].cell)) <
             manhattan(src, pl_.location(net.sinks[b].cell));
    });

    // Tree state: nodes with their depth (segments from the driver),
    // generation-stamped so per-net reset is O(1).
    ++tree_gen_;
    tree_nodes_.clear();
    const int src_node = g_.node(src);
    tree_nodes_.push_back(src_node);
    tree_depth_[src_node] = 0;
    tree_stamp_[src_node] = tree_gen_;

    auto& route = routes_[nid.index()];
    for (std::size_t oi : order_) {
      const Sink& sink = net.sinks[oi];
      Point dst = pl_.location(sink.cell);
      const int dst_node = g_.node(dst);
      if (tree_stamp_[dst_node] == tree_gen_) {
        conn_len_.set(sink.cell, sink.pin, tree_depth_[dst_node]);
        continue;
      }
      int margin = std::max(3, bbox.half_perimeter() / 4);
      bool found = false;
      for (;;) {
        Rect region = bbox.inflated(margin, g_.e - 1, g_.e - 1);
        found = maze_to(dst, region, cap, present_factor, crit_[oi]);
        if (found) break;
        if (region.xmin == 0 && region.ymin == 0 && region.xmax == g_.e - 1 &&
            region.ymax == g_.e - 1)
          break;  // whole grid searched
        margin *= 2;
      }
      if (!found) {
        // Never silently skip a sink: record it so success stays false and
        // length_of() falls back to the placement estimate.
        conn_len_.set(sink.cell, sink.pin, -1);
        ++net_unrouted_[nid.index()];
        continue;
      }
      // Trace back from dst to the tree, committing edges.
      int cur = dst_node;
      path_nodes_.clear();
      path_edges_.clear();
      while (nodes_[cur].prev_edge >= 0 && nodes_[cur].stamp == generation_) {
        path_nodes_.push_back(cur);
        path_edges_.push_back(nodes_[cur].prev_edge);
        cur = nodes_[cur].prev_node;
      }
      // cur is the attachment point (a tree node).
      int depth = tree_depth_[cur];
      for (std::size_t i = path_nodes_.size(); i-- > 0;) {
        ++depth;
        const int node = path_nodes_[i];
        tree_nodes_.push_back(node);
        tree_depth_[node] = depth;
        tree_stamp_[node] = tree_gen_;
        route.edges.push_back(path_edges_[i]);
        ++occupancy_[path_edges_[i]];
      }
      conn_len_.set(sink.cell, sink.pin, tree_depth_[dst_node]);
    }
    net_routed_[nid.index()] = 1;
  }

  struct HeapItem {
    double f;  ///< g + lookahead
    double g;  ///< congestion cost from the tree
    int node;
  };
  /// Min-heap on (f, node): deterministic tie-breaking by smaller node index
  /// keeps routes reproducible under the A* lookahead, which produces many
  /// equal-f frontier nodes along shortest paths. MazeQueue orders the same.
  struct HeapWorse {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      if (a.f != b.f) return a.f > b.f;
      return a.node > b.node;
    }
  };

  /// Multi-source maze search from all tree nodes to dst within region.
  ///
  /// The label of tree node v starts at crit * depth(v): a critical
  /// connection (crit -> 1) pays for its full source-to-sink tree length and
  /// therefore attaches near the driver; a non-critical one (crit -> 0)
  /// reuses the tree freely and optimizes congestion cost only.
  ///
  /// A* lookahead: every step costs crit + (1-crit) * edge_cost >=
  /// crit + (1-crit) * 1 = 1 (edge_cost has base 1, history/present >= 0),
  /// so lower_bound_step * manhattan(v, dst) with lower_bound_step = 1 is an
  /// admissible, consistent heuristic — identical path costs to Dijkstra,
  /// far fewer expansions.
  ///
  /// Every push strictly lowers the node's dist, so only the node's latest
  /// push carries its dist: an entry is live iff its version is the node's
  /// current one, and a live entry's cost is the node's dist. A node listed
  /// twice in tree_nodes_ (a traceback re-entered the tree at a shorter
  /// depth) gets one version for both seeds, which carry the same cost and
  /// both stay live.
  bool maze_to(Point dst, const Rect& region, int cap, double present_factor,
               double crit) {
    // Even fully critical connections must keep feeling congestion or
    // PathFinder could never resolve overuse on them.
    crit = std::min(crit, 0.95);

    double ref_cost = 0.0;
    bool ref_found = false;
    const bool verify = opt_.verify_lookahead && opt_.use_astar;
    if (verify)
      ref_found = dijkstra_reference(dst, region, cap, present_factor, crit, ref_cost);

    ++generation_;
    const double hweight = opt_.use_astar ? opt_.astar_factor : 0.0;
    queue_.clear();
    for (int tn : tree_nodes_) {
      MazeNode& n = nodes_[tn];
      if (n.stamp != generation_) ++n.version;  // not for a repeated seed
      n.stamp = generation_;
      n.dist = crit * tree_depth_[tn];
      n.prev_edge = -1;
      n.prev_node = -1;
      queue_.append({n.dist + hweight * manhattan(Point{n.x, n.y}, dst), tn, n.version});
      ++pushes_;
    }
    queue_.heapify();
    const int dst_node = g_.node(dst);
    const int num_h = g_.num_h;
    const int e = g_.e;
    std::int64_t expanded_here = 0;
    while (!queue_.empty()) {
      const MazeQueue::Entry top = queue_.pop();
      ++pops_;
      const int u = top.node;
      if (top.version != nodes_[u].version) continue;  // stale entry
      ++expanded_;
      const double base = nodes_[u].dist;
      if (u == dst_node) {
        if (verify) check_lookahead(ref_found, ref_cost, true, base);
        return true;
      }
      if (opt_.max_expansions_per_connection >= 0 &&
          ++expanded_here > opt_.max_expansions_per_connection)
        return false;
      const int x = nodes_[u].x, y = nodes_[u].y;
      auto relax = [&](int v, int edge, int vx, int vy) {
        const double ng =
            base + crit + (1.0 - crit) * edge_cost(edge, cap, present_factor);
        MazeNode& nv = nodes_[v];
        if (nv.stamp != generation_ || ng < nv.dist) {
          nv.stamp = generation_;
          nv.dist = ng;
          nv.prev_edge = edge;
          nv.prev_node = u;
          ++nv.version;
          queue_.push({ng + hweight * manhattan(Point{vx, vy}, dst), v, nv.version});
          ++pushes_;
        }
      };
      // Directions +x, -x, +y, -y, as ChannelGraph::edge_from numbers them.
      // The region lies inside the grid, so its bounds are the grid bounds.
      // Horizontal edge (x,y)-(x+1,y) is y*(e-1)+x = u-y; vertical edge
      // (x,y)-(x,y+1) is num_h + u.
      const bool row_in = y >= region.ymin && y <= region.ymax;
      const bool col_in = x >= region.xmin && x <= region.xmax;
      if (row_in && x + 1 >= region.xmin && x + 1 <= region.xmax)
        relax(u + 1, u - y, x + 1, y);
      if (row_in && x - 1 >= region.xmin && x - 1 <= region.xmax)
        relax(u - 1, u - y - 1, x - 1, y);
      if (col_in && y + 1 >= region.ymin && y + 1 <= region.ymax)
        relax(u + e, num_h + u, x, y + 1);
      if (col_in && y - 1 >= region.ymin && y - 1 <= region.ymax)
        relax(u - e, num_h + u - e, x, y - 1);
    }
    if (verify) check_lookahead(ref_found, ref_cost, false, 0.0);
    return false;
  }

  /// Reference Dijkstra (no lookahead) over scratch arrays; used only by
  /// verify_lookahead. Does not touch the committed search state or the work
  /// counters. It keeps the std:: heap, geometry helpers and stale-cost test
  /// so that it stays independent of the maze search it checks.
  bool dijkstra_reference(Point dst, const Rect& region, int cap,
                          double present_factor, double crit, double& cost) {
    if (ref_dist_.empty()) {
      ref_dist_.assign(g_.e * g_.e, kInf);
      ref_stamp_.assign(g_.e * g_.e, 0);
    }
    ++ref_generation_;
    ref_heap_.clear();
    for (int tn : tree_nodes_) {
      ref_dist_[tn] = crit * tree_depth_[tn];
      ref_stamp_[tn] = ref_generation_;
      ref_heap_.push_back({ref_dist_[tn], ref_dist_[tn], tn});
    }
    std::make_heap(ref_heap_.begin(), ref_heap_.end(), HeapWorse{});
    const int dst_node = g_.node(dst);
    while (!ref_heap_.empty()) {
      std::pop_heap(ref_heap_.begin(), ref_heap_.end(), HeapWorse{});
      const HeapItem item = ref_heap_.back();
      ref_heap_.pop_back();
      if (item.g > ref_dist_[item.node]) continue;
      if (item.node == dst_node) {
        cost = item.g;
        return true;
      }
      const Point up = g_.point(item.node);
      for (int dir = 0; dir < 4; ++dir) {
        Point vp;
        const int e = g_.edge_from(up, dir, vp);
        if (e < 0 || !region.contains(vp)) continue;
        const double ng =
            item.g + crit + (1.0 - crit) * edge_cost(e, cap, present_factor);
        const int v = g_.node(vp);
        if (ref_stamp_[v] != ref_generation_ || ng < ref_dist_[v]) {
          ref_stamp_[v] = ref_generation_;
          ref_dist_[v] = ng;
          ref_heap_.push_back({ng, ng, v});
          std::push_heap(ref_heap_.begin(), ref_heap_.end(), HeapWorse{});
        }
      }
    }
    return false;
  }

  void check_lookahead(bool ref_found, double ref_cost, bool found, double cost) {
    if (ref_found != found) {
      ++lookahead_mismatches_;
      return;
    }
    if (found && std::abs(cost - ref_cost) > 1e-9 * std::max(1.0, std::abs(ref_cost)))
      ++lookahead_mismatches_;
  }

  /// Recomputes edge occupancy from the committed routes and checks it
  /// against the incremental bookkeeping; checks success implies a legal,
  /// complete routing. Guards the incremental rip-up/index machinery.
  void self_check(const RoutingResult& res, int cap) const {
    std::vector<int> occ(g_.num_edges(), 0);
    for (NetId n : nets_)
      for (int e : routes_[n.index()].edges) ++occ[e];
    for (int e = 0; e < g_.num_edges(); ++e) {
      if (occ[e] != occupancy_[e]) {
        LOG_ERROR() << "router self-check: edge " << e << " occupancy "
                    << occupancy_[e] << " != recomputed " << occ[e];
        std::abort();
      }
    }
    std::size_t expected = 0;
    int unrouted = 0;
    for (NetId n : nets_) {
      if (!net_routed_[n.index()]) continue;
      expected += nl_.net(n).sinks.size();
      unrouted += net_unrouted_[n.index()];
    }
    if (conn_len_.size() + static_cast<std::size_t>(unrouted) != expected) {
      LOG_ERROR() << "router self-check: " << conn_len_.size()
                  << " connection lengths + " << unrouted << " unrouted != "
                  << expected << " routed sinks";
      std::abort();
    }
    if (res.success) {
      if (res.unrouted_connections != 0 || unrouted != 0) {
        LOG_ERROR() << "router self-check: success with " << unrouted
                    << " unrouted connections";
        std::abort();
      }
      for (int e = 0; e < g_.num_edges(); ++e) {
        if (occupancy_[e] > cap) {
          LOG_ERROR() << "router self-check: success with overused edge " << e
                      << " (" << occupancy_[e] << " > " << cap << ")";
          std::abort();
        }
      }
    }
  }

  const Netlist& nl_;
  const Placement& pl_;
  const RouterOptions& opt_;
  const ConnectionCriticalityFn& crit_fn_;
  ChannelGraph g_;
  std::vector<NetId> nets_;

  // Persistent routing state (survives across run() calls for warm starts).
  std::vector<int> occupancy_;
  std::vector<double> history_;
  std::vector<NetRoute> routes_;
  std::vector<char> net_routed_;
  std::vector<int> net_unrouted_;
  ConnectionLengths conn_len_;

  // Negotiation scratch.
  std::vector<char> overused_;
  std::vector<NetId> to_route_;

  /// Maze state of one grid node: a 32-byte aligned record, so an expansion
  /// or relaxation reads one cache line per node. Fields other than x, y are
  /// valid only while `stamp` equals the current search's generation.
  struct alignas(32) MazeNode {
    double dist = kInf;
    int stamp = 0;
    int prev_edge = -1;
    int prev_node = -1;
    std::uint32_t version = 0;  ///< queue pushes of this node so far
    std::int16_t x = 0, y = 0;  ///< grid coordinates
  };
  static_assert(sizeof(MazeNode) == 32);

  // Maze scratch (generation-stamped).
  std::vector<MazeNode> nodes_;
  MazeQueue queue_;
  int generation_ = 0;

  // verify_lookahead scratch (allocated on first use).
  std::vector<double> ref_dist_;
  std::vector<int> ref_stamp_;
  std::vector<HeapItem> ref_heap_;
  int ref_generation_ = 0;

  // Per-net tree scratch (generation-stamped flat arrays; the previous
  // unordered_map<int,int> tree depth was a maze-loop hot spot).
  std::vector<int> tree_nodes_;
  std::vector<int> tree_depth_;
  std::vector<int> tree_stamp_;
  int tree_gen_ = 0;
  std::vector<double> crit_;
  std::vector<std::size_t> order_;
  std::vector<int> path_nodes_;
  std::vector<int> path_edges_;

  // Work counters (monotone across runs; run() reports deltas).
  std::uint64_t pushes_ = 0;
  std::uint64_t pops_ = 0;
  std::uint64_t expanded_ = 0;
  std::uint64_t lookahead_mismatches_ = 0;
};

/// Provable lower bound on W_min from cut densities: for every vertical grid
/// cut, each net whose terminal bbox spans the cut must cross it at least
/// once, and the cut is crossed by `extent` channel edges of capacity W
/// (one per row); symmetrically for horizontal cuts.
int cut_lower_bound(const Netlist& nl, const Placement& pl) {
  const int e = pl.grid().extent();
  if (e < 2) return 1;
  std::vector<int> vcut(e - 1, 0), hcut(e - 1, 0);
  for (NetId n : nl.live_net_ids()) {
    const Net& net = nl.net(n);
    if (net.sinks.empty()) continue;
    Rect bbox = Rect::around(pl.location(net.driver));
    for (const Sink& s : net.sinks) bbox.include(pl.location(s.cell));
    for (int k = bbox.xmin; k < bbox.xmax; ++k) ++vcut[k];
    for (int k = bbox.ymin; k < bbox.ymax; ++k) ++hcut[k];
  }
  int crossings = 0;
  for (int k = 0; k < e - 1; ++k)
    crossings = std::max({crossings, vcut[k], hcut[k]});
  return std::max(1, (crossings + e - 1) / e);
}

}  // namespace

RoutingResult route(const Netlist& nl, const Placement& pl, const RouterOptions& opt,
                    const ConnectionCriticalityFn& criticality) {
  PathFinder pf(nl, pl, opt, criticality);
  return pf.run(opt.channel_width > 0 ? opt.channel_width : kInfiniteCap);
}

int find_min_channel_width(const Netlist& nl, const Placement& pl,
                           const RouterOptions& base_opt, WminSearchStats* stats) {
  RouterOptions opt = base_opt;
  opt.channel_width = 0;
  WminSearchStats local;
  WminSearchStats& st = stats ? *stats : local;
  st = WminSearchStats{};
  const ConnectionCriticalityFn no_crit;
  auto record = [&st](int width, bool warm, const RoutingResult& r) {
    st.probes.push_back({width, r.success, warm, r.iterations, r.nodes_expanded});
    st.nodes_expanded += r.nodes_expanded;
    st.heap_pushes += r.heap_pushes;
    st.heap_pops += r.heap_pops;
  };

  // Infinite-resource run: shortest-path routing with peak occupancy `hi`
  // always routes at width hi, so hi is a valid (and warm-free) upper bound.
  PathFinder pf(nl, pl, opt, no_crit);
  RoutingResult inf = pf.run(kInfiniteCap);
  record(0, false, inf);
  int hi = std::max(1, inf.max_channel_occupancy);
  int lo = std::min(hi, std::max(1, cut_lower_bound(nl, pl)));
  st.lower_bound = lo;
  st.upper_bound = hi;

  int best = hi;
  while (lo <= hi) {
    const int mid = (lo + hi) / 2;
    RoutingResult r;
    if (opt.warm_start_wmin) {
      // Deliberately warm-start even from a failed probe's state: the
      // history accumulated while a tighter width thrashed marks exactly
      // the contested channels, which speeds up the wider retry.
      pf.decay_history(opt.warm_history_decay);
      r = pf.run(mid);
    } else {
      PathFinder cold(nl, pl, opt, no_crit);
      r = cold.run(mid);
    }
    record(mid, opt.warm_start_wmin, r);
    if (r.success) {
      best = mid;
      hi = mid - 1;
    } else {
      lo = mid + 1;
    }
  }

  // A warm-started probe can legalize a width that a from-scratch router
  // would not (it starts from a nearly legal solution). Callers route() the
  // returned width cold, so verify it cold and bump if needed.
  if (opt.warm_start_wmin) {
    const int limit = std::max(best, st.upper_bound) + 8;
    for (; best <= limit; ++best) {
      RouterOptions vopt = base_opt;
      vopt.channel_width = best;
      RoutingResult v = route(nl, pl, vopt);
      record(best, false, v);
      if (v.success) break;
      ++st.cold_verify_retries;
    }
    if (best > limit)
      LOG_WARN() << "find_min_channel_width: cold verification failed up to width "
                 << limit;
  }
  st.wmin = best;
  return best;
}

double routed_critical_delay(const Netlist& nl, const Placement& pl,
                             const LinearDelayModel& dm, const RoutingResult& routing) {
  TimingGraph tg(nl, pl, dm);
  tg.set_wire_length_override([&routing](CellId sink, int pin, int fallback) {
    return routing.length_of(sink, pin, fallback);
  });
  tg.run_sta();
  return tg.critical_delay();
}

double routed_critical_delay(TimingEngine& eng, const RoutingResult& routing) {
  eng.retime_with_wire_lengths([&routing](CellId sink, int pin, int fallback) {
    return routing.length_of(sink, pin, fallback);
  });
  const double crit = eng.graph().critical_delay();
  eng.retime_with_wire_lengths(nullptr);
  return crit;
}

}  // namespace repro
