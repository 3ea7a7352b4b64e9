#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "util/geometry.h"
#include "util/ids.h"

namespace repro {

/// Target routing/placement graph for tree embedding (Section II).
///
/// The embedder works on *any* graph: vertices are candidate placement
/// locations, directed edges carry wire cost and wire delay. The grid
/// constructor builds the uniform-mesh instance used for the FPGA flow;
/// tests also build lines, rings, and irregular graphs. Blockages are simply
/// vertices that are never created (or edges omitted), matching the paper's
/// "marking appropriate locations in the embedding graph as blocked".
class EmbeddingGraph {
 public:
  struct Edge {
    EmbedVertexId to;
    double cost;
    double delay;
  };

  EmbedVertexId add_vertex(Point p) {
    EmbedVertexId id(static_cast<EmbedVertexId::value_type>(points_.size()));
    points_.push_back(p);
    adj_.emplace_back();
    by_point_[key(p)] = id;
    return id;
  }

  /// Mesh descriptor of a graph built by make_grid over a full region:
  /// vertices [0, count) are the region's points in row-major order, and
  /// every mesh edge joins 4-neighbors at the same per-unit cost and delay.
  /// Vertices added later (spliced terminals) come after them.
  struct Mesh {
    Rect region;
    double cost_per_unit;
    double delay_per_unit;
    std::size_t count;
  };

  /// Adds a directed edge u -> v. An edge between two mesh vertices makes
  /// the mesh irregular, so it drops the mesh descriptor.
  void add_edge(EmbedVertexId u, EmbedVertexId v, double cost, double delay) {
    if (mesh_ && u.index() < mesh_->count && v.index() < mesh_->count) mesh_.reset();
    adj_[u.index()].push_back(Edge{v, cost, delay});
  }
  /// Adds edges in both directions.
  void add_bidi_edge(EmbedVertexId u, EmbedVertexId v, double cost, double delay) {
    add_edge(u, v, cost, delay);
    add_edge(v, u, cost, delay);
  }

  std::size_t num_vertices() const { return points_.size(); }
  Point point(EmbedVertexId v) const { return points_[v.index()]; }
  const std::vector<Edge>& edges_from(EmbedVertexId v) const { return adj_[v.index()]; }

  /// The mesh descriptor, or null if the graph is not an unmodified
  /// make_grid mesh (plus vertices added after it).
  const Mesh* mesh() const { return mesh_ ? &*mesh_ : nullptr; }

  /// Vertex at a point, or invalid if none (blocked / outside the region).
  EmbedVertexId vertex_at(Point p) const {
    auto it = by_point_.find(key(p));
    return it == by_point_.end() ? EmbedVertexId::invalid() : it->second;
  }

  /// Builds a 4-neighbor mesh over `region` (inclusive), skipping points for
  /// which `blocked` returns true. Edge cost/delay are per unit length. With
  /// no `blocked` the graph carries a mesh descriptor.
  static EmbeddingGraph make_grid(const Rect& region, double wire_cost_per_unit,
                                  double wire_delay_per_unit,
                                  const std::function<bool(Point)>& blocked = {});

  /// Builds a path graph of `n` vertices at y=0, x=0..n-1 (the Fig. 7
  /// example target).
  static EmbeddingGraph make_line(int n, double wire_cost_per_unit,
                                  double wire_delay_per_unit);

 private:
  static long long key(Point p) {
    return (static_cast<long long>(p.y) << 32) | static_cast<unsigned>(p.x);
  }

  std::vector<Point> points_;
  std::vector<std::vector<Edge>> adj_;
  std::unordered_map<long long, EmbedVertexId> by_point_;
  std::optional<Mesh> mesh_;
};

}  // namespace repro
