#include "embed/embedding_graph.h"

namespace repro {

EmbeddingGraph EmbeddingGraph::make_grid(const Rect& region, double wire_cost_per_unit,
                                         double wire_delay_per_unit,
                                         const std::function<bool(Point)>& blocked) {
  EmbeddingGraph g;
  for (int y = region.ymin; y <= region.ymax; ++y)
    for (int x = region.xmin; x <= region.xmax; ++x) {
      Point p{x, y};
      if (blocked && blocked(p)) continue;
      g.add_vertex(p);
    }
  for (std::size_t i = 0; i < g.num_vertices(); ++i) {
    EmbedVertexId u(static_cast<EmbedVertexId::value_type>(i));
    Point p = g.point(u);
    for (Point q : {Point{p.x + 1, p.y}, Point{p.x, p.y + 1}}) {
      EmbedVertexId v = g.vertex_at(q);
      if (v.valid()) g.add_bidi_edge(u, v, wire_cost_per_unit, wire_delay_per_unit);
    }
  }
  if (!blocked)
    g.mesh_ = Mesh{region, wire_cost_per_unit, wire_delay_per_unit, g.num_vertices()};
  return g;
}

EmbeddingGraph EmbeddingGraph::make_line(int n, double wire_cost_per_unit,
                                         double wire_delay_per_unit) {
  EmbeddingGraph g;
  for (int x = 0; x < n; ++x) g.add_vertex(Point{x, 0});
  for (int x = 0; x + 1 < n; ++x)
    g.add_bidi_edge(g.vertex_at(Point{x, 0}), g.vertex_at(Point{x + 1, 0}),
                    wire_cost_per_unit, wire_delay_per_unit);
  return g;
}

}  // namespace repro
