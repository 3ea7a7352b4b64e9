#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "embed/embedding_graph.h"
#include "embed/fanin_tree.h"

namespace repro {

/// Result of FaninTreeEmbedder::extract: the chosen graph vertex of every
/// tree node, dense over the tree's node-id space (DESIGN.md §9 — this
/// replaced an unordered_map<TreeNodeId, EmbedVertexId> allocated per
/// extraction). An invalid vertex marks an absent entry; a successful
/// extraction assigns every tree node.
class TreeEmbedding {
 public:
  TreeEmbedding() = default;
  explicit TreeEmbedding(std::size_t num_tree_nodes)
      : vertex_(num_tree_nodes, EmbedVertexId::invalid()) {}

  void reset(std::size_t num_tree_nodes) {
    vertex_.assign(num_tree_nodes, EmbedVertexId::invalid());
  }

  void set(TreeNodeId n, EmbedVertexId v) {
    vertex_[static_cast<std::size_t>(n.index())] = v;
  }

  bool contains(TreeNodeId n) const {
    return static_cast<std::size_t>(n.index()) < vertex_.size() &&
           vertex_[static_cast<std::size_t>(n.index())].valid();
  }

  /// Vertex of a present entry; throws like map::at on an absent one (tests
  /// and extraction keep their lookup idiom unchanged).
  EmbedVertexId at(TreeNodeId n) const {
    if (!contains(n)) throw std::out_of_range("TreeEmbedding::at: absent tree node");
    return vertex_[static_cast<std::size_t>(n.index())];
  }

  EmbedVertexId operator[](TreeNodeId n) const {
    return vertex_[static_cast<std::size_t>(n.index())];
  }

  /// Number of present entries.
  std::size_t size() const {
    std::size_t k = 0;
    for (EmbedVertexId v : vertex_)
      if (v.valid()) ++k;
    return k;
  }
  bool empty() const { return size() == 0; }

  const std::vector<EmbedVertexId>& raw() const { return vertex_; }

  friend bool operator==(const TreeEmbedding& a, const TreeEmbedding& b) {
    return a.vertex_ == b.vertex_;
  }

 private:
  std::vector<EmbedVertexId> vertex_;
};

}  // namespace repro
