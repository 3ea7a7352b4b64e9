#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "timing/timing_graph.h"

namespace repro {

/// Slowest-paths tree rooted at a timing end point (Section III).
///
/// For every node u in the fanin cone of the root, the SPT fixes one outgoing
/// edge toward the root: the one on u's slowest path to the root (i.e., the
/// longest-paths tree from the root in the reversed timing graph). The
/// epsilon-SPT keeps only nodes whose slowest root-path is within eps of the
/// critical (root) arrival time, which focuses the replication tree on the
/// most critical portion of the cone.
///
/// Storage is member-indexed flat arrays (DESIGN.md §9): `nodes` lists the
/// members root-first in reverse-topological order; per-member parent /
/// parent-pin / distance live in parallel vectors and the children relation
/// is a CSR. Node-id lookups go through a sorted index, so an Spt is fully
/// self-contained (no external arena lifetime to manage).
struct Spt {
  TimingNodeId root;
  /// Member nodes (root included), in reverse-topological order from the
  /// root outward (parents before children).
  std::vector<TimingNodeId> nodes;

  bool contains(TimingNodeId n) const { return slot_of(n) >= 0; }
  std::size_t size() const { return nodes.size(); }

  /// Toward-root successor for every member except the root (invalid for the
  /// root and for non-members).
  TimingNodeId parent(TimingNodeId n) const {
    const int s = slot_of(n);
    return s >= 0 ? parent_[static_cast<std::size_t>(s)] : TimingNodeId::invalid();
  }
  /// Input pin of the successor cell that the member drives along its tree
  /// edge (needed to rewire replicas pin-exactly). -1 for the root.
  int parent_pin(TimingNodeId n) const {
    const int s = slot_of(n);
    return s >= 0 ? parent_pin_[static_cast<std::size_t>(s)] : -1;
  }
  /// Slowest path delay to the root, per member (tree-path delay).
  double dist_to_root(TimingNodeId n) const {
    const int s = slot_of(n);
    return s >= 0 ? dist_[static_cast<std::size_t>(s)] : 0.0;
  }
  /// Tree children of a member, in extraction order (empty for leaves and
  /// non-members).
  std::span<const TimingNodeId> children(TimingNodeId n) const {
    const int s = slot_of(n);
    if (s < 0) return {};
    const auto b = static_cast<std::size_t>(child_start_[static_cast<std::size_t>(s)]);
    const auto e = static_cast<std::size_t>(child_start_[static_cast<std::size_t>(s) + 1]);
    return {child_list_.data() + b, e - b};
  }

 private:
  friend Spt extract_eps_spt(const TimingGraph& tg, TimingNodeId root, double eps);
  friend Spt extract_eps_spt_legacy(const TimingGraph& tg, TimingNodeId root,
                                    double eps);

  /// Member slot of n (position in `nodes`), or -1 (binary search over the
  /// sorted node-id index).
  int slot_of(TimingNodeId n) const;
  /// Builds the sorted lookup index and the children CSR from `nodes` /
  /// `parent_` (children appear in `nodes` order under each parent, which is
  /// exactly the push order of the historical map-of-vectors layout).
  void build_index();

  std::vector<TimingNodeId> parent_;   ///< per-slot successor (slot 0 = root: invalid)
  std::vector<std::int32_t> parent_pin_;
  std::vector<double> dist_;
  std::vector<std::int32_t> child_start_;   ///< CSR offsets, size()+1 entries
  std::vector<TimingNodeId> child_list_;
  /// (node value, slot) pairs sorted by node value.
  std::vector<std::pair<std::int32_t, std::int32_t>> lookup_;
};

/// Extracts the epsilon-SPT rooted at `root` from a completed STA.
/// eps = 0 yields exactly the slowest path(s) tree spine; larger eps widens
/// the tree (Section V-B dynamically grows eps on non-improvement).
///
/// The cone-sized working state lives in a thread-local generation-stamped
/// arena reused across calls (no per-call allocation once warmed up); the
/// returned Spt owns only its compact member arrays. Bit-identical to the
/// legacy variant below on every input.
Spt extract_eps_spt(const TimingGraph& tg, TimingNodeId root, double eps);

/// The pre-arena reference implementation (unordered_map working state,
/// allocating per call). Test oracle only: SptFixture.
/// LegacyExtractionIsIdentical and FlatVsLegacy.EpsSptIdentical compare the
/// arena version against it.
Spt extract_eps_spt_legacy(const TimingGraph& tg, TimingNodeId root, double eps);

}  // namespace repro
