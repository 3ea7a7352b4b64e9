#pragma once

#include <vector>

#include "timing/timing_graph.h"

namespace repro {

/// Local monotonicity test over a placed path triple (v1, v2, v3), as defined
/// by Beraudo & Lillis (Section I-A): the subpath is nonmonotone iff
/// d(v1,v3) < d(v1,v2) + d(v2,v3), i.e., traveling through v2 is a detour.
bool locally_nonmonotone(Point v1, Point v2, Point v3);

/// Detour ratio of a placed node path: (sum of consecutive Manhattan
/// distances) / d(first, last). 1.0 means perfectly monotone; returns 1.0
/// for degenerate paths (fewer than 2 nodes or coincident endpoints).
double path_detour_ratio(const TimingGraph& tg, const std::vector<TimingNodeId>& path);

/// Theoretical lower bound on the achievable critical delay assuming fixed
/// timing start/end locations (the bound the paper invokes: "limited by
/// distance between PIs and POs and number of logic blocks in between";
/// Section VII-B's "all FF-to-FF paths are monotone, assuming fixed FF
/// locations").
///
/// For each end point t and each source s in its fanin cone, every s->t path
/// p satisfies delay(p) >= arr(s) + wire(d(s,t)) + levels(p) * logic_delay
/// (the wire of a path cannot beat the straight-line distance between its
/// fixed endpoints). The sink arrival is the max over paths, so
///   arrival(t) >= arr(s) + wire(d(s,t)) + MAXlevels(s,t) * logic_delay
///              + intrinsic(t),
/// where MAXlevels is the largest number of combinational blocks on any s->t
/// path. The bound is the max over all (s, t) pairs.
double monotone_lower_bound(const TimingGraph& tg);

/// Same bound, restricted to one end point.
double monotone_lower_bound_for_sink(const TimingGraph& tg, TimingNodeId sink);

/// Pre-arena reference implementations (unordered_map working state, one
/// allocation set per sink). The arena versions above are bit-identical —
/// the per-sink maximum is evaluated with the same expression on the same
/// term set. Test oracles only (FlatVsLegacy.MonotoneBoundIdentical).
double monotone_lower_bound_legacy(const TimingGraph& tg);
double monotone_lower_bound_for_sink_legacy(const TimingGraph& tg, TimingNodeId sink);

}  // namespace repro
