#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "arch/delay_model.h"
#include "netlist/netlist.h"
#include "place/legalizer.h"
#include "place/placement.h"
#include "util/cancel.h"

namespace repro {

/// Objective variant run by the engine (Table II / Table III columns).
enum class EmbedVariant {
  kRtEmbedding,  ///< base 2-D cost/max-arrival embedding (Section II)
  kLex2,         ///< Section VI-A lexicographic subcritical optimization
  kLex3,
  kLex4,
  kLex5,
  kLexMc,  ///< max + critical-input variant
};

const char* variant_name(EmbedVariant v);

/// Parses the short variant names used on command lines and in job specs
/// (rt|lex2|lex3|lex4|lex5|mc). Returns false and leaves `out` untouched on
/// any other name.
bool parse_variant(std::string_view name, EmbedVariant* out);

struct EngineOptions {
  EmbedVariant variant = EmbedVariant::kRtEmbedding;
  int max_iterations = 200;
  /// Stop after this many consecutive iterations without improving the best
  /// critical delay seen (sink rotation can otherwise shuffle subcritical
  /// work indefinitely on small dense circuits).
  int max_stagnant_iterations = 40;

  /// Dynamic epsilon schedule (Section V-B): epsilon starts at 0 and grows by
  /// eps_step_fraction * critical_delay on every non-improving iteration on
  /// the same critical sink; the run stops after max_eps_steps fruitless
  /// widenings (the critical sink cannot be improved further).
  double eps_step_fraction = 0.05;
  int max_eps_steps = 6;

  /// Per-iteration improvement step: the engine picks the CHEAPEST solution
  /// that improves the critical sink by at least this fraction of the
  /// current critical delay (when achievable), rather than the outright
  /// fastest. This is the paper's "cheapest solution that is fast enough"
  /// discipline — it conserves free slots and replicates only where it pays,
  /// trading single-shot gains for many small iterations (ex1010 took 106).
  double improvement_step_fraction = 0.03;

  /// Extra embedding cost the selection may spend beyond the cheapest
  /// qualifying solution to buy lexicographically faster (subcritical)
  /// arrivals. This is what lets the Lex-N objectives actually pay for the
  /// replication that breaks reconvergence (Fig. 15/16): with a zero budget
  /// the cheapest solution always parks the copies on their originals and
  /// the subcritical paths never improve.
  double subcritical_budget = 16.0;

  /// Embedding-region margin around the tree terminals' bounding box.
  int region_margin = 6;

  /// Placement-cost model (Section II-A): each occupant of a slot adds
  /// occupancy_cost; locations without a logically equivalent cell add
  /// replication_cost unless the tree node's original has fanout 1.
  double replication_cost = 8.0;
  double occupancy_cost = 4.0;
  double wire_cost_per_unit = 1.0;

  /// Pareto-list cap handed to the embedder (0 = exact).
  int max_labels = 24;
  /// Trees with more internal nodes than this are not embedded (runtime
  /// guard; the paper saw trees up to ~1000 cells).
  int max_tree_internal = 600;
  /// Embedding-region size cap in grid points (0 = unlimited). The DP is
  /// O(tree nodes x region points x labels) in time and memory, so a
  /// chip-spanning tree on a large array costs gigabytes per embedding.
  /// Oversized regions are shrunk to a ~sqrt(cap)^2 window around the root
  /// sink; terminals outside the window are spliced in with straight-line
  /// edges (the I/O-ring mechanism), so replication still happens at scale,
  /// scoped to where it has timing leverage. Off by default: results at
  /// paper scales are pinned with the guard off.
  int max_region_points = 0;

  bool aggressive_unification = true;  ///< Section V-C / VII-B strategy
  bool enable_ff_relocation = true;    ///< Section V-D

  LegalizerOptions legalizer;

  /// Threads for the embedder's join columns (0 = hardware concurrency,
  /// 1 = fully serial). The optimization trajectory is bit-identical for
  /// every value: the chunked join merges its results in vertex order.
  int num_threads = 0;

  /// Cooperative cancellation (flow service stage timeouts): checked once
  /// per engine iteration; throws FlowCancelled.
  const CancelToken* cancel = nullptr;
};

/// Per-iteration record (drives the Fig. 14 statistics).
struct IterationStats {
  int iteration = 0;
  double critical_delay = 0;
  double epsilon = 0;
  std::size_t tree_internal = 0;
  int replicated_cum = 0;
  int unified_cum = 0;
  bool improved = false;
  bool ff_relocation = false;
};

struct EngineResult {
  double initial_critical = 0;
  double final_critical = 0;
  double initial_wirelength = 0;  ///< q(k)-HPWL estimate before optimization
  double final_wirelength = 0;
  std::size_t initial_blocks = 0;
  std::size_t final_blocks = 0;
  int total_replicated = 0;  ///< cells created over the run
  int total_unified = 0;     ///< cells removed again by unification
  bool ran_out_of_slots = false;
  bool reached_lower_bound = false;  ///< Section VII-B monotone bound
  double lower_bound = 0;
  /// Iterations whose embedding region was shrunk by the max_region_points
  /// guard (0 when the guard is off). Identical for every thread count.
  std::uint64_t region_truncations = 0;
  std::vector<IterationStats> history;

  int num_threads_used = 1;  ///< join threads (docs/ALGORITHMS.md §11)
  /// Always 0: the engine no longer speculates. Kept only because
  /// flowbench still reads them for its replicate.spec_* per-layer metrics;
  /// a later benchmark change removes the fields and those metrics together.
  std::uint64_t speculations_launched = 0;
  std::uint64_t speculation_hits = 0;
  std::uint64_t speculations_discarded = 0;
};

/// The paper's optimization engine (Fig. 10/11): starting from a legal
/// timing-driven placement, iterate
///   STA -> critical sink -> epsilon-SPT -> replication tree -> fanin tree
///   embedding -> extraction (replicate / relocate / unify) -> postprocess
///   unification -> timing-driven legalization,
/// tracking the best configuration seen and restoring it at the end.
/// Mutates nl and pl in place.
EngineResult run_replication_engine(Netlist& nl, Placement& pl,
                                    const LinearDelayModel& dm,
                                    const EngineOptions& opt = {});

}  // namespace repro
