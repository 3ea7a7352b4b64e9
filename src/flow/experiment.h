#pragma once

#include <memory>
#include <string>

#include "arch/delay_model.h"
#include "arch/fpga_grid.h"
#include "audit/auditor.h"
#include "gen/circuit_gen.h"
#include "netlist/netlist.h"
#include "place/annealer.h"
#include "place/placement.h"
#include "place/placer.h"
#include "route/router.h"

namespace repro {

/// Shared configuration of the experiment flow used by all benches.
struct FlowConfig {
  /// Circuit size scale relative to Table I (1.0 = full MCNC sizes). The
  /// default keeps the full 20-circuit sweep within minutes on a laptop;
  /// the shapes of Tables II/III are scale-stable (see EXPERIMENTS.md).
  /// Override with REPRO_SCALE.
  double scale = 0.15;
  /// Placement backend (DESIGN.md §10): the T-VPlace annealer baseline, the
  /// gradient/density analytic placer, or the hybrid pipeline (analytic
  /// global + full-budget polish). Serialized into snapshots and job specs;
  /// override with REPRO_PLACER=annealer|analytic|hybrid.
  PlacerBackend placer = PlacerBackend::kAnnealer;
  AnnealerOptions annealer;
  /// Analytic-backend knobs (ignored by the annealer backend). The seed and
  /// cancel token are inherited from `annealer` when left at their defaults.
  AnalyticPlacerOptions analytic;
  LinearDelayModel delay;
  RouterOptions router;
  /// Exponent applied to connection criticalities fed to the timing-driven
  /// router (criticality_weight); 1.0 = raw criticalities (VPR default).
  double router_crit_exponent = 1.0;
  /// Compute the low-stress numbers (W_min search + 1.2 W_min routing).
  bool route_lowstress = true;
  std::uint64_t seed = 7;
  /// Threads for the replication engine's embedder join
  /// (EngineOptions::num_threads): 0 = hardware concurrency, 1 = serial.
  /// Results are bit-identical for every value. Override with REPRO_THREADS.
  int num_threads = 0;
  /// Invariant auditing after prepare_circuit and around evaluate_routed
  /// (src/audit). Audits are read-only and never change results; like
  /// num_threads this is a process-local knob, NOT serialized into
  /// snapshots. Override with REPRO_AUDIT. Throws AuditError on a violation.
  AuditLevel audit = AuditLevel::kOff;
};

/// Reads REPRO_SCALE / REPRO_QUICK / REPRO_THREADS environment variables so
/// the bench binaries can be re-run at other scales without rebuilding.
/// Router fast-path knobs: REPRO_ROUTE_ASTAR / REPRO_ROUTE_INCREMENTAL /
/// REPRO_ROUTE_WARM (each 0 or 1) toggle RouterOptions::use_astar /
/// incremental_reroute / warm_start_wmin. Malformed values (trailing
/// garbage, non-finite, out of range) fall back to the defaults — a bad
/// knob must never abort or zero a batch.
FlowConfig config_from_env();

/// Validated env parsing shared with the serve layer: returns `fallback`
/// unless the variable parses cleanly and exceeds `min_exclusive` (for
/// doubles) / reaches `min_inclusive` (for longs).
double env_double(const char* name, double fallback, double min_exclusive);
long env_long(const char* name, long fallback, long min_inclusive);

/// A generated circuit placed by the timing-driven annealer ("VPR" baseline)
/// on its minimum square FPGA.
struct PlacedCircuit {
  std::string name;
  std::unique_ptr<Netlist> nl;
  std::unique_ptr<FpgaGrid> grid;
  std::unique_ptr<Placement> pl;
  /// Backend used and its deterministic work counters (PlacerStats).
  PlacerStats placer_stats;
  double anneal_seconds = 0;
  /// Process peak RSS sampled after the anneal (0 if unreadable). Volatile
  /// across machines — never folded into deterministic outputs.
  std::uint64_t peak_rss_bytes = 0;
};

PlacedCircuit prepare_circuit(const McncCircuit& c, const FlowConfig& cfg);

/// Post-place(-and-route) metrics matching the Table I columns.
struct CircuitMetrics {
  std::string circuit;
  double crit_winf = 0;   ///< routed critical path, infinite resources [ns]
  double crit_wls = 0;    ///< routed critical path, low-stress width [ns]
  std::int64_t wirelength = 0;  ///< routed total wirelength (low-stress)
  int wmin = 0;
  std::size_t luts = 0;
  std::size_t ios = 0;
  std::size_t blocks = 0;
  int fpga_n = 0;
  double density = 0;
  double route_seconds = 0;
  /// Hardware-independent router work: maze nodes expanded and negotiation
  /// passes across every route()/W_min call of this evaluation.
  std::uint64_t route_nodes_expanded = 0;
  std::uint64_t route_passes = 0;
  /// Engine iterations whose embedding region hit the max_region_points cap
  /// (EngineResult::region_truncations, copied in by callers that run the
  /// replication engine; 0 when the guard is off or replication didn't run).
  std::uint64_t embed_region_truncations = 0;
  /// Memory trajectory (volatile across machines/runs; omitted in the flow
  /// service's --stable output): process peak RSS sampled after routing and
  /// the high-water mark of the scratch arenas (util/stats.h ArenaCounters).
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t arena_bytes = 0;
};

/// Routes and times the design in both modes of Section VII.
CircuitMetrics evaluate_routed(const std::string& name, const Netlist& nl,
                               const Placement& pl, const FlowConfig& cfg);

}  // namespace repro
