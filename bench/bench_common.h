#pragma once

// Shared helpers for the table benches: run one optimization variant on a
// copy of a prepared circuit and evaluate it post-routing.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <memory>
#include <string>

#include "flow/experiment.h"
#include "replicate/engine.h"
#include "replicate/local_replication.h"

namespace repro::bench {

inline double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// Emits the `summary` block every BENCH_*.json opens with (schema in
/// EXPERIMENTS.md): benchmark name, one headline speedup figure (NaN, written
/// as null, for a bench without one), run date. Call immediately after
/// writing the opening "{\n".
inline void emit_summary(std::FILE* out, const char* name,
                         double aggregate_speedup) {
  char date[16];
  std::time_t now = std::time(nullptr);
  std::tm tm_buf{};
  localtime_r(&now, &tm_buf);
  std::strftime(date, sizeof date, "%Y-%m-%d", &tm_buf);
  char speedup[32] = "null";
  if (!std::isnan(aggregate_speedup))
    std::snprintf(speedup, sizeof speedup, "%.2f", aggregate_speedup);
  std::fprintf(out,
               "  \"summary\": {\"name\": \"%s\", \"aggregate_speedup\": "
               "%s, \"date\": \"%s\"},\n",
               name, speedup, date);
}

/// A netlist+placement copy that can be optimized independently.
struct WorkingCopy {
  std::unique_ptr<Netlist> nl;
  std::unique_ptr<Placement> pl;

  explicit WorkingCopy(const PlacedCircuit& pc)
      : nl(std::make_unique<Netlist>(*pc.nl)),
        pl(std::make_unique<Placement>(pc.pl->with_netlist(*nl))) {}
};

struct VariantOutcome {
  CircuitMetrics metrics;
  double optimize_seconds = 0;
  EngineResult engine;  // zero-initialized for non-engine variants
};

/// Runs the replication engine variant on a copy and evaluates it routed.
inline VariantOutcome run_engine_variant(const PlacedCircuit& pc,
                                         const FlowConfig& cfg, EmbedVariant variant) {
  WorkingCopy w(pc);
  EngineOptions opt;
  opt.variant = variant;
  opt.num_threads = cfg.num_threads;
  const double t0 = now_seconds();
  VariantOutcome out;
  out.engine = run_replication_engine(*w.nl, *w.pl, cfg.delay, opt);
  out.optimize_seconds = now_seconds() - t0;
  out.metrics = evaluate_routed(pc.name, *w.nl, *w.pl, cfg);
  return out;
}

/// Runs local replication best-of-three (the paper's protocol) on copies and
/// evaluates the winner routed.
inline VariantOutcome run_local_replication_best3(const PlacedCircuit& pc,
                                                  const FlowConfig& cfg) {
  VariantOutcome out;
  std::unique_ptr<WorkingCopy> best;
  double best_crit = 0;
  const double t0 = now_seconds();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto w = std::make_unique<WorkingCopy>(pc);
    LocalReplicationOptions opt;
    opt.seed = seed * 7919;
    LocalReplicationResult r = run_local_replication(*w->nl, *w->pl, cfg.delay, opt);
    if (!best || r.final_critical < best_crit) {
      best_crit = r.final_critical;
      best = std::move(w);
    }
  }
  out.optimize_seconds = now_seconds() - t0;
  out.metrics = evaluate_routed(pc.name, *best->nl, *best->pl, cfg);
  return out;
}

}  // namespace repro::bench
