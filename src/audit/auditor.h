#pragma once

#include <stdexcept>
#include <string>

#include "arch/delay_model.h"
#include "audit/finding.h"
#include "netlist/netlist.h"
#include "place/placement.h"
#include "route/router.h"

namespace repro {

/// How much auditing the flow performs after each stage.
///
///  * kOff      — no checks (production default; zero overhead).
///  * kStage    — the full structural battery after every stage: netlist
///                structure, placement occupancy, equivalence classes,
///                routing occupancy, random-vector functional equivalence,
///                and a short incremental-STA drift probe. Designed to cost
///                < 5% of flow wall-clock (see bench/microbench_audit.cpp).
///  * kParanoid — kStage with longer simulation runs and a deeper STA probe.
enum class AuditLevel : std::uint8_t { kOff, kStage, kParanoid };

const char* audit_level_name(AuditLevel level);
/// Parses "off" / "stage" / "paranoid". Returns false on anything else.
bool parse_audit_level(const std::string& text, AuditLevel* out);
/// Reads REPRO_AUDIT ("off" | "stage" | "paranoid"); returns `fallback` when
/// unset. Throws std::runtime_error on an unrecognized value.
AuditLevel audit_level_from_env(AuditLevel fallback = AuditLevel::kOff);

/// Thrown when a stage fails its audit (any finding at kError or worse).
/// Deterministic for a given input — retrying the job cannot help — so the
/// service quarantines the job instead of retrying (see RetryPolicy in
/// serve/service.h).
class AuditError : public std::runtime_error {
 public:
  AuditError(std::string stage, AuditReport report);

  const std::string& stage() const { return stage_; }
  const AuditReport& report() const { return report_; }

 private:
  std::string stage_;
  AuditReport report_;
};

struct AuditOptions {
  AuditLevel level = AuditLevel::kStage;
  /// Random-vector functional equivalence: cycles of 64-wide stimulus.
  int sim_cycles = 64;
  int sim_cycles_paranoid = 256;
  /// Incremental-STA drift probe: random cell moves driven through a
  /// TimingEngine before comparing against a cold rebuild.
  int sta_probe_moves = 6;
  int sta_probe_moves_paranoid = 24;
  /// Max |incremental - cold| disagreement on arrival/downstream times.
  double sta_tolerance = 1e-9;
  std::uint64_t seed = 0xA0D17ULL;
  /// Findings per check are capped so a thoroughly corrupt artifact cannot
  /// produce an unbounded report.
  std::size_t max_findings = 64;
};

/// Flow-wide invariant auditor.
///
/// Each check is independent, read-only, and returns structured findings; a
/// battery after stage X is the merge of the checks that apply to X's
/// artifacts. Checks re-derive state from first principles (recompute
/// occupancy from route trees, rebuild timing cold, resimulate both
/// netlists) rather than trusting any incremental bookkeeping — the auditor
/// is only useful if it shares no code path with what it audits.
class Auditor {
 public:
  explicit Auditor(AuditOptions opt = {}) : opt_(opt) {}

  const AuditOptions& options() const { return opt_; }

  /// Netlist structural integrity (bounds-checked Netlist::validate_issues).
  AuditReport check_netlist(const Netlist& nl, const std::string& stage) const;

  /// Placement legality: every live cell placed once on a compatible
  /// location, occupancy within grid capacity, and occupant-list <->
  /// cell-coordinate agreement in both directions.
  AuditReport check_placement(const Netlist& nl, const Placement& pl,
                              const std::string& stage) const;

  /// Replication equivalence-class consistency: all live members of a class
  /// share function/registered/kind/pin-count, and their per-pin input
  /// drivers are pairwise equivalent.
  AuditReport check_eq_classes(const Netlist& nl, const std::string& stage) const;

  /// Random-vector functional equivalence (netlist/sim.h): drives both
  /// netlists with the same seeded stimulus and requires bit-identical
  /// primary outputs every cycle.
  AuditReport check_equivalence(const Netlist& golden, const Netlist& revised,
                                const std::string& stage) const;

  /// Incremental-STA drift probe: copies the placement, drives a fresh
  /// TimingEngine through seeded random moves, and compares every live
  /// cell's arrival/downstream times against a cold TimingGraph rebuild
  /// within sta_tolerance.
  AuditReport check_sta(const Netlist& nl, const Placement& pl,
                        const LinearDelayModel& dm, const std::string& stage) const;

  /// Routing audit over the router's exported state: occupancy recomputed
  /// from per-net route trees must equal the incremental occupancy,
  /// wirelength must equal total occupancy, and success implies no overuse
  /// and no unrouted connection.
  AuditReport check_routing(const Netlist& nl, const Placement& pl,
                            const RoutingResult& routing,
                            const std::string& stage) const;

  /// The per-stage battery at the configured level. Optional artifacts are
  /// audited when non-null; at kOff this returns an empty report.
  AuditReport audit_stage(const std::string& stage, const Netlist& nl,
                          const Placement* pl, const LinearDelayModel* dm,
                          const Netlist* golden = nullptr,
                          const RoutingResult* routing = nullptr) const;

  /// Throws AuditError when the report is not clean().
  static void require_clean(const std::string& stage, AuditReport report);

 private:
  AuditOptions opt_;
};

}  // namespace repro
