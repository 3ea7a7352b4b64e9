#pragma once

// Shared types of the flow benchmark: command-line arguments, the report a
// workload fills, the pass loop and the final-state correctness battery.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arch/delay_model.h"
#include "gen/circuit_gen.h"
#include "netlist/netlist.h"
#include "place/placement.h"
#include "trace.h"
#include "util/mem.h"

namespace flowbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs for the self-test; every metric is still emitted.
  bool smoke = false;
  /// "" or function|occupant|route: corrupt the first job's final state
  /// through audit/fault_inject.h before the correctness check.
  std::string fault;
  /// Where checkpoints, fingerprints and the trace file go.
  std::string out_dir = ".bench_build/flowbench-run";
};

/// Circuits are fixed suite instances (the generator seed below), like the
/// paper's fixed MCNC netlists; --seed drives the traffic: submission order
/// and the ECO delta stream. NOTES.md gives the measured reason.
inline constexpr std::uint64_t kInstanceSeed = 7;

struct Report {
  std::vector<double> setup_s;      ///< one sample per set-up repetition
  std::vector<double> pass_s;       ///< untraced passes
  std::vector<double> requests_s;   ///< request latencies, untraced passes
  double traced_pass_s = 0;         ///< the traced pass (trace runs only)
  std::vector<double> crit_ns;      ///< per job / per query answer
  std::vector<double> wirelength;   ///< per job / per query answer
  double peak_rss_mib = 0;
  int ops_per_pass = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness misses, one line each (any entry fails the run).
  std::vector<std::string> misses;
  /// Deterministic outputs of the last pass; every pass must agree.
  std::string fingerprint;
  /// Per-layer metrics the workload computed itself (counters, ratios).
  std::map<std::string, double> layer;

  void miss(const std::string& what) {
    misses.push_back(what);
    ++failed;
  }
};

/// Runs `pass(traced)` (which returns that pass's pass_s and leaves its
/// fingerprint in rep.fingerprint) the way --trace asks: untraced passes until
/// --seconds of pass time are spent, or one untraced pass followed by one
/// traced pass. A pass whose fingerprint differs from the first is a miss.
template <class PassFn>
void run_passes(const Args& a, Tracer& tr, Report& rep, PassFn&& pass) {
  // peak_rss_mib covers the passes, not the set-up before them.
  repro::reset_peak_rss();
  std::string first;
  auto one = [&](bool traced) {
    tr.set_active(traced);
    const double s = pass(traced);
    tr.set_active(false);
    if (first.empty())
      first = rep.fingerprint;
    else if (rep.fingerprint != first)
      rep.miss("nondeterministic: a later pass produced a different fingerprint:\n" +
               first + "--- vs ---\n" + rep.fingerprint);
    return s;
  };
  if (a.trace) {
    rep.pass_s.push_back(one(false));
    rep.traced_pass_s = one(true);
    return;
  }
  double spent = 0;
  do {
    rep.pass_s.push_back(one(false));
    spent += rep.pass_s.back();
  } while (spent < a.seconds);
}

/// The correctness battery on one job's final state, outside any timed
/// region: a W_inf re-route must leave zero unrouted connections, and the
/// auditor's stage batteries (netlist.structure, place.occupancy,
/// eqclass.consistency, sim.equivalence vs `golden`, sta.drift,
/// route.occupancy) must pass. `fault` corrupts the state first (self-test).
/// Returns "" when clean, else what failed; adds the checks run to *checks.
std::string check_final_state(const std::string& id, repro::Netlist& nl,
                              repro::Placement& pl,
                              const repro::Netlist& golden,
                              const repro::LinearDelayModel& dm,
                              const std::string& fault, Tracer& tr,
                              std::uint64_t* checks);

/// The Table I suite entry `name`; throws on an unknown name.
const repro::McncCircuit& suite_circuit(const std::string& name);

double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p);
double mib(std::uint64_t bytes);

void run_replicate(const Args& a, Tracer& tr, Report& rep);
void run_place_route(const Args& a, Tracer& tr, Report& rep);
void run_serve_batch(const Args& a, Tracer& tr, Report& rep);
void run_eco_session(const Args& a, Tracer& tr, Report& rep);
/// The serve_batch reference run (threads=1, engine_threads=1) over the batch
/// file its parent wrote; prints stable result lines, then wall and peak RSS.
int run_serve_reference(const Args& a);

}  // namespace flowbench
