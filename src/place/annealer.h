#pragma once

#include <cstdint>

#include "arch/delay_model.h"
#include "arch/fpga_grid.h"
#include "netlist/netlist.h"
#include "place/placement.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace repro {

/// Options for the timing-driven simulated-annealing placer.
///
/// The defaults follow T-VPlace (Marquardt, Betz, Rose, FPGA-2000), the
/// placer the paper uses as its baseline and starting point:
///   cost = lambda * Timing/Timing_prev + (1-lambda) * Wiring/Wiring_prev,
///   Timing = sum_e delay(e) * criticality(e)^crit_exponent,
/// with the adaptive annealing schedule, range limiting, and per-temperature
/// STA recomputation of criticalities.
struct AnnealerOptions {
  double lambda = 0.5;
  /// Final criticality exponent; ramped from 1 to this value as the range
  /// limit shrinks, as in T-VPlace.
  double max_crit_exponent = 8.0;
  /// Moves per temperature = inner_num * num_blocks^(4/3). VPR default is 10;
  /// 1.0 gives near-identical quality at a tenth of the runtime for the
  /// circuit sizes used in the benches.
  double inner_num = 1.0;
  bool timing_driven = true;  ///< false = pure wirelength-driven VPlace
  /// Maintain per-net bounding boxes incrementally (boundary occupancy counts
  /// with a full rescan only when a move vacates a boundary) instead of
  /// recomputing every touched net's bbox from its terminal list per move.
  /// Bit-identical either way — the maintained Rect is exactly the terminal
  /// bbox, so estimate_wirelength sees the same inputs. false selects the
  /// recompute path, kept as the test oracle of the FlatVsLegacy anneal
  /// tests.
  bool incremental_bbox = true;
  std::uint64_t seed = 1;
  /// Cooperative cancellation (flow service stage timeouts): checked once
  /// per temperature and every few thousand moves; throws FlowCancelled.
  const CancelToken* cancel = nullptr;
};

/// Deterministic work counters for one anneal (or polish) run: pure
/// functions of the inputs, identical on every run and platform. The placer
/// bench's CI gate compares backends on these instead of wall clock.
struct AnnealStats {
  int temperatures = 0;
  std::uint64_t moves_proposed = 0;
  std::uint64_t moves_accepted = 0;
};

/// Places a netlist on a grid with timing-driven simulated annealing and
/// returns a legal placement. This is the repository's "VPR" baseline.
/// `stats`, when non-null, receives the run's work counters (pure output —
/// the trajectory is bit-identical with or without it).
Placement anneal_placement(const Netlist& nl, const FpgaGrid& grid,
                           const LinearDelayModel& dm, const AnnealerOptions& opt,
                           AnnealStats* stats = nullptr);

/// Budget knobs for the low-temperature polish pass that runs after analytic
/// global placement (DESIGN.md §10). The polish reuses the annealer's
/// incremental cost machinery but starts from the *existing* placement at a
/// temperature low enough to refine without scrambling it: the probe phase
/// evaluates-and-reverts (never commits), the starting temperature is a
/// small fraction of the full annealer's 20-sigma rule, and the range limit
/// stays local.
struct PolishOptions {
  /// Starting temperature = temperature_fraction * 20 * stddev(probe deltas).
  double temperature_fraction = 0.012;
  int max_temperatures = 40;
  /// Fixed move range limit (grid units). 0 = auto: clamp(sqrt(n)/1.7, 4, 6)
  /// — the limit grows sublinearly with the die so small dies still explore
  /// a meaningful fraction of their area while large dies stay local.
  double rlim = 0.0;
  /// Moves per temperature = inner_scale * inner_num * num_blocks^(4/3),
  /// capped by max_moves_per_temperature. More inner moves at this *low*
  /// temperature improve both delay and wirelength; raising the temperature
  /// instead scrambles the analytic placement's global structure and costs
  /// several percent of critical delay (measured — see DESIGN.md §10).
  double inner_scale = 0.7;
  std::uint64_t max_moves_per_temperature = 2000000;
  /// Greedy T=0 sweeps after the cooling loop (only improving moves are
  /// accepted; stops early at a local minimum). Counted in `temperatures`.
  int quench_sweeps = 4;
};

/// Refines an existing legal placement in place with a short low-temperature
/// anneal (same cost model, schedule shape, and exit criterion as
/// anneal_placement; criticality exponent fixed at opt.max_crit_exponent).
/// Legality is preserved: moves are the annealer's swap/relocate proposals.
void anneal_polish(const Netlist& nl, const FpgaGrid& grid,
                   const LinearDelayModel& dm, Placement& pl,
                   const AnnealerOptions& opt, const PolishOptions& popt,
                   AnnealStats* stats = nullptr);

/// Produces a valid random initial placement (used by the annealer and by
/// tests that need any legal placement).
Placement random_placement(const Netlist& nl, const FpgaGrid& grid, Rng& rng);

}  // namespace repro
