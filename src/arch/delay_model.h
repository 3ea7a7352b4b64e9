#pragma once

#include "util/geometry.h"

namespace repro {

/// Placement-level delay estimator.
///
/// The paper (Section II-B) argues that for the target FPGA architecture all
/// routing switches are buffered and interconnect resources are uniform, so
/// RC effects are localized and interconnect delay is well approximated by a
/// *linear* function of the Manhattan length. Each embedding-graph edge is
/// annotated with propagation delay and each vertex with intrinsic delay.
///
/// The default constants are calibrated so that (a) the 20 benchmark
/// circuits produce critical-path delays of the same order as Table I (tens
/// to hundreds of ns on 33..92-sized arrays) and (b) interconnect dominates
/// logic delay, the premise of the paper's era of FPGAs ("interconnect-
/// dominated delay", Section I) and the regime where placement-coupled
/// replication pays off.
struct LinearDelayModel {
  /// Interconnect delay per unit of Manhattan distance (ns/tile).
  double wire_delay_per_unit = 1.0;
  /// Intrinsic delay of a logic block (LUT + local routing), ns.
  double logic_delay = 0.5;
  /// Intrinsic delay of an I/O pad, ns.
  double io_delay = 0.3;
  /// Flip-flop clock-to-Q + setup allocated at register boundaries, ns.
  double ff_delay = 0.2;

  double wire_delay(int manhattan_dist) const {
    return wire_delay_per_unit * manhattan_dist;
  }
  double wire_delay(Point a, Point b) const { return wire_delay(manhattan(a, b)); }
};

/// Elmore RC parameters for the upstream-resistance variant of Section II-D,
/// intended for ASIC-style targets. It runs through the one fanin-tree
/// embedder as a stem-delay function (docs/ALGORITHMS.md §2): set
/// EmbedOptions::stem_delay to wire_delay and add pin_load() to every gate's
/// delay.
struct ElmoreDelayModel {
  double r_per_unit = 0.1;   ///< wire resistance per unit length
  double c_per_unit = 0.2;   ///< wire capacitance per unit length
  double r_out = 1.0;        ///< driver output resistance
  double c_in = 0.05;        ///< gate input capacitance

  /// Paper Section II-D: d_uv = c_uv * (R(u) + r_uv / 2), where R(u) is the
  /// cumulative upstream resistance including the driving gate's output
  /// resistance.
  double segment_delay(double upstream_r, int length) const {
    const double r_uv = r_per_unit * length;
    const double c_uv = c_per_unit * length;
    return c_uv * (upstream_r + r_uv / 2.0);
  }

  /// Delay of an unbranched run of `length` units from a driver, plus the
  /// receiving pin's load charged through the run's resistance. Here
  /// R(u) = r_out + r * stem, so wire_delay(s + l) - wire_delay(s) is the
  /// paper's sum of d_uv over the next l units, plus c_in * r * l.
  double wire_delay(int length) const {
    return segment_delay(r_out, length) + c_in * r_per_unit * length;
  }
  /// The constant part of the pin load, c_in * r_out: the caller adds it to
  /// each gate's delay.
  double pin_load() const { return c_in * r_out; }
};

}  // namespace repro
