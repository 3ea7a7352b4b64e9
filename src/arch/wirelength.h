#pragma once

#include <vector>

#include "util/geometry.h"

namespace repro {

/// VPR-style net wirelength estimate: half-perimeter of the terminal bounding
/// box scaled by the crossing-count correction factor q(k) for nets with many
/// terminals (Cheng, "RISA"; used by VPR and by the paper's legalizer cost,
/// Section V-A: "half-perimeter metric augmented by a net size coefficient").
double net_size_coefficient(std::size_t num_terminals);

/// HPWL * q(#terminals) over the given terminal points.
double estimate_wirelength(const std::vector<Point>& terminals);

/// Incremental form: bounding box + terminal count.
double estimate_wirelength(const Rect& bbox, std::size_t num_terminals);

/// Exact running total of net wirelengths, rounded once when read.
///
/// Every estimate_wirelength() value is q(k) * half-perimeter with q(k) >= 1
/// and an integer half-perimeter, so it is 0 or at least 1, and hence a
/// multiple of 2^-52. The total is a fixed-point integer with 52 fractional
/// bits, in which adding and taking away such values is exact: the total
/// depends only on the multiset of values it holds, never on their order or
/// on values added and taken away again. value() is the exact sum rounded to
/// the nearest double, ties to even.
class WirelengthSum {
 public:
  /// Throws std::domain_error for a value that is not a multiple of 2^-52
  /// below 2^64 in magnitude (never rounds it), and std::overflow_error if
  /// the total would leave the accumulator's range.
  void add(double v);
  void sub(double v);
  double value() const;

 private:
  __extension__ using Fixed = __int128;
  static Fixed to_fixed(double v);
  Fixed acc_ = 0;
};

}  // namespace repro
