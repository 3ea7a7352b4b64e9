#include "arch/wirelength.h"

#include <cmath>
#include <stdexcept>

#include "util/strfmt.h"

namespace repro {
namespace {
// Crossing-count coefficients q(k) for k = 1..50 terminals (RISA table, as
// used by VPR's linear congestion cost).
constexpr double kQ[51] = {
    0.0,    1.0,    1.0,    1.0,    1.0828, 1.1536, 1.2206, 1.2823, 1.3385,
    1.3991, 1.4493, 1.4974, 1.5455, 1.5937, 1.6418, 1.6899, 1.7304, 1.7709,
    1.8114, 1.8519, 1.8924, 1.9288, 1.9652, 2.0015, 2.0379, 2.0743, 2.1061,
    2.1379, 2.1698, 2.2016, 2.2334, 2.2646, 2.2958, 2.3271, 2.3583, 2.3895,
    2.4187, 2.4479, 2.4772, 2.5064, 2.5356, 2.5610, 2.5864, 2.6117, 2.6371,
    2.6625, 2.6887, 2.7148, 2.7410, 2.7671, 2.7933};
}  // namespace

double net_size_coefficient(std::size_t num_terminals) {
  if (num_terminals <= 50) return kQ[num_terminals];
  return 2.7933 + 0.02616 * (static_cast<double>(num_terminals) - 50.0);
}

double estimate_wirelength(const std::vector<Point>& terminals) {
  Rect bb;
  for (Point p : terminals) bb.include(p);
  return estimate_wirelength(bb, terminals.size());
}

double estimate_wirelength(const Rect& bbox, std::size_t num_terminals) {
  return net_size_coefficient(num_terminals) * bbox.half_perimeter();
}

WirelengthSum::Fixed WirelengthSum::to_fixed(double v) {
  // Scaling by a power of two is exact, and below 2^116 an integral double
  // converts to the integer type exactly.
  const double scaled = v * 0x1p52;
  if (!(std::abs(v) < 0x1p64) || scaled != std::trunc(scaled))
    throw std::domain_error("wirelength " + format_double_17g(v) +
                            " is not a multiple of 2^-52 below 2^64");
  return static_cast<Fixed>(scaled);
}

void WirelengthSum::add(double v) {
  Fixed sum;
  if (__builtin_add_overflow(acc_, to_fixed(v), &sum))
    throw std::overflow_error("wirelength total overflows");
  acc_ = sum;
}

void WirelengthSum::sub(double v) {
  Fixed diff;
  if (__builtin_sub_overflow(acc_, to_fixed(v), &diff))
    throw std::overflow_error("wirelength total overflows");
  acc_ = diff;
}

double WirelengthSum::value() const {
  // The integer-to-double conversion rounds to nearest, ties to even; the
  // scaling back is exact.
  return static_cast<double>(acc_) * 0x1p-52;
}

}  // namespace repro
