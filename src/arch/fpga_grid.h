#pragma once

#include <cstddef>
#include <vector>

#include "util/geometry.h"
#include "util/ids.h"

namespace repro {

/// Island-style FPGA array, following the VPR model used in the paper's
/// experiments: an N x N grid of logic slots (one BLE each) surrounded by a
/// ring of I/O locations (io_rat pads per ring location). Corner locations
/// are unusable. Coordinates run over the full (N+2) x (N+2) array; logic
/// slots occupy x,y in [1, N].
class FpgaGrid {
 public:
  explicit FpgaGrid(int n, int io_rat = 2);

  int n() const { return n_; }
  int io_rat() const { return io_rat_; }
  /// Full array side length including the I/O ring (= n + 2).
  int extent() const { return n_ + 2; }

  bool in_array(Point p) const {
    return p.x >= 0 && p.y >= 0 && p.x < extent() && p.y < extent();
  }
  bool is_corner(Point p) const {
    const int e = extent() - 1;
    return (p.x == 0 || p.x == e) && (p.y == 0 || p.y == e);
  }
  bool is_logic(Point p) const {
    return p.x >= 1 && p.x <= n_ && p.y >= 1 && p.y <= n_;
  }
  bool is_io(Point p) const { return in_array(p) && !is_logic(p) && !is_corner(p); }

  /// How many blocks can legally sit at p (0 for corners).
  int capacity(Point p) const {
    if (!in_array(p) || is_corner(p)) return 0;
    return is_logic(p) ? 1 : io_rat_;
  }

  SlotId slot_at(Point p) const {
    return SlotId(static_cast<SlotId::value_type>(p.y * extent() + p.x));
  }
  Point point_of(SlotId s) const {
    return Point{static_cast<int>(s.index()) % extent(),
                 static_cast<int>(s.index()) / extent()};
  }
  std::size_t num_locations() const {
    return static_cast<std::size_t>(extent()) * static_cast<std::size_t>(extent());
  }

  const std::vector<Point>& logic_locations() const { return logic_locs_; }
  const std::vector<Point>& io_locations() const { return io_locs_; }

  std::size_t logic_capacity_total() const { return logic_locs_.size(); }
  std::size_t io_capacity_total() const { return io_locs_.size() * io_rat_; }

  /// Smallest N such that an N x N array holds the given block counts — the
  /// paper's "minimum square FPGA able to contain the circuit".
  static int min_grid_for(std::size_t num_logic, std::size_t num_io, int io_rat = 2);

  /// Utilized-LUTs / available-area ratio reported in Table I.
  static double design_density(std::size_t num_logic, int n) {
    return static_cast<double>(num_logic) / (static_cast<double>(n) * n);
  }

 private:
  int n_;
  int io_rat_;
  std::vector<Point> logic_locs_;
  std::vector<Point> io_locs_;
};

}  // namespace repro
