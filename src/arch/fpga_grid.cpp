#include "arch/fpga_grid.h"

#include <cassert>

namespace repro {

FpgaGrid::FpgaGrid(int n, int io_rat) : n_(n), io_rat_(io_rat) {
  assert(n >= 1 && io_rat >= 1);
  logic_locs_.reserve(static_cast<std::size_t>(n) * n);
  for (int y = 1; y <= n; ++y)
    for (int x = 1; x <= n; ++x) logic_locs_.push_back(Point{x, y});
  for (int y = 0; y < extent(); ++y)
    for (int x = 0; x < extent(); ++x) {
      Point p{x, y};
      if (is_io(p)) io_locs_.push_back(p);
    }
}

int FpgaGrid::min_grid_for(std::size_t num_logic, std::size_t num_io, int io_rat) {
  int n = 1;
  while (static_cast<std::size_t>(n) * n < num_logic ||
         static_cast<std::size_t>(4 * n * io_rat) < num_io)
    ++n;
  return n;
}

}  // namespace repro
