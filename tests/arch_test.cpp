#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "arch/delay_model.h"
#include "arch/fpga_grid.h"
#include "arch/wirelength.h"

namespace repro {
namespace {

TEST(FpgaGrid, Dimensions) {
  FpgaGrid g(4, 2);
  EXPECT_EQ(g.n(), 4);
  EXPECT_EQ(g.extent(), 6);
  EXPECT_EQ(g.logic_locations().size(), 16u);
  EXPECT_EQ(g.logic_capacity_total(), 16u);
}

TEST(FpgaGrid, IoRing) {
  FpgaGrid g(4, 2);
  // Perimeter minus 4 corners: 4 sides x 4 locations.
  EXPECT_EQ(g.io_locations().size(), 16u);
  EXPECT_EQ(g.io_capacity_total(), 32u);
}

TEST(FpgaGrid, Classification) {
  FpgaGrid g(4, 2);
  EXPECT_TRUE(g.is_corner({0, 0}));
  EXPECT_TRUE(g.is_corner({5, 5}));
  EXPECT_TRUE(g.is_corner({0, 5}));
  EXPECT_TRUE(g.is_io({0, 1}));
  EXPECT_TRUE(g.is_io({3, 0}));
  EXPECT_TRUE(g.is_logic({1, 1}));
  EXPECT_TRUE(g.is_logic({4, 4}));
  EXPECT_FALSE(g.is_logic({0, 1}));
  EXPECT_FALSE(g.is_io({2, 2}));
  EXPECT_FALSE(g.in_array({6, 0}));
}

TEST(FpgaGrid, Capacity) {
  FpgaGrid g(4, 3);
  EXPECT_EQ(g.capacity({0, 0}), 0);  // corner
  EXPECT_EQ(g.capacity({2, 2}), 1);  // logic
  EXPECT_EQ(g.capacity({0, 2}), 3);  // io with io_rat 3
}

TEST(FpgaGrid, SlotRoundTrip) {
  FpgaGrid g(5);
  for (int y = 0; y < g.extent(); ++y)
    for (int x = 0; x < g.extent(); ++x) {
      Point p{x, y};
      EXPECT_EQ(g.point_of(g.slot_at(p)), p);
    }
}

TEST(FpgaGrid, MinGridLogicLimited) {
  // 100 LUTs need a 10x10 array when I/O fits easily.
  EXPECT_EQ(FpgaGrid::min_grid_for(100, 10), 10);
  EXPECT_EQ(FpgaGrid::min_grid_for(101, 10), 11);
}

TEST(FpgaGrid, MinGridIoLimited) {
  // Table I: dsip has 1370 LUTs but 426 I/Os force a 54x54 array at io_rat 2.
  EXPECT_EQ(FpgaGrid::min_grid_for(1370, 426, 2), 54);
  // des: 501 I/Os -> 63x63.
  EXPECT_EQ(FpgaGrid::min_grid_for(1591, 501, 2), 63);
}

TEST(FpgaGrid, MinGridMatchesTableI) {
  // Logic-limited entries of Table I.
  EXPECT_EQ(FpgaGrid::min_grid_for(1064, 71, 2), 33);   // ex5p
  EXPECT_EQ(FpgaGrid::min_grid_for(4598, 20, 2), 68);   // ex1010
  EXPECT_EQ(FpgaGrid::min_grid_for(8383, 144, 2), 92);  // clma
}

TEST(FpgaGrid, DesignDensity) {
  EXPECT_NEAR(FpgaGrid::design_density(1064, 33), 0.977, 0.001);  // ex5p
  EXPECT_NEAR(FpgaGrid::design_density(1370, 54), 0.470, 0.001);  // dsip
}

TEST(DelayModel, LinearInDistance) {
  LinearDelayModel dm;
  dm.wire_delay_per_unit = 0.5;
  EXPECT_DOUBLE_EQ(dm.wire_delay(0), 0.0);
  EXPECT_DOUBLE_EQ(dm.wire_delay(10), 5.0);
  EXPECT_DOUBLE_EQ(dm.wire_delay({0, 0}, {3, 4}), 3.5);
}

TEST(DelayModel, ElmoreSegment) {
  ElmoreDelayModel m;
  m.r_per_unit = 2.0;
  m.c_per_unit = 1.0;
  // d = c*L * (R + r*L/2): with R=0, L=2: 2 * (0 + 2) = 4 (quadratic).
  EXPECT_DOUBLE_EQ(m.segment_delay(0.0, 2), 4.0);
  EXPECT_DOUBLE_EQ(m.segment_delay(1.0, 2), 6.0);
}

TEST(Wirelength, QCoefficients) {
  EXPECT_DOUBLE_EQ(net_size_coefficient(2), 1.0);
  EXPECT_DOUBLE_EQ(net_size_coefficient(3), 1.0);
  EXPECT_NEAR(net_size_coefficient(4), 1.0828, 1e-4);
  EXPECT_NEAR(net_size_coefficient(10), 1.4493, 1e-4);
  EXPECT_NEAR(net_size_coefficient(50), 2.7933, 1e-4);
  // Extrapolation beyond the table.
  EXPECT_NEAR(net_size_coefficient(60), 2.7933 + 0.2616, 1e-4);
}

TEST(Wirelength, HpwlTwoTerminals) {
  EXPECT_DOUBLE_EQ(estimate_wirelength({{0, 0}, {3, 4}}), 7.0);
}

TEST(Wirelength, HpwlLargeNetScaled) {
  std::vector<Point> pts{{0, 0}, {10, 0}, {0, 10}, {10, 10}};
  EXPECT_NEAR(estimate_wirelength(pts), 1.0828 * 20, 1e-6);
}

TEST(Wirelength, SinglePointIsZero) {
  EXPECT_DOUBLE_EQ(estimate_wirelength({{5, 5}}), 0.0);
}

/// Independent reference: Shewchuk's exact expansion, rounded once to
/// nearest with ties to even (the algorithm of CPython's math.fsum).
double fsum_reference(const std::vector<double>& xs) {
  std::vector<double> partials;
  for (double x : xs) {
    std::size_t i = 0;
    for (std::size_t j = 0; j < partials.size(); ++j) {
      double y = partials[j];
      if (std::abs(x) < std::abs(y)) std::swap(x, y);
      const double hi = x + y;
      const double lo = y - (hi - x);
      if (lo != 0) partials[i++] = lo;
      x = hi;
    }
    partials.resize(i);
    partials.push_back(x);
  }
  std::size_t n = partials.size();
  if (n == 0) return 0;
  double hi = partials[--n];
  double lo = 0;
  while (n > 0) {
    const double x = hi;
    const double y = partials[--n];
    hi = x + y;
    lo = y - (hi - x);
    if (lo != 0) break;
  }
  // Half-way between two doubles: the partials below decide the direction.
  if (n > 0 && ((lo < 0 && partials[n - 1] < 0) || (lo > 0 && partials[n - 1] > 0))) {
    const double y = lo * 2;
    const double x = hi + y;
    if (y == x - hi) hi = x;
  }
  return hi;
}

/// Net wirelengths as estimate_wirelength() makes them: q(k) * HPWL.
std::vector<double> random_net_wirelengths(std::mt19937_64& rng, int count) {
  std::uniform_int_distribution<int> coord(0, 60), terminals(2, 80);
  std::vector<double> out;
  for (int i = 0; i < count; ++i) {
    Rect bb = Rect::around({coord(rng), coord(rng)});
    bb.include({coord(rng), coord(rng)});
    out.push_back(estimate_wirelength(bb, static_cast<std::size_t>(terminals(rng))));
  }
  return out;
}

double exact_total(const std::vector<double>& xs) {
  WirelengthSum sum;
  for (double x : xs) sum.add(x);
  return sum.value();
}

TEST(WirelengthSum, TotalDoesNotDependOnOrder) {
  std::mt19937_64 rng(11);
  std::vector<double> wl = random_net_wirelengths(rng, 3000);
  const double total = exact_total(wl);
  for (int round = 0; round < 8; ++round) {
    std::shuffle(wl.begin(), wl.end(), rng);
    EXPECT_EQ(exact_total(wl), total);
  }
  // Values added and taken away again leave no trace.
  WirelengthSum sum;
  for (double x : wl) sum.add(x);
  const std::vector<double> extra = random_net_wirelengths(rng, 500);
  for (double x : extra) sum.add(x);
  for (double x : extra) sum.sub(x);
  EXPECT_EQ(sum.value(), total);
}

TEST(WirelengthSum, TotalIsTheCorrectlyRoundedExactSum) {
  std::mt19937_64 rng(5);
  int sequential_differs = 0;
  for (int set = 0; set < 200; ++set) {
    const std::vector<double> wl = random_net_wirelengths(rng, 400);
    double sequential = 0;
    for (double x : wl) sequential += x;
    EXPECT_EQ(exact_total(wl), fsum_reference(wl)) << set;
    if (sequential != fsum_reference(wl)) ++sequential_differs;
  }
  // The sets are ones where order matters: a left-to-right sum rounds
  // differently on some of them.
  EXPECT_GT(sequential_differs, 0);

  // Half-way cases round to the even neighbour.
  const double big = 0x1p53;
  for (const std::vector<double>& xs :
       {std::vector<double>{big, 1}, {big, 1, 1}, {big + 2, 1}, {big, 3},
        {big, 1, 0.5}, {0.5, 0.25, 1}}) {
    EXPECT_EQ(exact_total(xs), fsum_reference(xs));
  }
  EXPECT_EQ(exact_total({big, 1}), big);
  EXPECT_EQ(exact_total({big + 2, 1}), big + 4);
  EXPECT_EQ(exact_total({big, 1, 0.5}), big + 2);
}

TEST(WirelengthSum, RejectsValuesItCannotHoldExactly) {
  for (double bad : {0.1, 0x1p-53, 1.5 * 0x1p-52, 0x1p64, -0x1p64,
                     std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    WirelengthSum sum;
    sum.add(3);
    EXPECT_THROW(sum.add(bad), std::domain_error) << bad;
    EXPECT_THROW(sum.sub(bad), std::domain_error) << bad;
    EXPECT_EQ(sum.value(), 3);  // a refused value leaves the total alone
  }
  WirelengthSum sum;
  EXPECT_NO_THROW(sum.add(0x1p-52));
  EXPECT_NO_THROW(sum.add(0x1.fffffffffffffp63));
}

}  // namespace
}  // namespace repro
