#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "embed/signature.h"
#include "util/rng.h"

namespace repro {
namespace {

TEST(DelayVec, EmptyBehaviour) {
  DelayVec d;
  EXPECT_EQ(d.n, 0);
  EXPECT_EQ(d.primary(), -std::numeric_limits<double>::infinity());
  d.shift(5.0);  // no entries: no-op
  EXPECT_EQ(d.n, 0);
}

TEST(DelayVec, SingleAndPairFactories) {
  DelayVec s = DelayVec::single(4.5);
  EXPECT_EQ(s.n, 1);
  EXPECT_DOUBLE_EQ(s.primary(), 4.5);
  DelayVec p = DelayVec::pair(9.0, 3.0);
  EXPECT_EQ(p.n, 2);
  EXPECT_DOUBLE_EQ(p.v[0], 9.0);
  EXPECT_DOUBLE_EQ(p.v[1], 3.0);
}

TEST(DelayVec, MergeWithEmptyIsIdentityTruncated) {
  DelayVec empty;
  DelayVec p = DelayVec::pair(7.0, 2.0);
  DelayVec m1 = empty.merged_with(p, 3);
  EXPECT_EQ(m1.n, 2);
  EXPECT_DOUBLE_EQ(m1.v[0], 7.0);
  DelayVec m2 = p.merged_with(empty, 1);
  EXPECT_EQ(m2.n, 1);
  EXPECT_DOUBLE_EQ(m2.v[0], 7.0);
}

TEST(DelayVec, MergePreservesDuplicates) {
  // Two distinct paths with identical delays must both be tracked (the
  // paper's multiset-removal formulation).
  DelayVec a = DelayVec::single(5.0);
  DelayVec b = DelayVec::single(5.0);
  DelayVec m = a.merged_with(b, 3);
  EXPECT_EQ(m.n, 2);
  EXPECT_DOUBLE_EQ(m.v[0], 5.0);
  EXPECT_DOUBLE_EQ(m.v[1], 5.0);
}

TEST(DelayVec, MergeAtFullCapacity) {
  DelayVec a;
  a.n = 3;
  a.v[0] = 9;
  a.v[1] = 7;
  a.v[2] = 5;
  DelayVec b;
  b.n = 3;
  b.v[0] = 8;
  b.v[1] = 6;
  b.v[2] = 4;
  DelayVec m = a.merged_with(b, DelayVec::kCapacity);
  ASSERT_EQ(m.n, 6);
  const double expect[] = {9, 8, 7, 6, 5, 4};
  for (int i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(m.v[i], expect[i]);
}

TEST(DelayVec, LexCompareTransitiveSamples) {
  DelayVec a = DelayVec::pair(5, 1);
  DelayVec b = DelayVec::pair(5, 2);
  DelayVec c = DelayVec::pair(6, 0);
  EXPECT_LT(a.lex_compare(b), 0);
  EXPECT_LT(b.lex_compare(c), 0);
  EXPECT_LT(a.lex_compare(c), 0);
  EXPECT_GT(c.lex_compare(a), 0);
  EXPECT_TRUE(a.lex_less_equal(a));
  EXPECT_TRUE(a.lex_equal(a));
}

TEST(Provenance, DefaultsAreInitial) {
  Provenance p;
  EXPECT_EQ(p.kind, Provenance::Kind::kInitial);
  EXPECT_EQ(p.spill_index, -1);
}

TEST(Label, DefaultsAreLive) {
  LabelKey k;
  EXPECT_EQ(k.dead, 0);
  EXPECT_EQ(k.branching, 0);
  EXPECT_EQ(k.stem_len, 0);
  EXPECT_EQ(k.cost, 0);
  EXPECT_EQ(k.delay.n, 0);
  LabelCold c;
  EXPECT_EQ(c.mc_weight, 0);
  EXPECT_EQ(c.prov.kind, Provenance::Kind::kInitial);
}

/// The definition lex_compare must keep: entries past the end count as
/// -infinity.
int padded_lex_compare(const DelayVec& a, const DelayVec& b) {
  const double inf = std::numeric_limits<double>::infinity();
  const int m = std::max<int>(a.n, b.n);
  for (int i = 0; i < m; ++i) {
    const double x = i < a.n ? a.v[i] : -inf;
    const double y = i < b.n ? b.v[i] : -inf;
    if (x < y) return -1;
    if (x > y) return 1;
  }
  return 0;
}

TEST(DelayVec, LexCompareMatchesPaddedDefinition) {
  // Entries come from a 3-value alphabet, so equal prefixes of different
  // lengths are common; every third pair shares a prefix on purpose.
  Rng rng(2024);
  auto random_vec = [&rng] {
    DelayVec d;
    d.n = static_cast<std::int8_t>(rng.next_int(1, DelayVec::kCapacity));
    for (int i = 0; i < d.n; ++i) d.v[i] = 0.5 * rng.next_int(-1, 1);
    return d;
  };
  int equal_prefix_pairs = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    DelayVec a = random_vec();
    DelayVec b = random_vec();
    if (trial % 3 == 0)
      for (int i = 0; i < std::min<int>(a.n, b.n); ++i) b.v[i] = a.v[i];
    if (std::equal(a.v, a.v + std::min<int>(a.n, b.n), b.v)) ++equal_prefix_pairs;
    ASSERT_EQ(a.lex_compare(b), padded_lex_compare(a, b))
        << "trial " << trial << " n " << int(a.n) << " vs " << int(b.n);
    ASSERT_EQ(b.lex_compare(a), padded_lex_compare(b, a)) << "trial " << trial;
  }
  EXPECT_GT(equal_prefix_pairs, 6000);
}

}  // namespace
}  // namespace repro
