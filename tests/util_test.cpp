#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "util/geometry.h"
#include "util/ids.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strfmt.h"
#include "util/thread_pool.h"

namespace repro {
namespace {

TEST(Strfmt, FormatDouble17gRoundTripsBitExactly) {
  // %.17g prints enough digits that strtod() restores the exact bit pattern;
  // every deterministic text emitter (JSONL writer, bench JSON) relies on it.
  const double values[] = {0.0,
                           1.0,
                           0.1 + 0.2,
                           1.0 / 3.0,
                           24.349999999999998,
                           1e-300,
                           1e300,
                           -12345.678901234567,
                           5e-324 /* min subnormal */};
  for (double v : values) {
    const std::string text = format_double_17g(v);
    const double back = std::strtod(text.c_str(), nullptr);
    EXPECT_EQ(back, v) << text;
  }
  // Negative zero keeps its sign through the round trip.
  const double nz = std::strtod(format_double_17g(-0.0).c_str(), nullptr);
  EXPECT_TRUE(std::signbit(nz));
}

TEST(Ids, DefaultIsInvalid) {
  CellId c;
  EXPECT_FALSE(c.valid());
  EXPECT_EQ(c, CellId::invalid());
}

TEST(Ids, ValueRoundTrip) {
  CellId c(42);
  EXPECT_TRUE(c.valid());
  EXPECT_EQ(c.value(), 42);
  EXPECT_EQ(c.index(), 42u);
}

TEST(Ids, DistinctTagTypesDoNotMix) {
  static_assert(!std::is_same_v<CellId, NetId>);
  static_assert(!std::is_convertible_v<CellId, NetId>);
}

TEST(Ids, Ordering) {
  EXPECT_LT(CellId(1), CellId(2));
  EXPECT_LT(CellId::invalid(), CellId(0));
}

TEST(Ids, Hashable) {
  std::unordered_set<CellId> s;
  s.insert(CellId(1));
  s.insert(CellId(1));
  s.insert(CellId(2));
  EXPECT_EQ(s.size(), 2u);
}

TEST(Geometry, Manhattan) {
  EXPECT_EQ(manhattan({0, 0}, {3, 4}), 7);
  EXPECT_EQ(manhattan({3, 4}, {0, 0}), 7);
  EXPECT_EQ(manhattan({5, 5}, {5, 5}), 0);
  EXPECT_EQ(manhattan({-2, 1}, {2, -1}), 6);
}

TEST(Geometry, RectEmptyAndInclude) {
  Rect r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.half_perimeter(), 0);
  r.include({3, 4});
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r.width(), 1);
  EXPECT_EQ(r.height(), 1);
  r.include({1, 7});
  EXPECT_EQ(r.xmin, 1);
  EXPECT_EQ(r.xmax, 3);
  EXPECT_EQ(r.ymin, 4);
  EXPECT_EQ(r.ymax, 7);
  EXPECT_EQ(r.half_perimeter(), 2 + 3);
}

TEST(Geometry, RectContains) {
  Rect r{1, 1, 4, 4};
  EXPECT_TRUE(r.contains({1, 1}));
  EXPECT_TRUE(r.contains({4, 4}));
  EXPECT_FALSE(r.contains({0, 2}));
  EXPECT_FALSE(r.contains({5, 2}));
}

TEST(Geometry, RectInflateClips) {
  Rect r{2, 2, 3, 3};
  Rect g = r.inflated(5, 6, 4);
  EXPECT_EQ(g.xmin, 0);
  EXPECT_EQ(g.ymin, 0);
  EXPECT_EQ(g.xmax, 6);
  EXPECT_EQ(g.ymax, 4);
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(13), 13u);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextIntInclusive) {
  Rng rng(5);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) {
    int v = rng.next_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, WeightedRespectsZeroWeights) {
  Rng rng(3);
  std::vector<double> w{0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_weighted(w), 1u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Stats, AccumulatorBasics) {
  StatAccumulator acc;
  for (double x : {1.0, 2.0, 3.0, 4.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_NEAR(acc.variance(), 1.25, 1e-12);
}

TEST(Stats, EmptyAccumulatorIsZero) {
  StatAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.stddev(), 0.0);
}

TEST(Stats, MeanAndGeomean) {
  EXPECT_DOUBLE_EQ(mean_of({2.0, 8.0}), 5.0);
  EXPECT_NEAR(geomean_of({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_EQ(mean_of({}), 0.0);
}

TEST(Stats, Fmt) {
  EXPECT_EQ(fmt(1.23456, 3), "1.235");
  EXPECT_EQ(fmt(2.0, 1), "2.0");
}

// ---- thread pool -------------------------------------------------------------

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  EXPECT_EQ(pool.num_workers(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(10, 3, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  for (unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    EXPECT_EQ(pool.num_workers(), threads - 1);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(hits.size(), 7,
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
  }
}

TEST(ThreadPool, ParallelForInsidePoolTaskDoesNotDeadlock) {
  // A parallel_for issued from inside a chunk of the same pool must complete
  // even when every worker is busy with the outer loop: each caller drains
  // its own chunks.
  ThreadPool pool(2);
  std::vector<long> sums(4, 0);
  pool.parallel_for(sums.size(), 1, [&](std::size_t t) {
    std::atomic<long> sum{0};
    pool.parallel_for(100, 3, [&](std::size_t i) {
      sum.fetch_add(static_cast<long>(i));
    });
    sums[t] = sum.load();
  });
  for (long s : sums) EXPECT_EQ(s, 100L * 99 / 2);
}

TEST(ThreadPool, ParallelForRethrowsAfterAllChunks) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  std::atomic<int> started{0};
  std::mutex mu;
  std::set<std::thread::id> throwers;
  auto fn = [&](std::size_t i) {
    hits[i].fetch_add(1);
    if (i >= 2) return;
    // Chunks 0 and 1 wait for each other, so they run on two threads: the
    // caller and the worker. Both throw.
    started.fetch_add(1);
    while (started.load() < 2) std::this_thread::yield();
    {
      std::lock_guard<std::mutex> lk(mu);
      throwers.insert(std::this_thread::get_id());
    }
    throw std::runtime_error("chunk " + std::to_string(i));
  };
  try {
    pool.parallel_for(hits.size(), 1, fn);
    ADD_FAILURE() << "parallel_for did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_TRUE(std::string(e.what()) == "chunk 0" ||
                std::string(e.what()) == "chunk 1")
        << e.what();
  }
  EXPECT_EQ(throwers.size(), 2u);
  EXPECT_EQ(throwers.count(std::this_thread::get_id()), 1u);
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;

  // The pool stays usable, and a serial pool keeps the same contract.
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(100, 4, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 100u * 99 / 2);
  ThreadPool serial(1);
  std::vector<int> runs(8, 0);
  EXPECT_THROW(serial.parallel_for(runs.size(), 1,
                                   [&](std::size_t i) {
                                     ++runs[i];
                                     if (i == 3) throw std::runtime_error("3");
                                   }),
               std::runtime_error);
  for (int r : runs) EXPECT_EQ(r, 1);
}

// Stress for the pool's park/notify path: parallel_for queues its helpers
// under the mutex a parking worker tests its wait predicate under, and the
// destructor raises the stop flag under it. Bursts of tiny ranges against a
// pool whose workers are waking or parking cycle park -> wake -> park, and
// helpers often pop a loop the caller already finished. The observable
// failures are a hang at shutdown (a worker sleeping through the stop
// notify), a missed or repeated index, and, under TSan in CI, a helper
// touching a finished loop.
TEST(ThreadPool, RapidSubmitDrainShutdownCycles) {
  for (int cycle = 0; cycle < 150; ++cycle) {
    ThreadPool pool(3);
    // A 2-chunk range on a pool whose workers are about to park.
    std::atomic<int> first{0};
    pool.parallel_for(2, 1, [&](std::size_t) { first.fetch_add(1); });
    ASSERT_EQ(first.load(), 2);

    // Drain a small burst, then immediately go quiet so workers re-park;
    // repeat to cycle park -> wake -> park within one pool lifetime.
    for (int burst = 0; burst < 3; ++burst) {
      std::vector<std::atomic<int>> hits(4);
      pool.parallel_for(hits.size(), 1, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (auto& h : hits) ASSERT_EQ(h.load(), 1);
    }
    // Pool destruction: shutdown racing with workers that may be parking.
  }
}

TEST(ThreadPool, ParallelForUnderRepeatedTinyRanges) {
  ThreadPool pool(4);
  for (int round = 0; round < 100; ++round) {
    std::atomic<std::size_t> hits{0};
    // n == 1 makes the caller race the notify path with a single chunk.
    const std::size_t n = 1 + static_cast<std::size_t>(round % 3);
    pool.parallel_for(n, 1, [&](std::size_t) {
      hits.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(hits.load(), n);
  }
}

}  // namespace
}  // namespace repro
