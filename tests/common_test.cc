// Unit tests for the common utilities: deterministic RNG, prefix sums, the
// host thread pool, and the shared k-way merge's edge cases.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/kway_merge.h"
#include "common/prefix_sum.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "graph/beam_search.h"

namespace ganns {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBoundedStaysInBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, GaussianHasRoughlyUnitMoments) {
  Rng rng(11);
  const int n = 20000;
  double sum = 0;
  double sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(PrefixSumTest, ExclusiveMatchesDefinition) {
  const std::vector<std::uint32_t> in = {3, 0, 1, 5, 2};
  std::vector<std::uint32_t> out(in.size());
  const std::uint32_t total =
      ExclusivePrefixSum(std::span<const std::uint32_t>(in),
                         std::span<std::uint32_t>(out));
  EXPECT_EQ(total, 11u);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 3, 3, 4, 9}));
}

TEST(PrefixSumTest, InclusiveMatchesDefinition) {
  const std::vector<std::uint32_t> in = {3, 0, 1, 5, 2};
  std::vector<std::uint32_t> out(in.size());
  const std::uint32_t total =
      InclusivePrefixSum(std::span<const std::uint32_t>(in),
                         std::span<std::uint32_t>(out));
  EXPECT_EQ(total, 11u);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{3, 3, 4, 9, 11}));
}

TEST(PrefixSumTest, EmptyInput) {
  std::vector<std::uint32_t> out;
  EXPECT_EQ(ExclusivePrefixSum({}, std::span<std::uint32_t>(out)), 0u);
}

TEST(PrefixSumTest, InPlaceAliasingWorks) {
  std::vector<std::uint32_t> data = {1, 2, 3, 4};
  InclusivePrefixSum(std::span<const std::uint32_t>(data),
                     std::span<std::uint32_t>(data));
  EXPECT_EQ(data, (std::vector<std::uint32_t>{1, 3, 6, 10}));
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.ParallelFor(1000, [&](std::size_t i) { counts[i]++; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, HandlesZeroAndSmallN) {
  ThreadPool pool(8);
  std::atomic<int> calls{0};  // n = 3 runs on up to three threads
  pool.ParallelFor(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  pool.ParallelFor(3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 3);
}

// Back-to-back tiny loops stress the completion hand-off. The caller's
// completion state lives on its stack and dies as soon as ParallelFor
// returns, so a helper still touching it after the caller could observe
// completion is a use-after-return. Under the TSan gate this test reports
// that race on every run of a pool that notifies after an unlocked
// decrement; a plain build only aborts on it now and then (glibc's mutex
// owner assertion).
TEST(ThreadPoolTest, BackToBackTinyLoopsComplete) {
  for (const std::size_t threads : {4u, 8u}) {
    ThreadPool pool(threads);
    for (int round = 0; round < 40; ++round) {
      for (std::size_t n = 2; n <= 64; ++n) {
        std::atomic<std::size_t> sum{0};
        pool.ParallelFor(n, [&](std::size_t i) {
          sum.fetch_add(i + 1, std::memory_order_relaxed);
        });
        ASSERT_EQ(sum.load(), n * (n + 1) / 2) << "threads=" << threads;
      }
    }
  }
}

TEST(ThreadPoolTest, ResultsIndependentOfPoolSize) {
  // Aggregation by index must give the same result for 1 or many workers.
  const std::size_t n = 500;
  std::vector<double> a(n);
  std::vector<double> b(n);
  ThreadPool single(1);
  ThreadPool many(7);
  single.ParallelFor(n, [&](std::size_t i) { a[i] = std::sqrt(i * 3.5); });
  many.ParallelFor(n, [&](std::size_t i) { b[i] = std::sqrt(i * 3.5); });
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// common/kway_merge.h edge cases (the randomized property lives in
// cluster_test.cc; these pin the boundary behaviors down individually)
// ---------------------------------------------------------------------------

graph::Neighbor Nbr(float dist, VertexId id) {
  graph::Neighbor neighbor;
  neighbor.dist = dist;
  neighbor.id = id;
  return neighbor;
}

TEST(KWayMergeEdgeTest, ZeroListsYieldEmpty) {
  const std::vector<std::vector<graph::Neighbor>> rows;
  EXPECT_TRUE(common::MergeTopK<graph::Neighbor>(rows, 10).empty());
  EXPECT_TRUE(common::MergeTopK<graph::Neighbor>(rows, 0).empty());
}

TEST(KWayMergeEdgeTest, AllEmptyListsYieldEmpty) {
  const std::vector<std::vector<graph::Neighbor>> rows(4);
  EXPECT_TRUE(common::MergeTopK<graph::Neighbor>(rows, 10).empty());
}

TEST(KWayMergeEdgeTest, SingleListPassesThroughTruncated) {
  std::vector<std::vector<graph::Neighbor>> rows(1);
  for (VertexId id = 0; id < 5; ++id) {
    rows[0].push_back(Nbr(static_cast<float>(id), id));
  }
  EXPECT_EQ(common::MergeTopK<graph::Neighbor>(rows, 5), rows[0]);
  EXPECT_EQ(common::MergeTopK<graph::Neighbor>(rows, 99), rows[0]);
  const auto truncated = common::MergeTopK<graph::Neighbor>(rows, 3);
  ASSERT_EQ(truncated.size(), 3u);
  EXPECT_EQ(truncated[2], rows[0][2]);
}

// Equal distances across sources are the case the total-order contract
// exists for: ids are globally unique, so (dist, id) still never ties and
// the merged order is the ascending-id order within each distance class —
// regardless of which source holds which id.
TEST(KWayMergeEdgeTest, EqualDistancesBreakTiesById) {
  std::vector<std::vector<graph::Neighbor>> rows(3);
  rows[0] = {Nbr(1.0f, 4), Nbr(2.0f, 1)};
  rows[1] = {Nbr(1.0f, 2), Nbr(2.0f, 5)};
  rows[2] = {Nbr(1.0f, 0), Nbr(1.0f, 7)};
  const auto merged = common::MergeTopK<graph::Neighbor>(rows, 6);
  const std::vector<graph::Neighbor> expect = {Nbr(1.0f, 0), Nbr(1.0f, 2),
                                               Nbr(1.0f, 4), Nbr(1.0f, 7),
                                               Nbr(2.0f, 1), Nbr(2.0f, 5)};
  EXPECT_EQ(merged, expect);
  // Source order must not matter (pure function of the input sets).
  std::swap(rows[0], rows[2]);
  EXPECT_EQ(common::MergeTopK<graph::Neighbor>(rows, 6), expect);
}

}  // namespace
}  // namespace ganns
