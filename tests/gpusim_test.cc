// Unit and property tests for the SIMT simulator substrate: warp
// primitives, cost accounting, shared-memory limits, device scheduling, and
// the bitonic sort/merge primitives, including differential tests of their
// host fast paths against the executed networks.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "gpusim/bitonic.h"
#include "gpusim/bitonic_reference.h"
#include "gpusim/block.h"
#include "gpusim/device.h"
#include "gpusim/warp.h"

namespace ganns {
namespace gpusim {
namespace {

TEST(WarpTest, StepsForRoundsUpToLaneMultiples) {
  CostModel cost;
  Warp warp(32, &cost);
  EXPECT_EQ(warp.StepsFor(0), 0);
  EXPECT_EQ(warp.StepsFor(1), 1);
  EXPECT_EQ(warp.StepsFor(32), 1);
  EXPECT_EQ(warp.StepsFor(33), 2);
  EXPECT_EQ(warp.StepsFor(64), 2);

  Warp narrow(4, &cost);
  EXPECT_EQ(narrow.StepsFor(32), 8);
}

TEST(WarpTest, BallotSyncSetsBitsForTrueLanes) {
  CostModel cost;
  Warp warp(32, &cost);
  const std::uint32_t mask =
      warp.BallotSync(8, [](int lane) { return lane % 3 == 0; });
  EXPECT_EQ(mask, 0b01001001u);
}

TEST(WarpTest, BallotSyncEmptyAndFull) {
  CostModel cost;
  Warp warp(32, &cost);
  EXPECT_EQ(warp.BallotSync(0, [](int) { return true; }), 0u);
  EXPECT_EQ(warp.BallotSync(32, [](int) { return true; }), 0xffffffffu);
}

TEST(WarpTest, FfsReturnsLowestSetBit) {
  EXPECT_EQ(Warp::Ffs(0), -1);
  EXPECT_EQ(Warp::Ffs(1), 0);
  EXPECT_EQ(Warp::Ffs(0b1000), 3);
  EXPECT_EQ(Warp::Ffs(0x80000000u), 31);
  EXPECT_EQ(Warp::Ffs(0b0110), 1);
}

TEST(WarpTest, ParallelForVisitsEveryIndexAndChargesSteps) {
  CostModel cost;
  Warp warp(8, &cost);
  std::vector<int> seen(20, 0);
  warp.ParallelFor(20, CostCategory::kOther, 1.0,
                   [&](std::size_t i) { seen[i]++; });
  for (int count : seen) EXPECT_EQ(count, 1);
  // ceil(20 / 8) = 3 steps of 1 cycle.
  EXPECT_DOUBLE_EQ(cost.cycles(CostCategory::kOther), 3.0);
}

TEST(WarpTest, ChargeDistanceScalesWithLanesAndDim) {
  CostModel cost32;
  Warp warp32(32, &cost32);
  warp32.ChargeDistance(128);

  CostModel cost4;
  Warp warp4(4, &cost4);
  warp4.ChargeDistance(128);

  // Fewer lanes => strictly more distance cycles (the Figure 10 effect).
  EXPECT_GT(cost4.cycles(CostCategory::kDistance),
            cost32.cycles(CostCategory::kDistance));
}

TEST(WarpTest, HostOpsDoNotAmortizeOverLanes) {
  CostModel cost32;
  Warp warp32(32, &cost32);
  warp32.ChargeHostOps(100, CostCategory::kDataStructure);

  CostModel cost1;
  Warp warp1(1, &cost1);
  warp1.ChargeHostOps(100, CostCategory::kDataStructure);

  // SONG's serial bottleneck: identical cost regardless of warp width.
  EXPECT_DOUBLE_EQ(cost32.cycles(CostCategory::kDataStructure),
                   cost1.cycles(CostCategory::kDataStructure));
}

TEST(CostModelTest, ChargesAccumulateByCategoryAndMerge) {
  CostModel a;
  a.Charge(CostCategory::kDistance, 10);
  a.Charge(CostCategory::kDistance, 5);
  a.Charge(CostCategory::kOther, 1);
  EXPECT_DOUBLE_EQ(a.cycles(CostCategory::kDistance), 15);
  EXPECT_DOUBLE_EQ(a.total_cycles(), 16);

  CostModel b;
  b.Charge(CostCategory::kDataStructure, 4);
  a.Add(b);
  EXPECT_DOUBLE_EQ(a.total_cycles(), 20);
  a.Reset();
  EXPECT_DOUBLE_EQ(a.total_cycles(), 0);
}

TEST(BlockTest, AllocSharedTracksUsageAndResets) {
  CostParams params;
  BlockContext block(0, 32, 1024, &params);
  auto ints = block.AllocShared<std::uint32_t>(64);
  EXPECT_EQ(ints.size(), 64u);
  EXPECT_EQ(block.shared_used(), 256u);
  // Freshly allocated shared memory is zero-initialized.
  for (std::uint32_t v : ints) EXPECT_EQ(v, 0u);
  block.ResetShared();
  EXPECT_EQ(block.shared_used(), 0u);
}

TEST(BlockDeathTest, SharedMemoryOverflowIsFatal) {
  CostParams params;
  BlockContext block(0, 32, 128, &params);
  EXPECT_DEATH(block.AllocShared<std::uint32_t>(64),
               "shared memory overflow");
}

TEST(DeviceTest, LaunchRunsEveryBlockOnceWithOwnId) {
  Device device;
  std::vector<int> counts(50, 0);
  const KernelStats stats = device.Launch(50, 32, [&](BlockContext& block) {
    counts[block.block_id()]++;
  });
  for (int c : counts) EXPECT_EQ(c, 1);
  EXPECT_EQ(stats.grid_size, 50);
  // Even empty blocks pay the launch overhead.
  EXPECT_GE(stats.sim_cycles, device.spec().cost.launch_overhead);
}

TEST(DeviceTest, KernelDurationIsMaxOverSlotsNotSum) {
  DeviceSpec spec;
  spec.concurrent_blocks = 4;
  spec.cost.launch_overhead = 0;
  Device device(spec);
  // 8 blocks, each charging 100 cycles: 4 slots * 2 blocks = 200 cycles.
  const KernelStats stats = device.Launch(8, 32, [&](BlockContext& block) {
    block.cost().Charge(CostCategory::kOther, 100);
  });
  EXPECT_DOUBLE_EQ(stats.sim_cycles, 200.0);
  EXPECT_DOUBLE_EQ(stats.work_total(), 800.0);
}

TEST(DeviceTest, TimelineAccumulatesAcrossLaunchesUntilReset) {
  DeviceSpec spec;
  spec.cost.launch_overhead = 10;
  Device device(spec);
  device.Launch(1, 32, [](BlockContext& block) {
    block.cost().Charge(CostCategory::kDistance, 90);
  });
  device.Launch(1, 32, [](BlockContext& block) {
    block.cost().Charge(CostCategory::kDataStructure, 40);
  });
  EXPECT_DOUBLE_EQ(device.timeline_cycles(), 90 + 40 + 2 * 10);
  EXPECT_DOUBLE_EQ(device.timeline_work(CostCategory::kDistance), 90);
  EXPECT_DOUBLE_EQ(device.timeline_work(CostCategory::kDataStructure), 40);
  device.ResetTimeline();
  EXPECT_DOUBLE_EQ(device.timeline_cycles(), 0);
}

TEST(DeviceTest, CyclesToSecondsUsesClock) {
  DeviceSpec spec;
  spec.clock_ghz = 2.0;
  Device device(spec);
  EXPECT_DOUBLE_EQ(device.CyclesToSeconds(4e9), 2.0);
}

TEST(BitonicTest, NextPow2) {
  EXPECT_EQ(NextPow2(0), 1u);
  EXPECT_EQ(NextPow2(1), 1u);
  EXPECT_EQ(NextPow2(2), 2u);
  EXPECT_EQ(NextPow2(3), 4u);
  EXPECT_EQ(NextPow2(32), 32u);
  EXPECT_EQ(NextPow2(33), 64u);
}

// ---- Property tests: the bitonic networks against std::sort. ----

struct BitonicCase {
  std::size_t size;
  std::uint64_t seed;
};

class BitonicSortProperty : public ::testing::TestWithParam<BitonicCase> {};

TEST_P(BitonicSortProperty, SortsExactlyLikeStdSort) {
  const auto [size, seed] = GetParam();
  Rng rng(seed);
  std::vector<std::uint64_t> values(size);
  for (auto& v : values) v = rng.NextBounded(1000);  // many duplicates

  std::vector<std::uint64_t> expected = values;
  std::sort(expected.begin(), expected.end());

  CostModel cost;
  Warp warp(32, &cost);
  BitonicSort(warp, std::span<std::uint64_t>(values),
              [](std::uint64_t a, std::uint64_t b) { return a < b; },
              CostCategory::kDataStructure);
  EXPECT_EQ(values, expected);
  // Closed form: log2(L)*(log2(L)+1)/2 stages, each a lane-strided pass over
  // the L/2 compare-exchange pairs.
  const double log_len = std::bit_width(size) - 1;
  const double stages = log_len * (log_len + 1) / 2;
  const double per_pair =
      warp.params().alu_step + 2 * warp.params().shared_access;
  EXPECT_EQ(cost.cycles(CostCategory::kDataStructure),
            stages * warp.StepsFor(size / 2) * per_pair);
}

INSTANTIATE_TEST_SUITE_P(
    PowerOfTwoSizes, BitonicSortProperty,
    ::testing::Values(BitonicCase{1, 1}, BitonicCase{2, 2}, BitonicCase{4, 3},
                      BitonicCase{8, 4}, BitonicCase{16, 5},
                      BitonicCase{32, 6}, BitonicCase{64, 7},
                      BitonicCase{128, 8}, BitonicCase{256, 9},
                      BitonicCase{1024, 10}));

TEST(BitonicDeathTest, NonPowerOfTwoSortIsFatal) {
  CostModel cost;
  Warp warp(32, &cost);
  std::vector<int> values(3);
  EXPECT_DEATH(BitonicSort(warp, std::span<int>(values),
                           [](int a, int b) { return a < b; },
                           CostCategory::kOther),
               "not a power of two");
}

class BitonicMergeProperty : public ::testing::TestWithParam<BitonicCase> {};

TEST_P(BitonicMergeProperty, MergeKeepsSmallestInA) {
  const auto [size, seed] = GetParam();
  Rng rng(seed);
  // Two independently sorted sequences of different lengths.
  const std::size_t a_size = size;
  const std::size_t b_size = std::max<std::size_t>(1, size / 2 + 1);
  std::vector<std::uint64_t> a(a_size);
  std::vector<std::uint64_t> b(b_size);
  for (auto& v : a) v = rng.NextBounded(500);
  for (auto& v : b) v = rng.NextBounded(500);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());

  std::vector<std::uint64_t> merged;
  merged.insert(merged.end(), a.begin(), a.end());
  merged.insert(merged.end(), b.begin(), b.end());
  std::sort(merged.begin(), merged.end());
  merged.resize(a_size);  // expected: smallest a_size of the union

  CostModel cost;
  Warp warp(32, &cost);
  std::vector<std::uint64_t> scratch(
      2 * NextPow2(std::max(a_size, b_size)));
  MergeSortedKeepFirst(warp, std::span<std::uint64_t>(a),
                       std::span<const std::uint64_t>(b),
                       std::span<std::uint64_t>(scratch),
                       [](std::uint64_t x, std::uint64_t y) { return x < y; },
                       CostCategory::kDataStructure);
  EXPECT_EQ(a, merged);
}

INSTANTIATE_TEST_SUITE_P(
    VariousSizes, BitonicMergeProperty,
    ::testing::Values(BitonicCase{1, 11}, BitonicCase{2, 12},
                      BitonicCase{5, 13}, BitonicCase{8, 14},
                      BitonicCase{16, 15}, BitonicCase{31, 16},
                      BitonicCase{32, 17}, BitonicCase{64, 18},
                      BitonicCase{100, 19}, BitonicCase{128, 20}));

TEST(BitonicMergeTest, EmptyBLeavesAUntouched) {
  CostModel cost;
  Warp warp(32, &cost);
  std::vector<int> a = {1, 2, 3, 4};
  std::vector<int> b;
  std::vector<int> scratch(8, 0);
  MergeSortedKeepFirst(warp, std::span<int>(a), std::span<const int>(b),
                       std::span<int>(scratch),
                       [](int x, int y) { return x < y; },
                       CostCategory::kOther);
  EXPECT_EQ(a, (std::vector<int>{1, 2, 3, 4}));
}

// ---- Differential tests: host fast paths vs the executed networks. ----
//
// The fast paths must produce the network's output array and charge exactly
// the network's cycles, category by category (compared with ==, not within
// a tolerance).

void ExpectSameCycles(const CostModel& fast, const CostModel& reference) {
  for (int c = 0; c < kNumCostCategories; ++c) {
    const auto category = static_cast<CostCategory>(c);
    EXPECT_EQ(fast.cycles(category), reference.cycles(category))
        << "category " << c;
  }
}

/// An element whose sort key can tie while the payload is a function of the
/// key, so elements with equal keys are identical.
struct Tagged {
  std::uint32_t key = 0;
  std::uint32_t payload = 0;
  bool operator==(const Tagged&) const = default;
};

Tagged MakeTagged(std::uint32_t key) { return {key, key * 2654435761u}; }

bool TaggedLess(const Tagged& a, const Tagged& b) { return a.key < b.key; }

bool U64Less(std::uint64_t a, std::uint64_t b) { return a < b; }

class BitonicDifferential : public ::testing::TestWithParam<int> {};

TEST_P(BitonicDifferential, SortMatchesNetworkAtEveryPowerOfTwo) {
  const int lanes = GetParam();
  for (std::size_t size = 1; size <= 1024; size *= 2) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(::testing::Message() << "size " << size << " seed " << seed);
      Rng rng(seed * 131 + size);
      // Keys drawn from a range a quarter the length: many duplicates.
      std::vector<std::uint64_t> values(size);
      std::vector<Tagged> tagged(size);
      for (std::size_t i = 0; i < size; ++i) {
        values[i] = rng.NextBounded(size / 4 + 1);
        tagged[i] = MakeTagged(static_cast<std::uint32_t>(
            rng.NextBounded(size / 4 + 1)));
      }
      std::vector<std::uint64_t> values_ref = values;
      std::vector<Tagged> tagged_ref = tagged;

      CostModel fast_cost;
      CostModel ref_cost;
      Warp fast(lanes, &fast_cost);
      Warp ref(lanes, &ref_cost);
      BitonicSort(fast, std::span<std::uint64_t>(values), U64Less,
                  CostCategory::kDataStructure);
      reference::BitonicSort(ref, std::span<std::uint64_t>(values_ref),
                             U64Less, CostCategory::kDataStructure);
      BitonicSort(fast, std::span<Tagged>(tagged), TaggedLess,
                  CostCategory::kOther);
      reference::BitonicSort(ref, std::span<Tagged>(tagged_ref), TaggedLess,
                             CostCategory::kOther);
      EXPECT_EQ(values, values_ref);
      EXPECT_EQ(tagged, tagged_ref);
      ExpectSameCycles(fast_cost, ref_cost);
    }
  }
}

TEST_P(BitonicDifferential, MergeMatchesNetworkForUnequalAndEmptyInputs) {
  const int lanes = GetParam();
  struct Sizes {
    std::size_t a;
    std::size_t b;
  };
  const Sizes cases[] = {{0, 3},   {1, 0},    {4, 0},   {64, 0},  {1, 1},
                         {1, 5},   {5, 1},    {8, 8},   {16, 3},  {31, 64},
                         {32, 17}, {64, 64},  {64, 32}, {100, 37}, {128, 64},
                         {64, 128}, {256, 33}, {512, 64}};
  for (const Sizes& sizes : cases) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(::testing::Message() << "|a| " << sizes.a << " |b| "
                                        << sizes.b << " seed " << seed);
      Rng rng(seed * 977 + sizes.a * 31 + sizes.b);
      const std::size_t range = (sizes.a + sizes.b) / 3 + 1;
      constexpr std::uint64_t kSentinel = ~std::uint64_t{0};
      std::vector<std::uint64_t> a(sizes.a);
      std::vector<std::uint64_t> b(sizes.b);
      std::vector<Tagged> ta(sizes.a);
      std::vector<Tagged> tb(sizes.b);
      for (auto& v : a) v = rng.NextBounded(range);
      for (auto& v : b) v = rng.NextBounded(range);
      for (auto& v : ta) v = MakeTagged(static_cast<std::uint32_t>(rng.NextBounded(range)));
      for (auto& v : tb) v = MakeTagged(static_cast<std::uint32_t>(rng.NextBounded(range)));
      // A sentinel-padded tail in a, as the search kernel's N carries.
      for (std::size_t i = sizes.a - sizes.a / 4; i < sizes.a; ++i) {
        a[i] = kSentinel;
      }
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      std::sort(ta.begin(), ta.end(), TaggedLess);
      std::sort(tb.begin(), tb.end(), TaggedLess);
      std::vector<std::uint64_t> a_ref = a;
      std::vector<Tagged> ta_ref = ta;

      const std::size_t slots =
          2 * NextPow2(std::max(sizes.a, sizes.b));
      std::vector<std::uint64_t> scratch(slots);
      std::vector<Tagged> tscratch(slots);
      CostModel fast_cost;
      CostModel ref_cost;
      Warp fast(lanes, &fast_cost);
      Warp ref(lanes, &ref_cost);
      MergeSortedKeepFirst(fast, std::span<std::uint64_t>(a),
                           std::span<const std::uint64_t>(b),
                           std::span<std::uint64_t>(scratch), U64Less,
                           CostCategory::kDataStructure);
      reference::MergeSortedKeepFirst(
          ref, std::span<std::uint64_t>(a_ref),
          std::span<const std::uint64_t>(b), std::span<std::uint64_t>(scratch),
          kSentinel, U64Less, CostCategory::kDataStructure);
      MergeSortedKeepFirst(fast, std::span<Tagged>(ta),
                           std::span<const Tagged>(tb),
                           std::span<Tagged>(tscratch), TaggedLess,
                           CostCategory::kOther);
      reference::MergeSortedKeepFirst(
          ref, std::span<Tagged>(ta_ref), std::span<const Tagged>(tb),
          std::span<Tagged>(tscratch), Tagged{~0u, ~0u}, TaggedLess,
          CostCategory::kOther);
      EXPECT_EQ(a, a_ref);
      EXPECT_EQ(ta, ta_ref);
      ExpectSameCycles(fast_cost, ref_cost);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lanes, BitonicDifferential,
                         ::testing::Values(1, 4, 32));

TEST(WarpTest, ChargeDistancesEqualsRepeatedChargeDistance) {
  for (const int lanes : {1, 4, 32}) {
    for (const std::size_t dim : {1u, 32u, 100u, 128u, 200u, 960u}) {
      CostModel batched_cost;
      CostModel looped_cost;
      Warp batched(lanes, &batched_cost);
      Warp looped(lanes, &looped_cost);
      // A running total already present, as inside a search.
      batched.ChargeGlobalLoad(17, CostCategory::kDistance);
      looped.ChargeGlobalLoad(17, CostCategory::kDistance);
      for (const std::size_t count : {0u, 1u, 7u, 64u, 1000u}) {
        batched.ChargeDistances(count, dim);
        for (std::size_t i = 0; i < count; ++i) looped.ChargeDistance(dim);
        ExpectSameCycles(batched_cost, looped_cost);
      }
    }
  }
}

TEST(WarpTest, ChargeCodeDistancesEqualsRepeatedChargeCodeDistance) {
  for (const int lanes : {1, 4, 32}) {
    // SQ8 codes are dim bytes, PQ codes one byte per subspace.
    for (const std::size_t code_bytes : {1u, 3u, 16u, 128u, 200u, 960u}) {
      CostModel batched_cost;
      CostModel looped_cost;
      Warp batched(lanes, &batched_cost);
      Warp looped(lanes, &looped_cost);
      batched.ChargeGlobalLoad(17, CostCategory::kDistance);
      looped.ChargeGlobalLoad(17, CostCategory::kDistance);
      for (const std::size_t count : {0u, 1u, 7u, 64u, 1000u}) {
        batched.ChargeCodeDistances(count, code_bytes);
        for (std::size_t i = 0; i < count; ++i) {
          looped.ChargeCodeDistance(code_bytes);
        }
        ExpectSameCycles(batched_cost, looped_cost);
      }
    }
  }
}

}  // namespace
}  // namespace gpusim
}  // namespace ganns
