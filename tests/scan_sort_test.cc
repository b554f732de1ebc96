// Property tests for the multi-block device algorithms: the work-efficient
// parallel prefix sum and the cross-block global bitonic sort, validated
// against the serial references, plus a differential test of the global
// sort's host fast path against the executed network.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/prefix_sum.h"
#include "common/random.h"
#include "gpusim/bitonic_reference.h"
#include "gpusim/device.h"
#include "gpusim/global_sort.h"
#include "gpusim/scan.h"
#include "obs/trace.h"

namespace ganns {
namespace gpusim {
namespace {

struct ScanCase {
  std::size_t size;
  std::uint64_t seed;
};

class GlobalScanProperty : public ::testing::TestWithParam<ScanCase> {};

TEST_P(GlobalScanProperty, MatchesSerialReference) {
  const auto [size, seed] = GetParam();
  Rng rng(seed);
  std::vector<std::uint32_t> in(size);
  for (auto& v : in) v = static_cast<std::uint32_t>(rng.NextBounded(5));

  std::vector<std::uint32_t> expected(size);
  const std::uint32_t expected_total =
      ExclusivePrefixSum(in, std::span<std::uint32_t>(expected));

  Device device;
  std::vector<std::uint32_t> out(size);
  const std::uint32_t total = GlobalExclusiveScan(
      device, in, std::span<std::uint32_t>(out), 32,
      CostCategory::kDataStructure);
  EXPECT_EQ(total, expected_total);
  EXPECT_EQ(out, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GlobalScanProperty,
    ::testing::Values(ScanCase{1, 1}, ScanCase{7, 2}, ScanCase{512, 3},
                      ScanCase{513, 4}, ScanCase{1000, 5},
                      ScanCase{4096, 6}, ScanCase{100000, 7},
                      ScanCase{1 << 18, 8}));

TEST(GlobalScanTest, EmptyInput) {
  Device device;
  std::vector<std::uint32_t> out;
  EXPECT_EQ(GlobalExclusiveScan(device, {}, std::span<std::uint32_t>(out), 32,
                                CostCategory::kOther),
            0u);
}

TEST(GlobalScanTest, InPlaceAliasing) {
  Device device;
  std::vector<std::uint32_t> data = {1, 2, 3, 4, 5};
  GlobalExclusiveScan(device, data, std::span<std::uint32_t>(data), 32,
                      CostCategory::kOther);
  EXPECT_EQ(data, (std::vector<std::uint32_t>{0, 1, 3, 6, 10}));
}

TEST(GlobalScanTest, ChargesDeviceTime) {
  Device device;
  device.ResetTimeline();
  std::vector<std::uint32_t> data(10000, 1);
  GlobalExclusiveScan(device, data, std::span<std::uint32_t>(data), 32,
                      CostCategory::kDataStructure);
  EXPECT_GT(device.timeline_work(CostCategory::kDataStructure), 0);
}

class GlobalSortProperty : public ::testing::TestWithParam<ScanCase> {};

TEST_P(GlobalSortProperty, MatchesStdSort) {
  const auto [size, seed] = GetParam();
  Rng rng(seed);
  std::vector<std::uint64_t> data(size);
  for (auto& v : data) v = rng.NextBounded(size / 2 + 2);  // duplicates

  std::vector<std::uint64_t> expected = data;
  std::sort(expected.begin(), expected.end());

  Device device;
  GlobalBitonicSort(device, std::span<std::uint64_t>(data),
                    [](std::uint64_t a, std::uint64_t b) { return a < b; },
                    32, CostCategory::kDataStructure);
  EXPECT_EQ(data, expected);
}

INSTANTIATE_TEST_SUITE_P(
    PowerOfTwoSizes, GlobalSortProperty,
    ::testing::Values(ScanCase{1, 11}, ScanCase{2, 12}, ScanCase{64, 13},
                      ScanCase{1024, 14},    // exactly one tile
                      ScanCase{2048, 15},    // two tiles: global stages kick in
                      ScanCase{8192, 16}, ScanCase{1 << 15, 17},
                      ScanCase{1 << 17, 18}));

TEST(GlobalSortDeathTest, NonPowerOfTwoIsFatal) {
  Device device;
  std::vector<int> data(100);
  EXPECT_DEATH(GlobalBitonicSort(device, std::span<int>(data),
                                 [](int a, int b) { return a < b; }, 32,
                                 CostCategory::kOther),
               "not a power of two");
}

TEST(GlobalSortTest, MoreBlocksReduceSimTimeOfLargeSorts) {
  // The cross-block sort parallelizes: a device with more concurrent slots
  // finishes the same network in less simulated time.
  std::vector<std::uint64_t> a(1 << 16);
  Rng rng(9);
  for (auto& v : a) v = rng.NextU64();
  std::vector<std::uint64_t> b = a;

  DeviceSpec narrow_spec;
  narrow_spec.concurrent_blocks = 2;
  Device narrow(narrow_spec);
  narrow.ResetTimeline();
  GlobalBitonicSort(narrow, std::span<std::uint64_t>(a),
                    [](std::uint64_t x, std::uint64_t y) { return x < y; },
                    32, CostCategory::kOther);

  Device wide;  // default: 1280 slots
  wide.ResetTimeline();
  GlobalBitonicSort(wide, std::span<std::uint64_t>(b),
                    [](std::uint64_t x, std::uint64_t y) { return x < y; },
                    32, CostCategory::kOther);

  EXPECT_EQ(a, b);
  EXPECT_GT(narrow.timeline_cycles(), 2 * wide.timeline_cycles());
}

/// An edge-like element sorted by `from` only, with the rest of the element
/// a function of `from`: equal keys are identical elements.
struct KeyedEdge {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  float dist = 0;
  bool operator==(const KeyedEdge&) const = default;
};

KeyedEdge MakeKeyedEdge(std::uint32_t from) {
  return {from, from ^ 0x5bd1e995u, static_cast<float>(from % 97) * 0.25f};
}

/// Everything a launch sequence leaves on the device: the sorted data, the
/// timeline in cycles and per category, the per-SM busy cycles, and the
/// recorded kernel and block spans.
struct SortRun {
  std::vector<KeyedEdge> data;
  double timeline_cycles = 0;
  std::vector<double> work;
  std::vector<double> sm_cycles;
  std::size_t launches = 0;
  std::string trace_json;
};

template <typename Sort>
SortRun RunTracedSort(std::vector<KeyedEdge> data, int block_lanes,
                      Sort sort) {
  obs::TraceRecorder::Global().Clear();
  Device device;
  device.ResetTimeline();
  sort(device, std::span<KeyedEdge>(data), block_lanes);
  SortRun run;
  run.data = std::move(data);
  run.timeline_cycles = device.timeline_cycles();
  for (int c = 0; c < kNumCostCategories; ++c) {
    run.work.push_back(device.timeline_work(static_cast<CostCategory>(c)));
  }
  run.sm_cycles.assign(device.sm_cycles().begin(), device.sm_cycles().end());
  for (const obs::TraceEvent& event : obs::TraceRecorder::Global().Snapshot()) {
    if (event.tid == obs::kKernelTrack) ++run.launches;
  }
  run.trace_json = obs::TraceRecorder::Global().ToJson();
  obs::TraceRecorder::Global().Clear();
  return run;
}

class GlobalSortDifferential : public ::testing::TestWithParam<int> {};

TEST_P(GlobalSortDifferential, MatchesExecutedNetworkAcrossTileBoundary) {
  const int block_lanes = GetParam();
  const bool was_tracing = obs::TracingEnabled();
  obs::SetTracingEnabled(true);
  const auto less = [](const KeyedEdge& a, const KeyedEdge& b) {
    return a.from < b.from;
  };
  // 2 .. 16384 crosses kSortTile = 1024: from 2048 on, global stages run.
  for (std::size_t len = 2; len <= 16384; len *= 2) {
    SCOPED_TRACE(::testing::Message() << "length " << len);
    Rng rng(len + static_cast<std::size_t>(block_lanes));
    std::vector<KeyedEdge> input(len);
    for (auto& e : input) {
      e = MakeKeyedEdge(static_cast<std::uint32_t>(rng.NextBounded(len / 3 + 1)));
    }
    const SortRun fast = RunTracedSort(
        input, block_lanes,
        [&](Device& device, std::span<KeyedEdge> data, int lanes) {
          GlobalBitonicSort(device, data, less, lanes,
                            CostCategory::kDataStructure);
        });
    const SortRun ref = RunTracedSort(
        input, block_lanes,
        [&](Device& device, std::span<KeyedEdge> data, int lanes) {
          reference::GlobalBitonicSort(device, data, less, lanes,
                                       CostCategory::kDataStructure);
        });
    EXPECT_EQ(fast.data, ref.data);
    EXPECT_EQ(fast.timeline_cycles, ref.timeline_cycles);
    EXPECT_EQ(fast.work, ref.work);
    EXPECT_EQ(fast.sm_cycles, ref.sm_cycles);
    if (obs::TracingCompiledIn()) {
      EXPECT_GT(fast.launches, 0u);
      EXPECT_EQ(fast.launches, ref.launches);
      EXPECT_EQ(fast.trace_json, ref.trace_json);
    }
  }
  obs::SetTracingEnabled(was_tracing);
}

INSTANTIATE_TEST_SUITE_P(BlockLanes, GlobalSortDifferential,
                         ::testing::Values(4, 32));

}  // namespace
}  // namespace gpusim
}  // namespace ganns
