#ifndef GANNS_GPUSIM_BITONIC_REFERENCE_H_
#define GANNS_GPUSIM_BITONIC_REFERENCE_H_

#include <cstddef>
#include <span>
#include <utility>

#include "common/logging.h"
#include "gpusim/bitonic.h"
#include "gpusim/cost_model.h"
#include "gpusim/device.h"
#include "gpusim/global_sort.h"
#include "gpusim/warp.h"

namespace ganns {
namespace gpusim {

/// The literal bitonic networks (Batcher, 1968), executed compare-exchange
/// for compare-exchange exactly as the GPU kernels run them, with the cost
/// model charged one lane-strided pass per stage.
///
/// The production primitives in bitonic.h / global_sort.h compute the same
/// result with host algorithms and only *charge* these networks. This header
/// is the oracle they are verified against (tests/gpusim_test.cc,
/// tests/scan_sort_test.cc) and the baseline of bench/micro_structures. The
/// one production caller is the GANNS search with the lazy check disabled:
/// there N and T can hold equal (dist, id) keys with different explored
/// flags, the network's tie order decides which copy the next iteration
/// explores, and only the literal network reproduces it.
namespace reference {

/// In-place bitonic sort of `data` (size must be a power of two) into
/// ascending order under `less`. Charges log2(L)*(log2(L)+1)/2 stages, each a
/// lane-strided pass over L/2 compare-exchange pairs, to `category`.
template <typename T, typename Less>
void BitonicSort(Warp& warp, std::span<T> data, Less less,
                 CostCategory category) {
  const std::size_t len = data.size();
  GANNS_CHECK_MSG((len & (len - 1)) == 0, "bitonic sort length " << len
                                          << " is not a power of two");
  if (len <= 1) return;
  const double per_pair = warp.params().alu_step + 2 * warp.params().shared_access;
  // Stage loop of the classic network: k = size of the bitonic subsequences
  // being produced, j = compare distance within the sub-stage.
  for (std::size_t k = 2; k <= len; k <<= 1) {
    for (std::size_t j = k >> 1; j > 0; j >>= 1) {
      for (std::size_t i = 0; i < len; ++i) {
        const std::size_t partner = i ^ j;
        if (partner <= i) continue;
        const bool ascending = (i & k) == 0;
        if (less(data[partner], data[i]) == ascending) {
          std::swap(data[i], data[partner]);
        }
      }
      warp.cost().Charge(category, warp.StepsFor(len / 2) * per_pair);
    }
  }
}

/// In-place bitonic *merge*: `data` must be a bitonic sequence (ascending
/// prefix followed by a descending suffix); sorts it ascending in log2(L)
/// stages.
template <typename T, typename Less>
void BitonicMerge(Warp& warp, std::span<T> data, Less less,
                  CostCategory category) {
  const std::size_t len = data.size();
  GANNS_CHECK_MSG((len & (len - 1)) == 0, "bitonic merge length " << len
                                          << " is not a power of two");
  if (len <= 1) return;
  const double per_pair = warp.params().alu_step + 2 * warp.params().shared_access;
  for (std::size_t j = len >> 1; j > 0; j >>= 1) {
    for (std::size_t i = 0; i < len; ++i) {
      const std::size_t partner = i ^ j;
      if (partner <= i) continue;
      if (less(data[partner], data[i])) {
        std::swap(data[i], data[partner]);
      }
    }
    warp.cost().Charge(category, warp.StepsFor(len / 2) * per_pair);
  }
}

/// Merges two ascending sequences `a` and `b` and writes the smallest
/// a.size() elements back into `a`, through the padded bitonic layout
/// [a ascending, pad][reverse(b), pad-at-front] of 2 * NextPow2(max(|a|,
/// |b|)) slots in `scratch`. Slack positions hold `sentinel`, which must
/// compare greater-or-equal to every real element.
template <typename T, typename Less>
void MergeSortedKeepFirst(Warp& warp, std::span<T> a, std::span<const T> b,
                          std::span<T> scratch, const T& sentinel, Less less,
                          CostCategory category) {
  const std::size_t half = NextPow2(a.size() > b.size() ? a.size() : b.size());
  const std::size_t len = 2 * half;
  GANNS_CHECK(scratch.size() >= len);
  std::span<T> buffer = scratch.subspan(0, len);
  for (std::size_t i = 0; i < half; ++i) {
    buffer[i] = i < a.size() ? a[i] : sentinel;
  }
  for (std::size_t i = 0; i < half; ++i) {
    const std::size_t src = half - 1 - i;  // reverse b into descending order
    buffer[half + i] = src < b.size() ? b[src] : sentinel;
  }
  warp.cost().Charge(category,
                     warp.StepsFor(len) * warp.params().shared_access);
  BitonicMerge(warp, buffer, less, category);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = buffer[i];
  warp.cost().Charge(category,
                     warp.StepsFor(a.size()) * warp.params().shared_access);
}

/// Multi-block bitonic sort over a global-memory array, executing every
/// compare-exchange inside the launches of gpusim::GlobalBitonicSort (same
/// kernel names, grids, lanes and charges).
template <typename T, typename Less>
void GlobalBitonicSort(Device& device, std::span<T> data, Less less,
                       int block_lanes, CostCategory category) {
  const std::size_t len = data.size();
  GANNS_CHECK_MSG((len & (len - 1)) == 0,
                  "global bitonic sort length " << len
                                                << " is not a power of two");
  if (len <= 1) return;
  const std::size_t tile = len < kSortTile ? len : kSortTile;
  const int grid = static_cast<int>(len / tile);
  const double per_global_pair =
      device.spec().cost.alu_step +
      4 * device.spec().cost.global_transaction / kWarpSize * 2;

  for (std::size_t k = 2; k <= len; k <<= 1) {
    std::size_t j = k >> 1;
    for (; j >= tile; j >>= 1) {
      device.Launch("gsort.global_stage", grid, block_lanes,
                    [&, j, k](BlockContext& block) {
        Warp& warp = block.warp();
        const std::size_t begin =
            static_cast<std::size_t>(block.block_id()) * tile;
        const std::size_t end = begin + tile;
        std::size_t pairs = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const std::size_t partner = i ^ j;
          if (partner <= i) continue;  // owned by the block of the low index
          ++pairs;
          const bool ascending = (i & k) == 0;
          if (less(data[partner], data[i]) == ascending) {
            std::swap(data[i], data[partner]);
          }
        }
        warp.cost().Charge(category, warp.StepsFor(pairs) * per_global_pair);
      });
    }
    if (j == 0) continue;
    const std::size_t j_start = j;
    device.Launch("gsort.local_stage", grid, block_lanes,
                  [&, j_start, k](BlockContext& block) {
      Warp& warp = block.warp();
      const std::size_t begin =
          static_cast<std::size_t>(block.block_id()) * tile;
      const std::size_t end = begin + tile;
      warp.ChargeGlobalLoad(2 * tile, category);  // tile load + store
      const double per_pair =
          warp.params().alu_step + 2 * warp.params().shared_access;
      for (std::size_t jj = j_start; jj > 0; jj >>= 1) {
        for (std::size_t i = begin; i < end; ++i) {
          const std::size_t partner = i ^ jj;
          if (partner <= i) continue;
          const bool ascending = (i & k) == 0;
          if (less(data[partner], data[i]) == ascending) {
            std::swap(data[i], data[partner]);
          }
        }
        warp.cost().Charge(category,
                           warp.StepsFor((end - begin) / 2) * per_pair);
      }
    });
  }
}

}  // namespace reference
}  // namespace gpusim
}  // namespace ganns

#endif  // GANNS_GPUSIM_BITONIC_REFERENCE_H_
