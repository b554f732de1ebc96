#ifndef GANNS_GPUSIM_GLOBAL_SORT_H_
#define GANNS_GPUSIM_GLOBAL_SORT_H_

#include <algorithm>
#include <cstddef>
#include <span>

#include "common/logging.h"
#include "gpusim/bitonic.h"
#include "gpusim/device.h"

namespace ganns {
namespace gpusim {

/// Elements per block tile of the global bitonic sort. Sub-stages whose
/// compare distance fits inside a tile are fused into one shared-memory
/// kernel (the standard CUDA bitonic structure); larger distances run as
/// global-memory stages, one kernel each.
inline constexpr std::size_t kSortTile = 1024;

/// Multi-block bitonic sort over a global-memory array — the cross-block
/// edge-list sort of Algorithm 2 step 2 ("we employ bitonic sorting to
/// organize edges in E").
///
/// `data.size()` must be a power of two (pad with a sentinel that sorts
/// last). The host sorts `data` once with std::sort; the device is charged
/// the GPU network through the same launches the network runs in. Each
/// k-phase launches its j >= tile sub-stages as one global-memory kernel per
/// j (pairs partition the index space, so blocks write disjoint locations),
/// then fuses all j < tile sub-stages into a single shared-memory kernel per
/// tile. The launch bodies only charge, so launch overhead, the timeline, SM
/// assignment and trace spans are those of the executed network
/// (reference::GlobalBitonicSort in bitonic_reference.h, checked in
/// tests/scan_sort_test.cc). With a strict weak order whose ties are broken
/// to a total order, the output equals the network's.
template <typename T, typename Less>
void GlobalBitonicSort(Device& device, std::span<T> data, Less less,
                       int block_lanes, CostCategory category) {
  const std::size_t len = data.size();
  GANNS_CHECK_MSG((len & (len - 1)) == 0,
                  "global bitonic sort length " << len
                                                << " is not a power of two");
  if (len <= 1) return;
  std::sort(data.begin(), data.end(), less);

  const std::size_t tile = len < kSortTile ? len : kSortTile;
  const int grid = static_cast<int>(len / tile);
  // Two loads + two conditional stores per pair, coalesced across the warp,
  // plus the compare.
  const CostParams& cost = device.spec().cost;
  const double per_global_pair =
      cost.alu_step + 4 * cost.global_transaction / kWarpSize * 2;

  for (std::size_t k = 2; k <= len; k <<= 1) {
    std::size_t j = k >> 1;
    // Global sub-stages: compare distance spans tiles.
    for (; j >= tile; j >>= 1) {
      device.Launch("gsort.global_stage", grid, block_lanes,
                    [&, j](BlockContext& block) {
        // A pair (i, i ^ j) is owned by the block of its low index. The
        // block is tile-aligned and j >= tile, so bit j is the same for
        // every index of the block: it owns all of its pairs or none.
        const std::size_t begin =
            static_cast<std::size_t>(block.block_id()) * tile;
        const std::size_t pairs = (begin & j) == 0 ? tile : 0;
        Warp& warp = block.warp();
        warp.cost().Charge(category, warp.StepsFor(pairs) * per_global_pair);
      });
    }
    if (j == 0) continue;
    // Fused local sub-stages: load tile to shared memory once, run every
    // remaining j, store back.
    const std::size_t j_start = j;
    device.Launch("gsort.local_stage", grid, block_lanes,
                  [&, j_start](BlockContext& block) {
      Warp& warp = block.warp();
      warp.ChargeGlobalLoad(2 * tile, category);  // tile load + store
      const double stage =
          warp.StepsFor(tile / 2) * CompareExchangeCycles(warp.params());
      for (std::size_t jj = j_start; jj > 0; jj >>= 1) {
        warp.cost().Charge(category, stage);
      }
    });
  }
}

}  // namespace gpusim
}  // namespace ganns

#endif  // GANNS_GPUSIM_GLOBAL_SORT_H_
