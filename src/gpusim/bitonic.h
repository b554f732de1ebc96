#ifndef GANNS_GPUSIM_BITONIC_H_
#define GANNS_GPUSIM_BITONIC_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <span>

#include "common/logging.h"
#include "gpusim/cost_model.h"
#include "gpusim/warp.h"

namespace ganns {
namespace gpusim {

/// Warp-parallel bitonic sorting networks (Batcher, 1968): the phase-(5)/(6)
/// primitives of the GANNS search kernel and the adjacency-list merge of
/// GGraphCon. The cost model is charged the GPU network — one lane-strided
/// pass over the compare-exchange pairs per stage, in stage order — while
/// the host computes the same result with the cheapest correct algorithm
/// (std::sort, a linear merge). The network sorts correctly under any
/// strict weak order, so the two agree on every input whose equal-key
/// elements are identical; tests/gpusim_test.cc checks outputs and charged
/// cycles against the executed networks of gpusim/bitonic_reference.h.

/// Smallest power of two >= n (n >= 1).
inline std::size_t NextPow2(std::size_t n) {
  return n <= 1 ? 1 : std::size_t{1} << std::bit_width(n - 1);
}

/// Cycles of one warp-wide compare-exchange step in shared memory: the
/// compare plus the load and store of the pair.
inline double CompareExchangeCycles(const CostParams& params) {
  return params.alu_step + 2 * params.shared_access;
}

/// Charges the bitonic sorting network over `len` slots (a power of two):
/// log2(L)*(log2(L)+1)/2 stages, each a lane-strided pass over L/2
/// compare-exchange pairs, to `category`. Sorts nothing.
inline void ChargeBitonicSort(Warp& warp, std::size_t len,
                              CostCategory category) {
  GANNS_CHECK_MSG((len & (len - 1)) == 0, "bitonic sort length " << len
                                          << " is not a power of two");
  const double stage = warp.StepsFor(len / 2) * CompareExchangeCycles(warp.params());
  for (std::size_t k = 2; k <= len; k <<= 1) {
    for (std::size_t j = k >> 1; j > 0; j >>= 1) {
      warp.cost().Charge(category, stage);
    }
  }
}

/// Sorts `data` (size must be a power of two) ascending under `less` and
/// charges the bitonic sorting network (ChargeBitonicSort).
template <typename T, typename Less>
void BitonicSort(Warp& warp, std::span<T> data, Less less,
                 CostCategory category) {
  ChargeBitonicSort(warp, data.size(), category);
  if (data.size() > 1) std::sort(data.begin(), data.end(), less);
}

/// Charges MergeSortedKeepFirst of an |a| = `a_size`, |b| = `b_size` pair:
/// the store into a 2 * NextPow2(max(|a|, |b|))-slot bitonic layout, the
/// log2-stage merge over it and the copy-back of |a| slots. Merges nothing.
inline void ChargeMergeSortedKeepFirst(Warp& warp, std::size_t a_size,
                                       std::size_t b_size,
                                       CostCategory category) {
  const std::size_t len = 2 * NextPow2(a_size > b_size ? a_size : b_size);
  const double shared_access = warp.params().shared_access;
  warp.cost().Charge(category, warp.StepsFor(len) * shared_access);
  const double stage = warp.StepsFor(len / 2) * CompareExchangeCycles(warp.params());
  for (std::size_t j = len >> 1; j > 0; j >>= 1) {
    warp.cost().Charge(category, stage);
  }
  warp.cost().Charge(category, warp.StepsFor(a_size) * shared_access);
}

/// Merges two ascending sequences `a` and `b` (each already sorted under
/// `less`) and writes the smallest a.size() elements back into `a` — the
/// candidate update of the GANNS kernel (phase 6) and the adjacency-list
/// merge of GGraphCon step 3. Charges the GPU version: the store of a and
/// reversed b into a 2 * NextPow2(max(|a|, |b|))-slot bitonic layout in
/// `scratch` (which must be that large), a log2-stage bitonic merge over it,
/// and the copy-back of a.size() slots.
template <typename T, typename Less>
void MergeSortedKeepFirst(Warp& warp, std::span<T> a, std::span<const T> b,
                          std::span<T> scratch, Less less,
                          CostCategory category) {
  GANNS_CHECK(scratch.size() >=
              2 * NextPow2(a.size() > b.size() ? a.size() : b.size()));
  ChargeMergeSortedKeepFirst(warp, a.size(), b.size(), category);
  if (!b.empty()) {
    std::size_t i = 0;
    std::size_t j = 0;
    for (std::size_t out = 0; out < a.size(); ++out) {
      scratch[out] = j < b.size() && less(b[j], a[i]) ? b[j++] : a[i++];
    }
    std::copy_n(scratch.begin(), a.size(), a.begin());
  }
}

}  // namespace gpusim
}  // namespace ganns

#endif  // GANNS_GPUSIM_BITONIC_H_
