#ifndef GANNS_CORE_GANNS_SEARCH_REFERENCE_H_
#define GANNS_CORE_GANNS_SEARCH_REFERENCE_H_

#include <span>
#include <vector>

#include "core/ganns_search.h"

namespace ganns {
namespace core {

/// The literal GANNS kernel, executed as the GPU runs it: every iteration
/// fills T, computes the distance of every neighbor, binary-searches N in
/// phase (4), and sorts and merges T into N.
///
/// core::GannsSearchOne computes each vertex's distance once per query on
/// the host and charges exactly what this kernel charges (DESIGN.md §4b).
/// This function is the oracle it is verified against
/// (tests/ganns_search_test.cc) and the baseline of bench/micro_structures.
/// The one production caller is GannsSearchOne itself when the lazy check is
/// disabled: there the network's tie order decides which duplicate copy is
/// explored, and only this kernel reproduces it.
namespace reference {

std::vector<graph::Neighbor> GannsSearchOne(
    gpusim::BlockContext& block, const graph::ProximityGraph& graph,
    const data::Dataset& base, std::span<const float> query,
    const GannsParams& params, VertexId entry,
    GannsSearchStats* stats = nullptr, GannsQueryProfile* profile = nullptr,
    const data::SearchQuantization* quant = nullptr,
    graph::QueryHardness* hardness = nullptr);

}  // namespace reference
}  // namespace core
}  // namespace ganns

#endif  // GANNS_CORE_GANNS_SEARCH_REFERENCE_H_
