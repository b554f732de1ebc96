#include "core/knn_graph.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/scratch.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/edge_update.h"
#include "data/distance.h"
#include "data/ground_truth.h"
#include "graph/beam_search.h"

namespace ganns {
namespace core {

KnnBuildResult BuildKnnGraph(gpusim::Device& device,
                             const data::Dataset& base,
                             const KnnGraphParams& params) {
  const std::size_t n = base.size();
  GANNS_CHECK(n >= 2);
  GANNS_CHECK(params.k >= 1 && params.k < n);
  WallTimer timer;
  device.ResetTimeline();

  graph::ProximityGraph result_graph(n, params.k);

  // Initialization kernel: every vertex picks k distinct random neighbors
  // and bulk-computes their distances. Sampling is a deterministic function
  // of (seed, vertex id) so the build replays exactly.
  device.Launch(
      "knn.random_init", static_cast<int>(n), params.block_lanes,
      [&](gpusim::BlockContext& block) {
        gpusim::Warp& warp = block.warp();
        const VertexId v = static_cast<VertexId>(block.block_id());
        Rng rng(params.seed ^ (0x9e3779b97f4a7c15ULL * (v + 1)));
        std::vector<graph::Neighbor> neighbors;
        neighbors.reserve(params.k);
        while (neighbors.size() < params.k) {
          const VertexId u =
              static_cast<VertexId>(rng.NextBounded(n - 1));
          const VertexId target = u >= v ? u + 1 : u;  // skip self
          bool duplicate = false;
          for (const graph::Neighbor& existing : neighbors) {
            if (existing.id == target) {
              duplicate = true;
              break;
            }
          }
          if (duplicate) continue;
          neighbors.push_back(
              {data::ExactDistance(base.metric(), base.Point(target),
                                   base.Point(v)),
               target});
        }
        warp.ChargeDistances(neighbors.size(), base.dim());
        std::sort(neighbors.begin(), neighbors.end());
        std::vector<graph::ProximityGraph::Edge> row;
        row.reserve(params.k);
        for (const graph::Neighbor& nb : neighbors) row.push_back({nb.id, nb.dist});
        warp.ChargeGlobalLoad(2 * row.size(),
                              gpusim::CostCategory::kDataStructure);
        result_graph.SetNeighbors(v, row);
      });

  // Refinement: neighbor-of-neighbor joins. Each vertex proposes edges
  // between the first `sample` entries of its adjacency row (its current
  // nearest neighbors); proposals flow through the gather-scatter + merge
  // pipeline of Algorithm 2 step 3.
  const std::size_t sample = std::min(params.sample, params.k);
  const std::size_t pairs_per_vertex = sample * (sample - 1) / 2;
  KnnBuildResult result{std::move(result_graph), 0, 0, 0};

  for (std::size_t iter = 0; iter < params.max_iterations; ++iter) {
    std::vector<BackwardEdge> proposals(n * pairs_per_vertex * 2);
    device.Launch(
        "knn.join_proposals", static_cast<int>(n), params.block_lanes,
        [&](gpusim::BlockContext& block) {
          gpusim::Warp& warp = block.warp();
          const VertexId v = static_cast<VertexId>(block.block_id());
          const auto ids = result.graph.Neighbors(v);
          const std::size_t degree =
              std::min(sample, result.graph.Degree(v));
          warp.ChargeGlobalLoad(degree, gpusim::CostCategory::kDataStructure);
          warp.ChargeDistances(degree > 1 ? degree * (degree - 1) / 2 : 0,
                               base.dim());
          std::size_t slot = std::size_t{v} * pairs_per_vertex * 2;
          for (std::size_t a = 0; a < degree; ++a) {
            for (std::size_t b = a + 1; b < degree; ++b) {
              const VertexId u1 = ids[a];
              const VertexId u2 = ids[b];
              const Dist dist = data::ExactDistance(
                  base.metric(), base.Point(u1), base.Point(u2));
              proposals[slot++] = BackwardEdge{u1, u2, dist};
              proposals[slot++] = BackwardEdge{u2, u1, dist};
            }
          }
        });

    GatheredEdges gathered = GatherScatter(device, std::move(proposals), params.block_lanes);
    const std::size_t changed =
        ApplyBackwardEdges(device, gathered, result.graph, params.block_lanes);
    ++result.iterations;
    if (static_cast<double>(changed) <
        params.termination_delta * static_cast<double>(n)) {
      break;
    }
  }

  result.sim_seconds = device.timeline_seconds();
  result.wall_seconds = timer.Seconds();
  return result;
}

double KnnGraphRecall(const graph::ProximityGraph& graph,
                      const data::Dataset& base, std::size_t k) {
  GANNS_CHECK(k >= 1 && k <= graph.d_max());
  const std::size_t n = base.size();
  std::vector<double> hits(n, 0);
  ThreadPool::Global().ParallelFor(n, [&](std::size_t i) {
    const VertexId v = static_cast<VertexId>(i);
    // Exact k nearest neighbors of v (excluding v itself). The whole corpus
    // streams through the batched SIMD kernel; the candidate list is
    // recycled across vertices on this worker thread.
    SearchScratch& scratch = ThreadLocalSearchScratch();
    scratch.dists.resize(n);
    data::DistanceRange(base, 0, n, base.Point(v), scratch.dists);
    thread_local std::vector<graph::Neighbor> all;
    all.clear();
    all.reserve(n - 1);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      all.push_back({scratch.dists[j], static_cast<VertexId>(j)});
    }
    std::nth_element(all.begin(), all.begin() + k - 1, all.end());
    all.resize(k);
    std::sort(all.begin(), all.end());

    const auto ids = graph.Neighbors(v);
    const std::size_t degree = std::min(k, graph.Degree(v));
    std::size_t row_hits = 0;
    for (std::size_t s = 0; s < degree; ++s) {
      for (const graph::Neighbor& truth : all) {
        if (truth.id == ids[s]) {
          ++row_hits;
          break;
        }
      }
    }
    hits[i] = static_cast<double>(row_hits) / static_cast<double>(k);
  });
  double total = 0;
  for (double h : hits) total += h;
  return total / static_cast<double>(n);
}

}  // namespace core
}  // namespace ganns
