// Tests for the GPU construction algorithms: GGraphCon (Algorithm 2),
// GSerial, GNaiveParallel — quality parity with the CPU builder, the quality
// theorem of §IV-C, degree bounds, determinism, and cost ordering.

#include <gtest/gtest.h>

#include "core/ganns_search.h"
#include "core/ggraphcon.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "graph/cpu_nsw.h"
#include "golden_digest.h"

namespace ganns {
namespace core {
namespace {

double GraphRecall(gpusim::Device& device, const graph::ProximityGraph& graph,
                   const data::Dataset& base, const data::Dataset& queries,
                   const data::GroundTruth& truth, std::size_t k) {
  GannsParams params;
  params.k = k;
  params.l_n = 64;
  const auto batch =
      GannsSearchBatch(device, graph, base, queries, params);
  return data::MeanRecall(batch.results, truth, k);
}

class ConstructionTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 1500;
  static constexpr std::size_t kK = 10;

  void SetUp() override {
    base_ = std::make_unique<data::Dataset>(
        data::GenerateBase(data::PaperDataset("SIFT1M"), kN, 3));
    queries_ = std::make_unique<data::Dataset>(
        data::GenerateQueries(data::PaperDataset("SIFT1M"), 40, kN, 3));
    truth_ = std::make_unique<data::GroundTruth>(
        data::BruteForceKnn(*base_, *queries_, kK));
  }

  gpusim::Device device_;
  std::unique_ptr<data::Dataset> base_;
  std::unique_ptr<data::Dataset> queries_;
  std::unique_ptr<data::GroundTruth> truth_;
};

TEST_F(ConstructionTest, GGraphConQualityMatchesCpuBuilder) {
  GpuBuildParams params;
  params.num_groups = 10;
  const GpuBuildResult gpu = BuildNswGGraphCon(device_, *base_, params);
  const graph::CpuBuildResult cpu = graph::BuildNswCpu(*base_, params.nsw);

  const double gpu_recall =
      GraphRecall(device_, gpu.graph, *base_, *queries_, *truth_, kK);
  const double cpu_recall =
      GraphRecall(device_, cpu.graph, *base_, *queries_, *truth_, kK);
  // Figure 12's claim: GGraphCon's graphs are as good as the serial CPU
  // builder's. In this reproduction they are often slightly *better*: the
  // per-group local searches are near-exact on small local graphs, and the
  // merge phase re-searches every point against G_0 and keeps the best of
  // both candidate sets. Assert the direction, not equality.
  EXPECT_GE(gpu_recall, cpu_recall - 0.03);
  EXPECT_GE(gpu_recall, 0.85);
  EXPECT_GE(cpu_recall, 0.85);
}

TEST_F(ConstructionTest, GGraphConRespectsDegreeBounds) {
  GpuBuildParams params;
  params.num_groups = 10;
  const GpuBuildResult gpu = BuildNswGGraphCon(device_, *base_, params);
  std::size_t max_degree = 0;
  for (std::size_t v = 0; v < kN; ++v) {
    max_degree = std::max(max_degree, gpu.graph.Degree(static_cast<VertexId>(v)));
    EXPECT_LE(gpu.graph.Degree(static_cast<VertexId>(v)), params.nsw.d_max);
  }
  EXPECT_GT(max_degree, params.nsw.d_min);  // backward edges do land
  // Every vertex but group seeds has forward links.
  std::size_t isolated = 0;
  for (std::size_t v = 0; v < kN; ++v) {
    if (gpu.graph.Degree(static_cast<VertexId>(v)) == 0) ++isolated;
  }
  EXPECT_EQ(isolated, 0u);
}

TEST_F(ConstructionTest, GroupCountDoesNotDegradeQuality) {
  GpuBuildParams few;
  few.num_groups = 4;
  GpuBuildParams many;
  many.num_groups = 30;
  const GpuBuildResult graph_few = BuildNswGGraphCon(device_, *base_, few);
  const GpuBuildResult graph_many = BuildNswGGraphCon(device_, *base_, many);
  const double recall_few =
      GraphRecall(device_, graph_few.graph, *base_, *queries_, *truth_, kK);
  const double recall_many =
      GraphRecall(device_, graph_many.graph, *base_, *queries_, *truth_, kK);
  EXPECT_NEAR(recall_few, recall_many, 0.05);
}

TEST_F(ConstructionTest, GNaiveParallelQualityIsWorse) {
  GpuBuildParams params;
  params.num_groups = 10;
  const GpuBuildResult ggc = BuildNswGGraphCon(device_, *base_, params);
  const GpuBuildResult naive = BuildNswGNaiveParallel(device_, *base_, params);
  const double ggc_recall =
      GraphRecall(device_, ggc.graph, *base_, *queries_, *truth_, kK);
  const double naive_recall =
      GraphRecall(device_, naive.graph, *base_, *queries_, *truth_, kK);
  // Figure 12: the naive scheme's graphs are measurably worse.
  EXPECT_LT(naive_recall, ggc_recall - 0.02);
}

TEST_F(ConstructionTest, GSerialMatchesQualityButIsFarSlower) {
  GpuBuildParams params;
  params.num_groups = 10;
  // GSerial on a smaller corpus (it is deliberately slow).
  data::Dataset small("small", base_->dim(), base_->metric());
  for (std::size_t i = 0; i < 400; ++i) {
    small.Append(base_->Point(static_cast<VertexId>(i)));
  }
  const GpuBuildResult serial = BuildNswGSerial(device_, small, params);
  gpusim::Device device2;
  GpuBuildParams params_small = params;
  params_small.num_groups = 5;
  const GpuBuildResult ggc = BuildNswGGraphCon(device2, small, params_small);
  // Same quality class (both sequential-equivalent constructions)...
  const data::Dataset queries_small = data::GenerateQueries(
      data::PaperDataset("SIFT1M"), 30, 400, 3);
  const data::GroundTruth truth_small =
      data::BruteForceKnn(small, queries_small, kK);
  const double serial_recall = GraphRecall(device_, serial.graph, small,
                                           queries_small, truth_small, kK);
  const double ggc_recall = GraphRecall(device_, ggc.graph, small,
                                        queries_small, truth_small, kK);
  EXPECT_NEAR(serial_recall, ggc_recall, 0.06);
  // ...but GSerial pays for the lost parallelism and per-point launches.
  EXPECT_GT(serial.sim_seconds, 5 * ggc.sim_seconds);
}

TEST_F(ConstructionTest, GGraphConIsDeterministic) {
  GpuBuildParams params;
  params.num_groups = 8;
  const GpuBuildResult a = BuildNswGGraphCon(device_, *base_, params);
  gpusim::Device device2;
  const GpuBuildResult b = BuildNswGGraphCon(device2, *base_, params);
  ASSERT_EQ(a.graph.NumEdges(), b.graph.NumEdges());
  for (std::size_t v = 0; v < kN; ++v) {
    const auto ids_a = a.graph.Neighbors(static_cast<VertexId>(v));
    const auto ids_b = b.graph.Neighbors(static_cast<VertexId>(v));
    for (std::size_t s = 0; s < a.graph.d_max(); ++s) {
      ASSERT_EQ(ids_a[s], ids_b[s]) << "vertex " << v << " slot " << s;
    }
  }
  EXPECT_DOUBLE_EQ(a.sim_seconds, b.sim_seconds);
}

TEST_F(ConstructionTest, SongKernelVariantAlsoBuildsGoodGraphs) {
  GpuBuildParams params;
  params.num_groups = 10;
  params.kernel = SearchKernel::kSong;
  const GpuBuildResult gpu = BuildNswGGraphCon(device_, *base_, params);
  EXPECT_GE(GraphRecall(device_, gpu.graph, *base_, *queries_, *truth_, kK),
            0.85);
}

TEST_F(ConstructionTest, GannsKernelBuildsFasterThanSongKernel) {
  GpuBuildParams params;
  params.num_groups = 10;
  const GpuBuildResult with_ganns = BuildNswGGraphCon(device_, *base_, params);
  params.kernel = SearchKernel::kSong;
  gpusim::Device device2;
  const GpuBuildResult with_song = BuildNswGGraphCon(device2, *base_, params);
  // Figure 11: GGraphCon_GANNS beats GGraphCon_SONG given the same scheme.
  EXPECT_LT(with_ganns.sim_seconds, with_song.sim_seconds);
}

// §IV-C quality theorem: with (near-)exact construction searches, the
// divide-and-conquer builder reproduces the sequential insertion graph
// exactly. Near-exactness comes from an exhaustive search budget on a small
// corpus.
TEST_F(ConstructionTest, QualityTheoremExactEquivalenceOnSmallCorpus) {
  const std::size_t n = 160;
  data::Dataset small("small", base_->dim(), base_->metric());
  for (std::size_t i = 0; i < n; ++i) {
    small.Append(base_->Point(static_cast<VertexId>(i)));
  }

  graph::NswParams nsw;
  nsw.d_min = 4;
  nsw.d_max = 12;
  nsw.ef_construction = 256;  // exhaustive on 160 points

  GpuBuildParams params;
  params.nsw = nsw;
  params.num_groups = 4;
  const GpuBuildResult gpu = BuildNswGGraphCon(device_, small, params);
  const graph::CpuBuildResult cpu = graph::BuildNswCpu(small, nsw);

  std::size_t mismatched_rows = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const auto gpu_ids = gpu.graph.Neighbors(static_cast<VertexId>(v));
    const auto cpu_ids = cpu.graph.Neighbors(static_cast<VertexId>(v));
    for (std::size_t s = 0; s < nsw.d_max; ++s) {
      if (gpu_ids[s] != cpu_ids[s]) {
        ++mismatched_rows;
        break;
      }
    }
  }
  // Allow a tiny tolerance: beam search exactness on a small NSW graph can
  // fail for a handful of points whose greedy path dead-ends.
  EXPECT_LE(mismatched_rows, n / 20);
}

// Cross-commit golden for GGraphCon with both embedded search kernels:
// simulated seconds, data-structure work cycles and every adjacency row
// (ids and edge lengths), recorded from the implementation that executed
// the bitonic networks. The host fast paths must reproduce them exactly.
TEST_F(ConstructionTest, GGraphConMatchesRecordedGolden) {
  struct BuildGolden {
    SearchKernel kernel;
    double sim_seconds;
    double ds_work_cycles;
    std::uint64_t rows_digest;
  };
  const BuildGolden kGolden[] = {
      {SearchKernel::kGanns, 0x1.1ce09c9e97ec5p-8, 0x1.ae162p+23, 0x4efa8610ff5eee99ull},
      {SearchKernel::kSong, 0x1.2d607c52c80a3p-7, 0x1.3128b1cp+27, 0x4efa8610ff5eee99ull},
  };
  for (const BuildGolden& golden : kGolden) {
    SCOPED_TRACE(::testing::Message()
                 << "kernel " << static_cast<int>(golden.kernel));
    GpuBuildParams params;
    params.num_groups = 10;
    params.kernel = golden.kernel;
    gpusim::Device device;
    const GpuBuildResult built = BuildNswGGraphCon(device, *base_, params);
    GoldenDigest rows;
    for (VertexId v = 0; v < built.graph.num_vertices(); ++v) {
      const std::size_t degree = built.graph.Degree(v);
      rows.Add(degree);
      for (std::size_t i = 0; i < degree; ++i) {
        rows.Add(built.graph.Neighbors(v)[i]);
        rows.AddFloat(built.graph.NeighborDists(v)[i]);
      }
    }
    EXPECT_EQ(built.sim_seconds, golden.sim_seconds);
    EXPECT_EQ(built.ds_work_cycles, golden.ds_work_cycles);
    EXPECT_EQ(rows.value(), golden.rows_digest);
  }
}

}  // namespace
}  // namespace core
}  // namespace ganns
