// Tests for the GANNS 6-phase search kernel: exactness on complete graphs,
// result invariants, parameter effects (l_n, e), the lazy-check behaviour,
// determinism, the cost-model properties the paper's analysis predicts, and
// the host fast path against the literal kernel.

#include <algorithm>
#include <array>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/ganns_search.h"
#include "core/ganns_search_reference.h"
#include "data/ground_truth.h"
#include "data/quantize.h"
#include "data/synthetic.h"
#include "graph/cpu_nsw.h"
#include "golden_digest.h"
#include "obs/trace.h"

namespace ganns {
namespace core {
namespace {

class GannsSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = std::make_unique<data::Dataset>(
        data::GenerateBase(data::PaperDataset("SIFT1M"), 800, 4));
    built_ = std::make_unique<graph::CpuBuildResult>(
        graph::BuildNswCpu(*base_, {}));
    queries_ = std::make_unique<data::Dataset>(data::GenerateQueries(
        data::PaperDataset("SIFT1M"), 40, 800, 4));
    truth_ = std::make_unique<data::GroundTruth>(
        data::BruteForceKnn(*base_, *queries_, 10));
  }

  gpusim::BlockContext MakeBlock() {
    return gpusim::BlockContext(0, 32, 48 * 1024, &device_.spec().cost);
  }

  gpusim::Device device_;
  std::unique_ptr<data::Dataset> base_;
  std::unique_ptr<graph::CpuBuildResult> built_;
  std::unique_ptr<data::Dataset> queries_;
  std::unique_ptr<data::GroundTruth> truth_;
};

TEST_F(GannsSearchTest, ExactOnStarGraph) {
  // Vertex 0 adjacent to all others: one exploration of the entry loads the
  // entire corpus into T across iterations of the merge, so with l_n >= n
  // the search is exhaustive and exact.
  const std::size_t n = 48;
  graph::ProximityGraph g(n, n - 1);
  data::Dataset small("small", base_->dim(), base_->metric());
  for (std::size_t i = 0; i < n; ++i) {
    small.Append(base_->Point(static_cast<VertexId>(i)));
  }
  for (std::size_t v = 1; v < n; ++v) {
    const Dist d = data::ExactDistance(small.metric(), small.Point(0),
                                       small.Point(static_cast<VertexId>(v)));
    g.InsertNeighbor(0, static_cast<VertexId>(v), d);
    g.InsertNeighbor(static_cast<VertexId>(v), 0, d);
  }

  const data::Dataset queries = data::GenerateQueries(
      data::PaperDataset("SIFT1M"), 1, n, 4);
  const data::GroundTruth truth = data::BruteForceKnn(small, queries, 5);

  GannsParams params;
  params.k = 5;
  params.l_n = 64;
  auto block = MakeBlock();
  const auto found =
      GannsSearchOne(block, g, small, queries.Point(0), params, 0);
  ASSERT_EQ(found.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(found[i].id, truth.neighbors[0][i]);
  }
}

TEST_F(GannsSearchTest, ResultsSortedUniqueAndWithinCorpus) {
  GannsParams params;
  params.k = 10;
  params.l_n = 64;
  const auto batch = GannsSearchBatch(device_, built_->graph, *base_,
                                      *queries_, params);
  for (const auto& row : batch.results) {
    EXPECT_LE(row.size(), 10u);
    std::set<VertexId> seen;
    for (VertexId id : row) {
      EXPECT_LT(id, base_->size());
      EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
    }
  }
}

TEST_F(GannsSearchTest, RecallMatchesCpuBeamSearch) {
  // The paper: "the ranges of recall achieved by GANNS and SONG are the
  // same" — the parallelization does not change result quality.
  GannsParams params;
  params.k = 10;
  params.l_n = 64;
  const auto batch = GannsSearchBatch(device_, built_->graph, *base_,
                                      *queries_, params);

  std::vector<std::vector<VertexId>> cpu_results(queries_->size());
  for (std::size_t q = 0; q < queries_->size(); ++q) {
    for (const auto& n : graph::BeamSearch(built_->graph, *base_,
                                           queries_->Point(q), 10, 64, 0)) {
      cpu_results[q].push_back(n.id);
    }
  }
  EXPECT_NEAR(data::MeanRecall(batch.results, *truth_, 10),
              data::MeanRecall(cpu_results, *truth_, 10), 0.05);
}

TEST_F(GannsSearchTest, LargerLnRaisesRecall) {
  GannsParams narrow;
  narrow.k = 10;
  narrow.l_n = 16;
  GannsParams wide;
  wide.k = 10;
  wide.l_n = 128;
  const auto batch_narrow =
      GannsSearchBatch(device_, built_->graph, *base_, *queries_, narrow);
  const auto batch_wide =
      GannsSearchBatch(device_, built_->graph, *base_, *queries_, wide);
  EXPECT_GE(data::MeanRecall(batch_wide.results, *truth_, 10),
            data::MeanRecall(batch_narrow.results, *truth_, 10));
  EXPECT_GT(batch_wide.sim_seconds, batch_narrow.sim_seconds);
}

TEST_F(GannsSearchTest, SmallerEIsFasterAtSomeRecallCost) {
  GannsParams full;
  full.k = 10;
  full.l_n = 64;
  full.e = 64;
  GannsParams pruned = full;
  pruned.e = 8;
  const auto batch_full =
      GannsSearchBatch(device_, built_->graph, *base_, *queries_, full);
  const auto batch_pruned =
      GannsSearchBatch(device_, built_->graph, *base_, *queries_, pruned);
  EXPECT_LT(batch_pruned.sim_seconds, batch_full.sim_seconds);
  EXPECT_GE(data::MeanRecall(batch_full.results, *truth_, 10),
            data::MeanRecall(batch_pruned.results, *truth_, 10) - 1e-9);
}

TEST_F(GannsSearchTest, LazyCheckDetectsRedundantComputation) {
  // NSW edges are bidirectional, so neighbors of the exploring vertex are
  // routinely already in N; the lazy check must catch some of them.
  GannsParams params;
  params.k = 10;
  params.l_n = 64;
  GannsSearchStats stats;
  auto block = MakeBlock();
  GannsSearchOne(block, built_->graph, *base_, queries_->Point(0), params, 0,
                 &stats);
  EXPECT_GT(stats.redundant_distances, 0u);
  EXPECT_GT(stats.distance_computations, stats.redundant_distances);
}

TEST_F(GannsSearchTest, DisablingLazyCheckHurtsResultQuality) {
  // Without phase (4), duplicate copies of already-seen vertices enter N,
  // crowding out genuine candidates and being re-explored — the
  // "propagation of redundant computation" §III-A warns about. The net
  // effect at a fixed budget is lower recall.
  GannsParams checked;
  checked.k = 10;
  checked.l_n = 64;
  GannsParams unchecked = checked;
  unchecked.disable_lazy_check = true;

  const auto batch_checked = GannsSearchBatch(device_, built_->graph, *base_,
                                              *queries_, checked);
  const auto batch_unchecked = GannsSearchBatch(device_, built_->graph,
                                                *base_, *queries_, unchecked);
  EXPECT_GT(data::MeanRecall(batch_checked.results, *truth_, 10),
            data::MeanRecall(batch_unchecked.results, *truth_, 10));
}

TEST_F(GannsSearchTest, DeterministicAcrossRuns) {
  GannsParams params;
  params.k = 10;
  params.l_n = 64;
  auto block_a = MakeBlock();
  auto block_b = MakeBlock();
  const auto a = GannsSearchOne(block_a, built_->graph, *base_,
                                queries_->Point(3), params, 0);
  const auto b = GannsSearchOne(block_b, built_->graph, *base_,
                                queries_->Point(3), params, 0);
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(block_a.cost().total_cycles(),
                   block_b.cost().total_cycles());
}

TEST_F(GannsSearchTest, DataStructureShareShrinksWithMoreLanes) {
  // §III-C: data-structure phases cost O(log l_n * (l_t + l_n) / n_t) — more
  // lanes means proportionally less time, unlike SONG's host thread.
  GannsParams params;
  params.k = 10;
  params.l_n = 64;
  const auto narrow = GannsSearchBatch(device_, built_->graph, *base_,
                                       *queries_, params, /*block_lanes=*/4);
  const auto wide = GannsSearchBatch(device_, built_->graph, *base_,
                                     *queries_, params, /*block_lanes=*/32);
  const auto ds = [](const graph::BatchSearchResult& b) {
    return b.kernel.work_cycles[static_cast<int>(
        gpusim::CostCategory::kDataStructure)];
  };
  EXPECT_GT(ds(narrow), 2 * ds(wide));
}

TEST_F(GannsSearchTest, EntryVertexIsHonored) {
  GannsParams params;
  params.k = 1;
  params.l_n = 32;
  // Searching for the entry point itself returns it at distance ~0.
  auto block = MakeBlock();
  const auto found = GannsSearchOne(block, built_->graph, *base_,
                                    base_->Point(123), params, 123);
  ASSERT_FALSE(found.empty());
  EXPECT_EQ(found[0].id, 123u);
  EXPECT_FLOAT_EQ(found[0].dist, 0.0f);
}

TEST_F(GannsSearchTest, RejectsInvalidParameters) {
  GannsParams params;
  params.k = 10;
  params.l_n = 48;  // not a power of two
  auto block = MakeBlock();
  EXPECT_DEATH(GannsSearchOne(block, built_->graph, *base_,
                              queries_->Point(0), params, 0),
               "power of two");
}

TEST(GannsParamsTest, ValidateNamesFieldValueAndRange) {
  GannsParams params;
  EXPECT_FALSE(params.Validate().has_value());  // defaults: k 10, l_n 64
  params.l_n = 100;
  EXPECT_EQ(params.Validate(),
            "invalid l_n = 100: must be a power of two >= k (k = 10)");
  params.l_n = 8;
  EXPECT_EQ(params.Validate(),
            "invalid l_n = 8: must be a power of two >= k (k = 10)");
  params.l_n = 16;
  EXPECT_FALSE(params.Validate().has_value());
  params.k = 0;
  EXPECT_EQ(params.Validate(), "invalid k = 0: must be >= 1");
}

// ---- Cross-commit golden: the kernel's exact outputs. ----
//
// Result ids and per-phase cycles of every query, for three budgets with the
// lazy check on and off, recorded from the implementation that executed the
// bitonic networks compare-exchange for compare-exchange. The host fast
// paths must reproduce them bit for bit, including the lazy-off ablation,
// whose tie order no other test pins.

struct KernelGolden {
  std::size_t l_n;
  bool lazy_check;
  std::uint64_t ids_digest;
  std::uint64_t phase_digest;
  double sim_cycles;
  std::array<double, kNumGannsPhases> phase_sums;
};

TEST_F(GannsSearchTest, KernelOutputsMatchRecordedGolden) {
  const KernelGolden kGolden[] = {
      {32, true, 0x7e39815cd97cc619ull, 0xb4ba1e4fe0cd8143ull, 0x1.711ap+15,
       {0x1.9p+10, 0x1.248p+13, 0x1.fe442p+19, 0x1.6dap+14, 0x1.c908p+16, 0x1.b6cp+15}},
      {32, false, 0x58b3eb2c0335c41eull, 0x4a05caf52e3d307dull, 0x1.2e8ap+15,
       {0x1.71cp+10, 0x1.0ddp+13, 0x1.f221ep+19, 0x0p+0, 0x1.a595p+16, 0x1.94b8p+15}},
      {64, true, 0x768a4651d665e846ull, 0xf0fb81d10c58b229ull, 0x1.65efp+16,
       {0x1.045p+12, 0x1.09c8p+14, 0x1.c8545p+20, 0x1.8eacp+15, 0x1.9f488p+17, 0x1.c60bp+17}},
      {64, false, 0x58b3eb2c0335c41eull, 0xf759c5305301c08aull, 0x1.3353p+16,
       {0x1.bbcp+11, 0x1.029p+14, 0x1.db721p+20, 0x0p+0, 0x1.9401p+17, 0x1.b9b6p+17}},
      {128, true, 0x0463e467539ce179ull, 0x9856b5fab9852859ull, 0x1.8f0f8p+17,
       {0x1.979p+13, 0x1.008p+15, 0x1.a9dd18p+21, 0x1.c0ep+16, 0x1.90c8p+18, 0x1.ebap+19}},
      {128, false, 0x58b3eb2c0335c41eull, 0x32cb7d036b7664a5ull, 0x1.600a8p+17,
       {0x1.56c8p+13, 0x1.fc38p+14, 0x1.d23ddp+21, 0x0p+0, 0x1.8d0bcp+18, 0x1.e70bp+19}},
  };
  for (const KernelGolden& golden : kGolden) {
    SCOPED_TRACE(::testing::Message() << "l_n " << golden.l_n << " lazy check "
                                      << golden.lazy_check);
    GannsParams params;
    params.k = 10;
    params.l_n = golden.l_n;
    params.disable_lazy_check = !golden.lazy_check;
    std::vector<GannsQueryProfile> profiles;
    const auto batch = GannsSearchBatch(device_, built_->graph, *base_,
                                        *queries_, params, 32, 0, &profiles);
    GoldenDigest ids;
    for (const auto& row : batch.results) {
      ids.Add(row.size());
      for (VertexId id : row) ids.Add(id);
    }
    GoldenDigest phases;
    std::array<double, kNumGannsPhases> sums{};
    for (const GannsQueryProfile& profile : profiles) {
      for (int i = 0; i < kNumGannsPhases; ++i) {
        phases.AddDouble(profile.phase_cycles[i]);
        sums[i] += profile.phase_cycles[i];
      }
    }
    EXPECT_EQ(ids.value(), golden.ids_digest);
    EXPECT_EQ(phases.value(), golden.phase_digest);
    EXPECT_EQ(batch.kernel.sim_cycles, golden.sim_cycles);
    for (int i = 0; i < kNumGannsPhases; ++i) {
      EXPECT_EQ(sums[i], golden.phase_sums[i]) << GannsPhaseName(i);
    }
  }
}

// ---- Differential: the host fast path against the literal kernel. ----
//
// GannsSearchOne computes each vertex's distance once per query; the literal
// kernel recomputes every neighbor and binary-searches N. With the lazy check
// on they must agree exactly: results, counters, profiles, hardness signals,
// per-category cycles and the trace. Queries run back to back on one thread,
// alternating the two kernels, over graphs of different sizes, so any state
// the per-thread vertex memo carried from one query or graph to the next
// would show.

using SearchOneFn = std::vector<graph::Neighbor> (*)(
    gpusim::BlockContext&, const graph::ProximityGraph&, const data::Dataset&,
    std::span<const float>, const GannsParams&, VertexId, GannsSearchStats*,
    GannsQueryProfile*, const data::SearchQuantization*,
    graph::QueryHardness*);

struct DiffCase {
  std::string name;
  const graph::ProximityGraph* graph;
  const data::Dataset* base;
  const data::Dataset* queries;
  const data::SearchQuantization* quant = nullptr;
};

struct QueryRecord {
  std::vector<graph::Neighbor> found;
  GannsSearchStats stats;
  GannsQueryProfile profile;
  graph::QueryHardness hardness;
  std::array<double, gpusim::kNumCostCategories> cycles{};
};

QueryRecord RunQuery(SearchOneFn search, const DiffCase& c,
                     const GannsParams& params, VertexId entry,
                     std::size_t q) {
  static const gpusim::CostParams kCost;
  gpusim::BlockContext block(0, 32, 48 * 1024, &kCost);
  QueryRecord r;
  r.found = search(block, *c.graph, *c.base,
                   c.queries->Point(static_cast<VertexId>(q)), params, entry,
                   &r.stats, &r.profile, c.quant, &r.hardness);
  for (int i = 0; i < gpusim::kNumCostCategories; ++i) {
    r.cycles[i] = block.cost().cycles(static_cast<gpusim::CostCategory>(i));
  }
  return r;
}

void ExpectSameQuery(const QueryRecord& fast, const QueryRecord& ref) {
  EXPECT_EQ(fast.found, ref.found);
  EXPECT_EQ(fast.stats.iterations, ref.stats.iterations);
  EXPECT_EQ(fast.stats.distance_computations, ref.stats.distance_computations);
  EXPECT_EQ(fast.stats.redundant_distances, ref.stats.redundant_distances);
  EXPECT_EQ(fast.profile.hops, ref.profile.hops);
  EXPECT_EQ(fast.profile.distance_computations,
            ref.profile.distance_computations);
  EXPECT_EQ(fast.profile.redundant_distances, ref.profile.redundant_distances);
  EXPECT_EQ(fast.profile.result_occupancy, ref.profile.result_occupancy);
  EXPECT_EQ(fast.profile.total_cycles, ref.profile.total_cycles);
  EXPECT_EQ(fast.profile.phase_cycles, ref.profile.phase_cycles);
  EXPECT_EQ(fast.hardness.entry_distance, ref.hardness.entry_distance);
  EXPECT_EQ(fast.hardness.early_fanout, ref.hardness.early_fanout);
  EXPECT_EQ(fast.hardness.visited, ref.hardness.visited);
  EXPECT_EQ(fast.hardness.budget, ref.hardness.budget);
  EXPECT_EQ(fast.cycles, ref.cycles);
}

/// One traced launch of `search` over every query; returns the trace JSON
/// and the kernel's simulated cycles.
std::pair<std::string, double> TracedLaunch(SearchOneFn search,
                                            const DiffCase& c,
                                            const GannsParams& params,
                                            VertexId entry) {
  obs::TraceRecorder::Global().Clear();
  gpusim::Device device;  // fresh timeline: cycle stamps start at zero
  const gpusim::KernelStats kernel = device.Launch(
      "ganns_search", static_cast<int>(c.queries->size()), 32,
      [&](gpusim::BlockContext& block) {
        search(block, *c.graph, *c.base,
               c.queries->Point(static_cast<VertexId>(block.block_id())),
               params, entry, nullptr, nullptr, c.quant, nullptr);
      });
  return {obs::TraceRecorder::Global().ToJson(), kernel.sim_cycles};
}

/// Restores the process-wide tracing switch and empties the recorder.
class ScopedTracing {
 public:
  ScopedTracing() : was_(obs::TracingEnabled()) {
    obs::SetTracingEnabled(true);
  }
  ~ScopedTracing() {
    obs::SetTracingEnabled(was_);
    obs::TraceRecorder::Global().Clear();
  }

 private:
  bool was_;
};

/// `graph` with the rows of every `stride`-th vertex extended by repeated
/// ids: copies of the row's first two neighbors at a slightly larger edge
/// length (SetNeighbors only asks for (dist, id) order).
graph::ProximityGraph WithRepeatedIds(graph::ProximityGraph graph,
                                      std::size_t stride) {
  for (std::size_t v = 0; v < graph.num_vertices(); v += stride) {
    const VertexId id = static_cast<VertexId>(v);
    const std::size_t degree = graph.Degree(id);
    std::vector<graph::ProximityGraph::Edge> edges;
    for (std::size_t i = 0; i < degree; ++i) {
      edges.push_back({graph.Neighbors(id)[i], graph.NeighborDists(id)[i]});
    }
    for (std::size_t i = 0; i < std::min<std::size_t>(2, degree); ++i) {
      edges.push_back({edges[i].id, edges[i].dist + 1e-3f});
    }
    std::sort(edges.begin(), edges.end(), [](const auto& a, const auto& b) {
      return a.dist != b.dist ? a.dist < b.dist : a.id < b.id;
    });
    edges.resize(std::min(edges.size(), graph.d_max()));
    graph.SetNeighbors(id, edges);
  }
  return graph;
}

TEST_F(GannsSearchTest, FastPathMatchesLiteralKernel) {
  const auto& sift = data::PaperDataset("SIFT1M");
  const auto& glove = data::PaperDataset("GloVe200");

  // Graphs of different sizes and degree bounds (d_max 20 and 24 are not
  // powers of two, so T carries sentinel padding).
  const data::Dataset small_base = data::GenerateBase(sift, 300, 11);
  const data::Dataset small_queries = data::GenerateQueries(sift, 8, 300, 11);
  const graph::ProximityGraph small_graph =
      graph::BuildNswCpu(small_base, {10, 20, 32}).graph;
  const data::Dataset large_base = data::GenerateBase(sift, 1500, 12);
  const data::Dataset large_queries =
      data::GenerateQueries(sift, 8, 1500, 12);
  const graph::ProximityGraph large_graph =
      graph::BuildNswCpu(large_base, {12, 24, 32}).graph;
  const data::Dataset cos_base = data::GenerateBase(glove, 600, 13);
  const data::Dataset cos_queries = data::GenerateQueries(glove, 8, 600, 13);
  const graph::ProximityGraph cos_graph =
      graph::BuildNswCpu(cos_base, {12, 24, 32}).graph;
  ASSERT_EQ(cos_base.metric(), data::Metric::kCosine);

  // Mutated copies of the fixture graph: tombstoned vertices (traversed,
  // never returned), degree-0 rows, and rows that repeat an id.
  graph::ProximityGraph tombstoned = built_->graph;
  for (VertexId v = 5; v < tombstoned.num_vertices(); v += 7) {
    tombstoned.Tombstone(v);
  }
  graph::ProximityGraph sparse = built_->graph;
  for (VertexId v = 3; v < sparse.num_vertices(); v += 5) {
    sparse.ClearVertex(v);
  }
  const graph::ProximityGraph repeated = WithRepeatedIds(built_->graph, 3);

  // Compressed in-loop distances, L2 and cosine.
  data::QuantizerOptions sq8_options;
  sq8_options.precision = data::Precision::kSq8;
  data::QuantizerOptions pq_options;
  pq_options.precision = data::Precision::kPq;
  pq_options.pq_subspaces = 16;
  const data::Quantizer sq8 = data::Quantizer::Train(*base_, sq8_options);
  const data::QuantizedCodes sq8_codes =
      data::QuantizedCodes::EncodeAll(sq8, *base_);
  const data::Quantizer pq = data::Quantizer::Train(*base_, pq_options);
  const data::QuantizedCodes pq_codes =
      data::QuantizedCodes::EncodeAll(pq, *base_);
  const data::Quantizer cos_sq8 = data::Quantizer::Train(cos_base, sq8_options);
  const data::QuantizedCodes cos_sq8_codes =
      data::QuantizedCodes::EncodeAll(cos_sq8, cos_base);
  const data::SearchQuantization sq8_quant{&sq8, &sq8_codes, 4};
  const data::SearchQuantization pq_quant{&pq, &pq_codes, 4};
  const data::SearchQuantization cos_sq8_quant{&cos_sq8, &cos_sq8_codes, 4};

  const DiffCase cases[] = {
      {"nsw800", &built_->graph, base_.get(), queries_.get()},
      {"nsw300_dmax20", &small_graph, &small_base, &small_queries},
      {"nsw1500_dmax24", &large_graph, &large_base, &large_queries},
      {"cosine600", &cos_graph, &cos_base, &cos_queries},
      {"tombstoned", &tombstoned, base_.get(), queries_.get()},
      {"degree0_rows", &sparse, base_.get(), queries_.get()},
      {"repeated_ids", &repeated, base_.get(), queries_.get()},
      {"sq8", &built_->graph, base_.get(), queries_.get(), &sq8_quant},
      {"pq", &built_->graph, base_.get(), queries_.get(), &pq_quant},
      {"cosine_sq8", &cos_graph, &cos_base, &cos_queries, &cos_sq8_quant},
  };
  std::optional<ScopedTracing> tracing;
  if (obs::TracingCompiledIn()) tracing.emplace();
  for (const DiffCase& c : cases) {
    const VertexId entries[] = {
        0, static_cast<VertexId>(c.graph->num_vertices() / 3)};
    for (std::size_t l_n = 16; l_n <= 512; l_n *= 2) {
      for (const VertexId entry : entries) {
        for (const std::size_t e : {std::size_t{0}, l_n / 4}) {
          SCOPED_TRACE(::testing::Message() << c.name << " l_n " << l_n
                                            << " entry " << entry << " e "
                                            << e);
          GannsParams params;
          params.k = 10;
          params.l_n = l_n;
          params.e = e;
          for (std::size_t q = 0; q < c.queries->size() && q < 8; ++q) {
            const QueryRecord fast =
                RunQuery(&GannsSearchOne, c, params, entry, q);
            const QueryRecord ref =
                RunQuery(&reference::GannsSearchOne, c, params, entry, q);
            ExpectSameQuery(fast, ref);
            if (HasFailure()) return;  // one diverging query says enough
          }
          if (tracing.has_value() && e == 0 && entry == 0) {
            const auto fast = TracedLaunch(&GannsSearchOne, c, params, entry);
            const auto ref =
                TracedLaunch(&reference::GannsSearchOne, c, params, entry);
            EXPECT_EQ(fast.second, ref.second);
            // Not EXPECT_EQ: a mismatch would print megabytes of JSON.
            EXPECT_TRUE(fast.first == ref.first) << "trace JSON differs";
            if (HasFailure()) return;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace ganns
