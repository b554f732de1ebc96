// Google-benchmark microbenchmarks for the per-iteration primitives whose
// relative host-time costs underlie the cost model: the serial heap/hash
// operations SONG's host lane executes vs. the data-parallel bitonic
// networks GANNS uses (host fast paths beside the executed reference
// networks they replace), the raw distance kernel, and one whole GANNS query
// (host fast path beside the literal kernel). These measure *host*
// nanoseconds (not simulated cycles): they document that the structures
// behave as designed, independent of the cost model.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/random.h"
#include "core/ganns_search.h"
#include "core/ganns_search_reference.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "gpusim/bitonic.h"
#include "gpusim/bitonic_reference.h"
#include "gpusim/warp.h"
#include "graph/cpu_nsw.h"
#include "song/bounded_max_heap.h"
#include "song/minmax_heap.h"
#include "song/open_hash.h"

namespace ganns {
namespace {

void BM_MinMaxHeapInsertPop(benchmark::State& state) {
  const std::size_t capacity = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    song::MinMaxHeap heap(capacity);
    for (std::size_t i = 0; i < 2 * capacity; ++i) {
      heap.InsertBounded({static_cast<Dist>(rng.NextBounded(1000)),
                          static_cast<VertexId>(i)});
    }
    while (!heap.empty()) heap.PopMin();
    benchmark::DoNotOptimize(heap.ops());
  }
  state.SetItemsProcessed(state.iterations() * 3 * state.range(0));
}
BENCHMARK(BM_MinMaxHeapInsertPop)->Arg(16)->Arg(64)->Arg(256);

void BM_BoundedMaxHeapInsert(benchmark::State& state) {
  const std::size_t capacity = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  for (auto _ : state) {
    song::BoundedMaxHeap heap(capacity);
    for (std::size_t i = 0; i < 4 * capacity; ++i) {
      heap.InsertBounded({static_cast<Dist>(rng.NextBounded(1000)),
                          static_cast<VertexId>(i)});
    }
    benchmark::DoNotOptimize(heap.ops());
  }
  state.SetItemsProcessed(state.iterations() * 4 * state.range(0));
}
BENCHMARK(BM_BoundedMaxHeapInsert)->Arg(16)->Arg(64)->Arg(256);

void BM_OpenHashInsertContains(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    song::OpenHashSet set(64);
    for (int i = 0; i < 1024; ++i) {
      set.Insert(static_cast<VertexId>(rng.NextBounded(4096)));
    }
    for (int i = 0; i < 1024; ++i) {
      benchmark::DoNotOptimize(
          set.Contains(static_cast<VertexId>(rng.NextBounded(4096))));
    }
  }
  state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_OpenHashInsertContains);

bool U32Less(std::uint32_t a, std::uint32_t b) { return a < b; }

/// Sorts fresh random data of state.range(0) elements per iteration with
/// `sort(warp, data)`.
template <typename Sort>
void RunBitonicSort(benchmark::State& state, Sort sort) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  std::vector<std::uint32_t> data(n);
  gpusim::CostModel cost;
  gpusim::Warp warp(32, &cost);
  for (auto _ : state) {
    for (auto& v : data) v = static_cast<std::uint32_t>(rng.NextU64());
    sort(warp, std::span<std::uint32_t>(data));
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

// Host sort that charges the network (the production primitive).
void BM_BitonicSort(benchmark::State& state) {
  RunBitonicSort(state, [](gpusim::Warp& warp, std::span<std::uint32_t> data) {
    gpusim::BitonicSort(warp, data, U32Less,
                        gpusim::CostCategory::kDataStructure);
  });
}
BENCHMARK(BM_BitonicSort)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// The executed compare-exchange network it replaces.
void BM_BitonicSortReference(benchmark::State& state) {
  RunBitonicSort(state, [](gpusim::Warp& warp, std::span<std::uint32_t> data) {
    gpusim::reference::BitonicSort(warp, data, U32Less,
                                   gpusim::CostCategory::kDataStructure);
  });
}
BENCHMARK(BM_BitonicSortReference)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

/// Merges a sorted random b of state.range(0) elements into an a of the same
/// length per iteration with `merge(warp, a, b, scratch)`.
template <typename Merge>
void RunMergeKeepFirst(benchmark::State& state, Merge merge) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<std::uint32_t> a(n);
  std::vector<std::uint32_t> b(n);
  std::vector<std::uint32_t> scratch(2 * gpusim::NextPow2(n));
  gpusim::CostModel cost;
  gpusim::Warp warp(32, &cost);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<std::uint32_t>(i * 2);
      b[i] = static_cast<std::uint32_t>(rng.NextBounded(2 * n));
    }
    std::sort(b.begin(), b.end());
    merge(warp, std::span<std::uint32_t>(a), std::span<const std::uint32_t>(b),
          std::span<std::uint32_t>(scratch));
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}

void BM_BitonicMergeKeepFirst(benchmark::State& state) {
  RunMergeKeepFirst(state, [](gpusim::Warp& warp, std::span<std::uint32_t> a,
                              std::span<const std::uint32_t> b,
                              std::span<std::uint32_t> scratch) {
    gpusim::MergeSortedKeepFirst(warp, a, b, scratch, U32Less,
                                 gpusim::CostCategory::kDataStructure);
  });
}
BENCHMARK(BM_BitonicMergeKeepFirst)->Arg(32)->Arg(64)->Arg(128);

void BM_MergeKeepFirstReference(benchmark::State& state) {
  RunMergeKeepFirst(state, [](gpusim::Warp& warp, std::span<std::uint32_t> a,
                              std::span<const std::uint32_t> b,
                              std::span<std::uint32_t> scratch) {
    gpusim::reference::MergeSortedKeepFirst(
        warp, a, b, scratch, ~std::uint32_t{0}, U32Less,
        gpusim::CostCategory::kDataStructure);
  });
}
BENCHMARK(BM_MergeKeepFirstReference)->Arg(32)->Arg(64)->Arg(128);

void BM_ExactDistance(benchmark::State& state) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  std::vector<float> a(dim);
  std::vector<float> b(dim);
  for (auto& v : a) v = rng.NextUniform(-1, 1);
  for (auto& v : b) v = rng.NextUniform(-1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        data::ExactDistance(data::Metric::kL2, a, b));
  }
  state.SetItemsProcessed(state.iterations() * dim);
}
BENCHMARK(BM_ExactDistance)->Arg(32)->Arg(128)->Arg(960);

/// One fixed NSW graph (2000 SIFT-shaped points, d_max 32) and 64 queries,
/// built on first use.
struct SearchFixture {
  data::Dataset base =
      data::GenerateBase(data::PaperDataset("SIFT1M"), 2000, 7);
  data::Dataset queries =
      data::GenerateQueries(data::PaperDataset("SIFT1M"), 64, 2000, 7);
  graph::ProximityGraph graph = graph::BuildNswCpu(base, {}).graph;

  static const SearchFixture& Get() {
    static const SearchFixture fixture;
    return fixture;
  }
};

/// One GANNS query per iteration (cycling through the queries) at
/// l_n = state.range(0) with `search`.
template <typename Search>
void RunGannsSearch(benchmark::State& state, Search search) {
  const SearchFixture& fixture = SearchFixture::Get();
  core::GannsParams params;
  params.l_n = static_cast<std::size_t>(state.range(0));
  const gpusim::CostParams cost;
  std::size_t q = 0;
  for (auto _ : state) {
    gpusim::BlockContext block(0, 32, 48 * 1024, &cost);
    benchmark::DoNotOptimize(
        search(block, fixture.graph, fixture.base,
               fixture.queries.Point(static_cast<VertexId>(q)), params,
               VertexId{0}, nullptr, nullptr, nullptr, nullptr));
    q = (q + 1) % fixture.queries.size();
  }
  state.SetItemsProcessed(state.iterations());
}

// The production kernel: each vertex's distance computed once per query.
void BM_GannsSearchOne(benchmark::State& state) {
  RunGannsSearch(state, core::GannsSearchOne);
}
BENCHMARK(BM_GannsSearchOne)->Arg(32)->Arg(128)->Arg(512);

// The literal kernel it is verified against.
void BM_GannsSearchOneReference(benchmark::State& state) {
  RunGannsSearch(state, core::reference::GannsSearchOne);
}
BENCHMARK(BM_GannsSearchOneReference)->Arg(32)->Arg(128)->Arg(512);

}  // namespace
}  // namespace ganns

BENCHMARK_MAIN();
