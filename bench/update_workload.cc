// update_workload — mixed read/write benchmark of the mutable index
// lifecycle, in three phases per shard count (1, 2):
//
//  * baseline: search the pristine index (recall + simulated QPS — the
//    read-path reference point);
//  * mixed: apply an alternating insert/remove workload (10% of the corpus
//    each) through the online write paths, then search the mutated graph.
//    Reports update throughput on both clocks — simulated updates/s charges
//    the insert search + link work to the shard's update device; wall
//    updates/s is host timing — plus the post-workload recall against a
//    brute-force oracle over the *surviving* points;
//  * post_compact: force a synchronous compaction of every shard (rebuild
//    over the survivors) and search again. Compaction must not cost recall:
//    the gate compares this phase's recall against the same survivor oracle;
//  * concurrent: the serving engine drains a closed-loop query load while
//    this thread applies a second insert/remove wave through the write
//    paths — the mixed read/write operating point. Reader latency and
//    writer throughput here depend on the host schedule, so only the
//    served count (deterministic: no deadlines, every request completes)
//    is gated; the wall numbers are informational.
//
// Auto-compaction is disabled so the phase boundaries — and therefore every
// simulated-clock number — are deterministic: recall, sim_qps, and sim_ups
// reproduce bit-for-bit across runs at a fixed seed. Wall updates/s and
// wall QPS vary with the machine and stay informational in bench_diff.
// Writes the table as JSON (argv[1], default BENCH_update.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <future>

#include "bench/bench_common.h"
#include "obs/window.h"
#include "serve/serve_engine.h"

namespace {

using namespace ganns;

constexpr std::size_t kK = 10;
// Total visited budget per query, split evenly over shards (see
// serve_throughput.cc for the operating-point rationale).
constexpr std::size_t kBudget = 512;

struct SearchResult {
  double recall = 0;
  double sim_qps = 0;
};

/// One closed-loop batch over every query, scored against `truth` after
/// translating global ids through `gid_to_row` (identity when empty).
SearchResult RunSearch(serve::ShardedIndex& index,
                       const bench::Workload& workload,
                       const data::GroundTruth& truth,
                       const std::map<VertexId, VertexId>& gid_to_row) {
  const std::size_t num_queries = workload.queries.size();
  std::vector<serve::RoutedQuery> routed(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    routed[q].query = workload.queries.Point(static_cast<VertexId>(q));
    routed[q].k = kK;
    routed[q].budget = kBudget;
  }
  serve::RouteStats stats;
  const auto rows = index.SearchBatch(routed, core::SearchKernel::kGanns,
                                      &stats);
  std::vector<std::vector<VertexId>> ids(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    for (const auto& neighbor : rows[q]) {
      if (gid_to_row.empty()) {
        ids[q].push_back(neighbor.id);
        continue;
      }
      const auto it = gid_to_row.find(neighbor.id);
      ids[q].push_back(it != gid_to_row.end()
                           ? it->second
                           : static_cast<VertexId>(gid_to_row.size()));
    }
  }
  SearchResult result;
  result.recall = data::MeanRecall(ids, truth, kK);
  result.sim_qps = stats.sim_seconds > 0
                       ? static_cast<double>(num_queries) / stats.sim_seconds
                       : 0.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchConfig config = bench::BenchConfig::FromEnv();
  bench::PrintHeader("update_workload", config);
  const bench::Workload workload = bench::MakeWorkload("SIFT1M", config, kK);
  const std::size_t n = workload.base.size();
  const std::size_t num_updates = std::max<std::size_t>(n / 10, 50);
  std::printf("corpus %zu x %zud, %zu queries, k=%zu, budget=%zu, "
              "%zu inserts + %zu removes\n",
              n, workload.base.dim(), workload.queries.size(), kK, kBudget,
              num_updates, num_updates);

  // The insert pool, drawn from the same distribution as the corpus.
  const data::Dataset pool = data::GenerateBase(
      workload.spec, num_updates, config.seed + 17);

  std::string json =
      "{\n  \"provenance\": " + bench::ProvenanceJson() +
      ",\n  \"results\": [\n";
  bool first = true;
  for (const std::size_t shards : {1u, 2u}) {
    serve::ShardBuildOptions build_options;
    build_options.update.auto_compact = false;  // deterministic phases
    serve::ShardedIndex index =
        serve::ShardedIndex::Build(workload.base, shards, build_options);

    const SearchResult baseline =
        RunSearch(index, workload, workload.truth, {});
    std::printf("shards=%zu baseline: recall@%zu=%.4f sim_qps=%.0f\n", shards,
                kK, baseline.recall, baseline.sim_qps);

    // Alternating remove/insert workload; victims walk the live set with a
    // fixed stride so deletions spread over shards and hit fresh inserts.
    std::map<VertexId, std::vector<float>> live;
    for (VertexId v = 0; v < n; ++v) {
      const auto point = workload.base.Point(v);
      live.emplace(v, std::vector<float>(point.begin(), point.end()));
    }
    std::size_t applied = 0;
    const auto wall_start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < 2 * num_updates; ++i) {
      if (i % 2 == 0) {
        auto victim = live.begin();
        std::advance(victim, (i * 131) % live.size());
        if (!index.Remove(victim->first)) {
          std::fprintf(stderr, "remove of live id %u failed\n",
                       victim->first);
          return 1;
        }
        live.erase(victim);
        ++applied;
      } else {
        const auto point = pool.Point(static_cast<VertexId>(i / 2));
        const auto gid = index.Insert(point);
        if (gid.has_value()) {
          live.emplace(*gid, std::vector<float>(point.begin(), point.end()));
          ++applied;
        }
      }
    }
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    const double sim_seconds = index.update_sim_seconds();

    // Survivor oracle shared by the mixed and post-compaction phases.
    data::Dataset survivors("survivors", workload.base.dim(),
                            workload.base.metric());
    survivors.Reserve(live.size());
    std::map<VertexId, VertexId> gid_to_row;
    for (const auto& [gid, point] : live) {
      gid_to_row.emplace(gid, static_cast<VertexId>(survivors.size()));
      survivors.Append(point);
    }
    const data::GroundTruth survivor_truth =
        data::BruteForceKnn(survivors, workload.queries, kK);

    double max_tombstones = 0;
    for (std::size_t s = 0; s < index.num_shards(); ++s) {
      max_tombstones = std::max(max_tombstones, index.TombstoneFraction(s));
    }
    const SearchResult mixed =
        RunSearch(index, workload, survivor_truth, gid_to_row);
    const double sim_ups =
        sim_seconds > 0 ? static_cast<double>(applied) / sim_seconds : 0.0;
    const double wall_ups =
        wall_seconds > 0 ? static_cast<double>(applied) / wall_seconds : 0.0;
    std::printf("shards=%zu mixed: recall@%zu=%.4f sim_qps=%.0f "
                "sim_ups=%.0f wall_ups=%.0f tombstones=%.3f\n",
                shards, kK, mixed.recall, mixed.sim_qps, sim_ups, wall_ups,
                max_tombstones);

    for (std::size_t s = 0; s < index.num_shards(); ++s) index.Compact(s);
    const SearchResult compacted =
        RunSearch(index, workload, survivor_truth, gid_to_row);
    std::printf("shards=%zu post_compact: recall@%zu=%.4f sim_qps=%.0f "
                "compactions=%llu\n",
                shards, kK, compacted.recall, compacted.sim_qps,
                static_cast<unsigned long long>(index.compactions()));

    // Concurrent phase: serve a closed-loop query load while this thread
    // pushes a second update wave through the write paths. The snapshot
    // design promises writers never block the batch loop; this phase is
    // where that promise meets a realistic schedule.
    const data::Dataset pool2 = data::GenerateBase(
        workload.spec, num_updates, config.seed + 31);
    const std::size_t num_queries = workload.queries.size();
    serve::ServeEngine engine(index, serve::ServeOptions{});
    engine.Start();
    const auto mixed_start = std::chrono::steady_clock::now();
    std::vector<std::future<serve::QueryResponse>> futures;
    futures.reserve(num_queries);
    for (std::size_t q = 0; q < num_queries; ++q) {
      serve::QueryRequest request;
      request.id = q;
      const auto point = workload.queries.Point(static_cast<VertexId>(q));
      request.query.assign(point.begin(), point.end());
      request.k = kK;
      request.budget = kBudget;
      futures.push_back(engine.Submit(std::move(request)));
    }
    std::size_t concurrent_applied = 0;
    for (std::size_t i = 0; i < 2 * num_updates; ++i) {
      if (i % 2 == 0) {
        auto victim = live.begin();
        std::advance(victim, (i * 131) % live.size());
        if (index.Remove(victim->first)) ++concurrent_applied;
        live.erase(victim);
      } else if (index.Insert(pool2.Point(static_cast<VertexId>(i / 2)))
                     .has_value()) {
        ++concurrent_applied;
      }
    }
    const double write_wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      mixed_start)
            .count();
    std::uint64_t served = 0;
    for (auto& future : futures) {
      if (future.get().status == serve::StatusCode::kOk) ++served;
    }
    const double mixed_wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      mixed_start)
            .count();
    engine.Shutdown();
    const double concurrent_wall_qps =
        mixed_wall_seconds > 0
            ? static_cast<double>(served) / mixed_wall_seconds
            : 0.0;
    const double concurrent_wall_ups =
        write_wall_seconds > 0
            ? static_cast<double>(concurrent_applied) / write_wall_seconds
            : 0.0;
    std::printf("shards=%zu concurrent: served=%llu wall_qps=%.0f "
                "wall_ups=%.0f\n",
                shards, static_cast<unsigned long long>(served),
                concurrent_wall_qps, concurrent_wall_ups);

    char buffer[512];
    std::snprintf(buffer, sizeof(buffer),
                  "%s    {\"shards\": %zu,\n"
                  "     \"baseline\": {\"recall\": %.4f, \"sim_qps\": %.0f},\n",
                  first ? "" : ",\n", shards, baseline.recall,
                  baseline.sim_qps);
    json += buffer;
    std::snprintf(buffer, sizeof(buffer),
                  "     \"mixed\": {\"recall\": %.4f, \"sim_qps\": %.0f, "
                  "\"applied\": %zu, \"sim_ups\": %.0f, \"wall_ups\": %.0f, "
                  "\"tombstone_fraction\": %.4f},\n",
                  mixed.recall, mixed.sim_qps, applied, sim_ups, wall_ups,
                  max_tombstones);
    json += buffer;
    std::snprintf(buffer, sizeof(buffer),
                  "     \"post_compact\": {\"recall\": %.4f, "
                  "\"sim_qps\": %.0f, \"compactions\": %llu},\n",
                  compacted.recall, compacted.sim_qps,
                  static_cast<unsigned long long>(index.compactions()));
    json += buffer;
    std::snprintf(buffer, sizeof(buffer),
                  "     \"concurrent\": {\"served\": %llu, "
                  "\"wall_qps\": %.0f, \"wall_ups\": %.0f}}",
                  static_cast<unsigned long long>(served),
                  concurrent_wall_qps, concurrent_wall_ups);
    json += buffer;
    first = false;
  }
  json += "\n  ]\n}\n";

  const std::string out = argc > 1 ? argv[1] : "BENCH_update.json";
  if (!obs::WriteTextFile(out, json)) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
