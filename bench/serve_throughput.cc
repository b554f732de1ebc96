// serve_throughput — load generator for the online serving engine.
//
// For each shard count (1, 2, 4) over one synthetic SIFT-shaped corpus:
//
//  * closed loop: every query is submitted at once and the engine drains
//    them through the micro-batcher at full batch size — the max-throughput
//    operating point;
//  * open loop: Poisson arrivals at 70% of the measured closed-loop wall
//    throughput (or GANNS_SERVE_QPS if set) — the latency-under-load
//    operating point, where queue wait is visible in the percentiles.
//
// Reports per configuration: recall@k, simulated QPS (shards are parallel
// simulated devices; a batch costs its slowest shard — this is the headline
// scaling number, per the two-clock rule), wall QPS (reference only; on a
// small host the shards time-slice one core), and p50/p95/p99 wall latency.
// Writes the table as JSON (argv[1], default BENCH_serve.json).
//
// Results are deterministic: which neighbors every request receives depends
// only on (corpus, shard graphs, query, k, budget); recall and sim_qps
// reproduce bit-for-bit across runs. Wall QPS and latency percentiles are
// host timing and vary with the machine.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/random.h"
#include "obs/window.h"
#include "serve/serve_engine.h"

namespace {

using namespace ganns;

constexpr std::size_t kK = 10;
// Total visited budget, split evenly over shards (each gets budget/n).
// 512 on a 100k corpus is the operating point where sharding leaves recall
// unchanged: each shard's beam still covers the same fraction of its
// (smaller) partition as the single-shard beam covers of the whole corpus,
// and independent per-shard exploration recovers what the split costs.
constexpr std::size_t kBudget = 512;

struct LoopResult {
  double recall = 0;
  double sim_qps = 0;
  double wall_qps = 0;
  double p50_us = 0, p95_us = 0, p99_us = 0;
  std::uint64_t served = 0, rejected = 0, expired = 0;
};

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

serve::QueryRequest MakeRequest(const data::Dataset& queries, std::size_t q) {
  serve::QueryRequest request;
  request.id = q;
  const auto point = queries.Point(static_cast<VertexId>(q));
  request.query.assign(point.begin(), point.end());
  request.k = kK;
  request.budget = kBudget;
  return request;
}

/// Runs one load pattern to completion and folds the responses into a
/// LoopResult. `inter_arrival_us(q)` returns the wall gap to wait before
/// submitting query q (0 everywhere = closed loop).
template <typename GapFn>
LoopResult RunLoop(serve::ShardedIndex& index, const bench::Workload& workload,
                   const serve::ServeOptions& options, GapFn inter_arrival_us) {
  serve::ServeEngine engine(index, options);
  engine.Start();

  const std::size_t num_queries = workload.queries.size();
  std::vector<std::future<serve::QueryResponse>> futures;
  futures.reserve(num_queries);
  const auto start = serve::ServeClock::now();
  for (std::size_t q = 0; q < num_queries; ++q) {
    const double gap_us = inter_arrival_us(q);
    if (gap_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<std::int64_t>(gap_us)));
    }
    futures.push_back(engine.Submit(MakeRequest(workload.queries, q)));
  }

  LoopResult result;
  std::vector<std::vector<VertexId>> ids(num_queries);
  std::vector<double> latencies;
  latencies.reserve(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    serve::QueryResponse response = futures[q].get();
    if (response.status != serve::StatusCode::kOk) continue;
    latencies.push_back(response.latency_us);
    for (const auto& neighbor : response.neighbors) {
      ids[response.id].push_back(neighbor.id);
    }
  }
  const double wall_seconds =
      std::chrono::duration<double>(serve::ServeClock::now() - start).count();
  engine.Shutdown();

  const serve::ServeCounters counters = engine.counters();
  result.served = counters.served;
  result.rejected = counters.rejected;
  result.expired = counters.expired;
  result.recall = data::MeanRecall(ids, workload.truth, kK);
  const double sim_seconds = engine.total_sim_seconds();
  result.sim_qps = sim_seconds > 0
                       ? static_cast<double>(counters.served) / sim_seconds
                       : 0.0;
  result.wall_qps = wall_seconds > 0
                        ? static_cast<double>(counters.served) / wall_seconds
                        : 0.0;
  std::sort(latencies.begin(), latencies.end());
  result.p50_us = Percentile(latencies, 0.50);
  result.p95_us = Percentile(latencies, 0.95);
  result.p99_us = Percentile(latencies, 0.99);
  return result;
}

std::string LoopJson(const LoopResult& r) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "{\"recall\": %.4f, \"sim_qps\": %.0f, \"wall_qps\": %.0f, "
                "\"served\": %llu, \"rejected\": %llu, \"expired\": %llu, "
                "\"latency_us\": {\"p50\": %.1f, \"p95\": %.1f, "
                "\"p99\": %.1f}}",
                r.recall, r.sim_qps, r.wall_qps,
                static_cast<unsigned long long>(r.served),
                static_cast<unsigned long long>(r.rejected),
                static_cast<unsigned long long>(r.expired), r.p50_us,
                r.p95_us, r.p99_us);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchConfig config = bench::BenchConfig::FromEnv();
  bench::PrintHeader("serve_throughput", config);
  const bench::Workload workload = bench::MakeWorkload("SIFT1M", config, kK);
  std::printf("corpus %zu x %zud, %zu queries, k=%zu, budget=%zu\n",
              workload.base.size(), workload.base.dim(),
              workload.queries.size(), kK, kBudget);

  const char* offered = std::getenv("GANNS_SERVE_QPS");
  const double offered_qps = offered != nullptr ? std::atof(offered) : 0.0;

  std::string json =
      "{\n  \"provenance\": " + bench::ProvenanceJson() + ",\n  \"results\": [\n";
  bool first = true;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    serve::ShardBuildOptions build_options;
    serve::ShardedIndex index =
        serve::ShardedIndex::Build(workload.base, shards, build_options);

    serve::ServeOptions options;
    const LoopResult closed =
        RunLoop(index, workload, options, [](std::size_t) { return 0.0; });
    std::printf("shards=%zu closed: recall@%zu=%.4f sim_qps=%.0f "
                "wall_qps=%.0f p50=%.0fus p99=%.0fus\n",
                shards, kK, closed.recall, closed.sim_qps, closed.wall_qps,
                closed.p50_us, closed.p99_us);

    // Open loop at 70% of this configuration's measured capacity (Poisson
    // arrivals, exponential gaps), unless GANNS_SERVE_QPS pins the rate.
    const double rate =
        offered_qps > 0 ? offered_qps : 0.7 * std::max(1.0, closed.wall_qps);
    Rng rng(config.seed);
    const LoopResult open =
        RunLoop(index, workload, options, [&](std::size_t) {
          double u = rng.NextDouble();
          while (u <= 1e-12) u = rng.NextDouble();
          return -std::log(u) * 1e6 / rate;  // exponential inter-arrival
        });
    std::printf("shards=%zu open(%.0f qps): recall@%zu=%.4f wall_qps=%.0f "
                "p50=%.0fus p95=%.0fus p99=%.0fus\n",
                shards, rate, kK, open.recall, open.wall_qps, open.p50_us,
                open.p95_us, open.p99_us);

    char head[128];
    std::snprintf(head, sizeof(head),
                  "%s    {\"shards\": %zu,\n     \"closed\": ",
                  first ? "" : ",\n", shards);
    json += head;
    json += LoopJson(closed);
    std::snprintf(head, sizeof(head), ",\n     \"open_qps\": %.0f,\n"
                  "     \"open\": ", rate);
    json += head;
    json += LoopJson(open);
    json += "}";
    first = false;
  }
  json += "\n  ]\n}\n";

  const std::string out = argc > 1 ? argv[1] : "BENCH_serve.json";
  if (!obs::WriteTextFile(out, json)) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
