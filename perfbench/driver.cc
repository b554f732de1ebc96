// perfbench_driver — one benchmark workload against the ganns library's
// public API, run as a child of perfbench/run.py.
//
//   perfbench_driver fixture --workload W --seed S --out DIR
//   perfbench_driver run --workload W --seed S --seconds T --trace 0|1
//                    [--fixture DIR] [--trace-out FILE] [--online-rate QPS]
//                    [--online-slo-ms MS] [--write-rate OPS]
//
// `fixture` builds the sharded index a serving workload loads and saves it
// with ShardedIndex::SaveShards. `run` generates the workload's inputs from
// the seed, sets up several times (generation, ground truth, LoadShards),
// measures for the given seconds and prints one JSON object per line:
// {"progress": N} while it runs (operations attempted so far, so a crash
// still accounts for them) and a final {"result": {...}} with raw samples.
// run.py turns the samples into metrics; this file only measures.
//
// With --trace 1 the run also records benchmark-side spans around every call
// into the library (name, start, end, parent, request id), computes each
// span's self time, writes them to --trace-out at exit, and replays the
// workload's batches through the layer entry points (SearchBatch with
// RouteStats, GannsSearchBatch with per-query profiles) for the per-layer
// metrics.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_router.h"
#include "common/thread_pool.h"
#include "core/ganns_search.h"
#include "core/ggraphcon.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "gpusim/device.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "serve/flight_recorder.h"
#include "serve/serve_engine.h"
#include "serve/shard_router.h"

namespace {

using namespace ganns;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kK = 10;
constexpr int kSetupReps = 9;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Workload definitions. Sizes are fixed here; only the seed varies inputs.

struct WorkloadSpec {
  const char* name;
  const char* dataset;     // data::PaperDataset name
  std::size_t n;           // corpus points
  std::size_t queries;     // query set size
  std::size_t shards;      // 0: no sharded index (build workload)
  std::size_t budget;      // total visited budget per request
};

// build: GGraphCon over a SIFT-shaped corpus, graph scored at l_n = 64.
// serve_closed: kernel-bound serving at a large budget, telemetry off.
// serve_online: open loop at a small budget with telemetry and writes on.
// cluster_failover: 4 shards on 3 nodes with a node crash and rejoin.
constexpr WorkloadSpec kWorkloads[] = {
    {"build", "SIFT1M", 20000, 1000, 0, 64},
    {"serve_closed", "SIFT1M", 20000, 1000, 2, 512},
    {"serve_online", "GloVe200", 20000, 1000, 2, 64},
    {"cluster_failover", "SIFT1M", 20000, 512, 4, 512},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// serve_closed: requests kept outstanding by the one generator thread.
constexpr std::size_t kClosedOutstanding = 16;
// serve_online: inserted points stay live until this many newer ones exist;
// they come from a differently named mixture (other cluster centers), so
// they rarely enter a query's true top-k and the base ground truth holds.
constexpr std::size_t kOnlineLiveInserts = 64;
// serve_online: a request still queued this many latency limits after it
// was due expires unserved (and counts as failed).
constexpr double kOnlineDeadlineLimits = 4;
// cluster_failover: one pass is the whole query set in fixed batches; node 1
// crashes before batch kCrashBatch and rejoins before batch kRejoinBatch.
constexpr std::size_t kClusterNodes = 3;
constexpr std::size_t kClusterReplication = 2;
constexpr std::size_t kClusterBatch = 32;
constexpr std::size_t kCrashNode = 1;
constexpr std::size_t kCrashBatch = 4;
constexpr std::size_t kRejoinBatch = 10;
// build: l_n of the graph-quality search after each build.
constexpr std::size_t kBuildQualityLn = 64;

// ---------------------------------------------------------------------------
// Command line.

struct Options {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string fixture_dir;
  std::string trace_out;
  double online_rate = 0;
  double online_slo_ms = 0;
  double write_rate = 0;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_driver: %s\n", message.c_str());
  std::exit(2);
}

double ParseNumber(const std::string& flag, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value < 0) {
    Die("bad value for " + flag + ": '" + text + "'");
  }
  return value;
}

Options ParseOptions(int argc, char** argv) {
  if (argc < 2) Die("usage: perfbench_driver fixture|run --workload W ...");
  Options options;
  options.mode = argv[1];
  if (options.mode != "fixture" && options.mode != "run") {
    Die("unknown mode '" + options.mode + "'");
  }
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = static_cast<std::uint64_t>(ParseNumber(flag, value));
    } else if (flag == "--seconds") {
      options.seconds = ParseNumber(flag, value);
    } else if (flag == "--trace") {
      options.trace = ParseNumber(flag, value) != 0;
    } else if (flag == "--fixture" || flag == "--out") {
      options.fixture_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--online-rate") {
      options.online_rate = ParseNumber(flag, value);
    } else if (flag == "--online-slo-ms") {
      options.online_slo_ms = ParseNumber(flag, value);
    } else if (flag == "--write-rate") {
      options.write_rate = ParseNumber(flag, value);
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (FindWorkload(options.workload) == nullptr) {
    Die("unknown workload '" + options.workload + "'");
  }
  return options;
}

// ---------------------------------------------------------------------------
// Output: a tiny JSON builder and the progress channel.

std::string Num(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += Num(values[i]);
  }
  return out + "]";
}

/// Ordered JSON object under construction.
class Object {
 public:
  Object& Add(const std::string& key, double value) {
    return Raw(key, Num(value));
  }
  Object& Add(const std::string& key, const std::string& value) {
    return Raw(key, Quote(value));
  }
  Object& Add(const std::string& key, const std::vector<double>& values) {
    return Raw(key, Array(values));
  }
  Object& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + Quote(key) + ":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::mutex g_stdout_mutex;

void PrintLine(const std::string& line) {
  std::lock_guard<std::mutex> lock(g_stdout_mutex);
  std::fputs(line.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

/// Operations attempted so far. Printed as they accumulate so that when the
/// process dies mid-run, run.py can still count every attempted operation as
/// failed.
class Progress {
 public:
  void Add(std::uint64_t n) {
    const std::uint64_t total = attempted_.fetch_add(n) + n;
    if (total <= kEvery || total / kEvery != (total - n) / kEvery) {
      Report(total);
    }
  }
  static void Report(std::uint64_t total) {
    PrintLine("{\"progress\":" + std::to_string(total) + "}");
  }

 private:
  static constexpr std::uint64_t kEvery = 64;
  std::atomic<std::uint64_t> attempted_{0};
};

// ---------------------------------------------------------------------------
// Benchmark-side spans.

/// In-memory span log around calls into the library. Disabled, every call is
/// a branch; enabled, a mutex-guarded append. Written out once at exit.
class Spans {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  explicit Spans(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  std::size_t Begin(const char* name, std::size_t parent = kNone,
                    std::uint64_t request = 0) {
    if (!enabled_) return kNone;
    const double now = Now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, now, now, parent, request});
    return spans_.size() - 1;
  }

  void End(std::size_t id) {
    if (id == kNone) return;
    const double now = Now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id].end_us = now;
  }

  /// Records an already-timed interval (e.g. a request from submit until its
  /// future was observed ready by the collector thread).
  std::size_t Interval(const char* name, Clock::time_point start,
                       Clock::time_point end, std::size_t parent,
                       std::uint64_t request) {
    if (!enabled_) return kNone;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, ToUs(start), ToUs(end), parent, request});
    return spans_.size() - 1;
  }

  /// Self time of every span: its duration minus the union of its
  /// children's intervals, clipped to it.
  std::vector<double> SelfTimesUs() const {
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent != kNone) children[spans_[i].parent].push_back(i);
    }
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::vector<std::pair<double, double>> covered;
      for (const std::size_t c : children[i]) {
        const double lo = std::max(span.start_us, spans_[c].start_us);
        const double hi = std::min(span.end_us, spans_[c].end_us);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
      std::sort(covered.begin(), covered.end());
      double union_us = 0, reach = span.start_us;
      for (const auto& [lo, hi] : covered) {
        const double from = std::max(lo, reach);
        if (hi > from) union_us += hi - from;
        reach = std::max(reach, hi);
      }
      self[i] = (span.end_us - span.start_us) - union_us;
    }
    return self;
  }

  /// Total self time (ms) per span name.
  std::map<std::string, double> SelfMsByName() const {
    const std::vector<double> self = SelfTimesUs();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += self[i] / 1e3;
    }
    return out;
  }

  bool Write(const std::string& path) const {
    const std::vector<double> self = SelfTimesUs();
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    std::fputs("[\n", file);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(file,
                   "%s{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                   "\"end_us\":%.3f,\"parent\":%lld,\"request\":%llu,"
                   "\"self_us\":%.3f}\n",
                   i == 0 ? "" : ",", i, span.name, span.start_us, span.end_us,
                   span.parent == kNone ? -1LL
                                        : static_cast<long long>(span.parent),
                   static_cast<unsigned long long>(span.request), self[i]);
    }
    std::fputs("]\n", file);
    return std::fclose(file) == 0;
  }

  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    std::size_t parent;
    std::uint64_t request;
  };

  double ToUs(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  double Now() const { return ToUs(Clock::now()); }

  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Spans& spans, const char* name, std::size_t parent = Spans::kNone,
        std::uint64_t request = 0)
      : spans_(spans), id_(spans.Begin(name, parent, request)) {}
  ~Scope() { spans_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::size_t id() const { return id_; }

 private:
  Spans& spans_;
  const std::size_t id_;
};

// ---------------------------------------------------------------------------
// Inputs and set-up.

struct Inputs {
  data::Dataset base;
  data::Dataset queries;
  data::GroundTruth truth;
};

/// Shard options of both the fixture build and LoadShards, which must agree.
serve::ShardBuildOptions ShardOptions() { return serve::ShardBuildOptions{}; }

std::string ShardPrefix(const std::string& dir) { return dir + "/index"; }

/// One set-up: corpus and queries from the seed, brute-force ground truth,
/// and (serving workloads) the saved shards. Times each step.
struct Setup {
  Inputs inputs;
  std::optional<serve::ShardedIndex> index;
  double generate_s = 0;
  double ground_truth_s = 0;
  double load_s = 0;
  double total_s = 0;
};

Setup RunSetup(const WorkloadSpec& spec, const Options& options, Spans& spans,
               std::size_t parent) {
  Scope setup_span(spans, "setup", parent);
  const auto start = Clock::now();
  const data::DatasetSpec& dataset = data::PaperDataset(spec.dataset);
  std::optional<Scope> span;
  span.emplace(spans, "data.generate", setup_span.id());
  data::Dataset base = data::GenerateBase(dataset, spec.n, options.seed);
  data::Dataset queries =
      data::GenerateQueries(dataset, spec.queries, spec.n, options.seed);
  const double generate_s = SecondsSince(start);
  span.emplace(spans, "data.ground_truth", setup_span.id());
  data::GroundTruth truth = data::BruteForceKnn(base, queries, kK);
  const double ground_truth_s = SecondsSince(start) - generate_s;
  span.reset();
  Setup setup{Inputs{std::move(base), std::move(queries), std::move(truth)},
              std::nullopt, generate_s, ground_truth_s};
  if (spec.shards > 0) {
    Scope load_span(spans, "serve.load_shards", setup_span.id());
    const auto t = Clock::now();
    std::string error;
    setup.index = serve::ShardedIndex::LoadShards(
        ShardPrefix(options.fixture_dir), setup.inputs.base, spec.shards,
        ShardOptions(), &error);
    if (!setup.index.has_value()) Die("LoadShards failed: " + error);
    setup.load_s = SecondsSince(t);
  }
  setup.total_s = SecondsSince(start);
  return setup;
}

/// Runs `fn` on a worker thread of a private pool. ThreadPool::InWorker()
/// is then true, so every ThreadPool::Global().ParallelFor inside `fn` runs
/// inline on that one thread: the work is single-threaded, and its results
/// are the same as on the global pool (results never depend on the pool
/// size). No pool hand-off happens, so the ParallelFor completion race
/// cannot abort `fn`. The fixture build, the serve_online writer and the
/// whole of the `build` and `cluster_failover` runs use this.
void RunOnPoolWorker(const std::function<void()>& fn) {
  ThreadPool pool(2);
  std::atomic<bool> started{false};
  pool.ParallelFor(2, [&](std::size_t) {
    if (ThreadPool::InWorker()) {
      if (!started.exchange(true)) fn();
    } else {
      // The calling thread holds its index until a worker has taken `fn`,
      // so the other index is left for the workers.
      while (!started.load()) std::this_thread::yield();
    }
  });
}

int CmdFixture(const Options& options) {
  const WorkloadSpec& spec = *FindWorkload(options.workload);
  if (spec.shards == 0) Die("workload '" + options.workload + "' has no fixture");
  if (options.fixture_dir.empty()) Die("fixture needs --out DIR");
  const data::DatasetSpec& dataset = data::PaperDataset(spec.dataset);
  const data::Dataset base = data::GenerateBase(dataset, spec.n, options.seed);
  bool saved = false;
  RunOnPoolWorker([&] {
    const serve::ShardedIndex index =
        serve::ShardedIndex::Build(base, spec.shards, ShardOptions());
    saved = index.SaveShards(ShardPrefix(options.fixture_dir));
  });
  if (!saved) Die("SaveShards failed under " + options.fixture_dir);
  return 0;
}

// ---------------------------------------------------------------------------
// Measurement helpers.

std::vector<VertexId> Ids(const std::vector<graph::Neighbor>& row) {
  std::vector<VertexId> ids;
  ids.reserve(row.size());
  for (const graph::Neighbor& neighbor : row) ids.push_back(neighbor.id);
  return ids;
}

/// First answer per query; a later different answer is a determinism
/// failure (neighbors must not depend on batching or timing).
class AnswerBook {
 public:
  explicit AnswerBook(std::size_t num_queries) : answers_(num_queries) {}

  void Record(std::size_t q, const std::vector<graph::Neighbor>& row) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!answers_[q].has_value()) {
      answers_[q] = row;
    } else if (*answers_[q] != row) {
      ++mismatches_;
    }
  }

  std::uint64_t mismatches() const { return mismatches_; }

  /// FNV-1a hash of every answer's ids, or "" unless every query has been
  /// answered: neighbors depend only on the query, so it repeats at a seed.
  std::string Digest() const {
    std::uint64_t hash = 1469598103934665603ULL;
    for (const auto& answer : answers_) {
      if (!answer.has_value()) return "";
      for (const graph::Neighbor& neighbor : *answer) {
        hash = (hash ^ neighbor.id) * 1099511628211ULL;
      }
      hash = (hash ^ 0xFFFFFFFFULL) * 1099511628211ULL;
    }
    return std::to_string(hash);
  }

  /// Mean recall@k over the queries answered at least once.
  double Recall(const data::GroundTruth& truth) const {
    double sum = 0;
    std::size_t answered = 0;
    for (std::size_t q = 0; q < answers_.size(); ++q) {
      if (!answers_[q].has_value()) continue;
      sum += data::RecallAtK(Ids(*answers_[q]), truth.neighbors[q], kK);
      ++answered;
    }
    return answered > 0 ? sum / static_cast<double>(answered) : 0.0;
  }

 private:
  std::mutex mutex_;
  std::vector<std::optional<std::vector<graph::Neighbor>>> answers_;
  std::uint64_t mismatches_ = 0;
};

serve::QueryRequest MakeRequest(const data::Dataset& queries, std::size_t q,
                                std::uint64_t id, std::size_t budget) {
  serve::QueryRequest request;
  request.id = id;
  const auto point = queries.Point(static_cast<VertexId>(q));
  request.query.assign(point.begin(), point.end());
  request.k = kK;
  request.budget = budget;
  return request;
}

std::vector<serve::RoutedQuery> Routed(const data::Dataset& queries,
                                       std::size_t budget) {
  std::vector<serve::RoutedQuery> routed(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    routed[q].query = queries.Point(static_cast<VertexId>(q));
    routed[q].k = kK;
    routed[q].budget = budget;
  }
  return routed;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Everything one run reports; serialized as the final result line.
struct Report {
  Object result;       // top-level scalars and sample arrays
  Object layers;       // per-layer scalars (trace runs)
  Object series;       // per-layer sample arrays, percentiles in run.py
  Object determinism;  // fields that must repeat exactly at one seed
  std::vector<std::pair<std::string, std::string>> failed_checks;

  void Check(bool ok, const std::string& name, const std::string& detail) {
    if (!ok) failed_checks.emplace_back(name, detail);
  }
};

/// ThreadPool::Global() counter deltas over a measured interval.
struct PoolDelta {
  ThreadPool::Stats before = ThreadPool::Global().stats();
  void Report(Report& report) const {
    const ThreadPool::Stats after = ThreadPool::Global().stats();
    const double calls =
        static_cast<double>(after.parallel_for_calls - before.parallel_for_calls);
    const double inline_runs =
        static_cast<double>(after.inline_runs - before.inline_runs);
    report.layers.Add("common.pool.parallel_for_calls", calls)
        .Add("common.pool.inline_frac", calls > 0 ? inline_runs / calls : 0.0);
  }
};

/// Replays the first shard's slice of every query through GannsSearchBatch
/// with per-query profiles: host time per query, per-phase simulated
/// cycles, hops, distances, and the simulated device's cycle accounting.
void ReplayKernel(const serve::ShardedIndex& index, const data::Dataset& base,
                  const data::Dataset& queries, std::size_t budget,
                  Spans& spans, std::size_t parent, Report& report) {
  const std::size_t shard_size =
      index.num_shards() > 1 ? index.shard_offset(1) : base.size();
  data::Dataset shard_base(base.name(), base.dim(), base.metric());
  shard_base.Reserve(shard_size);
  for (VertexId v = 0; v < shard_size; ++v) shard_base.Append(base.Point(v));
  core::GannsParams params;
  params.k = kK;
  params.l_n = index.PerShardBudget(budget, kK);
  gpusim::Device device;
  std::vector<core::GannsQueryProfile> profiles;
  const auto start = Clock::now();
  graph::BatchSearchResult result;
  {
    Scope span(spans, "core.ganns_search_batch", parent);
    result = core::GannsSearchBatch(device, index.shard_graph(0), shard_base,
                                    queries, params, 32, 0, &profiles);
  }
  const double host_s = SecondsSince(start);
  const double nq = static_cast<double>(queries.size());
  std::array<double, core::kNumGannsPhases> phase{};
  double hops = 0, distances = 0, redundant = 0;
  for (const core::GannsQueryProfile& profile : profiles) {
    for (int p = 0; p < core::kNumGannsPhases; ++p) {
      phase[p] += profile.phase_cycles[p];
    }
    hops += profile.hops;
    distances += profile.distance_computations;
    redundant += profile.redundant_distances;
  }
  report.layers.Add("core.search.host_us_per_query", host_s * 1e6 / nq);
  std::string phase_digest;
  for (int p = 0; p < core::kNumGannsPhases; ++p) {
    report.layers.Add(std::string("core.search.phase.") + core::GannsPhaseName(p) +
                          ".sim_cycles",
                      phase[p] / nq);
    phase_digest += Num(phase[p]) + ",";
  }
  report.layers.Add("core.search.hops", hops / nq)
      .Add("core.search.distances", distances / nq)
      .Add("core.search.redundant_frac",
           distances > 0 ? redundant / distances : 0.0)
      .Add("gpusim.host_ns_per_kcycle",
           host_s * 1e9 / (device.timeline_work_total() / 1e3))
      .Add("gpusim.sm_imbalance", device.SmLoadImbalance());
  report.determinism.Add("kernel_replay.phase_cycles", phase_digest)
      .Add("kernel_replay.sim_cycles", result.kernel.sim_cycles)
      .Add("kernel_replay.hops", hops);
}

/// Replays the query set through ShardedIndex::SearchBatch in fixed batches
/// with RouteStats: per-batch wall time, fan-out, merge, and shard skew.
void ReplayRoute(serve::ShardedIndex& index, const data::Dataset& queries,
                 std::size_t budget, std::size_t batch, Spans& spans,
                 std::size_t parent, Report& report) {
  const std::vector<serve::RoutedQuery> routed = Routed(queries, budget);
  std::vector<double> batch_ms, fanout_ms, merge_ms, skew;
  for (std::size_t q = 0; q < routed.size(); q += batch) {
    const std::size_t count = std::min(batch, routed.size() - q);
    serve::RouteStats stats;
    const auto start = Clock::now();
    {
      Scope span(spans, "serve.search_batch", parent);
      index.SearchBatch(std::span(routed).subspan(q, count),
                        core::SearchKernel::kGanns, &stats);
    }
    batch_ms.push_back(SecondsSince(start) * 1e3);
    fanout_ms.push_back((stats.fanout_end_us - stats.fanout_start_us) / 1e3);
    merge_ms.push_back((stats.merge_end_us - stats.merge_start_us) / 1e3);
    double slowest = 0, sum = 0;
    for (const auto& shard : stats.shards) {
      slowest = std::max(slowest, shard.end_us - shard.start_us);
      sum += shard.end_us - shard.start_us;
    }
    const double mean = sum / static_cast<double>(stats.shards.size());
    skew.push_back(mean > 0 ? slowest / mean : 1.0);
  }
  report.series.Add("serve.route.batch_ms", batch_ms);
  report.layers.Add("serve.route.fanout_ms", Median(fanout_ms))
      .Add("serve.route.merge_ms", Median(merge_ms))
      .Add("serve.route.shard_skew", Median(skew));
}

// ---------------------------------------------------------------------------
// serve_closed: one generator thread keeps kClosedOutstanding requests in
// flight and waits on the oldest.

struct ClosedOutcome {
  std::vector<double> latency_ms;  // ok requests, submit -> observed ready
  std::vector<double> queue_wait_ms;
  std::vector<double> batch_size;
  std::uint64_t sent = 0, ok = 0, failed = 0;
  double wall_s = 0;
  double sim_s = 0;
  serve::ServeCounters counters;
  std::uint64_t kernel_queries = 0;
};

ClosedOutcome RunClosed(serve::ShardedIndex& index, const Inputs& inputs,
                        std::size_t budget, double seconds, AnswerBook& book,
                        Progress& progress, Spans& spans, std::size_t parent) {
  ClosedOutcome out;
  const std::uint64_t kernel_before = index.kernel_queries();
  serve::ServeEngine engine(index, serve::ServeOptions{});
  engine.Start();
  struct InFlight {
    std::uint64_t id;
    Clock::time_point sent;
    std::future<serve::QueryResponse> future;
  };
  std::deque<InFlight> in_flight;
  const std::size_t nq = inputs.queries.size();
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration<double>(seconds);
  std::uint64_t next = 0;
  while (true) {
    const bool open = Clock::now() < stop;
    while (open && in_flight.size() < kClosedOutstanding) {
      const std::uint64_t id = next++;
      progress.Add(1);
      ++out.sent;
      InFlight flight{id, Clock::now(), {}};
      flight.future =
          engine.Submit(MakeRequest(inputs.queries, id % nq, id, budget));
      in_flight.push_back(std::move(flight));
    }
    if (in_flight.empty()) break;
    InFlight flight = std::move(in_flight.front());
    in_flight.pop_front();
    const serve::QueryResponse response = flight.future.get();
    const auto done = Clock::now();
    spans.Interval("serve.request", flight.sent, done, parent, flight.id);
    if (response.status != serve::StatusCode::kOk) {
      ++out.failed;
      continue;
    }
    ++out.ok;
    book.Record(flight.id % nq, response.neighbors);
    out.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(done - flight.sent).count());
    out.queue_wait_ms.push_back(response.queue_wait_us / 1e3);
    out.batch_size.push_back(response.batch_size);
  }
  out.wall_s = SecondsSince(start);
  engine.Shutdown();
  out.counters = engine.counters();
  out.sim_s = engine.total_sim_seconds();
  out.kernel_queries = index.kernel_queries() - kernel_before;
  return out;
}

void ReportServeCounters(const serve::ServeCounters& counters,
                         std::uint64_t kernel_queries, std::size_t shards,
                         const std::vector<double>& queue_wait_ms,
                         const std::vector<double>& batch_size,
                         Report& report) {
  report.Check(kernel_queries == counters.served * shards,
               "serve.kernel_queries",
               "kernel searches " + std::to_string(kernel_queries) +
                   " != served x shards " +
                   std::to_string(counters.served * shards));
  report.layers.Add("serve.kernel_queries", static_cast<double>(kernel_queries))
      .Add("serve.batch_size_mean", Mean(batch_size))
      .Add("serve.rejected", static_cast<double>(counters.rejected))
      .Add("serve.expired", static_cast<double>(counters.expired));
  report.series.Add("serve.queue_wait_ms", queue_wait_ms);
}

void WorkloadServeClosed(const WorkloadSpec& spec, const Options& options,
                        Setup& setup, Progress& progress, Spans& spans,
                        std::size_t root, Report& report) {
  serve::ShardedIndex& index = *setup.index;
  AnswerBook book(setup.inputs.queries.size());
  PoolDelta pool;
  const double seconds = options.trace ? options.seconds / 2 : options.seconds;
  std::optional<ClosedOutcome> untraced;
  if (options.trace) {
    // Same loop without request spans, for the tracing overhead.
    Spans off(false);
    untraced = RunClosed(index, setup.inputs, spec.budget, seconds, book,
                         progress, off, Spans::kNone);
  }
  const ClosedOutcome run =
      RunClosed(index, setup.inputs, spec.budget, seconds, book, progress,
                spans, root);
  pool.Report(report);
  const std::uint64_t sent = run.sent + (untraced ? untraced->sent : 0);
  const std::uint64_t failed = run.failed + (untraced ? untraced->failed : 0);
  report.result.Add("attempted", static_cast<double>(sent))
      .Add("failed", static_cast<double>(failed))
      .Add("wall_s", run.wall_s)
      .Add("ok_reads", static_cast<double>(run.ok))
      .Add("sent_reads", static_cast<double>(run.sent))
      .Add("sim_s", run.sim_s)
      .Add("served", static_cast<double>(run.counters.served))
      .Add("latency_ms", run.latency_ms)
      // Requests of one lock-step batch share its latency: the independent
      // latency samples are the batches.
      .Add("latency_groups", static_cast<double>(run.ok / kClosedOutstanding))
      .Add("recall", book.Recall(setup.inputs.truth));
  report.Check(book.mismatches() == 0, "answers_repeat",
               std::to_string(book.mismatches()) +
                   " repeated queries returned different neighbors");
  report.determinism.Add("closed.answers", book.Digest());
  ReportServeCounters(run.counters, run.kernel_queries, spec.shards,
                      run.queue_wait_ms, run.batch_size, report);
  if (options.trace) {
    report.layers.Add("trace.overhead",
                      (untraced->ok / untraced->wall_s) / (run.ok / run.wall_s));
    ReplayRoute(index, setup.inputs.queries, spec.budget, kClosedOutstanding,
                spans, root, report);
    ReplayKernel(index, setup.inputs.base, setup.inputs.queries, spec.budget,
                 spans, root, report);
  }
}

// ---------------------------------------------------------------------------
// serve_online: open loop. The generator submits on a Poisson schedule from
// the seed; a collector thread waits on the futures in order and stamps
// completion; a writer thread runs a fixed insert/remove stream.

struct OnlineOutcome {
  std::vector<double> due_ms, sent_ms, done_ms;  // per sent request
  std::vector<double> ok;                        // 1 = kOk
  std::vector<double> queue_wait_ms, batch_size;
  std::vector<double> insert_ms, remove_ms;
  std::uint64_t writes_attempted = 0, writes_failed = 0, writes_done = 0;
  double wall_s = 0;
  double sim_s = 0;
  serve::ServeCounters counters;
  std::uint64_t kernel_queries = 0;
  std::size_t series_windows = 0;
  std::uint64_t flight_dumps = 0;
};

/// Arrival offsets (seconds) of a Poisson process at `rate` over `seconds`.
std::vector<double> PoissonSchedule(std::uint64_t seed, double rate,
                                    double seconds) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  std::vector<double> due;
  double t = 0;
  while (true) {
    const double u =
        static_cast<double>(rng() >> 11) * (1.0 / 9007199254740992.0);
    t += -std::log(1.0 - u) / rate;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

OnlineOutcome RunOnline(serve::ShardedIndex& index, const Inputs& inputs,
                        const data::Dataset& write_pool,
                        std::vector<VertexId>& live_inserts,
                        const std::vector<double>& schedule,
                        const Options& options, bool telemetry,
                        std::size_t budget, AnswerBook& book,
                        Progress& progress, Spans& spans, std::size_t parent) {
  OnlineOutcome out;
  const std::size_t total = schedule.size();
  out.due_ms.resize(total);
  out.sent_ms.resize(total);
  out.done_ms.assign(total, 0.0);
  out.ok.assign(total, 0.0);
  const double slo_us = options.online_slo_ms * 1e3;

  obs::SetMetricsEnabled(telemetry);
  serve::FlightRecorder& flight = serve::FlightRecorder::Global();
  flight.Clear();
  if (telemetry) {
    serve::FlightRecorderOptions flight_options;
    flight_options.default_deadline_us = static_cast<std::uint64_t>(slo_us);
    flight.Configure(flight_options);
  }
  flight.SetEnabled(telemetry);
  std::optional<obs::TimeSeriesCollector> series;
  if (telemetry) {
    obs::TimeSeriesOptions series_options;
    series_options.interval_ms = 100;
    series_options.slo_deadline_us = static_cast<std::uint64_t>(slo_us);
    series.emplace(series_options);
    series->Start();
  }

  const std::uint64_t kernel_before = index.kernel_queries();
  serve::ServeEngine engine(index, serve::ServeOptions{});
  engine.Start();

  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<std::pair<std::size_t, std::future<serve::QueryResponse>>> queue;
  bool generator_done = false;
  std::vector<Clock::time_point> sent_at(total);
  const auto start = Clock::now();
  const auto ms_since_start = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::milli>(t - start).count();
  };

  std::thread collector([&] {
    const std::size_t nq = inputs.queries.size();
    while (true) {
      std::pair<std::size_t, std::future<serve::QueryResponse>> item;
      {
        std::unique_lock<std::mutex> lock(queue_mutex);
        queue_cv.wait(lock, [&] { return generator_done || !queue.empty(); });
        if (queue.empty()) return;
        item = std::move(queue.front());
        queue.pop_front();
      }
      const serve::QueryResponse response = item.second.get();
      const auto done = Clock::now();
      const std::size_t i = item.first;
      out.done_ms[i] = ms_since_start(done);
      spans.Interval("serve.request", sent_at[i], done, parent, i);
      if (response.status == serve::StatusCode::kOk) {
        out.ok[i] = 1.0;
        book.Record(i % nq, response.neighbors);
        out.queue_wait_ms.push_back(response.queue_wait_us / 1e3);
        out.batch_size.push_back(response.batch_size);
      }
    }
  });

  std::atomic<bool> stop_writer{false};
  std::thread writer;
  if (options.write_rate > 0) {
    // The writer is one thread: its calls run on a private pool worker, so
    // the device launches inside Insert/Remove execute inline on it instead
    // of fanning out over the pool the readers use.
    writer = std::thread([&] { RunOnPoolWorker([&] {
      const auto interval = std::chrono::duration<double>(1.0 / options.write_rate);
      std::size_t next_vector = 0;
      for (std::uint64_t op = 0; !stop_writer.load(); ++op) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        interval * static_cast<double>(op)));
        if (stop_writer.load()) break;
        progress.Add(1);
        ++out.writes_attempted;
        const bool remove = live_inserts.size() >= kOnlineLiveInserts;
        const auto t = Clock::now();
        bool ok = false;
        if (remove) {
          Scope span(spans, "serve.remove", parent, op);
          ok = index.Remove(live_inserts.front());
          live_inserts.erase(live_inserts.begin());
          out.remove_ms.push_back(SecondsSince(t) * 1e3);
        } else {
          Scope span(spans, "serve.insert", parent, op);
          const auto id = index.Insert(write_pool.Point(
              static_cast<VertexId>(next_vector++ % write_pool.size())));
          ok = id.has_value();
          if (ok) live_inserts.push_back(*id);
          out.insert_ms.push_back(SecondsSince(t) * 1e3);
        }
        if (ok) {
          ++out.writes_done;
        } else {
          ++out.writes_failed;
        }
      }
    }); });
  }

  const std::size_t nq = inputs.queries.size();
  for (std::size_t i = 0; i < total; ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(schedule[i]));
    std::this_thread::sleep_until(due);
    serve::QueryRequest request = MakeRequest(inputs.queries, i % nq, i, budget);
    request.deadline = due + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(
                                     kOnlineDeadlineLimits * options.online_slo_ms));
    sent_at[i] = Clock::now();
    out.due_ms[i] = schedule[i] * 1e3;
    out.sent_ms[i] = ms_since_start(sent_at[i]);
    progress.Add(1);
    auto future = engine.Submit(std::move(request));
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      queue.emplace_back(i, std::move(future));
    }
    queue_cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex);
    generator_done = true;
  }
  queue_cv.notify_one();
  collector.join();
  out.wall_s = SecondsSince(start);
  stop_writer.store(true);
  if (writer.joinable()) writer.join();
  engine.Shutdown();
  if (series.has_value()) {
    series->Stop();
    out.series_windows = series->Windows().size();
  }
  out.flight_dumps = flight.counters().persisted;
  flight.SetEnabled(false);
  obs::SetMetricsEnabled(false);
  out.counters = engine.counters();
  out.sim_s = engine.total_sim_seconds();
  out.kernel_queries = index.kernel_queries() - kernel_before;
  return out;
}

/// Per-request schedule and outcome of one or more runs; run.py derives
/// due-time latency and generator lateness from them.
Object OpenLoopSamples(const std::vector<const OnlineOutcome*>& runs) {
  std::vector<double> due, sent, done, ok;
  for (const OnlineOutcome* run : runs) {
    due.insert(due.end(), run->due_ms.begin(), run->due_ms.end());
    sent.insert(sent.end(), run->sent_ms.begin(), run->sent_ms.end());
    done.insert(done.end(), run->done_ms.begin(), run->done_ms.end());
    ok.insert(ok.end(), run->ok.begin(), run->ok.end());
  }
  Object samples;
  samples.Add("due_ms", due).Add("sent_ms", sent).Add("done_ms", done).Add("ok", ok);
  return samples;
}

void WorkloadServeOnline(const WorkloadSpec& spec, const Options& options,
                        Setup& setup, Progress& progress, Spans& spans,
                        std::size_t root, Report& report) {
  if (options.online_rate <= 0 || options.online_slo_ms <= 0) {
    Die("serve_online needs --online-rate and --online-slo-ms");
  }
  serve::ShardedIndex& index = *setup.index;
  data::DatasetSpec write_spec = data::PaperDataset(spec.dataset);
  write_spec.name += "/writes";
  const data::Dataset write_pool =
      data::GenerateBase(write_spec, 4096, options.seed);
  std::vector<VertexId> live_inserts;
  AnswerBook book(setup.inputs.queries.size());
  PoolDelta pool;
  // Trace runs split the time five ways over one schedule: untraced with
  // and without telemetry, alternating twice so drift cancels, then traced.
  const double seconds = options.trace ? options.seconds / 5 : options.seconds;
  const std::vector<double> schedule =
      PoissonSchedule(options.seed, options.online_rate, seconds);
  Spans off(false);
  const auto run_once = [&](bool telemetry, Spans& run_spans, std::size_t parent) {
    return RunOnline(index, setup.inputs, write_pool, live_inserts, schedule,
                     options, telemetry, spec.budget, book, progress, run_spans,
                     parent);
  };
  // Warm-up, not measured: the first writes grow each shard's slot store
  // and the first batches fault in the loaded shards.
  const OnlineOutcome warmup = RunOnline(
      index, setup.inputs, write_pool, live_inserts,
      PoissonSchedule(options.seed + 1, options.online_rate, 1.0), options,
      true, spec.budget, book, progress, off, Spans::kNone);
  std::vector<OnlineOutcome> with_telemetry, without_telemetry;
  if (options.trace) {
    for (int round = 0; round < 2; ++round) {
      with_telemetry.push_back(run_once(true, off, Spans::kNone));
      without_telemetry.push_back(run_once(false, off, Spans::kNone));
    }
  }
  const OnlineOutcome run = run_once(true, spans, root);
  pool.Report(report);
  std::vector<const OnlineOutcome*> on, all = {&run, &warmup};
  for (const OnlineOutcome& o : with_telemetry) on.push_back(&o);
  std::vector<const OnlineOutcome*> plain;
  for (const OnlineOutcome& o : without_telemetry) plain.push_back(&o);
  all.insert(all.end(), on.begin(), on.end());
  all.insert(all.end(), plain.begin(), plain.end());
  std::uint64_t attempted = 0, failed = 0;
  for (const OnlineOutcome* o : all) {
    attempted += o->due_ms.size() + o->writes_attempted;
    failed += o->writes_failed;
    for (const double ok : o->ok) failed += ok == 0 ? 1 : 0;
  }
  report.result.Add("attempted", static_cast<double>(attempted))
      .Add("failed", static_cast<double>(failed))
      .Add("wall_s", run.wall_s)
      .Add("sim_s", run.sim_s)
      .Add("served", static_cast<double>(run.counters.served))
      .Raw("open_loop", OpenLoopSamples({&run}).str())
      .Add("writes_done", static_cast<double>(run.writes_done))
      .Add("recall", book.Recall(setup.inputs.truth));
  ReportServeCounters(run.counters, run.kernel_queries, spec.shards,
                      run.queue_wait_ms, run.batch_size, report);
  report.series.Add("serve.writes.insert_ms", run.insert_ms)
      .Add("serve.writes.remove_ms", run.remove_ms);
  std::uint64_t epochs = 0;
  for (std::size_t s = 0; s < index.num_shards(); ++s) {
    epochs += index.ShardEpoch(s);
  }
  report.layers.Add("serve.writes.ops_s",
                    static_cast<double>(run.writes_done) / run.wall_s)
      .Add("serve.writes.update_sim_s", index.update_sim_seconds())
      .Add("serve.writes.epochs", static_cast<double>(epochs))
      .Add("serve.writes.compactions", static_cast<double>(index.compactions()))
      .Add("obs.series.windows", static_cast<double>(run.series_windows))
      .Add("obs.flight.dumps", static_cast<double>(run.flight_dumps));
  if (options.trace) {
    report.series.Raw("online.untraced", OpenLoopSamples(on).str())
        .Raw("online.no_telemetry", OpenLoopSamples(plain).str());
    ReplayRoute(index, setup.inputs.queries, spec.budget, 8, spans, root,
                report);
    ReplayKernel(index, setup.inputs.base, setup.inputs.queries, spec.budget,
                 spans, root, report);
  }
}

// ---------------------------------------------------------------------------
// cluster_failover: fixed batches through a fresh ClusterIndex per pass,
// crashing node kCrashNode at kCrashBatch and rejoining it at kRejoinBatch.

struct ClusterPass {
  std::vector<std::vector<graph::Neighbor>> rows;
  std::vector<double> batch_ms, batch_sim_us, latency_ms;
  double rounds = 0;
  double rejoin_ms = 0;
  double wall_s = 0;
  std::uint64_t lost = 0;
  std::string digest;  // counters, sim seconds and alert transitions
  std::uint64_t served = 0;
  double sim_s = 0;
  double recovery_sim_s = 0, monitoring_sim_s = 0;
  std::size_t federation_windows = 0, alert_transitions = 0;
  cluster::ClusterCounters counters;
  cluster::AggregatorCounters aggregator;
  std::uint64_t transport_bytes = 0;
};

cluster::ClusterOptions ClusterOptionsFor(std::uint64_t seed, bool federation) {
  cluster::ClusterOptions options;
  options.num_nodes = kClusterNodes;
  options.replication = kClusterReplication;
  options.selection = cluster::ReplicaSelection::kRoundRobin;
  options.seed = seed;
  options.federation.enabled = federation;
  options.federation.scrape_interval_us = 500;
  return options;
}

ClusterPass RunClusterPass(serve::ShardedIndex& index,
                           const std::vector<serve::RoutedQuery>& routed,
                           std::uint64_t seed, bool federation,
                           Progress& progress, Spans& spans,
                           std::size_t parent) {
  ClusterPass pass;
  pass.rows.resize(routed.size());
  Scope pass_span(spans, "cluster.pass", parent);
  const auto start = Clock::now();
  cluster::ClusterIndex cluster_index(index, ClusterOptionsFor(seed, federation));
  std::size_t batch_number = 0;
  for (std::size_t q = 0; q < routed.size(); q += kClusterBatch, ++batch_number) {
    if (batch_number == kCrashBatch) {
      Scope span(spans, "cluster.crash_node", pass_span.id());
      cluster_index.CrashNode(kCrashNode);
    }
    if (batch_number == kRejoinBatch) {
      Scope span(spans, "cluster.rejoin_node", pass_span.id());
      const auto t = Clock::now();
      cluster_index.RejoinNode(kCrashNode);
      pass.rejoin_ms = SecondsSince(t) * 1e3;
    }
    const std::size_t count = std::min(kClusterBatch, routed.size() - q);
    progress.Add(count);
    cluster::ClusterBatchStats stats;
    const auto t = Clock::now();
    std::vector<std::vector<graph::Neighbor>> rows;
    {
      Scope span(spans, "cluster.search_batch", pass_span.id(), batch_number);
      rows = cluster_index.SearchBatch(std::span(routed).subspan(q, count),
                                       core::SearchKernel::kGanns, &stats);
    }
    const double ms = SecondsSince(t) * 1e3;
    pass.batch_ms.push_back(ms);
    pass.batch_sim_us.push_back(stats.sim_seconds * 1e6);
    pass.rounds += static_cast<double>(stats.rounds);
    pass.lost += std::min<std::uint64_t>(stats.lost_sub_queries, count);
    for (std::size_t i = 0; i < count; ++i) {
      pass.rows[q + i] = std::move(rows[i]);
      pass.latency_ms.push_back(ms);
    }
  }
  cluster_index.Shutdown();
  pass.wall_s = SecondsSince(start);
  pass.rounds /= static_cast<double>(pass.batch_ms.size());
  pass.counters = cluster_index.counters();
  pass.aggregator = cluster_index.aggregator_counters();
  for (std::size_t n = 0; n < cluster_index.num_nodes(); ++n) {
    pass.transport_bytes += cluster_index.NodeInfo(n).transfer_bytes;
  }
  pass.served = pass.counters.served_queries;
  pass.sim_s = cluster_index.total_sim_seconds();
  pass.recovery_sim_s = cluster_index.recovery_sim_seconds();
  pass.monitoring_sim_s = cluster_index.monitoring_sim_seconds();
  if (cluster_index.federation() != nullptr) {
    pass.federation_windows = cluster_index.federation()->windows().size();
  }
  std::string alerts;
  if (cluster_index.alerts() != nullptr) {
    pass.alert_transitions = cluster_index.alerts()->events().size();
    alerts = cluster_index.alerts()->ToJsonl();
  }
  pass.digest = cluster_index.CountersJson() + cluster_index.AggregatorJson() +
                Num(pass.sim_s) + "|" + Num(pass.recovery_sim_s) + "|" +
                Num(pass.monitoring_sim_s) + "|" + alerts;
  return pass;
}

void WorkloadCluster(const WorkloadSpec& spec, const Options& options,
                    Setup& setup, Progress& progress, Spans& spans,
                    std::size_t root, Report& report) {
  serve::ShardedIndex& index = *setup.index;
  const std::vector<serve::RoutedQuery> routed =
      Routed(setup.inputs.queries, spec.budget);

  // Single-node reference rows on the same batches.
  std::vector<std::vector<graph::Neighbor>> reference(routed.size());
  for (std::size_t q = 0; q < routed.size(); q += kClusterBatch) {
    const std::size_t count = std::min(kClusterBatch, routed.size() - q);
    auto rows = index.SearchBatch(std::span(routed).subspan(q, count),
                                  core::SearchKernel::kGanns);
    for (std::size_t i = 0; i < count; ++i) reference[q + i] = std::move(rows[i]);
  }

  PoolDelta pool;
  std::vector<ClusterPass> passes;
  std::vector<ClusterPass> untraced;
  Spans off(false);
  const auto start = Clock::now();
  const double seconds = options.trace ? options.seconds / 2 : options.seconds;
  // Untraced passes first in trace runs, for the tracing overhead.
  if (options.trace) {
    while (untraced.empty() || SecondsSince(start) < seconds) {
      untraced.push_back(RunClusterPass(index, routed, options.seed, true,
                                        progress, off, Spans::kNone));
    }
  }
  const auto traced_start = Clock::now();
  while (passes.empty() || SecondsSince(traced_start) < seconds) {
    passes.push_back(RunClusterPass(index, routed, options.seed, true,
                                    progress, spans, root));
  }
  pool.Report(report);

  std::vector<double> latency_ms, batch_ms, batch_sim_us;
  double wall_s = 0, lost = 0;
  for (const ClusterPass& pass : passes) {
    latency_ms.insert(latency_ms.end(), pass.latency_ms.begin(),
                      pass.latency_ms.end());
    batch_ms.insert(batch_ms.end(), pass.batch_ms.begin(), pass.batch_ms.end());
    batch_sim_us.insert(batch_sim_us.end(), pass.batch_sim_us.begin(),
                        pass.batch_sim_us.end());
    wall_s += pass.wall_s;
    lost += static_cast<double>(pass.lost);
  }
  double untraced_wall = 0, untraced_lost = 0;
  std::uint64_t mismatched_passes = 0;
  for (const ClusterPass& pass : untraced) {
    untraced_wall += pass.wall_s;
    untraced_lost += static_cast<double>(pass.lost);
  }
  for (const std::vector<ClusterPass>* set : {&passes, &untraced}) {
    for (const ClusterPass& pass : *set) {
      if (pass.rows != passes[0].rows || pass.digest != passes[0].digest) {
        ++mismatched_passes;
      }
    }
  }
  report.Check(passes[0].rows == reference, "cluster_equals_single_node",
               "cluster rows differ from ShardedIndex::SearchBatch");
  report.Check(mismatched_passes == 0, "cluster_passes_repeat",
               std::to_string(mismatched_passes) +
                   " passes differ in rows, counters, sim time or alerts");

  std::vector<std::vector<VertexId>> ids(routed.size());
  for (std::size_t q = 0; q < routed.size(); ++q) ids[q] = Ids(passes[0].rows[q]);
  const double recall = data::MeanRecall(ids, setup.inputs.truth, kK);
  const double sent = static_cast<double>(routed.size() * passes.size());
  const double untraced_sent =
      static_cast<double>(routed.size() * untraced.size());
  report.result.Add("attempted", sent + untraced_sent)
      .Add("failed", lost + untraced_lost)
      .Add("wall_s", wall_s)
      .Add("ok_reads", sent - lost)
      .Add("sent_reads", sent)
      .Add("sim_s", passes[0].sim_s)
      .Add("served", static_cast<double>(passes[0].served))
      .Add("latency_ms", latency_ms)
      .Add("latency_groups", static_cast<double>(batch_ms.size()))
      .Add("recall", recall)
      .Add("passes", static_cast<double>(passes.size()));
  const ClusterPass& first = passes[0];
  report.series.Add("cluster.batch_ms", batch_ms)
      .Add("cluster.batch_sim_us", batch_sim_us);
  std::vector<double> rejoin_ms;
  for (const ClusterPass& pass : passes) rejoin_ms.push_back(pass.rejoin_ms);
  report.layers.Add("cluster.rounds_per_batch", first.rounds)
      .Add("cluster.retries", static_cast<double>(first.counters.retries))
      .Add("cluster.failovers", static_cast<double>(first.counters.failovers))
      .Add("cluster.timeouts", static_cast<double>(first.counters.timeouts))
      .Add("cluster.lost_sub_queries",
           static_cast<double>(first.counters.lost_sub_queries))
      .Add("cluster.agg.coalescing_factor", first.aggregator.CoalescingFactor())
      .Add("cluster.agg.capacity_flushes",
           static_cast<double>(first.aggregator.capacity_flushes))
      .Add("cluster.agg.deadline_flushes",
           static_cast<double>(first.aggregator.deadline_flushes))
      .Add("cluster.transport.bytes", static_cast<double>(first.transport_bytes))
      .Add("cluster.rejoin_ms", Median(rejoin_ms))
      .Add("cluster.recovery_sim_s", first.recovery_sim_s)
      .Add("cluster.monitoring_sim_s", first.monitoring_sim_s)
      .Add("obs.federation.windows", static_cast<double>(first.federation_windows))
      .Add("obs.alerts.transitions", static_cast<double>(first.alert_transitions));
  report.determinism.Add("cluster.digest", first.digest)
      .Add("cluster.recall", recall);
  if (options.trace) {
    report.layers.Add("trace.overhead",
                      (untraced_sent / untraced_wall) / (sent / wall_s));
    // The monitoring plane and recovery work must stay off the serving
    // clock: a pass with the plane off charges the same serving time.
    const ClusterPass plain = RunClusterPass(index, routed, options.seed,
                                             false, progress, off, Spans::kNone);
    report.Check(plain.sim_s == first.sim_s && plain.rows == first.rows,
                 "cluster_plane_off_serving_clock",
                 "serving sim seconds " + Num(plain.sim_s) +
                     " with the plane off vs " + Num(first.sim_s) + " with it on");
    ReplayRoute(index, setup.inputs.queries, spec.budget, kClusterBatch, spans,
                root, report);
    ReplayKernel(index, setup.inputs.base, setup.inputs.queries, spec.budget,
                 spans, root, report);
  }
}

// ---------------------------------------------------------------------------
// build: GGraphCon on one simulated device, on one host thread, repeated for
// the run's seconds; each graph is scored by a GannsSearchBatch at l_n = 64.

void WorkloadBuild(const WorkloadSpec&, const Options& options, Setup& setup,
                  Progress& progress, Spans& spans, std::size_t root,
                  Report& report) {
  PoolDelta pool;
  std::vector<double> build_s, sim_s, recall, host_ns_per_kcycle, imbalance;
  std::optional<core::GpuBuildResult> last;
  const auto start = Clock::now();
  std::uint64_t builds = 0;
  while (builds == 0 || SecondsSince(start) < options.seconds) {
    progress.Add(1);
    ++builds;
    gpusim::Device device;
    const auto t = Clock::now();
    {
      Scope span(spans, "core.build_nsw_ggraphcon", root, builds);
      last.emplace(core::BuildNswGGraphCon(device, setup.inputs.base,
                                           core::GpuBuildParams{}));
    }
    build_s.push_back(SecondsSince(t));
    sim_s.push_back(last->sim_seconds);
    host_ns_per_kcycle.push_back(build_s.back() * 1e9 /
                                 (device.timeline_work_total() / 1e3));
    imbalance.push_back(device.SmLoadImbalance());
    core::GannsParams params;
    params.k = kK;
    params.l_n = kBuildQualityLn;
    gpusim::Device search_device;
    graph::BatchSearchResult result;
    {
      Scope span(spans, "core.ganns_search_batch", root, builds);
      result = core::GannsSearchBatch(search_device, last->graph,
                                      setup.inputs.base, setup.inputs.queries,
                                      params);
    }
    recall.push_back(data::MeanRecall(result.results, setup.inputs.truth, kK));
  }
  pool.Report(report);
  bool repeat = true;
  for (std::size_t i = 1; i < sim_s.size(); ++i) {
    repeat = repeat && sim_s[i] == sim_s[0] && recall[i] == recall[0];
  }
  report.Check(repeat, "build_repeats",
               "simulated build time or recall changed between builds");
  report.result.Add("attempted", static_cast<double>(builds))
      .Add("failed", 0.0)
      .Add("points", static_cast<double>(setup.inputs.base.size()))
      .Add("build_s", build_s)
      .Add("build_sim_s", sim_s[0])
      .Add("recall", recall[0]);
  report.layers.Add("core.ggraphcon.wall_s", Median(build_s))
      .Add("core.ggraphcon.sim_s", last->sim_seconds)
      .Add("core.ggraphcon.distance_work_cycles", last->distance_work_cycles)
      .Add("core.ggraphcon.ds_work_cycles", last->ds_work_cycles)
      .Add("gpusim.host_ns_per_kcycle", Median(host_ns_per_kcycle))
      .Add("gpusim.sm_imbalance", imbalance[0]);
  report.determinism.Add("build.sim_s", sim_s[0])
      .Add("build.recall", recall[0])
      .Add("build.distance_work_cycles", last->distance_work_cycles);
}

/// Workloads whose every library call runs on one host thread, through
/// RunOnPoolWorker. The serving workloads cannot: ServeEngine's batcher
/// thread is not a pool worker, so their shard fan-out uses the global pool.
bool OnOneThread(const std::string& workload) {
  return workload == "build" || workload == "cluster_failover";
}

void RunMeasured(const WorkloadSpec& spec, const Options& options,
                 Spans& spans, Progress& progress, Report& report,
                 std::size_t root) {
  // Set up several times; keep the last set-up for the measurement.
  std::vector<double> setup_s, generate_s, ground_truth_s, load_s;
  std::optional<Setup> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.reset();
    setup.emplace(RunSetup(spec, options, spans, root));
    setup_s.push_back(setup->total_s);
    generate_s.push_back(setup->generate_s);
    ground_truth_s.push_back(setup->ground_truth_s);
    load_s.push_back(setup->load_s);
  }
  Progress::Report(0);
  report.result.Add("setup_s", setup_s);
  report.layers.Add("data.generate_s", Median(generate_s))
      .Add("data.ground_truth_s", Median(ground_truth_s))
      .Add("serve.load_s", Median(load_s));

  if (spec.shards == 0) {
    WorkloadBuild(spec, options, *setup, progress, spans, root, report);
  } else if (options.workload == "serve_closed") {
    WorkloadServeClosed(spec, options, *setup, progress, spans, root, report);
  } else if (options.workload == "serve_online") {
    WorkloadServeOnline(spec, options, *setup, progress, spans, root, report);
  } else {
    WorkloadCluster(spec, options, *setup, progress, spans, root, report);
  }
}

int CmdRun(const Options& options) {
  const WorkloadSpec& spec = *FindWorkload(options.workload);
  if (spec.shards > 0 && options.fixture_dir.empty()) {
    Die("workload '" + options.workload + "' needs --fixture DIR");
  }
  Spans spans(options.trace);
  Progress progress;
  Report report;
  const std::size_t root = spans.Begin("run");
  const auto measured = [&] {
    RunMeasured(spec, options, spans, progress, report, root);
  };
  if (OnOneThread(options.workload)) {
    RunOnPoolWorker(measured);
  } else {
    measured();
  }
  spans.End(root);

  if (options.trace) {
    Object self;
    for (const auto& [name, ms] : spans.SelfMsByName()) self.Add(name, ms);
    report.result.Raw("span_self_ms", self.str());
    if (!options.trace_out.empty() && !spans.Write(options.trace_out)) {
      Die("cannot write " + options.trace_out);
    }
    report.result.Add("spans", static_cast<double>(spans.size()));
  }
  std::string checks = "[";
  for (std::size_t i = 0; i < report.failed_checks.size(); ++i) {
    checks += (i ? "," : "") + std::string("{\"name\":") +
              Quote(report.failed_checks[i].first) +
              ",\"detail\":" + Quote(report.failed_checks[i].second) + "}";
  }
  checks += "]";
  report.result.Raw("failed_checks", checks)
      .Raw("layers", report.layers.str())
      .Raw("series", report.series.str())
      .Raw("determinism", report.determinism.str());
  PrintLine("{\"result\":" + report.result.str() + "}");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);
  return options.mode == "fixture" ? CmdFixture(options) : CmdRun(options);
}
