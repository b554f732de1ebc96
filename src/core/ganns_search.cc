#include "core/ganns_search.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/scratch.h"
#include "core/ganns_search_reference.h"
#include "data/distance.h"
#include "gpusim/bitonic.h"
#include "gpusim/bitonic_reference.h"
#include "graph/rerank.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ganns {
namespace core {
namespace {

constexpr const char* kPhaseNames[kNumGannsPhases] = {
    "locate", "explore", "distance", "lazy_check", "sort", "merge"};

/// Cycle-snapshot phase timer for one GannsSearchOne call. Inactive unless
/// the caller wants a profile or the launch is tracing; active it reads the
/// block's running charge total around each phase — observation only, the
/// totals themselves are untouched.
class PhaseTimer {
 public:
  PhaseTimer(gpusim::BlockContext& block, bool active)
      : block_(block), active_(active), tracing_(active && block.tracing()) {
    if (tracing_) {
      static const obs::NameId kIds[kNumGannsPhases] = {
          obs::InternName("ganns.locate"),      obs::InternName("ganns.explore"),
          obs::InternName("ganns.distance"),    obs::InternName("ganns.lazy_check"),
          obs::InternName("ganns.sort"),        obs::InternName("ganns.merge")};
      ids_ = kIds;
    }
  }

  void Begin() {
    if (active_) begin_ = block_.cost().total_cycles();
  }

  void End(int phase) {
    if (!active_) return;
    const double now = block_.cost().total_cycles();
    phase_cycles_[phase] += now - begin_;
    if (tracing_ && now > begin_) {
      block_.TraceSpan(ids_[phase], begin_, now);
    }
    begin_ = now;
  }

  const std::array<double, kNumGannsPhases>& phase_cycles() const {
    return phase_cycles_;
  }

 private:
  gpusim::BlockContext& block_;
  bool active_;
  bool tracing_;
  const obs::NameId* ids_ = nullptr;
  double begin_ = 0;
  std::array<double, kNumGannsPhases> phase_cycles_{};
};

/// One element of the fixed-length arrays N and T: distance to the query,
/// vertex id, and the explored flag of §III-B. Sentinel slots carry
/// (kInfDist, kInvalidVertex, explored=true) so they sort to the tail and
/// are never selected for exploration.
struct Slot {
  Dist dist = kInfDist;
  VertexId id = kInvalidVertex;
  bool explored = true;
};

constexpr Slot kSentinelSlot{};

/// Strict weak order by (dist, id) — the sort key of phases (5)/(6), with
/// ties broken by vertex id as the paper specifies.
bool SlotLess(const Slot& a, const Slot& b) {
  if (a.dist != b.dist) return a.dist < b.dist;
  return a.id < b.id;
}

}  // namespace

std::optional<std::string> GannsParams::Validate() const {
  if (k < 1) {
    return "invalid k = " + std::to_string(k) + ": must be >= 1";
  }
  if ((l_n & (l_n - 1)) != 0 || l_n < k) {
    return "invalid l_n = " + std::to_string(l_n) +
           ": must be a power of two >= k (k = " + std::to_string(k) + ")";
  }
  return std::nullopt;
}

const char* GannsPhaseName(int phase) {
  GANNS_CHECK(phase >= 0 && phase < kNumGannsPhases);
  return kPhaseNames[phase];
}

namespace {

/// State one search call shares between its set-up, its iteration loop and
/// its result write-back.
struct KernelState {
  gpusim::Warp& warp;
  const graph::ProximityGraph& graph;
  const data::Dataset& base;
  std::span<const float> query;
  const GannsParams& params;
  std::size_t l_n;
  std::size_t l_t;
  std::size_t e;
  std::span<Slot> result_array;   // N
  std::span<Slot> visiting;       // T
  std::span<Slot> merge_scratch;
  /// Non-null on the compressed path: in-loop distances are code distances.
  const data::CodeDistanceContext* code_ctx;
  graph::QueryHardness* hardness;
  PhaseTimer& phases;
  GannsSearchStats& local;
};

/// Phase (1): candidate locating. Warp-wide ballot over the explored flags
/// of N[0..e), __ffs picks the first unexplored vertex. Returns e when every
/// candidate is explored.
std::size_t LocateCandidate(const KernelState& s) {
  for (std::size_t chunk = 0; chunk < s.e; chunk += gpusim::kWarpSize) {
    const int n = static_cast<int>(
        chunk + gpusim::kWarpSize <= s.e ? gpusim::kWarpSize : s.e - chunk);
    const std::uint32_t mask = s.warp.BallotSync(n, [&](int lane) {
      const Slot& slot = s.result_array[chunk + lane];
      return slot.id != kInvalidVertex && !slot.explored;
    });
    if (mask != 0) {
      return chunk + static_cast<std::size_t>(gpusim::Warp::Ffs(mask));
    }
  }
  return s.e;
}

/// Safety bound on iterations: every iteration explores one unexplored slot
/// of N and a vertex can only be re-explored when the ablation disables the
/// lazy check, so l_n * 64 is far beyond any legitimate run.
std::size_t MaxIterations(const KernelState& s) { return s.l_n * 64; }

/// The kernel as the GPU runs it: T is filled, every neighbor's distance is
/// computed, phase (4) binary-searches N, and T is sorted and merged.
void RunLiteralLoop(KernelState& s) {
  gpusim::Warp& warp = s.warp;
  const graph::ProximityGraph& graph = s.graph;
  const data::Dataset& base = s.base;
  const GannsParams& params = s.params;
  const std::size_t l_n = s.l_n;
  const std::size_t l_t = s.l_t;
  std::span<Slot> result_array = s.result_array;
  std::span<Slot> visiting = s.visiting;
  const data::CodeDistanceContext* code_ctx = s.code_ctx;
  const bool quantized = code_ctx != nullptr;
  graph::QueryHardness* hardness = s.hardness;
  PhaseTimer& phases = s.phases;
  GannsSearchStats& local = s.local;
  while (local.iterations < MaxIterations(s)) {
    phases.Begin();
    const std::size_t explore_pos = LocateCandidate(s);
    if (explore_pos == s.e) {
      phases.End(0);
      break;  // all candidates explored: terminate
    }
    phases.End(0);
    ++local.iterations;

    // Phase (2): neighborhood exploration. Load the adjacency row of the
    // exploring vertex into T cooperatively; mark it explored.
    const VertexId exploring = result_array[explore_pos].id;
    result_array[explore_pos].explored = true;
    warp.ChargeGlobalLoad(graph.d_max(), gpusim::CostCategory::kDataStructure);
    const auto neighbor_ids = graph.Neighbors(exploring);
    const std::size_t degree = graph.Degree(exploring);
    if (hardness != nullptr && local.iterations == 1) {
      hardness->early_fanout = static_cast<std::uint32_t>(degree);
    }
    warp.ParallelFor(l_t, gpusim::CostCategory::kDataStructure,
                     warp.params().shared_access, [&](std::size_t i) {
                       visiting[i] = i < degree
                                         ? Slot{0.0f, neighbor_ids[i], false}
                                         : kSentinelSlot;
                     });
    phases.End(1);

    // Phase (3): bulk distance computation, one vertex of T at a time with
    // every lane of the warp cooperating (sub-vector per lane +
    // __shfl_down_sync reduction). The host computes the whole batch through
    // the SIMD distance layer and charges it in one addition of `degree`
    // per-vertex costs.
    if (degree > 0) {
      if (quantized) {
        for (std::size_t i = 0; i < degree; ++i) {
          warp.ChargeCodeDistance(code_ctx->code_bytes());
          ++local.distance_computations;
          visiting[i].dist = code_ctx->One(visiting[i].id);
        }
      } else {
        SearchScratch& scratch = ThreadLocalSearchScratch();
        scratch.ids.clear();
        for (std::size_t i = 0; i < degree; ++i) {
          scratch.ids.push_back(visiting[i].id);
        }
        scratch.dists.resize(degree);
        data::DistanceMany(base, scratch.ids, s.query, scratch.dists);
        warp.ChargeDistances(degree, base.dim());
        local.distance_computations += degree;
        for (std::size_t i = 0; i < degree; ++i) {
          visiting[i].dist = scratch.dists[i];
        }
      }
    }
    phases.End(2);

    // Phase (4): lazy check. Parallel binary search of each visiting vertex
    // in the sorted array N; a hit means its distance was re-computed
    // redundantly, and the slot is neutralized so the duplicate cannot
    // propagate (it is marked explored and pushed to the tail by the sort).
    if (!params.disable_lazy_check) {
      warp.ChargeBinarySearch(degree, l_n,
                              gpusim::CostCategory::kDataStructure);
      for (std::size_t i = 0; i < degree; ++i) {
        const Slot& probe = visiting[i];
        std::size_t lo = 0;
        std::size_t hi = l_n;
        while (lo < hi) {
          const std::size_t mid = (lo + hi) / 2;
          if (SlotLess(result_array[mid], probe)) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        if (lo < l_n && result_array[lo].id == probe.id &&
            result_array[lo].dist == probe.dist) {
          ++local.redundant_distances;
          visiting[i] = kSentinelSlot;
        }
      }
    }
    phases.End(3);

    // Phase (5): bitonic sort of T by (dist, id); sentinel slots sink to the
    // tail because they carry infinite distance.
    gpusim::BitonicSort(warp, visiting, SlotLess,
                        gpusim::CostCategory::kDataStructure);
    phases.End(4);

    // Phase (6): candidate update. Bitonic merge keeps the l_n closest
    // vertices of T ∪ N in N. A vertex that was explored and later discarded
    // from N can never re-enter: the l_n-th distance of N only decreases.
    if (params.disable_lazy_check) {
      // Without phase (4), N and T can hold the same (dist, id) with
      // different explored flags. The network's tie order then decides
      // which copy survives at the l_n and e boundaries, and so which one
      // phase (1) explores; only the executed network reproduces it.
      gpusim::reference::MergeSortedKeepFirst(
          warp, result_array, std::span<const Slot>(visiting), s.merge_scratch,
          kSentinelSlot, SlotLess, gpusim::CostCategory::kDataStructure);
    } else {
      gpusim::MergeSortedKeepFirst(
          warp, result_array, std::span<const Slot>(visiting), s.merge_scratch,
          SlotLess, gpusim::CostCategory::kDataStructure);
    }
    phases.End(5);
  }
}

/// The lazy-check kernel with each vertex's distance computed once per query
/// on the host (DESIGN.md §4b). Under SlotLess the last slot of N never gets
/// worse, so a vertex whose distance this query already computed is either
/// in N now — the lazy check finds it and drops it as redundant — or can
/// never enter N again. `memo` remembers which vertices this query has seen
/// and their copies in N, so phases (3)-(6) touch only the neighbors seen
/// for the first time, while every charge is the one RunLiteralLoop makes,
/// in the same phase and order.
void RunFastLoop(KernelState& s, QueryVertexMemo& memo, std::uint32_t stamp) {
  gpusim::Warp& warp = s.warp;
  const std::size_t l_n = s.l_n;
  std::span<Slot> result_array = s.result_array;
  SearchScratch& scratch = ThreadLocalSearchScratch();
  // Neighbors first seen this iteration. A row that repeats such an id
  // lists it twice, as T would hold both copies.
  std::vector<VertexId>& fresh = scratch.ids;
  std::vector<Dist>& fresh_dists = scratch.dists;
  // Fresh neighbors that beat N's last slot, as (dist, id): SlotLess order.
  std::vector<std::pair<Dist, VertexId>>& entering = scratch.heap;
  while (s.local.iterations < MaxIterations(s)) {
    s.phases.Begin();
    const std::size_t explore_pos = LocateCandidate(s);
    if (explore_pos == s.e) {
      s.phases.End(0);
      break;
    }
    s.phases.End(0);
    const std::uint32_t iteration =
        static_cast<std::uint32_t>(++s.local.iterations);

    // Phase (2): charged as the kernel loads the row into T; the host reads
    // the row in place.
    const VertexId exploring = result_array[explore_pos].id;
    result_array[explore_pos].explored = true;
    warp.ChargeGlobalLoad(s.graph.d_max(), gpusim::CostCategory::kDataStructure);
    const auto neighbor_ids = s.graph.Neighbors(exploring);
    const std::size_t degree = s.graph.Degree(exploring);
    if (s.hardness != nullptr && iteration == 1) {
      s.hardness->early_fanout = static_cast<std::uint32_t>(degree);
    }
    warp.ChargeParallelFor(s.l_t, gpusim::CostCategory::kDataStructure,
                           warp.params().shared_access);
    s.phases.End(1);

    // Phase (3): the kernel computes all `degree` distances; the host only
    // those of vertices this query has not seen. A neighbor already in N is
    // what phase (4) will count as redundant.
    std::size_t redundant = 0;
    fresh.clear();
    for (std::size_t i = 0; i < degree; ++i) {
      const VertexId v = neighbor_ids[i];
      QueryVertexMemo::Entry& entry = memo.entries[v];
      if (entry.stamp != stamp) {
        entry = {stamp, iteration, 0};
        fresh.push_back(v);
      } else if (entry.in_result > 0) {
        ++redundant;
      } else if (entry.iteration == iteration) {
        fresh.push_back(v);  // repeated id within this row
      }
      // Otherwise v lost to N's last slot before and cannot enter now.
    }
    if (degree > 0) {
      fresh_dists.resize(fresh.size());
      if (s.code_ctx != nullptr) {
        s.code_ctx->Many(fresh, fresh_dists);
        warp.ChargeCodeDistances(degree, s.code_ctx->code_bytes());
      } else {
        data::DistanceMany(s.base, fresh, s.query, fresh_dists);
        warp.ChargeDistances(degree, s.base.dim());
      }
      s.local.distance_computations += degree;
    }
    s.phases.End(2);

    // Phase (4): lazy check, counted from the memo instead of searched.
    warp.ChargeBinarySearch(degree, l_n, gpusim::CostCategory::kDataStructure);
    s.local.redundant_distances += redundant;
    s.phases.End(3);

    // Phase (5): only candidates that beat N's last slot can enter N; the
    // network sorts all l_t slots of T.
    const Slot& tail = result_array[l_n - 1];
    entering.clear();
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      if (SlotLess(Slot{fresh_dists[i], fresh[i], false}, tail)) {
        entering.emplace_back(fresh_dists[i], fresh[i]);
      }
    }
    std::sort(entering.begin(), entering.end());
    gpusim::ChargeBitonicSort(warp, s.l_t, gpusim::CostCategory::kDataStructure);
    s.phases.End(4);

    // Phase (6): merge the entering vertices into N from the tail, keeping
    // the l_n smallest; N wins ties, as in MergeSortedKeepFirst. The
    // |entering| largest of the union drop out.
    std::size_t i = l_n;
    std::size_t j = entering.size();
    for (std::size_t out = l_n + entering.size(); j > 0;) {
      --out;
      const Slot incoming{entering[j - 1].first, entering[j - 1].second, false};
      if (i > 0 && SlotLess(incoming, result_array[i - 1])) {
        const Slot moved = result_array[--i];
        if (out < l_n) {
          result_array[out] = moved;
        } else if (moved.id != kInvalidVertex) {
          --memo.entries[moved.id].in_result;  // evicted
        }
      } else {
        --j;
        if (out < l_n) {
          result_array[out] = incoming;
          ++memo.entries[incoming.id].in_result;
        }
      }
    }
    gpusim::ChargeMergeSortedKeepFirst(warp, l_n, s.l_t,
                                       gpusim::CostCategory::kDataStructure);
    s.phases.End(5);
  }
}

std::vector<graph::Neighbor> SearchImpl(
    bool literal, gpusim::BlockContext& block,
    const graph::ProximityGraph& graph, const data::Dataset& base,
    std::span<const float> query, const GannsParams& params, VertexId entry,
    GannsSearchStats* stats, GannsQueryProfile* profile,
    const data::SearchQuantization* quant, graph::QueryHardness* hardness) {
  GANNS_CHECK(params.k >= 1);
  GANNS_CHECK(params.l_n >= params.k);
  GANNS_CHECK_MSG((params.l_n & (params.l_n - 1)) == 0,
                  "l_n must be a power of two, got " << params.l_n);
  GANNS_CHECK(entry < graph.num_vertices());
  gpusim::Warp& warp = block.warp();
  GannsSearchStats local;

  const std::size_t l_n = params.l_n;
  const std::size_t l_t = gpusim::NextPow2(graph.d_max());

  // Shared-memory arrays (§III-B "Data Structures and Memory Allocation"):
  // N holds the top results and potential exploring vertices, T the visiting
  // vertices of the current iteration. The fast path allocates T and the
  // merge layout too: the kernel it charges for holds them.
  std::span<Slot> result_array = block.AllocShared<Slot>(l_n);    // N
  std::span<Slot> visiting = block.AllocShared<Slot>(l_t);        // T
  std::span<Slot> merge_scratch = block.AllocShared<Slot>(
      2 * gpusim::NextPow2(l_n > l_t ? l_n : l_t));

  // Compressed path: in-loop distances come from the packed codes (narrower
  // loads); the PQ LUT is built — and charged — once per query up front.
  const bool quantized = quant != nullptr && quant->enabled();
  std::optional<data::CodeDistanceContext> code_ctx;
  if (quantized) {
    code_ctx.emplace(*quant, base.metric(), query);
    warp.ChargeLutBuild(code_ctx->lut_build_words());
  }

  ++local.distance_computations;
  Dist entry_dist;
  if (quantized) {
    warp.ChargeCodeDistance(code_ctx->code_bytes());
    entry_dist = code_ctx->One(entry);
  } else {
    warp.ChargeDistance(base.dim());
    entry_dist = data::ExactDistance(base.metric(), base.Point(entry), query);
  }
  result_array[0] = Slot{entry_dist, entry, false};
  if (hardness != nullptr) hardness->entry_distance = entry_dist;

  PhaseTimer phases(block, profile != nullptr || block.tracing());
  KernelState state{warp,         graph,
                    base,         query,
                    params,       l_n,
                    l_t,          params.EffectiveE(),
                    result_array, visiting,
                    merge_scratch, quantized ? &*code_ctx : nullptr,
                    hardness,     phases,
                    local};
  if (literal) {
    RunLiteralLoop(state);
  } else {
    // ExactDistance and DistanceMany run the same dispatched kernel, so the
    // lazy check would find the entry in N whenever its row lists it.
    QueryVertexMemo& memo = ThreadLocalQueryVertexMemo();
    const std::uint32_t stamp = memo.BeginQuery(graph.num_vertices());
    memo.entries[entry] = {stamp, 0, 1};
    RunFastLoop(state, memo, stamp);
  }

  // Result write-back: the first k valid entries of N (already sorted).
  // Tombstoned vertices stay traversable during the walk (their rows route
  // the search) but are filtered here, so a search over a mutated graph
  // returns only live points; with no deletions the filter passes everything.
  std::vector<graph::Neighbor> out;
  if (quantized) {
    // Stage two: collect the full live candidate pool of N (still ordered by
    // approximate distance) and exact-rerank the top rerank_factor * k from
    // the float rows before emission. Rerank distances are full-width reads,
    // charged like any exact distance.
    out.reserve(l_n);
    for (std::size_t i = 0; i < l_n; ++i) {
      if (result_array[i].id == kInvalidVertex) break;
      if (!graph.IsLive(result_array[i].id)) continue;
      out.push_back({result_array[i].dist, result_array[i].id});
    }
    const std::size_t evals =
        graph::ExactRerank(base, query, out, params.k, quant->rerank_factor);
    warp.ChargeDistances(evals, base.dim());
    local.distance_computations += evals;
  } else {
    out.reserve(params.k);
    for (std::size_t i = 0; i < l_n && out.size() < params.k; ++i) {
      if (result_array[i].id == kInvalidVertex) break;
      if (!graph.IsLive(result_array[i].id)) continue;
      out.push_back({result_array[i].dist, result_array[i].id});
    }
  }
  warp.cost().Charge(gpusim::CostCategory::kOther,
                     warp.StepsFor(params.k) * warp.params().global_transaction);
  if (stats != nullptr) stats->Add(local);
  if (hardness != nullptr) {
    hardness->visited =
        static_cast<std::uint32_t>(local.distance_computations);
    hardness->budget = static_cast<std::uint32_t>(l_n);
  }

  if (profile != nullptr) {
    std::uint32_t occupancy = 0;
    for (std::size_t i = 0; i < l_n; ++i) {
      if (result_array[i].id != kInvalidVertex) ++occupancy;
    }
    profile->hops = static_cast<std::uint32_t>(local.iterations);
    profile->distance_computations =
        static_cast<std::uint32_t>(local.distance_computations);
    profile->redundant_distances =
        static_cast<std::uint32_t>(local.redundant_distances);
    profile->result_occupancy = occupancy;
    profile->total_cycles = block.cost().total_cycles();
    profile->phase_cycles = phases.phase_cycles();
  }
  return out;
}

}  // namespace

std::vector<graph::Neighbor> GannsSearchOne(
    gpusim::BlockContext& block, const graph::ProximityGraph& graph,
    const data::Dataset& base, std::span<const float> query,
    const GannsParams& params, VertexId entry, GannsSearchStats* stats,
    GannsQueryProfile* profile, const data::SearchQuantization* quant,
    graph::QueryHardness* hardness) {
  // Without the lazy check the network's tie order decides which duplicate
  // is explored (DESIGN.md §4b); only the literal kernel reproduces it.
  return SearchImpl(params.disable_lazy_check, block, graph, base, query,
                    params, entry, stats, profile, quant, hardness);
}

namespace reference {

std::vector<graph::Neighbor> GannsSearchOne(
    gpusim::BlockContext& block, const graph::ProximityGraph& graph,
    const data::Dataset& base, std::span<const float> query,
    const GannsParams& params, VertexId entry, GannsSearchStats* stats,
    GannsQueryProfile* profile, const data::SearchQuantization* quant,
    graph::QueryHardness* hardness) {
  return SearchImpl(true, block, graph, base, query, params, entry, stats,
                    profile, quant, hardness);
}

}  // namespace reference

graph::BatchSearchResult GannsSearchBatch(gpusim::Device& device,
                                          const graph::ProximityGraph& graph,
                                          const data::Dataset& base,
                                          const data::Dataset& queries,
                                          const GannsParams& params,
                                          int block_lanes, VertexId entry,
                                          std::vector<GannsQueryProfile>* profiles,
                                          const data::SearchQuantization* quant) {
  GANNS_CHECK(base.dim() == queries.dim());
  graph::BatchSearchResult batch;
  batch.results.resize(queries.size());

  // Metrics want per-query numbers even when the caller did not ask for
  // profiles; collect into a local vector in that case.
  std::vector<GannsQueryProfile> metrics_profiles;
  if (profiles == nullptr && obs::MetricsEnabled()) {
    profiles = &metrics_profiles;
  }
  if (profiles != nullptr) {
    profiles->assign(queries.size(), GannsQueryProfile{});
  }

  batch.kernel = device.Launch(
      "ganns_search", static_cast<int>(queries.size()), block_lanes,
      [&](gpusim::BlockContext& block) {
        const VertexId q = static_cast<VertexId>(block.block_id());
        GannsQueryProfile* profile =
            profiles != nullptr ? &(*profiles)[q] : nullptr;
        const std::vector<graph::Neighbor> found = GannsSearchOne(
            block, graph, base, queries.Point(q), params, entry, nullptr,
            profile, quant);
        auto& out = batch.results[q];
        out.reserve(found.size());
        for (const graph::Neighbor& n : found) out.push_back(n.id);
      });

  if (obs::MetricsEnabled() && profiles != nullptr) {
    auto& registry = obs::MetricsRegistry::Global();
    obs::Histogram& hops = registry.GetHistogram("ganns.hops_per_query");
    obs::Histogram& dists = registry.GetHistogram("ganns.dist_evals_per_query");
    obs::Histogram& occupancy = registry.GetHistogram("ganns.result_occupancy");
    for (const GannsQueryProfile& p : *profiles) {
      hops.Record(p.hops);
      dists.Record(p.distance_computations);
      occupancy.Record(p.result_occupancy);
    }
    registry.GetCounter("ganns.queries").Add(queries.size());
    registry.GetCounter("ganns.redundant_distances")
        .Add([&] {
          std::uint64_t total = 0;
          for (const GannsQueryProfile& p : *profiles)
            total += p.redundant_distances;
          return total;
        }());
  }

  batch.sim_seconds = device.CyclesToSeconds(batch.kernel.sim_cycles);
  batch.qps = batch.sim_seconds > 0
                  ? static_cast<double>(queries.size()) / batch.sim_seconds
                  : 0;
  return batch;
}

}  // namespace core
}  // namespace ganns
