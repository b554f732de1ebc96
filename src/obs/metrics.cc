#include "obs/metrics.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/window.h"

namespace ganns {
namespace obs {
/// Per-instance metric maps. std::map keeps export order sorted by name;
/// unique_ptr keeps references stable across inserts, so a cached Get*
/// reference outlives any later interning.
struct MetricsRegistry::State {
  mutable std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
  std::map<std::string, std::unique_ptr<HdrHistogram>, std::less<>> hdr;
};

MetricsRegistry::MetricsRegistry() : state_(std::make_unique<State>()) {}
MetricsRegistry::~MetricsRegistry() = default;

Histogram::Histogram(std::span<const std::uint64_t> bounds)
    : bounds_(bounds.begin(), bounds.end()),
      buckets_(bounds.size() + 1) {
  GANNS_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::Record(std::uint64_t value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::Quantile(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  const std::uint64_t target = static_cast<std::uint64_t>(
      q * static_cast<double>(total) + 0.5);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    cumulative += bucket_count(i);
    if (cumulative >= target) return bounds_[i];
  }
  return max();
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

std::span<const std::uint64_t> Pow2Bounds() {
  static const std::vector<std::uint64_t>* bounds = [] {
    auto* b = new std::vector<std::uint64_t>();
    for (std::uint64_t bound = 1; bound <= (1u << 20); bound <<= 1) {
      b->push_back(bound);
    }
    return b;
  }();
  return *bounds;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  State& state = *state_;
  std::lock_guard<std::mutex> lock(state.mutex);
  auto it = state.counters.find(name);
  if (it == state.counters.end()) {
    it = state.counters.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  State& state = *state_;
  std::lock_guard<std::mutex> lock(state.mutex);
  auto it = state.gauges.find(name);
  if (it == state.gauges.end()) {
    it = state.gauges.emplace(std::string(name), std::make_unique<Gauge>())
             .first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(
    std::string_view name, std::span<const std::uint64_t> bounds) {
  State& state = *state_;
  std::lock_guard<std::mutex> lock(state.mutex);
  auto it = state.histograms.find(name);
  if (it == state.histograms.end()) {
    it = state.histograms
             .emplace(std::string(name), std::make_unique<Histogram>(bounds))
             .first;
  }
  return *it->second;
}

HdrHistogram& MetricsRegistry::GetHdr(std::string_view name) {
  State& state = *state_;
  std::lock_guard<std::mutex> lock(state.mutex);
  auto it = state.hdr.find(name);
  if (it == state.hdr.end()) {
    it = state.hdr.emplace(std::string(name), std::make_unique<HdrHistogram>())
             .first;
  }
  return *it->second;
}

void MetricsRegistry::Reset() {
  State& state = *state_;
  std::lock_guard<std::mutex> lock(state.mutex);
  for (auto& [name, counter] : state.counters) counter->Reset();
  for (auto& [name, gauge] : state.gauges) gauge->Reset();
  for (auto& [name, histogram] : state.histograms) histogram->Reset();
  for (auto& [name, hdr] : state.hdr) hdr->Reset();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  State& state = *state_;
  std::lock_guard<std::mutex> lock(state.mutex);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(state.counters.size());
  for (const auto& [name, counter] : state.counters) {
    snapshot.counters.emplace_back(name, counter->value());
  }
  snapshot.gauges.reserve(state.gauges.size());
  for (const auto& [name, gauge] : state.gauges) {
    snapshot.gauges.emplace_back(name, gauge->value());
  }
  snapshot.hdr.reserve(state.hdr.size());
  for (const auto& [name, hdr] : state.hdr) {
    snapshot.hdr.emplace_back(name, hdr->SnapshotBuckets());
  }
  return snapshot;
}

std::string MetricsRegistry::ToJson() const {
  State& state = *state_;
  std::lock_guard<std::mutex> lock(state.mutex);
  std::string out = "{\n\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : state.counters) {
    if (!first) out += ",";
    first = false;
    out += "\n\"" + name + "\":" + std::to_string(counter->value());
  }
  out += "\n},\n\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : state.gauges) {
    if (!first) out += ",";
    first = false;
    out += "\n\"" + name + "\":";
    AppendFixed(out, gauge->value(), 6);
  }
  out += "\n},\n\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : state.histograms) {
    if (!first) out += ",";
    first = false;
    out += "\n\"" + name + "\":{\"count\":" +
           std::to_string(histogram->count()) +
           ",\"sum\":" + std::to_string(histogram->sum()) +
           ",\"max\":" + std::to_string(histogram->max()) + ",\"buckets\":[";
    for (std::size_t i = 0; i < histogram->num_buckets(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(histogram->bucket_count(i));
    }
    out += "],\"bounds\":[";
    const auto bounds = histogram->bounds();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(bounds[i]);
    }
    out += "]}";
  }
  out += "\n},\n\"hdr\":{";
  first = true;
  for (const auto& [name, hdr] : state.hdr) {
    if (!first) out += ",";
    first = false;
    out += "\n\"" + name + "\":{\"count\":" + std::to_string(hdr->count()) +
           ",\"sum\":" + std::to_string(hdr->sum()) +
           ",\"min\":" + std::to_string(hdr->min()) +
           ",\"max\":" + std::to_string(hdr->max()) + ",\"mean\":";
    AppendFixed(out, hdr->mean(), 6);
    out += ",\"p50\":" + std::to_string(hdr->ValueAtQuantile(0.50)) +
           ",\"p90\":" + std::to_string(hdr->ValueAtQuantile(0.90)) +
           ",\"p95\":" + std::to_string(hdr->ValueAtQuantile(0.95)) +
           ",\"p99\":" + std::to_string(hdr->ValueAtQuantile(0.99)) +
           ",\"p999\":" + std::to_string(hdr->ValueAtQuantile(0.999)) +
           ",\"exemplars\":[";
    bool first_exemplar = true;
    for (const HdrHistogram::Exemplar& exemplar : hdr->exemplars()) {
      if (!first_exemplar) out += ",";
      first_exemplar = false;
      out += "{\"id\":" + std::to_string(exemplar.id) +
             ",\"value\":" + std::to_string(exemplar.value) + "}";
    }
    out += "]}";
  }
  out += "\n}\n}\n";
  return out;
}

std::string MetricsRegistry::ToPrometheus() const {
  State& state = *state_;
  std::lock_guard<std::mutex> lock(state.mutex);
  std::string out;
  for (const auto& [name, counter] : state.counters) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(counter->value()) + "\n";
  }
  for (const auto& [name, gauge] : state.gauges) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " ";
    AppendFixed(out, gauge->value(), 6);
    out += "\n";
  }
  for (const auto& [name, histogram] : state.histograms) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " histogram\n";
    std::uint64_t cumulative = 0;
    const auto bounds = histogram->bounds();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cumulative += histogram->bucket_count(i);
      out += prom + "_bucket{le=\"" + std::to_string(bounds[i]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += prom + "_bucket{le=\"+Inf\"} " + std::to_string(histogram->count()) +
           "\n";
    out += prom + "_sum " + std::to_string(histogram->sum()) + "\n";
    out += prom + "_count " + std::to_string(histogram->count()) + "\n";
  }
  for (const auto& [name, hdr] : state.hdr) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " summary\n";
    for (const auto& [label, q] :
         {std::pair<const char*, double>{"0.5", 0.50},
          {"0.9", 0.90},
          {"0.95", 0.95},
          {"0.99", 0.99},
          {"0.999", 0.999}}) {
      out += prom + "{quantile=\"" + label + "\"} " +
             std::to_string(hdr->ValueAtQuantile(q)) + "\n";
    }
    out += prom + "_sum " + std::to_string(hdr->sum()) + "\n";
    out += prom + "_count " + std::to_string(hdr->count()) + "\n";
  }
  return out;
}

bool MetricsRegistry::WritePrometheus(const std::string& path) const {
  return WriteTextFile(path, ToPrometheus());
}

bool MetricsRegistry::WriteJson(const std::string& path) const {
  return WriteTextFile(path, ToJson());
}

void SnapshotRuntimeMetrics() {
  const ThreadPool::Stats stats = ThreadPool::Global().stats();
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetGauge("threadpool.parallel_for_calls")
      .Set(static_cast<double>(stats.parallel_for_calls));
  registry.GetGauge("threadpool.inline_runs")
      .Set(static_cast<double>(stats.inline_runs));
  registry.GetGauge("threadpool.chunks_claimed")
      .Set(static_cast<double>(stats.chunks_claimed));
  registry.GetGauge("threadpool.helper_tasks")
      .Set(static_cast<double>(stats.helper_tasks));
  registry.GetGauge("threadpool.num_threads")
      .Set(static_cast<double>(ThreadPool::Global().num_threads()));
}

}  // namespace obs
}  // namespace ganns
