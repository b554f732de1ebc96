#include "obs/federation.h"

#include <map>
#include <utility>

#include "common/logging.h"

namespace ganns {
namespace obs {
namespace {

/// Bucket-wise sum of sparse snapshots (BucketSnapshot carries each bucket's
/// own count, not a running total). Merging then delta-ing equals delta-ing
/// then merging, so the cluster window quantile is exact.
struct BucketSum {
  std::map<std::uint32_t, std::uint64_t> buckets;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void Add(const HdrHistogram::BucketSnapshot& snapshot) {
    for (const auto& [index, n] : snapshot.buckets) buckets[index] += n;
    count += snapshot.count;
    sum += snapshot.sum;
  }

  HdrHistogram::BucketSnapshot Finish() const {
    HdrHistogram::BucketSnapshot out;
    out.buckets.assign(buckets.begin(), buckets.end());
    out.count = count;
    out.sum = sum;
    return out;
  }
};

}  // namespace

std::uint64_t SnapshotWireBytes(const MetricsSnapshot& snapshot) {
  std::uint64_t bytes = 32;  // response envelope
  for (const auto& [name, value] : snapshot.counters) {
    bytes += name.size() + 8;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    bytes += name.size() + 8;
  }
  for (const auto& [name, hdr] : snapshot.hdr) {
    bytes += name.size() + 24 + hdr.buckets.size() * 12;
  }
  return bytes;
}

MetricsFederation::MetricsFederation(FederationOptions options)
    : options_(options) {
  GANNS_CHECK(options_.scrape_interval_us > 0);
  next_scrape_us_ = options_.scrape_interval_us;
}

void MetricsFederation::AddNode(NodeHooks hooks) {
  NodeState state;
  state.hooks = std::move(hooks);
  nodes_.push_back(std::move(state));
}

void MetricsFederation::SetControl(std::function<MetricsSnapshot()> control) {
  control_ = std::move(control);
}

std::vector<FederatedWindow> MetricsFederation::AdvanceTo(
    std::uint64_t now_us) {
  std::vector<FederatedWindow> cut;
  while (next_scrape_us_ <= now_us) {
    cut.push_back(Scrape(next_scrape_us_));
    next_scrape_us_ += options_.scrape_interval_us;
  }
  return cut;
}

FederatedWindow MetricsFederation::Scrape(std::uint64_t now_us) {
  FederatedWindow window;
  window.seq = next_seq_++;
  window.t_us = now_us;
  window.interval_us = has_prev_t_ ? now_us - prev_t_us_ : 0;
  prev_t_us_ = now_us;
  has_prev_t_ = true;
  ++scrapes_;

  // Cluster-level accumulators: counter deltas summed by name, HDR buckets
  // merged by name (cur and prev separately, so the merged delta is the
  // true union of every node's window samples).
  std::map<std::string, std::uint64_t> cluster_counters;
  std::map<std::string, std::pair<BucketSum, BucketSum>> cluster_hdr;
  const auto accumulate = [&](const MetricsSnapshot& cur,
                              const MetricsSnapshot& prev,
                              const CounterDeltas& deltas) {
    for (const auto& [name, delta] : deltas) cluster_counters[name] += delta;
    for (const auto& [name, hdr] : cur.hdr) cluster_hdr[name].first.Add(hdr);
    for (const auto& [name, hdr] : prev.hdr) cluster_hdr[name].second.Add(hdr);
  };

  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    NodeState& state = nodes_[n];
    const bool scrape_ok = state.hooks.alive == nullptr || state.hooks.alive();
    if (state.hooks.state != nullptr) {
      state.last_state = state.hooks.state();
    }

    // An unreachable node answers nothing: its effective snapshot is the
    // previous one (zero deltas), and only the request probe hits the wire.
    MetricsSnapshot cur = scrape_ok ? state.hooks.snapshot() : state.prev;
    const std::uint64_t response_bytes =
        scrape_ok ? SnapshotWireBytes(cur) : 0;
    if (state.hooks.charge != nullptr) {
      state.hooks.charge(options_.scrape_request_bytes, response_bytes);
    }
    window.scrape_bytes += options_.scrape_request_bytes + response_bytes;

    NodeWindow node_window{DiffSnapshots(cur, state.prev)};
    node_window.node = n;
    node_window.scrape_ok = scrape_ok;
    node_window.state = scrape_ok ? state.last_state : "down";
    accumulate(cur, state.prev, node_window.counter_deltas);

    state.prev = cur;
    if (scrape_ok) state.last = std::move(cur);
    window.nodes.push_back(std::move(node_window));
  }

  // The control registry (router-scope metrics) is scraped locally — same
  // delta arithmetic, no NIC charge.
  if (control_ != nullptr) {
    MetricsSnapshot cur = control_();
    accumulate(cur, control_prev_,
               DiffSnapshots(cur, control_prev_).counter_deltas);
    for (const auto& [name, value] : cur.gauges) {
      if (name == options_.queue_gauge) window.queue_saturation = value;
    }
    control_prev_ = std::move(cur);
    control_has_prev_ = true;
  }

  window.counter_deltas.assign(cluster_counters.begin(),
                               cluster_counters.end());
  for (const auto& [name, merged] : cluster_hdr) {
    const HdrHistogram::BucketSnapshot cur = merged.first.Finish();
    window.hdr.push_back(
        HdrWindowOf(name, cur, merged.second.Finish(), cur.count));
    const HdrWindow& hdr = window.hdr.back();
    if (name == options_.latency_hdr) {
      window.slo_sample_count = hdr.count;
      if (options_.slo_deadline_us > 0 && hdr.count > 0) {
        window.slo_headroom = static_cast<double>(hdr.p99) /
                              static_cast<double>(options_.slo_deadline_us);
      }
    }
  }

  scrape_bytes_ += window.scrape_bytes;
  windows_.push_back(window);
  return window;
}

std::string MetricsFederation::WindowJson(const FederatedWindow& window) {
  std::string out = "{\"seq\":" + std::to_string(window.seq) +
                    ",\"t_us\":" + std::to_string(window.t_us) +
                    ",\"interval_us\":" + std::to_string(window.interval_us) +
                    ",\"scrape_bytes\":" + std::to_string(window.scrape_bytes) +
                    ",\"nodes\":[";
  bool first_node = true;
  for (const NodeWindow& node : window.nodes) {
    if (!first_node) out += ",";
    first_node = false;
    out += "{\"node\":" + std::to_string(node.node) + ",\"state\":\"" +
           node.state + "\",\"scrape_ok\":" +
           (node.scrape_ok ? "true" : "false") + ",";
    AppendWindowSections(out, node.counter_deltas, &node.gauges, node.hdr);
    out += "}";
  }
  out += "],\"cluster\":{";
  AppendWindowSections(out, window.counter_deltas, nullptr, window.hdr);
  out += "},\"derived\":{\"slo_headroom\":";
  AppendFixed(out, window.slo_headroom, 6);
  out += ",\"slo_samples\":" + std::to_string(window.slo_sample_count);
  out += ",\"queue_saturation\":";
  AppendFixed(out, window.queue_saturation, 6);
  out += "}}";
  return out;
}

std::string MetricsFederation::ToJsonl() const {
  std::string out;
  for (const FederatedWindow& window : windows_) {
    out += WindowJson(window);
    out += "\n";
  }
  return out;
}

bool MetricsFederation::WriteJsonl(const std::string& path) const {
  return WriteTextFile(path, ToJsonl());
}

std::string MetricsFederation::ToPrometheus() const {
  // Scopes in export order: every node by id, then the cluster-scope control
  // registry. Samples are grouped by metric family so every family gets one
  // TYPE line followed by its per-scope labeled samples, in scope order.
  std::vector<std::pair<std::string, const MetricsSnapshot*>> scopes;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    scopes.emplace_back(std::to_string(n), &nodes_[n].last);
  }
  if (control_has_prev_) scopes.emplace_back("cluster", &control_prev_);

  std::map<std::string, std::vector<std::string>> counters, gauges, summaries;
  const HdrHistogram::BucketSnapshot empty;
  for (const auto& [node, snapshot] : scopes) {
    const std::string label = "{node=\"" + node + "\"}";
    for (const auto& [name, value] : snapshot->counters) {
      const std::string prom = PrometheusName(name);
      counters[prom].push_back(prom + label + " " + std::to_string(value));
    }
    for (const auto& [name, value] : snapshot->gauges) {
      const std::string prom = PrometheusName(name);
      std::string line = prom + label + " ";
      AppendFixed(line, value, 6);
      gauges[prom].push_back(std::move(line));
    }
    for (const auto& [name, hdr] : snapshot->hdr) {
      const std::string prom = PrometheusName(name);
      std::vector<std::string>& lines = summaries[prom];
      for (const auto& [quantile_label, q] :
           {std::pair<const char*, double>{"0.5", 0.50},
            {"0.9", 0.90},
            {"0.99", 0.99}}) {
        lines.push_back(prom + "{node=\"" + node + "\",quantile=\"" +
                        quantile_label + "\"} " +
                        std::to_string(
                            HdrHistogram::DeltaQuantile(hdr, empty, q)));
      }
      lines.push_back(prom + "_sum" + label + " " + std::to_string(hdr.sum));
      lines.push_back(prom + "_count" + label + " " +
                      std::to_string(hdr.count));
    }
  }
  std::string out;
  for (const auto& [family, lines] : counters) {
    out += "# TYPE " + family + " counter\n";
    for (const std::string& line : lines) out += line + "\n";
  }
  for (const auto& [family, lines] : gauges) {
    out += "# TYPE " + family + " gauge\n";
    for (const std::string& line : lines) out += line + "\n";
  }
  for (const auto& [family, lines] : summaries) {
    out += "# TYPE " + family + " summary\n";
    for (const std::string& line : lines) out += line + "\n";
  }
  return out;
}

bool MetricsFederation::WritePrometheus(const std::string& path) const {
  return WriteTextFile(path, ToPrometheus());
}

}  // namespace obs
}  // namespace ganns
