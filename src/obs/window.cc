#include "obs/window.h"

#include <cstdio>

namespace ganns {
namespace obs {
namespace {

/// Advances `p` through the name-sorted `prev` to `name`; returns the
/// matching value, or null when `name` is not in `prev`.
template <typename Value>
const Value* FindSorted(const std::vector<std::pair<std::string, Value>>& prev,
                        std::size_t& p, const std::string& name) {
  while (p < prev.size() && prev[p].first < name) ++p;
  return p < prev.size() && prev[p].first == name ? &prev[p].second : nullptr;
}

}  // namespace

SnapshotDiff DiffSnapshots(const MetricsSnapshot& cur,
                           const MetricsSnapshot& prev) {
  SnapshotDiff diff;
  diff.counter_deltas.reserve(cur.counters.size());
  std::size_t p = 0;
  for (const auto& [name, value] : cur.counters) {
    const std::uint64_t* before = FindSorted(prev.counters, p, name);
    const std::uint64_t base = before != nullptr ? *before : 0;
    diff.counter_deltas.emplace_back(name, value >= base ? value - base : 0);
  }
  diff.gauges = cur.gauges;

  diff.hdr.reserve(cur.hdr.size());
  p = 0;
  const HdrHistogram::BucketSnapshot empty;
  for (const auto& [name, snapshot] : cur.hdr) {
    const HdrHistogram::BucketSnapshot* before = FindSorted(prev.hdr, p, name);
    diff.hdr.push_back(HdrWindowOf(name, snapshot,
                                   before != nullptr ? *before : empty,
                                   snapshot.count));
  }
  return diff;
}

HdrWindow HdrWindowOf(std::string name, const HdrHistogram::BucketSnapshot& cur,
                      const HdrHistogram::BucketSnapshot& prev,
                      std::uint64_t total_count) {
  HdrWindow window;
  window.name = std::move(name);
  window.count = HdrHistogram::DeltaCount(cur, prev);
  window.p50 = HdrHistogram::DeltaQuantile(cur, prev, 0.50);
  window.p99 = HdrHistogram::DeltaQuantile(cur, prev, 0.99);
  window.max = HdrHistogram::DeltaQuantile(cur, prev, 1.0);
  window.total_count = total_count;
  return window;
}

void AppendWindowSections(std::string& out, const CounterDeltas& counters,
                          const GaugeValues* gauges,
                          const std::vector<HdrWindow>& hdr) {
  out += "\"counters\":{";
  bool first = true;
  for (const auto& [name, delta] : counters) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":" + std::to_string(delta);
  }
  if (gauges != nullptr) {
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, value] : *gauges) {
      if (!first) out += ",";
      first = false;
      out += "\"" + name + "\":";
      AppendFixed(out, value, 6);
    }
  }
  out += "},\"hdr\":{";
  first = true;
  for (const HdrWindow& window : hdr) {
    if (!first) out += ",";
    first = false;
    out += "\"" + window.name + "\":{\"count\":" +
           std::to_string(window.count) +
           ",\"p50\":" + std::to_string(window.p50) +
           ",\"p99\":" + std::to_string(window.p99) +
           ",\"max\":" + std::to_string(window.max) +
           ",\"total_count\":" + std::to_string(window.total_count) + "}";
  }
  out += "}";
}

void AppendFixed(std::string& out, double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  out += buffer;
}

std::string PrometheusName(std::string_view name) {
  std::string out = "ganns_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

bool WriteTextFile(const std::string& path, std::string_view text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), file);
  return std::fclose(file) == 0 && written == text.size();
}

}  // namespace obs
}  // namespace ganns
