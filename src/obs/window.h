#ifndef GANNS_OBS_WINDOW_H_
#define GANNS_OBS_WINDOW_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace ganns {
namespace obs {

/// Windowed view of one HDR histogram: quantiles of exactly the samples
/// recorded between two snapshots (bucket-delta computed, never a reset).
struct HdrWindow {
  std::string name;
  std::uint64_t count = 0;       ///< samples in this window
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t max = 0;         ///< bucket upper bound of the window max
  std::uint64_t total_count = 0; ///< cumulative since process start
};

using CounterDeltas = std::vector<std::pair<std::string, std::uint64_t>>;
using GaugeValues = std::vector<std::pair<std::string, double>>;

/// The part of a metrics window that is a pure function of two registry
/// snapshots: counter deltas, gauge values at the later cut, and one HDR
/// window per histogram, all name-sorted. Both the local time-series
/// collector and the cluster federation cut their windows with this one
/// engine.
struct SnapshotDiff {
  using HdrWindow = obs::HdrWindow;

  CounterDeltas counter_deltas;
  GaugeValues gauges;
  std::vector<HdrWindow> hdr;
};

/// Diffs two name-sorted snapshots (merge walk). Metrics registered since
/// `prev` delta against zero; a counter that went backwards deltas to zero.
SnapshotDiff DiffSnapshots(const MetricsSnapshot& cur,
                           const MetricsSnapshot& prev);

/// count/p50/p99/max of the samples recorded between `prev` and `cur`;
/// `total_count` is reported as the cumulative count.
HdrWindow HdrWindowOf(std::string name, const HdrHistogram::BucketSnapshot& cur,
                      const HdrHistogram::BucketSnapshot& prev,
                      std::uint64_t total_count);

/// Appends the shared window JSON body
/// `"counters":{...},"gauges":{...},"hdr":{...}`; the gauges section is
/// omitted when `gauges` is null.
void AppendWindowSections(std::string& out, const CounterDeltas& counters,
                          const GaugeValues* gauges,
                          const std::vector<HdrWindow>& hdr);

/// Fixed-precision double formatting, so equal values print equal bytes.
void AppendFixed(std::string& out, double value, int precision);

/// Prometheus metric name: everything outside [a-zA-Z0-9_] (the registry's
/// dots) maps to '_', prefixed with the project namespace "ganns_".
std::string PrometheusName(std::string_view name);

/// Writes `text` to `path` (truncating). False on any IO failure.
bool WriteTextFile(const std::string& path, std::string_view text);

}  // namespace obs
}  // namespace ganns

#endif  // GANNS_OBS_WINDOW_H_
