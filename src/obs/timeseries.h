#ifndef GANNS_OBS_TIMESERIES_H_
#define GANNS_OBS_TIMESERIES_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/window.h"

namespace ganns {
namespace obs {

/// Configuration of one rolling time-series collector.
struct TimeSeriesOptions {
  /// Windows kept in memory; the oldest is overwritten past this (counted —
  /// the ring never loses data silently).
  std::size_t ring_capacity = 256;
  /// Sampling period of the Start() background thread. Tick() ignores it.
  std::int64_t interval_ms = 1000;
  /// Latency SLO in microseconds: each window publishes
  /// slo_headroom = windowed p99(latency_hdr) / slo_deadline_us.
  /// 0 disables the derived gauge.
  std::uint64_t slo_deadline_us = 0;
  /// HDR histogram the SLO headroom is derived from.
  std::string latency_hdr = "serve.latency_us";
  /// Gauges the admission-queue saturation is derived from.
  std::string queue_depth_gauge = "serve.queue_depth";
  std::string queue_capacity_gauge = "serve.queue_capacity";
};

/// One fixed-interval window over the registry: counter deltas, gauge
/// values, and windowed HDR quantiles (the SnapshotDiff base), plus the
/// window's timing and derived SLO signals.
struct WindowSample : SnapshotDiff {
  std::uint64_t seq = 0;
  /// Window end on the obs wall-span timeline (microseconds).
  double t_us = 0;
  /// Microseconds since the previous window (0 for the first).
  double interval_us = 0;

  /// Derived: windowed p99 latency / SLO deadline (0 when the window is
  /// empty or no deadline is configured). > 1.0 means the SLO was violated
  /// during this window.
  double slo_headroom = 0;
  /// Derived: admission queue depth / capacity at the window cut.
  double queue_saturation = 0;
};

/// Rolling time-series view of the global MetricsRegistry: fixed-interval
/// windows in a bounded ring, each the delta between two registry
/// snapshots. Window contents are deterministic in the recorded metric
/// values (name-sorted, delta-computed); window *timing* is wall-clock.
///
/// The collector also publishes its derived signals back into the registry
/// (`serve.slo_headroom`, `serve.queue_saturation` gauges and the
/// `obs.series.overwritten` counter), so the cumulative Prometheus view
/// carries the live SLO position alongside the raw metrics.
///
/// Thread-safety: Tick/Windows/ToJsonl may race with Start()'s sampler
/// thread and with any number of metric writers; windows are cut under one
/// collector mutex, registry reads are relaxed-atomic copies.
class TimeSeriesCollector {
 public:
  explicit TimeSeriesCollector(TimeSeriesOptions options = {});
  ~TimeSeriesCollector();

  TimeSeriesCollector(const TimeSeriesCollector&) = delete;
  TimeSeriesCollector& operator=(const TimeSeriesCollector&) = delete;

  /// Cuts one window now (registry snapshot, delta vs the previous cut,
  /// ring append) and returns it. Tests and shutdown paths call this
  /// directly; the background thread calls it on its period.
  WindowSample Tick();

  /// Starts the background sampler (one window per interval_ms). Idempotent.
  void Start();
  /// Stops and joins the sampler. Ticked windows remain readable.
  void Stop();

  /// Copy of the ring, oldest first.
  std::vector<WindowSample> Windows() const;

  /// Windows evicted from the ring since construction.
  std::uint64_t overwritten() const;

  /// One JSON object per line, oldest window first (the `ganns top` input).
  std::string ToJsonl() const;
  bool WriteJsonl(const std::string& path) const;

  /// Deterministic single-line JSON of one window.
  static std::string WindowJson(const WindowSample& window);

 private:
  void SamplerLoop();

  const TimeSeriesOptions options_;

  mutable std::mutex mutex_;
  MetricsSnapshot prev_;
  bool has_prev_ = false;
  double prev_t_us_ = 0;
  std::uint64_t next_seq_ = 0;
  std::deque<WindowSample> ring_;
  std::uint64_t overwritten_ = 0;

  std::thread sampler_;
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
};

}  // namespace obs
}  // namespace ganns

#endif  // GANNS_OBS_TIMESERIES_H_
