#include "obs/timeseries.h"

#include <chrono>

#include "common/timer.h"

namespace ganns {
namespace obs {

TimeSeriesCollector::TimeSeriesCollector(TimeSeriesOptions options)
    : options_(options) {}

TimeSeriesCollector::~TimeSeriesCollector() { Stop(); }

WindowSample TimeSeriesCollector::Tick() {
  // Snapshot outside the collector mutex ordering concerns: the registry has
  // its own lock and the collector mutex serializes consecutive cuts.
  MetricsSnapshot cur = MetricsRegistry::Global().Snapshot();
  const double now_us = WallSpanNow() * 1e6;

  std::lock_guard<std::mutex> lock(mutex_);
  WindowSample window{DiffSnapshots(cur, prev_)};
  window.seq = next_seq_++;
  window.t_us = now_us;
  window.interval_us = has_prev_ ? now_us - prev_t_us_ : 0.0;
  if (options_.slo_deadline_us > 0) {
    for (const HdrWindow& hdr : window.hdr) {
      if (hdr.name == options_.latency_hdr && hdr.count > 0) {
        window.slo_headroom = static_cast<double>(hdr.p99) /
                              static_cast<double>(options_.slo_deadline_us);
      }
    }
  }

  double depth = 0;
  double capacity = 0;
  for (const auto& [name, value] : cur.gauges) {
    if (name == options_.queue_depth_gauge) depth = value;
    if (name == options_.queue_capacity_gauge) capacity = value;
  }
  if (capacity > 0) window.queue_saturation = depth / capacity;

  prev_ = std::move(cur);
  prev_t_us_ = now_us;
  has_prev_ = true;

  if (ring_.size() >= options_.ring_capacity) {
    ring_.pop_front();
    ++overwritten_;
    MetricsRegistry::Global().GetCounter("obs.series.overwritten").Add();
  }
  ring_.push_back(window);

  // Feed the derived signals back so the cumulative views (Prometheus, the
  // stats JSON) carry the live SLO position. They land in the *next*
  // window's gauge set, which keeps each window a pure registry snapshot.
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetGauge("serve.slo_headroom").Set(window.slo_headroom);
  registry.GetGauge("serve.queue_saturation").Set(window.queue_saturation);
  return window;
}

void TimeSeriesCollector::Start() {
  if (sampler_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_ = false;
  }
  sampler_ = std::thread([this] { SamplerLoop(); });
}

void TimeSeriesCollector::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
}

void TimeSeriesCollector::SamplerLoop() {
  const auto period = std::chrono::milliseconds(
      options_.interval_ms > 0 ? options_.interval_ms : 1);
  std::unique_lock<std::mutex> lock(stop_mutex_);
  while (!stop_cv_.wait_for(lock, period, [&] { return stop_; })) {
    lock.unlock();
    Tick();
    lock.lock();
  }
}

std::vector<WindowSample> TimeSeriesCollector::Windows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

std::uint64_t TimeSeriesCollector::overwritten() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return overwritten_;
}

std::string TimeSeriesCollector::WindowJson(const WindowSample& window) {
  std::string out = "{\"seq\":" + std::to_string(window.seq) + ",\"t_us\":";
  AppendFixed(out, window.t_us, 3);
  out += ",\"interval_us\":";
  AppendFixed(out, window.interval_us, 3);
  out += ",";
  AppendWindowSections(out, window.counter_deltas, &window.gauges,
                       window.hdr);
  out += ",\"derived\":{\"slo_headroom\":";
  AppendFixed(out, window.slo_headroom, 6);
  out += ",\"queue_saturation\":";
  AppendFixed(out, window.queue_saturation, 6);
  out += "}}";
  return out;
}

std::string TimeSeriesCollector::ToJsonl() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const WindowSample& window : ring_) {
    out += WindowJson(window);
    out += "\n";
  }
  return out;
}

bool TimeSeriesCollector::WriteJsonl(const std::string& path) const {
  return WriteTextFile(path, ToJsonl());
}

}  // namespace obs
}  // namespace ganns
