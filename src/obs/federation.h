#ifndef GANNS_OBS_FEDERATION_H_
#define GANNS_OBS_FEDERATION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/window.h"

namespace ganns {
namespace obs {

/// Configuration of the cluster monitoring plane.
struct FederationOptions {
  bool enabled = false;
  /// Simulated microseconds between scrape rounds. Every node is scraped at
  /// every round, so the federated windows are aligned across nodes.
  std::uint64_t scrape_interval_us = 5000;
  /// Modeled wire size of the monitor's scrape request (the response size is
  /// derived from the snapshot contents — see SnapshotWireBytes).
  std::uint64_t scrape_request_bytes = 128;
  /// Cluster latency SLO in microseconds: each federated window publishes
  /// slo_headroom = windowed p99(latency_hdr) / slo_deadline_us. 0 disables
  /// the derived signal (and with it the burn-rate alert input).
  std::uint64_t slo_deadline_us = 0;
  /// HDR histogram (cluster-level, usually from the control registry) the
  /// SLO headroom is derived from.
  std::string latency_hdr = "cluster.batch_us";
  /// Control-registry gauge exported as the window's queue saturation.
  std::string queue_gauge = "cluster.agg.pending_saturation";
};

/// How the monitor reaches one node. The cluster layer wires these to the
/// node's registry and Transport; keeping them as callbacks lets obs stay
/// below cluster in the dependency order.
struct NodeHooks {
  /// Whether the node's process is up (a crashed node fails its scrape).
  std::function<bool()> alive;
  /// Router-belief health: "up", "suspect" (alive but believed down), or
  /// "down".
  std::function<std::string()> state;
  /// The node's full registry snapshot.
  std::function<MetricsSnapshot()> snapshot;
  /// Charges one scrape round trip (request out, response back) through the
  /// node's NIC model. Implementations must keep this off the serving
  /// clock: scrape seconds are monitoring time, never batch time.
  std::function<void(std::uint64_t request_bytes, std::uint64_t response_bytes)>
      charge;
};

/// One node's slice of a federated window: the node's snapshot diff (the
/// SnapshotDiff base) plus its scrape outcome.
struct NodeWindow : SnapshotDiff {
  std::size_t node = 0;
  /// False when the node was unreachable this round (crashed): the window
  /// carries its last-known state with zero deltas.
  bool scrape_ok = false;
  std::string state = "up";
};

/// One scrape round merged into a cluster view: per-node windows plus
/// cluster-level counter sums and bucket-merged HDR quantiles (the alert
/// engine's input). Everything is on the cluster's simulated clock, so the
/// sequence of windows replays bit-for-bit.
struct FederatedWindow {
  std::uint64_t seq = 0;
  std::uint64_t t_us = 0;         ///< simulated scrape time
  std::uint64_t interval_us = 0;  ///< since the previous window (0 for first)

  std::vector<NodeWindow> nodes;

  /// Cluster-level view: node counter deltas summed by name, plus the
  /// control registry's deltas; HDR windows are computed on bucket-merged
  /// snapshots, so the cluster p99 is the true quantile over every node's
  /// samples, not an average of per-node quantiles.
  CounterDeltas counter_deltas;
  std::vector<HdrWindow> hdr;

  /// Windowed p99(latency_hdr) / slo_deadline_us (0 when empty/disabled).
  double slo_headroom = 0;
  /// Latency samples behind slo_headroom this window. 0 means the window
  /// carried no SLI data at all (burn-rate alerting holds state rather than
  /// treating silence as recovery).
  std::uint64_t slo_sample_count = 0;
  /// Control-registry queue_gauge value at the scrape.
  double queue_saturation = 0;
  /// Wire bytes this scrape round charged through the node NICs.
  std::uint64_t scrape_bytes = 0;
};

/// Deterministic wire-size model of a scrape response: every metric costs
/// its name plus a fixed value encoding, every HDR bucket a (index, count)
/// pair. Pure function of the snapshot contents.
std::uint64_t SnapshotWireBytes(const MetricsSnapshot& snapshot);

/// The monitoring plane: scrapes every registered node's registry on a
/// fixed simulated interval, diffs consecutive snapshots into federated
/// windows (the obs/window.h engine TimeSeriesCollector also uses, applied
/// per node and to the bucket-merged cluster view), and exports the window
/// stream as JSONL and the cumulative per-node state as Prometheus text
/// with node labels.
///
/// Determinism: scrape times live on the caller-advanced simulated clock,
/// snapshots are name-sorted, and exports print fixed-precision — so for a
/// fixed workload the JSONL and Prometheus bytes are identical across
/// reruns, and (because charge() is accounted off the serving clock and the
/// plane draws no randomness) enabling the plane cannot move search results
/// or serving sim seconds.
///
/// Single-threaded like the cluster router that drives it.
class MetricsFederation {
 public:
  explicit MetricsFederation(FederationOptions options);

  /// Registers one node. Nodes are scraped in registration order (node id).
  void AddNode(NodeHooks hooks);

  /// Cluster-scope registry scraped locally (the router's own control
  /// metrics: batch latency, lost sub-queries, aggregator totals). Not
  /// charged to any NIC.
  void SetControl(std::function<MetricsSnapshot()> control);

  /// Advances the monitor's simulated clock, cutting one window per elapsed
  /// scrape interval. Returns the windows cut by this call.
  std::vector<FederatedWindow> AdvanceTo(std::uint64_t now_us);

  /// Cuts one window at `now_us` unconditionally (final flush at shutdown).
  FederatedWindow Scrape(std::uint64_t now_us);

  const std::vector<FederatedWindow>& windows() const { return windows_; }
  std::uint64_t scrapes() const { return scrapes_; }
  /// Total wire bytes charged for scrape traffic.
  std::uint64_t scrape_bytes() const { return scrape_bytes_; }

  /// One JSON object per federated window, oldest first (the
  /// `ganns cluster-top` input).
  std::string ToJsonl() const;
  bool WriteJsonl(const std::string& path) const;
  static std::string WindowJson(const FederatedWindow& window);

  /// Prometheus text of the latest cumulative per-node state: every metric
  /// carries a node="N" label; cluster-scope control metrics carry
  /// node="cluster".
  std::string ToPrometheus() const;
  bool WritePrometheus(const std::string& path) const;

 private:
  struct NodeState {
    NodeHooks hooks;
    MetricsSnapshot prev;
    MetricsSnapshot last;  ///< latest successful scrape (Prometheus source)
    std::string last_state = "up";
  };

  FederationOptions options_;
  std::vector<NodeState> nodes_;
  std::function<MetricsSnapshot()> control_;
  MetricsSnapshot control_prev_;
  bool control_has_prev_ = false;

  std::vector<FederatedWindow> windows_;
  std::uint64_t next_scrape_us_ = 0;
  std::uint64_t prev_t_us_ = 0;
  bool has_prev_t_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t scrapes_ = 0;
  std::uint64_t scrape_bytes_ = 0;
};

}  // namespace obs
}  // namespace ganns

#endif  // GANNS_OBS_FEDERATION_H_
