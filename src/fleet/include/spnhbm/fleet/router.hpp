// A fleet of N simulated FPGA devices behind one InferenceServer.
//
// Completes the spatial-multi-tenancy refactor: one device is a
// partitioned set of datapaths (engine::FpgaSimDevice), and one fleet is
// a set of devices whose tenants all register in a single
// InferenceServer. deploy() places a model replica into a fresh partition
// of the device with the most free PE slots (partial reconfiguration
// only — co-resident tenants keep serving) and registers the tenant
// engine in that server, labelled "<device>/<partition>". The router
// decides placement; the server does everything per request — lanes,
// batching, priority tiers, retries with failover, quarantine with
// circuit-breaker probes — exactly as it does for one card, so there is
// one dispatcher for the whole fleet, as in the paper's §IV-B host
// runtime where one scheduler feeds every PE's control threads.
//
// FleetRouter implements engine::InferenceService: the data-plane calls
// (try_submit*, input_features, outstanding_samples, health_text) go
// straight to the server, while served_models() and replicas_text()
// answer from the replica map. RpcServer and the CLI front a fleet
// exactly as they front a single server.
//
// Queue bound: FleetConfig::server configures the fleet's one server, so
// its max_queue_samples bounds the queued + in-flight samples of the
// whole fleet, not of each device.
//
// Rebalancing: rebalance() reads the process-global telemetry counters
// "server.model.<id>.samples" (the metrics registry the server feeds),
// computes each model's share of the traffic since the previous
// rebalance, and scales hot models up (one more replica, on the device
// with the most free PE slots) and cold models down (retire + evict one
// replica), within the policy's replica bounds.
//
// Threading: the replica map is mutex-guarded. Data-plane calls may run
// concurrently with each other and with control-plane calls; the
// control-plane calls (deploy/undeploy/rebalance/start/stop) must be
// serialised by the caller — the same contract as InferenceServer.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "spnhbm/engine/fpga_device.hpp"
#include "spnhbm/engine/server.hpp"
#include "spnhbm/engine/service.hpp"

namespace spnhbm::fleet {

struct FleetConfig {
  /// Number of simulated devices. Device i is named
  /// "<device_prefix><i>".
  std::size_t devices = 2;
  std::string device_prefix = "fpga";
  /// The fleet's one server; max_queue_samples bounds the whole fleet.
  engine::ServerConfig server;
  /// Template for every device; `name` is overridden per device.
  engine::FpgaDeviceConfig device;
};

/// Where one replica of a model lives.
struct ReplicaLocation {
  std::size_t member = 0;        ///< device index
  std::string partition;         ///< partition name on that device
  std::size_t engine_index = 0;  ///< engine slot in the fleet's server
};

/// Thresholds for the telemetry-driven rebalancer.
struct RebalancePolicy {
  std::size_t min_replicas = 1;
  std::size_t max_replicas = 4;
  /// A model taking at least this share of the traffic since the last
  /// rebalance gains a replica (if under max_replicas and a member has
  /// free PE slots).
  double hot_share = 0.5;
  /// A model taking at most this share loses a replica (if over
  /// min_replicas).
  double cold_share = 0.05;
  /// PE slots of a replica added by the rebalancer.
  int pe_slots = 1;
};

/// What one rebalance() pass observed and did.
struct RebalanceReport {
  /// Samples served per model since the previous rebalance (the signal).
  std::map<std::string, std::uint64_t> sample_deltas;
  std::vector<std::string> scaled_up;    ///< model ids that gained a replica
  std::vector<std::string> scaled_down;  ///< model ids that lost a replica
  bool changed() const { return !scaled_up.empty() || !scaled_down.empty(); }
  std::string describe() const;
};

/// Replica-map changes (the request books live in the server's stats).
struct FleetStats {
  std::uint64_t deployments = 0;    ///< replicas added (deploy + rebalance)
  std::uint64_t undeployments = 0;  ///< replicas removed
  std::string describe() const;
};

class FleetRouter : public engine::InferenceService {
 public:
  explicit FleetRouter(FleetConfig config = {});
  ~FleetRouter() override;

  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  /// Starts the fleet's server. Replicas may be deployed before or
  /// after; a deploy against a running fleet opens its lane immediately.
  void start();
  /// Drains and stops the fleet's server. Idempotent.
  void stop();

  /// Adds one replica of `model` on the device with the most free PE
  /// slots (ties: lowest index), in a fresh partition of `pe_slots` PEs
  /// (0 = the model's attached TuningManifest PE count when present, 1
  /// otherwise). Propagates fpga::PlacementDeficitError (with
  /// per-resource deficits) when the best device cannot fit the tenant;
  /// the fleet is left unchanged — which is exactly how tuned PE counts
  /// stay deficit-checked.
  ReplicaLocation deploy(model::ModelHandle model, int pe_slots = 0);

  /// Removes one replica of `model_ref` — the most recently deployed —
  /// retiring its engine from the server and evicting its tenant
  /// partition. Throws RuntimeApiError for an unknown model.
  void undeploy_one(const std::string& model_ref);

  /// One telemetry-driven scaling pass; see the file comment.
  RebalanceReport rebalance(const RebalancePolicy& policy = {});

  // --- InferenceService ----------------------------------------------------
  /// Lane ids with at least one deployed replica, sorted.
  std::vector<std::string> served_models() const override;
  std::size_t input_features(const std::string& model) const override;
  std::size_t outstanding_samples() const override;
  std::optional<std::future<std::vector<double>>> try_submit(
      const std::string& model, std::vector<std::uint8_t> samples) override;
  std::optional<std::future<std::vector<double>>> try_submit(
      const std::string& model, std::vector<std::uint8_t> samples,
      const telemetry::TraceContext& trace) override;
  std::optional<std::future<std::vector<double>>> try_submit_sparse(
      const std::string& model, std::vector<std::uint8_t> stream,
      std::size_t sample_count,
      const telemetry::TraceContext& trace = {}) override;
  /// The server's per-engine health lines; each tenant engine carries its
  /// "<device>/<partition>" label.
  std::string health_text() const override;
  /// The replica map: model -> member/partition/engine, one line each.
  std::string replicas_text() const override;

  // --- Introspection -------------------------------------------------------
  std::size_t member_count() const { return devices_.size(); }
  engine::FpgaSimDevice& device(std::size_t member);
  /// The server every tenant engine registers in.
  engine::InferenceServer& server() { return server_; }
  /// Replicas of the lane `model_ref` names; 0 when it names none.
  std::size_t replica_count(const std::string& model_ref) const;
  std::vector<ReplicaLocation> replicas(const std::string& model_ref) const;
  FleetStats stats() const;
  /// Fleet header, one block per device (partitions + tenants), then the
  /// replica map.
  std::string describe() const;

 private:
  /// Resolves a lane reference against the deployed replicas; throws
  /// RuntimeApiError when it names none or several.
  std::string resolve_model_locked(const std::string& ref) const;
  /// Device with the most free PE slots (ties: lowest index).
  std::size_t pick_member_locked() const;
  ReplicaLocation deploy_locked(model::ModelHandle model, int pe_slots);
  void undeploy_locked(const std::string& model_id);
  std::uint64_t model_samples_total(const std::string& model_id) const;

  FleetConfig config_;
  std::vector<std::unique_ptr<engine::FpgaSimDevice>> devices_;
  engine::InferenceServer server_;
  mutable std::mutex mutex_;
  /// lane id (model id + query-kind suffix) -> replicas, in deployment
  /// order; the same keys the server uses for its lanes.
  std::map<std::string, std::vector<ReplicaLocation>> replicas_;
  /// lane id -> artifact (kept for redeploys by the rebalancer).
  std::map<std::string, model::ModelHandle> artifacts_;
  /// model id -> "server.model.<id>.samples" reading at the last
  /// rebalance (or first deploy), so deltas ignore pre-fleet history.
  std::map<std::string, std::uint64_t> sample_baseline_;
  std::uint64_t next_partition_ = 0;
  FleetStats stats_;
};

}  // namespace spnhbm::fleet
