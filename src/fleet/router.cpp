#include "spnhbm/fleet/router.hpp"

#include <utility>

#include "spnhbm/compiler/datapath.hpp"
#include "spnhbm/engine/chaos_engine.hpp"
#include "spnhbm/model/tuning.hpp"
#include "spnhbm/telemetry/metrics.hpp"
#include "spnhbm/util/strings.hpp"

namespace spnhbm::fleet {

namespace {
/// Lane id a replica serves under: the same model-id + query-kind suffix
/// keying the server's lanes, so the replica map and the server agree on
/// the address of every replica.
std::string lane_id_of(const model::ModelHandle& model) {
  return engine::lane_id_for(model->id(), model->module().query());
}
}  // namespace

std::string RebalanceReport::describe() const {
  std::string text = "rebalance:";
  if (sample_deltas.empty()) {
    text += " no traffic observed";
  }
  for (const auto& [model, delta] : sample_deltas) {
    text += strformat(" %s=%llu", model.c_str(),
                      static_cast<unsigned long long>(delta));
  }
  for (const auto& model : scaled_up) text += " +" + model;
  for (const auto& model : scaled_down) text += " -" + model;
  if (!changed()) text += " (steady)";
  return text;
}

std::string FleetStats::describe() const {
  return strformat("fleet: deploys=%llu undeploys=%llu",
                   static_cast<unsigned long long>(deployments),
                   static_cast<unsigned long long>(undeployments));
}

FleetRouter::FleetRouter(FleetConfig config)
    : config_(std::move(config)), server_(config_.server) {
  SPNHBM_REQUIRE(config_.devices > 0, "a fleet needs at least one device");
  devices_.reserve(config_.devices);
  for (std::size_t i = 0; i < config_.devices; ++i) {
    engine::FpgaDeviceConfig device_config = config_.device;
    device_config.name = config_.device_prefix + std::to_string(i);
    devices_.push_back(
        std::make_unique<engine::FpgaSimDevice>(std::move(device_config)));
  }
}

FleetRouter::~FleetRouter() { stop(); }

void FleetRouter::start() { server_.start(); }

void FleetRouter::stop() { server_.stop(); }

ReplicaLocation FleetRouter::deploy(model::ModelHandle model, int pe_slots) {
  SPNHBM_REQUIRE(model != nullptr, "deploy requires a model");
  std::lock_guard<std::mutex> lock(mutex_);
  if (pe_slots <= 0) {
    // Tuned models bring their own PE count; PartitionTable::reserve
    // deficit-checks it against the member's free slots/channels below,
    // so an oversized tuning fails with the usual placement rows instead
    // of being silently clamped.
    const auto tuning = model->tuning();
    pe_slots = tuning ? tuning->config.pe_count : 1;
  }
  return deploy_locked(std::move(model), pe_slots);
}

ReplicaLocation FleetRouter::deploy_locked(model::ModelHandle model,
                                           int pe_slots) {
  const std::string id = lane_id_of(model);
  const std::size_t member_index = pick_member_locked();
  engine::FpgaSimDevice& device = *devices_[member_index];
  const std::string partition = strformat(
      "t%llu", static_cast<unsigned long long>(next_partition_));

  // add_tenant reserves the partition first, so a tenant that does not
  // fit fails with its per-resource deficits and the fleet is unchanged.
  device.add_tenant(partition, model, pe_slots);
  std::size_t engine_index = 0;
  try {
    // The chaos decorator makes the "engine.*" fault sites apply to
    // fleet tenants exactly as they do to standalone serve engines;
    // disarmed it costs one relaxed atomic load per submit.
    engine_index = server_.register_engine(
        std::make_shared<engine::ChaosEngine>(device.tenant_engine(partition)),
        0, device.name() + "/" + partition);
  } catch (...) {
    device.evict_tenant(partition);
    throw;
  }
  ++next_partition_;

  ReplicaLocation location{member_index, partition, engine_index};
  replicas_[id].push_back(location);
  artifacts_.emplace(id, std::move(model));
  stats_.deployments += 1;
  telemetry::metrics().counter("fleet.deployments")->add();
  telemetry::metrics()
      .gauge("fleet.model." + id + ".replicas")
      ->set(static_cast<double>(replicas_[id].size()));
  // First replica: baseline the model's global sample counter so the
  // rebalancer only sees traffic routed while the model was deployed.
  sample_baseline_.emplace(id, model_samples_total(id));
  return location;
}

void FleetRouter::undeploy_one(const std::string& model_ref) {
  std::lock_guard<std::mutex> lock(mutex_);
  undeploy_locked(resolve_model_locked(model_ref));
}

void FleetRouter::undeploy_locked(const std::string& model_id) {
  auto it = replicas_.find(model_id);
  SPNHBM_REQUIRE(it != replicas_.end() && !it->second.empty(),
                 "undeploy of a model with no replicas");
  const ReplicaLocation location = it->second.back();
  // Retire first (drains the engine's in-flight batches on its worker
  // thread), then evict the tenant — the reverse order would destroy an
  // engine a worker still drives.
  server_.retire_engine(location.engine_index);
  devices_[location.member]->evict_tenant(location.partition);
  it->second.pop_back();
  const std::size_t remaining = it->second.size();
  if (it->second.empty()) {
    replicas_.erase(it);
    artifacts_.erase(model_id);
    sample_baseline_.erase(model_id);
  }
  stats_.undeployments += 1;
  telemetry::metrics().counter("fleet.undeployments")->add();
  telemetry::metrics()
      .gauge("fleet.model." + model_id + ".replicas")
      ->set(static_cast<double>(remaining));
}

std::uint64_t FleetRouter::model_samples_total(
    const std::string& model_id) const {
  return telemetry::metrics()
      .counter("server.model." + model_id + ".samples")
      ->value();
}

RebalanceReport FleetRouter::rebalance(const RebalancePolicy& policy) {
  SPNHBM_REQUIRE(policy.min_replicas >= 1, "min_replicas must be >= 1");
  SPNHBM_REQUIRE(policy.max_replicas >= policy.min_replicas,
                 "max_replicas must be >= min_replicas");
  std::lock_guard<std::mutex> lock(mutex_);
  RebalanceReport report;

  std::uint64_t total_delta = 0;
  std::map<std::string, std::uint64_t> totals;
  for (const auto& [model, locations] : replicas_) {
    const std::uint64_t total = model_samples_total(model);
    const std::uint64_t baseline = sample_baseline_[model];
    const std::uint64_t delta = total > baseline ? total - baseline : 0;
    totals[model] = total;
    report.sample_deltas[model] = delta;
    total_delta += delta;
  }
  if (total_delta == 0) return report;  // no traffic, nothing to learn

  // Scale down before scaling up, so the freed PE slots are available to
  // the hot models within the same pass.
  for (const auto& [model, delta] : report.sample_deltas) {
    const double share =
        static_cast<double>(delta) / static_cast<double>(total_delta);
    if (share <= policy.cold_share &&
        replicas_[model].size() > policy.min_replicas) {
      undeploy_locked(model);
      report.scaled_down.push_back(model);
    }
  }
  for (const auto& [model, delta] : report.sample_deltas) {
    const double share =
        static_cast<double>(delta) / static_cast<double>(total_delta);
    if (share < policy.hot_share) continue;
    auto it = replicas_.find(model);
    if (it == replicas_.end() || it->second.size() >= policy.max_replicas) {
      continue;
    }
    const std::size_t target = pick_member_locked();
    if (devices_[target]->free_pe_slots() < policy.pe_slots) {
      continue;  // fleet is full; keep serving at the current replica count
    }
    deploy_locked(artifacts_.at(model), policy.pe_slots);
    report.scaled_up.push_back(model);
  }

  // Re-baseline every surviving model so the next pass sees fresh deltas.
  for (const auto& [model, locations] : replicas_) {
    auto it = totals.find(model);
    sample_baseline_[model] =
        it != totals.end() ? it->second : model_samples_total(model);
  }
  return report;
}

std::vector<std::string> FleetRouter::served_models() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> models;
  models.reserve(replicas_.size());
  for (const auto& [model, locations] : replicas_) models.push_back(model);
  return models;  // std::map iterates sorted
}

std::size_t FleetRouter::input_features(const std::string& model) const {
  return server_.input_features(model);
}

std::size_t FleetRouter::outstanding_samples() const {
  return server_.outstanding_samples();
}

std::optional<std::future<std::vector<double>>> FleetRouter::try_submit(
    const std::string& model, std::vector<std::uint8_t> samples) {
  return server_.try_submit(model, std::move(samples));
}

std::optional<std::future<std::vector<double>>> FleetRouter::try_submit(
    const std::string& model, std::vector<std::uint8_t> samples,
    const telemetry::TraceContext& trace) {
  return server_.try_submit(model, std::move(samples), trace);
}

std::optional<std::future<std::vector<double>>> FleetRouter::try_submit_sparse(
    const std::string& model, std::vector<std::uint8_t> stream,
    std::size_t sample_count, const telemetry::TraceContext& trace) {
  return server_.try_submit_sparse(model, std::move(stream), sample_count,
                                   trace);
}

std::string FleetRouter::health_text() const { return server_.health_text(); }

std::string FleetRouter::replicas_text() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string text;
  for (const auto& [model, locations] : replicas_) {
    for (const ReplicaLocation& location : locations) {
      text += strformat("%s -> member %zu partition %s engine %zu\n",
                        model.c_str(), location.member,
                        location.partition.c_str(), location.engine_index);
    }
  }
  return text;
}

engine::FpgaSimDevice& FleetRouter::device(std::size_t member) {
  SPNHBM_REQUIRE(member < devices_.size(), "fleet member out of range");
  return *devices_[member];
}

std::size_t FleetRouter::replica_count(const std::string& model_ref) const {
  std::lock_guard<std::mutex> lock(mutex_);
  try {
    return replicas_.at(resolve_model_locked(model_ref)).size();
  } catch (const RuntimeApiError&) {
    return 0;
  }
}

std::vector<ReplicaLocation> FleetRouter::replicas(
    const std::string& model_ref) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return replicas_.at(resolve_model_locked(model_ref));
}

FleetStats FleetRouter::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::string FleetRouter::describe() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string text = strformat("fleet: %zu device(s), %zu model(s)\n",
                               devices_.size(), replicas_.size());
  for (const auto& device : devices_) text += device->describe();
  for (const auto& [model, locations] : replicas_) {
    text += strformat("  %s x%zu:", model.c_str(), locations.size());
    for (const auto& location : locations) {
      text += strformat(" %s/%s", devices_[location.member]->name().c_str(),
                        location.partition.c_str());
    }
    text += "\n";
  }
  return text;
}

std::string FleetRouter::resolve_model_locked(const std::string& ref) const {
  std::vector<std::string> ids;
  ids.reserve(replicas_.size());
  for (const auto& [id, locations] : replicas_) ids.push_back(id);
  engine::LaneRefMatch match = engine::resolve_lane_ref(ref, ids);
  if (!match.error.empty()) throw RuntimeApiError(match.error);
  return std::move(match.id);
}

std::size_t FleetRouter::pick_member_locked() const {
  std::size_t best = 0;
  int best_free = -1;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const int free = devices_[i]->free_pe_slots();
    if (free > best_free) {
      best = i;
      best_free = free;
    }
  }
  return best;
}

}  // namespace spnhbm::fleet
