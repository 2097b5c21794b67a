#include "spnhbm/engine/server.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <string>

#include "spnhbm/compiler/sparse_evidence.hpp"
#include "spnhbm/model/tuning.hpp"
#include "spnhbm/util/strings.hpp"

namespace spnhbm::engine {

namespace {

/// Wall-clock delta in microseconds (for the latency histograms).
double elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// Lane id an artifact serves under: model id plus the query-kind suffix
/// of its compiled module. One engine hosts one module with one kind, so
/// a lane never mixes query kinds and batches inherit that property.
std::string lane_id_of(const model::ModelHandle& model) {
  return lane_id_for(model->id(), model->module().query());
}

}  // namespace

std::string to_string(EngineHealth health) {
  switch (health) {
    case EngineHealth::kHealthy:
      return "healthy";
    case EngineHealth::kDegraded:
      return "degraded";
    case EngineHealth::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

std::string ServerStats::describe() const {
  std::string text = strformat(
      "%llu requests (%llu rejected) -> %llu batches / %llu samples "
      "(%.1f samples/batch, %llu deadline flushes, peak %zu outstanding)",
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(batches),
      static_cast<unsigned long long>(samples), mean_batch_samples(),
      static_cast<unsigned long long>(deadline_flushes),
      peak_outstanding_samples);
  if (batch_retries || failovers || quarantines || probes || readmissions ||
      deadline_expirations || failed_requests) {
    text += strformat(
        "; recovery: %llu retries, %llu failovers, %llu quarantines, "
        "%llu probes, %llu readmissions, %llu deadline expirations, "
        "%llu failed requests",
        static_cast<unsigned long long>(batch_retries),
        static_cast<unsigned long long>(failovers),
        static_cast<unsigned long long>(quarantines),
        static_cast<unsigned long long>(probes),
        static_cast<unsigned long long>(readmissions),
        static_cast<unsigned long long>(deadline_expirations),
        static_cast<unsigned long long>(failed_requests));
  }
  if (activations || failed_activations) {
    text += strformat("; %llu activations (%llu failed)",
                      static_cast<unsigned long long>(activations),
                      static_cast<unsigned long long>(failed_activations));
  }
  if (per_model.size() > 1) {
    text += "; models:";
    for (const auto& [id, model] : per_model) {
      text += strformat(" %s=%llu req/%llu samples/%llu batches",
                        id.c_str(),
                        static_cast<unsigned long long>(model.requests),
                        static_cast<unsigned long long>(model.samples),
                        static_cast<unsigned long long>(model.batches));
    }
  }
  if (request_latency_us.count > 0) {
    text += strformat(
        "; latency us p50/p95/p99=%.1f/%.1f/%.1f, queue wait us "
        "p50/p99=%.1f/%.1f",
        request_latency_us.p50(), request_latency_us.p95(),
        request_latency_us.p99(), queue_wait_us.p50(), queue_wait_us.p99());
  }
  return text;
}

InferenceServer::InferenceServer(ServerConfig config)
    : config_(config), jitter_rng_(config.retry.seed) {
  SPNHBM_REQUIRE(config_.max_queue_samples > 0, "queue bound must be positive");
  SPNHBM_REQUIRE(config_.retry.max_attempts >= 1,
                 "retry budget must allow at least one attempt");
  SPNHBM_REQUIRE(config_.retry.backoff_multiplier >= 1.0,
                 "backoff multiplier must be >= 1");
  SPNHBM_REQUIRE(config_.retry.jitter >= 0.0 && config_.retry.jitter < 1.0,
                 "jitter must be in [0, 1)");
  SPNHBM_REQUIRE(config_.health.degraded_after >= 1 &&
                     config_.health.quarantine_after >=
                         config_.health.degraded_after,
                 "health thresholds must satisfy 1 <= degraded <= quarantine");
  SPNHBM_REQUIRE(config_.health.probe_backoff_multiplier >= 1.0,
                 "probe backoff multiplier must be >= 1");
  queue_wait_us_ = std::make_shared<telemetry::Histogram>();
  request_latency_us_ = std::make_shared<telemetry::Histogram>();
  batch_fill_samples_ = std::make_shared<telemetry::Histogram>();
  auto& registry = telemetry::metrics();
  registry.attach_histogram("server.queue_wait_us", queue_wait_us_);
  registry.attach_histogram("server.request_latency_us", request_latency_us_);
  registry.attach_histogram("server.batch_fill_samples", batch_fill_samples_);
  ctr_requests_ = registry.counter("server.requests");
  ctr_rejected_ = registry.counter("server.rejected");
  ctr_batches_ = registry.counter("server.batches");
  ctr_samples_ = registry.counter("server.samples");
  ctr_deadline_flushes_ = registry.counter("server.deadline_flushes");
  ctr_batch_retries_ = registry.counter("server.batch_retries");
  ctr_failovers_ = registry.counter("server.failovers");
  ctr_quarantines_ = registry.counter("server.quarantines");
  ctr_probes_ = registry.counter("server.probes");
  ctr_readmissions_ = registry.counter("server.readmissions");
  ctr_deadline_expirations_ =
      registry.counter("server.deadline_expirations");
  ctr_failed_requests_ = registry.counter("server.failed_requests");
  ctr_activations_ = registry.counter("server.activations");
  ctr_failed_activations_ = registry.counter("server.failed_activations");
}

InferenceServer::~InferenceServer() { stop(); }

InferenceServer::ModelLane& InferenceServer::ensure_lane_locked(
    const std::string& model, std::size_t input_features,
    const ModelHandle& artifact) {
  const auto apply_tuning = [&](ModelLane& lane) -> ModelLane& {
    if (artifact != nullptr) {
      if (const auto tuning = artifact->tuning()) {
        // Per-lane overrides from the model's manifest: this lane
        // coalesces to the tuned batch target and flushes on the tuned
        // deadline while other lanes keep the server-wide settings.
        lane.batch_samples = tuning->config.batch_samples;
        lane.max_latency =
            std::chrono::microseconds(tuning->config.flush_deadline_us);
      }
    }
    return lane;
  };
  auto it = lanes_.find(model);
  if (it != lanes_.end()) {
    SPNHBM_REQUIRE(it->second.input_features == input_features,
                   "engines serving model '" + model +
                       "' disagree on its input width");
    return apply_tuning(it->second);
  }
  ModelLane lane;
  lane.input_features = input_features;
  auto& registry = telemetry::metrics();
  lane.ctr_requests = registry.counter("server.model." + model + ".requests");
  lane.ctr_samples = registry.counter("server.model." + model + ".samples");
  lane.ctr_batches = registry.counter("server.model." + model + ".batches");
  return apply_tuning(lanes_.emplace(model, std::move(lane)).first->second);
}

std::size_t InferenceServer::register_engine(
    std::shared_ptr<InferenceEngine> engine, int priority,
    std::string device) {
  SPNHBM_REQUIRE(engine != nullptr, "null engine");
  SPNHBM_REQUIRE(priority >= 0, "priority tier must be >= 0");
  std::lock_guard<std::mutex> lock(mutex_);
  SPNHBM_REQUIRE(!stopping_ && !stopped_,
                 "register_engine on a stopped server");
  const auto& caps = engine->capabilities();
  SPNHBM_REQUIRE(caps.functional,
                 "engine '" + caps.name + "' is timing-only; the server needs "
                 "functional backends");
  SPNHBM_REQUIRE(caps.input_features > 0,
                 "engine '" + caps.name + "' announces zero input features");
  const ModelHandle& model = engine->loaded_model();
  SPNHBM_REQUIRE(model != nullptr,
                 "engine '" + caps.name + "' has no loaded model");
  const std::string model_id = lane_id_of(model);
  ensure_lane_locked(model_id, caps.input_features, model);
  auto worker = std::make_unique<Worker>();
  worker->engine = std::move(engine);
  worker->index = workers_.size();
  worker->priority = priority;
  worker->device = std::move(device);
  worker->model_id = model_id;
  worker->input_features = caps.input_features;
  worker->nominal_throughput = caps.nominal_throughput;
  worker->probe_interval = config_.health.probe_interval;
  if (config_.batch_samples == 0) {
    batch_samples_ = batch_samples_ == 0
                         ? caps.preferred_batch_samples
                         : std::min(batch_samples_,
                                    caps.preferred_batch_samples);
  } else {
    batch_samples_ = config_.batch_samples;
  }
  const std::size_t index = workers_.size();
  workers_.push_back(std::move(worker));
  if (started_) {
    // Dynamic membership: the engine joins a running fleet. Its lane is
    // open already (ensure_lane_locked above); spawn the worker now and
    // wake the dispatcher in case work is queued for its model.
    spawn_worker_locked(*workers_[index]);
    cv_dispatch_.notify_one();
  }
  return index;
}

void InferenceServer::spawn_worker_locked(Worker& worker) {
  worker.track = telemetry::tracer().register_track(
      "server/worker" + std::to_string(worker.index),
      telemetry::TraceClock::kWall);
  worker.thread = std::thread([this, &worker] { worker_loop(worker); });
}

std::shared_ptr<InferenceEngine> InferenceServer::retire_engine(
    std::size_t index) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (index >= workers_.size()) {
    throw RuntimeApiError(strformat("engine index %zu out of range (%zu)",
                                    index, workers_.size()));
  }
  Worker& worker = *workers_[index];
  if (worker.retiring || worker.retired) {
    throw RuntimeApiError("engine " + std::to_string(index) +
                          " is already retired");
  }
  if (worker.pending_activation) {
    throw RuntimeApiError("engine " + std::to_string(index) +
                          " has a pending activation; retire after it");
  }
  worker.retiring = true;
  if (!started_ || stopped_) {
    // No thread exists (or it is already joined): retire in place.
    worker.retiring = false;
    worker.retired = true;
    return std::move(worker.engine);
  }
  // The worker drains its in-flight batches, then flags retired and
  // exits; the dispatcher stops handing it work immediately.
  worker.cv.notify_all();
  cv_dispatch_.notify_one();
  cv_retire_.wait(lock, [&] { return worker.retired; });
  std::thread thread = std::move(worker.thread);
  auto engine = std::move(worker.engine);
  // A model whose last engine just left needs its queued work failed;
  // the dispatcher's drain_dead_lanes pass handles it.
  cv_dispatch_.notify_one();
  lock.unlock();
  thread.join();
  return engine;
}

bool InferenceServer::engine_retired(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (index >= workers_.size()) {
    throw RuntimeApiError(strformat("engine index %zu out of range (%zu)",
                                    index, workers_.size()));
  }
  return workers_[index]->retired;
}

std::string InferenceServer::engine_device(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (index >= workers_.size()) {
    throw RuntimeApiError(strformat("engine index %zu out of range (%zu)",
                                    index, workers_.size()));
  }
  return workers_[index]->device;
}

void InferenceServer::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  SPNHBM_REQUIRE(!workers_.empty(), "no engines registered");
  SPNHBM_REQUIRE(!started_, "server already started");
  SPNHBM_REQUIRE(batch_samples_ > 0, "batch size must be positive");
  started_ = true;
  dispatcher_track_ = telemetry::tracer().register_track(
      "server/dispatcher", telemetry::TraceClock::kWall);
  for (auto& worker : workers_) {
    if (worker->retired) continue;
    spawn_worker_locked(*worker);
  }
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

void InferenceServer::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_ || stopped_) return;
    stopping_ = true;
    cv_dispatch_.notify_all();
  }
  dispatcher_.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    workers_stopping_ = true;
    for (auto& worker : workers_) worker->cv.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  stopped_ = true;
  cv_space_.notify_all();
}

std::string InferenceServer::resolve_model_locked(
    const std::string& ref) const {
  if (lanes_.count(ref) > 0) return ref;
  std::vector<std::string> ids;
  ids.reserve(lanes_.size());
  for (const auto& [id, lane] : lanes_) ids.push_back(id);
  LaneRefMatch match = resolve_lane_ref(ref, ids);
  if (!match.error.empty()) throw RuntimeApiError(match.error);
  return std::move(match.id);
}

std::string InferenceServer::default_model_locked() const {
  std::string sole;
  for (const auto& worker : workers_) {
    if (!worker_active(*worker)) continue;
    const std::string& id = worker->model_id;
    if (sole.empty()) {
      sole = id;
    } else if (id != sole) {
      throw RuntimeApiError(
          "server hosts multiple models; submit with an explicit model");
    }
    if (worker->pending_activation &&
        lane_id_of(worker->pending_activation) != sole) {
      throw RuntimeApiError(
          "server hosts multiple models; submit with an explicit model");
    }
  }
  return sole;
}

bool InferenceServer::lane_served_locked(const std::string& model) const {
  for (const auto& worker : workers_) {
    if (!worker_active(*worker)) continue;
    if (worker->pending_activation) {
      // Mid-swap the worker serves neither model; it counts only towards
      // its activation target.
      if (lane_id_of(worker->pending_activation) == model) return true;
      continue;
    }
    if (worker->model_id == model) return true;
  }
  return false;
}

std::future<std::vector<double>> InferenceServer::enqueue_locked(
    std::unique_lock<std::mutex>& lock, const std::string& model,
    std::vector<std::uint8_t> samples, const telemetry::TraceContext& trace,
    std::size_t sparse_samples) {
  (void)lock;
  ModelLane& lane = lanes_.at(model);
  auto request = std::make_shared<PendingRequest>();
  request->model = model;
  request->trace = trace;
  request->sparse = sparse_samples > 0;
  request->count = request->sparse ? sparse_samples
                                   : samples.size() / lane.input_features;
  request->remaining = request->count;
  request->samples = std::move(samples);
  request->results.resize(request->count);
  request->enqueue_time = std::chrono::steady_clock::now();
  if (config_.request_timeout.count() > 0) {
    request->deadline = request->enqueue_time + config_.request_timeout;
    live_requests_.push_back(request);
  }
  auto future = request->promise.get_future();
  lane.queued_samples += request->count;
  outstanding_samples_ += request->count;
  stats_.requests += 1;
  stats_.per_model[model].requests += 1;
  ctr_requests_->add(1);
  lane.ctr_requests->add(1);
  stats_.peak_outstanding_samples =
      std::max(stats_.peak_outstanding_samples, outstanding_samples_);
  lane.queue.push_back(std::move(request));
  cv_dispatch_.notify_one();
  return future;
}

void InferenceServer::require_admissible_locked(
    const std::string& model) const {
  if (!started_) return;  // queue-before-start is a supported pattern
  const auto now = std::chrono::steady_clock::now();
  bool any_worker = false;
  for (const auto& worker : workers_) {
    if (!worker_active(*worker)) continue;
    if (worker->pending_activation) {
      // The incoming engine: requests for its target model queue in the
      // lane until the swap completes.
      if (lane_id_of(worker->pending_activation) == model) return;
      continue;
    }
    if (worker->model_id != model) continue;
    any_worker = true;
    if (worker->health != EngineHealth::kQuarantined) return;
    // A quarantined engine still admits work if a probe is running or due:
    // the submitted batch is (or follows) the recovery traffic.
    if (worker->probe_in_flight || now >= worker->quarantined_until) return;
  }
  if (!any_worker) {
    throw RuntimeApiError("model '" + model +
                          "' is not served by any engine");
  }
  throw NoHealthyEngineError(
      "all engines serving model '" + model +
      "' quarantined; back off until a probe readmits one");
}

std::future<std::vector<double>> InferenceServer::submit_locked(
    std::unique_lock<std::mutex>& lock, const std::string& model,
    std::vector<std::uint8_t> samples) {
  const std::size_t features = lanes_.at(model).input_features;
  SPNHBM_REQUIRE(!samples.empty() && samples.size() % features == 0,
                 "input is not a whole number of samples");
  const std::size_t count = samples.size() / features;
  SPNHBM_REQUIRE(count <= config_.max_queue_samples,
                 "request larger than the whole queue bound");
  require_admissible_locked(model);
  cv_space_.wait(lock, [&] {
    return stopped_ ||
           outstanding_samples_ + count <= config_.max_queue_samples;
  });
  if (stopping_ || stopped_) {
    throw RuntimeApiError("submit on a stopped server");
  }
  // The lane can vanish while we wait for space (last engine swapped away).
  if (lanes_.find(model) == lanes_.end()) {
    throw RuntimeApiError("model '" + model + "' is no longer served");
  }
  return enqueue_locked(lock, model, std::move(samples));
}

std::optional<std::future<std::vector<double>>>
InferenceServer::try_submit_locked(std::unique_lock<std::mutex>& lock,
                                   const std::string& model,
                                   std::vector<std::uint8_t> samples,
                                   const telemetry::TraceContext& trace) {
  const std::size_t features = lanes_.at(model).input_features;
  SPNHBM_REQUIRE(!samples.empty() && samples.size() % features == 0,
                 "input is not a whole number of samples");
  const std::size_t count = samples.size() / features;
  require_admissible_locked(model);
  if (outstanding_samples_ + count > config_.max_queue_samples) {
    stats_.rejected += 1;
    ctr_rejected_->add(1);
    return std::nullopt;
  }
  return enqueue_locked(lock, model, std::move(samples), trace);
}

std::future<std::vector<double>> InferenceServer::submit(
    std::vector<std::uint8_t> samples) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (workers_.empty()) {
    throw RuntimeApiError("submit before any engine is registered");
  }
  if (stopping_ || stopped_) {
    throw RuntimeApiError("submit on a stopped server");
  }
  return submit_locked(lock, default_model_locked(), std::move(samples));
}

std::future<std::vector<double>> InferenceServer::submit(
    const std::string& model, std::vector<std::uint8_t> samples) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (workers_.empty()) {
    throw RuntimeApiError("submit before any engine is registered");
  }
  if (stopping_ || stopped_) {
    throw RuntimeApiError("submit on a stopped server");
  }
  return submit_locked(lock, resolve_model_locked(model), std::move(samples));
}

std::optional<std::future<std::vector<double>>> InferenceServer::try_submit(
    std::vector<std::uint8_t> samples) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (workers_.empty()) {
    throw RuntimeApiError("submit before any engine is registered");
  }
  if (stopping_ || stopped_) {
    throw RuntimeApiError("submit on a stopped server");
  }
  return try_submit_locked(lock, default_model_locked(), std::move(samples));
}

std::optional<std::future<std::vector<double>>> InferenceServer::try_submit(
    const std::string& model, std::vector<std::uint8_t> samples) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (workers_.empty()) {
    throw RuntimeApiError("submit before any engine is registered");
  }
  if (stopping_ || stopped_) {
    throw RuntimeApiError("submit on a stopped server");
  }
  return try_submit_locked(lock, resolve_model_locked(model),
                           std::move(samples));
}

std::optional<std::future<std::vector<double>>> InferenceServer::try_submit(
    const std::string& model, std::vector<std::uint8_t> samples,
    const telemetry::TraceContext& trace) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (workers_.empty()) {
    throw RuntimeApiError("submit before any engine is registered");
  }
  if (stopping_ || stopped_) {
    throw RuntimeApiError("submit on a stopped server");
  }
  return try_submit_locked(lock, resolve_model_locked(model),
                           std::move(samples), trace);
}

std::optional<std::future<std::vector<double>>>
InferenceServer::try_submit_sparse(const std::string& model,
                                   std::vector<std::uint8_t> stream,
                                   std::size_t sample_count,
                                   const telemetry::TraceContext& trace) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (workers_.empty()) {
    throw RuntimeApiError("submit before any engine is registered");
  }
  if (stopping_ || stopped_) {
    throw RuntimeApiError("submit on a stopped server");
  }
  const std::string lane_id = resolve_model_locked(model);
  const ModelLane& lane = lanes_.at(lane_id);
  SPNHBM_REQUIRE(sample_count > 0, "sparse submit needs at least one sample");
  // Front-door validation: a malformed stream fails on the caller's
  // thread, never inside an engine where it would read as an engine fault
  // and feed the health state machine. Batch formation trusts the count
  // headers from here on.
  compiler::decode_sparse(stream, lane.input_features, sample_count);
  SPNHBM_REQUIRE(sample_count <= config_.max_queue_samples,
                 "request larger than the whole queue bound");
  require_admissible_locked(lane_id);
  if (outstanding_samples_ + sample_count > config_.max_queue_samples) {
    stats_.rejected += 1;
    ctr_rejected_->add(1);
    return std::nullopt;
  }
  return enqueue_locked(lock, lane_id, std::move(stream), trace, sample_count);
}

std::string InferenceServer::health_text() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string text;
  for (const auto& worker : workers_) {
    if (worker->retired) {
      text += strformat("engine %zu retired\n", worker->index);
      continue;
    }
    const std::string model = worker->pending_activation
                                  ? lane_id_of(worker->pending_activation)
                                  : worker->model_id;
    text += strformat(
        "engine %zu%s%s%s model=%s tier=%d health=%s dispatched=%llu "
        "outstanding=%zu\n",
        worker->index, worker->device.empty() ? "" : " [",
        worker->device.c_str(), worker->device.empty() ? "" : "]",
        model.c_str(), worker->priority,
        engine::to_string(worker->health).c_str(),
        static_cast<unsigned long long>(worker->dispatched_samples),
        worker->outstanding_samples);
  }
  return text;
}

std::future<void> InferenceServer::activate(std::size_t index,
                                            ModelHandle next) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (index >= workers_.size()) {
    throw RuntimeApiError(strformat("engine index %zu out of range (%zu)",
                                    index, workers_.size()));
  }
  if (next == nullptr) {
    throw RuntimeApiError("activate requires a model");
  }
  if (!started_ || stopping_ || stopped_) {
    throw RuntimeApiError("activate on a server that is not running");
  }
  Worker& worker = *workers_[index];
  if (!worker_active(worker)) {
    throw RuntimeApiError("engine " + std::to_string(index) + " is retired");
  }
  if (worker.pending_activation) {
    throw RuntimeApiError("engine " + std::to_string(index) +
                          " already has a pending activation");
  }
  // Open the target lane now: requests for the incoming model queue while
  // the engine reconfigures.
  ensure_lane_locked(lane_id_of(next), next->input_features(), next);
  worker.pending_activation = std::move(next);
  worker.activation_promise = std::make_shared<std::promise<void>>();
  auto future = worker.activation_promise->get_future();
  worker.cv.notify_one();
  cv_dispatch_.notify_one();
  return future;
}

std::vector<std::string> InferenceServer::served_models() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(lanes_.size());
  for (const auto& [id, lane] : lanes_) {
    (void)lane;
    ids.push_back(id);
  }
  return ids;  // sorted: lanes_ is an ordered map
}

std::size_t InferenceServer::outstanding_samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return outstanding_samples_;
}

std::size_t InferenceServer::input_features() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (lanes_.empty()) return 0;
  if (lanes_.size() > 1) {
    throw RuntimeApiError(
        "multiple models served; use input_features(model)");
  }
  return lanes_.begin()->second.input_features;
}

std::size_t InferenceServer::input_features(const std::string& model) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lanes_.at(resolve_model_locked(model)).input_features;
}

ServerStats InferenceServer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServerStats stats = stats_;
  stats.queue_wait_us = queue_wait_us_->snapshot();
  stats.request_latency_us = request_latency_us_->snapshot();
  stats.batch_fill_samples = batch_fill_samples_->snapshot();
  // Per-lane effective batch targets: a tuned model's entry shows its
  // manifest batch size, untuned lanes the server-wide target.
  for (const auto& [model, lane] : lanes_) {
    stats.per_model[model].batch_samples = lane_batch_locked(lane);
  }
  return stats;
}

std::size_t InferenceServer::batch_samples(const std::string& model) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lane_batch_locked(lanes_.at(resolve_model_locked(model)));
}

const InferenceEngine& InferenceServer::engine(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (index >= workers_.size()) {
    throw RuntimeApiError(strformat("engine index %zu out of range (%zu)",
                                    index, workers_.size()));
  }
  if (workers_[index]->retired) {
    throw RuntimeApiError("engine " + std::to_string(index) + " is retired");
  }
  return *workers_[index]->engine;
}

std::uint64_t InferenceServer::dispatched_samples(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (index >= workers_.size()) {
    throw RuntimeApiError(strformat("engine index %zu out of range (%zu)",
                                    index, workers_.size()));
  }
  return workers_[index]->dispatched_samples;
}

EngineHealth InferenceServer::engine_health(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (index >= workers_.size()) {
    throw RuntimeApiError(strformat("engine index %zu out of range (%zu)",
                                    index, workers_.size()));
  }
  return workers_[index]->health;
}

std::string InferenceServer::engine_model(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (index >= workers_.size()) {
    throw RuntimeApiError(strformat("engine index %zu out of range (%zu)",
                                    index, workers_.size()));
  }
  const Worker& worker = *workers_[index];
  return worker.pending_activation ? lane_id_of(worker.pending_activation)
                                   : worker.model_id;
}

InferenceServer::Batch InferenceServer::form_batch_locked(
    const std::string& model, ModelLane& lane) {
  Batch batch;
  batch.model = model;
  // The front request's encoding decides the batch's: it takes requests
  // of that encoding in FIFO order up to the target and closes when the
  // other encoding comes up, so dense and sparse never share a batch.
  // Both slice at sample boundaries — dense rows are fixed-width, and a
  // sparse batch's stream is its slices' bytes joined, no re-encoding.
  batch.sparse = lane.queue.front()->sparse;
  const std::size_t batch_target = lane_batch_locked(lane);
  // Each slice's bytes, copied once the batch's exact size is known.
  std::vector<std::span<const std::uint8_t>> pieces;
  std::size_t batch_bytes = 0;
  while (batch.sample_count < batch_target && !lane.queue.empty()) {
    auto& request = lane.queue.front();
    if (request->sparse != batch.sparse) break;
    if (request->cursor == 0) {
      // First slice of this request leaves the queue: its queue wait ends.
      queue_wait_us_->record(elapsed_us(request->enqueue_time));
      if (request->trace.valid()) {
        auto& tracer = telemetry::tracer();
        tracer.complete_wall(dispatcher_track_, "lane_queue",
                             request->enqueue_time,
                             telemetry::Tracer::wall_now());
        tracer.flow_wall(dispatcher_track_, "request", 't',
                         request->trace.trace_id, request->enqueue_time);
      }
    }
    if (!batch.trace.valid() && request->trace.valid()) {
      batch.trace = request->trace;
    }
    const std::size_t take =
        std::min(batch_target - batch.sample_count,
                 request->count - request->cursor);
    const auto rest = std::span<const std::uint8_t>(request->samples)
                          .subspan(request->byte_cursor);
    const std::size_t length =
        request->sparse ? compiler::sparse_prefix_bytes(rest, take)
                        : take * lane.input_features;
    pieces.push_back(rest.first(length));
    batch_bytes += length;
    request->byte_cursor += length;
    batch.slices.push_back(
        {request, request->cursor, batch.sample_count, take});
    request->cursor += take;
    batch.sample_count += take;
    lane.queued_samples -= take;
    if (request->cursor == request->count) lane.queue.pop_front();
  }
  batch.samples.reserve(batch_bytes);
  for (const auto piece : pieces) {
    batch.samples.insert(batch.samples.end(), piece.begin(), piece.end());
  }
  batch.results.resize(batch.sample_count);
  stats_.batches += 1;
  stats_.samples += batch.sample_count;
  auto& model_stats = stats_.per_model[model];
  model_stats.batches += 1;
  model_stats.samples += batch.sample_count;
  ctr_batches_->add(1);
  ctr_samples_->add(batch.sample_count);
  lane.ctr_batches->add(1);
  lane.ctr_samples->add(batch.sample_count);
  batch_fill_samples_->record(static_cast<double>(batch.sample_count));
  pending_batches_ += 1;
  return batch;
}

bool InferenceServer::any_engine_available_locked(
    std::chrono::steady_clock::time_point now,
    const std::string& model) const {
  for (const auto& worker : workers_) {
    if (!worker_active(*worker) || worker->pending_activation ||
        worker->model_id != model) {
      continue;
    }
    if (worker->health != EngineHealth::kQuarantined) return true;
    if (!worker->probe_in_flight && now >= worker->quarantined_until) {
      return true;  // a probe slot is open
    }
  }
  return false;
}

std::size_t InferenceServer::pick_engine_locked(const Batch& batch) {
  const auto now = std::chrono::steady_clock::now();
  // Only engines currently hosting the batch's model (and not mid-swap)
  // are candidates; batches never cross models.
  const auto serves = [&](std::size_t i) {
    const auto& worker = *workers_[i];
    return worker_active(worker) && !worker.pending_activation &&
           worker.model_id == batch.model;
  };
  const auto probe_due = [&](std::size_t i) {
    const auto& worker = *workers_[i];
    return worker.health == EngineHealth::kQuarantined &&
           !worker.probe_in_flight && now >= worker.quarantined_until;
  };
  // A retried batch avoids the engine it just failed on whenever another
  // engine of its model could take it, as a regular batch or as a probe.
  // With no other engine the retry is that engine's probe, so a lane whose
  // only engine is quarantined still recovers.
  bool have_other = false;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (!serves(i) || i == batch.last_worker) continue;
    if (workers_[i]->health != EngineHealth::kQuarantined || probe_due(i)) {
      have_other = true;
    }
  }
  const bool exclude_last = batch.attempts > 0 && have_other;
  // Circuit-breaker probes take precedence: a due probe is the only way a
  // quarantined engine can prove itself again, and one batch of delay on
  // the happy path is the price of detecting recovery.
  std::size_t probe = kNoWorker;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (!serves(i) || !probe_due(i)) continue;
    if (exclude_last && i == batch.last_worker) continue;
    const auto& worker = *workers_[i];
    if (probe == kNoWorker ||
        worker.quarantined_until < workers_[probe]->quarantined_until) {
      probe = i;
    }
  }
  if (probe != kNoWorker) {
    workers_[probe]->probe_in_flight = true;
    stats_.probes += 1;
    ctr_probes_->add(1);
    telemetry::tracer().instant_wall(workers_[probe]->track, "probe");
    return probe;
  }
  // Regular dispatch: best (lowest) priority tier that still has a
  // non-quarantined engine of this model. Quarantining a whole tier
  // degrades onto the next one.
  int best_tier = std::numeric_limits<int>::max();
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (!serves(i)) continue;
    if (workers_[i]->health != EngineHealth::kQuarantined) {
      best_tier = std::min(best_tier, workers_[i]->priority);
    }
  }
  if (best_tier == std::numeric_limits<int>::max()) return kNoWorker;
  const auto eligible = [&](std::size_t i) {
    const auto& worker = *workers_[i];
    return serves(i) && worker.health != EngineHealth::kQuarantined &&
           worker.priority == best_tier;
  };
  // Failover: the regular pick avoids the engine a retry just failed on
  // too, unless it is the only eligible one of this tier.
  bool tier_has_other = false;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (eligible(i) && i != batch.last_worker) tier_has_other = true;
  }
  const bool avoid_last = batch.attempts > 0 && tier_has_other;
  const auto allowed = [&](std::size_t i) {
    return eligible(i) && !(avoid_last && i == batch.last_worker);
  };
  if (config_.policy == DispatchPolicy::kRoundRobin || workers_.size() == 1) {
    // Each lane keeps its own cursor, so interleaved batches of another
    // model cannot keep sending this model's batches to the same engine.
    std::size_t& cursor = lanes_.at(batch.model).round_robin_next;
    for (std::size_t step = 0; step < workers_.size(); ++step) {
      const std::size_t index = (cursor + step) % workers_.size();
      if (!allowed(index)) continue;
      cursor = (index + 1) % workers_.size();
      return index;
    }
    return kNoWorker;
  }
  // Least expected completion time of this batch per engine, using the
  // measured rate once available and the engine's nominal claim before.
  // An engine with neither gets probed optimistically while idle (cold
  // start), but never accumulates a backlog before its first measurement.
  std::size_t best = kNoWorker;
  double best_eta = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (!allowed(i)) continue;
    const auto& worker = *workers_[i];
    const double rate = worker.busy_seconds > 0.0
                            ? static_cast<double>(worker.completed_samples) /
                                  worker.busy_seconds
                            : worker.nominal_throughput;
    double eta;
    if (rate > 0.0) {
      eta = static_cast<double>(worker.outstanding_samples +
                                batch.sample_count) /
            rate;
    } else {
      eta = worker.outstanding_samples == 0
                ? 0.0
                : std::numeric_limits<double>::infinity();
    }
    // A degraded engine is still in rotation but pays an ETA penalty (its
    // recent failures predict retries).
    if (worker.health == EngineHealth::kDegraded) eta *= 2.0;
    if (best == kNoWorker || eta < best_eta) {
      best_eta = eta;
      best = i;
    }
  }
  return best;
}

bool InferenceServer::dispatch_batch_locked(Batch& batch) {
  const std::size_t target = pick_engine_locked(batch);
  if (target == kNoWorker) return false;
  if (batch.attempts > 0 && batch.last_worker != target) {
    stats_.failovers += 1;
    ctr_failovers_->add(1);
  }
  auto& worker = *workers_[target];
  worker.outstanding_samples += batch.sample_count;
  worker.dispatched_samples += batch.sample_count;
  worker.queue.push_back(std::move(batch));
  worker.cv.notify_one();
  return true;
}

void InferenceServer::expire_request_locked(PendingRequest& request) {
  request.settled = true;
  stats_.deadline_expirations += 1;
  ctr_deadline_expirations_->add(1);
  telemetry::tracer().instant_wall(dispatcher_track_, "deadline_expired");
  request.promise.set_exception(std::make_exception_ptr(DeadlineExceededError(
      strformat("request expired after %lld us",
                static_cast<long long>(config_.request_timeout.count())))));
  if (request.cursor < request.count) {
    // Cancel the samples that never dispatched; in-flight slices complete
    // normally and are discarded against the settled promise.
    const std::size_t cancelled = request.count - request.cursor;
    request.cursor = request.count;
    request.remaining -= cancelled;
    outstanding_samples_ -= cancelled;
    auto lane_it = lanes_.find(request.model);
    if (lane_it != lanes_.end()) {
      ModelLane& lane = lane_it->second;
      lane.queued_samples -= cancelled;
      for (auto it = lane.queue.begin(); it != lane.queue.end(); ++it) {
        if (it->get() == &request) {
          lane.queue.erase(it);
          break;
        }
      }
    }
    cv_space_.notify_all();
  }
}

std::chrono::steady_clock::time_point InferenceServer::retry_time_locked(
    int attempts) {
  const auto& retry = config_.retry;
  double delay_us =
      std::chrono::duration<double, std::micro>(retry.backoff_base).count();
  for (int i = 1; i < attempts; ++i) delay_us *= retry.backoff_multiplier;
  delay_us = std::min(
      delay_us,
      std::chrono::duration<double, std::micro>(retry.backoff_cap).count());
  // Deterministic jitter: a seeded stream, not wall-clock entropy, so a
  // given failure sequence always produces the same backoff sequence.
  delay_us *= (1.0 - retry.jitter) + retry.jitter * jitter_rng_.next_double();
  return std::chrono::steady_clock::now() +
         std::chrono::microseconds(static_cast<std::int64_t>(delay_us));
}

void InferenceServer::note_worker_failure_locked(Worker& worker) {
  worker.consecutive_failures += 1;
  const auto now = std::chrono::steady_clock::now();
  const auto& policy = config_.health;
  if (worker.health == EngineHealth::kQuarantined) {
    // Failed probe (or a straggler batch dispatched before quarantine):
    // extend the quarantine with a longer interval, capped.
    worker.probe_in_flight = false;
    const auto grown = std::chrono::microseconds(static_cast<std::int64_t>(
        static_cast<double>(worker.probe_interval.count()) *
        policy.probe_backoff_multiplier));
    worker.probe_interval = std::min(grown, policy.probe_interval_cap);
    worker.quarantined_until = now + worker.probe_interval;
    return;
  }
  if (worker.consecutive_failures >= policy.quarantine_after) {
    worker.health = EngineHealth::kQuarantined;
    worker.probe_in_flight = false;
    worker.probe_interval = policy.probe_interval;
    worker.quarantined_until = now + worker.probe_interval;
    stats_.quarantines += 1;
    ctr_quarantines_->add(1);
    telemetry::tracer().instant_wall(worker.track, "quarantined");
  } else if (worker.consecutive_failures >= policy.degraded_after) {
    worker.health = EngineHealth::kDegraded;
  }
}

void InferenceServer::note_worker_success_locked(Worker& worker) {
  worker.consecutive_failures = 0;
  if (worker.health == EngineHealth::kQuarantined) {
    stats_.readmissions += 1;
    ctr_readmissions_->add(1);
    telemetry::tracer().instant_wall(worker.track, "readmitted");
  }
  worker.health = EngineHealth::kHealthy;
  worker.probe_in_flight = false;
  worker.probe_interval = config_.health.probe_interval;
}

void InferenceServer::fail_batch_locked(Batch& batch,
                                        const std::exception_ptr& error) {
  for (auto& slice : batch.slices) {
    slice.request->error = error;
    complete_slice_locked(slice);
  }
  finish_batch_locked(batch);
}

void InferenceServer::drain_dead_lanes_locked() {
  for (auto it = lanes_.begin(); it != lanes_.end();) {
    const std::string& model = it->first;
    ModelLane& lane = it->second;
    if (lane_served_locked(model)) {
      ++it;
      continue;
    }
    if (!lane.queue.empty()) {
      const auto error = std::make_exception_ptr(
          RuntimeApiError("model '" + model + "' is no longer served"));
      while (!lane.queue.empty()) {
        auto request = std::move(lane.queue.front());
        lane.queue.pop_front();
        if (request->settled) continue;
        request->settled = true;
        stats_.failed_requests += 1;
        ctr_failed_requests_->add(1);
        stats_.per_model[model].failed_requests += 1;
        request->promise.set_exception(error);
        const std::size_t cancelled = request->count - request->cursor;
        request->cursor = request->count;
        request->remaining -= cancelled;
        outstanding_samples_ -= cancelled;
      }
      lane.queued_samples = 0;
      cv_space_.notify_all();
    }
    it = lanes_.erase(it);
  }
}

void InferenceServer::dispatcher_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();

    // 1. Request deadlines. live_requests_ is in expiry order (one
    //    config-wide timeout + FIFO enqueue), so only the front can be due.
    while (!live_requests_.empty()) {
      auto& front = live_requests_.front();
      if (front->settled) {
        live_requests_.pop_front();
        continue;
      }
      if (front->deadline <= now) {
        expire_request_locked(*front);
        live_requests_.pop_front();
        continue;
      }
      break;
    }

    // 2. Models that lost their last engine (hot-swap away): fail their
    //    queued work fast instead of letting it sit forever.
    drain_dead_lanes_locked();

    // 3. Failed batches whose backoff has elapsed: re-dispatch (failover),
    //    or fail permanently when nothing serves their model any more. A
    //    model whose engines are all quarantined blocks only its own
    //    batches.
    std::vector<std::string> blocked;
    for (auto it = retry_queue_.begin(); it != retry_queue_.end();) {
      if (it->not_before > now) {
        ++it;
        continue;
      }
      if (!lane_served_locked(it->model)) {
        fail_batch_locked(*it, std::make_exception_ptr(RuntimeApiError(
                                   "model '" + it->model +
                                   "' is no longer served")));
        it = retry_queue_.erase(it);
        continue;
      }
      if (dispatch_batch_locked(*it)) {
        it = retry_queue_.erase(it);
      } else {
        blocked.push_back(it->model);
        ++it;
      }
    }
    const auto is_blocked = [&](const std::string& model) {
      return std::find(blocked.begin(), blocked.end(), model) !=
             blocked.end();
    };

    // 4. Fresh batches, per model lane: full ones immediately, partial
    //    ones on the flush deadline (or unconditionally while draining
    //    for stop()). Lanes with a blocked retry wait behind it.
    for (auto& [model, lane] : lanes_) {
      if (is_blocked(model)) continue;
      while (!lane.queue.empty()) {
        const bool full = lane.queued_samples >= lane_batch_locked(lane);
        const bool flush_due =
            now >= lane.queue.front()->enqueue_time +
                       lane_max_latency_locked(lane);
        if (!full && !flush_due && !stopping_) break;
        if (!any_engine_available_locked(now, model)) {
          blocked.push_back(model);
          break;
        }
        if (!full && !stopping_) {
          stats_.deadline_flushes += 1;
          ctr_deadline_flushes_->add(1);
          telemetry::tracer().instant_wall(dispatcher_track_,
                                           "deadline_flush");
        }
        telemetry::tracer().instant_wall(dispatcher_track_, "dispatch");
        Batch batch = form_batch_locked(model, lane);
        const bool dispatched = dispatch_batch_locked(batch);
        SPNHBM_REQUIRE(dispatched, "available engine vanished under the lock");
      }
    }

    // 5. Shutdown: everything queued has been drained to a terminal state.
    bool lanes_empty = true;
    for (const auto& [model, lane] : lanes_) {
      (void)model;
      if (!lane.queue.empty()) {
        lanes_empty = false;
        break;
      }
    }
    if (stopping_ && lanes_empty && retry_queue_.empty() &&
        pending_batches_ == 0) {
      return;
    }

    // 6. Sleep until the next timed event (or a notify).
    std::optional<std::chrono::steady_clock::time_point> wake;
    const auto consider = [&](std::chrono::steady_clock::time_point t) {
      if (!wake || t < *wake) wake = t;
    };
    if (!live_requests_.empty()) consider(live_requests_.front()->deadline);
    for (const auto& batch : retry_queue_) consider(batch.not_before);
    for (const auto& [model, lane] : lanes_) {
      if (lane.queue.empty() || stopping_ || is_blocked(model)) continue;
      consider(lane.queue.front()->enqueue_time +
               lane_max_latency_locked(lane));
    }
    // Blocked models: wake when the earliest probe window of one of their
    // engines opens (activation completions notify the cv directly).
    for (const auto& model : blocked) {
      for (const auto& worker : workers_) {
        if (!worker_active(*worker) || worker->pending_activation ||
            worker->model_id != model) {
          continue;
        }
        if (worker->health == EngineHealth::kQuarantined &&
            !worker->probe_in_flight) {
          consider(worker->quarantined_until);
        }
      }
    }
    if (wake) {
      cv_dispatch_.wait_until(lock, *wake);
    } else {
      cv_dispatch_.wait(lock);
    }
  }
}

void InferenceServer::complete_slice_locked(const BatchSlice& slice) {
  auto& request = *slice.request;
  request.remaining -= slice.count;
  if (request.remaining > 0 || request.settled) return;
  request.settled = true;
  request_latency_us_->record(elapsed_us(request.enqueue_time));
  if (request.error) {
    stats_.failed_requests += 1;
    ctr_failed_requests_->add(1);
    stats_.per_model[request.model].failed_requests += 1;
    request.promise.set_exception(request.error);
  } else {
    request.promise.set_value(std::move(request.results));
  }
}

void InferenceServer::finish_batch_locked(const Batch& batch) {
  outstanding_samples_ -= batch.sample_count;
  pending_batches_ -= 1;
  cv_space_.notify_all();
}

void InferenceServer::perform_activation(std::unique_lock<std::mutex>& lock,
                                         Worker& worker) {
  // pending_activation stays set while the engine reconfigures: the
  // dispatcher treats the worker as serving neither the outgoing nor the
  // incoming model until the swap resolves, so no batch can land on a
  // half-configured engine.
  ModelHandle target = worker.pending_activation;
  auto promise = worker.activation_promise;
  lock.unlock();
  std::exception_ptr error;
  try {
    const telemetry::Tracer::WallSpan span(telemetry::tracer(), worker.track,
                                           "activate");
    worker.engine->activate(target);
  } catch (...) {
    error = std::current_exception();
  }
  lock.lock();
  worker.pending_activation = nullptr;
  worker.activation_promise = nullptr;
  if (!error) {
    const auto& caps = worker.engine->capabilities();
    worker.model_id = lane_id_of(worker.engine->loaded_model());
    worker.input_features = caps.input_features;
    worker.nominal_throughput = caps.nominal_throughput;
    // The measured rate belonged to the outgoing model; start fresh.
    worker.completed_samples = 0;
    worker.busy_seconds = 0.0;
    stats_.activations += 1;
    ctr_activations_->add(1);
    telemetry::tracer().instant_wall(worker.track, "activated");
    promise->set_value();
  } else {
    // The engine kept its old model (activate is strong-exception-safe in
    // every backend); the failure reaches only the activation future.
    stats_.failed_activations += 1;
    ctr_failed_activations_->add(1);
    promise->set_exception(error);
  }
  cv_dispatch_.notify_one();
}

void InferenceServer::worker_loop(Worker& worker) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (worker.queue.empty()) {
      // Hot-swaps run once the queue drains — after in-flight batches,
      // before shutdown, so a stop() never strands the activation future.
      if (worker.pending_activation) {
        perform_activation(lock, worker);
        continue;
      }
      // Retirement: the queue is drained, hand the slot back. The
      // retire_engine caller joins this thread and takes the engine.
      if (worker.retiring) {
        worker.retiring = false;
        worker.retired = true;
        cv_retire_.notify_all();
        cv_dispatch_.notify_one();
        return;
      }
      if (workers_stopping_) return;
      worker.cv.wait(lock);
      continue;
    }
    Batch batch = std::move(worker.queue.front());
    worker.queue.pop_front();
    lock.unlock();

    std::exception_ptr error;
    double busy_before = 0.0;
    const telemetry::Tracer::WallTime exec_start =
        telemetry::Tracer::wall_now();
    try {
      // Publish the batch's trace id to this thread while the engine runs:
      // the DES coroutines underneath (HBM bursts, DMA transfers) and any
      // log lines pick it up, so virtual-time spans and logs join the
      // traced request's flow chain.
      const telemetry::TraceContextScope trace_scope(batch.trace);
      busy_before = worker.engine->stats().busy_seconds;
      worker.engine->wait(
          batch.sparse
              ? worker.engine->submit_sparse(batch.samples,
                                             batch.sample_count,
                                             batch.results)
              : worker.engine->submit(batch.samples, batch.results));
    } catch (...) {
      error = std::current_exception();
    }
    {
      auto& tracer = telemetry::tracer();
      tracer.complete_wall(worker.track, "batch", exec_start,
                           telemetry::Tracer::wall_now());
      if (batch.trace.valid()) {
        tracer.flow_wall(worker.track, "request", 't', batch.trace.trace_id,
                         exec_start);
      }
    }
    const double busy_delta =
        error ? 0.0 : worker.engine->stats().busy_seconds - busy_before;
    if (!error) {
      // Scatter outside the lock: every slice targets a distinct result
      // range of its request.
      for (const auto& slice : batch.slices) {
        std::copy_n(batch.results.data() + slice.batch_offset, slice.count,
                    slice.request->results.data() + slice.request_offset);
      }
    }

    lock.lock();
    worker.outstanding_samples -= batch.sample_count;
    if (!error) {
      note_worker_success_locked(worker);
      worker.completed_samples += batch.sample_count;
      worker.busy_seconds += busy_delta;
      for (const auto& slice : batch.slices) complete_slice_locked(slice);
      finish_batch_locked(batch);
    } else {
      note_worker_failure_locked(worker);
      if (batch.attempts + 1 >= config_.retry.max_attempts) {
        // Retry budget exhausted: the failure becomes permanent, but only
        // for the requests actually sliced into this batch.
        fail_batch_locked(batch, error);
      } else {
        batch.attempts += 1;
        batch.last_worker = worker.index;
        batch.not_before = retry_time_locked(batch.attempts);
        stats_.batch_retries += 1;
        ctr_batch_retries_->add(1);
        telemetry::tracer().instant_wall(worker.track, "batch_retry");
        retry_queue_.push_back(std::move(batch));
      }
    }
    // The dispatcher owns retries, probe windows and the drain condition;
    // every completion can change one of them.
    cv_dispatch_.notify_one();
  }
}

}  // namespace spnhbm::engine
