// Benchmark-owned wrappers around the layer entry points. They forward
// every call unchanged and time it from outside; only the traced run
// installs them, so the end-to-end runs measure the bare stack.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "spans.hpp"
#include "spnhbm/engine/fpga_engine.hpp"
#include "spnhbm/engine/service.hpp"

namespace spnbench {

/// Simulated-card counters the hbm/pcie/fpga layers publish in the global
/// metrics registry. They are process-wide, so a measurement takes the
/// difference of two readings around exactly the work it covers.
struct CardCounters {
  std::uint64_t pcie_h2d_bytes = 0;
  std::uint64_t pcie_d2h_bytes = 0;
  std::uint64_t pcie_transfers = 0;
  std::uint64_t hbm_bytes = 0;
  std::uint64_t hbm_row_hits = 0;
  std::uint64_t hbm_row_misses = 0;
  std::uint64_t accelerator_jobs = 0;

  static CardCounters read();
  CardCounters operator-(const CardCounters& earlier) const;
};

/// One engine batch as the wrapper saw it.
struct BatchRecord {
  std::size_t samples = 0;
  /// Host wall time of submit + wait.
  double host_us = 0.0;
  /// Simulated card time the batch advanced the engine's virtual clock.
  double virtual_us = 0.0;
};

/// InferenceEngine decorator over one FpgaSimEngine: records each batch's
/// host and virtual cost, and an "engine.batch" span whose parent is the
/// service request the server published as the batch's trace context.
class TimedEngine final : public spnhbm::engine::InferenceEngine {
 public:
  TimedEngine(std::shared_ptr<spnhbm::engine::FpgaSimEngine> inner,
              SpanRecorder& spans);

  const spnhbm::engine::EngineCapabilities& capabilities() const override {
    return inner_->capabilities();
  }
  const spnhbm::engine::ModelHandle& loaded_model() const override {
    return inner_->loaded_model();
  }
  void activate(spnhbm::engine::ModelHandle next) override {
    inner_->activate(std::move(next));
  }
  spnhbm::engine::BatchHandle submit(std::span<const std::uint8_t> samples,
                                     std::span<double> results) override;
  spnhbm::engine::BatchHandle submit_sparse(
      std::span<const std::uint8_t> stream, std::size_t sample_count,
      std::span<double> results) override;
  void wait(spnhbm::engine::BatchHandle handle) override;
  double measure_throughput(std::uint64_t sample_count) override {
    return inner_->measure_throughput(sample_count);
  }
  spnhbm::engine::EngineStats stats() const override { return inner_->stats(); }

  /// Batches completed so far, in completion order.
  std::vector<BatchRecord> batches() const;

 private:
  struct Pending {
    std::int64_t start_ns = 0;
    spnhbm::Picoseconds virtual_start{};
    std::size_t samples = 0;
    std::uint64_t parent = 0;
  };
  void begin(spnhbm::engine::BatchHandle handle, std::int64_t start_ns,
             spnhbm::Picoseconds virtual_start, std::size_t samples);

  std::shared_ptr<spnhbm::engine::FpgaSimEngine> inner_;
  SpanRecorder& spans_;
  mutable std::mutex mutex_;
  std::map<spnhbm::engine::BatchHandle, Pending> pending_;
  std::vector<BatchRecord> batches_;
};

/// InferenceService decorator: records a "service.request" span from
/// submission to the moment the caller collects the result, and gives
/// every request a trace context whose id is that span's id, so the
/// engine wrapper can name the span that caused each batch.
///
/// Callers are told apart by thread: the RPC server submits each
/// connection's requests from that connection's reader thread, in arrival
/// order, so (caller ordinal, sequence) identifies a request.
class TracedService final : public spnhbm::engine::InferenceService {
 public:
  struct Submission {
    std::uint64_t span = 0;
    std::size_t caller = 0;
    std::size_t sequence = 0;
  };

  TracedService(spnhbm::engine::InferenceService& inner, SpanRecorder& spans);

  std::vector<std::string> served_models() const override {
    return inner_.served_models();
  }
  std::size_t input_features(const std::string& model) const override {
    return inner_.input_features(model);
  }
  std::size_t outstanding_samples() const override {
    return inner_.outstanding_samples();
  }
  std::optional<std::future<std::vector<double>>> try_submit(
      const std::string& model, std::vector<std::uint8_t> samples) override {
    return try_submit(model, std::move(samples), {});
  }
  std::optional<std::future<std::vector<double>>> try_submit(
      const std::string& model, std::vector<std::uint8_t> samples,
      const spnhbm::telemetry::TraceContext& trace) override;
  std::optional<std::future<std::vector<double>>> try_submit_sparse(
      const std::string& model, std::vector<std::uint8_t> stream,
      std::size_t sample_count,
      const spnhbm::telemetry::TraceContext& trace = {}) override;
  std::string health_text() const override { return inner_.health_text(); }

  /// Accepted submissions in submission order.
  std::vector<Submission> submissions() const;

 private:
  /// Opens the span, runs `submit` with the request's trace context and
  /// wraps the accepted future so collecting it closes the span.
  template <typename SubmitFn>
  std::optional<std::future<std::vector<double>>> traced(SubmitFn submit);

  spnhbm::engine::InferenceService& inner_;
  SpanRecorder& spans_;
  mutable std::mutex mutex_;
  std::map<std::thread::id, std::size_t> callers_;
  std::vector<std::size_t> caller_sequence_;
  std::vector<Submission> submissions_;
};

}  // namespace spnbench
