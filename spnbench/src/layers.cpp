#include "layers.hpp"

#include <exception>
#include <utility>

#include "spnhbm/telemetry/metrics.hpp"
#include "spnhbm/util/log.hpp"

namespace spnbench {

using spnhbm::engine::BatchHandle;

CardCounters CardCounters::read() {
  auto& registry = spnhbm::telemetry::metrics();
  const auto value = [&](const char* name) {
    return registry.counter(name)->value();
  };
  CardCounters c;
  c.pcie_h2d_bytes = value("pcie.bytes_h2d");
  c.pcie_d2h_bytes = value("pcie.bytes_d2h");
  c.pcie_transfers = value("pcie.transfers");
  c.hbm_bytes = value("hbm.bytes_read") + value("hbm.bytes_written");
  c.hbm_row_hits = value("hbm.row_hits");
  c.hbm_row_misses = value("hbm.row_misses");
  c.accelerator_jobs = value("accelerator.jobs");
  return c;
}

CardCounters CardCounters::operator-(const CardCounters& earlier) const {
  CardCounters d;
  d.pcie_h2d_bytes = pcie_h2d_bytes - earlier.pcie_h2d_bytes;
  d.pcie_d2h_bytes = pcie_d2h_bytes - earlier.pcie_d2h_bytes;
  d.pcie_transfers = pcie_transfers - earlier.pcie_transfers;
  d.hbm_bytes = hbm_bytes - earlier.hbm_bytes;
  d.hbm_row_hits = hbm_row_hits - earlier.hbm_row_hits;
  d.hbm_row_misses = hbm_row_misses - earlier.hbm_row_misses;
  d.accelerator_jobs = accelerator_jobs - earlier.accelerator_jobs;
  return d;
}

TimedEngine::TimedEngine(std::shared_ptr<spnhbm::engine::FpgaSimEngine> inner,
                         SpanRecorder& spans)
    : inner_(std::move(inner)), spans_(spans) {}

void TimedEngine::begin(BatchHandle handle, std::int64_t start_ns,
                        spnhbm::Picoseconds virtual_start,
                        std::size_t samples) {
  const std::lock_guard<std::mutex> lock(mutex_);
  pending_[handle] = {start_ns, virtual_start, samples,
                      spnhbm::current_trace_id()};
}

BatchHandle TimedEngine::submit(std::span<const std::uint8_t> samples,
                                std::span<double> results) {
  const std::int64_t start = now_ns();
  const spnhbm::Picoseconds virtual_start = inner_->virtual_now();
  const BatchHandle handle = inner_->submit(samples, results);
  begin(handle, start, virtual_start, results.size());
  return handle;
}

BatchHandle TimedEngine::submit_sparse(std::span<const std::uint8_t> stream,
                                       std::size_t sample_count,
                                       std::span<double> results) {
  const std::int64_t start = now_ns();
  const spnhbm::Picoseconds virtual_start = inner_->virtual_now();
  const BatchHandle handle =
      inner_->submit_sparse(stream, sample_count, results);
  begin(handle, start, virtual_start, sample_count);
  return handle;
}

void TimedEngine::wait(BatchHandle handle) {
  inner_->wait(handle);
  const std::int64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = pending_.find(handle);
  if (it == pending_.end()) return;
  const Pending pending = it->second;
  pending_.erase(it);
  batches_.push_back(
      {pending.samples, static_cast<double>(end - pending.start_ns) / 1e3,
       spnhbm::to_seconds(inner_->virtual_now() - pending.virtual_start) *
           1e6});
  spans_.record({spans_.next_id(), pending.parent, 0, "engine.batch",
                 pending.start_ns, end});
}

std::vector<BatchRecord> TimedEngine::batches() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return batches_;
}

TracedService::TracedService(spnhbm::engine::InferenceService& inner,
                             SpanRecorder& spans)
    : inner_(inner), spans_(spans) {}

template <typename SubmitFn>
std::optional<std::future<std::vector<double>>> TracedService::traced(
    SubmitFn submit) {
  const std::uint64_t id = spans_.next_id();
  const std::int64_t start = now_ns();
  auto future = submit(spnhbm::telemetry::TraceContext{id, 0});
  if (!future.has_value()) return future;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] =
        callers_.try_emplace(std::this_thread::get_id(), callers_.size());
    if (inserted) caller_sequence_.push_back(0);
    const std::size_t caller = it->second;
    submissions_.push_back({id, caller, caller_sequence_[caller]++});
  }
  // A deferred future runs its body inside get(): collecting the result
  // is what closes the span.
  return std::async(
      std::launch::deferred,
      [spans = &spans_, id, start, inner = std::move(*future)]() mutable {
        try {
          auto results = inner.get();
          spans->record({id, 0, 0, "service.request", start, now_ns()});
          return results;
        } catch (...) {
          spans->record({id, 0, 0, "service.request", start, now_ns()});
          throw;
        }
      });
}

std::optional<std::future<std::vector<double>>> TracedService::try_submit(
    const std::string& model, std::vector<std::uint8_t> samples,
    const spnhbm::telemetry::TraceContext& /*trace*/) {
  return traced([&](const spnhbm::telemetry::TraceContext& context) {
    return inner_.try_submit(model, std::move(samples), context);
  });
}

std::optional<std::future<std::vector<double>>> TracedService::try_submit_sparse(
    const std::string& model, std::vector<std::uint8_t> stream,
    std::size_t sample_count, const spnhbm::telemetry::TraceContext& /*trace*/) {
  return traced([&](const spnhbm::telemetry::TraceContext& context) {
    return inner_.try_submit_sparse(model, std::move(stream), sample_count,
                                    context);
  });
}

std::vector<TracedService::Submission> TracedService::submissions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return submissions_;
}

}  // namespace spnbench
