#include "spnhbm/fpga/accelerator.hpp"

#include <algorithm>
#include <exception>
#include <vector>

#include "spnhbm/compiler/op_program.hpp"
#include "spnhbm/compiler/sparse_evidence.hpp"
#include "spnhbm/util/log.hpp"

namespace spnhbm::fpga {

SpnAccelerator::SpnAccelerator(sim::ProcessRunner& runner,
                               const compiler::DatapathModule& module,
                               const arith::ArithBackend& backend,
                               axi::AxiPort& data_port,
                               hbm::HbmChannel* backing,
                               AcceleratorConfig config)
    : runner_(runner),
      module_(module),
      backend_(backend),
      data_port_(data_port),
      backing_(backing),
      config_(config),
      done_notify_(runner.scheduler()) {
  SPNHBM_REQUIRE(module_.input_features() > 0, "datapath has no inputs");
  const std::size_t samples_per_burst = std::max<std::size_t>(
      1, config_.load_burst_bytes / module_.input_features());
  const std::size_t sample_tokens = std::max<std::size_t>(
      2, config_.sample_fifo_samples / samples_per_burst);
  const std::size_t result_tokens = std::max<std::size_t>(
      2, config_.result_fifo_results / samples_per_burst);
  sample_buffer_ = std::make_unique<sim::Fifo<BurstToken>>(runner.scheduler(),
                                                           sample_tokens);
  result_buffer_ = std::make_unique<sim::Fifo<BurstToken>>(runner.scheduler(),
                                                           result_tokens);
  track_ = telemetry::tracer().register_track(config_.label,
                                              telemetry::TraceClock::kVirtual);
  auto& registry = telemetry::metrics();
  ctr_jobs_ = registry.counter("accelerator.jobs");
  ctr_samples_ = registry.counter("accelerator.samples");
}

void SpnAccelerator::write_register(Reg reg, std::uint64_t value) {
  switch (reg) {
    case Reg::kControl:
      if (value == 1) {
        start_inference();
      } else if (value == 2) {
        run_config_query();
      } else {
        throw RuntimeApiError("unknown control command");
      }
      return;
    case Reg::kInputAddress: input_address_ = value; return;
    case Reg::kOutputAddress: output_address_ = value; return;
    case Reg::kSampleCount: sample_count_ = value; return;
    case Reg::kInputBytes: input_bytes_ = value; return;
    case Reg::kStatus:
    case Reg::kReturnValue:
      throw RuntimeApiError("register is read-only");
  }
  throw RuntimeApiError("unknown register");
}

std::uint64_t SpnAccelerator::read_register(Reg reg) const {
  switch (reg) {
    case Reg::kControl: return 0;
    case Reg::kStatus:
      return (busy_ ? 1u : 0u) | (done_ ? 2u : 0u);
    case Reg::kInputAddress: return input_address_;
    case Reg::kOutputAddress: return output_address_;
    case Reg::kSampleCount: return sample_count_;
    case Reg::kInputBytes: return input_bytes_;
    case Reg::kReturnValue: return return_value_;
  }
  throw RuntimeApiError("unknown register");
}

void SpnAccelerator::run_config_query() {
  // Second execution mode (paper §IV-B): the runtime queries synthesis-time
  // parameters instead of supplying them manually. Completes combinationally
  // from the register file's point of view.
  switch (static_cast<ConfigQuery>(sample_count_)) {
    case ConfigQuery::kInputFeatures:
      return_value_ = module_.input_features();
      return;
    case ConfigQuery::kPipelineDepth:
      return_value_ = module_.pipeline_depth();
      return;
    case ConfigQuery::kInterfaceBytes:
      return_value_ = config_.interface_bytes;
      return;
    case ConfigQuery::kClockHz:
      return_value_ = static_cast<std::uint64_t>(config_.clock.frequency_hz());
      return;
    case ConfigQuery::kQueryKind:
      return_value_ = static_cast<std::uint64_t>(module_.query());
      return;
  }
  throw RuntimeApiError("unknown configuration query");
}

void SpnAccelerator::start_inference() {
  if (busy_) throw RuntimeApiError("accelerator is already running");
  SPNHBM_REQUIRE(sample_count_ > 0, "sample count must be set before start");
  busy_ = true;
  done_ = false;
  runner_.spawn(job_process());
}

sim::Task<void> SpnAccelerator::wait_done() {
  if (done_) co_return;
  co_await done_notify_.wait();
}

sim::Process SpnAccelerator::job_process() {
  const std::uint64_t samples = sample_count_;
  const std::uint64_t input_address = input_address_;
  const std::uint64_t output_address = output_address_;
  const std::uint64_t input_bytes = input_bytes_;
  const Picoseconds job_start = runner_.scheduler().now();

  sim::Process load =
      runner_.spawn(load_unit(input_address, samples, input_bytes));
  sim::Process datapath = runner_.spawn(datapath_unit(samples));
  sim::Process store = runner_.spawn(store_unit(output_address, samples));
  co_await load.join();
  co_await datapath.join();
  co_await store.join();

  // A functional failure (say, a feature byte outside a lookup table)
  // still completes the job, so the host's waiters resume and the
  // simulation drains; the error then surfaces through the runner's
  // check() instead of leaving the PE busy forever.
  std::exception_ptr failure;
  if (config_.compute_results && backing_ != nullptr) {
    try {
      evaluate_block(input_address, output_address, samples, input_bytes);
    } catch (...) {
      failure = std::current_exception();
    }
  }
  samples_processed_ += samples;
  ctr_jobs_->add(1);
  ctr_samples_->add(samples);
  telemetry::tracer().complete_virtual(track_, "job", job_start,
                                       runner_.scheduler().now());
  busy_ = false;
  done_ = true;
  done_notify_.notify_all();
  if (failure) std::rethrow_exception(failure);
}

sim::Process SpnAccelerator::load_unit(std::uint64_t input_address,
                                       std::uint64_t samples,
                                       std::uint64_t input_bytes) {
  const std::uint64_t features = module_.input_features();
  // Dense layout bursts samples x features bytes. A sparse stream bursts
  // exactly its encoded size — this is where the HBM read traffic drops
  // with the active-index density. Sample boundaries inside a sparse
  // burst are variable-length; the decoder emits samples proportionally
  // to the bytes received (exact at the final burst), which preserves the
  // II = 1 consumption rate downstream.
  const std::uint64_t total_bytes =
      input_bytes != 0 ? input_bytes : samples * features;
  std::uint64_t bytes_done = 0;
  std::uint64_t samples_emitted = 0;
  while (bytes_done < total_bytes) {
    const auto burst = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        config_.load_burst_bytes, total_bytes - bytes_done));
    co_await data_port_.transfer(
        axi::BurstRequest{input_address + bytes_done, burst, false});
    bytes_done += burst;
    // Samples fully contained in the data received so far.
    const std::uint64_t now_available =
        input_bytes != 0 ? (bytes_done == total_bytes
                                ? samples
                                : bytes_done * samples / total_bytes)
                         : bytes_done / features;
    BurstToken token;
    token.samples = now_available - samples_emitted;
    token.last = bytes_done == total_bytes;
    samples_emitted = now_available;
    if (token.samples > 0 || token.last) {
      co_await sample_buffer_->put(token);
    }
  }
}

sim::Process SpnAccelerator::datapath_unit(std::uint64_t samples) {
  // II = 1: consumes one sample per PE cycle once filled. Within a burst
  // the linear-rate pipeline is modelled analytically (exact for II = 1).
  auto& scheduler = runner_.scheduler();
  std::uint64_t remaining = samples;
  bool first = true;
  while (remaining > 0) {
    BurstToken token = co_await sample_buffer_->get();
    if (first && token.samples > 0) {
      // Pipeline fill: the first result trails the first sample by the
      // datapath depth.
      const Picoseconds fill_start = scheduler.now();
      co_await sim::delay(scheduler,
                          config_.clock.cycles(module_.pipeline_depth()));
      telemetry::tracer().complete_virtual(track_, "pipeline_fill", fill_start,
                                           scheduler.now());
      first = false;
    }
    co_await sim::delay(
        scheduler,
        config_.clock.cycles(static_cast<std::int64_t>(token.samples)));
    remaining -= std::min<std::uint64_t>(remaining, token.samples);
    co_await result_buffer_->put(token);
  }
}

sim::Process SpnAccelerator::store_unit(std::uint64_t output_address,
                                        std::uint64_t samples) {
  constexpr std::uint64_t kResultBytes = 8;
  const std::uint64_t total_bytes = samples * kResultBytes;
  std::uint64_t pending_bytes = 0;
  std::uint64_t written = 0;
  std::uint64_t consumed_samples = 0;
  while (consumed_samples < samples) {
    BurstToken token = co_await result_buffer_->get();
    consumed_samples += token.samples;
    pending_bytes += token.samples * kResultBytes;
    // Write out in full bursts; flush the remainder on the last token.
    while (pending_bytes >= config_.load_burst_bytes ||
           (token.last && pending_bytes > 0)) {
      const auto burst = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          pending_bytes, config_.load_burst_bytes));
      co_await data_port_.transfer(
          axi::BurstRequest{output_address + written, burst, true});
      written += burst;
      pending_bytes -= burst;
    }
  }
  SPNHBM_REQUIRE(written == total_bytes, "store unit byte count mismatch");
}

void SpnAccelerator::evaluate_block(std::uint64_t input_address,
                                    std::uint64_t output_address,
                                    std::uint64_t samples,
                                    std::uint64_t input_bytes) {
  const compiler::OpProgram& program = module_.program(backend_);
  std::vector<double> results(samples);
  if (input_bytes != 0) {
    // Sparse path: decode the CSR stream in-core and evaluate each sample
    // against the module's default evidence — the marginalised slot for
    // non-joint datapaths.
    std::vector<std::uint8_t> stream(input_bytes);
    backing_->read_backdoor(input_address, stream);
    program.evaluate(
        compiler::decode_sparse(stream, module_.input_features(), samples),
        results);
  } else {
    std::vector<std::uint8_t> inputs(samples * module_.input_features());
    backing_->read_backdoor(input_address, inputs);
    program.evaluate(inputs, results);
  }
  // Results are stored as the host-endian bytes of each double.
  backing_->write_backdoor(
      output_address,
      std::span(reinterpret_cast<const std::uint8_t*>(results.data()),
                results.size() * sizeof(double)));
}

}  // namespace spnhbm::fpga
