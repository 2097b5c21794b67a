#include "spnhbm/runtime/inference_runtime.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <optional>
#include <string>

#include "spnhbm/compiler/sparse_evidence.hpp"
#include "spnhbm/util/strings.hpp"

namespace spnhbm::runtime {

std::string RunStats::describe() const {
  return strformat(
      "%llu samples in %.3f ms -> %s (%llu blocks, DMA %.1f%% busy, %llu "
      "bytes moved)",
      static_cast<unsigned long long>(samples), to_seconds(elapsed) * 1e3,
      format_rate(samples_per_second).c_str(),
      static_cast<unsigned long long>(blocks), dma_utilisation * 100.0,
      static_cast<unsigned long long>(dma_bytes));
}

InferenceRuntime::InferenceRuntime(sim::ProcessRunner& runner,
                                   tapasco::Device& device,
                                   const compiler::DatapathModule& module,
                                   RuntimeConfig config)
    : runner_(runner),
      device_(device),
      module_(module),
      config_(config),
      memory_(device.pe_count(), device.memory_capacity_per_pe()) {
  // Typed front-door validation (not SPNHBM_REQUIRE): the autotuner and
  // the CLI probe the edges of this space, and must be able to catch the
  // rejection as a recoverable error.
  if (config_.block_samples == 0) {
    throw ConfigError("RuntimeConfig::block_samples must be positive");
  }
  if (config_.threads_per_pe < 1 || config_.threads_per_pe > 8) {
    throw ConfigError("RuntimeConfig::threads_per_pe must be in 1..8, got " +
                      std::to_string(config_.threads_per_pe));
  }
  // Self-configuration (paper §IV-B): read the parameters from the
  // accelerator instead of asking the user for them.
  for (std::size_t pe = 0; pe < device_.pe_count(); ++pe) {
    const std::uint64_t features =
        device_.query_config(pe, fpga::ConfigQuery::kInputFeatures);
    SPNHBM_REQUIRE(features == module_.input_features(),
                   "PE configuration does not match the compiled module");
    pe_locks_.push_back(
        std::make_unique<sim::Resource>(runner_.scheduler(), 1));
  }
  pe_clock_hz_ = static_cast<double>(
      device_.query_config(0, fpga::ConfigQuery::kClockHz));
  // One trace track per control thread, for the runtime's lifetime (null
  // tracks while tracing is off, like every other component's).
  for (std::size_t pe = 0; pe < device_.pe_count(); ++pe) {
    for (int t = 0; t < config_.threads_per_pe; ++t) {
      tracks_.push_back(telemetry::tracer().register_track(
          "runtime/pe" + std::to_string(pe) + ".t" + std::to_string(t),
          telemetry::TraceClock::kVirtual));
    }
  }
}

std::uint64_t InferenceRuntime::plan_blocks(std::uint64_t samples) const {
  SPNHBM_REQUIRE(samples > 0, "nothing to plan");
  // T(k) ≈ T0 + k·o + c/k: each extra block queues one more transfer on
  // the DMA engine ahead of the last block's compute, and the last
  // block's compute — the part no transfer hides — shrinks as c/k.
  const double compute_s = static_cast<double>(samples) / pe_clock_hz_;
  const double overhead_s =
      to_seconds(device_.dma().config().per_transfer_overhead);
  const std::uint64_t slots =
      device_.pe_count() * static_cast<std::uint64_t>(config_.threads_per_pe);
  const std::uint64_t best =
      overhead_s > 0.0 ? static_cast<std::uint64_t>(
                             std::llround(std::sqrt(compute_s / overhead_s)))
                       : slots;
  const std::uint64_t fewest =
      (samples + config_.block_samples - 1) / config_.block_samples;
  return std::max(fewest, std::clamp<std::uint64_t>(best, 1, slots));
}

sim::Process InferenceRuntime::control_thread(std::size_t pe_index,
                                              BlockCursor& cursor,
                                              sim::Resource& pe_lock,
                                              telemetry::TrackId track) {
  auto& scheduler = runner_.scheduler();
  const std::uint64_t features = module_.input_features();
  constexpr std::uint64_t kResultBytes = 8;
  const bool functional = cursor.functional();
  const bool sparse = !cursor.sparse_offsets.empty();
  const bool transfers = functional || config_.include_transfers;
  const bool staging = !functional && config_.model_host_staging;

  // A timing run gives each thread one in/out pair sized for a full block
  // (double buffering happens across threads); a functional block gets a
  // pair holding exactly its own bytes.
  std::optional<DeviceBuffer> input_buffer;
  std::optional<DeviceBuffer> output_buffer;
  if (!functional) {
    input_buffer.emplace(memory_, pe_index, cursor.block_samples * features);
    output_buffer.emplace(memory_, pe_index,
                          cursor.block_samples * kResultBytes);
  }

  for (;;) {
    if (cursor.next_block >= cursor.block_count) break;
    const std::uint64_t block = cursor.next_block++;
    const std::uint64_t begin = block * cursor.block_samples;
    const std::uint64_t samples = std::min<std::uint64_t>(
        cursor.block_samples, cursor.total_samples - begin);
    const auto input_offset = [&](std::uint64_t sample) {
      return sparse ? 2 * sample + 3 * std::uint64_t{cursor.sparse_offsets[sample]}
                    : sample * features;
    };
    const std::uint64_t in_begin = input_offset(begin);
    const std::uint64_t in_bytes = input_offset(begin + samples) - in_begin;
    const std::uint64_t out_bytes = samples * kResultBytes;
    if (functional) {
      input_buffer.reset();
      output_buffer.reset();
      input_buffer.emplace(memory_, pe_index, in_bytes);
      output_buffer.emplace(memory_, pe_index, out_bytes);
    }
    const std::uint64_t in_address = input_buffer->address();
    const std::uint64_t out_address = output_buffer->address();

    auto& tracer = telemetry::tracer();
    if (transfers) {
      if (staging) {
        // Host memcpy into the pinned DMA buffer.
        const Picoseconds span_start = scheduler.now();
        co_await sim::delay(
            scheduler, static_cast<Picoseconds>(
                           static_cast<double>(in_bytes) /
                           fpga::cal::kHostStagingBytesPerSecond *
                           static_cast<double>(kPicosecondsPerSecond)));
        tracer.complete_virtual(track, "stage_in", span_start,
                                scheduler.now());
      }
      const Picoseconds span_start = scheduler.now();
      if (functional) {
        co_await device_.copy_to_device(
            pe_index, in_address, cursor.input.subspan(in_begin, in_bytes));
      } else {
        co_await device_.copy_to_device_timed(pe_index, in_address, in_bytes);
      }
      tracer.complete_virtual(track, "h2d", span_start, scheduler.now());
    }

    // The PE runs one job at a time; with >1 control threads the launch
    // serialises here while the other thread's transfers overlap.
    co_await pe_lock.acquire();
    const Picoseconds compute_start = scheduler.now();
    try {
      if (sparse) {
        co_await device_.launch_inference_sparse(pe_index, in_address,
                                                 out_address, samples,
                                                 in_bytes);
      } else {
        co_await device_.launch_inference(pe_index, in_address, out_address,
                                          samples);
      }
    } catch (...) {
      pe_lock.release();
      throw;
    }
    pe_lock.release();
    tracer.complete_virtual(track, "compute", compute_start, scheduler.now());

    if (transfers) {
      const Picoseconds span_start = scheduler.now();
      if (functional) {
        co_await device_.copy_from_device(
            pe_index, out_address,
            cursor.output.subspan(begin * kResultBytes, out_bytes));
      } else {
        co_await device_.copy_from_device_timed(pe_index, out_address,
                                                out_bytes);
      }
      tracer.complete_virtual(track, "d2h", span_start, scheduler.now());
      if (staging) {
        const Picoseconds unstage_start = scheduler.now();
        co_await sim::delay(
            scheduler, static_cast<Picoseconds>(
                           static_cast<double>(out_bytes) /
                           fpga::cal::kHostStagingBytesPerSecond *
                           static_cast<double>(kPicosecondsPerSecond)));
        tracer.complete_virtual(track, "stage_out", unstage_start,
                                scheduler.now());
      }
    }
  }
}

void InferenceRuntime::execute(BlockCursor& cursor) {
  const std::size_t pes = device_.pe_count();
  const auto per_pe = static_cast<std::size_t>(config_.threads_per_pe);
  // A timing run starts every control thread, PE by PE. A functional job
  // starts one thread per block at most, spread over the PEs first, so
  // its blocks land on distinct PEs.
  const std::size_t thread_count =
      cursor.functional()
          ? static_cast<std::size_t>(
                std::min<std::uint64_t>(cursor.block_count, pes * per_pe))
          : pes * per_pe;
  threads_.clear();
  for (std::size_t i = 0; i < thread_count; ++i) {
    const std::size_t pe = cursor.functional() ? i % pes : i / per_pe;
    const std::size_t thread = cursor.functional() ? i / pes : i % per_pe;
    threads_.push_back(runner_.spawn(control_thread(
        pe, cursor, *pe_locks_[pe], tracks_[pe * per_pe + thread])));
  }
  runner_.scheduler().run();
  // Consume every failure, not only the first: a block that failed on one
  // PE must not resurface as the error of the next job.
  std::exception_ptr failure;
  for (;;) {
    try {
      runner_.check();
      break;
    } catch (...) {
      if (!failure) failure = std::current_exception();
    }
  }
  if (failure) std::rethrow_exception(failure);
  for (const auto& thread : threads_) {
    SPNHBM_REQUIRE(thread.done(), "control thread did not finish");
  }
}

RunStats InferenceRuntime::run(std::uint64_t total_samples) {
  SPNHBM_REQUIRE(total_samples > 0, "nothing to run");
  const Picoseconds start = runner_.scheduler().now();
  const std::uint64_t dma_busy_before = device_.dma().busy_time();
  const std::uint64_t dma_bytes_before =
      device_.dma().bytes_to_device() + device_.dma().bytes_to_host();

  BlockCursor cursor;
  cursor.total_samples = total_samples;
  cursor.block_samples = config_.block_samples;
  cursor.block_count =
      (total_samples + config_.block_samples - 1) / config_.block_samples;
  execute(cursor);

  RunStats stats;
  stats.samples = total_samples;
  stats.elapsed = runner_.scheduler().now() - start;
  stats.samples_per_second =
      static_cast<double>(total_samples) / to_seconds(stats.elapsed);
  stats.blocks = cursor.block_count;
  stats.dma_utilisation =
      stats.elapsed > 0
          ? static_cast<double>(device_.dma().busy_time() - dma_busy_before) /
                static_cast<double>(stats.elapsed)
          : 0.0;
  stats.dma_bytes = device_.dma().bytes_to_device() +
                    device_.dma().bytes_to_host() - dma_bytes_before;
  return stats;
}

std::vector<double> InferenceRuntime::infer_blocks(
    std::span<const std::uint8_t> input, std::uint64_t samples,
    std::span<const std::uint32_t> sparse_offsets) {
  SPNHBM_REQUIRE(device_.backing_channel(0) != nullptr,
                 "functional inference needs a platform with backing store");
  // The PEs store each result as the host-endian bytes of a double, so
  // the read-back lands in the result vector as is.
  std::vector<double> results(samples);
  const std::uint64_t blocks = plan_blocks(samples);
  BlockCursor cursor;
  cursor.total_samples = samples;
  cursor.block_samples = (samples + blocks - 1) / blocks;
  cursor.block_count =
      (samples + cursor.block_samples - 1) / cursor.block_samples;
  cursor.input = input;
  cursor.output = std::span(reinterpret_cast<std::uint8_t*>(results.data()),
                            results.size() * sizeof(double));
  cursor.sparse_offsets = sparse_offsets;
  execute(cursor);
  return results;
}

std::vector<double> InferenceRuntime::infer(
    std::span<const std::uint8_t> samples) {
  const std::uint64_t features = module_.input_features();
  SPNHBM_REQUIRE(features > 0 && samples.size() % features == 0,
                 "input is not a whole number of samples");
  const std::uint64_t count = samples.size() / features;
  SPNHBM_REQUIRE(count > 0, "nothing to infer");
  return infer_blocks(samples, count, {});
}

std::vector<double> InferenceRuntime::infer_sparse(
    std::span<const std::uint8_t> stream, std::size_t sample_count) {
  SPNHBM_REQUIRE(sample_count > 0, "nothing to infer");
  // Validate on the host before any bytes move: a malformed stream must
  // fail here, not inside the device. This is the batch's one host-side
  // decode; only its offsets are kept (the decoded pairs are dropped at
  // once), and they give every sample's byte position, where blocks may
  // be cut.
  const std::vector<std::uint32_t> offsets =
      compiler::decode_sparse(stream, module_.input_features(), sample_count)
          .offsets;
  return infer_blocks(stream, sample_count, offsets);
}

}  // namespace spnhbm::runtime
