#include "spnhbm/fpga/accelerator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "spnhbm/compiler/sparse_evidence.hpp"
#include "spnhbm/spn/evaluate.hpp"
#include "spnhbm/spn/text_format.hpp"
#include "spnhbm/util/rng.hpp"

namespace spnhbm::fpga {
namespace {

spn::Spn two_var_spn() {
  return spn::parse_spn(R"(
    Sum(0.3*Product(Histogram(V0|[0,64,128,256];[0.0078125,0.0078125,0.0])
                  * Histogram(V1|[0,128,256];[0.0078125,0.0]))
      + 0.7*Product(Histogram(V0|[0,64,256];[0.0078125,0.00260416666666666652])
                  * Histogram(V1|[0,128,256];[0.005,0.0028125])))
  )");
}

struct Harness {
  sim::Scheduler scheduler;
  sim::ProcessRunner runner{scheduler};
  hbm::HbmChannel channel{scheduler};
  spn::Spn spn = two_var_spn();
  std::unique_ptr<arith::ArithBackend> backend =
      arith::make_cfp_backend(arith::paper_cfp_format());
  compiler::DatapathModule module = compiler::compile_spn(spn, *backend);
  SpnAccelerator accelerator{runner, module, *backend, channel.port(),
                             &channel};
};

TEST(Accelerator, ConfigQueryMode) {
  Harness h;
  h.accelerator.write_register(
      Reg::kSampleCount,
      static_cast<std::uint64_t>(ConfigQuery::kInputFeatures));
  h.accelerator.write_register(Reg::kControl, 2);
  EXPECT_EQ(h.accelerator.read_register(Reg::kReturnValue), 2u);

  h.accelerator.write_register(
      Reg::kSampleCount,
      static_cast<std::uint64_t>(ConfigQuery::kPipelineDepth));
  h.accelerator.write_register(Reg::kControl, 2);
  EXPECT_EQ(h.accelerator.read_register(Reg::kReturnValue),
            h.module.pipeline_depth());

  h.accelerator.write_register(
      Reg::kSampleCount, static_cast<std::uint64_t>(ConfigQuery::kClockHz));
  h.accelerator.write_register(Reg::kControl, 2);
  EXPECT_EQ(h.accelerator.read_register(Reg::kReturnValue), 225'000'000u);
}

TEST(Accelerator, RegisterFileReadWrite) {
  Harness h;
  h.accelerator.write_register(Reg::kInputAddress, 0x1234'5678'9ABCull);
  EXPECT_EQ(h.accelerator.read_register(Reg::kInputAddress),
            0x1234'5678'9ABCull);
  EXPECT_THROW(h.accelerator.write_register(Reg::kStatus, 1),
               RuntimeApiError);
  EXPECT_THROW(h.accelerator.write_register(Reg::kControl, 99),
               RuntimeApiError);
}

TEST(Accelerator, ComputesRealResults) {
  Harness h;
  // Write 100 samples into channel memory, run, read results back.
  const std::uint64_t samples = 100;
  Rng rng(42);
  std::vector<std::uint8_t> inputs(samples * 2);
  for (auto& b : inputs) b = static_cast<std::uint8_t>(rng.next_below(256));
  h.channel.write_backdoor(0, inputs);

  h.accelerator.write_register(Reg::kInputAddress, 0);
  h.accelerator.write_register(Reg::kOutputAddress, 1 * kMiB);
  h.accelerator.write_register(Reg::kSampleCount, samples);
  h.accelerator.write_register(Reg::kControl, 1);
  EXPECT_TRUE(h.accelerator.busy());
  h.scheduler.run();
  h.runner.check();
  EXPECT_FALSE(h.accelerator.busy());
  EXPECT_EQ(h.accelerator.read_register(Reg::kStatus), 2u);  // done

  std::vector<std::uint8_t> raw(samples * 8);
  h.channel.read_backdoor(1 * kMiB, raw);
  spn::Evaluator reference(h.spn);
  for (std::uint64_t s = 0; s < samples; ++s) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, raw.data() + s * 8, 8);
    const double got = std::bit_cast<double>(bits);
    const double want = reference.evaluate_bytes(
        std::span<const std::uint8_t>(inputs).subspan(s * 2, 2));
    if (want > 0) {
      EXPECT_NEAR(got / want, 1.0, 1e-4) << "sample " << s;
    } else {
      EXPECT_EQ(got, 0.0);
    }
  }
}

TEST(Accelerator, LargeBlocksBitEqualToTheOracle) {
  // A block of many lane groups, dense and sparse: each job must store
  // the oracle's exact bits.
  const std::uint64_t samples = 5003;
  Rng rng(7);
  std::vector<std::uint8_t> inputs(samples * 2);
  for (auto& b : inputs) b = static_cast<std::uint8_t>(rng.next_below(256));
  for (const bool sparse : {false, true}) {
    Harness h;
    std::uint64_t input_bytes = 0;
    if (sparse) {
      const auto stream = compiler::encode_sparse(compiler::sparse_from_dense(
          inputs, 2, h.module.default_evidence()));
      h.channel.write_backdoor(0, stream);
      input_bytes = stream.size();
    } else {
      h.channel.write_backdoor(0, inputs);
    }
    h.accelerator.write_register(Reg::kInputAddress, 0);
    h.accelerator.write_register(Reg::kOutputAddress, 1 * kMiB);
    h.accelerator.write_register(Reg::kSampleCount, samples);
    h.accelerator.write_register(Reg::kInputBytes, input_bytes);
    h.accelerator.write_register(Reg::kControl, 1);
    h.scheduler.run();
    h.runner.check();

    std::vector<std::uint8_t> raw(samples * 8);
    h.channel.read_backdoor(1 * kMiB, raw);
    for (std::uint64_t s = 0; s < samples; ++s) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, raw.data() + s * 8, 8);
      const double want = h.module.evaluate(
          *h.backend, std::span<const std::uint8_t>(inputs).subspan(s * 2, 2));
      ASSERT_EQ(bits, std::bit_cast<std::uint64_t>(want))
          << (sparse ? "sparse" : "dense") << " sample " << s;
    }
  }
}

TEST(Accelerator, FunctionalFailureCompletesTheJobAndSurfacesViaCheck) {
  // Tables over bytes [0, 128): byte 200 has no entry.
  sim::Scheduler scheduler;
  sim::ProcessRunner runner{scheduler};
  hbm::HbmChannel channel{scheduler};
  const auto backend = arith::make_cfp_backend(arith::paper_cfp_format());
  compiler::CompileOptions options;
  options.input_domain = 128;
  const auto module = compiler::compile_spn(two_var_spn(), *backend, options);
  SpnAccelerator accelerator{runner, module, *backend, channel.port(),
                             &channel};
  const auto run_job = [&](std::uint8_t byte) {
    channel.write_backdoor(0, std::vector<std::uint8_t>(64 * 2, byte));
    accelerator.write_register(Reg::kInputAddress, 0);
    accelerator.write_register(Reg::kOutputAddress, 1 * kMiB);
    accelerator.write_register(Reg::kSampleCount, 64);
    accelerator.write_register(Reg::kControl, 1);
    scheduler.run();
  };
  run_job(200);
  EXPECT_FALSE(accelerator.busy());
  try {
    runner.check();
    FAIL() << "out-of-table byte accepted";
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string(error.what()).find(
                  "feature byte outside lookup table"),
              std::string::npos);
  }
  // The PE is not wedged: the next job runs normally.
  run_job(3);
  EXPECT_NO_THROW(runner.check());
  EXPECT_EQ(accelerator.samples_processed(), 128u);
}

TEST(Accelerator, SteadyStateThroughputIsOneSamplePerCycle) {
  Harness h;
  AcceleratorConfig config;
  config.compute_results = false;
  SpnAccelerator accel(h.runner, h.module, *h.backend, h.channel.port(),
                       nullptr, config);
  const std::uint64_t samples = 1'000'000;
  accel.write_register(Reg::kInputAddress, 0);
  accel.write_register(Reg::kOutputAddress, 64 * kMiB);
  accel.write_register(Reg::kSampleCount, samples);
  const Picoseconds start = h.scheduler.now();
  accel.write_register(Reg::kControl, 1);
  h.scheduler.run();
  h.runner.check();
  const double seconds = to_seconds(h.scheduler.now() - start);
  const double rate = static_cast<double>(samples) / seconds;
  // II=1 at 225 MHz minus pipeline fill and burst handshakes: within a few
  // percent of 225 Msamples/s for a 2-byte-per-sample model.
  EXPECT_GT(rate, 0.9 * 225e6);
  EXPECT_LT(rate, 225e6 * 1.001);
  EXPECT_EQ(accel.samples_processed(), samples);
}

TEST(Accelerator, RejectsDoubleStart) {
  Harness h;
  h.accelerator.write_register(Reg::kSampleCount, 64);
  h.accelerator.write_register(Reg::kControl, 1);
  EXPECT_THROW(h.accelerator.write_register(Reg::kControl, 1),
               RuntimeApiError);
  h.scheduler.run();
  h.runner.check();
}

TEST(Accelerator, BackToBackJobs) {
  Harness h;
  AcceleratorConfig config;
  config.compute_results = false;
  SpnAccelerator accel(h.runner, h.module, *h.backend, h.channel.port(),
                       nullptr, config);
  for (int job = 0; job < 3; ++job) {
    accel.write_register(Reg::kInputAddress, 0);
    accel.write_register(Reg::kOutputAddress, 64 * kMiB);
    accel.write_register(Reg::kSampleCount, 10'000);
    accel.write_register(Reg::kControl, 1);
    h.scheduler.run();
    h.runner.check();
    EXPECT_FALSE(accel.busy());
  }
  EXPECT_EQ(accel.samples_processed(), 30'000u);
}

TEST(Accelerator, WaitDoneReturnsImmediatelyWhenIdle) {
  Harness h;
  bool finished = false;
  h.runner.spawn([&]() -> sim::Process {
    co_await h.accelerator.wait_done();
    finished = true;
  });
  h.scheduler.run();
  h.runner.check();
  EXPECT_TRUE(finished);
}

TEST(Accelerator, MemoryBandwidthMatchesPaperArithmetic) {
  // NIPS10-shaped check scaled down: the paper derives 2.23 GiB/s of
  // channel traffic for 133.1 Msamples/s at 18 B/sample. At our II=1 rate,
  // traffic = rate x (features + 8).
  Harness h;
  AcceleratorConfig config;
  config.compute_results = false;
  SpnAccelerator accel(h.runner, h.module, *h.backend, h.channel.port(),
                       nullptr, config);
  const std::uint64_t samples = 500'000;
  accel.write_register(Reg::kOutputAddress, 64 * kMiB);
  accel.write_register(Reg::kSampleCount, samples);
  accel.write_register(Reg::kControl, 1);
  h.scheduler.run();
  h.runner.check();
  EXPECT_EQ(h.channel.bytes_read(), samples * 2);
  EXPECT_EQ(h.channel.bytes_written(), samples * 8);
}

}  // namespace
}  // namespace spnhbm::fpga
