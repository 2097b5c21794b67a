// Engine-layer tests: cross-backend result equivalence through the one
// InferenceEngine interface, throughput parity with the pre-engine direct
// runtime path, and the submit/wait contract.
#include <gtest/gtest.h>

#include <stdexcept>

#include "spnhbm/engine/cpu_engine.hpp"
#include "spnhbm/engine/fpga_engine.hpp"
#include "spnhbm/engine/gpu_engine.hpp"
#include "spnhbm/spn/evaluate.hpp"
#include "spnhbm/workload/bag_of_words.hpp"
#include "spnhbm/workload/model_zoo.hpp"

namespace spnhbm {
namespace {

// In-distribution documents: uniform random bytes would push joint
// probabilities below the reduced formats' representable range.
std::vector<std::uint8_t> make_documents(std::size_t variables,
                                         std::size_t count,
                                         std::uint64_t seed) {
  workload::CorpusConfig corpus;
  corpus.vocabulary = variables;
  corpus.documents = count;
  corpus.seed = seed;
  return workload::make_bag_of_words(corpus).to_bytes();
}

/// `module` as a servable artifact; `backend` must outlive it.
engine::ModelHandle wrap(const compiler::DatapathModule& module,
                         const arith::ArithBackend& backend) {
  return model::ModelArtifact::wrap("nips10", module, backend);
}

TEST(CrossBackend, Float64ResultsAreBitIdentical) {
  // With a float64-compiled module every backend evaluates the same
  // operator program in IEEE double: CPU, FPGA simulation and the GPU
  // model must agree bit for bit.
  const auto model = workload::make_nips_model(10);
  const auto backend = arith::make_float64_backend();
  const auto module = compiler::compile_spn(model.spn, *backend);
  const auto samples = make_documents(10, 96, 2024);

  engine::FpgaSimEngine fpga(wrap(module, *backend));
  engine::CpuEngine cpu(wrap(module, *backend), {.threads = 2});
  engine::GpuModelEngine gpu(wrap(module, *backend));

  const auto p_fpga = fpga.infer(samples);
  const auto p_cpu = cpu.infer(samples);
  const auto p_gpu = gpu.infer(samples);
  ASSERT_EQ(p_fpga.size(), 96u);
  ASSERT_EQ(p_cpu.size(), 96u);
  ASSERT_EQ(p_gpu.size(), 96u);
  for (std::size_t i = 0; i < p_fpga.size(); ++i) {
    EXPECT_DOUBLE_EQ(p_fpga[i], p_cpu[i]) << "sample " << i;
    EXPECT_DOUBLE_EQ(p_fpga[i], p_gpu[i]) << "sample " << i;
  }
}

TEST(CrossBackend, CfpAcceleratorMatchesCpuWithinFormatBound) {
  // The FPGA engine runs the paper's custom floating-point datapath; the
  // CPU engine evaluates in double. They must agree within the format's
  // documented relative bound (1e-3 above CFP's ~1e-33 flush-to-zero
  // region — same bound as the integration tests).
  const auto model = workload::make_nips_model(10);
  const auto cfp = arith::make_cfp_backend(arith::paper_cfp_format());
  const auto f64 = arith::make_float64_backend();
  const auto module_cfp = compiler::compile_spn(model.spn, *cfp);
  const auto module_f64 = compiler::compile_spn(model.spn, *f64);
  const auto samples = make_documents(10, 123, 77);

  engine::FpgaSimEngine fpga(wrap(module_cfp, *cfp));
  engine::CpuEngine cpu(wrap(module_f64, *f64), {.threads = 2});
  const auto p_fpga = fpga.infer(samples);
  const auto p_cpu = cpu.infer(samples);

  int compared = 0;
  for (std::size_t i = 0; i < p_cpu.size(); ++i) {
    if (p_cpu[i] < 1e-33) continue;
    EXPECT_NEAR(p_fpga[i] / p_cpu[i], 1.0, 1e-3) << "sample " << i;
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

TEST(CrossBackend, EnginesMatchReferenceEvaluator) {
  const auto model = workload::make_nips_model(10);
  const auto backend = arith::make_float64_backend();
  const auto module = compiler::compile_spn(model.spn, *backend);
  const auto samples = make_documents(10, 32, 5);

  engine::CpuEngine cpu(wrap(module, *backend));
  const auto results = cpu.infer(samples);
  spn::Evaluator reference(model.spn);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double want = reference.evaluate_bytes(
        std::span<const std::uint8_t>(samples).subspan(i * 10, 10));
    EXPECT_DOUBLE_EQ(results[i], want) << "sample " << i;
  }
}

TEST(FpgaSimEngine, ThroughputMatchesDirectRuntimePath) {
  // measure_throughput must reproduce the pre-engine benchmark path
  // exactly: same composition, same runtime, same virtual-time result.
  const auto model = workload::make_nips_model(10);
  const auto backend = arith::make_cfp_backend(arith::paper_cfp_format());
  const auto module = compiler::compile_spn(model.spn, *backend);

  engine::FpgaEngineConfig config;
  config.pe_count = 2;
  config.compute_results = false;
  engine::FpgaSimEngine eng(wrap(module, *backend), config);
  const double via_engine = eng.measure_throughput(1'000'000);

  sim::Scheduler scheduler;
  sim::ProcessRunner runner(scheduler);
  tapasco::CompositionConfig composition;
  composition.pe_count = 2;
  composition.compute_results = false;
  tapasco::Device device(runner, module, *backend, composition);
  runtime::InferenceRuntime rt(runner, device, module);
  const double direct = rt.run(1'000'000).samples_per_second;

  EXPECT_DOUBLE_EQ(via_engine, direct);
}

TEST(FpgaSimEngine, TimingOnlyConfigurationRejectsFunctionalBatches) {
  const auto model = workload::make_nips_model(10);
  const auto backend = arith::make_cfp_backend(arith::paper_cfp_format());
  const auto module = compiler::compile_spn(model.spn, *backend);

  engine::FpgaEngineConfig config;
  config.compute_results = false;
  engine::FpgaSimEngine eng(wrap(module, *backend), config);
  EXPECT_FALSE(eng.capabilities().functional);

  std::vector<std::uint8_t> samples(10, 0);
  std::vector<double> results(1);
  EXPECT_THROW(eng.submit(samples, results), std::logic_error);
  EXPECT_GT(eng.measure_throughput(500'000), 0.0);
}

TEST(FpgaSimEngine, StatsAccumulateAcrossBatches) {
  const auto model = workload::make_nips_model(10);
  const auto backend = arith::make_float64_backend();
  const auto module = compiler::compile_spn(model.spn, *backend);
  engine::FpgaSimEngine eng(wrap(module, *backend));

  const auto samples = make_documents(10, 20, 1);
  eng.infer(samples);
  eng.infer(samples);
  const auto stats = eng.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.samples, 40u);
  EXPECT_GT(stats.busy_seconds, 0.0);       // virtual device time
  EXPECT_GT(stats.samples_per_second(), 0.0);
}

TEST(Engine, SubmitValidatesSpans) {
  const auto model = workload::make_nips_model(10);
  const auto backend = arith::make_float64_backend();
  const auto module = compiler::compile_spn(model.spn, *backend);
  engine::CpuEngine eng(wrap(module, *backend));

  std::vector<std::uint8_t> ragged(15, 0);  // not a whole number of rows
  std::vector<double> results(2);
  EXPECT_THROW(eng.submit(ragged, results), std::logic_error);

  std::vector<std::uint8_t> samples(20, 0);
  std::vector<double> short_results(1);  // 2 rows but room for 1 result
  EXPECT_THROW(eng.submit(samples, short_results), std::logic_error);
}

TEST(Engine, WaitRejectsUnknownAndReusedHandles) {
  const auto model = workload::make_nips_model(10);
  const auto backend = arith::make_float64_backend();
  const auto module = compiler::compile_spn(model.spn, *backend);
  engine::FpgaSimEngine eng(wrap(module, *backend));

  const auto samples = make_documents(10, 4, 9);
  std::vector<double> results(4);
  const auto handle = eng.submit(samples, results);
  EXPECT_THROW(eng.wait(handle + 1), std::logic_error);  // never submitted
  eng.wait(handle);
  EXPECT_THROW(eng.wait(handle), std::logic_error);  // already completed
}

TEST(Engine, CapabilitiesDescribeTheBackends) {
  const auto model = workload::make_nips_model(10);
  const auto backend = arith::make_float64_backend();
  const auto module = compiler::compile_spn(model.spn, *backend);

  engine::FpgaSimEngine fpga(wrap(module, *backend));
  engine::CpuEngine cpu(wrap(module, *backend), {.threads = 3});
  engine::GpuModelEngine gpu(wrap(module, *backend));

  EXPECT_EQ(fpga.capabilities().name, "fpga-sim/hbm x1");
  EXPECT_EQ(fpga.capabilities().input_features, 10u);
  EXPECT_GT(fpga.capabilities().nominal_throughput, 0.0);
  EXPECT_EQ(cpu.capabilities().name, "cpu-native x3");
  EXPECT_EQ(cpu.capabilities().nominal_throughput, 0.0);  // unknown until measured
  EXPECT_GT(gpu.capabilities().nominal_throughput, 0.0);
  EXPECT_TRUE(cpu.capabilities().functional);
  EXPECT_TRUE(gpu.capabilities().functional);
}

}  // namespace
}  // namespace spnhbm
