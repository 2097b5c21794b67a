#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "spnhbm/baselines/reference_platforms.hpp"
#include "spnhbm/engine/cpu_engine.hpp"
#include "spnhbm/spn/evaluate.hpp"
#include "spnhbm/spn/random_spn.hpp"
#include "spnhbm/util/rng.hpp"
#include "spnhbm/util/stats.hpp"
#include "spnhbm/workload/model_zoo.hpp"

namespace spnhbm::baselines {
namespace {

using engine::CpuEngine;

/// `module` as a servable artifact for the native CPU engine.
engine::ModelHandle wrap(const compiler::DatapathModule& module) {
  return model::ModelArtifact::wrap("cpu", module,
                                    arith::make_float64_backend());
}

TEST(CpuEngine, MatchesReferenceEvaluator) {
  const auto model = workload::make_nips_model(10);
  const auto backend = arith::make_float64_backend();
  const auto module = compiler::compile_spn(model.spn, *backend);
  CpuEngine engine(wrap(module), {.threads = 2});

  Rng rng(3);
  const std::size_t count = 1000;
  std::vector<std::uint8_t> samples(count * 10);
  for (auto& b : samples) b = static_cast<std::uint8_t>(rng.next_below(256));
  const std::vector<double> results = engine.infer(samples);

  spn::Evaluator reference(model.spn);
  for (std::size_t i = 0; i < count; ++i) {
    const double want = reference.evaluate_bytes(
        std::span<const std::uint8_t>(samples).subspan(i * 10, 10));
    EXPECT_DOUBLE_EQ(results[i], want) << "sample " << i;
  }
}

/// The engine's interpreter before it ran the float64 OpProgram: plain
/// doubles over the module's ops, std::max for max nodes. Kept here as
/// the fixed point the program's float64 instantiation must reproduce.
std::vector<double> legacy_interpreter(const compiler::DatapathModule& module,
                                       std::span<const std::uint8_t> rows) {
  const std::size_t features = module.input_features();
  const auto& ops = module.ops();
  std::vector<double> results(rows.size() / features);
  std::vector<double> values(ops.size());
  for (std::size_t s = 0; s < results.size(); ++s) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const auto& op = ops[i];
      switch (op.kind) {
        case compiler::OpKind::kHistogramLookup:
          values[i] = module.tables()[op.table_index]
                          .probability_by_byte[rows[s * features + op.variable]];
          break;
        case compiler::OpKind::kMul:
          values[i] = values[op.lhs] * values[op.rhs];
          break;
        case compiler::OpKind::kConstMul:
          values[i] = values[op.lhs] * op.constant;
          break;
        case compiler::OpKind::kAdd:
          values[i] = values[op.lhs] + values[op.rhs];
          break;
        case compiler::OpKind::kMax:
          values[i] = std::max(values[op.lhs], values[op.rhs]);
          break;
      }
    }
    results[s] = values[module.result_op()];
  }
  return results;
}

TEST(CpuEngine, BitEqualToTheLegacyInterpreterForEveryQuery) {
  spn::RandomSpnConfig config;
  config.variables = 12;
  config.leaf_domain = compiler::kMissingByte;
  config.seed = 77;
  const spn::Spn spn = spn::make_random_spn(config);
  const auto backend = arith::make_float64_backend();
  for (const auto query :
       {compiler::QueryKind::kJoint, compiler::QueryKind::kMarginal,
        compiler::QueryKind::kMpe}) {
    compiler::CompileOptions options;
    options.query = query;
    options.input_domain = compiler::kMissingByte;
    const auto module = compiler::compile_spn(spn, *backend, options);
    if (query == compiler::QueryKind::kMpe) {
      ASSERT_GT(module.count_ops(compiler::OpKind::kMax), 0u);
    }
    Rng rng(5);
    const std::size_t count = 1027;
    std::vector<std::uint8_t> rows(count * 12);
    for (auto& byte : rows) {
      byte = query != compiler::QueryKind::kJoint && rng.next_below(3) == 0
                 ? compiler::kMissingByte
                 : static_cast<std::uint8_t>(
                       rng.next_below(compiler::kMissingByte));
    }
    const std::vector<double> results =
        CpuEngine(wrap(module), {.threads = 3}).infer(rows);
    const auto want = legacy_interpreter(module, rows);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(results[i]),
                std::bit_cast<std::uint64_t>(want[i]))
          << compiler::query_kind_name(query) << " sample " << i;
    }
  }
}

TEST(CpuEngine, HandlesNonLaneAlignedBatches) {
  const auto model = workload::make_nips_model(10);
  const auto backend = arith::make_float64_backend();
  const auto module = compiler::compile_spn(model.spn, *backend);
  CpuEngine engine(wrap(module), {.threads = 1});
  for (const std::size_t count : {1u, 7u, 8u, 9u, 63u}) {
    std::vector<std::uint8_t> samples(count * 10, 5);
    std::vector<double> results(count, -1.0);
    engine.wait(engine.submit(samples, results));
    for (const double r : results) EXPECT_GT(r, 0.0);
  }
}

TEST(CpuEngine, EmptyBatchIsNoop) {
  const auto model = workload::make_nips_model(10);
  const auto backend = arith::make_float64_backend();
  const auto module = compiler::compile_spn(model.spn, *backend);
  CpuEngine engine(wrap(module), {.threads = 1});
  EXPECT_NO_THROW(engine.wait(engine.submit({}, {})));
}

TEST(CpuEngine, RejectsMismatchedSizes) {
  const auto model = workload::make_nips_model(10);
  const auto backend = arith::make_float64_backend();
  const auto module = compiler::compile_spn(model.spn, *backend);
  CpuEngine engine(wrap(module), {.threads = 1});
  std::vector<std::uint8_t> samples(15);  // not a multiple of 10
  std::vector<double> results(2);
  EXPECT_THROW(engine.submit(samples, results), std::logic_error);
}

TEST(CpuEngine, ThroughputIsMeasurable) {
  const auto model = workload::make_nips_model(10);
  const auto backend = arith::make_float64_backend();
  const auto module = compiler::compile_spn(model.spn, *backend);
  CpuEngine engine(wrap(module), {.threads = 1});
  const double rate = engine.measure_throughput(50'000);
  EXPECT_GT(rate, 1e5);  // sanity: >100 Ksamples/s even on a weak host
}

TEST(CpuEngine, ThroughputDrawStaysInsideNarrowTables) {
  // A joint model over a 16-byte domain: byte 16 and up have no table
  // entry, so the synthetic batch must draw only bytes every table covers
  // (a wider draw would trip the executor's range check).
  spn::RandomSpnConfig config;
  config.variables = 6;
  config.leaf_domain = 16;
  config.seed = 107;
  compiler::CompileOptions options;
  options.input_domain = 16;
  const auto backend = arith::make_float64_backend();
  const auto module =
      compiler::compile_spn(spn::make_random_spn(config), *backend, options);
  CpuEngine engine(wrap(module), {.threads = 2});
  EXPECT_GT(engine.measure_throughput(4096), 0.0);
  EXPECT_EQ(engine.stats().samples, 4096u);
}

TEST(ReferencePlatforms, CurvesCoverAllBenchmarks) {
  for (const auto& curve : all_reference_curves()) {
    for (const std::size_t size : workload::nips_benchmark_sizes()) {
      EXPECT_GT(curve.at(size), 0.0) << curve.platform;
    }
    EXPECT_FALSE(curve.provenance.empty());
  }
}

TEST(ReferencePlatforms, PublishedAbsolutesExact) {
  EXPECT_DOUBLE_EQ(paper_hbm_curve().at(10), 614.7e6);
  EXPECT_DOUBLE_EQ(paper_hbm_curve().at(80), 116.6e6);
}

TEST(ReferencePlatforms, SpeedupConstraintsHold) {
  const auto hbm = paper_hbm_curve();
  const auto cpu = xeon_e5_2680v3_curve();
  const auto gpu = tesla_v100_curve();
  const auto f1 = aws_f1_curve();

  std::vector<double> cpu_speedups, gpu_speedups, f1_speedups;
  for (const std::size_t size : workload::nips_benchmark_sizes()) {
    cpu_speedups.push_back(hbm.at(size) / cpu.at(size));
    gpu_speedups.push_back(hbm.at(size) / gpu.at(size));
    f1_speedups.push_back(hbm.at(size) / f1.at(size));
  }
  // CPU wins the small NIPS10 benchmark; loses from NIPS20 on.
  EXPECT_LT(cpu_speedups.front(), 1.0);
  EXPECT_GT(cpu_speedups[1], 1.0);
  // Published aggregates: geo 1.6x / max 2.46x (CPU), geo 6.9x / max 8.4x
  // (V100), geo 1.29x / max 1.50x (F1).
  EXPECT_NEAR(geometric_mean(cpu_speedups), 1.6, 0.02);
  EXPECT_NEAR(cpu_speedups.back(), 2.46, 0.01);
  EXPECT_NEAR(geometric_mean(gpu_speedups), 6.9, 0.05);
  EXPECT_NEAR(gpu_speedups.back(), 8.4, 0.01);
  EXPECT_NEAR(geometric_mean(f1_speedups), 1.29, 0.01);
  EXPECT_NEAR(f1_speedups.back(), 1.50, 0.01);
}

TEST(ReferencePlatforms, UnknownSizeThrows) {
  EXPECT_THROW(paper_hbm_curve().at(55), Error);
}

TEST(ReferencePlatforms, V100LosesEverywhere) {
  // The paper: "the Nvidia Tesla V100 is unsuitable for SPN inference".
  const auto hbm = paper_hbm_curve();
  const auto gpu = tesla_v100_curve();
  const auto cpu = xeon_e5_2680v3_curve();
  for (const std::size_t size : workload::nips_benchmark_sizes()) {
    EXPECT_LT(gpu.at(size), hbm.at(size));
    EXPECT_LT(gpu.at(size), cpu.at(size));
  }
}

}  // namespace
}  // namespace spnhbm::baselines
