// Served batches on a multi-PE card: the runtime cuts each functional
// batch into blocks across the PEs (InferenceRuntime::plan_blocks). These
// tests hold the split path bit-identical to the executor and to a 1-PE
// card, check that the plan never costs virtual time against one block on
// one PE, and that a failure on one PE leaves the card clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>

#include "spnhbm/compiler/op_program.hpp"
#include "spnhbm/compiler/sparse_evidence.hpp"
#include "spnhbm/fault/fault.hpp"
#include "spnhbm/runtime/inference_runtime.hpp"
#include "spnhbm/util/rng.hpp"
#include "spnhbm/workload/model_zoo.hpp"

namespace spnhbm::runtime {
namespace {

/// A NIPS model compiled for marginal queries in the paper's CFP format.
struct Model {
  explicit Model(std::size_t variables)
      : nips(workload::make_nips_model(variables)),
        backend(arith::make_cfp_backend(arith::paper_cfp_format())),
        module(compiler::compile_spn(nips.spn, *backend, options())) {}

  static compiler::CompileOptions options() {
    compiler::CompileOptions options;
    options.query = compiler::QueryKind::kMarginal;
    options.input_domain = compiler::kMissingByte;
    return options;
  }

  workload::NipsModel nips;
  std::unique_ptr<arith::ArithBackend> backend;
  compiler::DatapathModule module;
};

/// A fresh simulated HBM card with its host runtime.
struct Card {
  Card(const Model& model, int pes, bool compute_results = true) {
    tapasco::CompositionConfig composition;
    composition.pe_count = pes;
    composition.compute_results = compute_results;
    device = std::make_unique<tapasco::Device>(runner, model.module,
                                               *model.backend, composition);
    runtime = std::make_unique<InferenceRuntime>(runner, *device,
                                                 model.module);
  }

  bool memory_is_free() const {
    for (std::size_t pe = 0; pe < device->pe_count(); ++pe) {
      if (runtime->memory().bytes_free(pe) !=
          runtime->memory().capacity_per_channel()) {
        return false;
      }
    }
    return true;
  }

  sim::Scheduler scheduler;
  sim::ProcessRunner runner{scheduler};
  std::unique_ptr<tapasco::Device> device;
  std::unique_ptr<InferenceRuntime> runtime;
};

/// `count` samples observing `observed` distinct variables each (all of
/// them when observed >= variables), seeded.
compiler::SparseBatch make_queries(std::size_t variables, std::size_t observed,
                                   std::size_t count, std::uint64_t seed) {
  compiler::SparseBatch batch;
  batch.features = variables;
  Rng rng(seed);
  std::vector<std::uint16_t> all(variables);
  for (std::size_t v = 0; v < variables; ++v) {
    all[v] = static_cast<std::uint16_t>(v);
  }
  std::vector<std::uint8_t> values;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<std::uint16_t> indices = all;
    if (observed < variables) {
      // Partial Fisher-Yates: the first `observed` entries are a random
      // subset.
      for (std::size_t k = 0; k < observed; ++k) {
        std::swap(indices[k],
                  indices[k + rng.next_below(variables - k)]);
      }
      indices.resize(observed);
      std::sort(indices.begin(), indices.end());
    }
    values.resize(indices.size());
    for (auto& value : values) {
      value = static_cast<std::uint8_t>(rng.next_below(6));
    }
    batch.add_sample(indices, values);
  }
  return batch;
}

/// The first `count` samples of an encoded stream: every sample's
/// encoding is self-contained, so a prefix is a whole stream.
std::span<const std::uint8_t> stream_prefix(
    const std::vector<std::uint8_t>& stream,
    const compiler::SparseBatch& batch, std::size_t count) {
  return std::span(stream).first(2 * count + 3 * batch.offsets[count]);
}

std::vector<std::uint64_t> bits(std::span<const double> values) {
  std::vector<std::uint64_t> out(values.size());
  std::memcpy(out.data(), values.data(), values.size() * sizeof(double));
  return out;
}

TEST(ServedBatches, EightPeCardMatchesTheExecutorAndAOnePeCard) {
  const Model model(80);
  Card eight(model, 8);
  Card one(model, 1);
  const compiler::OpProgram& program = model.module.program(*model.backend);
  const auto queries = make_queries(80, 8, 49152, 11);
  const auto dense_all = queries.densify(model.module.default_evidence());
  const auto stream_all = compiler::encode_sparse(queries);

  EXPECT_EQ(eight.runtime->plan_blocks(1), 1u);
  EXPECT_EQ(eight.runtime->plan_blocks(49152), 4u);
  EXPECT_EQ(one.runtime->plan_blocks(49152), 1u);

  for (const std::size_t n : {1u, 7u, 8u, 9u, 4099u, 49152u}) {
    SCOPED_TRACE("batch of " + std::to_string(n));
    const auto dense = std::span(dense_all).first(n * 80);
    std::vector<double> want(n);
    program.evaluate(dense, want);

    const auto split_dense = eight.runtime->infer(dense);
    EXPECT_TRUE(eight.memory_is_free());
    const auto split_sparse = eight.runtime->infer_sparse(
        stream_prefix(stream_all, queries, n), n);
    EXPECT_TRUE(eight.memory_is_free());
    const auto single = one.runtime->infer(dense);
    EXPECT_TRUE(one.memory_is_free());

    EXPECT_EQ(bits(split_dense), bits(want));
    EXPECT_EQ(bits(split_sparse), bits(split_dense));
    EXPECT_EQ(bits(single), bits(want));
    // The scalar oracle, on a stride of the batch.
    for (std::size_t i = 0; i < n; i += 97) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(model.module.evaluate(
                    *model.backend, dense.subspan(i * 80, 80))),
                std::bit_cast<std::uint64_t>(want[i]))
          << "sample " << i;
    }
  }
  // The largest batch really was spread over four PEs.
  for (std::size_t pe = 0; pe < 4; ++pe) {
    EXPECT_GT(eight.device->pe(pe).samples_processed(), 0u) << "pe" << pe;
  }
  EXPECT_EQ(eight.device->pe(4).samples_processed(), 0u);
}

TEST(ServedBatches, ThePlanNeverLosesToOneBlockOnOnePe) {
  // Timing only: the PEs skip evaluation, every byte still moves.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 65536; n = n * 3 / 2 + 1) sizes.push_back(n);
  for (const std::size_t n : {8u, 4099u, 8192u, 49152u, 65536u}) {
    sizes.push_back(n);
  }
  for (const std::size_t variables : {10u, 80u}) {
    const Model model(variables);
    // observed == 0 selects the dense encoding.
    const std::size_t encodings[] = {0, 1, 8, variables};
    for (const std::size_t observed : encodings) {
      const auto queries =
          make_queries(variables, observed == 0 ? 8 : observed, 65536, 5);
      const auto dense_all = queries.densify(model.module.default_evidence());
      const auto stream_all = compiler::encode_sparse(queries);
      for (const std::size_t n : sizes) {
        const auto virtual_time = [&](int pes) {
          Card card(model, pes, /*compute_results=*/false);
          if (observed == 0) {
            (void)card.runtime->infer(
                std::span(dense_all).first(n * variables));
          } else {
            (void)card.runtime->infer_sparse(
                stream_prefix(stream_all, queries, n), n);
          }
          return card.scheduler.now();
        };
        EXPECT_LE(virtual_time(8), virtual_time(1))
            << "NIPS" << variables << ", " << observed
            << " observed (0 = dense), batch of " << n;
      }
    }
  }
}

TEST(ServedBatches, FailureOnOnePeFailsTheBatchAndLeavesTheCardClean) {
  const Model model(10);
  Card card(model, 8);
  constexpr std::size_t kSamples = 49152;
  const auto queries = make_queries(10, 8, kSamples, 3);
  const auto dense = queries.densify(model.module.default_evidence());
  ASSERT_GE(card.runtime->plan_blocks(kSamples), 4u);
  const auto want = bits(card.runtime->infer(dense));

  const auto expect_clean_and_recovered = [&] {
    EXPECT_TRUE(card.runner.all_done());
    EXPECT_TRUE(card.memory_is_free());
    EXPECT_EQ(bits(card.runtime->infer(dense)), want);
  };

  {
    // pe3's first launch is refused.
    fault::FaultPlan plan;
    fault::FaultRule rule;
    rule.site = "pe.launch";
    rule.instance = "pe3";
    rule.kind = fault::FaultKind::kFail;
    rule.has_window = true;
    rule.from = 0;
    rule.until = 1;
    plan.rules.push_back(rule);
    fault::ScopedFaultPlan armed(plan);
    EXPECT_THROW((void)card.runtime->infer(dense), tapasco::PeLaunchError);
    EXPECT_EQ(fault::injector().injected(), 1u);
  }
  expect_clean_and_recovered();

  {
    // The first burst that reads pe3's results back: pe3's channel sees
    // its block's input written, read by the load unit, and the results
    // written, all in 4 KiB bursts, before that read.
    const std::uint64_t blocks = card.runtime->plan_blocks(kSamples);
    const std::uint64_t per_block = (kSamples + blocks - 1) / blocks;
    const std::uint64_t samples =
        std::min<std::uint64_t>(per_block, kSamples - 3 * per_block);
    const auto bursts = [](std::uint64_t bytes) { return (bytes + 4095) / 4096; };
    const std::uint64_t before_readback =
        2 * bursts(samples * 10) + bursts(samples * 8);
    fault::FaultPlan plan;
    fault::FaultRule rule;
    rule.site = "hbm.access";
    rule.instance = "hbm/ch3";
    rule.kind = fault::FaultKind::kFail;
    rule.has_window = true;
    rule.from = before_readback;
    rule.until = before_readback + 1;
    plan.rules.push_back(rule);
    fault::ScopedFaultPlan armed(plan);
    EXPECT_THROW((void)card.runtime->infer(dense), hbm::HbmEccError);
    EXPECT_EQ(fault::injector().injected(), 1u);
  }
  expect_clean_and_recovered();
}

TEST(ServedBatches, TracedBatchesAddNoTracks) {
  // The runtime's per-(PE, thread) tracks are registered once, when it is
  // built; batches and timing runs register none.
  const Model model(10);
  auto& tracer = telemetry::tracer();
  tracer.enable();
  {
    Card card(model, 8);
    const auto queries = make_queries(10, 8, 16384, 9);
    const auto dense = queries.densify(model.module.default_evidence());
    const auto stream = compiler::encode_sparse(queries);
    ASSERT_GT(card.runtime->plan_blocks(queries.sample_count()), 1u);
    (void)card.runtime->infer(dense);
    const std::size_t tracks = tracer.track_count();
    for (int batch = 0; batch < 3; ++batch) {
      (void)card.runtime->infer(dense);
      (void)card.runtime->infer_sparse(stream, queries.sample_count());
      (void)card.runtime->run(1 << 16);
    }
    EXPECT_EQ(tracer.track_count(), tracks);
  }
  tracer.disable();
}

}  // namespace
}  // namespace spnhbm::runtime
