// Micro-benchmarks (google-benchmark) of the host-side runtime components:
// the device memory manager (hot allocate/free path taken per sub-job), the
// bit-accurate datapath executor against its scalar reference on one core,
// the native CPU inference engine driven through the unified
// InferenceEngine interface, the simulated FPGA card's served-batch path
// (host cost of the block executor plus the evaluator), and the
// InferenceServer's batching/dispatch overhead.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "spnhbm/compiler/op_program.hpp"
#include "spnhbm/compiler/sparse_evidence.hpp"
#include "spnhbm/engine/cpu_engine.hpp"
#include "spnhbm/engine/fpga_engine.hpp"
#include "spnhbm/engine/server.hpp"
#include "spnhbm/runtime/memory_manager.hpp"
#include "spnhbm/spn/evaluate.hpp"
#include "spnhbm/util/rng.hpp"
#include "spnhbm/workload/bag_of_words.hpp"
#include "spnhbm/workload/model_zoo.hpp"

namespace {

using namespace spnhbm;

void BM_MemoryManagerAllocFree(benchmark::State& state) {
  runtime::DeviceMemoryManager manager(1, 256ull << 20);
  for (auto _ : state) {
    const auto a = manager.allocate(0, 10 << 20);
    const auto b = manager.allocate(0, 2 << 20);
    manager.free(0, a);
    manager.free(0, b);
  }
}
BENCHMARK(BM_MemoryManagerAllocFree);

void BM_MemoryManagerFragmented(benchmark::State& state) {
  runtime::DeviceMemoryManager manager(1, 256ull << 20);
  // Build a fragmented arena first.
  std::vector<std::uint64_t> held;
  for (int i = 0; i < 128; ++i) held.push_back(manager.allocate(0, 1 << 20));
  for (std::size_t i = 0; i < held.size(); i += 2) manager.free(0, held[i]);
  for (auto _ : state) {
    const auto address = manager.allocate(0, 512 << 10);
    manager.free(0, address);
  }
  for (std::size_t i = 1; i < held.size(); i += 2) manager.free(0, held[i]);
}
BENCHMARK(BM_MemoryManagerFragmented);

void BM_ReferenceEvaluator(benchmark::State& state) {
  const auto model =
      workload::make_nips_model(static_cast<std::size_t>(state.range(0)));
  spn::Evaluator evaluator(model.spn);
  Rng rng(5);
  std::vector<double> sample(model.variables);
  for (auto& v : sample) v = static_cast<double>(rng.next_below(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate(sample));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReferenceEvaluator)->Arg(10)->Arg(40)->Arg(80);

/// Backend by benchmark argument: 0 float64, 1 CFP, 2 LNS, 3 posit.
std::unique_ptr<arith::ArithBackend> format_backend(std::int64_t format) {
  switch (format) {
    case 1: return arith::make_cfp_backend(arith::paper_cfp_format());
    case 2: return arith::make_lns_backend(arith::paper_lns_format());
    case 3: return arith::make_posit_backend(arith::paper_posit_format());
    default: return arith::make_float64_backend();
  }
}

/// A NIPS datapath compiled for one format plus a batch of byte rows.
struct DatapathBatch {
  std::unique_ptr<arith::ArithBackend> backend;
  compiler::DatapathModule module;
  std::vector<std::uint8_t> rows;
  std::size_t count = 0;

  DatapathBatch(std::int64_t format, std::int64_t variables, std::size_t n)
      : backend(format_backend(format)),
        module(compiler::compile_spn(
            workload::make_nips_model(static_cast<std::size_t>(variables)).spn,
            *backend)),
        rows(n * static_cast<std::size_t>(variables)),
        count(n) {
    Rng rng(5);
    for (auto& b : rows) b = static_cast<std::uint8_t>(rng.next_below(256));
  }
};

// The scalar oracle every engine is held bit-equal to: one sample at a
// time through the virtual ArithBackend. Args: format, NIPS variables.
void BM_DatapathEvaluate(benchmark::State& state) {
  const DatapathBatch batch(state.range(0), state.range(1), 256);
  const std::size_t features = batch.module.input_features();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(batch.module.evaluate(
        *batch.backend, std::span(batch.rows).subspan(i * features, features)));
    i = (i + 1) % batch.count;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(batch.backend->describe());
}
BENCHMARK(BM_DatapathEvaluate)
    ->ArgsProduct({{0, 1, 2, 3}, {10, 80}});

// The pre-encoded lane-batched executor on one core: the per-core speedup
// over BM_DatapathEvaluate.
void BM_OpProgram(benchmark::State& state) {
  const DatapathBatch batch(state.range(0), state.range(1), 4096);
  const compiler::OpProgram& program = batch.module.program(*batch.backend);
  std::vector<double> results(batch.count);
  for (auto _ : state) {
    program.evaluate(batch.rows, results);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.count));
  state.SetLabel(batch.backend->describe());
}
BENCHMARK(BM_OpProgram)->ArgsProduct({{0, 1, 2, 3}, {10, 80}});

void BM_CpuEngineBatch(benchmark::State& state) {
  const auto model =
      workload::make_nips_model(static_cast<std::size_t>(state.range(0)));
  engine::CpuEngine cpu(spnhbm::model::ModelArtifact::compile(
      model.name, "1", model.spn, arith::make_float64_backend()));
  Rng rng(5);
  const std::size_t count = 8192;
  std::vector<std::uint8_t> samples(count * model.variables);
  for (auto& b : samples) b = static_cast<std::uint8_t>(rng.next_below(256));
  std::vector<double> results(count);
  for (auto _ : state) {
    cpu.wait(cpu.submit(samples, results));
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_CpuEngineBatch)->Arg(10)->Arg(80);

// One served batch on an 8-PE card: NIPS80 CFP marginal queries observing
// 8 words, 49,152 samples, dense (arg 0) or CSR sparse (arg 1). The batch
// is split into blocks across the PEs and every PE evaluates its block
// bit-accurately. Counters: host ns per sample (executor + evaluator, one
// thread) and the card's virtual samples/s.
void BM_FpgaSimInfer(benchmark::State& state) {
  constexpr std::size_t kVariables = 80;
  constexpr std::size_t kSamples = 49152;
  const bool sparse = state.range(0) != 0;
  const auto nips = workload::make_nips_model(kVariables);
  compiler::CompileOptions options;
  options.query = compiler::QueryKind::kMarginal;
  options.input_domain = compiler::kMissingByte;
  const auto model = spnhbm::model::ModelArtifact::compile(
      nips.name, "1", nips.spn,
      arith::make_cfp_backend(arith::paper_cfp_format()), options);
  engine::FpgaEngineConfig config;
  config.pe_count = 8;
  engine::FpgaSimEngine card(model, config);

  workload::CorpusConfig corpus;
  corpus.documents = kSamples;
  corpus.vocabulary = kVariables;
  const auto queries =
      workload::sparse_queries(workload::make_bag_of_words(corpus), 8);
  const auto dense = queries.densify(model->module().default_evidence());
  const auto stream = compiler::encode_sparse(queries);
  std::vector<double> results(kSamples);

  std::int64_t host_ns = 0;
  Picoseconds virtual_ps = 0;
  for (auto _ : state) {
    const Picoseconds virtual_start = card.virtual_now();
    const auto start = std::chrono::steady_clock::now();
    card.wait(sparse ? card.submit_sparse(stream, kSamples, results)
                     : card.submit(dense, results));
    host_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    virtual_ps += card.virtual_now() - virtual_start;
    benchmark::DoNotOptimize(results.data());
    benchmark::ClobberMemory();
  }
  const auto samples =
      static_cast<double>(state.iterations()) * static_cast<double>(kSamples);
  state.counters["host_ns_per_sample"] =
      static_cast<double>(host_ns) / samples;
  state.counters["virtual_samples_per_s"] = samples / to_seconds(virtual_ps);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kSamples));
  state.SetLabel(sparse ? "sparse" : "dense");
}
BENCHMARK(BM_FpgaSimInfer)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Full server path: small independent requests coalesced into engine
// batches — measures the scheduler's per-request overhead, not the math.
void BM_ServerSmallRequests(benchmark::State& state) {
  const auto model = workload::make_nips_model(10);
  engine::ServerConfig config;
  config.batch_samples = 1024;
  config.max_latency = std::chrono::microseconds(200);
  engine::InferenceServer server(config);
  server.register_engine(
      std::make_shared<engine::CpuEngine>(spnhbm::model::ModelArtifact::compile(
          model.name, "1", model.spn, arith::make_float64_backend())));
  server.start();
  Rng rng(5);
  const std::size_t requests = 64;
  const std::size_t request_samples = 16;
  std::vector<std::uint8_t> sample(request_samples * model.variables);
  for (auto& b : sample) b = static_cast<std::uint8_t>(rng.next_below(256));
  for (auto _ : state) {
    std::vector<std::future<std::vector<double>>> futures;
    futures.reserve(requests);
    for (std::size_t r = 0; r < requests; ++r) {
      futures.push_back(server.submit(sample));
    }
    for (auto& f : futures) benchmark::DoNotOptimize(f.get());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(requests));
  server.stop();
}
BENCHMARK(BM_ServerSmallRequests);

}  // namespace

// Like BENCHMARK_MAIN(), but defaults --benchmark_out to the same
// BENCH_<name>.json location the fig benches use (overridable via
// SPNHBM_BENCH_JSON_DIR), unless the caller passed their own --benchmark_out.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string format_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_out=")) {
      has_out = true;
    }
  }
  if (!has_out) {
    std::string path = "BENCH_micro_runtime.json";
    if (const char* dir = std::getenv("SPNHBM_BENCH_JSON_DIR");
        dir != nullptr && *dir != '\0') {
      path = std::string(dir) + "/" + path;
    }
    out_flag = "--benchmark_out=" + path;
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
