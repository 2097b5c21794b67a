// End-to-end NIPS workload: train a Mixed SPN on the synthetic NIPS
// bag-of-words corpus (the paper's benchmark recipe), check its structure
// against the device, and race the 8-PE HBM design against the prior-work
// F1 configuration and the native CPU baseline on this machine.
//
//   ./build/examples/nips_end_to_end [variables=20]
#include <cstdio>
#include <cstdlib>

#include "spnhbm/engine/cpu_engine.hpp"
#include "spnhbm/engine/fpga_engine.hpp"
#include "spnhbm/fpga/resource_model.hpp"
#include "spnhbm/workload/bag_of_words.hpp"
#include "spnhbm/workload/model_zoo.hpp"

int main(int argc, char** argv) {
  using namespace spnhbm;
  const std::size_t variables =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 20;

  // 1. Learn the model from the corpus (LearnSPN on synthetic NIPS data).
  const auto model = workload::make_nips_model(variables);
  std::printf("learned %s: %s\n", model.name.c_str(),
              spn::compute_stats(model.spn).describe().c_str());

  // 2. Compile and size the design.
  const auto backend = arith::make_cfp_backend(arith::paper_cfp_format());
  const auto module = compiler::compile_spn(model.spn, *backend);
  const int max_pes = fpga::max_placeable_pes(module, arith::FormatKind::kCfp,
                                              fpga::Platform::kHbmXupVvh);
  const auto design = fpga::estimate_design(
      module, arith::FormatKind::kCfp,
      fpga::DesignSpec{fpga::Platform::kHbmXupVvh, max_pes, 1});
  std::printf("design: %d PEs, %s\n", max_pes, design.describe().c_str());

  // 3. Simulated HBM run (end-to-end, transfers included) through the
  //    unified engine interface.
  {
    engine::FpgaEngineConfig config;
    config.pe_count = max_pes;
    config.compute_results = false;
    engine::FpgaSimEngine hbm(
        spnhbm::model::ModelArtifact::wrap(model.name, module, *backend),
        config);
    const double rate =
        hbm.measure_throughput(static_cast<std::uint64_t>(max_pes) *
                               2'000'000);
    std::printf("HBM x%d (simulated): %s -> %s\n", max_pes,
                hbm.stats().describe().c_str(), format_rate(rate).c_str());
  }

  // 4. Prior-work F1 configuration for contrast — same interface, other
  //    platform config.
  {
    const auto f64 = arith::make_float64_backend();
    const auto module_f64 = compiler::compile_spn(model.spn, *f64);
    const int f1_pes = std::min(
        fpga::max_placeable_pes(module_f64, arith::FormatKind::kFloat64,
                                fpga::Platform::kF1),
        4);
    engine::FpgaEngineConfig config;
    config.platform = fpga::Platform::kF1;
    config.pe_count = f1_pes;
    config.memory_channels = f1_pes;
    config.threads_per_pe = 2;
    config.compute_results = false;
    engine::FpgaSimEngine f1(
        spnhbm::model::ModelArtifact::wrap(model.name, module_f64, *f64),
        config);
    const double rate =
        f1.measure_throughput(static_cast<std::uint64_t>(f1_pes) * 1'000'000);
    std::printf("F1 x%d [8] (simulated): %s\n", f1_pes,
                format_rate(rate).c_str());
  }

  // 5. Native CPU baseline, measured for real on this machine.
  {
    engine::CpuEngine cpu(spnhbm::model::ModelArtifact::compile(
        model.name, "1", model.spn, arith::make_float64_backend()));
    const double rate = cpu.measure_throughput(200'000);
    std::printf("CPU x%zu threads (native, this machine): %s\n",
                cpu.threads(), format_rate(rate).c_str());
  }

  // 6. Functional spot check on real corpus documents.
  {
    workload::CorpusConfig corpus;
    corpus.documents = 4;
    corpus.vocabulary = variables;
    const auto docs = workload::make_bag_of_words(corpus);
    engine::FpgaSimEngine accelerator(
        spnhbm::model::ModelArtifact::wrap(model.name, module, *backend));
    const auto results = accelerator.infer(docs.to_bytes());
    std::printf("\njoint probabilities of %zu real documents:\n",
                results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      std::printf("  doc %zu: %.6e\n", i, results[i]);
    }
  }
  return 0;
}
