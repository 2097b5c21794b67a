// Quickstart: build a small Mixed SPN, compile it to an accelerator
// datapath, stand up the simulated 1-PE HBM card behind the unified
// InferenceEngine interface, and run inference on it end-to-end — the
// complete toolflow of the paper in ~80 lines.
//
//   ./build/examples/quickstart
#include <cstdio>

#include "spnhbm/arith/backend.hpp"
#include "spnhbm/compiler/datapath.hpp"
#include "spnhbm/engine/fpga_engine.hpp"
#include "spnhbm/spn/evaluate.hpp"
#include "spnhbm/spn/text_format.hpp"

int main() {
  using namespace spnhbm;

  // 1. Describe the SPN in the SPFlow-style text format: a two-component
  //    mixture over two byte-valued features.
  const spn::Spn model = spn::parse_spn(R"(
    Sum(0.3*Product(Histogram(V0|[0,64,128,256];[0.0078125,0.0078125,0.0])
                  * Histogram(V1|[0,128,256];[0.0078125,0.0]))
      + 0.7*Product(Histogram(V0|[0,64,256];[0.0078125,0.00260416666666666652])
                  * Histogram(V1|[0,128,256];[0.005,0.0028125])))
  )");
  std::printf("model: %s\n", spn::compute_stats(model).describe().c_str());

  // 2. Compile it to a pipelined datapath in the paper's CFP arithmetic.
  const auto backend = arith::make_cfp_backend(arith::paper_cfp_format());
  const auto module = compiler::compile_spn(model, *backend);
  std::printf("%s\n", module.report().c_str());

  // 3. Stand up the simulated accelerator card behind the unified engine
  //    interface. The engine owns the whole stack: DES scheduler, TaPaSCo
  //    composition (PE -> SmartConnect -> dedicated HBM channel) and the
  //    §IV-B host runtime. Swapping in engine::CpuEngine or
  //    engine::GpuModelEngine here changes the backend, nothing else.
  engine::FpgaSimEngine accelerator(
      spnhbm::model::ModelArtifact::wrap("quickstart", module, *backend));
  std::printf("engine: %s\n", accelerator.capabilities().name.c_str());

  // 4. Run real samples through the accelerator (copy -> launch -> read
  //    back) and compare against the reference evaluator.
  const std::vector<std::uint8_t> samples{
      10, 200,   // component B territory
      100, 30,   // component A territory
      70, 140,   // mixed
  };
  const auto results = accelerator.infer(samples);

  spn::Evaluator reference(model);
  std::printf("\n%-14s %-22s %-22s\n", "sample", "accelerator", "reference");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double want = reference.evaluate_bytes(
        std::span<const std::uint8_t>(samples).subspan(i * 2, 2));
    std::printf("(%3u, %3u)     %-22.8e %-22.8e\n", samples[i * 2],
                samples[i * 2 + 1], results[i], want);
  }
  std::printf("\nvirtual time elapsed: %.2f us\n",
              to_seconds(accelerator.virtual_now()) * 1e6);
  return 0;
}
