// Out-of-domain detection with SPN probabilities — the uncertainty
// property the paper's background section highlights (Peharz et al.:
// confronting an SPN with out-of-domain inputs yields low probabilities,
// i.e. the model KNOWS it is uncertain).
//
// We train a Mixed SPN on the synthetic NIPS corpus, run three input
// populations through the simulated accelerator, and show the
// log-probability separation:
//   * in-domain documents from the training distribution,
//   * out-of-domain "uniform noise" documents,
//   * partially observed documents (marginalised features, the paper's
//     "missing features" capability — evaluated on the reference path,
//     since marginalisation is a host-side query transform).
//
//   ./build/examples/uncertainty_ood
#include <cmath>
#include <cstdio>

#include "spnhbm/engine/fpga_engine.hpp"
#include "spnhbm/spn/evaluate.hpp"
#include "spnhbm/util/rng.hpp"
#include "spnhbm/util/stats.hpp"
#include "spnhbm/workload/bag_of_words.hpp"
#include "spnhbm/workload/model_zoo.hpp"

int main() {
  using namespace spnhbm;
  const std::size_t variables = 10;
  const std::size_t documents = 64;

  const auto model = workload::make_nips_model(variables);
  engine::FpgaSimEngine rt(spnhbm::model::ModelArtifact::compile(
      model.name, "1", model.spn,
      arith::make_lns_backend(arith::paper_lns_format())));

  // In-domain: fresh documents from the same corpus distribution.
  workload::CorpusConfig corpus;
  corpus.vocabulary = variables;
  corpus.documents = documents;
  corpus.seed = 777;  // held-out seed, same distribution
  const auto in_domain = workload::make_bag_of_words(corpus);

  // Out-of-domain: uniform random byte noise.
  Rng rng(4242);
  std::vector<std::uint8_t> noise(documents * variables);
  for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next_below(256));

  const auto p_in = rt.infer(in_domain.to_bytes());
  const auto p_out = rt.infer(noise);

  RunningStats ll_in, ll_out;
  for (const double p : p_in) ll_in.add(std::log(std::max(p, 1e-300)));
  for (const double p : p_out) ll_out.add(std::log(std::max(p, 1e-300)));

  std::printf("accelerator-evaluated log-likelihoods (%zu docs each):\n",
              documents);
  std::printf("  in-domain:      mean %8.2f  (min %8.2f, max %8.2f)\n",
              ll_in.mean(), ll_in.min(), ll_in.max());
  std::printf("  out-of-domain:  mean %8.2f  (min %8.2f, max %8.2f)\n",
              ll_out.mean(), ll_out.min(), ll_out.max());
  std::printf("  separation:     %.2f nats -> the SPN flags OOD inputs\n\n",
              ll_in.mean() - ll_out.mean());

  // Missing features: marginalise half the variables of one document and
  // watch the probability rise monotonically toward 1 (the tractable
  // marginalisation property).
  spn::Evaluator reference(model.spn);
  std::vector<double> document(variables);
  for (std::size_t v = 0; v < variables; ++v) {
    document[v] = in_domain.at(0, v);
  }
  std::printf("marginalising document 0 one variable at a time:\n");
  std::printf("  %-28s %s\n", "observed variables", "probability");
  for (std::size_t hidden = 0; hidden <= variables; hidden += 2) {
    auto query = document;
    for (std::size_t v = 0; v < hidden; ++v) query[v] = spn::missing_value();
    std::printf("  %-28zu %.6e\n", variables - hidden,
                reference.evaluate(query));
  }
  return 0;
}
