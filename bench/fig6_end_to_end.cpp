// Reproduces paper Fig. 6: end-to-end peak inference throughput
// (samples/s, host<->device transfers included) of the HBM architecture
// against the prior-work AWS F1 design [8], a 12-core Xeon E5-2680 v3 and
// an NVIDIA Tesla V100, for every benchmark SPN — plus the published
// speedup aggregates:
//   vs CPU:  geo 1.6x, max 2.46x (NIPS80), CPU wins NIPS10;
//   vs V100: geo 6.9x, max 8.4x;
//   vs F1:   geo 1.29x, max 1.50x (NIPS80).
//
// Platform sources: HBM and F1 are simulated by this repo; Xeon and V100
// are reconstructed reference curves (see baselines/reference_platforms);
// the native CPU throughput measured on THIS machine is reported as an
// extra informational row.
#include "bench_common.hpp"

#include "spnhbm/baselines/reference_platforms.hpp"
#include "spnhbm/engine/cpu_engine.hpp"
#include "spnhbm/telemetry/bench_report.hpp"
#include "spnhbm/util/stats.hpp"

int main() {
  using namespace spnhbm;
  using namespace spnhbm::bench;
  print_header("Fig. 6 — end-to-end peak performance by platform",
               "samples/s including host<->device transfers (HBM, F1)");

  const auto cfp = arith::make_cfp_backend(arith::paper_cfp_format());
  const auto f64 = arith::make_float64_backend();
  const auto cpu_ref = baselines::xeon_e5_2680v3_curve();
  const auto gpu_ref = baselines::tesla_v100_curve();
  const auto f1_ref = baselines::aws_f1_curve();
  const auto hbm_ref = baselines::paper_hbm_curve();

  Table table({"benchmark", "HBM sim [Ms/s]", "HBM paper", "F1 sim",
               "F1 paper[8]", "Xeon ref", "V100 ref", "native CPU here"});
  telemetry::BenchReport report("fig6_end_to_end");
  std::vector<double> vs_cpu, vs_gpu, vs_f1_sim, vs_f1_ref;
  double max_cpu = 0, max_gpu = 0, max_f1 = 0;
  bool cpu_wins_nips10 = false;

  for (const std::size_t size : workload::nips_benchmark_sizes()) {
    const auto model = workload::make_nips_model(size);
    const auto module = compiler::compile_spn(model.spn, *cfp);
    const auto module_f64 = compiler::compile_spn(model.spn, *f64);

    // Best-case HBM configuration: the largest placeable design.
    const int hbm_pes = fpga::max_placeable_pes(module, arith::FormatKind::kCfp,
                                                fpga::Platform::kHbmXupVvh);
    const double hbm = simulate_hbm_throughput(module, *cfp, hbm_pes, 1, true,
                                               1'500'000);

    // Prior-work F1 configuration: 4 PEs/4 controllers up to NIPS40,
    // 2 PEs/2 controllers for NIPS80 — the configurations [8] actually
    // deployed (paper §V-A/§V-D).
    const int f1_pes = std::min(
        {fpga::max_placeable_pes(module_f64, arith::FormatKind::kFloat64,
                                 fpga::Platform::kF1),
         size == 80 ? 2 : 4});
    const double f1 = simulate_f1_throughput(module_f64, *f64, f1_pes, f1_pes,
                                             1'000'000);

    engine::CpuEngine cpu(
        spnhbm::model::ModelArtifact::wrap(model.name, module_f64, *f64));
    const double native_cpu = cpu.measure_throughput(200'000);

    table.add_row({model.name, msamples(hbm), msamples(hbm_ref.at(size)),
                   msamples(f1), msamples(f1_ref.at(size)),
                   msamples(cpu_ref.at(size)), msamples(gpu_ref.at(size)),
                   msamples(native_cpu)});

    report.add()
        .field("benchmark", model.name)
        .field("nips_size", static_cast<double>(size))
        .field("hbm_sim_samples_per_s", hbm)
        .field("hbm_paper_samples_per_s", hbm_ref.at(size))
        .field("f1_sim_samples_per_s", f1)
        .field("f1_paper_samples_per_s", f1_ref.at(size))
        .field("xeon_ref_samples_per_s", cpu_ref.at(size))
        .field("v100_ref_samples_per_s", gpu_ref.at(size))
        .field("native_cpu_samples_per_s", native_cpu);

    vs_cpu.push_back(hbm / cpu_ref.at(size));
    vs_gpu.push_back(hbm / gpu_ref.at(size));
    vs_f1_sim.push_back(hbm / f1);
    vs_f1_ref.push_back(hbm / f1_ref.at(size));
    max_cpu = std::max(max_cpu, vs_cpu.back());
    max_gpu = std::max(max_gpu, vs_gpu.back());
    max_f1 = std::max(max_f1, vs_f1_ref.back());
    if (size == 10 && vs_cpu.back() < 1.0) cpu_wins_nips10 = true;
  }
  print_table(table);

  std::printf("\nspeedups of the simulated HBM architecture:\n");
  Table speedups({"vs platform", "geo-mean (sim)", "geo-mean (paper)",
                  "max (sim)", "max (paper)"});
  speedups.add_row({"Xeon E5-2680 v3", strformat("%.2fx", geometric_mean(vs_cpu)),
                    "1.60x", strformat("%.2fx", max_cpu), "2.46x"});
  speedups.add_row({"Tesla V100", strformat("%.2fx", geometric_mean(vs_gpu)),
                    "6.90x", strformat("%.2fx", max_gpu), "8.40x"});
  speedups.add_row({"AWS F1 [8] (reference)",
                    strformat("%.2fx", geometric_mean(vs_f1_ref)), "1.29x",
                    strformat("%.2fx", max_f1), "1.50x"});
  speedups.add_row({"AWS F1 [8] (simulated)",
                    strformat("%.2fx", geometric_mean(vs_f1_sim)), "1.29x",
                    strformat("%.2fx",
                              *std::max_element(vs_f1_sim.begin(),
                                                vs_f1_sim.end())),
                    "1.50x"});
  print_table(speedups);
  std::printf("CPU outperforms HBM on NIPS10 (paper: yes): %s\n",
              cpu_wins_nips10 ? "yes" : "no");

  report.add()
      .field("benchmark", "speedup_summary")
      .field("geo_mean_vs_xeon", geometric_mean(vs_cpu))
      .field("max_vs_xeon", max_cpu)
      .field("geo_mean_vs_v100", geometric_mean(vs_gpu))
      .field("max_vs_v100", max_gpu)
      .field("geo_mean_vs_f1_ref", geometric_mean(vs_f1_ref))
      .field("max_vs_f1_ref", max_f1)
      .field("geo_mean_vs_f1_sim", geometric_mean(vs_f1_sim))
      .field("cpu_wins_nips10", cpu_wins_nips10 ? 1.0 : 0.0);
  report.write();
  std::printf("machine-readable records written to %s\n",
              report.output_path().c_str());
  return 0;
}
