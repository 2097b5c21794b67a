// spnbench: runs one workload of the spnhbm benchmark and prints every
// metric by name with its unit and clock, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//   spnbench --workload batch-dense|batch-sparse|rpc-small --seed N
//            --seconds S --trace 0|1 [--spans-out FILE] [--digest-dir DIR]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (from a separate traced run). Exit status: 0 when every output check
// passed, 1 when one failed (the JSON line is still printed), 2 on a usage
// error or when the run could not complete (no JSON line).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

using spnbench::Options;
using spnbench::RunReport;

int usage(const char* why) {
  std::fprintf(stderr,
               "spnbench: %s\nusage: spnbench --workload "
               "batch-dense|batch-sparse|rpc-small --seed N --seconds S "
               "--trace 0|1 [--spans-out FILE] [--digest-dir DIR]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value != "0";
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else if (flag == "--digest-dir") {
      options.digest_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty() && options.seconds > 0.0;
}

void print(RunReport& report) {
  for (const auto& note : report.notes) std::printf("note: %s\n", note.c_str());
  for (const auto& metric : report.metrics) {
    if (!std::isfinite(metric.value)) {
      report.fail_check("metric " + metric.name + " is not finite");
    }
    std::printf("metric %-36s %16.6f %-9s %s\n", metric.name.c_str(),
                metric.value, metric.unit.c_str(),
                spnbench::clock_name(metric.clock));
  }
  std::printf("failed_fraction %.6g (%llu of %llu outputs)\n",
              report.attempted > 0 ? static_cast<double>(report.failed) /
                                         static_cast<double>(report.attempted)
                                   : 0.0,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const auto& failure : report.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  for (const auto& metric : report.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", metric.name.c_str(),
                std::isfinite(metric.value) ? metric.value : 0.0,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) return usage("bad arguments");
  std::printf("spnbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);
  RunReport report;
  try {
    if (options.workload == "batch-dense") {
      report = spnbench::run_batch(options, false);
    } else if (options.workload == "batch-sparse") {
      report = spnbench::run_batch(options, true);
    } else if (options.workload == "rpc-small") {
      report = spnbench::run_rpc_small(options);
    } else {
      return usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spnbench: run failed: %s\n", e.what());
    return 2;
  }
  print(report);
  return report.correct() ? 0 : 1;
}
