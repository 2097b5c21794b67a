// spnhbm — command-line front end to the toolflow.
//
//   spnhbm compile <spn.txt> [--format cfp|lns|posit|f64] [--out design.bin]
//                  [--dot graph.dot]
//       Compile a textual SPN to a datapath; print the module report and
//       optionally write the binary design artifact / Graphviz rendering.
//
//   spnhbm resources <spn.txt> [--format ...] [--pes N] [--platform hbm|f1]
//       Estimate the design's resource vector and placement feasibility.
//       --sweep prints the max routable PE count for every arithmetic
//       format on both platforms as a table, with the resource (or
//       routing/channel cap) that blocks the next PE.
//
//   spnhbm tune <spn.txt|design.bin> [--format ...] [--query ...]
//               [--seed S] [--budget N] [--pes N] [--platform hbm|f1]
//               [--requests N] [--request-samples N] [--arrival-us U]
//               [--sparse-fraction F] [--sparse-density D]
//               [--out manifest.json] [--log search.log]
//       Search the serving-configuration space {block_samples, pe_count,
//       HBM channel packing, crossbar, batch_samples, flush_deadline_us}
//       for this model: grid seed + hill climbing, every candidate scored
//       by replaying a representative workload (--requests/--request-
//       samples/--arrival-us/--sparse-*) through the calibrated simulator
//       in virtual time. Deterministic in --seed: the search log (stdout,
//       and --log FILE) is byte-identical across runs. --out writes the
//       winning config as a versioned TuningManifest JSON keyed by the
//       model's content hash + query kind; infer/serve load it back with
//       --tuning and refuse manifests minted for different compiled bits.
//
//   spnhbm simulate <spn.txt> [--format ...] [--pes N] [--threads N]
//                   [--samples N] [--no-transfers] [--pcie GEN]
//                   [--metrics-out FILE] [--trace-out FILE]
//                   [--fault-plan plan.json]
//       Run the timing simulation and print end-to-end statistics.
//       --metrics-out dumps the metrics registry as JSON; --trace-out
//       writes a Chrome trace-event JSON (virtual-time swim lanes per HBM
//       channel, PCIe DMA, PE and control thread) for Perfetto.
//       --fault-plan arms the deterministic fault injector (HBM stalls /
//       ECC corruption, DMA aborts, PE launch faults) for the run.
//
//   spnhbm infer <spn.txt|design.bin> <samples.csv> [--engine fpga|cpu|gpu]
//                [--query joint|marginal|mpe] [--sparse]
//                [--evidence 'x3=1,x17=0' ...] [--tuning manifest.json]
//       Run real samples (one CSV row of byte features per line) through
//       the unified inference-engine interface (default: the simulated
//       accelerator); print one probability per line. The model may be a
//       textual SPN or a binary design artifact from `compile --out`
//       (recognised by its magic). --query compiles the datapath for a
//       marginal or MPE (max-product) query instead of the joint;
//       --sparse re-encodes the CSV rows as CSR sparse evidence streams
//       (bit-identical results, smaller modelled transfers); each
//       --evidence flag is one sparse sample given directly as
//       index=value pairs — variables not named carry no evidence
//       (non-joint queries) or byte 0 (joint), and no CSV is needed.
//
//   spnhbm serve <spn.txt> --requests <samples.csv>
//                [--queries joint,marginal,mpe]
//                [--engines fpga,cpu,gpu] [--format ...] [--pes N]
//                [--batch N] [--max-latency-us U] [--queue-bound N]
//                [--policy rr|load] [--metrics-out FILE] [--trace-out FILE]
//                [--fault-plan plan.json] [--request-timeout US]
//       Replay each CSV row as an independent single-sample request
//       through the async batching InferenceServer; print a "== model"
//       header, one probability per line, then the server/engine
//       statistics. Shorthand for `serve --model model=<spn.txt>@1
//       --requests model=<samples.csv>` (and --tuning model=FILE).
//       Engines may carry a failover tier as name:prio (e.g.
//       fpga:0,cpu:1 — the CPU only serves while every tier-0 engine is
//       quarantined). --fault-plan arms the deterministic fault injector
//       and wraps every engine in the chaos decorator; the self-healing
//       server (retries, failover, quarantine + probes, deadlines) then
//       recovers where it can, and rows that still fail print an
//       "error:" line instead of a probability. --request-timeout sets
//       the per-request deadline. --queries compiles and serves one lane
//       per listed query kind — a marginal lane is addressed as
//       "model@1#marginal" over the wire.
//       --tuning manifest.json (repeatable; name=path with --model)
//       applies a `spnhbm tune` manifest to the lane whose query kind it
//       was minted for: the engine composes with the tuned block size and
//       HBM channel packing, the lane batches to the tuned batch_samples
//       and flush deadline, and --pes defaults to the tuned PE count.
//       Fleet serving sizes each replica's partition from the manifest
//       when --fleet-pe-slots is not given (deficit-checked placement).
//
//   spnhbm serve --model name=path[@version] [--model ...]
//                --requests name=samples.csv [--requests ...]
//                [--engines fpga,cpu,gpu] [--format ...] [common flags]
//       Multi-model serving: each --model loads an artifact (textual SPN
//       or binary design) into the model registry and registers one
//       engine per --engines entry for it; each --requests replays a CSV
//       against the named model through the same server. Batches never
//       mix models; per-model stats are printed at the end.
//
//   spnhbm serve ... --listen PORT [--port-file FILE] [--rate-limit RPS]
//                [--burst N] [--max-inflight-samples N] [--max-connections N]
//       Remote serving: instead of replaying a local CSV, expose the
//       server over the length-prefixed TCP wire protocol (loopback).
//       PORT 0 picks an ephemeral port; --port-file writes the bound
//       port for scripts. Admission control (token bucket + queue-depth
//       shedding) answers overload with the retryable OVERLOADED status.
//       Runs until a client sends the shutdown frame (loadgen
//       --shutdown) or SIGINT/SIGTERM, then drains and prints the usual
//       per-engine report plus the RPC conservation summary.
//
//   spnhbm serve --model ... --fleet-devices N --listen PORT
//                [--fleet-replicas R] [--fleet-pe-slots S]
//                [--rebalance-ms MS] [common flags]
//       Fleet serving: N simulated FPGA cards behind one router. Every
//       --model is deployed as R spatial tenants (disjoint partitions,
//       placed on the least-loaded card; adding one is a partial
//       reconfiguration that leaves co-resident tenants serving), and the
//       RPC front end routes each request to a replica, failing over when
//       a member's queue is full. --rebalance-ms periodically runs the
//       telemetry-driven rebalancer: models taking a hot share of the
//       traffic gain a replica, cold ones shrink (never below one).
//
//   spnhbm loadgen --connect HOST:PORT --requests <samples.csv>
//                  [--model name[@version]] [--count N] [--rate RPS]
//                  [--arrival fixed|poisson|bursty] [--burst N]
//                  [--connections N] [--seed S] [--deadline-us U]
//                  [--query joint|marginal|mpe] [--sparse]
//                  [--shutdown] [--metrics-out FILE] [--trace-out FILE]
//                  [--trace-sample N] [--report-out FILE]
//       Open-loop load generator: replays CSV rows as requests on a
//       deterministic, seeded arrival schedule (arrivals never wait for
//       responses) and reports achieved throughput plus wall-clock
//       latency percentiles, overall and per model. --shutdown asks the
//       server to drain and exit afterwards (CI teardown). --trace-out
//       enables distributed tracing: 1-in-N head-sampled requests
//       (--trace-sample N, default every request) carry a trace context
//       to the server, and the client-side spans land in the Chrome
//       trace. --report-out writes a BENCH-shaped JSON latency report
//       for tools/bench_compare. --query targets a marginal/MPE lane
//       (the lane ref of --model gains the query-kind suffix) and
//       --sparse re-encodes every payload row as a CSR sparse evidence
//       stream.
//
//   spnhbm loadgen --connect HOST:PORT --model a[:weight] --model b[:weight]
//                  --requests a=a.csv --requests b=b.csv [...]
//       Mixed-model traffic: every request draws its model from the
//       weighted mix (deterministic in --seed); each model cycles its own
//       payload CSV (--requests name=path, or one pathless --requests CSV
//       shared by all). The report breaks sent counts down per model.
//
//   spnhbm infer --connect HOST:PORT <samples.csv> [--model name[@version]]
//                [--query joint|marginal|mpe] [--sparse]
//                [--evidence 'x3=1,x17=0' ...]
//       Remote inference against a `serve --listen` process; prints one
//       probability per row, byte-identical to the local engine path.
//       --query/--sparse/--evidence mirror the local flags over the
//       wire (--query suffixes the lane ref); the server must serve a
//       lane of that query kind (serve --queries ...).
//
//   spnhbm top --connect HOST:PORT [--interval-ms MS] [--count N | --once]
//       Live introspection of a `serve --listen` process over the ADMIN
//       wire frames: per-poll request/latency deltas from the server's
//       Prometheus metrics, per-engine health, the fleet replica map and
//       the slowest traced requests, refreshed every --interval-ms
//       (default 1000) until interrupted (--once = a single snapshot;
//       --count N stops after N polls).
//
//   spnhbm soak --model name=path [--model ...] --requests name=csv [...]
//               [--seed S] [--minutes M] [--fault-plan plan.json]
//               [--disarm] [--devices N] [--replicas R] [--clients C]
//               [--wave-requests W] [--swaps-per-wave K]
//               [--rebalance-every E] [--report-out FILE]
//       Self-contained chaos soak: a fleet of N simulated devices behind
//       an RPC server on a loopback port, resilient clients pushing
//       waves of traffic while replicas hot-swap and the rebalancer
//       runs, with the --fault-plan chaos (device AND network sites)
//       armed throughout. Runs M minutes of virtual reconfiguration
//       time, then asserts every conservation identity, health
//       convergence and zero leaks. stdout is seed-deterministic
//       (--disarm loads the plan without arming it, and the output is
//       byte-identical to a run with no plan at all); wall-clock detail
//       goes to stderr. Exits 0 only when every assertion holds.
//
//   spnhbm learn <data.csv> [--min-instances N] [--threshold X]
//       Learn a Mixed SPN from CSV data; print its textual description.
//
//   spnhbm sample <spn.txt> [--count N] [--seed S]
//       Draw samples from the SPN's joint distribution (CSV to stdout).
//
//   spnhbm version
//       Print the build version and wire-protocol version.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "spnhbm/compiler/serialize.hpp"
#include "spnhbm/compiler/sparse_evidence.hpp"
#include "spnhbm/engine/chaos_engine.hpp"
#include "spnhbm/engine/cpu_engine.hpp"
#include "spnhbm/engine/fpga_engine.hpp"
#include "spnhbm/engine/gpu_engine.hpp"
#include "spnhbm/engine/server.hpp"
#include "spnhbm/fault/fault.hpp"
#include "spnhbm/fleet/router.hpp"
#include "spnhbm/fpga/resource_model.hpp"
#include "spnhbm/model/artifact.hpp"
#include "spnhbm/model/registry.hpp"
#include "spnhbm/model/tuning.hpp"
#include "spnhbm/rpc/client.hpp"
#include "spnhbm/rpc/loadgen.hpp"
#include "spnhbm/rpc/resilient_client.hpp"
#include "spnhbm/rpc/server.hpp"
#include "spnhbm/soak/soak.hpp"
#include "spnhbm/runtime/inference_runtime.hpp"
#include "spnhbm/spn/dot_export.hpp"
#include "spnhbm/spn/io_csv.hpp"
#include "spnhbm/spn/learn.hpp"
#include "spnhbm/spn/queries.hpp"
#include "spnhbm/spn/text_format.hpp"
#include "spnhbm/telemetry/metrics.hpp"
#include "spnhbm/telemetry/trace.hpp"
#include "spnhbm/tune/tuner.hpp"
#include "spnhbm/util/strings.hpp"
#include "spnhbm/util/version.hpp"

namespace {

using namespace spnhbm;

[[noreturn]] void usage() {
  std::fputs(
      "usage: spnhbm "
      "<compile|resources|simulate|infer|serve|tune|loadgen|soak|top|learn|"
      "sample|version> ...\n"
      "run with a command and -h for details (see the header of\n"
      "tools/spnhbm_cli.cpp)\n",
      stderr);
  std::exit(2);
}

struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> options;

  static Args parse(int argc, char** argv, int first) {
    Args args;
    for (int i = first; i < argc; ++i) {
      std::string token = argv[i];
      if (starts_with(token, "--")) {
        std::string value = "true";
        if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
          value = argv[++i];
        }
        args.options.emplace_back(token.substr(2), value);
      } else {
        args.positional.push_back(std::move(token));
      }
    }
    return args;
  }

  std::string option(const std::string& name,
                     const std::string& fallback) const {
    for (const auto& [key, value] : options) {
      if (key == name) return value;
    }
    return fallback;
  }
  /// Every value of a repeatable option, in command-line order.
  std::vector<std::string> option_all(const std::string& name) const {
    std::vector<std::string> values;
    for (const auto& [key, value] : options) {
      if (key == name) values.push_back(value);
    }
    return values;
  }
  bool flag(const std::string& name) const {
    for (const auto& [key, value] : options) {
      if (key == name) return value != "false";
    }
    return false;
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// "HOST:PORT" (numeric IPv4 host, loopback in practice).
std::pair<std::string, std::uint16_t> parse_host_port(
    const std::string& spec) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == spec.size()) {
    throw Error("expected HOST:PORT, got '" + spec + "'");
  }
  const long port = std::atol(spec.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    throw Error("port out of range in '" + spec + "'");
  }
  return {spec.substr(0, colon), static_cast<std::uint16_t>(port)};
}

/// Handles --metrics-out / --trace-out. Tracing must be switched on before
/// the instrumented stack is constructed (tracks register only while the
/// tracer is enabled), so commands call enable_telemetry() first and
/// write_telemetry() after the run.
struct TelemetryOutputs {
  std::string metrics_path;
  std::string trace_path;

  static TelemetryOutputs from_args(const Args& args) {
    TelemetryOutputs outputs;
    outputs.metrics_path = args.option("metrics-out", "");
    outputs.trace_path = args.option("trace-out", "");
    if (!outputs.trace_path.empty()) telemetry::tracer().enable();
    return outputs;
  }

  void write() const {
    if (!metrics_path.empty()) {
      telemetry::metrics().write_json(metrics_path);
      std::fprintf(stderr, "metrics written to %s\n", metrics_path.c_str());
    }
    if (!trace_path.empty()) {
      telemetry::tracer().write_chrome_trace(trace_path);
      std::fprintf(stderr, "trace written to %s (load in ui.perfetto.dev)\n",
                   trace_path.c_str());
    }
  }
};

/// --fault-plan FILE: arms the global injector for this process. Returns
/// true when a plan is active (chaos mode).
bool arm_fault_plan(const Args& args) {
  const std::string path = args.option("fault-plan", "");
  if (path.empty()) return false;
  const fault::FaultPlan plan = fault::FaultPlan::from_json_file(path);
  fault::injector().arm(plan);
  std::fprintf(stderr, "fault plan armed: %zu rule(s), seed %llu\n",
               plan.rules.size(), static_cast<unsigned long long>(plan.seed));
  return true;
}

void print_fault_summary() {
  std::printf("faults injected: %llu\n",
              static_cast<unsigned long long>(fault::injector().injected()));
  std::map<std::string, std::uint64_t> by_site;
  for (const auto& entry : fault::injector().log()) {
    by_site[entry.site + "/" + entry.instance + " " +
            fault::to_string(entry.kind)] += 1;
  }
  for (const auto& [label, count] : by_site) {
    std::printf("  %s x%llu\n", label.c_str(),
                static_cast<unsigned long long>(count));
  }
}

/// "--queries joint,marginal,mpe" -> query kinds, command-line order.
std::vector<compiler::QueryKind> parse_queries(const Args& args) {
  std::vector<compiler::QueryKind> kinds;
  for (const auto& name : split(args.option("queries", "joint"), ',')) {
    kinds.push_back(compiler::parse_query_kind(name));
  }
  if (kinds.empty()) throw Error("--queries needs at least one query kind");
  return kinds;
}

/// Compile options for one query kind. Non-joint datapaths reserve byte
/// 255 as the marginalised slot, so their input domain shrinks to 255.
compiler::CompileOptions compile_options_for(compiler::QueryKind query) {
  compiler::CompileOptions options;
  options.query = query;
  if (query != compiler::QueryKind::kJoint) {
    options.input_domain = compiler::kMissingByte;
  }
  return options;
}

/// One "--evidence 'x3=1,x17=0'" spec -> sorted {index, value} pairs
/// (the 'x' prefix on indices is optional).
std::vector<std::pair<std::uint16_t, std::uint8_t>> parse_evidence(
    const std::string& spec) {
  std::vector<std::pair<std::uint16_t, std::uint8_t>> pairs;
  for (const auto& item : split(spec, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw Error("--evidence expects index=value pairs, got '" + item + "'");
    }
    std::string index_text = item.substr(0, eq);
    if (index_text[0] == 'x' || index_text[0] == 'X') index_text.erase(0, 1);
    const long index = std::atol(index_text.c_str());
    const long value = std::atol(item.c_str() + eq + 1);
    if (index < 0 || index > 0xFFFF) {
      throw Error("--evidence index out of range in '" + item + "'");
    }
    if (value < 0 || value > 0xFF) {
      throw Error("--evidence value out of range in '" + item + "'");
    }
    pairs.emplace_back(static_cast<std::uint16_t>(index),
                       static_cast<std::uint8_t>(value));
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// All --evidence flags -> one sparse batch (one sample per flag).
compiler::SparseBatch evidence_batch(const std::vector<std::string>& specs,
                                     std::size_t features) {
  compiler::SparseBatch batch;
  batch.features = features;
  for (const auto& spec : specs) {
    std::vector<std::uint16_t> indices;
    std::vector<std::uint8_t> values;
    for (const auto& [index, value] : parse_evidence(spec)) {
      indices.push_back(index);
      values.push_back(value);
    }
    batch.add_sample(indices, values);
  }
  return batch;
}

std::unique_ptr<arith::ArithBackend> backend_for(const std::string& name) {
  if (name == "cfp") return arith::make_cfp_backend(arith::paper_cfp_format());
  if (name == "lns") return arith::make_lns_backend(arith::paper_lns_format());
  if (name == "posit") {
    return arith::make_posit_backend(arith::paper_posit_format());
  }
  if (name == "f64" || name == "float64") return arith::make_float64_backend();
  throw Error("unknown format '" + name + "' (cfp|lns|posit|f64)");
}

int cmd_compile(const Args& args) {
  if (args.positional.empty()) usage();
  const spn::Spn model = spn::parse_spn(read_file(args.positional[0]));
  const auto backend = backend_for(args.option("format", "cfp"));
  const auto module = compiler::compile_spn(model, *backend);
  std::printf("model:   %s\n", spn::compute_stats(model).describe().c_str());
  std::printf("format:  %s\n", backend->describe().c_str());
  std::printf("%s\n", module.report().c_str());
  const std::string out = args.option("out", "");
  if (!out.empty()) {
    compiler::save_design_file(module, out);
    std::printf("design artifact written to %s\n", out.c_str());
  }
  const std::string dot = args.option("dot", "");
  if (!dot.empty()) {
    std::ofstream dot_file(dot);
    dot_file << spn::to_dot(model);
    std::printf("graphviz rendering written to %s\n", dot.c_str());
  }
  return 0;
}

/// `resources --sweep`: the max routable PE count for every arithmetic
/// format on both platforms, plus what blocks the next PE — a resource
/// deficit row, or the platform's routing/channel cap.
int cmd_resources_sweep(const Args& args) {
  const spn::Spn model = spn::parse_spn(read_file(args.positional[0]));
  std::printf("  %-8s %-8s %8s   %s\n", "format", "platform", "max PEs",
              "next PE blocked by");
  for (const char* format_name : {"cfp", "lns", "posit", "f64"}) {
    const auto backend = backend_for(format_name);
    const auto module = compiler::compile_spn(model, *backend);
    for (const auto platform :
         {fpga::Platform::kHbmXupVvh, fpga::Platform::kF1}) {
      const bool f1 = platform == fpga::Platform::kF1;
      const int max_pes =
          fpga::max_placeable_pes(module, backend->kind(), platform);
      std::string blocker;
      fpga::DesignSpec next;
      next.platform = platform;
      next.pe_count = max_pes + 1;
      next.memory_controllers =
          f1 ? std::min(next.pe_count, fpga::cal::kF1MaxMemoryChannels) : 1;
      try {
        fpga::check_placement(module, backend->kind(), next);
        // Resources would fit one more PE; the platform's discrete cap
        // (F1 DDR channels / HBM routable replication) is the wall.
        blocker = f1 ? strformat("DDR channel limit (%d)",
                                 fpga::cal::kF1MaxMemoryChannels)
                     : strformat("routing cap (%d)", fpga::cal::kMaxRoutablePes);
      } catch (const fpga::PlacementDeficitError& e) {
        blocker = e.deficits().front().describe();
      } catch (const PlacementError& e) {
        blocker = e.what();
      }
      std::printf("  %-8s %-8s %8d   %s\n", format_name, f1 ? "f1" : "hbm",
                  max_pes, blocker.c_str());
    }
  }
  return 0;
}

int cmd_resources(const Args& args) {
  if (args.positional.empty()) usage();
  if (args.flag("sweep")) return cmd_resources_sweep(args);
  const spn::Spn model = spn::parse_spn(read_file(args.positional[0]));
  const auto backend = backend_for(args.option("format", "cfp"));
  const auto module = compiler::compile_spn(model, *backend);
  fpga::DesignSpec spec;
  spec.platform = args.option("platform", "hbm") == "f1"
                      ? fpga::Platform::kF1
                      : fpga::Platform::kHbmXupVvh;
  spec.pe_count = std::atoi(args.option("pes", "1").c_str());
  spec.memory_controllers =
      spec.platform == fpga::Platform::kF1
          ? std::min(spec.pe_count, fpga::cal::kF1MaxMemoryChannels)
          : 1;
  const auto pe = fpga::estimate_pe(module, backend->kind());
  const auto design = fpga::estimate_design(module, backend->kind(), spec);
  std::printf("per PE:  %s\n", pe.describe().c_str());
  std::printf("design:  %d PE(s) -> %s\n", spec.pe_count,
              design.describe().c_str());
  try {
    fpga::check_placement(module, backend->kind(), spec);
    std::printf("placement: OK\n");
  } catch (const fpga::PlacementDeficitError& e) {
    // Structured failure: one row per over-budget resource, so the
    // operator sees exactly which budget to shrink the design towards.
    std::printf("placement: FAILS\n");
    std::printf("  %-16s %12s %12s %12s\n", "resource", "required",
                "available", "deficit");
    for (const auto& deficit : e.deficits()) {
      std::printf("  %-16s %12.1f %12.1f %12.1f\n",
                  deficit.resource.c_str(), deficit.required,
                  deficit.available, deficit.deficit());
    }
  } catch (const PlacementError& e) {
    std::printf("placement: FAILS (%s)\n", e.what());
  }
  std::printf("max PEs on this platform: %d\n",
              fpga::max_placeable_pes(module, backend->kind(), spec.platform));
  return 0;
}

int cmd_simulate(const Args& args) {
  if (args.positional.empty()) usage();
  const TelemetryOutputs telemetry_outputs = TelemetryOutputs::from_args(args);
  const bool chaos = arm_fault_plan(args);
  const spn::Spn model = spn::parse_spn(read_file(args.positional[0]));
  const auto backend = backend_for(args.option("format", "cfp"));
  const auto module = compiler::compile_spn(model, *backend);

  sim::Scheduler scheduler;
  sim::ProcessRunner runner(scheduler);
  tapasco::CompositionConfig composition;
  composition.pe_count = std::atoi(args.option("pes", "1").c_str());
  composition.pcie_generation = std::atoi(args.option("pcie", "3").c_str());
  composition.compute_results = false;
  tapasco::Device device(runner, module, *backend, composition);

  runtime::RuntimeConfig config;
  config.threads_per_pe = std::atoi(args.option("threads", "1").c_str());
  config.include_transfers = !args.flag("no-transfers");
  runtime::InferenceRuntime rt(runner, device, module, config);
  const auto samples = static_cast<std::uint64_t>(
      std::atoll(args.option("samples", "4000000").c_str()));
  const auto stats = rt.run(samples);
  std::printf("%s\n", stats.describe().c_str());

  auto& registry = telemetry::metrics();
  registry.gauge("sim.virtual_seconds")->set(to_seconds(scheduler.now()));
  registry.gauge("sim.events_processed")
      ->set(static_cast<double>(scheduler.events_processed()));
  registry.gauge("sim.samples_per_second")->set(stats.samples_per_second);
  if (chaos) print_fault_summary();
  telemetry_outputs.write();
  return 0;
}

std::unique_ptr<engine::InferenceEngine> engine_for(const std::string& name,
                                                    engine::ModelHandle model,
                                                    int pe_count) {
  if (name == "fpga") {
    engine::FpgaEngineConfig config;
    config.pe_count = pe_count;
    return std::make_unique<engine::FpgaSimEngine>(std::move(model), config);
  }
  if (name == "cpu") {
    return std::make_unique<engine::CpuEngine>(std::move(model));
  }
  if (name == "gpu") {
    return std::make_unique<engine::GpuModelEngine>(std::move(model));
  }
  throw Error("unknown engine '" + name + "' (fpga|cpu|gpu)");
}

/// Loads one --tuning manifest file into a shareable handle.
std::shared_ptr<const model::TuningManifest> load_tuning_file(
    const std::string& path) {
  return std::make_shared<const model::TuningManifest>(
      model::TuningManifest::load(path));
}

/// Attaches `manifest` to the loaded query-kind variant it was minted
/// for; attach_tuning() then verifies the content hash, so a manifest
/// from different compiled bits is rejected before it can serve. Throws
/// TuningError when no served variant carries the manifest's query.
void attach_tuning_to_variants(
    const std::shared_ptr<const model::TuningManifest>& manifest,
    const std::vector<engine::ModelHandle>& variants) {
  for (const auto& variant : variants) {
    if (manifest->query ==
        compiler::query_kind_name(variant->module().query())) {
      variant->attach_tuning(manifest);
      return;
    }
  }
  throw model::TuningError("no served lane matches manifest query '" +
                           manifest->query + "'");
}

/// Splits a CSV's byte matrix into per-row request payloads.
std::vector<std::vector<std::uint8_t>> rows_as_payloads(
    const spn::DataMatrix& data) {
  const auto bytes = data.to_bytes();
  const std::size_t features = data.cols();
  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.reserve(data.rows());
  for (std::size_t i = 0; i < data.rows(); ++i) {
    payloads.emplace_back(
        bytes.begin() + static_cast<std::ptrdiff_t>(i * features),
        bytes.begin() + static_cast<std::ptrdiff_t>((i + 1) * features));
  }
  return payloads;
}

/// `infer --connect`: one request carrying the whole CSV, so the output
/// is byte-identical to the local engine path (one probability per row).
/// Rides the self-healing client: a connection reset mid-request is
/// retried under the same idempotency key instead of failing the run.
int cmd_infer_remote(const Args& args) {
  const auto evidence_specs = args.option_all("evidence");
  if (args.positional.empty() && evidence_specs.empty()) usage();
  rpc::ResilientClientConfig client_config;
  std::tie(client_config.host, client_config.port) =
      parse_host_port(args.option("connect", ""));
  client_config.label = "infer";
  client_config.seed = static_cast<std::uint64_t>(
      std::atoll(args.option("seed", "42").c_str()));
  rpc::ResilientClient client(std::move(client_config));
  const rpc::ServerInfo info = client.server_info();
  if (info.models.empty()) {
    throw Error("server hosts no models");
  }
  const auto query =
      compiler::parse_query_kind(args.option("query", "joint"));
  std::string model = args.option("model", "");
  if (model.empty()) {
    // The first advertised lane, stripped of any query-kind suffix.
    model = engine::split_lane_ref(info.models.front().id).first;
  }
  // The targeted lane is model + query suffix.
  model += engine::query_lane_suffix(query);
  const std::uint32_t features = info.input_features(model);
  const auto deadline_us = static_cast<std::uint64_t>(
      std::atoll(args.option("deadline-us", "0").c_str()));
  rpc::QueryOptions options;

  std::vector<std::uint8_t> payload;
  if (!evidence_specs.empty()) {
    const compiler::SparseBatch batch = evidence_batch(evidence_specs, features);
    payload = compiler::encode_sparse(batch);
    options.encoding = rpc::kEncodingSparse;
    options.sample_count =
        static_cast<std::uint32_t>(batch.sample_count());
  } else {
    const spn::DataMatrix data = spn::load_csv_file(args.positional[0]);
    if (data.cols() != features) {
      throw Error(strformat("CSV rows have %zu cells, the model expects %u",
                            data.cols(), features));
    }
    payload = data.to_bytes();
    if (args.flag("sparse")) {
      // Re-encode as CSR sparse evidence against the query's default
      // byte (no-evidence for non-joint datapaths, zero for joint).
      const std::uint8_t missing = query == compiler::QueryKind::kJoint
                                       ? std::uint8_t{0}
                                       : compiler::kMissingByte;
      const std::vector<std::uint8_t> defaults(features, missing);
      const compiler::SparseBatch batch =
          compiler::sparse_from_dense(payload, features, defaults);
      payload = compiler::encode_sparse(batch);
      options.encoding = rpc::kEncodingSparse;
      options.sample_count =
          static_cast<std::uint32_t>(batch.sample_count());
    } else {
      options.sample_count = static_cast<std::uint32_t>(data.rows());
    }
  }
  for (const double p :
       client.infer(model, std::move(payload), deadline_us, options)) {
    std::printf("%.12e\n", p);
  }
  return 0;
}

int cmd_infer(const Args& args) {
  if (!args.option("connect", "").empty()) return cmd_infer_remote(args);
  const auto evidence_specs = args.option_all("evidence");
  if (args.positional.empty() ||
      (args.positional.size() < 2 && evidence_specs.empty())) {
    usage();
  }
  const auto query = compiler::parse_query_kind(args.option("query", "joint"));
  const auto artifact = model::ModelArtifact::load_file(
      "model", "1", args.positional[0],
      backend_for(args.option("format", "cfp")), compile_options_for(query));
  // --tuning: the engine composes with the manifest's block size and HBM
  // packing automatically once the artifact carries it; the PE count is
  // applied here, where a deficit still fails placement loudly.
  int pes = 1;
  const std::string tuning_path = args.option("tuning", "");
  if (!tuning_path.empty()) {
    const auto manifest = load_tuning_file(tuning_path);
    artifact->attach_tuning(manifest);
    pes = manifest->config.pe_count;
  }
  const auto engine = engine_for(args.option("engine", "fpga"), artifact, pes);

  if (!evidence_specs.empty()) {
    // Sparse evidence straight from the command line, one sample per
    // --evidence flag; unnamed variables read the model's default byte.
    const compiler::SparseBatch batch =
        evidence_batch(evidence_specs, artifact->input_features());
    const auto stream = compiler::encode_sparse(batch);
    for (const double p : engine->infer_sparse(stream, batch.sample_count())) {
      std::printf("%.12e\n", p);
    }
    return 0;
  }

  const spn::DataMatrix data = spn::load_csv_file(args.positional[1]);
  if (data.cols() != artifact->input_features()) {
    throw Error(strformat("CSV rows have %zu cells, the model expects %zu",
                          data.cols(), artifact->input_features()));
  }
  const auto samples = data.to_bytes();
  if (args.flag("sparse")) {
    const compiler::SparseBatch batch = compiler::sparse_from_dense(
        samples, artifact->input_features(),
        artifact->module().default_evidence());
    const auto stream = compiler::encode_sparse(batch);
    for (const double p : engine->infer_sparse(stream, batch.sample_count())) {
      std::printf("%.12e\n", p);
    }
    return 0;
  }
  for (const double p : engine->infer(samples)) {
    std::printf("%.12e\n", p);
  }
  return 0;
}

/// `spnhbm tune`: search the serving-configuration space for one model
/// with the simulator as cost model; see the file header for the flags.
int cmd_tune(const Args& args) {
  if (args.positional.empty()) usage();
  const auto query = compiler::parse_query_kind(args.option("query", "joint"));
  const auto artifact = model::ModelArtifact::load_file(
      "model", "1", args.positional[0],
      backend_for(args.option("format", "cfp")), compile_options_for(query));

  tune::TuneOptions options;
  options.workload.requests = static_cast<std::size_t>(
      std::atoll(args.option("requests", "48").c_str()));
  options.workload.mean_request_samples = static_cast<std::size_t>(
      std::atoll(args.option("request-samples", "4096").c_str()));
  options.workload.mean_interarrival_us = static_cast<std::uint64_t>(
      std::atoll(args.option("arrival-us", "200").c_str()));
  options.workload.sparse_fraction =
      std::strtod(args.option("sparse-fraction", "0").c_str(), nullptr);
  options.workload.sparse_density =
      std::strtod(args.option("sparse-density", "0.25").c_str(), nullptr);
  options.seed = static_cast<std::uint64_t>(
      std::atoll(args.option("seed", "0").c_str()));
  options.max_evaluations = static_cast<std::size_t>(
      std::atoll(args.option("budget", "48").c_str()));
  options.max_pe_count = std::atoi(args.option("pes", "0").c_str());
  options.platform = args.option("platform", "hbm") == "f1"
                         ? fpga::Platform::kF1
                         : fpga::Platform::kHbmXupVvh;

  const tune::TuneResult result = tune::tune(artifact, options);
  std::fputs(result.search_log.c_str(), stdout);
  std::printf("baseline: %s -> %s\n", result.baseline.describe().c_str(),
              result.baseline_score.describe().c_str());
  std::printf("tuned:    %s -> %s (%+.1f%%)\n", result.best.describe().c_str(),
              result.best_score.describe().c_str(),
              100.0 * (result.best_score.samples_per_second /
                           result.baseline_score.samples_per_second -
                       1.0));

  const std::string log_path = args.option("log", "");
  if (!log_path.empty()) {
    std::ofstream out(log_path);
    if (!out) throw Error("cannot write search log: " + log_path);
    out << result.search_log;
    std::printf("search log written to %s\n", log_path.c_str());
  }
  const std::string out_path = args.option("out", "");
  if (!out_path.empty()) {
    result.manifest(*artifact).save(out_path);
    std::printf("tuning manifest written to %s\n", out_path.c_str());
  }
  return 0;
}

engine::ServerConfig server_config_from_args(const Args& args) {
  engine::ServerConfig config;
  config.batch_samples = static_cast<std::size_t>(
      std::atoll(args.option("batch", "64").c_str()));
  config.max_latency = std::chrono::microseconds(
      std::atoll(args.option("max-latency-us", "500").c_str()));
  config.max_queue_samples = static_cast<std::size_t>(
      std::atoll(args.option("queue-bound", "65536").c_str()));
  const std::string policy = args.option("policy", "rr");
  if (policy != "rr" && policy != "load") {
    throw Error("unknown policy '" + policy + "' (rr|load)");
  }
  config.policy = policy == "load" ? engine::DispatchPolicy::kLeastLoaded
                                   : engine::DispatchPolicy::kRoundRobin;
  config.request_timeout = std::chrono::microseconds(
      std::atoll(args.option("request-timeout", "0").c_str()));
  return config;
}

/// Registers one engine per --engines entry ("name" or "name:prio") for
/// `model`, wrapped in the chaos decorator when a fault plan is armed.
void register_engines_for(engine::InferenceServer& server, const Args& args,
                          const engine::ModelHandle& model, bool chaos) {
  // An explicit --pes always wins; otherwise a model with an attached
  // tuning manifest gets its tuned PE count (composition still
  // deficit-checks it), and an untuned model keeps the old default of 1.
  const std::string pes_text = args.option("pes", "");
  int pes = pes_text.empty() ? 1 : std::atoi(pes_text.c_str());
  if (pes_text.empty()) {
    if (const auto tuning = model->tuning()) pes = tuning->config.pe_count;
  }
  for (const auto& spec : split(args.option("engines", "fpga,cpu"), ',')) {
    std::string name = spec;
    int priority = 0;
    if (const auto colon = spec.find(':'); colon != std::string::npos) {
      name = spec.substr(0, colon);
      priority = std::atoi(spec.c_str() + colon + 1);
    }
    auto engine = engine_for(name, model, pes);
    if (chaos) {
      engine = std::make_unique<engine::ChaosEngine>(std::move(engine));
    }
    server.register_engine(std::move(engine), priority);
  }
}

void print_server_report(const engine::InferenceServer& server,
                         const rpc::RpcServerStats* rpc_stats = nullptr) {
  const engine::ServerStats stats = server.stats();
  std::printf("server: %s\n", stats.describe().c_str());
  // Always printed, even when all counts are zero: these are exactly the
  // numbers an operator grep-checks after a run, and the engine stats
  // line above only mentions them when recovery machinery fired.
  std::printf("admission: %llu rejected, %llu deadline-exceeded, "
              "%llu failed\n",
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.deadline_expirations),
              static_cast<unsigned long long>(stats.failed_requests));
  if (rpc_stats != nullptr) {
    std::printf("rpc: %s\n", rpc_stats->describe().c_str());
  }
  for (std::size_t i = 0; i < server.engine_count(); ++i) {
    std::printf("engine %s [%s]: %s\n",
                server.engine(i).capabilities().name.c_str(),
                engine::to_string(server.engine_health(i)).c_str(),
                server.engine(i).stats().describe().c_str());
  }
}

// --- Remote serving front end ---------------------------------------------

volatile std::sig_atomic_t g_interrupted = 0;
void handle_signal(int) { g_interrupted = 1; }

/// Runs the TCP front end on an already-started InferenceService — a
/// local InferenceServer or a whole FleetRouter — until a client requests
/// shutdown or SIGINT/SIGTERM arrives; returns the final RPC statistics
/// (after the drain, so the conservation law is closed).
rpc::RpcServerStats run_rpc_front_end(engine::InferenceService& server,
                                      const Args& args) {
  rpc::RpcServerConfig config;
  config.port = static_cast<std::uint16_t>(
      std::atoi(args.option("listen", "0").c_str()));
  config.max_connections = static_cast<std::size_t>(
      std::atoll(args.option("max-connections", "64").c_str()));
  config.admission.rate_limit_rps =
      std::strtod(args.option("rate-limit", "0").c_str(), nullptr);
  config.admission.burst =
      std::strtod(args.option("burst", "0").c_str(), nullptr);
  config.admission.max_outstanding_samples = static_cast<std::size_t>(
      std::atoll(args.option("max-inflight-samples", "0").c_str()));
  rpc::RpcServer front(server, config);
  front.start();
  std::fprintf(stderr,
               "rpc: listening on 127.0.0.1:%u (build %s, protocol v%u)\n",
               static_cast<unsigned>(front.port()), kVersionString,
               static_cast<unsigned>(rpc::kProtocolVersion));
  const std::string port_file = args.option("port-file", "");
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    if (!out) throw Error("cannot write port file: " + port_file);
    out << front.port() << "\n";
  }
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  // Poll instead of blocking in wait_for_shutdown_request() so a signal
  // can end the loop too.
  while (g_interrupted == 0 && !front.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::fprintf(stderr, "rpc: %s, draining\n",
               g_interrupted != 0 ? "signal received" : "shutdown requested");
  front.stop();
  return front.stats();
}

/// "--model name=path[@version]": the version suffix is only recognised
/// after the last path separator, so directories with '@' stay intact.
struct ModelSpec {
  std::string name;
  std::string version = "1";
  std::string path;

  static ModelSpec parse(const std::string& spec) {
    const auto eq = spec.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw Error("--model expects name=path[@version], got '" + spec + "'");
    }
    ModelSpec out;
    out.name = spec.substr(0, eq);
    std::string rest = spec.substr(eq + 1);
    const auto slash = rest.find_last_of('/');
    const auto at = rest.rfind('@');
    if (at != std::string::npos &&
        (slash == std::string::npos || at > slash)) {
      out.version = rest.substr(at + 1);
      rest.resize(at);
    }
    out.path = rest;
    return out;
  }
};

/// Every --model spec loaded once per --queries kind (one artifact, hence
/// one serving lane, each), in command-line order, with each
/// "--tuning name=manifest.json" attached to the matching query-kind
/// variant of that model before any engine composes against it.
struct LoadedModels {
  std::vector<engine::ModelHandle> artifacts;
  std::map<std::string, std::vector<engine::ModelHandle>> variants_by_name;
};

LoadedModels load_models(const Args& args,
                         const std::vector<std::string>& model_specs) {
  const auto format = args.option("format", "cfp");
  LoadedModels models;
  for (const auto& raw : model_specs) {
    const ModelSpec spec = ModelSpec::parse(raw);
    for (const auto query : parse_queries(args)) {
      const auto artifact = model::ModelArtifact::load_file(
          spec.name, spec.version, spec.path, backend_for(format),
          compile_options_for(query));
      models.artifacts.push_back(artifact);
      models.variants_by_name[spec.name].push_back(artifact);
    }
  }
  for (const auto& raw : args.option_all("tuning")) {
    const auto eq = raw.find('=');
    if (eq == std::string::npos) {
      throw Error("with --model, --tuning expects name=manifest.json");
    }
    const auto it = models.variants_by_name.find(raw.substr(0, eq));
    if (it == models.variants_by_name.end()) {
      throw Error("--tuning names unknown model '" + raw.substr(0, eq) + "'");
    }
    attach_tuning_to_variants(load_tuning_file(raw.substr(eq + 1)),
                              it->second);
  }
  return models;
}

int cmd_serve_multi(const Args& args,
                    const std::vector<std::string>& model_specs) {
  const TelemetryOutputs telemetry_outputs = TelemetryOutputs::from_args(args);
  const bool chaos = arm_fault_plan(args);
  const auto queries = parse_queries(args);

  // The registry holds the first-listed query kind of each model — the
  // variant local CSV replays address by name.
  const LoadedModels models = load_models(args, model_specs);
  model::ModelRegistry registry;
  engine::InferenceServer server(server_config_from_args(args));
  for (const auto& artifact : models.artifacts) {
    const auto query = artifact->module().query();
    std::fprintf(stderr, "loaded %s (%s)\n", artifact->describe().c_str(),
                 compiler::query_kind_name(query));
    if (query == queries.front()) registry.add(artifact);
    register_engines_for(server, args, artifact, chaos);
  }
  server.start();

  if (!args.option("listen", "").empty()) {
    const rpc::RpcServerStats rpc_stats = run_rpc_front_end(server, args);
    server.stop();
    print_server_report(server, &rpc_stats);
    if (chaos) print_fault_summary();
    telemetry_outputs.write();
    return 0;
  }

  // Replay each --requests name=path CSV against its model's
  // first-listed query lane; rows become independent single-sample
  // requests, so batches of different models interleave through the one
  // server. Under chaos or a request timeout, a fail-fast
  // NoHealthyEngineError is handled the way a real client would: back
  // off and resubmit until a probe readmits an engine; rows that still
  // fail print an "error:" line.
  const bool soft_errors =
      chaos || std::atoll(args.option("request-timeout", "0").c_str()) > 0;
  struct Replay {
    std::string id;
    std::vector<std::future<std::vector<double>>> futures;
  };
  std::vector<Replay> replays;
  for (const auto& raw : args.option_all("requests")) {
    const auto eq = raw.find('=');
    if (eq == std::string::npos) {
      throw Error("with --model, --requests expects name=path");
    }
    const auto artifact = registry.get(raw.substr(0, eq));
    const spn::DataMatrix data = spn::load_csv_file(raw.substr(eq + 1));
    if (data.cols() != artifact->input_features()) {
      throw Error(strformat(
          "CSV rows have %zu cells, model %s expects %zu", data.cols(),
          artifact->id().c_str(), artifact->input_features()));
    }
    Replay replay;
    replay.id = engine::lane_id_for(artifact->id(), queries.front());
    for (auto& row : rows_as_payloads(data)) {
      for (int backoff = 0;; ++backoff) {
        try {
          replay.futures.push_back(server.submit(replay.id, std::move(row)));
          break;
        } catch (const engine::NoHealthyEngineError& e) {
          if (!soft_errors || backoff >= 2000) throw;
          if (backoff == 0) {
            std::fprintf(stderr, "serve: %s (backing off)\n", e.what());
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    }
    replays.push_back(std::move(replay));
  }
  for (auto& replay : replays) {
    std::printf("== model %s (%zu requests)\n", replay.id.c_str(),
                replay.futures.size());
    for (auto& future : replay.futures) {
      try {
        std::printf("%.12e\n", future.get().front());
      } catch (const std::exception& e) {
        if (!soft_errors) throw;
        std::printf("error: %s\n", e.what());
      }
    }
  }
  server.stop();

  print_server_report(server);
  if (chaos) print_fault_summary();
  telemetry_outputs.write();
  return 0;
}

/// `serve --fleet-devices N`: N simulated cards behind one FleetRouter,
/// each --model deployed as --fleet-replicas spatial tenants, the whole
/// fleet exposed over the RPC wire. --rebalance-ms runs the
/// telemetry-driven rebalancer periodically while serving.
int cmd_serve_fleet(const Args& args,
                    const std::vector<std::string>& model_specs,
                    std::size_t devices) {
  const TelemetryOutputs telemetry_outputs = TelemetryOutputs::from_args(args);
  if (args.option("listen", "").empty()) {
    throw Error("--fleet-devices requires --listen (a fleet serves over RPC)");
  }
  const int replicas =
      std::max(1, std::atoi(args.option("fleet-replicas", "1").c_str()));
  const std::string pe_slots_text = args.option("fleet-pe-slots", "");
  const int pe_slots =
      std::max(1, pe_slots_text.empty() ? 1 : std::atoi(pe_slots_text.c_str()));

  fleet::FleetConfig config;
  config.devices = devices;
  config.server = server_config_from_args(args);
  config.default_pe_slots = pe_slots;
  fleet::FleetRouter router(config);
  const LoadedModels models = load_models(args, model_specs);
  for (const auto& artifact : models.artifacts) {
    for (int r = 0; r < replicas; ++r) {
      // An explicit --fleet-pe-slots wins; otherwise deploy() sizes the
      // partition from the model's tuning manifest (deficit-checked by
      // the partition table) or the fleet default.
      const auto location =
          router.deploy(artifact, pe_slots_text.empty() ? 0 : pe_slots);
      std::fprintf(stderr, "deployed %s (%s) -> %s/%s\n",
                   artifact->id().c_str(),
                   compiler::query_kind_name(artifact->module().query()),
                   router.device(location.member).name().c_str(),
                   location.partition.c_str());
    }
  }
  router.start();

  // The rebalancer is control-plane; it may run concurrently with the
  // RPC data plane, but must be joined before stop().
  std::atomic<bool> quit{false};
  std::thread rebalancer;
  const long long rebalance_ms =
      std::atoll(args.option("rebalance-ms", "0").c_str());
  if (rebalance_ms > 0) {
    rebalancer = std::thread([&] {
      fleet::RebalancePolicy policy;
      policy.pe_slots = pe_slots;
      while (!quit.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(rebalance_ms));
        if (quit.load()) break;
        const fleet::RebalanceReport report = router.rebalance(policy);
        if (report.changed()) {
          std::fprintf(stderr, "fleet %s\n", report.describe().c_str());
        }
      }
    });
  }

  const rpc::RpcServerStats rpc_stats = run_rpc_front_end(router, args);
  quit.store(true);
  if (rebalancer.joinable()) rebalancer.join();
  router.stop();

  std::printf("%s", router.describe().c_str());
  std::printf("%s\n", router.stats().describe().c_str());
  std::printf("rpc: %s\n", rpc_stats.describe().c_str());
  for (std::size_t m = 0; m < router.member_count(); ++m) {
    std::printf("member %s: %s\n", router.device(m).name().c_str(),
                router.server(m).stats().describe().c_str());
  }
  telemetry_outputs.write();
  return 0;
}

int cmd_serve(const Args& args) {
  const auto model_specs = args.option_all("model");
  const auto fleet_devices = static_cast<std::size_t>(
      std::atoll(args.option("fleet-devices", "0").c_str()));
  if (fleet_devices > 0) {
    if (model_specs.empty()) {
      throw Error("--fleet-devices requires --model name=path specs");
    }
    return cmd_serve_fleet(args, model_specs, fleet_devices);
  }
  if (!model_specs.empty()) return cmd_serve_multi(args, model_specs);
  // The positional single-model form `serve <model> [--requests csv]
  // [--tuning file]` is `--model model=<model>@1` with its request and
  // tuning files addressed to that model.
  if (args.positional.empty() ||
      (args.option("requests", "").empty() &&
       args.option("listen", "").empty())) {
    usage();
  }
  Args single = args;
  for (auto& [key, value] : single.options) {
    if (key == "requests" || key == "tuning") value = "model=" + value;
  }
  return cmd_serve_multi(single, {"model=" + args.positional[0] + "@1"});
}

/// Loadgen "--model name[:weight]" entries plus "--requests [name=]path"
/// entries -> a weighted ModelTraffic mix. A pathless --requests CSV is
/// the shared fallback payload source for models without their own.
std::vector<rpc::ModelTraffic> parse_traffic_mix(const Args& args) {
  const auto model_specs = args.option_all("model");
  std::map<std::string, std::string> csv_by_model;
  std::string shared_csv;
  for (const auto& raw : args.option_all("requests")) {
    const auto eq = raw.find('=');
    if (eq == std::string::npos) {
      shared_csv = raw;
    } else {
      csv_by_model[raw.substr(0, eq)] = raw.substr(eq + 1);
    }
  }
  std::vector<rpc::ModelTraffic> mix;
  for (const auto& spec : model_specs) {
    rpc::ModelTraffic traffic;
    traffic.model = spec;
    // "name[:weight]" — model refs ("name@version") never contain ':'.
    if (const auto colon = spec.rfind(':'); colon != std::string::npos) {
      traffic.model = spec.substr(0, colon);
      traffic.weight = std::strtod(spec.c_str() + colon + 1, nullptr);
      if (traffic.weight <= 0.0) {
        throw Error("--model " + spec + ": weight must be positive");
      }
    }
    const auto it = csv_by_model.find(traffic.model);
    const std::string path = it != csv_by_model.end() ? it->second
                                                      : shared_csv;
    if (path.empty()) {
      throw Error("no --requests CSV for model '" + traffic.model + "'");
    }
    traffic.payloads = rows_as_payloads(spn::load_csv_file(path));
    mix.push_back(std::move(traffic));
  }
  return mix;
}

int cmd_loadgen(const Args& args) {
  const TelemetryOutputs telemetry_outputs = TelemetryOutputs::from_args(args);
  if (args.option_all("requests").empty()) usage();

  rpc::LoadgenConfig config;
  std::tie(config.host, config.port) =
      parse_host_port(args.option("connect", ""));
  const auto model_specs = args.option_all("model");
  std::size_t default_count = 0;
  if (model_specs.size() > 1 ||
      (model_specs.size() == 1 &&
       model_specs[0].rfind(':') != std::string::npos)) {
    // Mixed-model traffic: every request draws its model from the
    // weighted mix; per-model payloads cycle independently.
    config.traffic = parse_traffic_mix(args);
    for (const auto& traffic : config.traffic) {
      default_count += traffic.payloads.size();
    }
  } else {
    config.model = args.option("model", "");
    config.payloads =
        rows_as_payloads(spn::load_csv_file(args.option("requests", "")));
    default_count = config.payloads.size();
  }
  // --query / --sparse apply to every request of the run: the query kind
  // suffixes every lane ref, and payloads are single CSV rows, so a
  // sparse stream's explicit sample count is always 1.
  const auto query = compiler::parse_query_kind(args.option("query", "joint"));
  if (query != compiler::QueryKind::kJoint) {
    if (config.traffic.empty() && config.model.empty()) {
      throw Error("--query needs --model naming the served model");
    }
    config.model += engine::query_lane_suffix(query);
    for (auto& traffic : config.traffic) {
      traffic.model += engine::query_lane_suffix(query);
    }
  }
  rpc::QueryOptions query_options;
  if (args.flag("sparse")) {
    query_options.encoding = rpc::kEncodingSparse;
    query_options.sample_count = 1;
    const std::uint8_t missing = query == compiler::QueryKind::kJoint
                                     ? std::uint8_t{0}
                                     : compiler::kMissingByte;
    const auto sparsify = [&](std::vector<std::vector<std::uint8_t>>& rows) {
      for (auto& row : rows) {
        const std::vector<std::uint8_t> defaults(row.size(), missing);
        row = compiler::encode_sparse(
            compiler::sparse_from_dense(row, row.size(), defaults));
      }
    };
    sparsify(config.payloads);
    for (auto& traffic : config.traffic) sparsify(traffic.payloads);
  }
  config.query = query_options;
  for (auto& traffic : config.traffic) traffic.query = query_options;
  config.request_count = static_cast<std::size_t>(std::atoll(
      args.option("count", std::to_string(default_count)).c_str()));
  config.rate_rps = std::strtod(args.option("rate", "1000").c_str(), nullptr);
  config.arrival =
      rpc::parse_arrival_process(args.option("arrival", "poisson"));
  config.burst_size = static_cast<std::size_t>(
      std::atoll(args.option("burst", "8").c_str()));
  config.connections = static_cast<std::size_t>(
      std::atoll(args.option("connections", "1").c_str()));
  config.seed = static_cast<std::uint64_t>(
      std::atoll(args.option("seed", "42").c_str()));
  config.deadline_us = static_cast<std::uint64_t>(
      std::atoll(args.option("deadline-us", "0").c_str()));
  config.shutdown_server_after = args.flag("shutdown");
  config.max_attempts = std::atoi(args.option("max-attempts", "1").c_str());
  config.retry_budget_us =
      std::strtod(args.option("retry-budget-us", "0").c_str(), nullptr);
  // 1-in-N head sampling for the trace contexts minted by the clients
  // (effective only with --trace-out; otherwise no context is minted).
  telemetry::head_sampler().set_period(static_cast<std::uint64_t>(
      std::atoll(args.option("trace-sample", "1").c_str())));
  const double max_failure_rate =
      std::strtod(args.option("max-failure-rate", "1.0").c_str(), nullptr);

  const rpc::LoadgenReport report = rpc::run_loadgen(config);
  std::printf("%s", report.describe().c_str());
  const std::string report_path = args.option("report-out", "");
  if (!report_path.empty()) {
    std::ofstream out(report_path);
    if (!out) throw Error("cannot open report output file: " + report_path);
    out << report.bench_json() << "\n";
    std::fprintf(stderr, "loadgen report written to %s\n",
                 report_path.c_str());
  }
  telemetry_outputs.write();
  if (!report.conserved()) return 1;
  // A run whose failed fraction exceeds the gate is a failed run, even
  // though its books balance: a fully-failing loadgen must not exit 0
  // once the caller set a threshold.
  if (report.failure_fraction() > max_failure_rate) {
    std::fprintf(stderr,
                 "loadgen: failure fraction %.3f exceeds --max-failure-rate "
                 "%.3f\n",
                 report.failure_fraction(), max_failure_rate);
    return 1;
  }
  return 0;
}

/// `spnhbm soak`: the self-contained chaos soak harness; see the usage
/// block at the top of this file.
int cmd_soak(const Args& args) {
  const TelemetryOutputs telemetry_outputs = TelemetryOutputs::from_args(args);
  const auto model_specs = args.option_all("model");
  if (model_specs.empty()) {
    throw Error("soak requires at least one --model name=path spec");
  }
  const bool chaos = arm_fault_plan(args);
  if (chaos && args.flag("disarm")) {
    // Plan parsed and reported, but the injector stays cold: this run
    // must be byte-identical (stdout) to one with no plan at all.
    fault::injector().disarm();
    std::fprintf(stderr, "fault plan disarmed (--disarm)\n");
  }

  // --requests name=csv per model, with a pathless --requests CSV as the
  // shared fallback (same convention as loadgen's traffic mix).
  std::map<std::string, std::string> csv_by_model;
  std::string shared_csv;
  for (const auto& raw : args.option_all("requests")) {
    const auto eq = raw.find('=');
    if (eq == std::string::npos) {
      shared_csv = raw;
    } else {
      csv_by_model[raw.substr(0, eq)] = raw.substr(eq + 1);
    }
  }

  soak::SoakConfig config;
  config.seed = static_cast<std::uint64_t>(
      std::atoll(args.option("seed", "42").c_str()));
  config.minutes = std::strtod(args.option("minutes", "2").c_str(), nullptr);
  config.devices = static_cast<std::size_t>(
      std::atoll(args.option("devices", "2").c_str()));
  config.replicas = static_cast<std::size_t>(
      std::atoll(args.option("replicas", "2").c_str()));
  config.clients = static_cast<std::size_t>(
      std::atoll(args.option("clients", "2").c_str()));
  config.wave_requests = static_cast<std::size_t>(
      std::atoll(args.option("wave-requests", "8").c_str()));
  config.swaps_per_wave = static_cast<std::size_t>(
      std::atoll(args.option("swaps-per-wave", "4").c_str()));
  config.rebalance_every = static_cast<std::size_t>(
      std::atoll(args.option("rebalance-every", "3").c_str()));
  config.convergence_wall_seconds = std::strtod(
      args.option("convergence-seconds", "30").c_str(), nullptr);

  const auto format = args.option("format", "cfp");
  for (const auto& raw : model_specs) {
    const ModelSpec spec = ModelSpec::parse(raw);
    soak::SoakModel entry;
    entry.model = model::ModelArtifact::load_file(
        spec.name, spec.version, spec.path, backend_for(format));
    const auto it = csv_by_model.find(spec.name);
    const std::string csv =
        it != csv_by_model.end() ? it->second : shared_csv;
    if (csv.empty()) {
      throw Error("no --requests CSV for soak model '" + spec.name + "'");
    }
    entry.payloads = rows_as_payloads(spn::load_csv_file(csv));
    std::fprintf(stderr, "loaded %s (%zu payloads)\n",
                 entry.model->describe().c_str(), entry.payloads.size());
    config.models.push_back(std::move(entry));
  }

  const soak::SoakReport report = soak::run_soak(config);
  std::printf("%s", report.describe().c_str());
  std::fprintf(stderr, "%s", report.detail().c_str());
  if (chaos) {
    std::fprintf(stderr, "faults injected: %llu\n",
                 static_cast<unsigned long long>(
                     fault::injector().injected()));
  }
  const std::string report_path = args.option("report-out", "");
  if (!report_path.empty()) {
    std::ofstream out(report_path);
    if (!out) throw Error("cannot open report output file: " + report_path);
    out << report.bench_json() << "\n";
    std::fprintf(stderr, "soak report written to %s\n", report_path.c_str());
  }
  telemetry_outputs.write();
  return report.passed() ? 0 : 1;
}

/// One ADMIN round-trip on an established connection.
rpc::AdminReplyFrame fetch_admin(rpc::Socket& socket) {
  const std::vector<std::uint8_t> wire =
      rpc::encode_frame(rpc::encode_admin());
  socket.send_all(wire.data(), wire.size());
  std::uint8_t header[rpc::kFrameHeaderBytes];
  if (!socket.recv_exact(header, sizeof(header))) {
    throw Error("server closed the admin connection");
  }
  rpc::FrameType type;
  const std::uint32_t body_length = rpc::decode_frame_header(header, type);
  std::vector<std::uint8_t> body(body_length);
  if (body_length > 0 && !socket.recv_exact(body.data(), body_length)) {
    throw Error("server closed mid-frame");
  }
  if (type != rpc::FrameType::kAdminReply) {
    throw Error("expected an admin reply, got frame type " +
                std::to_string(static_cast<unsigned>(type)));
  }
  return rpc::decode_admin_reply(body);
}

/// Prometheus exposition -> {metric name, value}; bucket lines (labels)
/// and comments are skipped.
std::map<std::string, double> parse_exposition(const std::string& text) {
  std::map<std::string, double> values;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.find('{') != std::string::npos) continue;
    const auto space = line.find(' ');
    if (space == std::string::npos) continue;
    values[line.substr(0, space)] =
        std::strtod(line.c_str() + space + 1, nullptr);
  }
  return values;
}

int cmd_top(const Args& args) {
  const auto [host, port] = parse_host_port(args.option("connect", ""));
  const std::size_t polls =
      args.flag("once") ? 1
                        : static_cast<std::size_t>(std::atoll(
                              args.option("count", "0").c_str()));
  const auto interval = std::chrono::milliseconds(
      std::atoll(args.option("interval-ms", "1000").c_str()));

  rpc::Socket socket = rpc::Socket::connect(host, port);
  rpc::receive_hello(socket);  // consumes and version-checks the HELLO

  std::map<std::string, double> previous;
  auto previous_time = std::chrono::steady_clock::now();
  for (std::size_t poll = 0; polls == 0 || poll < polls; ++poll) {
    if (poll > 0) std::this_thread::sleep_for(interval);
    const rpc::AdminReplyFrame reply = fetch_admin(socket);
    const auto now = std::chrono::steady_clock::now();
    const std::map<std::string, double> values =
        parse_exposition(reply.metrics_text);
    const auto metric = [&](const std::string& name) {
      const auto it = values.find(name);
      return it == values.end() ? 0.0 : it->second;
    };
    const auto delta = [&](const std::string& name) {
      const auto it = previous.find(name);
      return it == previous.end() ? metric(name) : metric(name) - it->second;
    };
    const double dt =
        std::chrono::duration<double>(now - previous_time).count();

    std::printf("spnhbm top — %s:%u (server %s, wire v%u)  poll %zu\n",
                host.c_str(), static_cast<unsigned>(port),
                reply.build_version.c_str(),
                static_cast<unsigned>(reply.protocol_version), poll + 1);
    std::printf(
        "requests  received=%.0f accepted=%.0f completed=%.0f failed=%.0f "
        "rejected=%.0f\n",
        metric("spnhbm_rpc_requests"), metric("spnhbm_rpc_accepted"),
        metric("spnhbm_rpc_completed"), metric("spnhbm_rpc_failed"),
        metric("spnhbm_rpc_rejected"));
    if (poll > 0 && dt > 0.0) {
      const double completed = delta("spnhbm_rpc_completed");
      const double latency_count =
          delta("spnhbm_rpc_request_latency_us_count");
      const double latency_sum = delta("spnhbm_rpc_request_latency_us_sum");
      std::printf("interval  %.1f req/s completed, mean latency %.1f us "
                  "(over %.1fs)\n",
                  completed / dt,
                  latency_count > 0.0 ? latency_sum / latency_count : 0.0,
                  dt);
    }
    const auto print_section = [](const char* title,
                                  const std::string& text) {
      if (text.empty()) return;
      std::printf("%s\n", title);
      std::istringstream lines(text);
      std::string line;
      while (std::getline(lines, line)) {
        std::printf("  %s\n", line.c_str());
      }
    };
    print_section("engines", reply.health_text);
    print_section("replicas", reply.replicas_text);
    print_section("slowest traced requests", reply.tail_text);
    std::printf("\n");
    std::fflush(stdout);
    previous = values;
    previous_time = now;
  }
  return 0;
}

int cmd_version() {
  std::printf("spnhbm %s (wire protocol v%u)\n", kVersionString,
              static_cast<unsigned>(rpc::kProtocolVersion));
  return 0;
}

int cmd_learn(const Args& args) {
  if (args.positional.empty()) usage();
  const spn::DataMatrix data = spn::load_csv_file(args.positional[0]);
  spn::LearnOptions options;
  options.min_instances = static_cast<std::size_t>(
      std::atoll(args.option("min-instances", "64").c_str()));
  options.independence_threshold =
      std::strtod(args.option("threshold", "0.15").c_str(), nullptr);
  const spn::Spn learned = spn::learn_spn(data, options);
  std::printf("%s\n", spn::to_text(learned, /*indent=*/true).c_str());
  return 0;
}

int cmd_sample(const Args& args) {
  if (args.positional.empty()) usage();
  const spn::Spn model = spn::parse_spn(read_file(args.positional[0]));
  Rng rng(static_cast<std::uint64_t>(
      std::atoll(args.option("seed", "1").c_str())));
  const auto count = static_cast<std::size_t>(
      std::atoll(args.option("count", "10").c_str()));
  for (const auto& sample : spn::sample_batch(model, rng, count)) {
    for (std::size_t v = 0; v < sample.size(); ++v) {
      std::printf("%s%.6g", v == 0 ? "" : ",", sample[v]);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  const Args args = Args::parse(argc, argv, 2);
  try {
    if (command == "compile") return cmd_compile(args);
    if (command == "resources") return cmd_resources(args);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "infer") return cmd_infer(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "tune") return cmd_tune(args);
    if (command == "loadgen") return cmd_loadgen(args);
    if (command == "soak") return cmd_soak(args);
    if (command == "top") return cmd_top(args);
    if (command == "version" || command == "--version") return cmd_version();
    if (command == "learn") return cmd_learn(args);
    if (command == "sample") return cmd_sample(args);
    usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spnhbm %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
