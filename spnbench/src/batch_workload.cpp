// batch-dense / batch-sparse: offline NIPS80 marginal inference.
//
// A pass is a fixed trace of requests, all due at the start of the pass.
// The requests are queued on a fresh InferenceServer until its queue
// bound refuses one, then the server starts, drains and stops; the refused
// request opens the next wave. Queuing before start() makes batch
// formation, and so every virtual-clock number, a function of the seed
// alone. Passes repeat until the run's time is up; virtual-clock metrics
// come from the first pass, host metrics from all of them.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <future>
#include <optional>
#include <unordered_map>

#include "checks.hpp"
#include "layer_metrics.hpp"
#include "layers.hpp"
#include "schedule.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"
#include "spnhbm/arith/backend.hpp"
#include "spnhbm/compiler/sparse_evidence.hpp"
#include "spnhbm/engine/cpu_engine.hpp"
#include "spnhbm/engine/fpga_engine.hpp"
#include "spnhbm/engine/server.hpp"
#include "spnhbm/model/artifact.hpp"
#include "spnhbm/util/strings.hpp"
#include "spnhbm/workload/bag_of_words.hpp"
#include "spnhbm/workload/model_zoo.hpp"

namespace spnbench {
namespace {

using namespace spnhbm;

constexpr std::size_t kVariables = 80;
constexpr std::size_t kObservedWords = 8;
constexpr std::size_t kDocuments = 4096;
constexpr std::size_t kPassRequests = 24;
constexpr std::size_t kMeanRequestSamples = 8192;
constexpr int kPeCount = 8;
/// Same probe size as the Fig. 6 bench.
constexpr std::uint64_t kRooflineSamples = 1'500'000;
constexpr int kSetupRepeats = 61;
/// Dense rows timed directly through DatapathModule::evaluate.
constexpr std::size_t kEvaluatorSamples = 2048;

struct Request {
  std::size_t samples = 0;
  std::vector<std::uint8_t> dense;
  std::vector<std::uint8_t> sparse;
  /// float64 evaluation of the same datapath (CpuEngine), the reference.
  std::vector<double> reference;
};

struct Inputs {
  std::vector<Request> requests;
  std::size_t pass_samples = 0;
  compiler::SparseBatch queries;
  std::vector<std::uint8_t> dense_rows;
};

/// Seeded documents, each observing its top words; requests take
/// consecutive documents (wrapping) in trace order.
Inputs make_inputs(std::uint64_t seed, const compiler::DatapathModule& module) {
  workload::CorpusConfig corpus;
  corpus.documents = kDocuments;
  corpus.vocabulary = kVariables;
  corpus.document_length = 2.0 * static_cast<double>(kVariables);
  corpus.seed = derive_seed(seed, 1);
  Inputs in;
  in.queries = workload::sparse_queries(workload::make_bag_of_words(corpus),
                                        kObservedWords);
  in.dense_rows = in.queries.densify(module.default_evidence());

  std::size_t cursor =
      static_cast<std::size_t>(derive_seed(seed, 2) % kDocuments);
  for (const std::size_t size :
       batch_request_sizes(derive_seed(seed, 3), kPassRequests,
                           kMeanRequestSamples)) {
    Request request;
    request.samples = size;
    compiler::SparseBatch part;
    part.features = kVariables;
    request.dense.reserve(size * kVariables);
    for (std::size_t i = 0; i < size; ++i) {
      const std::size_t doc = (cursor + i) % kDocuments;
      const auto begin = in.queries.offsets[doc];
      const auto end = in.queries.offsets[doc + 1];
      part.add_sample(
          std::span(in.queries.indices).subspan(begin, end - begin),
          std::span(in.queries.values).subspan(begin, end - begin));
      const auto row = std::span(in.dense_rows).subspan(doc * kVariables,
                                                        kVariables);
      request.dense.insert(request.dense.end(), row.begin(), row.end());
    }
    request.sparse = compiler::encode_sparse(part);
    cursor = (cursor + size) % kDocuments;
    in.pass_samples += size;
    in.requests.push_back(std::move(request));
  }
  return in;
}

struct Stack {
  model::ModelHandle model;
  std::shared_ptr<engine::FpgaSimEngine> engine;
};

engine::FpgaEngineConfig card_config(bool functional) {
  engine::FpgaEngineConfig config;
  config.pe_count = kPeCount;
  config.compute_results = functional;
  return config;
}

model::ModelHandle compile_model(const spn::Spn& spn) {
  compiler::CompileOptions options;
  options.query = compiler::QueryKind::kMarginal;
  options.input_domain = compiler::kMissingByte;
  return model::ModelArtifact::compile(
      "nips80", "1", spn, arith::make_cfp_backend(arith::paper_cfp_format()),
      options);
}

/// What one measured phase (a run of passes) saw.
struct Phase {
  double wall_s = 0.0;
  /// Wall time of each pass, in order.
  std::vector<double> pass_wall_s;
  std::size_t passes = 0;
  std::size_t samples = 0;
  std::size_t requests = 0;
  /// Per request: latency from the start of its pass, and its samples.
  std::vector<double> latency_us;
  std::vector<double> latency_samples;
  // First pass only: the virtual-clock record.
  double first_pass_virtual_s = 0.0;
  std::size_t first_pass_samples = 0;
  std::uint64_t first_pass_batches = 0;
  CardCounters first_pass_card;
  std::uint64_t first_pass_digest = 0;
  // Output checks over every pass.
  std::uint64_t checked = 0;
  std::uint64_t wrong = 0;
  Books books;
  std::vector<std::string> errors;
  std::vector<engine::ServerStats> server_stats;
  // Traced phases only.
  std::vector<BatchRecord> engine_batches;
  std::vector<Span> spans;
};

Phase run_phase(const Stack& stack, const Inputs& inputs, bool sparse,
                double seconds, double tolerance, SpanRecorder* spans) {
  Phase phase;
  phase.first_pass_digest = digest({});
  const std::string lane = engine::lane_id_for(stack.model->id(),
                                               compiler::QueryKind::kMarginal);
  std::shared_ptr<TimedEngine> timed;
  if (spans != nullptr) {
    timed = std::make_shared<TimedEngine>(stack.engine, *spans);
  }
  std::unordered_map<std::uint64_t, SpanLink> links;
  std::uint64_t next_request_id = 1;

  const std::size_t n = inputs.requests.size();
  // Passes repeat while another one of the median length still fits in
  // `seconds`.
  const std::int64_t phase_start = now_ns();
  while (phase.passes == 0 ||
         static_cast<double>(now_ns() - phase_start) / 1e9 +
                 median(phase.pass_wall_s) <=
             seconds) {
    const bool first_pass = phase.passes == 0;
    const double busy_before = stack.engine->stats().busy_seconds;
    const std::uint64_t batches_before = stack.engine->stats().batches;
    const CardCounters card_before = CardCounters::read();

    std::vector<std::vector<double>> results(n);
    std::vector<std::int64_t> done_ns(n, 0);
    std::vector<bool> ok(n, false);
    std::vector<std::uint64_t> client_span(n, 0);
    const std::int64_t pass_start = now_ns();
    std::size_t next = 0;
    while (next < n) {
      engine::InferenceServer server{engine::ServerConfig{}};
      if (timed) {
        server.register_engine(timed);
      } else {
        server.register_engine(stack.engine);
      }
      std::optional<TracedService> traced;
      if (spans != nullptr) traced.emplace(server, *spans);
      engine::InferenceService& service =
          traced ? static_cast<engine::InferenceService&>(*traced) : server;

      const std::size_t wave_first = next;
      std::vector<std::future<std::vector<double>>> futures;
      while (next < n) {
        const Request& request = inputs.requests[next];
        auto future =
            sparse ? service.try_submit_sparse(lane, request.sparse,
                                               request.samples)
                   : service.try_submit(lane, request.dense);
        if (!future.has_value()) break;
        futures.push_back(std::move(*future));
        if (spans != nullptr) client_span[next] = spans->next_id();
        ++next;
      }
      if (next == wave_first) {
        phase.errors.push_back("a request larger than the queue bound");
        break;
      }
      server.start();
      for (std::size_t k = wave_first; k < next; ++k) {
        try {
          results[k] = futures[k - wave_first].get();
          ok[k] = true;
        } catch (const std::exception& e) {
          phase.errors.push_back(e.what());
        }
        done_ns[k] = now_ns();
      }
      server.stop();
      phase.server_stats.push_back(server.stats());
      if (traced) {
        for (const auto& s : traced->submissions()) {
          const std::size_t k = wave_first + s.sequence;
          links[s.span] = {client_span[k], next_request_id + k};
        }
      }
    }
    const std::int64_t pass_end = now_ns();
    if (next < n) break;  // a wave could not be formed; reported above

    phase.pass_wall_s.push_back(static_cast<double>(pass_end - pass_start) / 1e9);
    phase.wall_s += phase.pass_wall_s.back();
    phase.samples += inputs.pass_samples;
    phase.requests += n;
    if (first_pass) {
      const auto after = stack.engine->stats();
      phase.first_pass_virtual_s = after.busy_seconds - busy_before;
      phase.first_pass_batches = after.batches - batches_before;
      phase.first_pass_samples = inputs.pass_samples;
      phase.first_pass_card = CardCounters::read() - card_before;
    }
    // Checks run outside the timed window.
    for (std::size_t k = 0; k < n; ++k) {
      const Request& request = inputs.requests[k];
      ++phase.books.sent;
      phase.checked += request.samples;
      if (!ok[k]) {
        ++phase.books.failed;
        phase.wrong += request.samples;
        continue;
      }
      const std::size_t bad =
          count_out_of_tolerance(results[k], request.reference, tolerance);
      phase.wrong += bad;
      if (bad > 0) {
        ++phase.books.failed;
      } else {
        ++phase.books.ok;
      }
      phase.latency_us.push_back(
          static_cast<double>(done_ns[k] - pass_start) / 1e3);
      phase.latency_samples.push_back(static_cast<double>(request.samples));
      if (first_pass) {
        phase.first_pass_digest = digest(results[k], phase.first_pass_digest);
      }
      if (spans != nullptr) {
        spans->record({client_span[k], 0, next_request_id + k,
                       "client.request", pass_start, done_ns[k]});
      }
    }
    next_request_id += n;
    ++phase.passes;
  }
  if (spans != nullptr) {
    phase.engine_batches = timed->batches();
    phase.spans = spans->spans();
    apply_links(phase.spans, links);
  }
  return phase;
}

/// Writes this run's first-pass digest and compares it with the other
/// encoding's digest for the same seed, when that run has happened.
void cross_check_digest(const Options& options, bool sparse,
                        std::uint64_t value, RunReport& report) {
  const std::string hex = strformat("%016llx",
                                    static_cast<unsigned long long>(value));
  report.notes.push_back("result digest (first pass) " + hex);
  if (options.digest_dir.empty()) return;
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(options.digest_dir, ec);
  const auto path_for = [&](const char* workload) {
    return fs::path(options.digest_dir) /
           strformat("seed%llu-%s", static_cast<unsigned long long>(options.seed),
                     workload);
  };
  std::ofstream(path_for(sparse ? "batch-sparse" : "batch-dense")) << hex << "\n";
  std::ifstream other(path_for(sparse ? "batch-dense" : "batch-sparse"));
  std::string other_hex;
  if (other >> other_hex) {
    if (other_hex != hex) {
      report.fail_check("dense and sparse result digests differ for seed " +
                        std::to_string(options.seed) + ": " + hex + " vs " +
                        other_hex);
    } else {
      report.notes.push_back("digest equals the other encoding's");
    }
  }
}

void add_end_to_end(RunReport& report, const Phase& phase, double setup_s,
                    double roofline) {
  const double sim_rate =
      static_cast<double>(phase.first_pass_samples) / phase.first_pass_virtual_s;
  // Host rates from the median pass: a stall of the shared host slows one
  // pass, not the result.
  const double pass_s = median(phase.pass_wall_s);
  const double achieved =
      static_cast<double>(phase.requests / phase.passes) / pass_s;
  report.add("setup_s", setup_s, "s", Clock::kHost);
  report.add("peak_rss_mb", peak_rss_mb(), "MiB", Clock::kHost);
  report.add("host_samples_per_s",
             static_cast<double>(phase.samples / phase.passes) / pass_s, "1/s",
             Clock::kHost);
  report.add("sim_samples_per_s", sim_rate, "1/s", Clock::kVirtual);
  report.add("sim_roofline_fraction", sim_rate / roofline, "fraction",
             Clock::kVirtual);
  report.add("achieved_rps", achieved, "1/s", Clock::kHost);
  // An offline trace offers all of its load at once, so the highest rate
  // it sustains is the rate it achieved.
  report.add("max_rate_rps", achieved, "1/s", Clock::kHost);
}

}  // namespace

RunReport run_batch(const Options& options, bool sparse) {
  RunReport report;
  // Inputs: the learned NIPS80 structure and seeded documents. Learning
  // the SPN is not part of serving, so it is not in setup_s.
  const workload::NipsModel nips = workload::make_nips_model(kVariables);

  // Set-up: compile, compose the card, start the server. Repeated and
  // reported as the median.
  std::vector<double> setup_times;
  Stack stack;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    const std::int64_t start = now_ns();
    Stack candidate;
    candidate.model = compile_model(nips.spn);
    candidate.engine = std::make_shared<engine::FpgaSimEngine>(
        candidate.model, card_config(true));
    engine::InferenceServer server{engine::ServerConfig{}};
    server.register_engine(candidate.engine);
    server.start();
    server.stop();
    setup_times.push_back(static_cast<double>(now_ns() - start) / 1e9);
    stack = std::move(candidate);
  }
  const double setup_s = median(setup_times);

  Inputs inputs = make_inputs(options.seed, stack.model->module());
  // Reference and CPU ceiling: the float64 evaluation of the same datapath.
  engine::CpuEngine cpu(stack.model);
  (void)cpu.infer(inputs.requests.front().dense);  // spin the pool up first
  const std::int64_t cpu_start = now_ns();
  for (Request& request : inputs.requests) {
    request.reference = cpu.infer(request.dense);
  }
  const double cpu_rate = static_cast<double>(inputs.pass_samples) /
                          (static_cast<double>(now_ns() - cpu_start) / 1e9);
  const double tolerance =
      cfp_relative_tolerance(stack.model->module(),
                             arith::paper_cfp_format().mantissa_bits);
  // Fig. 6 roofline of the same composition (timing-only card).
  const double roofline =
      engine::FpgaSimEngine(stack.model, card_config(false))
          .measure_throughput(kRooflineSamples);

  const auto check = [&](const Phase& phase) {
    report.attempted += phase.checked;
    report.failed += phase.wrong;
    for (const auto& error : phase.errors) report.fail_check(error);
    if (phase.wrong > 0) {
      report.fail_check(strformat(
          "%llu results zero, non-finite or outside the CFP tolerance %.3g",
          static_cast<unsigned long long>(phase.wrong), tolerance));
    }
    if (!phase.books.balanced()) report.fail_check("request books unbalanced");
  };

  if (!options.trace) {
    const Phase phase =
        run_phase(stack, inputs, sparse, options.seconds, tolerance, nullptr);
    check(phase);
    cross_check_digest(options, sparse, phase.first_pass_digest, report);
    add_end_to_end(report, phase, setup_s, roofline);
    report.notes.push_back(strformat(
        "%zu passes, %zu requests, %zu samples; %llu first-pass batches",
        phase.passes, phase.requests, phase.samples,
        static_cast<unsigned long long>(phase.first_pass_batches)));
    std::string walls;
    for (const double w : phase.pass_wall_s) walls += strformat(" %.3f", w);
    report.notes.push_back("pass wall s:" + walls);
    return report;
  }

  // Traced run: an untraced half as the reference for the tracing
  // overhead, then a traced half on a fresh card.
  const Phase plain = run_phase(stack, inputs, sparse, options.seconds / 2,
                                tolerance, nullptr);
  check(plain);
  SpanRecorder spans;
  Stack traced_stack{stack.model, std::make_shared<engine::FpgaSimEngine>(
                                      stack.model, card_config(true))};
  const Phase phase = run_phase(traced_stack, inputs, sparse,
                                options.seconds / 2, tolerance, &spans);
  check(phase);
  if (!options.spans_out.empty() && !write_jsonl(options.spans_out, phase.spans)) {
    report.notes.push_back("could not write spans to " + options.spans_out);
  }

  const double plain_us_per_sample =
      plain.wall_s / static_cast<double>(plain.samples);
  const double traced_us_per_sample =
      phase.wall_s / static_cast<double>(phase.samples);
  const auto& module = stack.model->module();
  const auto& defaults = module.default_evidence();
  const double eval_ns = time_per_call_ns(
      std::min(kEvaluatorSamples, inputs.queries.sample_count()),
      [&](std::size_t i) {
        if (sparse) {
          (void)module.evaluate(stack.model->backend(),
                                inputs.queries.view(i, defaults));
        } else {
          (void)module.evaluate(stack.model->backend(),
                                std::span(inputs.dense_rows)
                                    .subspan(i * kVariables, kVariables));
        }
      });

  LayerMetrics m;
  m.evaluate_ns_per_sample = eval_ns;
  m.evaluate_ns_per_op = eval_ns / static_cast<double>(module.ops().size());
  fill_engine(m, phase.engine_batches, phase.wall_s);
  fill_card(m, phase.first_pass_card, phase.first_pass_samples,
            phase.first_pass_batches, phase.first_pass_virtual_s);
  m.server = summarize(phase.server_stats);
  m.fig6_sim_samples_per_s = roofline;
  m.cpu_engine_samples_per_s = cpu_rate;
  m.tracing_overhead_fraction = traced_us_per_sample / plain_us_per_sample - 1.0;
  // Per sample: the time from the start of a pass until p% of its samples
  // had their result.
  m.client_latency_p50_us =
      weighted_percentile(plain.latency_us, plain.latency_samples, 50.0);
  m.client_latency_p99_us =
      weighted_percentile(plain.latency_us, plain.latency_samples, 99.0);
  m.layers = layer_times(phase.spans);
  m.spans = phase.spans.size();
  add_layer_metrics(report, m);
  return report;
}

}  // namespace spnbench
