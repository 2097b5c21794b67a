#include "layer_metrics.hpp"

#include <vector>

#include "stats.hpp"

namespace spnbench {

ServerSummary summarize(std::span<const spnhbm::engine::ServerStats> stats) {
  ServerSummary out;
  std::vector<spnhbm::telemetry::HistogramSnapshot> waits;
  double batches = 0.0;
  double samples = 0.0;
  double flushes = 0.0;
  for (const auto& s : stats) {
    waits.push_back(s.queue_wait_us);
    batches += static_cast<double>(s.batches);
    samples += static_cast<double>(s.samples);
    flushes += static_cast<double>(s.deadline_flushes);
    out.rejected += static_cast<double>(s.rejected);
  }
  const auto wait = merge(waits);
  out.queue_wait_p50_us = wait.p50();
  out.queue_wait_p99_us = wait.p99();
  if (batches > 0.0) {
    out.mean_batch_samples = samples / batches;
    out.deadline_flush_fraction = flushes / batches;
  }
  return out;
}

double time_per_call_ns(std::size_t count,
                        const std::function<void(std::size_t)>& call) {
  std::vector<double> per_round;
  for (int round = 0; round < 3; ++round) {
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < count; ++i) call(i);
    per_round.push_back(static_cast<double>(now_ns() - start) /
                        static_cast<double>(count));
  }
  return median(per_round);
}

void fill_engine(LayerMetrics& m, std::span<const BatchRecord> batches,
                 double wall_s) {
  if (batches.empty()) return;
  std::vector<double> host_us;
  double busy_us = 0.0;
  double samples = 0.0;
  for (const auto& b : batches) {
    host_us.push_back(b.host_us);
    busy_us += b.host_us;
    samples += static_cast<double>(b.samples);
  }
  m.engine_batches = static_cast<double>(batches.size());
  m.samples_per_batch = samples / m.engine_batches;
  m.host_us_per_batch_p50 = percentile(host_us, 50.0);
  m.host_us_per_batch_p99 = percentile(host_us, 99.0);
  m.host_us_per_batch_growth = growth_last_over_first_tenth(host_us);
  m.host_busy_fraction = busy_us / 1e6 / wall_s;
}

void fill_card(LayerMetrics& m, const CardCounters& card, std::size_t samples,
               std::uint64_t batches, double virtual_s) {
  if (samples == 0 || batches == 0) return;
  const double n = static_cast<double>(samples);
  const double b = static_cast<double>(batches);
  m.sim_us_per_batch = virtual_s * 1e6 / b;
  m.pcie_h2d_bytes_per_sample = static_cast<double>(card.pcie_h2d_bytes) / n;
  m.pcie_d2h_bytes_per_sample = static_cast<double>(card.pcie_d2h_bytes) / n;
  m.pcie_transfers_per_batch = static_cast<double>(card.pcie_transfers) / b;
  m.hbm_bytes_per_sample = static_cast<double>(card.hbm_bytes) / n;
  const double rows =
      static_cast<double>(card.hbm_row_hits + card.hbm_row_misses);
  m.hbm_row_hit_ratio =
      rows > 0.0 ? static_cast<double>(card.hbm_row_hits) / rows : 0.0;
  m.accelerator_jobs_per_batch = static_cast<double>(card.accelerator_jobs) / b;
}

void add_layer_metrics(RunReport& report, const LayerMetrics& m) {
  const auto host = [&](const char* name, double value, const char* unit) {
    report.add(name, value, unit, Clock::kHost);
  };
  const auto card = [&](const char* name, double value, const char* unit) {
    report.add(name, value, unit, Clock::kVirtual);
  };
  const auto count = [&](const char* name, double value, const char* unit) {
    report.add(name, value, unit, Clock::kCount);
  };
  host("compiler.evaluate_ns_per_sample", m.evaluate_ns_per_sample, "ns");
  host("compiler.evaluate_ns_per_op", m.evaluate_ns_per_op, "ns");
  count("engine.batches", m.engine_batches, "count");
  count("engine.samples_per_batch", m.samples_per_batch, "samples");
  host("engine.host_us_per_batch.p50", m.host_us_per_batch_p50, "us");
  host("engine.host_us_per_batch.p99", m.host_us_per_batch_p99, "us");
  host("engine.host_us_per_batch_growth", m.host_us_per_batch_growth, "ratio");
  host("engine.host_busy_fraction", m.host_busy_fraction, "fraction");
  card("engine.sim_us_per_batch", m.sim_us_per_batch, "us");
  card("pcie.h2d_bytes_per_sample", m.pcie_h2d_bytes_per_sample, "B");
  card("pcie.d2h_bytes_per_sample", m.pcie_d2h_bytes_per_sample, "B");
  card("pcie.transfers_per_batch", m.pcie_transfers_per_batch, "count");
  card("hbm.bytes_per_sample", m.hbm_bytes_per_sample, "B");
  card("hbm.row_hit_ratio", m.hbm_row_hit_ratio, "ratio");
  card("accelerator.jobs_per_batch", m.accelerator_jobs_per_batch, "count");
  host("server.queue_wait_us.p50", m.server.queue_wait_p50_us, "us");
  host("server.queue_wait_us.p99", m.server.queue_wait_p99_us, "us");
  count("server.mean_batch_samples", m.server.mean_batch_samples, "samples");
  count("server.deadline_flush_fraction", m.server.deadline_flush_fraction,
        "fraction");
  count("server.rejected", m.server.rejected, "count");
  host("client.latency_us.p50", m.client_latency_p50_us, "us");
  host("client.latency_us.p99", m.client_latency_p99_us, "us");
  host("rpc.server_latency_us.p50", m.rpc_server_latency_p50_us, "us");
  host("rpc.server_latency_us.p99", m.rpc_server_latency_p99_us, "us");
  host("rpc.wire_us", m.rpc_wire_us, "us");
  count("rpc.shed", m.rpc_shed, "count");
  count("rpc.duplicates", m.rpc_duplicates, "count");
  host("gen.lateness_us.p99", m.gen_lateness_p99_us, "us");
  card("ceiling.fig6_sim_samples_per_s", m.fig6_sim_samples_per_s, "1/s");
  host("ceiling.cpu_engine_samples_per_s", m.cpu_engine_samples_per_s, "1/s");
  host("trace.overhead_fraction", m.tracing_overhead_fraction, "fraction");
  count("trace.spans", static_cast<double>(m.spans), "count");
  // Mean self time per span of each layer boundary the benchmark wraps.
  const auto self_us = [&](const char* metric, const char* span) {
    const auto it = m.layers.find(span);
    host(metric, it != m.layers.end() ? it->second.mean_self_us() : 0.0, "us");
  };
  self_us("self_us.client_request", "client.request");
  self_us("self_us.service_request", "service.request");
  self_us("self_us.engine_batch", "engine.batch");
}

}  // namespace spnbench
