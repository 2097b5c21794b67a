// Open-loop load generator for the RPC serving stack.
//
// "Open loop" means arrivals follow a precomputed schedule and do NOT
// wait for responses: if the server slows down, requests keep arriving
// at the configured rate and queueing delay becomes visible in the
// measured latency — the honest way to measure a serving system
// (closed-loop generators coordinate with the server and hide overload).
//
// The schedule is derived deterministically from (seed, arrival process,
// rate, count) via the repo-wide xoshiro generator, so a loadgen run is
// reproducible in *schedule*; wall-clock latencies of course vary with
// the machine. make_schedule() is exposed separately so tests can assert
// schedule determinism without opening sockets.
//
// Every response lands in one bucket of `by_status`, so the report
// satisfies sent == sum(by_status): nothing the generator fired can
// escape the accounting, mirroring the server-side conservation law.
//
// Connections ride the self-healing ResilientClient: a reset mid-run
// reconnects with deterministic backoff instead of failing the rest of
// the run. By default max_attempts = 1 so each request still gets
// exactly one wire attempt (an overloaded server shows up as OVERLOADED
// responses, not hidden retries); raising it turns on idempotency-keyed
// retries, and every final give-up is recorded per GiveUpReason in the
// report's give-up histogram.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spnhbm/rpc/resilient_client.hpp"
#include "spnhbm/telemetry/metrics.hpp"

namespace spnhbm::rpc {

enum class ArrivalProcess : std::uint8_t {
  kFixed = 0,    ///< evenly spaced, period 1/rate
  kPoisson = 1,  ///< exponential inter-arrivals, mean 1/rate
  kBursty = 2,   ///< back-to-back bursts of `burst_size`, same mean rate
};

/// "fixed" / "poisson" / "bursty"; throws util Error on anything else.
ArrivalProcess parse_arrival_process(const std::string& name);
const char* to_string(ArrivalProcess process);

/// One model's share of a mixed-model load.
struct ModelTraffic {
  /// Model reference sent on the wire (empty = the server's default).
  std::string model;
  /// Relative share of the request stream; must be positive.
  double weight = 1.0;
  /// Request payloads for this model, cycled round-robin over its
  /// requests. Must be non-empty, each a multiple of the model's width
  /// (or valid CSR sparse streams when `query` selects them).
  std::vector<std::vector<std::uint8_t>> payloads;
  /// Payload encoding for this traffic share; default = dense rows. The
  /// query kind is part of `model` (a suffixed lane ref).
  QueryOptions query;
};

struct LoadgenConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Model reference sent with every request; empty = the server's first
  /// advertised model.
  std::string model;
  /// Request payloads, cycled round-robin across the run. Must be
  /// non-empty and each payload a multiple of the model's input width.
  std::vector<std::vector<std::uint8_t>> payloads;
  /// Payload encoding sent with every single-model request; ignored when
  /// `traffic` is non-empty (each ModelTraffic carries its own).
  QueryOptions query;
  /// Mixed-model traffic (the fleet-serving path): when non-empty,
  /// `model`/`payloads` above are ignored and every request draws its
  /// model from this weighted mix, deterministically in `seed`.
  std::vector<ModelTraffic> traffic;
  std::size_t request_count = 100;
  /// Mean offered rate in requests/second.
  double rate_rps = 1000.0;
  ArrivalProcess arrival = ArrivalProcess::kPoisson;
  /// Burst size for ArrivalProcess::kBursty.
  std::size_t burst_size = 8;
  /// Client connections; requests are dealt round-robin across them.
  std::size_t connections = 1;
  std::uint64_t seed = 42;
  /// Per-request deadline forwarded on the wire; 0 = none.
  std::uint64_t deadline_us = 0;
  /// Send a kShutdown frame when done (CI teardown path).
  bool shutdown_server_after = false;
  /// Wire attempts per request (1 = classic open-loop accounting where a
  /// shed response lands in OVERLOADED; >1 = idempotency-keyed retries).
  int max_attempts = 1;
  /// Wall budget per logical request across retries; 0 = unbounded.
  double retry_budget_us = 0.0;
};

struct LoadgenReport {
  /// Requests handed to the wire (== request_count unless the connection
  /// died mid-run; transport failures still land in by_status).
  std::uint64_t sent = 0;
  /// Responses per wire status, indexed by static_cast<size_t>(Status).
  std::array<std::uint64_t, 8> by_status{};
  double wall_seconds = 0.0;
  /// The rate the schedule asked for vs. OK responses per wall second.
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  /// Requests sent per model reference (single-model runs have one
  /// entry); sums to `sent`.
  std::map<std::string, std::uint64_t> sent_by_model;
  /// Wall-clock latency of OK responses, send -> callback, microseconds.
  telemetry::HistogramSnapshot latency_us;
  /// Same latency, split per model reference (keys match sent_by_model),
  /// so a mixed-model run shows each model's own percentiles.
  std::map<std::string, telemetry::HistogramSnapshot> latency_by_model;
  /// Final outcomes per GiveUpReason, indexed by
  /// static_cast<size_t>(GiveUpReason); [0] (kNone) counts clean
  /// successes plus first-attempt terminal responses. Sums to `sent`.
  std::array<std::uint64_t, 6> giveup_by_reason{};
  /// Reconnects across all connections (0 = every socket survived).
  std::uint64_t reconnects = 0;

  std::uint64_t ok() const;
  std::uint64_t retryable() const;  ///< OVERLOADED + NO_HEALTHY_ENGINE + SHUTTING_DOWN
  std::uint64_t failed() const;     ///< sent - ok()
  /// failed() / sent, the number `loadgen --max-failure-rate` gates on;
  /// 0.0 when nothing was sent.
  double failure_fraction() const;
  /// sent == sum(by_status): every request got exactly one outcome.
  bool conserved() const;
  std::string describe() const;
  /// BENCH_*.json document ("bench": "loadgen"): an "overall" record plus
  /// one record per model, each carrying the latency percentiles — the
  /// shape tools/bench_compare consumes.
  std::string bench_json() const;
};

/// Arrival offsets from run start, in microseconds, sorted ascending.
/// Deterministic in (seed, arrival, rate_rps, burst_size, request_count).
std::vector<std::uint64_t> make_schedule(const LoadgenConfig& config);

/// Traffic-mix index (into config.traffic) per request, drawn from the
/// weighted mix on an independent deterministic stream of `seed`. Empty
/// when config.traffic is empty (single-model run).
std::vector<std::size_t> make_model_picks(const LoadgenConfig& config);

/// Connects, replays the schedule, waits for every response. Throws
/// RpcGiveUpError when the initial connections cannot be established
/// even after the dial-backoff episode.
LoadgenReport run_loadgen(const LoadgenConfig& config);

}  // namespace spnhbm::rpc
