#include "spnhbm/soak/soak.hpp"

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>

#include "spnhbm/fault/fault.hpp"
#include "spnhbm/fleet/router.hpp"
#include "spnhbm/rpc/resilient_client.hpp"
#include "spnhbm/rpc/server.hpp"
#include "spnhbm/telemetry/json.hpp"
#include "spnhbm/util/error.hpp"
#include "spnhbm/util/log.hpp"
#include "spnhbm/util/strings.hpp"

namespace spnhbm::soak {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Order-independent over requests (the waves race each other), exact
/// over values: hash each result double's bit pattern, mix positions in,
/// then sum the per-request hashes with wrapping adds.
std::uint64_t request_digest(const std::vector<double>& results) {
  std::uint64_t h = 0x736F616B64696765ull;  // "soakdige"
  for (std::size_t j = 0; j < results.size(); ++j) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &results[j], sizeof(bits));
    h += splitmix64(bits ^ splitmix64(j));
  }
  return splitmix64(h);
}

const char* verdict(bool ok) { return ok ? "ok" : "VIOLATED"; }
const char* yesno(bool ok) { return ok ? "yes" : "NO"; }

}  // namespace

SoakReport run_soak(const SoakConfig& config) {
  SPNHBM_REQUIRE(!config.models.empty(), "soak needs at least one model");
  SPNHBM_REQUIRE(config.devices > 0, "soak needs at least one device");
  SPNHBM_REQUIRE(config.clients > 0, "soak needs at least one client");
  SPNHBM_REQUIRE(config.replicas > 0, "soak needs at least one replica");
  SPNHBM_REQUIRE(config.swaps_per_wave == 0 || config.replicas >= 2,
                 "hot-swaps under traffic need >= 2 replicas per model");
  for (const SoakModel& entry : config.models) {
    SPNHBM_REQUIRE(entry.model != nullptr, "soak model entry without a model");
    SPNHBM_REQUIRE(!entry.payloads.empty(),
                   "every soak model needs at least one payload");
    const std::size_t width = entry.model->input_features();
    for (const auto& payload : entry.payloads) {
      SPNHBM_REQUIRE(width > 0 && payload.size() % width == 0 &&
                         !payload.empty(),
                     "soak payload size must be a positive multiple of the "
                     "model's input width");
    }
  }

  const std::size_t model_count = config.models.size();
  const double target_seconds = config.minutes * 60.0;
  const Clock::time_point wall_start = Clock::now();

  // --- Fleet: packed devices with one slot of headroom each, so every
  // swap's partial-reconfiguration charge is a meaningful slice of the
  // full bitstream and the rebalancer has room for one scale-up.
  fleet::FleetConfig fleet_config;
  fleet_config.devices = config.devices;
  fleet_config.device_prefix = "soak";
  const std::size_t tenants =
      model_count * config.replicas;
  fleet_config.device.budget.pe_slots = static_cast<int>(
      (tenants + config.devices - 1) / config.devices + 1);
  fleet::FleetRouter router(fleet_config);
  for (const SoakModel& entry : config.models) {
    for (std::size_t r = 0; r < config.replicas; ++r) {
      router.deploy(entry.model, 1);
    }
  }
  router.start();

  rpc::RpcServerConfig rpc_config;
  rpc_config.port = config.port;
  rpc::RpcServer rpc_server(router, rpc_config);
  rpc_server.start();

  // --- Clients: effectively-unbounded retries with tight backoffs. The
  // chaos plan is made of windows and every-N rules, so every request
  // eventually lands — which is exactly what makes requests == ok a
  // seed-deterministic assertion.
  std::vector<std::unique_ptr<rpc::ResilientClient>> clients;
  for (std::size_t c = 0; c < config.clients; ++c) {
    rpc::ResilientClientConfig client_config;
    client_config.host = "127.0.0.1";
    client_config.port = rpc_server.port();
    client_config.label = "soak" + std::to_string(c);
    client_config.seed = config.seed;
    client_config.max_attempts = 1000;
    client_config.backoff_base_us = 100.0;
    client_config.backoff_cap_us = 2'000.0;
    client_config.max_connect_attempts = 100;
    client_config.connect_backoff_base_us = 200.0;
    client_config.connect_backoff_cap_us = 20'000.0;
    client_config.retry_internal_errors = true;
    clients.push_back(
        std::make_unique<rpc::ResilientClient>(std::move(client_config)));
  }

  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> giveups{0};
  std::atomic<std::uint64_t> digest{0};
  // Per-client per-model payload cursors; each client thread touches only
  // its own row.
  std::vector<std::vector<std::size_t>> payload_cursor(
      config.clients, std::vector<std::size_t>(model_count, 0));

  // Deterministic traffic skew: model 0 takes 3/4 of the stream, the
  // rest rotate through the last quarter. The skew keeps the hot model's
  // traffic share far from the rebalancer's thresholds, so scaling
  // decisions cannot flip on chaos-induced retry noise.
  const auto pick_model = [&](std::uint64_t wave, std::size_t client,
                              std::size_t i) -> std::size_t {
    if (model_count > 1 && i % 4 == 3) {
      return 1 + (wave + client + i) % (model_count - 1);
    }
    return 0;
  };

  const auto traffic_wave = [&](std::size_t client, std::uint64_t wave) {
    for (std::size_t i = 0; i < config.wave_requests; ++i) {
      const std::size_t pick = pick_model(wave, client, i);
      const SoakModel& entry = config.models[pick];
      const auto& payload =
          entry.payloads[payload_cursor[client][pick]++ %
                         entry.payloads.size()];
      requests.fetch_add(1, std::memory_order_relaxed);
      try {
        const std::vector<double> results =
            clients[client]->infer(entry.model->id(), payload);
        ok.fetch_add(1, std::memory_order_relaxed);
        digest.fetch_add(request_digest(results), std::memory_order_relaxed);
      } catch (const Error& e) {
        giveups.fetch_add(1, std::memory_order_relaxed);
        SPNHBM_WARN("soak") << "main-phase give-up: " << e.what();
      }
    }
  };

  const auto virtual_seconds = [&]() {
    double total = 0.0;
    for (std::size_t m = 0; m < router.member_count(); ++m) {
      total += router.device(m).stats().reconfiguration_seconds;
    }
    return total;
  };

  // --- Main phase: waves of traffic with hot-swaps and rebalances
  // running underneath, until the fleet has streamed `minutes` worth of
  // partial bitstreams. The stop condition is virtual, so the wave count
  // is a pure function of the configuration.
  fleet::RebalancePolicy policy;
  policy.min_replicas = config.replicas;
  policy.max_replicas = config.replicas + 1;
  policy.hot_share = 0.5;
  policy.cold_share = 0.0;
  policy.pe_slots = 1;

  SoakReport report;
  std::uint64_t swap_counter = 0;
  std::uint64_t wave = 0;
  while (virtual_seconds() < target_seconds) {
    std::vector<std::thread> threads;
    threads.reserve(config.clients);
    for (std::size_t c = 0; c < config.clients; ++c) {
      threads.emplace_back(traffic_wave, c, wave);
    }
    // Hot-swaps under live traffic: replace the most recent replica with
    // a freshly reconfigured partition. replicas >= 2 keeps the model
    // serving throughout the swap.
    for (std::size_t s = 0; s < config.swaps_per_wave; ++s) {
      const SoakModel& entry = config.models[swap_counter % model_count];
      router.undeploy_one(entry.model->id());
      router.deploy(entry.model, 1);
      ++swap_counter;
    }
    if (config.rebalance_every > 0 &&
        (wave + 1) % config.rebalance_every == 0) {
      const fleet::RebalanceReport pass = router.rebalance(policy);
      report.rebalances += 1;
      report.scale_ups += pass.scaled_up.size();
      report.scale_downs += pass.scaled_down.size();
    }
    for (std::thread& thread : threads) thread.join();
    ++wave;
  }
  report.waves = wave;
  report.swaps = swap_counter;

  // --- Convergence phase: chaos off, then drive probe traffic through
  // the fleet for every model that still has an unhealthy engine until
  // the health state machine settles. The fleet's server offers a due
  // probe the next batch of the engine's lane, so the fleet's own traffic
  // is what readmits a quarantined replica.
  fault::injector().disarm();
  engine::InferenceServer& server = router.server();
  const auto all_healthy = [&]() {
    for (std::size_t e = 0; e < server.engine_count(); ++e) {
      if (server.engine_retired(e)) continue;
      if (server.engine_health(e) != engine::EngineHealth::kHealthy) {
        return false;
      }
    }
    return true;
  };
  std::uint64_t convergence_accepted = 0;
  const auto convergence_deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             config.convergence_wall_seconds));
  while (!all_healthy() && Clock::now() < convergence_deadline) {
    for (std::size_t e = 0; e < server.engine_count(); ++e) {
      if (server.engine_retired(e) ||
          server.engine_health(e) == engine::EngineHealth::kHealthy) {
        continue;
      }
      const std::string model_id = server.engine_model(e);
      for (const SoakModel& entry : config.models) {
        if (entry.model->id() != model_id) continue;
        report.convergence_requests += 1;
        try {
          auto future = router.try_submit(model_id, entry.payloads.front());
          if (future.has_value()) {
            convergence_accepted += 1;
            future->get();
          }
        } catch (const std::exception&) {
          // No probe due yet, or a failed probe that backed the interval
          // off; keep driving.
        }
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  report.health_converged = all_healthy();

  // --- Drain and the zero-leak checks.
  bool zero_outstanding = true;
  for (auto& client : clients) {
    zero_outstanding = zero_outstanding && client->outstanding() == 0;
    report.retries += client->retry_log().size();
    const std::uint64_t connects = client->connects();
    if (connects > 1) report.reconnects += connects - 1;
    client->close();
  }
  const auto drain_deadline = Clock::now() + std::chrono::seconds(5);
  while ((rpc_server.active_connections() > 0 ||
          router.outstanding_samples() > 0) &&
         Clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  report.drained = zero_outstanding && rpc_server.active_connections() == 0 &&
                   router.outstanding_samples() == 0;
  rpc_server.stop();
  router.stop();

  // --- Books.
  const rpc::RpcServerStats rpc_stats = rpc_server.stats();
  const engine::ServerStats server_stats = server.stats();
  report.seed = config.seed;
  report.virtual_target_seconds = target_seconds;
  report.devices = config.devices;
  report.replicas = config.replicas;
  report.clients = config.clients;
  report.models = model_count;
  report.virtual_seconds = virtual_seconds();
  report.requests = requests.load();
  report.ok = ok.load();
  report.giveups = giveups.load();
  report.digest = digest.load();
  report.duplicates = rpc_stats.duplicates;
  report.quarantines = server_stats.quarantines;
  report.client_books_ok = report.requests == report.ok + report.giveups;
  report.server_conserved = rpc_stats.conserved();
  report.fleet_conserved =
      server_stats.requests == rpc_stats.accepted + convergence_accepted;
  report.duplicates_retried = report.duplicates <= report.retries;
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - wall_start).count();
  return report;
}

std::string SoakReport::describe() const {
  std::string out;
  out += strformat(
      "soak: seed=%llu target=%.1fs models=%zu devices=%zu replicas=%zu "
      "clients=%zu\n",
      static_cast<unsigned long long>(seed), virtual_target_seconds, models,
      devices, replicas, clients);
  out += strformat(
      "  waves=%llu swaps=%llu rebalances=%llu (+%llu/-%llu) virtual=%.3fs\n",
      static_cast<unsigned long long>(waves),
      static_cast<unsigned long long>(swaps),
      static_cast<unsigned long long>(rebalances),
      static_cast<unsigned long long>(scale_ups),
      static_cast<unsigned long long>(scale_downs), virtual_seconds);
  out += strformat("  requests=%llu ok=%llu give-ups=%llu\n",
                   static_cast<unsigned long long>(requests),
                   static_cast<unsigned long long>(ok),
                   static_cast<unsigned long long>(giveups));
  out += strformat("  digest=0x%016llx\n",
                   static_cast<unsigned long long>(digest));
  out += strformat("  client books (sent == ok + give-ups): %s\n",
                   verdict(client_books_ok));
  out += strformat(
      "  server conservation (received == accepted + rejected + shed + "
      "duplicates): %s\n",
      verdict(server_conserved));
  out += strformat(
      "  fleet conservation (fleet requests == rpc accepted + convergence "
      "accepted): %s\n",
      verdict(fleet_conserved));
  out += strformat("  duplicates retried (rpc duplicates <= client retries): "
                   "%s\n",
                   verdict(duplicates_retried));
  out += strformat("  health converged (every engine healthy): %s\n",
                   yesno(health_converged));
  out += strformat("  drained (zero outstanding, zero connections): %s\n",
                   yesno(drained));
  out += strformat("soak verdict: %s\n", passed() ? "PASS" : "FAIL");
  return out;
}

std::string SoakReport::detail() const {
  return strformat(
      "soak detail: wall=%.1fs retries=%llu reconnects=%llu duplicates=%llu "
      "quarantines=%llu convergence_requests=%llu\n",
      wall_seconds, static_cast<unsigned long long>(retries),
      static_cast<unsigned long long>(reconnects),
      static_cast<unsigned long long>(duplicates),
      static_cast<unsigned long long>(quarantines),
      static_cast<unsigned long long>(convergence_requests));
}

std::string SoakReport::bench_json() const {
  telemetry::JsonWriter w;
  w.begin_object();
  w.key("bench").value("soak");
  w.key("records").begin_array();
  w.begin_object();
  w.key("name").value("soak");
  w.key("seed").value(seed);
  w.key("virtual_seconds").value(virtual_seconds);
  w.key("waves").value(waves);
  w.key("swaps").value(swaps);
  w.key("rebalances").value(rebalances);
  w.key("requests").value(requests);
  w.key("ok").value(ok);
  w.key("giveups").value(giveups);
  w.key("digest_hex").value(strformat(
      "0x%016llx", static_cast<unsigned long long>(digest)));
  w.key("convergence_requests").value(convergence_requests);
  w.key("retries").value(retries);
  w.key("reconnects").value(reconnects);
  w.key("duplicates").value(duplicates);
  w.key("quarantines").value(quarantines);
  w.key("wall_seconds").value(wall_seconds);
  w.key("passed").value(passed() ? 1 : 0);
  w.end_object();
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace spnhbm::soak
