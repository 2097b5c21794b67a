// Long-running soak harness: chaos + traffic + hot-swaps + rebalancing.
//
// One soak run composes everything the serving stack claims to survive,
// at once, for minutes of *virtual* time:
//
//   * a FleetRouter over several FpgaSimDevices, fronted by an RpcServer
//     on a loopback port,
//   * ResilientClients pushing waves of inference traffic through the
//     wire (idempotency-keyed retries, reconnects),
//   * a chaos plan armed in fault::injector() — device faults
//     (engine.submit, pcie.dma, hbm.access) and network faults
//     (rpc.accept, rpc.hello, rpc.conn.rx/tx, rpc.client.connect)
//     firing deterministically by (site, instance, op-index),
//   * scheduled hot-swaps (undeploy one replica, deploy a fresh one into
//     a newly reconfigured partition) running *under* the traffic, and
//   * periodic telemetry-driven rebalance passes.
//
// Virtual time is the fleet's cumulative partial-reconfiguration charge
// (sum of FpgaDeviceStats::reconfiguration_seconds): every scheduled
// swap streams a deterministic slice of bitstream through the ICAP, so
// "two minutes of soak" is a deterministic number of waves and swaps —
// independent of the host's wall clock and of whether chaos is armed.
//
// After the last wave the injector is disarmed and a bounded convergence
// phase drives probe traffic through the fleet until no engine is left
// quarantined or degraded. Then the harness asserts the full identity
// stack:
//
//   client books     sent == ok + give-ups            (per client, summed)
//   rpc server       received == accepted + rejected + shed + duplicates
//                    accepted == completed + failed
//   fleet server     requests == rpc accepted + accepted convergence
//                    submits (the two layers count the same requests)
//   duplicates       rpc duplicates <= client retries (a replayed answer
//                    is always a real client retry)
//   health           every live engine back to healthy
//   zero leaks       no outstanding requests, no open connections,
//                    no queued samples
//
// Determinism: SoakReport::describe() contains only seed-deterministic
// lines (wave/swap/request counts, the order-independent result digest,
// the verdicts) — wall-clock detail stays out of it — so a run with a
// disarmed chaos plan is byte-identical to a run with no plan at all,
// and two runs with the same seed and the same armed plan agree.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spnhbm/model/artifact.hpp"

namespace spnhbm::soak {

/// One model in the soak mix, with the payloads its requests cycle.
struct SoakModel {
  model::ModelHandle model;
  /// Non-empty; each payload a multiple of the model's input width.
  std::vector<std::vector<std::uint8_t>> payloads;
};

struct SoakConfig {
  std::uint64_t seed = 42;
  /// Virtual minutes of reconfiguration time to soak for (>= this much
  /// is charged before the loop stops).
  double minutes = 2.0;
  std::size_t devices = 2;
  /// Replicas per model. >= 2 keeps every model serving while one
  /// replica is mid-swap (enforced when swaps_per_wave > 0).
  std::size_t replicas = 2;
  std::size_t clients = 2;
  /// Requests per client per wave.
  std::size_t wave_requests = 8;
  /// Hot-swaps performed under each wave's traffic.
  std::size_t swaps_per_wave = 4;
  /// A rebalance pass every this many waves; 0 = never.
  std::size_t rebalance_every = 3;
  /// Loopback port of the soak's RpcServer; 0 = ephemeral.
  std::uint16_t port = 0;
  std::vector<SoakModel> models;
  /// Wall-clock bound on the post-chaos convergence phase.
  double convergence_wall_seconds = 30.0;
};

struct SoakReport {
  std::uint64_t seed = 0;
  double virtual_target_seconds = 0.0;
  std::size_t devices = 0;
  std::size_t replicas = 0;
  std::size_t clients = 0;
  std::size_t models = 0;

  std::uint64_t waves = 0;
  std::uint64_t swaps = 0;
  std::uint64_t rebalances = 0;
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_downs = 0;
  /// Virtual seconds actually charged (>= virtual_target_seconds).
  double virtual_seconds = 0.0;

  /// Main-phase books (the deterministic ones).
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t giveups = 0;
  /// Order-independent digest over every OK result of the main phase —
  /// the cross-run reproducibility witness.
  std::uint64_t digest = 0;

  /// Chaos-dependent observability (stderr/JSON only, never stdout).
  std::uint64_t convergence_requests = 0;
  std::uint64_t retries = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t quarantines = 0;
  double wall_seconds = 0.0;

  /// The assertion stack.
  bool client_books_ok = false;
  bool server_conserved = false;
  bool fleet_conserved = false;
  bool duplicates_retried = false;
  bool health_converged = false;
  bool drained = false;

  bool passed() const {
    return client_books_ok && server_conserved && fleet_conserved &&
           duplicates_retried && health_converged && drained &&
           requests == ok + giveups;
  }
  /// Deterministic summary: same seed (and same armed plan) => same
  /// bytes. Goes to stdout.
  std::string describe() const;
  /// Chaos-dependent detail (retries, reconnects, wall time). Goes to
  /// stderr.
  std::string detail() const;
  /// BENCH_*.json document ("bench": "soak") in the shape
  /// tools/bench_compare consumes.
  std::string bench_json() const;
};

/// Runs the harness described above. The caller arms (or does not arm)
/// the chaos plan before calling; run_soak disarms the injector itself
/// after the last wave so the convergence phase runs fault-free.
SoakReport run_soak(const SoakConfig& config);

}  // namespace spnhbm::soak
