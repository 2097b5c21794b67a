// Simulator-backed cost model for tuning candidates.
//
// score_candidate() builds a fresh FpgaSimEngine composed exactly as the
// candidate prescribes (PE count, block size, HBM channel packing,
// crossbar routing) and replays the workload trace against it in virtual
// time. The replay mirrors the InferenceServer dispatcher: requests of
// one encoding coalesce greedily up to the candidate's batch_samples (the
// request that overflows it is sliced at a sample boundary; dense and
// sparse never share a batch), a partial batch flushes once its oldest
// request has waited flush_deadline_us, and the engine serves one batch
// at a time. Dense batch service times come from the block-pipelined
// timing path (InferenceRuntime::run), memoised per batch size; a sparse
// batch is timed as its slices' samples joined into one real CSR stream
// through infer_sparse. Everything is
// virtual-time DES — scoring a candidate takes milliseconds of wall
// clock and is bit-reproducible from the trace.
//
// Candidates that cannot be composed (placement deficit, invalid knobs,
// device memory exhausted by the block size) score as infeasible with
// the typed error's message as the rejection reason — the tuner treats
// them as search-space walls rather than failures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spnhbm/fpga/resource_model.hpp"
#include "spnhbm/model/artifact.hpp"
#include "spnhbm/model/tuning.hpp"
#include "spnhbm/tune/workload.hpp"

namespace spnhbm::tune {

/// How one candidate fared on the workload.
struct CandidateScore {
  bool feasible = false;
  /// Samples served per second of virtual time, first arrival to last
  /// completion. The tuner's objective (higher is better).
  double samples_per_second = 0.0;
  /// Mean request latency (arrival -> last slice completed), microseconds.
  double mean_latency_us = 0.0;
  /// Virtual makespan of the whole trace in microseconds.
  std::uint64_t makespan_us = 0;
  /// Batches the replayed dispatcher formed.
  std::uint64_t batches = 0;
  /// Why the candidate was rejected (infeasible candidates only).
  std::string rejection;

  /// "thr=... samples/s mean_lat=...us batches=..." or "infeasible: ...".
  std::string describe() const;
  /// Strictly better under the tuner's objective: higher throughput,
  /// ties broken by lower mean latency.
  bool better_than(const CandidateScore& other) const;
};

/// Scores `config` for `model` by replaying `trace` (from make_trace on
/// `spec`; passed in so one trace serves every candidate) on a fresh
/// simulated card of `platform`. Never throws for infeasible candidates.
CandidateScore score_candidate(const model::ModelHandle& model,
                               const model::TunedConfig& config,
                               const WorkloadSpec& spec,
                               const std::vector<WorkloadRequest>& trace,
                               fpga::Platform platform);

}  // namespace spnhbm::tune
