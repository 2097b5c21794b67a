// Seeded load schedules. Everything here is a pure function of the seed,
// so two runs with the same seed offer the system the same load.
#pragma once

#include <cstdint>
#include <vector>

namespace spnbench {

/// Open-loop Poisson arrivals at a fixed rate: the due times of the first
/// `count` requests, in nanoseconds from the start of the phase. Requests
/// are timed from these due times, never from the moment the generator
/// managed to send them.
std::vector<std::int64_t> poisson_due_times(std::uint64_t seed,
                                            double rate_per_second,
                                            std::size_t count);

/// Request sizes of an offline batch trace: `tune::make_trace` draws the
/// sizes (log-uniform around `mean_samples`, seeded); they are then scaled
/// so the trace holds exactly `requests * mean_samples` samples. The seed
/// changes the mix of sizes, never the total work of a pass.
std::vector<std::size_t> batch_request_sizes(std::uint64_t seed,
                                             std::size_t requests,
                                             std::size_t mean_samples);

/// Derives an independent stream seed for one use ("label") of the run
/// seed, so adding a stream never perturbs another.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t label);

}  // namespace spnbench
