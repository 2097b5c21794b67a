#include "schedule.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "spnhbm/tune/workload.hpp"
#include "spnhbm/util/error.hpp"
#include "spnhbm/util/rng.hpp"

namespace spnbench {

std::vector<std::int64_t> poisson_due_times(std::uint64_t seed,
                                            double rate_per_second,
                                            std::size_t count) {
  SPNHBM_REQUIRE(rate_per_second > 0.0, "schedule rate must be positive");
  spnhbm::Rng rng(seed);
  const double mean_gap_ns = 1e9 / rate_per_second;
  double now = 0.0;
  std::vector<std::int64_t> due(count);
  for (auto& d : due) {
    // Exponential gap by inversion; 1 - u keeps the log argument in (0, 1].
    now += -std::log(1.0 - rng.next_double()) * mean_gap_ns;
    d = static_cast<std::int64_t>(now);
  }
  return due;
}

std::vector<std::size_t> batch_request_sizes(std::uint64_t seed,
                                             std::size_t requests,
                                             std::size_t mean_samples) {
  SPNHBM_REQUIRE(requests > 0 && mean_samples > 0, "empty batch trace");
  spnhbm::tune::WorkloadSpec spec;
  spec.requests = requests;
  spec.mean_request_samples = mean_samples;
  spec.mean_interarrival_us = 0;  // an offline job: everything due at once
  spec.seed = seed;
  std::vector<std::size_t> sizes;
  for (const auto& request : spnhbm::tune::make_trace(spec)) {
    sizes.push_back(request.samples);
  }
  const double drawn = static_cast<double>(
      std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}));
  const std::size_t target = requests * mean_samples;
  const double scale = static_cast<double>(target) / drawn;
  std::size_t total = 0;
  for (auto& size : sizes) {
    size = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(static_cast<double>(size) * scale)));
    total += size;
  }
  // Rounding leaves a residue of a few samples; the largest request
  // absorbs it so the total is exact.
  auto& largest = *std::max_element(sizes.begin(), sizes.end());
  largest = largest + target - total;
  return sizes;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t label) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (label + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace spnbench
