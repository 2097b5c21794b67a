// Small order statistics and process measurements used by every workload.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "spnhbm/telemetry/metrics.hpp"

namespace spnbench {

/// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 when
/// empty. Takes a copy so callers keep their order.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// Percentile `p` of `values` where value i counts `weights[i]` times (the
/// smallest value whose cumulative weight reaches p% of the total); 0 when
/// empty.
double weighted_percentile(std::span<const double> values,
                           std::span<const double> weights, double p);

/// Mean of the last tenth of `values` divided by the mean of the first
/// tenth (at least one element each); 0 when fewer than two values.
double growth_last_over_first_tenth(std::span<const double> values);

/// Sums histogram snapshots recorded with the same bucket layout (the
/// server's histograms all use the default layout).
spnhbm::telemetry::HistogramSnapshot merge(
    std::span<const spnhbm::telemetry::HistogramSnapshot> parts);

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb();

}  // namespace spnbench
