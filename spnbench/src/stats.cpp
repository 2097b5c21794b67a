#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

namespace spnbench {
namespace {

double mean(std::span<const double> values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double weighted_percentile(std::span<const double> values,
                           std::span<const double> weights, double p) {
  std::vector<std::size_t> order(std::min(values.size(), weights.size()));
  if (order.empty()) return 0.0;
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return values[a] < values[b]; });
  double total = 0.0;
  for (const std::size_t i : order) total += weights[i];
  const double target = std::clamp(p, 0.0, 100.0) / 100.0 * total;
  double cumulative = 0.0;
  for (const std::size_t i : order) {
    cumulative += weights[i];
    if (cumulative >= target) return values[i];
  }
  return values[order.back()];
}

double growth_last_over_first_tenth(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  const std::size_t tenth = std::max<std::size_t>(1, values.size() / 10);
  const double first = mean(values.first(tenth));
  const double last = mean(values.last(tenth));
  return first > 0.0 ? last / first : 0.0;
}

spnhbm::telemetry::HistogramSnapshot merge(
    std::span<const spnhbm::telemetry::HistogramSnapshot> parts) {
  spnhbm::telemetry::HistogramSnapshot out;
  for (const auto& part : parts) {
    if (part.count == 0) continue;
    if (out.count == 0) {
      out = part;
      continue;
    }
    if (part.bucket_counts.size() != out.bucket_counts.size()) continue;
    for (std::size_t i = 0; i < part.bucket_counts.size(); ++i) {
      out.bucket_counts[i] += part.bucket_counts[i];
    }
    out.count += part.count;
    out.sum += part.sum;
    out.min = std::min(out.min, part.min);
    out.max = std::max(out.max, part.max);
  }
  return out;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace spnbench
