// What one benchmark run reports: named metrics with unit and clock, the
// books of attempted and failed outputs, and the reasons any output check
// failed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace spnbench {

/// Which clock a metric is read from. Virtual metrics come from the
/// simulated card's discrete-event clock and repeat exactly for a seed.
enum class Clock { kHost, kVirtual, kCount };

inline const char* clock_name(Clock clock) {
  switch (clock) {
    case Clock::kHost:
      return "host";
    case Clock::kVirtual:
      return "virtual";
    case Clock::kCount:
      return "count";
  }
  return "?";
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Clock clock = Clock::kHost;
};

struct RunReport {
  std::vector<Metric> metrics;
  /// Outputs the benchmark checked, and those that were missing or wrong.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per failed check; empty when every check passed.
  std::vector<std::string> check_failures;
  /// Human-readable context lines (sample counts, digests, caps hit).
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit, Clock clock) {
    metrics.push_back({std::move(name), value, std::move(unit), clock});
  }
  void fail_check(std::string why) { check_failures.push_back(std::move(why)); }
  /// Every output check passed. Failed requests (for example shed ones)
  /// are counted in `failed`; wrong outputs also fail a check.
  bool correct() const { return check_failures.empty(); }
};

}  // namespace spnbench
