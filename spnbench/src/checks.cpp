#include "checks.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace spnbench {

double cfp_relative_tolerance(const spnhbm::compiler::DatapathModule& module,
                              int mantissa_bits) {
  return static_cast<double>(module.ops().size()) *
         std::ldexp(1.0, -(mantissa_bits + 1));
}

bool within_tolerance(double value, double reference, double tolerance) {
  if (!std::isfinite(value) || value == 0.0 || !std::isfinite(reference)) {
    return false;
  }
  return std::fabs(value - reference) <= tolerance * std::fabs(reference);
}

std::size_t count_out_of_tolerance(std::span<const double> got,
                                   std::span<const double> reference,
                                   double tolerance) {
  const std::size_t common = std::min(got.size(), reference.size());
  std::size_t bad = std::max(got.size(), reference.size()) - common;
  for (std::size_t i = 0; i < common; ++i) {
    if (!within_tolerance(got[i], reference[i], tolerance)) ++bad;
  }
  return bad;
}

std::size_t count_bit_mismatches(std::span<const double> got,
                                 std::span<const double> expected) {
  const std::size_t common = std::min(got.size(), expected.size());
  std::size_t bad = std::max(got.size(), expected.size()) - common;
  for (std::size_t i = 0; i < common; ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(expected[i])) {
      ++bad;
    }
  }
  return bad;
}

std::uint64_t digest(std::span<const double> values, std::uint64_t state) {
  for (const double v : values) {
    auto bits = std::bit_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      state ^= bits & 0xffu;
      state *= 0x100000001b3ull;
      bits >>= 8;
    }
  }
  return state;
}

}  // namespace spnbench
