// Logarithmic Number System (LNS) arithmetic.
//
// Software model of the resource-efficient logarithmic number scale from
// Weber et al. (FPT 2019), the second number format supported by the
// paper's datapath generator. A value x > 0 is represented by
// log2(x) in two's-complement fixed point with `integer_bits` integer and
// `fraction_bits` fractional bits; zero is a reserved code. SPN
// probabilities are non-negative, so no sign of x is stored.
//
//   * multiplication is a fixed-point addition of the logs (exact,
//     saturating) — this is why LNS is attractive for product-heavy SPNs;
//   * addition uses the Gaussian logarithm Δ+(d) = log2(1 + 2^d), d <= 0,
//     evaluated with a piecewise-linear interpolated lookup table, exactly
//     as the hardware operator does. The LUT address width is configurable;
//     wider LUTs trade BRAM for accuracy.
//
// LNS can represent extremely small probabilities (down to 2^-2^(i-1)),
// which is the property [11] exploits for deep SPNs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spnhbm/util/error.hpp"

namespace spnhbm::arith {

struct LnsFormat {
  int integer_bits = 8;     ///< integer bits of log2(x), including sign
  int fraction_bits = 24;   ///< fractional bits of log2(x)
  int lut_address_bits = 10;  ///< Δ-LUT entries = 2^lut_address_bits

  // Offset-encoded: 2^(i+f) codes cover the log range, lowest code is zero.
  int total_bits() const { return integer_bits + fraction_bits; }

  void validate() const {
    SPNHBM_REQUIRE(integer_bits >= 2 && integer_bits <= 16,
                   "LNS integer width out of range");
    SPNHBM_REQUIRE(fraction_bits >= 4 && fraction_bits <= 40,
                   "LNS fraction width out of range");
    SPNHBM_REQUIRE(lut_address_bits >= 4 && lut_address_bits <= 16,
                   "LNS LUT address width out of range");
  }

  std::string describe() const;
  bool operator==(const LnsFormat&) const = default;
};

/// Precomputed Δ+-LUT plus format, validated once at construction.
/// Mirrors the synthesised operator: the LUT contents would be baked into
/// BRAM at generation time. mul() and add() are inline: the datapath
/// executor runs them in its innermost loops.
class LnsContext {
 public:
  explicit LnsContext(LnsFormat format);

  const LnsFormat& format() const { return format_; }

  /// Reserved bit pattern for zero (the most negative log value).
  std::uint64_t zero_code() const { return zero_code_; }

  std::uint64_t encode(double value) const;
  double decode(std::uint64_t bits) const;
  std::uint64_t mul(std::uint64_t a, std::uint64_t b) const;
  std::uint64_t add(std::uint64_t a, std::uint64_t b) const;

  /// Smallest positive representable value.
  double min_positive() const;
  /// Largest representable value.
  double max_value() const;

  /// Δ-LUT size in entries (the BRAM the operator consumes).
  std::size_t lut_entries() const { return delta_lut_.size(); }

 private:
  std::int64_t to_fixed_log(std::uint64_t bits) const {
    return static_cast<std::int64_t>(bits) + min_log_;
  }
  std::uint64_t from_fixed_log(std::int64_t log_fixed) const {
    // Saturate into the nonzero code range [min_log_+1, max_log_].
    if (log_fixed < min_log_ + 1) log_fixed = min_log_ + 1;
    if (log_fixed > max_log_) log_fixed = max_log_;
    return static_cast<std::uint64_t>(log_fixed - min_log_);
  }
  std::int64_t delta_plus(std::int64_t d_fixed) const;

  LnsFormat format_;
  std::int64_t min_log_ = 0;  // inclusive, reserved for zero
  std::int64_t max_log_ = 0;  // inclusive
  std::uint64_t zero_code_ = 0;
  // Δ+(d) sampled at 2^lut_address_bits points over d in [-cutoff, 0],
  // stored in fixed point, linearly interpolated between samples.
  std::vector<std::int64_t> delta_lut_;
  std::int64_t cutoff_fixed_ = 0;
  int lut_shift_ = 0;  // d-to-index shift
};

inline std::uint64_t LnsContext::mul(std::uint64_t a, std::uint64_t b) const {
  if (a == zero_code_ || b == zero_code_) return zero_code_;
  // Fixed-point addition of the logs; from_fixed_log saturates.
  return from_fixed_log(to_fixed_log(a) + to_fixed_log(b));
}

inline std::int64_t LnsContext::delta_plus(std::int64_t d_fixed) const {
  const std::int64_t t = -d_fixed;  // t >= 0
  if (t >= cutoff_fixed_) return 0;
  const auto index = static_cast<std::size_t>(t >> lut_shift_);
  const std::int64_t frac = t & ((std::int64_t{1} << lut_shift_) - 1);
  const std::int64_t lo = delta_lut_[index];
  const std::int64_t hi = delta_lut_[index + 1];
  // Piecewise-linear interpolation, matching the hardware operator.
  return lo + (((hi - lo) * frac) >> lut_shift_);
}

inline std::uint64_t LnsContext::add(std::uint64_t a, std::uint64_t b) const {
  if (a == zero_code_) return b;
  if (b == zero_code_) return a;
  const std::int64_t la = to_fixed_log(a);
  const std::int64_t lb = to_fixed_log(b);
  const std::int64_t hi = la < lb ? lb : la;
  const std::int64_t lo = la < lb ? la : lb;
  return from_fixed_log(hi + delta_plus(lo - hi));  // lo - hi <= 0
}

}  // namespace spnhbm::arith
