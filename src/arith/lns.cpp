#include "spnhbm/arith/lns.hpp"

#include <cmath>

#include "spnhbm/util/strings.hpp"

namespace spnhbm::arith {

namespace {
/// Smallest power of two >= v.
int ceil_log2(int v) {
  int bits = 0;
  while ((1 << bits) < v) ++bits;
  return bits;
}
}  // namespace

std::string LnsFormat::describe() const {
  return strformat("LNS<i=%d,f=%d,lut=%d>", integer_bits, fraction_bits,
                   lut_address_bits);
}

LnsContext::LnsContext(LnsFormat format) : format_(format) {
  format_.validate();
  const int f = format_.fraction_bits;
  // Fixed-point log range: [-2^(i-1), 2^(i-1)) in log2 units.
  min_log_ = -(std::int64_t{1} << (format_.integer_bits - 1 + f));
  max_log_ = (std::int64_t{1} << (format_.integer_bits - 1 + f)) - 1;
  zero_code_ = 0;  // offset encoding: code 0 == min_log_ == reserved zero

  // Δ+(d) is evaluated for d in [-cutoff, 0]; beyond the cutoff the small
  // operand contributes less than half an ulp. Cutoff is rounded up to a
  // power of two so the LUT index is a plain shift, as in the RTL.
  const int cutoff_log2 = ceil_log2(f + 2);
  cutoff_fixed_ = std::int64_t{1} << (cutoff_log2 + f);
  lut_shift_ = cutoff_log2 + f - format_.lut_address_bits;
  SPNHBM_REQUIRE(lut_shift_ >= 0,
                 "LUT address width exceeds Δ argument resolution");

  const std::size_t entries =
      (std::size_t{1} << format_.lut_address_bits) + 1;
  delta_lut_.resize(entries);
  for (std::size_t k = 0; k < entries; ++k) {
    const std::int64_t t_fixed = static_cast<std::int64_t>(k) << lut_shift_;
    const double d = -std::ldexp(static_cast<double>(t_fixed), -f);
    const double delta = std::log2(1.0 + std::exp2(d));
    delta_lut_[k] =
        static_cast<std::int64_t>(std::llround(std::ldexp(delta, f)));
  }
}

std::uint64_t LnsContext::encode(double value) const {
  if (!(value > 0.0) || std::isnan(value)) return zero_code_;
  if (std::isinf(value)) return from_fixed_log(max_log_);
  const double log_value = std::log2(value);
  const double scaled = std::ldexp(log_value, format_.fraction_bits);
  // Clamp before the llround to avoid UB on huge magnitudes.
  if (scaled <= static_cast<double>(min_log_)) return from_fixed_log(min_log_ + 1);
  if (scaled >= static_cast<double>(max_log_)) return from_fixed_log(max_log_);
  return from_fixed_log(std::llround(scaled));
}

double LnsContext::decode(std::uint64_t bits) const {
  if (bits == zero_code_) return 0.0;
  const double log_value =
      std::ldexp(static_cast<double>(to_fixed_log(bits)), -format_.fraction_bits);
  return std::exp2(log_value);
}

double LnsContext::min_positive() const {
  return std::exp2(
      std::ldexp(static_cast<double>(min_log_ + 1), -format_.fraction_bits));
}

double LnsContext::max_value() const {
  return std::exp2(
      std::ldexp(static_cast<double>(max_log_), -format_.fraction_bits));
}

}  // namespace spnhbm::arith
