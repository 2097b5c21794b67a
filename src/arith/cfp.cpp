#include "spnhbm/arith/cfp.hpp"

#include <cmath>

#include "spnhbm/util/strings.hpp"

namespace spnhbm::arith {

std::string CfpFormat::describe() const {
  return strformat("CFP<e=%d,m=%d,%s,%s>", exponent_bits, mantissa_bits,
                   has_sign ? "signed" : "unsigned",
                   rounding == Rounding::kNearestEven ? "rne" : "rz");
}

CfpOps::CfpOps(CfpFormat format) : format_(format) {
  format_.validate();
  m_ = format_.mantissa_bits;
  bias_ = format_.bias();
  max_exponent_field_ = format_.max_exponent_field();
  sign_shift_ = format_.mantissa_bits + format_.exponent_bits;
  mantissa_mask_ = (1ull << m_) - 1;
  exponent_mask_ = (1ull << format_.exponent_bits) - 1;
  // An unsigned 64-bit format has no bit above its magnitude.
  magnitude_mask_ = sign_shift_ >= 64 ? ~0ull : (1ull << sign_shift_) - 1;
  narrow_product_ = 2 * (m_ + 1) <= 64;
}

std::uint64_t CfpOps::encode(double value) const {
  bool sign = std::signbit(value);
  if (sign && !format_.has_sign) return 0;  // clamp negatives in unsigned mode
  double magnitude = std::fabs(value);
  if (magnitude == 0.0 || std::isnan(magnitude)) return 0;
  if (std::isinf(magnitude)) return saturated(sign);

  int exponent = 0;
  const double fraction = std::frexp(magnitude, &exponent);  // in [0.5, 1)
  exponent -= 1;  // now magnitude = (2*fraction) * 2^exponent, 2*fraction in [1,2)

  // Exact scaled significand: (2 * fraction) * 2^m, in [2^m, 2^(m+1)).
  const double scaled = std::ldexp(fraction, m_ + 1);
  auto integer = static_cast<std::uint64_t>(scaled);
  const double leftover = scaled - static_cast<double>(integer);
  if (format_.rounding == Rounding::kNearestEven) {
    if (leftover > 0.5 || (leftover == 0.5 && (integer & 1) != 0)) ++integer;
  }
  if (integer >= (1ull << (m_ + 1))) {
    integer >>= 1;
    ++exponent;
  }

  const int field = exponent + bias_;
  if (field <= 0) return 0;  // flush to zero, no subnormals
  if (field > max_exponent_field_) return saturated(sign);
  return pack(sign, field, integer & mantissa_mask_);
}

double CfpOps::decode(std::uint64_t bits) const {
  const int field = exponent_field(bits);
  if (field == 0) return 0.0;
  const double significand =
      1.0 + std::ldexp(static_cast<double>(bits & mantissa_mask_), -m_);
  const double magnitude = std::ldexp(significand, field - bias_);
  return sign_of(bits) ? -magnitude : magnitude;
}

std::uint64_t cfp_encode(const CfpFormat& format, double value) {
  return CfpOps(format).encode(value);
}

double cfp_decode(const CfpFormat& format, std::uint64_t bits) {
  return CfpOps(format).decode(bits);
}

std::uint64_t cfp_mul(const CfpFormat& format, std::uint64_t a,
                      std::uint64_t b) {
  return CfpOps(format).mul(a, b);
}

std::uint64_t cfp_add(const CfpFormat& format, std::uint64_t a,
                      std::uint64_t b) {
  return CfpOps(format).add(a, b);
}

std::uint64_t cfp_max_value(const CfpFormat& format) {
  return CfpOps(format).saturated(false);
}

double cfp_min_positive(const CfpFormat& format) {
  format.validate();
  return std::ldexp(1.0, 1 - format.bias());
}

}  // namespace spnhbm::arith
