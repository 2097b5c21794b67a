// Custom Floating Point (CFP) arithmetic.
//
// Bit-accurate software model of the FPGA-optimised floating-point format
// from Sommer et al., "Comparison of Arithmetic Number Formats for Inference
// in Sum-Product Networks on FPGAs" (FCCM 2020), which the paper uses inside
// the generated SPN datapaths:
//   * configurable exponent and mantissa widths,
//   * optional sign bit (SPN probabilities are non-negative, so the SPN
//     datapath configuration omits it),
//   * no subnormals (flush to zero), no NaN/Inf (saturate to the largest
//     finite value on overflow),
//   * round-to-nearest-even or truncation.
//
// Operations are implemented with exact integer significand arithmetic and a
// guard/round/sticky rounding step, so results match what the RTL operators
// produce — re-rounding double results would introduce double-rounding
// differences.
#pragma once

#include <cstdint>
#include <string>

#include "spnhbm/util/error.hpp"

namespace spnhbm::arith {

enum class Rounding { kNearestEven, kTruncate };

struct CfpFormat {
  int exponent_bits = 8;
  int mantissa_bits = 23;
  bool has_sign = false;
  Rounding rounding = Rounding::kNearestEven;

  int total_bits() const {
    return exponent_bits + mantissa_bits + (has_sign ? 1 : 0);
  }
  int bias() const { return (1 << (exponent_bits - 1)) - 1; }
  int max_exponent_field() const { return (1 << exponent_bits) - 1; }

  void validate() const {
    SPNHBM_REQUIRE(exponent_bits >= 2 && exponent_bits <= 16,
                   "CFP exponent width out of range");
    SPNHBM_REQUIRE(mantissa_bits >= 1 && mantissa_bits <= 52,
                   "CFP mantissa width out of range");
    SPNHBM_REQUIRE(total_bits() <= 64, "CFP format exceeds 64 bits");
  }

  std::string describe() const;
  bool operator==(const CfpFormat&) const = default;
};

/// The CFP operators over one format, validated once at construction so
/// the per-operation entry points below skip the check. add() and mul()
/// are inline: the datapath executor runs them in its innermost loops.
/// The free cfp_* functions wrap a fresh CfpOps and so validate per call.
class CfpOps {
 public:
  explicit CfpOps(CfpFormat format);

  const CfpFormat& format() const { return format_; }

  /// Encodes `value` (rounding as configured). Negative inputs in an
  /// unsigned format clamp to zero.
  std::uint64_t encode(double value) const;
  /// Decodes a bit pattern to double (exact: double is strictly wider).
  double decode(std::uint64_t bits) const;
  // Forced inline: the compiler's size heuristics would otherwise keep a
  // call per lane in the executor's loops.
  [[gnu::always_inline]] std::uint64_t add(std::uint64_t a,
                                           std::uint64_t b) const;
  [[gnu::always_inline]] std::uint64_t mul(std::uint64_t a,
                                           std::uint64_t b) const;
  /// Largest finite value's bit pattern (saturation target).
  std::uint64_t saturated(bool sign) const {
    return pack(sign, max_exponent_field_, mantissa_mask_);
  }

 private:
  int exponent_field(std::uint64_t bits) const {
    return static_cast<int>((bits >> m_) & exponent_mask_);
  }
  bool sign_of(std::uint64_t bits) const {
    return format_.has_sign && ((bits >> sign_shift_) & 1) != 0;
  }
  std::uint64_t pack(bool sign, int exponent_field,
                     std::uint64_t mantissa) const {
    std::uint64_t bits =
        mantissa | (static_cast<std::uint64_t>(exponent_field) << m_);
    if (format_.has_sign && sign) bits |= 1ull << sign_shift_;
    return bits;
  }
  /// Rounds `significand . grs` (3 guard bits) to an integer significand
  /// in the configured rounding mode. Branch-free on the guard bits: they
  /// are data, and a mispredicted branch costs more than the arithmetic.
  std::uint64_t round_grs(std::uint64_t with_grs) const {
    const std::uint64_t integer = with_grs >> 3;
    if (format_.rounding == Rounding::kTruncate) return integer;
    const std::uint64_t grs = with_grs & 0x7;
    // > half: up; tie: to even; < half: down.
    return integer + static_cast<std::uint64_t>(
                         (grs > 0x4) | ((grs == 0x4) & ((integer & 1) != 0)));
  }
  /// Normalises, rounds and packs a significand product of either width.
  template <typename Wide>
  [[gnu::always_inline]] std::uint64_t finish_mul(bool sign, int exponent,
                                                  Wide product) const;

  CfpFormat format_;
  int m_ = 0;
  int bias_ = 0;
  int max_exponent_field_ = 0;
  int sign_shift_ = 0;
  std::uint64_t mantissa_mask_ = 0;
  std::uint64_t exponent_mask_ = 0;
  /// Bits below the sign: the magnitude, which orders like the value.
  std::uint64_t magnitude_mask_ = 0;
  /// 2(m+1) <= 64: the significand product fits a 64-bit multiply.
  bool narrow_product_ = false;
};

template <typename Wide>
inline std::uint64_t CfpOps::finish_mul(bool sign, int exponent,
                                        Wide product) const {
  // product in [2^2m, 2^(2m+2)): one bit of growth at most.
  const int carry = static_cast<int>((product >> (2 * m_ + 1)) & 1);
  const int shift = m_ + carry;  // bits dropped back to m+1
  exponent += carry;

  // Keep 3 guard bits, OR the rest into sticky.
  std::uint64_t with_grs = 0;
  if (shift >= 3) {
    const int drop = shift - 3;
    const bool sticky = (product & ((Wide{1} << drop) - 1)) != 0;
    with_grs = static_cast<std::uint64_t>(product >> drop) |
               static_cast<std::uint64_t>(sticky);
  } else {
    with_grs = static_cast<std::uint64_t>(product) << (3 - shift);
  }

  std::uint64_t significand = round_grs(with_grs);
  if (significand >= (1ull << (m_ + 1))) {
    significand >>= 1;
    ++exponent;
  }
  const int field = exponent + bias_;
  if (field <= 0) return 0;
  if (field > max_exponent_field_) return saturated(sign);
  return pack(sign, field, significand & mantissa_mask_);
}

inline std::uint64_t CfpOps::mul(std::uint64_t a, std::uint64_t b) const {
  const int ea = exponent_field(a);
  const int eb = exponent_field(b);
  if (ea == 0 || eb == 0) return 0;
  const bool sign = sign_of(a) != sign_of(b);
  const std::uint64_t sig_a = (1ull << m_) | (a & mantissa_mask_);
  const std::uint64_t sig_b = (1ull << m_) | (b & mantissa_mask_);
  const int exponent = (ea - bias_) + (eb - bias_);
  if (narrow_product_) return finish_mul(sign, exponent, sig_a * sig_b);
  return finish_mul(sign, exponent,
                    static_cast<unsigned __int128>(sig_a) * sig_b);
}

inline std::uint64_t CfpOps::add(std::uint64_t a, std::uint64_t b) const {
  if (exponent_field(a) == 0) return b;
  if (exponent_field(b) == 0) return a;
  // Order by magnitude; on a tie `a` stays the larger operand.
  const bool swap = (a & magnitude_mask_) < (b & magnitude_mask_);
  const std::uint64_t hi = swap ? b : a;
  const std::uint64_t lo = swap ? a : b;
  const int e_hi = exponent_field(hi);
  const int d = e_hi - exponent_field(lo);

  // (m+1)-bit significands with 3 guard bits appended.
  const std::uint64_t big = ((1ull << m_) | (hi & mantissa_mask_)) << 3;
  std::uint64_t small = ((1ull << m_) | (lo & mantissa_mask_)) << 3;
  if (d >= 64) {
    small = 1;  // pure sticky
  } else {
    const bool sticky = (small & ((1ull << d) - 1)) != 0;
    small = (small >> d) | static_cast<std::uint64_t>(sticky);
  }

  int field = e_hi;
  const bool sign = sign_of(hi);
  std::uint64_t with_grs = 0;
  if (sign == sign_of(lo)) {
    with_grs = big + small;
    // Significand grew past m+1 bits: shift one out into sticky.
    const std::uint64_t carry = with_grs >> (m_ + 4);
    with_grs = (with_grs >> carry) | (with_grs & carry);
    field += static_cast<int>(carry);
  } else {
    with_grs = big - small;
    if (with_grs == 0) return 0;  // exact cancellation
    // Normalise left until the implicit one is back in position m (+3 grs).
    while ((with_grs >> (m_ + 3)) == 0) {
      with_grs <<= 1;
      --field;
      if (field <= 0) return 0;  // flush to zero
    }
  }

  std::uint64_t significand = round_grs(with_grs);
  if (significand >= (1ull << (m_ + 1))) {
    significand >>= 1;
    ++field;
  }
  if (field <= 0) return 0;
  if (field > max_exponent_field_) return saturated(sign);
  return pack(sign, field, significand & mantissa_mask_);
}

/// Encodes `value` into the format's bit pattern (rounding as configured).
/// Negative inputs in an unsigned format clamp to zero.
std::uint64_t cfp_encode(const CfpFormat& format, double value);

/// Decodes a bit pattern to double (exact: double is strictly wider).
double cfp_decode(const CfpFormat& format, std::uint64_t bits);

/// Bit-accurate addition. Unsigned formats: plain magnitude addition.
/// Signed formats: full add/sub with sign resolution.
std::uint64_t cfp_add(const CfpFormat& format, std::uint64_t a, std::uint64_t b);

/// Bit-accurate multiplication.
std::uint64_t cfp_mul(const CfpFormat& format, std::uint64_t a, std::uint64_t b);

/// Largest finite value's bit pattern (saturation target).
std::uint64_t cfp_max_value(const CfpFormat& format);

/// Smallest positive normal value as a double (underflow threshold).
double cfp_min_positive(const CfpFormat& format);

}  // namespace spnhbm::arith
