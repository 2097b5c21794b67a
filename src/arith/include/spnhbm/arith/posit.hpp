// Posit arithmetic (Gustafson type III unums).
//
// The FCCM'20 format study the paper builds on ([4]) also evaluated posit
// datapaths generated with PACoGen. This is a bit-accurate software model
// of standard posits:
//   * configurable width n (2..32) and exponent size es (0..3);
//   * tapered precision: a unary regime field trades range against
//     fraction bits, so precision is highest near 1.0 — attractive for
//     probabilities;
//   * no underflow to zero / no overflow to infinity: results saturate at
//     minpos/maxpos, which is why deep SPN products never vanish in posit
//     arithmetic (the property [4] measures against CFP/LNS).
//
// Values here are non-negative probabilities; negative operands are
// supported through the standard two's-complement encoding nonetheless.
// NaR is produced only for operations on NaR.
#pragma once

#include <cstdint>
#include <string>

#include "spnhbm/util/error.hpp"

namespace spnhbm::arith {

struct PositFormat {
  int width = 32;          ///< total bits (n)
  int exponent_size = 2;   ///< es

  void validate() const {
    SPNHBM_REQUIRE(width >= 3 && width <= 32, "posit width out of range");
    SPNHBM_REQUIRE(exponent_size >= 0 && exponent_size <= 3,
                   "posit es out of range");
  }
  /// useed = 2^(2^es): one regime step scales by this factor.
  std::int64_t useed_log2() const { return std::int64_t{1} << exponent_size; }
  /// Largest representable scale exponent: (n-2) * 2^es.
  std::int64_t max_scale() const { return (width - 2) * useed_log2(); }

  std::string describe() const;
  bool operator==(const PositFormat&) const = default;
};

/// The posit operators over one format, validated once at construction so
/// the per-operation entry points skip the check. The free posit_*
/// functions wrap a fresh PositOps and so validate per call.
class PositOps {
 public:
  explicit PositOps(PositFormat format) : format_(format) {
    format_.validate();
  }

  const PositFormat& format() const { return format_; }

  std::uint32_t encode(double value) const;
  double decode(std::uint32_t bits) const;
  std::uint32_t add(std::uint32_t a, std::uint32_t b) const;
  std::uint32_t mul(std::uint32_t a, std::uint32_t b) const;

 private:
  PositFormat format_;
};

/// Bit patterns are kept in the low `width` bits of a uint32.
std::uint32_t posit_encode(const PositFormat& format, double value);
double posit_decode(const PositFormat& format, std::uint32_t bits);
std::uint32_t posit_add(const PositFormat& format, std::uint32_t a,
                        std::uint32_t b);
std::uint32_t posit_mul(const PositFormat& format, std::uint32_t a,
                        std::uint32_t b);

/// Special values.
std::uint32_t posit_zero(const PositFormat& format);
std::uint32_t posit_nar(const PositFormat& format);
/// Largest / smallest positive representable values (saturation targets).
double posit_maxpos(const PositFormat& format);
double posit_minpos(const PositFormat& format);

}  // namespace spnhbm::arith
