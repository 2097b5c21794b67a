#include "spnhbm/arith/posit.hpp"

#include <cmath>

#include "spnhbm/util/strings.hpp"

namespace spnhbm::arith {

namespace {

struct Unpacked {
  bool is_zero = false;
  bool is_nar = false;
  bool sign = false;
  std::int64_t scale = 0;        // k * 2^es + e
  std::uint64_t significand = 0;  // hidden one at bit 63
};

std::uint32_t width_mask(const PositFormat& format) {
  return format.width == 32 ? 0xFFFFFFFFu
                            : ((1u << format.width) - 1u);
}

std::uint32_t sign_bit(const PositFormat& format) {
  return 1u << (format.width - 1);
}

Unpacked unpack(const PositFormat& format, std::uint32_t bits) {
  bits &= width_mask(format);
  Unpacked u;
  if (bits == 0) {
    u.is_zero = true;
    return u;
  }
  if (bits == sign_bit(format)) {
    u.is_nar = true;
    return u;
  }
  u.sign = (bits & sign_bit(format)) != 0;
  if (u.sign) {
    bits = (~bits + 1u) & width_mask(format);  // two's complement magnitude
  }
  // Walk the regime starting below the sign bit.
  const int body_bits = format.width - 1;
  int position = body_bits - 1;  // index within the body (0-based from lsb)
  const auto bit_at = [&](int index) -> int {
    return index >= 0 ? static_cast<int>((bits >> index) & 1u) : 0;
  };
  const int regime_bit = bit_at(position);
  int run = 0;
  while (position - run >= 0 && bit_at(position - run) == regime_bit) ++run;
  const std::int64_t k = regime_bit == 1 ? run - 1 : -run;
  position -= run;  // now at the regime terminator (or past the end)
  position -= 1;    // skip the terminator

  // Exponent bits (missing low bits are zero).
  std::int64_t exponent = 0;
  for (int e = 0; e < format.exponent_size; ++e) {
    exponent = (exponent << 1) | bit_at(position);
    --position;
  }
  u.scale = k * format.useed_log2() + exponent;

  // Fraction: remaining `position + 1` bits, hidden one at bit 63.
  u.significand = 1ull << 63;
  if (position >= 0) {
    const std::uint64_t fraction = bits & ((1u << (position + 1)) - 1u);
    u.significand |= fraction << (63 - (position + 1));
  }
  return u;
}

/// Packs (sign, scale, significand with hidden one at bit 63, sticky) into
/// a posit with correct tapered rounding: the unbounded body bit string is
/// rounded as an integer to `width-1` bits, nearest-even.
std::uint32_t pack(const PositFormat& format, bool sign, std::int64_t scale,
                   std::uint64_t significand, bool sticky) {
  // Saturate the scale: posits never overflow/underflow past
  // maxpos/minpos.
  bool saturated_significand = false;
  if (scale > format.max_scale()) {
    scale = format.max_scale();
    significand = 1ull << 63;  // maxpos has an empty fraction
    sticky = false;
    saturated_significand = true;
  } else if (scale < -format.max_scale()) {
    scale = -format.max_scale();
    significand = 1ull << 63;
    sticky = false;
    saturated_significand = true;
  }

  const std::int64_t useed_log2 = format.useed_log2();
  std::int64_t k = scale >= 0 ? scale / useed_log2
                              : -(((-scale) + useed_log2 - 1) / useed_log2);
  const std::int64_t exponent = scale - k * useed_log2;  // in [0, 2^es)

  // Build the unbounded body: regime, exponent, fraction.
  unsigned __int128 body = 0;
  int body_length = 0;
  const auto push_bit = [&](int bit) {
    body = (body << 1) | static_cast<unsigned>(bit);
    ++body_length;
  };
  if (k >= 0) {
    for (std::int64_t i = 0; i <= k; ++i) push_bit(1);
    push_bit(0);
  } else {
    for (std::int64_t i = 0; i < -k; ++i) push_bit(0);
    push_bit(1);
  }
  for (int e = format.exponent_size - 1; e >= 0; --e) {
    push_bit(static_cast<int>((exponent >> e) & 1));
  }
  // Fraction bits (without the hidden one), highest first.
  const std::uint64_t fraction = significand << 1;  // drop hidden bit
  for (int f = 63; f >= 1; --f) {
    push_bit(static_cast<int>((fraction >> f) & 1));
  }

  // Round the body to width-1 bits, nearest-even with sticky.
  const int keep = format.width - 1;
  std::uint32_t rounded;
  if (body_length <= keep) {
    rounded = static_cast<std::uint32_t>(body << (keep - body_length));
  } else {
    const int drop = body_length - keep;
    const unsigned __int128 dropped_mask =
        (static_cast<unsigned __int128>(1) << drop) - 1;
    const unsigned __int128 dropped = body & dropped_mask;
    rounded = static_cast<std::uint32_t>(body >> drop);
    const unsigned __int128 half = static_cast<unsigned __int128>(1)
                                   << (drop - 1);
    const bool guard = (dropped & half) != 0;
    const bool rest = ((dropped & (half - 1)) != 0) || sticky;
    if (guard && (rest || (rounded & 1u))) {
      ++rounded;
    }
  }
  // Never round past maxpos or down to zero.
  (void)saturated_significand;
  const std::uint32_t maxpos = sign_bit(format) - 1u;
  if (rounded > maxpos) rounded = maxpos;
  if (rounded == 0) rounded = 1u;  // minpos

  if (sign) {
    rounded = (~rounded + 1u) & width_mask(format);
  }
  return rounded;
}

Unpacked unpack_double(double value) {
  Unpacked u;
  if (value == 0.0) {
    u.is_zero = true;
    return u;
  }
  if (std::isnan(value)) {
    u.is_nar = true;
    return u;
  }
  u.sign = std::signbit(value);
  if (std::isinf(value)) {
    u.scale = 1 << 20;  // saturates in pack()
    u.significand = 1ull << 63;
    return u;
  }
  int exponent = 0;
  const double fraction = std::frexp(std::fabs(value), &exponent);
  // fraction in [0.5, 1): significand = fraction * 2^64, hidden at bit 63.
  u.significand = static_cast<std::uint64_t>(std::ldexp(fraction, 64));
  u.scale = exponent - 1;
  return u;
}

}  // namespace

std::string PositFormat::describe() const {
  return strformat("posit<%d,%d>", width, exponent_size);
}

std::uint32_t posit_zero(const PositFormat& format) {
  format.validate();
  return 0;
}

std::uint32_t posit_nar(const PositFormat& format) {
  format.validate();
  return sign_bit(format);
}

double posit_maxpos(const PositFormat& format) {
  format.validate();
  return std::ldexp(1.0, static_cast<int>(format.max_scale()));
}

double posit_minpos(const PositFormat& format) {
  format.validate();
  return std::ldexp(1.0, -static_cast<int>(format.max_scale()));
}

std::uint32_t PositOps::encode(double value) const {
  const PositFormat& format = format_;
  const Unpacked u = unpack_double(value);
  if (u.is_zero) return 0;
  if (u.is_nar) return sign_bit(format);
  return pack(format, u.sign, u.scale, u.significand, false);
}

double PositOps::decode(std::uint32_t bits) const {
  const PositFormat& format = format_;
  const Unpacked u = unpack(format, bits);
  if (u.is_zero) return 0.0;
  if (u.is_nar) return std::nan("");
  const double magnitude =
      std::ldexp(static_cast<double>(u.significand),
                 static_cast<int>(u.scale) - 63);
  return u.sign ? -magnitude : magnitude;
}

std::uint32_t PositOps::mul(std::uint32_t a, std::uint32_t b) const {
  const PositFormat& format = format_;
  const Unpacked ua = unpack(format, a);
  const Unpacked ub = unpack(format, b);
  if (ua.is_nar || ub.is_nar) return sign_bit(format);
  if (ua.is_zero || ub.is_zero) return 0;
  const bool sign = ua.sign != ub.sign;
  unsigned __int128 product =
      static_cast<unsigned __int128>(ua.significand) * ub.significand;
  // product in [2^126, 2^128)
  std::int64_t scale = ua.scale + ub.scale;
  std::uint64_t significand;
  bool sticky;
  if ((product >> 127) != 0) {
    significand = static_cast<std::uint64_t>(product >> 64);
    sticky = static_cast<std::uint64_t>(product) != 0;
    scale += 1;
  } else {
    significand = static_cast<std::uint64_t>(product >> 63);
    sticky = (static_cast<std::uint64_t>(product) & ((1ull << 63) - 1)) != 0;
  }
  return pack(format, sign, scale, significand, sticky);
}

std::uint32_t PositOps::add(std::uint32_t a, std::uint32_t b) const {
  const PositFormat& format = format_;
  Unpacked ua = unpack(format, a);
  Unpacked ub = unpack(format, b);
  if (ua.is_nar || ub.is_nar) return sign_bit(format);
  if (ua.is_zero) return b & width_mask(format);
  if (ub.is_zero) return a & width_mask(format);

  // Order by magnitude: (scale, significand).
  if (ua.scale < ub.scale ||
      (ua.scale == ub.scale && ua.significand < ub.significand)) {
    std::swap(ua, ub);
  }
  const std::int64_t d = ua.scale - ub.scale;
  unsigned __int128 big = static_cast<unsigned __int128>(ua.significand) << 32;
  unsigned __int128 small =
      static_cast<unsigned __int128>(ub.significand) << 32;
  bool sticky = false;
  if (d > 0) {
    if (d >= 96) {
      sticky = small != 0;
      small = 0;
    } else {
      sticky = (small & ((static_cast<unsigned __int128>(1) << d) - 1)) != 0;
      small >>= d;
    }
  }

  std::int64_t scale = ua.scale;
  bool sign = ua.sign;
  unsigned __int128 sum;
  if (ua.sign == ub.sign) {
    sum = big + small;
    if ((sum >> 96) != 0) {  // carried past the hidden position (bit 95)
      sticky = sticky || (sum & 1) != 0;
      sum >>= 1;
      scale += 1;
    }
  } else {
    sum = big - small;
    if (sum == 0 && !sticky) return 0;  // exact cancellation
    while ((sum >> 95) == 0) {
      sum <<= 1;
      scale -= 1;
    }
  }
  const auto significand = static_cast<std::uint64_t>(sum >> 32);
  sticky = sticky ||
           (static_cast<std::uint64_t>(sum) & 0xFFFFFFFFull) != 0;
  return pack(format, sign, scale, significand, sticky);
}

std::uint32_t posit_encode(const PositFormat& format, double value) {
  return PositOps(format).encode(value);
}

double posit_decode(const PositFormat& format, std::uint32_t bits) {
  return PositOps(format).decode(bits);
}

std::uint32_t posit_mul(const PositFormat& format, std::uint32_t a,
                        std::uint32_t b) {
  return PositOps(format).mul(a, b);
}

std::uint32_t posit_add(const PositFormat& format, std::uint32_t a,
                        std::uint32_t b) {
  return PositOps(format).add(a, b);
}

}  // namespace spnhbm::arith
