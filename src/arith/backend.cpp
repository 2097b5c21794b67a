#include "spnhbm/arith/backend.hpp"

#include <bit>
#include <cmath>
#include <limits>

namespace spnhbm::arith {

const char* format_kind_name(FormatKind kind) {
  switch (kind) {
    case FormatKind::kFloat64: return "float64";
    case FormatKind::kCfp: return "cfp";
    case FormatKind::kLns: return "lns";
    case FormatKind::kPosit: return "posit";
  }
  return "?";
}

namespace {

class Float64Backend final : public ArithBackend {
 public:
  FormatKind kind() const override { return FormatKind::kFloat64; }
  std::string describe() const override { return "float64"; }
  int width_bits() const override { return 64; }
  NumberFormat format() const override { return std::monostate{}; }

  std::uint64_t encode(double value) const override {
    return std::bit_cast<std::uint64_t>(value);
  }
  double decode(std::uint64_t bits) const override {
    return std::bit_cast<double>(bits);
  }
  std::uint64_t add(std::uint64_t a, std::uint64_t b) const override {
    return encode(decode(a) + decode(b));
  }
  std::uint64_t mul(std::uint64_t a, std::uint64_t b) const override {
    return encode(decode(a) * decode(b));
  }
  // Vivado double-precision FP cores: deep pipelines (the reason [8]'s
  // datapaths were long and resource-hungry).
  int add_latency_cycles() const override { return 14; }
  int mul_latency_cycles() const override { return 15; }
  double min_positive() const override {
    return std::numeric_limits<double>::min();
  }
};

// CFP and posit validate their format once here; the per-op calls go
// through the pre-validated operator sets.
class CfpBackend final : public ArithBackend {
 public:
  explicit CfpBackend(CfpFormat format) : ops_(format) {}

  FormatKind kind() const override { return FormatKind::kCfp; }
  std::string describe() const override { return ops_.format().describe(); }
  int width_bits() const override { return ops_.format().total_bits(); }
  NumberFormat format() const override { return ops_.format(); }

  std::uint64_t encode(double value) const override {
    return ops_.encode(value);
  }
  double decode(std::uint64_t bits) const override { return ops_.decode(bits); }
  std::uint64_t add(std::uint64_t a, std::uint64_t b) const override {
    return ops_.add(a, b);
  }
  std::uint64_t mul(std::uint64_t a, std::uint64_t b) const override {
    return ops_.mul(a, b);
  }
  // FCCM'20 operators: shallow pipelines tuned for the 225 MHz target.
  int add_latency_cycles() const override { return 4; }
  int mul_latency_cycles() const override { return 5; }
  double min_positive() const override {
    return cfp_min_positive(ops_.format());
  }

 private:
  CfpOps ops_;
};

class LnsBackend final : public ArithBackend {
 public:
  explicit LnsBackend(LnsFormat format) : context_(format) {}

  FormatKind kind() const override { return FormatKind::kLns; }
  std::string describe() const override { return context_.format().describe(); }
  int width_bits() const override { return context_.format().total_bits(); }
  NumberFormat format() const override { return context_.format(); }

  std::uint64_t encode(double value) const override {
    return context_.encode(value);
  }
  double decode(std::uint64_t bits) const override {
    return context_.decode(bits);
  }
  std::uint64_t add(std::uint64_t a, std::uint64_t b) const override {
    return context_.add(a, b);
  }
  std::uint64_t mul(std::uint64_t a, std::uint64_t b) const override {
    return context_.mul(a, b);
  }
  // LNS: mul is a fixed-point add (1 cycle); add needs the Δ-LUT path.
  int add_latency_cycles() const override { return 6; }
  int mul_latency_cycles() const override { return 1; }
  double min_positive() const override { return context_.min_positive(); }

 private:
  LnsContext context_;
};

class PositBackend final : public ArithBackend {
 public:
  explicit PositBackend(PositFormat format) : ops_(format) {}

  FormatKind kind() const override { return FormatKind::kPosit; }
  std::string describe() const override { return ops_.format().describe(); }
  int width_bits() const override { return ops_.format().width; }
  NumberFormat format() const override { return ops_.format(); }

  std::uint64_t encode(double value) const override {
    return ops_.encode(value);
  }
  double decode(std::uint64_t bits) const override {
    return ops_.decode(static_cast<std::uint32_t>(bits));
  }
  std::uint64_t add(std::uint64_t a, std::uint64_t b) const override {
    return ops_.add(static_cast<std::uint32_t>(a),
                    static_cast<std::uint32_t>(b));
  }
  std::uint64_t mul(std::uint64_t a, std::uint64_t b) const override {
    return ops_.mul(static_cast<std::uint32_t>(a),
                    static_cast<std::uint32_t>(b));
  }
  // PACoGen operators: regime decode/encode adds stages over CFP ([4]).
  int add_latency_cycles() const override { return 7; }
  int mul_latency_cycles() const override { return 8; }
  double min_positive() const override { return posit_minpos(ops_.format()); }

 private:
  PositOps ops_;
};

}  // namespace

std::unique_ptr<ArithBackend> make_float64_backend() {
  return std::make_unique<Float64Backend>();
}

std::unique_ptr<ArithBackend> make_cfp_backend(CfpFormat format) {
  return std::make_unique<CfpBackend>(format);
}

std::unique_ptr<ArithBackend> make_lns_backend(LnsFormat format) {
  return std::make_unique<LnsBackend>(format);
}

CfpFormat paper_cfp_format() {
  CfpFormat format;
  format.exponent_bits = 8;
  format.mantissa_bits = 22;
  format.has_sign = false;
  format.rounding = Rounding::kNearestEven;
  return format;
}

std::unique_ptr<ArithBackend> make_posit_backend(PositFormat format) {
  return std::make_unique<PositBackend>(format);
}

LnsFormat paper_lns_format() {
  LnsFormat format;
  format.integer_bits = 8;
  format.fraction_bits = 22;
  format.lut_address_bits = 11;
  return format;
}

PositFormat paper_posit_format() {
  PositFormat format;
  format.width = 32;
  format.exponent_size = 2;
  return format;
}

}  // namespace spnhbm::arith
