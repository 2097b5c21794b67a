// Uniform interface over the number formats the datapath generator supports.
//
// The compiler picks a backend (CFP, LNS, posit, or float64 for
// reference/baseline designs); the scalar reference evaluator runs every
// sum/product operator through this interface, bit-accurately in the
// chosen format, and the lane-batched executor (compiler::OpProgram)
// instantiates the same operators from `format()`. Latencies feed the
// pipeline scheduler; resource costs live in the FPGA cost model
// (`spnhbm/fpga/resource_model.hpp`), keyed by `kind()`.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>

#include "spnhbm/arith/cfp.hpp"
#include "spnhbm/arith/lns.hpp"
#include "spnhbm/arith/posit.hpp"

namespace spnhbm::arith {

enum class FormatKind { kFloat64, kCfp, kLns, kPosit };

const char* format_kind_name(FormatKind kind);

/// A backend's number format: none for float64, else the validated
/// format it was built with. Lets an executor instantiate the concrete
/// operators once instead of dispatching through the backend per op.
using NumberFormat =
    std::variant<std::monostate, CfpFormat, LnsFormat, PositFormat>;

class ArithBackend {
 public:
  virtual ~ArithBackend() = default;

  virtual FormatKind kind() const = 0;
  virtual std::string describe() const = 0;
  /// Storage width of one value in bits.
  virtual int width_bits() const = 0;
  /// The validated format behind this backend (monostate for float64).
  virtual NumberFormat format() const = 0;

  virtual std::uint64_t encode(double value) const = 0;
  virtual double decode(std::uint64_t bits) const = 0;
  virtual std::uint64_t add(std::uint64_t a, std::uint64_t b) const = 0;
  virtual std::uint64_t mul(std::uint64_t a, std::uint64_t b) const = 0;
  /// max(a, b) in the format — the sum-node operator of a max-product
  /// (MPE) datapath. Every supported format orders like its decoded
  /// value, so the default compares decoded operands and returns the
  /// winning encoding unchanged (bit-exact: no re-round happens).
  virtual std::uint64_t max(std::uint64_t a, std::uint64_t b) const {
    return decode(a) >= decode(b) ? a : b;
  }

  /// Pipeline latency of the operator in PE clock cycles (feeds the
  /// datapath scheduler; values follow the FCCM'20 / FPT'19 operator
  /// implementations).
  virtual int add_latency_cycles() const = 0;
  virtual int mul_latency_cycles() const = 0;
  /// A max unit is a comparator + mux: one cycle in every format.
  virtual int max_latency_cycles() const { return 1; }

  /// Smallest representable positive value (for underflow analyses).
  virtual double min_positive() const = 0;
};

/// IEEE double reference backend (models the prior-work [8] datapaths,
/// which used double-precision Vivado floating-point cores).
std::unique_ptr<ArithBackend> make_float64_backend();

std::unique_ptr<ArithBackend> make_cfp_backend(CfpFormat format);

std::unique_ptr<ArithBackend> make_lns_backend(LnsFormat format);

std::unique_ptr<ArithBackend> make_posit_backend(PositFormat format);

/// The CFP configuration the paper adopts from [4] for its datapaths
/// (unsigned, 8-bit exponent / 22-bit mantissa, round-to-nearest-even).
CfpFormat paper_cfp_format();

/// The LNS configuration from [11] (8 integer / 22 fraction bits, 2^11 LUT).
LnsFormat paper_lns_format();

/// The PACoGen posit configuration evaluated in [4] (posit<32,2>).
PositFormat paper_posit_format();

}  // namespace spnhbm::arith
