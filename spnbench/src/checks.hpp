// Output checks: no number is reported from wrong bits.
//
//   * bit-exact: a served value must equal the bit-accurate evaluator
//     (DatapathModule::evaluate) on the same row, bit for bit;
//   * tolerance: a served value must be non-zero, finite and within the
//     CFP rounding bound of the float64 evaluation of the same datapath;
//   * digest: an order-sensitive hash of result bits, so two encodings of
//     the same queries can be compared for bit equality;
//   * books: every request sent is answered exactly once, OK or failed.
#pragma once

#include <cstdint>
#include <span>

#include "spnhbm/compiler/datapath.hpp"

namespace spnbench {

/// Relative error bound of a CFP datapath against float64: every operator
/// rounds once to `mantissa_bits`, so the first-order bound is the number
/// of operators times the unit roundoff 2^-(mantissa_bits + 1).
double cfp_relative_tolerance(const spnhbm::compiler::DatapathModule& module,
                              int mantissa_bits);

/// True when `value` is finite, non-zero and within `tolerance` relative
/// error of `reference`.
bool within_tolerance(double value, double reference, double tolerance);

/// Values of `got` that fail within_tolerance against `reference`
/// (element-wise; a length mismatch counts every unmatched element).
std::size_t count_out_of_tolerance(std::span<const double> got,
                                   std::span<const double> reference,
                                   double tolerance);

/// Values of `got` whose bit pattern differs from `expected`
/// (element-wise; a length mismatch counts every unmatched element).
std::size_t count_bit_mismatches(std::span<const double> got,
                                 std::span<const double> expected);

/// FNV-1a over the IEEE bit patterns of `values`, chained from `state`.
std::uint64_t digest(std::span<const double> values,
                     std::uint64_t state = 0xcbf29ce484222325ull);

/// Request books: sent = ok + failed must hold once every answer is in.
struct Books {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;

  bool balanced() const { return sent == ok + failed; }
};

}  // namespace spnbench
