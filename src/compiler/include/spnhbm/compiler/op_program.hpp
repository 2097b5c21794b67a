// The functional executor every engine runs a compiled datapath through.
//
// DatapathModule::evaluate is the readable scalar oracle: one sample, one
// virtual ArithBackend call per op, every leaf and constant encoded from
// double on the fly. OpProgram computes the same bits, restructured
// around the data instead of the object model:
//   * leaf tables and sum-weight constants are encoded once, at build;
//   * the format is validated once and the concrete operators (float64,
//     CFP, LNS, posit) are instantiated as templates, so there is no
//     per-op virtual call or validation;
//   * ops run over struct-of-arrays lanes of kLanes samples, so the op
//     dispatch is paid once per lane group, not once per sample;
//   * sparse samples are densified per lane group from the decoded CSR,
//     so dense and sparse share one path.
// A program runs on the calling thread; callers that want several cores
// split the batch themselves (engine::CpuEngine does, on its own pool).
// Every lookup keeps the oracle's range check: a feature byte outside its
// table throws "feature byte outside lookup table".
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "spnhbm/arith/backend.hpp"
#include "spnhbm/compiler/datapath.hpp"

namespace spnhbm::compiler {

struct SparseBatch;

class OpProgram {
 public:
  /// Samples evaluated together, op by op.
  static constexpr std::size_t kLanes = 8;

  /// Pre-encodes `module` for `backend`'s format. The program copies what
  /// it needs: it does not reference the module or the backend afterwards.
  OpProgram(const DatapathModule& module, const arith::ArithBackend& backend);

  std::size_t input_features() const { return features_; }

  /// Evaluates `results.size()` dense rows of input_features() bytes.
  void evaluate(std::span<const std::uint8_t> rows,
                std::span<double> results) const;
  /// A decoded sparse batch against the module's default evidence; same
  /// bits as evaluating its densified rows.
  void evaluate(const SparseBatch& batch, std::span<double> results) const;

 private:
  struct Step {
    OpKind kind = OpKind::kMul;
    /// Producer ops; for a lookup, lhs is the feature and rhs the table.
    std::uint32_t lhs = 0;
    std::uint32_t rhs = 0;
    /// kConstMul: the encoded weight.
    std::uint64_t constant = 0;
  };
  /// IEEE double, as the float64 backend computes it.
  struct Float64Ops {
    static std::uint64_t encode(double value) {
      return std::bit_cast<std::uint64_t>(value);
    }
    static double decode(std::uint64_t bits) {
      return std::bit_cast<double>(bits);
    }
    static std::uint64_t add(std::uint64_t a, std::uint64_t b) {
      return encode(decode(a) + decode(b));
    }
    static std::uint64_t mul(std::uint64_t a, std::uint64_t b) {
      return encode(decode(a) * decode(b));
    }
  };
  /// The concrete operators of the backend's format. PositOps takes the
  /// low 32 bits of each value, exactly as the posit backend does.
  using Ops =
      std::variant<Float64Ops, arith::CfpOps, arith::LnsContext, arith::PositOps>;

  /// Evaluates samples [0, results.size()) of `source` into `results`.
  template <typename Source>
  void run_range(const Source& source, std::span<double> results) const;
  /// Runs every op over one lane group (all kLanes lanes when kFull).
  template <bool kFull, typename Arith>
  void run_group(const Arith& arith, const std::uint8_t* const* rows,
                 std::size_t lanes, std::uint64_t* values,
                 double* results) const;

  std::size_t features_ = 0;
  std::uint32_t result_ = 0;
  std::vector<Step> steps_;
  /// 256 encoded entries per table (zero-padded past its size).
  std::vector<std::uint64_t> tables_;
  std::vector<std::uint32_t> table_sizes_;
  std::vector<std::uint8_t> defaults_;
  Ops ops_;
};

}  // namespace spnhbm::compiler
