#include "spnhbm/compiler/op_program.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "spnhbm/compiler/sparse_evidence.hpp"
#include "spnhbm/util/error.hpp"

namespace spnhbm::compiler {

namespace {

/// Entries per encoded lookup table: the whole byte domain.
constexpr std::size_t kTableStride = 256;

/// Row sources for run_range: each points one row per lane at the bytes
/// of samples [begin, begin + lanes).
struct DenseRows {
  const std::uint8_t* data;
  std::size_t features;

  void fill(std::size_t begin, std::size_t lanes, std::uint8_t* /*scratch*/,
            const std::uint8_t** rows) const {
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      rows[lane] = data + (begin + lane) * features;
    }
  }
};

/// Densifies each sparse sample into a scratch row: the defaults, then
/// the sample's pairs — the bytes SampleView::operator[] would read.
struct SparseRows {
  const SparseBatch& batch;
  std::span<const std::uint8_t> defaults;

  void fill(std::size_t begin, std::size_t lanes, std::uint8_t* scratch,
            const std::uint8_t** rows) const {
    const std::size_t features = defaults.size();
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      std::uint8_t* row = scratch + lane * features;
      std::memcpy(row, defaults.data(), features);
      const std::size_t s = begin + lane;
      for (std::uint32_t k = batch.offsets[s]; k < batch.offsets[s + 1]; ++k) {
        // decode_sparse and add_sample guarantee this; the scratch row
        // must not be overrun by a batch assembled by hand.
        SPNHBM_REQUIRE(batch.indices[k] < features,
                       "sparse index outside the feature range");
        row[batch.indices[k]] = batch.values[k];
      }
      rows[lane] = row;
    }
  }
};

}  // namespace

OpProgram::OpProgram(const DatapathModule& module,
                     const arith::ArithBackend& backend)
    : features_(module.input_features()),
      result_(module.result_op()),
      defaults_(module.default_evidence()),
      ops_(std::visit(
          [](const auto& format) -> Ops {
            using Format = std::decay_t<decltype(format)>;
            if constexpr (std::is_same_v<Format, std::monostate>) {
              return Float64Ops{};
            } else if constexpr (std::is_same_v<Format, arith::CfpFormat>) {
              return arith::CfpOps(format);
            } else if constexpr (std::is_same_v<Format, arith::LnsFormat>) {
              return arith::LnsContext(format);
            } else {
              return arith::PositOps(format);
            }
          },
          backend.format())) {
  std::visit(
      [&](const auto& arith) {
        const auto& tables = module.tables();
        tables_.assign(tables.size() * kTableStride, 0);
        table_sizes_.reserve(tables.size());
        for (std::size_t t = 0; t < tables.size(); ++t) {
          const auto& probabilities = tables[t].probability_by_byte;
          // Bytes past a wider table can never be read: clamp to a byte.
          const std::size_t size =
              std::min(probabilities.size(), kTableStride);
          for (std::size_t byte = 0; byte < size; ++byte) {
            tables_[t * kTableStride + byte] = arith.encode(probabilities[byte]);
          }
          table_sizes_.push_back(static_cast<std::uint32_t>(size));
        }
        steps_.reserve(module.ops().size());
        for (const DatapathOp& op : module.ops()) {
          Step step;
          step.kind = op.kind;
          if (op.kind == OpKind::kHistogramLookup) {
            step.lhs = op.variable;
            step.rhs = op.table_index;
          } else if (op.kind == OpKind::kConstMul) {
            step.lhs = op.lhs;
            step.constant = arith.encode(op.constant);
          } else {
            step.lhs = op.lhs;
            step.rhs = op.rhs;
          }
          steps_.push_back(step);
        }
      },
      ops_);
}

void OpProgram::evaluate(std::span<const std::uint8_t> rows,
                         std::span<double> results) const {
  SPNHBM_REQUIRE(rows.size() == results.size() * features_,
                 "rows/results size mismatch");
  run_range(DenseRows{rows.data(), features_}, results);
}

void OpProgram::evaluate(const SparseBatch& batch,
                         std::span<double> results) const {
  SPNHBM_REQUIRE(batch.features == features_ &&
                     batch.sample_count() == results.size(),
                 "sparse batch does not match the program");
  run_range(SparseRows{batch, defaults_}, results);
}

template <typename Source>
void OpProgram::run_range(const Source& source,
                          std::span<double> results) const {
  std::vector<std::uint64_t> values(steps_.size() * kLanes);
  std::vector<std::uint8_t> scratch(
      std::is_same_v<Source, SparseRows> ? kLanes * features_ : 0);
  const std::uint8_t* rows[kLanes] = {};
  std::visit(
      [&](const auto& arith) {
        for (std::size_t group = 0; group < results.size(); group += kLanes) {
          const std::size_t lanes = std::min(kLanes, results.size() - group);
          source.fill(group, lanes, scratch.data(), rows);
          if (lanes == kLanes) {
            run_group<true>(arith, rows, lanes, values.data(), &results[group]);
          } else {
            run_group<false>(arith, rows, lanes, values.data(),
                             &results[group]);
          }
        }
      },
      ops_);
}

template <bool kFull, typename Arith>
void OpProgram::run_group(const Arith& arith, const std::uint8_t* const* rows,
                          std::size_t lanes, std::uint64_t* values,
                          double* results) const {
  const std::size_t n = kFull ? kLanes : lanes;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const Step& step = steps_[i];
    std::uint64_t* out = values + i * kLanes;
    if (step.kind == OpKind::kHistogramLookup) {
      const std::uint64_t* table = tables_.data() + step.rhs * kTableStride;
      const std::uint32_t size = table_sizes_[step.rhs];
      for (std::size_t lane = 0; lane < n; ++lane) {
        const std::uint8_t byte = rows[lane][step.lhs];
        SPNHBM_REQUIRE(byte < size, "feature byte outside lookup table");
        out[lane] = table[byte];
      }
      continue;
    }
    const std::uint64_t* lhs = values + step.lhs * kLanes;
    const std::uint64_t* rhs = values + step.rhs * kLanes;
    switch (step.kind) {
      case OpKind::kMul:
        for (std::size_t lane = 0; lane < n; ++lane) {
          out[lane] = arith.mul(lhs[lane], rhs[lane]);
        }
        break;
      case OpKind::kConstMul:
        for (std::size_t lane = 0; lane < n; ++lane) {
          out[lane] = arith.mul(lhs[lane], step.constant);
        }
        break;
      case OpKind::kAdd:
        for (std::size_t lane = 0; lane < n; ++lane) {
          out[lane] = arith.add(lhs[lane], rhs[lane]);
        }
        break;
      case OpKind::kMax:
        // ArithBackend::max: the winner's encoding, compared decoded.
        for (std::size_t lane = 0; lane < n; ++lane) {
          out[lane] = arith.decode(lhs[lane]) >= arith.decode(rhs[lane])
                          ? lhs[lane]
                          : rhs[lane];
        }
        break;
      case OpKind::kHistogramLookup:
        break;
    }
  }
  const std::uint64_t* root = values + std::size_t{result_} * kLanes;
  for (std::size_t lane = 0; lane < n; ++lane) {
    results[lane] = arith.decode(root[lane]);
  }
}

}  // namespace spnhbm::compiler
