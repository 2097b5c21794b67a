// OpProgram must be bit-identical to the scalar oracle
// DatapathModule::evaluate: every format x query x encoding, the NIPS
// suite, lane remainders, and the lookup range check.
#include "spnhbm/compiler/op_program.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <stdexcept>
#include <string>

#include "spnhbm/compiler/sparse_evidence.hpp"
#include "spnhbm/spn/random_spn.hpp"
#include "spnhbm/util/rng.hpp"
#include "spnhbm/workload/model_zoo.hpp"

namespace spnhbm::compiler {
namespace {

constexpr std::size_t kVars = 8;

std::vector<std::unique_ptr<arith::ArithBackend>> all_backends() {
  std::vector<std::unique_ptr<arith::ArithBackend>> backends;
  backends.push_back(arith::make_float64_backend());
  backends.push_back(arith::make_cfp_backend(arith::paper_cfp_format()));
  backends.push_back(arith::make_lns_backend(arith::paper_lns_format()));
  backends.push_back(arith::make_posit_backend(arith::paper_posit_format()));
  return backends;
}

DatapathModule random_module(const arith::ArithBackend& backend,
                             QueryKind query, std::uint64_t seed) {
  spn::RandomSpnConfig config;
  config.variables = kVars;
  config.leaf_domain = kMissingByte;
  config.seed = seed;
  CompileOptions options;
  options.query = query;
  options.input_domain = kMissingByte;
  return compile_spn(spn::make_random_spn(config), backend, options);
}

/// Rows of bytes below `domain`; with `missing`, a third are kMissingByte.
std::vector<std::uint8_t> random_rows(std::size_t count, std::size_t features,
                                      std::size_t domain, bool missing,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> rows(count * features);
  for (auto& byte : rows) {
    byte = missing && rng.next_below(3) == 0
               ? kMissingByte
               : static_cast<std::uint8_t>(rng.next_below(domain));
  }
  return rows;
}

std::vector<double> oracle(const DatapathModule& module,
                           const arith::ArithBackend& backend,
                           std::span<const std::uint8_t> rows) {
  const std::size_t features = module.input_features();
  std::vector<double> results(rows.size() / features);
  for (std::size_t i = 0; i < results.size(); ++i) {
    results[i] = module.evaluate(backend, rows.subspan(i * features, features));
  }
  return results;
}

void expect_bit_equal(const std::vector<double>& got,
                      const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " sample " << i << ": " << got[i] << " vs " << want[i];
  }
}

TEST(OpProgram, BitIdenticalForEveryFormatQueryAndEncoding) {
  for (const auto& backend : all_backends()) {
    for (const QueryKind query :
         {QueryKind::kJoint, QueryKind::kMarginal, QueryKind::kMpe}) {
      const DatapathModule module = random_module(*backend, query, 7);
      const OpProgram& program = module.program(*backend);
      const std::string what = backend->describe() + " " +
                               query_kind_name(query);
      const auto rows = random_rows(61, kVars, kMissingByte,
                                    query != QueryKind::kJoint, 11);
      const auto want = oracle(module, *backend, rows);

      std::vector<double> dense(want.size());
      program.evaluate(rows, dense);
      expect_bit_equal(dense, want, what + " dense");

      // Sparse: the oracle reads the CSR through SampleView's lookups,
      // the program densifies per lane group.
      const SparseBatch batch =
          sparse_from_dense(rows, kVars, module.default_evidence());
      std::vector<double> sparse_want(want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        sparse_want[i] = module.evaluate(
            *backend, batch.view(i, module.default_evidence()));
      }
      std::vector<double> sparse(want.size());
      program.evaluate(batch, sparse);
      expect_bit_equal(sparse, sparse_want, what + " sparse");
      expect_bit_equal(sparse, want, what + " sparse vs dense");
    }
  }
}

TEST(OpProgram, BitIdenticalOverTheNipsSuite) {
  const auto backends = all_backends();
  std::uint64_t seed = 1;
  for (const auto& nips : workload::make_nips_suite()) {
    for (const auto& backend : backends) {
      const DatapathModule module = compile_spn(nips.spn, *backend);
      const auto rows =
          random_rows(24, module.input_features(), 256, false, ++seed);
      std::vector<double> got(24);
      module.program(*backend).evaluate(rows, got);
      expect_bit_equal(got, oracle(module, *backend, rows),
                       nips.name + " " + backend->describe());
    }
  }
}

TEST(OpProgram, LaneRemaindersAndLongBatches) {
  const auto backend = arith::make_cfp_backend(arith::paper_cfp_format());
  const auto nips = workload::make_nips_model(10);
  const DatapathModule module = compile_spn(nips.spn, *backend);
  const OpProgram& program = module.program(*backend);
  for (const std::size_t count : {1u, 7u, 8u, 9u, 4099u}) {
    const auto rows = random_rows(count, 10, 256, false, count);
    std::vector<double> got(count);
    program.evaluate(rows, got);
    expect_bit_equal(got, oracle(module, *backend, rows),
                     "batch of " + std::to_string(count));
  }
}

TEST(OpProgram, BuiltOncePerFormatAndSharedByCopies) {
  const auto cfp = arith::make_cfp_backend(arith::paper_cfp_format());
  const auto other_cfp = arith::make_cfp_backend(arith::paper_cfp_format());
  const auto f64 = arith::make_float64_backend();
  const DatapathModule module = random_module(*cfp, QueryKind::kJoint, 3);
  const DatapathModule copy = module;  // NOLINT: the copy is the point
  EXPECT_EQ(&module.program(*cfp), &module.program(*other_cfp));
  EXPECT_EQ(&module.program(*cfp), &copy.program(*cfp));
  EXPECT_NE(&module.program(*cfp), &module.program(*f64));
}

TEST(OpProgram, ByteOutsideANarrowTableThrows) {
  // A joint model over a 16-byte domain: byte 16 has no table entry.
  spn::RandomSpnConfig config;
  config.variables = kVars;
  config.leaf_domain = 16;
  config.seed = 9;
  CompileOptions options;
  options.input_domain = 16;
  for (const auto& backend : all_backends()) {
    const DatapathModule module =
        compile_spn(spn::make_random_spn(config), *backend, options);
    const OpProgram& program = module.program(*backend);
    // One short lane group and a long batch: the bad byte sits in the
    // last sample either way.
    for (const std::size_t count : {std::size_t{5}, std::size_t{773}}) {
      auto rows = random_rows(count, kVars, 16, false, count);
      std::vector<double> results(count);
      EXPECT_NO_THROW(program.evaluate(rows, results));
      rows.back() = 16;
      try {
        program.evaluate(rows, results);
        FAIL() << backend->describe() << ": out-of-table byte accepted";
      } catch (const std::logic_error& error) {
        EXPECT_NE(std::string(error.what()).find(
                      "feature byte outside lookup table"),
                  std::string::npos)
            << error.what();
      }
      EXPECT_THROW(module.evaluate(*backend, std::span(rows).last(kVars)),
                   std::logic_error);
    }
  }
}

TEST(OpProgram, RejectsMismatchedShapes) {
  const auto backend = arith::make_float64_backend();
  const DatapathModule module = random_module(*backend, QueryKind::kJoint, 1);
  const OpProgram& program = module.program(*backend);
  std::vector<std::uint8_t> rows(kVars * 2 + 1);
  std::vector<double> results(2);
  EXPECT_THROW(program.evaluate(rows, results), std::logic_error);
}

}  // namespace
}  // namespace spnhbm::compiler
