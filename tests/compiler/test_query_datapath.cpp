// Query-generic datapath tests: the marginal and MPE lowerings must be
// byte-identical to the reference queries over seeded random SPNs with
// random missingness, and a sparse SampleView must evaluate bit-equal to
// its densified twin. The CSR codec's validation (truncation, ordering,
// bounds) is the front door every transport relies on, so it is tested
// exhaustively here.
#include "spnhbm/compiler/datapath.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "spnhbm/compiler/sparse_evidence.hpp"
#include "spnhbm/spn/evaluate.hpp"
#include "spnhbm/spn/queries.hpp"
#include "spnhbm/spn/random_spn.hpp"
#include "spnhbm/util/rng.hpp"

namespace spnhbm::compiler {
namespace {

spn::Spn random_spn(std::uint64_t seed, std::size_t variables = 8) {
  spn::RandomSpnConfig config;
  config.variables = variables;
  // Non-joint datapaths reserve byte 255 for "missing", so the leaf
  // domain must stop short of it.
  config.leaf_domain = kMissingByte;
  config.seed = seed;
  return spn::make_random_spn(config);
}

CompileOptions options_for(QueryKind query) {
  CompileOptions options;
  options.query = query;
  options.input_domain = kMissingByte;
  return options;
}

/// A byte sample with random missingness plus its double-domain twin
/// (kMissingByte <-> NaN) for the reference evaluator.
struct MissingSample {
  std::vector<std::uint8_t> bytes;
  std::vector<double> doubles;
};

MissingSample random_missing_sample(Rng& rng, std::size_t variables) {
  MissingSample sample;
  sample.bytes.resize(variables);
  sample.doubles.resize(variables);
  for (std::size_t v = 0; v < variables; ++v) {
    if (rng.next_below(3) == 0) {
      sample.bytes[v] = kMissingByte;
      sample.doubles[v] = spn::missing_value();
    } else {
      sample.bytes[v] = static_cast<std::uint8_t>(rng.next_below(kMissingByte));
      sample.doubles[v] = static_cast<double>(sample.bytes[v]);
    }
  }
  return sample;
}

TEST(QueryDatapath, MarginalMatchesReferenceBitForBit) {
  const auto backend = arith::make_float64_backend();
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const spn::Spn spn = random_spn(seed);
    const auto module =
        compile_spn(spn, *backend, options_for(QueryKind::kMarginal));
    EXPECT_EQ(module.query(), QueryKind::kMarginal);
    spn::Evaluator reference(spn);
    Rng rng(seed * 7);
    for (int trial = 0; trial < 100; ++trial) {
      const MissingSample sample = random_missing_sample(rng, 8);
      // Float64 lowering is the reference arithmetic: bit-identical, not
      // merely close.
      EXPECT_DOUBLE_EQ(module.evaluate(*backend, sample.bytes),
                       reference.evaluate(sample.doubles))
          << "seed " << seed << " trial " << trial;
    }
  }
}

TEST(QueryDatapath, MpeMatchesMaxProductReferenceBitForBit) {
  const auto backend = arith::make_float64_backend();
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    const spn::Spn spn = random_spn(seed);
    const auto module =
        compile_spn(spn, *backend, options_for(QueryKind::kMpe));
    EXPECT_EQ(module.query(), QueryKind::kMpe);
    EXPECT_GT(module.count_ops(OpKind::kMax), 0u);
    EXPECT_EQ(module.count_ops(OpKind::kAdd), 0u);  // max-product: no adds
    Rng rng(seed * 7);
    for (int trial = 0; trial < 100; ++trial) {
      const MissingSample sample = random_missing_sample(rng, 8);
      EXPECT_DOUBLE_EQ(
          module.evaluate(*backend, sample.bytes),
          spn::max_product_value(spn, sample.doubles, kMissingByte))
          << "seed " << seed << " trial " << trial;
    }
  }
}

TEST(QueryDatapath, FullyObservedMarginalEqualsJoint) {
  // With no missing variables the marginal datapath must reproduce the
  // joint datapath exactly: the reserved slot is never read.
  const auto backend = arith::make_float64_backend();
  const spn::Spn spn = random_spn(31);
  const auto joint =
      compile_spn(spn, *backend, options_for(QueryKind::kJoint));
  const auto marginal =
      compile_spn(spn, *backend, options_for(QueryKind::kMarginal));
  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> sample(8);
    for (auto& b : sample) {
      b = static_cast<std::uint8_t>(rng.next_below(kMissingByte));
    }
    EXPECT_DOUBLE_EQ(marginal.evaluate(*backend, sample),
                     joint.evaluate(*backend, sample));
  }
}

TEST(QueryDatapath, AllMissingMarginalIsOne) {
  const auto backend = arith::make_float64_backend();
  const spn::Spn spn = random_spn(41);
  const auto module =
      compile_spn(spn, *backend, options_for(QueryKind::kMarginal));
  const std::vector<std::uint8_t> sample(8, kMissingByte);
  EXPECT_DOUBLE_EQ(module.evaluate(*backend, sample), 1.0);
}

TEST(QueryDatapath, NonJointRejectsFullByteDomain) {
  // input_domain 256 leaves no reserved slot for kMissingByte.
  const auto backend = arith::make_float64_backend();
  spn::RandomSpnConfig config;
  config.variables = 4;
  config.seed = 51;
  const spn::Spn spn = spn::make_random_spn(config);
  CompileOptions options;
  options.query = QueryKind::kMarginal;  // input_domain stays 256
  EXPECT_THROW(compile_spn(spn, *backend, options), std::logic_error);
}

TEST(QueryDatapath, DefaultEvidenceDerivesFromTheQuery) {
  const auto backend = arith::make_float64_backend();
  const spn::Spn spn = random_spn(61);
  const auto joint =
      compile_spn(spn, *backend, options_for(QueryKind::kJoint));
  const auto marginal =
      compile_spn(spn, *backend, options_for(QueryKind::kMarginal));
  ASSERT_EQ(joint.default_evidence().size(), 8u);
  ASSERT_EQ(marginal.default_evidence().size(), 8u);
  for (std::size_t v = 0; v < 8; ++v) {
    EXPECT_EQ(joint.default_evidence()[v], 0);
    EXPECT_EQ(marginal.default_evidence()[v], kMissingByte);
  }
}

TEST(QueryDatapath, SparseViewEvaluatesBitEqualToDense) {
  const auto backend = arith::make_float64_backend();
  const spn::Spn spn = random_spn(71);
  const auto module =
      compile_spn(spn, *backend, options_for(QueryKind::kMarginal));
  Rng rng(71);
  for (int trial = 0; trial < 100; ++trial) {
    const MissingSample sample = random_missing_sample(rng, 8);
    SparseBatch batch = sparse_from_dense(sample.bytes, 8,
                                          module.default_evidence());
    ASSERT_EQ(batch.sample_count(), 1u);
    const SampleView sparse = batch.view(0, module.default_evidence());
    const SampleView dense = SampleView::dense(sample.bytes);
    EXPECT_DOUBLE_EQ(module.evaluate(*backend, sparse),
                     module.evaluate(*backend, dense))
        << "trial " << trial;
  }
}

// --- CSR codec ----------------------------------------------------------

SparseBatch two_sample_batch() {
  SparseBatch batch;
  batch.features = 10;
  const std::uint16_t i0[] = {1, 4, 9};
  const std::uint8_t v0[] = {7, 0, 200};
  batch.add_sample(i0, v0);
  batch.add_sample({}, {});  // fully-unobserved sample
  return batch;
}

TEST(SparseCodec, EncodeDecodeRoundtrip) {
  const SparseBatch batch = two_sample_batch();
  const auto stream = encode_sparse(batch);
  EXPECT_EQ(stream.size(), batch.encoded_bytes());
  const SparseBatch decoded = decode_sparse(stream, 10, 2);
  EXPECT_EQ(decoded.features, 10u);
  EXPECT_EQ(decoded.offsets, batch.offsets);
  EXPECT_EQ(decoded.indices, batch.indices);
  EXPECT_EQ(decoded.values, batch.values);
}

TEST(SparseCodec, PrefixBytesCutAtSampleBoundaries) {
  const SparseBatch batch = two_sample_batch();
  const auto stream = encode_sparse(batch);
  EXPECT_EQ(sparse_prefix_bytes(stream, 0), 0u);
  EXPECT_EQ(sparse_prefix_bytes(stream, 1), 2u + 3u * 3u);
  EXPECT_EQ(sparse_prefix_bytes(stream, 2), stream.size());
  // Joining the two cuts gives back a stream that decodes to the batch.
  const std::size_t cut = sparse_prefix_bytes(stream, 1);
  const SparseBatch tail =
      decode_sparse(std::span(stream).subspan(cut), 10, 1);
  EXPECT_EQ(tail.active_total(), 0u);
  EXPECT_THROW(sparse_prefix_bytes(stream, 3), std::logic_error);
}

TEST(SparseCodec, DensifyInvertsSparseFromDense) {
  const std::vector<std::uint8_t> defaults(6, 0xFF);
  std::vector<std::uint8_t> rows = {1, 0xFF, 3, 0xFF, 0xFF, 6,  //
                                    0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  const SparseBatch batch = sparse_from_dense(rows, 6, defaults);
  EXPECT_EQ(batch.sample_count(), 2u);
  EXPECT_EQ(batch.active_total(), 3u);
  EXPECT_EQ(batch.densify(defaults), rows);
}

TEST(SparseCodec, RejectsTruncatedStream) {
  const auto stream = encode_sparse(two_sample_batch());
  for (const std::size_t cut : {stream.size() - 1, stream.size() / 2,
                                std::size_t{1}}) {
    const std::vector<std::uint8_t> truncated(stream.begin(),
                                              stream.begin() + cut);
    EXPECT_THROW(decode_sparse(truncated, 10, 2), ParseError) << cut;
  }
}

TEST(SparseCodec, RejectsTrailingBytes) {
  auto stream = encode_sparse(two_sample_batch());
  stream.push_back(0);
  EXPECT_THROW(decode_sparse(stream, 10, 2), ParseError);
}

TEST(SparseCodec, RejectsWrongSampleCount) {
  const auto stream = encode_sparse(two_sample_batch());
  EXPECT_THROW(decode_sparse(stream, 10, 1), ParseError);
  EXPECT_THROW(decode_sparse(stream, 10, 3), ParseError);
}

TEST(SparseCodec, RejectsOutOfRangeIndex) {
  // Hand-build: one sample, one pair with index == features.
  const std::vector<std::uint8_t> stream = {1, 0,      // active_count
                                            10, 0, 5};  // index 10, value 5
  EXPECT_THROW(decode_sparse(stream, 10, 1), ParseError);
}

TEST(SparseCodec, RejectsDuplicateAndDecreasingIndices) {
  const std::vector<std::uint8_t> duplicate = {2, 0,  //
                                               3, 0, 1, 3, 0, 2};
  EXPECT_THROW(decode_sparse(duplicate, 10, 1), ParseError);
  const std::vector<std::uint8_t> decreasing = {2, 0,  //
                                                4, 0, 1, 2, 0, 2};
  EXPECT_THROW(decode_sparse(decreasing, 10, 1), ParseError);
}

TEST(SparseCodec, AddSampleValidates) {
  SparseBatch batch;
  batch.features = 4;
  const std::uint16_t bad_order[] = {2, 1};
  const std::uint8_t two_values[] = {1, 2};
  EXPECT_THROW(batch.add_sample(bad_order, two_values), std::logic_error);
  const std::uint16_t out_of_range[] = {4};
  const std::uint8_t one_value[] = {1};
  EXPECT_THROW(batch.add_sample(out_of_range, one_value), std::logic_error);
  const std::uint16_t mismatched[] = {0, 1};
  EXPECT_THROW(batch.add_sample(mismatched, one_value), std::logic_error);
}

}  // namespace
}  // namespace spnhbm::compiler
