#include "spnhbm/compiler/serialize.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "spnhbm/util/rng.hpp"
#include "spnhbm/workload/model_zoo.hpp"

namespace spnhbm::compiler {
namespace {

DatapathModule compile_test_module() {
  const auto model = workload::make_nips_model(10);
  const auto backend = arith::make_cfp_backend(arith::paper_cfp_format());
  return compile_spn(model.spn, *backend);
}

TEST(Serialize, RoundTripPreservesStructure) {
  const auto original = compile_test_module();
  std::stringstream stream;
  save_design(original, stream);
  const auto loaded = load_design(stream);

  EXPECT_EQ(loaded.input_features(), original.input_features());
  EXPECT_EQ(loaded.pipeline_depth(), original.pipeline_depth());
  EXPECT_EQ(loaded.result_op(), original.result_op());
  ASSERT_EQ(loaded.ops().size(), original.ops().size());
  for (std::size_t i = 0; i < original.ops().size(); ++i) {
    EXPECT_EQ(loaded.ops()[i].kind, original.ops()[i].kind);
    EXPECT_EQ(loaded.ops()[i].lhs, original.ops()[i].lhs);
    EXPECT_EQ(loaded.ops()[i].stage, original.ops()[i].stage);
    EXPECT_EQ(loaded.ops()[i].constant, original.ops()[i].constant);
  }
  ASSERT_EQ(loaded.tables().size(), original.tables().size());
  EXPECT_EQ(loaded.balance_register_stages(),
            original.balance_register_stages());
}

TEST(Serialize, RoundTripPreservesSemantics) {
  const auto original = compile_test_module();
  std::stringstream stream;
  save_design(original, stream);
  const auto loaded = load_design(stream);

  const auto backend = arith::make_cfp_backend(arith::paper_cfp_format());
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> sample(10);
    for (auto& b : sample) b = static_cast<std::uint8_t>(rng.next_below(256));
    EXPECT_DOUBLE_EQ(loaded.evaluate(*backend, sample),
                     original.evaluate(*backend, sample));
  }
}

TEST(Serialize, FileRoundTrip) {
  const auto original = compile_test_module();
  const std::string path = "/tmp/spnhbm_test_design.bin";
  save_design_file(original, path);
  const auto loaded = load_design_file(path);
  EXPECT_EQ(loaded.ops().size(), original.ops().size());
}

TEST(Serialize, RejectsBadMagic) {
  std::stringstream stream;
  stream.write("NOPE", 4);
  stream.write("\0\0\0\0\0\0\0\0", 8);
  EXPECT_THROW(load_design(stream), ParseError);
}

TEST(Serialize, RejectsTruncatedFile) {
  const auto original = compile_test_module();
  std::stringstream stream;
  save_design(original, stream);
  const std::string full = stream.str();
  for (const std::size_t cut :
       {full.size() / 4, full.size() / 2, full.size() - 3}) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_THROW(load_design(truncated), ParseError) << "cut=" << cut;
  }
}

TEST(Serialize, RejectsCorruptedOpOrder) {
  const auto original = compile_test_module();
  std::stringstream stream;
  save_design(original, stream);
  std::string bytes = stream.str();
  // Corrupt the first non-lookup op's lhs to a forward reference. Header is
  // magic, version, query word, u64 evidence length + 10 evidence bytes,
  // u64 features, depth, result op (46 bytes) + 8 bytes op count; each op
  // is 9*4 + 8 = 44 bytes. Find a mul op (kind != 0) and bump its lhs to
  // a huge id.
  const std::size_t ops_base = 46 + 8;
  const std::size_t op_size = 44;
  for (std::size_t i = 0;; ++i) {
    const std::size_t offset = ops_base + i * op_size;
    std::uint32_t kind = 0;
    std::memcpy(&kind, bytes.data() + offset, 4);
    if (kind != 0) {  // not a histogram lookup
      const std::uint32_t bogus = 0x7FFFFFFF;
      std::memcpy(bytes.data() + offset + 4, &bogus, 4);
      break;
    }
  }
  std::stringstream corrupted(bytes);
  EXPECT_THROW(load_design(corrupted), ParseError);
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_design_file("/nonexistent/path/design.bin"), Error);
}

TEST(Serialize, JointModulesRoundTripAsV2) {
  // Every module saves in the one layout, joint ones included: version 2,
  // query word and (all-zero) default evidence.
  const auto original = compile_test_module();
  ASSERT_EQ(original.query(), QueryKind::kJoint);
  std::stringstream stream;
  save_design(original, stream);
  const std::string bytes = stream.str();
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, 4);
  EXPECT_EQ(version, 2u);
  const auto loaded = load_design(stream);
  EXPECT_EQ(loaded.query(), QueryKind::kJoint);
  EXPECT_EQ(loaded.default_evidence(), original.default_evidence());
  std::stringstream again;
  save_design(loaded, again);
  EXPECT_EQ(again.str(), bytes);
}

TEST(Serialize, RejectsVersion1Files) {
  // Version 1 (no query word, no default evidence) is no longer read.
  std::stringstream stream;
  save_design(compile_test_module(), stream);
  std::string bytes = stream.str();
  const std::uint32_t v1 = 1;
  std::memcpy(bytes.data() + 4, &v1, 4);
  std::stringstream old(bytes);
  EXPECT_THROW(load_design(old), ParseError);
}

TEST(Serialize, QueryModulesRoundTripThroughV2) {
  const auto model = workload::make_nips_model(10);
  const auto backend = arith::make_float64_backend();
  for (const QueryKind query : {QueryKind::kMarginal, QueryKind::kMpe}) {
    CompileOptions options;
    options.query = query;
    options.input_domain = kMissingByte;
    const auto original = compile_spn(model.spn, *backend, options);
    std::stringstream stream;
    save_design(original, stream);
    const std::string bytes = stream.str();
    std::uint32_t version = 0;
    std::memcpy(&version, bytes.data() + 4, 4);
    EXPECT_EQ(version, 2u) << query_kind_name(query);

    const auto loaded = load_design(stream);
    EXPECT_EQ(loaded.query(), query);
    EXPECT_EQ(loaded.default_evidence(), original.default_evidence());
    ASSERT_EQ(loaded.tables().size(), original.tables().size());

    // Semantics survive, reserved slot included.
    Rng rng(19);
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<std::uint8_t> sample(10);
      for (auto& b : sample) {
        b = rng.next_below(4) == 0
                ? kMissingByte
                : static_cast<std::uint8_t>(rng.next_below(kMissingByte));
      }
      EXPECT_DOUBLE_EQ(loaded.evaluate(*backend, sample),
                       original.evaluate(*backend, sample));
    }
  }
}

TEST(Serialize, RejectsCorruptedQueryKind) {
  const auto model = workload::make_nips_model(10);
  const auto backend = arith::make_float64_backend();
  CompileOptions options;
  options.query = QueryKind::kMarginal;
  options.input_domain = kMissingByte;
  const auto original = compile_spn(model.spn, *backend, options);
  std::stringstream stream;
  save_design(original, stream);
  std::string bytes = stream.str();
  // v2 layout: magic, version, then the query-kind word at offset 8.
  const std::uint32_t bogus = 9;
  std::memcpy(bytes.data() + 8, &bogus, 4);
  std::stringstream corrupted(bytes);
  EXPECT_THROW(load_design(corrupted), ParseError);
}

}  // namespace
}  // namespace spnhbm::compiler
