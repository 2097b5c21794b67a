#include "spnhbm/compiler/sparse_evidence.hpp"

#include "spnhbm/util/error.hpp"
#include "spnhbm/util/strings.hpp"

namespace spnhbm::compiler {

void SparseBatch::add_sample(std::span<const std::uint16_t> sample_indices,
                             std::span<const std::uint8_t> sample_values) {
  SPNHBM_REQUIRE(sample_indices.size() == sample_values.size(),
                 "sparse sample needs one value per index");
  std::uint32_t previous = 0;
  bool first = true;
  for (const std::uint16_t index : sample_indices) {
    SPNHBM_REQUIRE(index < features, "sparse index outside the feature span");
    SPNHBM_REQUIRE(first || index > previous,
                   "sparse indices must be strictly increasing");
    previous = index;
    first = false;
  }
  indices.insert(indices.end(), sample_indices.begin(), sample_indices.end());
  values.insert(values.end(), sample_values.begin(), sample_values.end());
  offsets.push_back(static_cast<std::uint32_t>(indices.size()));
}

SampleView SparseBatch::view(std::size_t i,
                             std::span<const std::uint8_t> defaults) const {
  SPNHBM_REQUIRE(i < sample_count(), "sparse sample index out of range");
  const std::size_t begin = offsets[i];
  const std::size_t end = offsets[i + 1];
  return SampleView::sparse(
      std::span<const std::uint16_t>(indices).subspan(begin, end - begin),
      std::span<const std::uint8_t>(values).subspan(begin, end - begin),
      defaults);
}

std::vector<std::uint8_t> SparseBatch::densify(
    std::span<const std::uint8_t> defaults) const {
  SPNHBM_REQUIRE(defaults.size() == features,
                 "default evidence must span every feature");
  std::vector<std::uint8_t> rows;
  rows.reserve(sample_count() * features);
  for (std::size_t i = 0; i < sample_count(); ++i) {
    rows.insert(rows.end(), defaults.begin(), defaults.end());
    std::uint8_t* row = rows.data() + i * features;
    for (std::size_t at = offsets[i]; at < offsets[i + 1]; ++at) {
      row[indices[at]] = values[at];
    }
  }
  return rows;
}

SparseBatch sparse_from_dense(std::span<const std::uint8_t> samples,
                              std::size_t features,
                              std::span<const std::uint8_t> defaults) {
  SPNHBM_REQUIRE(features > 0, "sparse batches need at least one feature");
  SPNHBM_REQUIRE(features <= 0x10000, "sparse indices are 16-bit");
  SPNHBM_REQUIRE(samples.size() % features == 0,
                 "dense batch is not a whole number of samples");
  SPNHBM_REQUIRE(defaults.size() == features,
                 "default evidence must span every feature");
  SparseBatch batch;
  batch.features = features;
  const std::size_t count = samples.size() / features;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t* row = samples.data() + i * features;
    for (std::size_t v = 0; v < features; ++v) {
      if (row[v] != defaults[v]) {
        batch.indices.push_back(static_cast<std::uint16_t>(v));
        batch.values.push_back(row[v]);
      }
    }
    batch.offsets.push_back(static_cast<std::uint32_t>(batch.indices.size()));
  }
  return batch;
}

std::vector<std::uint8_t> encode_sparse(const SparseBatch& batch) {
  std::vector<std::uint8_t> stream;
  stream.reserve(batch.encoded_bytes());
  for (std::size_t i = 0; i < batch.sample_count(); ++i) {
    const std::size_t begin = batch.offsets[i];
    const std::size_t end = batch.offsets[i + 1];
    const auto active = static_cast<std::uint16_t>(end - begin);
    stream.push_back(static_cast<std::uint8_t>(active));
    stream.push_back(static_cast<std::uint8_t>(active >> 8));
    for (std::size_t at = begin; at < end; ++at) {
      stream.push_back(static_cast<std::uint8_t>(batch.indices[at]));
      stream.push_back(static_cast<std::uint8_t>(batch.indices[at] >> 8));
      stream.push_back(batch.values[at]);
    }
  }
  return stream;
}

SparseBatch decode_sparse(std::span<const std::uint8_t> stream,
                          std::size_t features, std::size_t sample_count) {
  SPNHBM_REQUIRE(features > 0, "sparse batches need at least one feature");
  SparseBatch batch;
  batch.features = features;
  std::size_t at = 0;
  const auto need = [&](std::size_t bytes) {
    if (at + bytes > stream.size()) {
      throw ParseError("truncated sparse evidence stream");
    }
  };
  for (std::size_t i = 0; i < sample_count; ++i) {
    need(2);
    const std::uint16_t active = static_cast<std::uint16_t>(
        stream[at] | (static_cast<std::uint16_t>(stream[at + 1]) << 8));
    at += 2;
    if (active > features) {
      throw ParseError(strformat(
          "sparse sample %zu claims %u active indices over %zu features", i,
          static_cast<unsigned>(active), features));
    }
    std::uint16_t previous = 0;
    for (std::uint16_t pair = 0; pair < active; ++pair) {
      need(3);
      const std::uint16_t index = static_cast<std::uint16_t>(
          stream[at] | (static_cast<std::uint16_t>(stream[at + 1]) << 8));
      const std::uint8_t value = stream[at + 2];
      at += 3;
      if (index >= features) {
        throw ParseError(strformat(
            "sparse index %u out of range (%zu features)",
            static_cast<unsigned>(index), features));
      }
      if (pair > 0 && index <= previous) {
        throw ParseError(
            index == previous
                ? "duplicate sparse index"
                : "sparse indices must be strictly increasing");
      }
      previous = index;
      batch.indices.push_back(index);
      batch.values.push_back(value);
    }
    batch.offsets.push_back(static_cast<std::uint32_t>(batch.indices.size()));
  }
  if (at != stream.size()) {
    throw ParseError("trailing bytes after the sparse evidence stream");
  }
  return batch;
}

std::size_t sparse_prefix_bytes(std::span<const std::uint8_t> stream,
                                std::size_t samples) {
  std::size_t at = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    SPNHBM_REQUIRE(at + 2 <= stream.size(),
                   "sparse stream holds fewer samples than asked for");
    const std::size_t active = stream[at] | (std::size_t{stream[at + 1]} << 8);
    at += 2 + 3 * active;
  }
  SPNHBM_REQUIRE(at <= stream.size(),
                 "sparse stream holds fewer samples than asked for");
  return at;
}

}  // namespace spnhbm::compiler
