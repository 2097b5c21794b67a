// CSR-style sparse sample batches and their byte-stream codec.
//
// Bag-of-words queries are naturally sparse: a 5-active-words NIPS80
// query carries 5 {index, count} pairs instead of 80 dense bytes. This
// is the one encoding used everywhere sparse evidence travels — the
// RPC wire (v4 REQUEST payloads), the PCIe DMA into the simulated
// device, and the HBM bursts the load units issue — so the modelled
// byte counts on every link shrink with the active-index density.
//
// Stream layout, little-endian, per sample:
//   u16 active_count
//   active_count x { u16 index, u8 value }   (indices strictly increasing)
//
// Absent indices read the model's default-evidence vector
// (DatapathModule::default_evidence): kMissingByte for non-joint
// datapaths, zero for joint ones. decode_sparse() validates everything
// (bounds, ordering, duplicates, truncation) and throws ParseError —
// a malformed stream never reaches an engine.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "spnhbm/compiler/datapath.hpp"

namespace spnhbm::compiler {

/// A batch of sparse samples in CSR form. offsets has sample_count()+1
/// entries; sample i's pairs are [offsets[i], offsets[i+1]) in
/// indices/values.
struct SparseBatch {
  std::size_t features = 0;
  std::vector<std::uint32_t> offsets{0};
  std::vector<std::uint16_t> indices;
  std::vector<std::uint8_t> values;

  std::size_t sample_count() const { return offsets.size() - 1; }
  std::size_t active_total() const { return indices.size(); }

  /// Appends one sample given as parallel index/value arrays (indices
  /// strictly increasing, all < features). Throws Error on violations.
  void add_sample(std::span<const std::uint16_t> sample_indices,
                  std::span<const std::uint8_t> sample_values);

  /// View over sample i against `defaults` (usually the module's
  /// default-evidence vector).
  SampleView view(std::size_t i,
                  std::span<const std::uint8_t> defaults) const;

  /// Dense rows: every sample expanded against `defaults`.
  std::vector<std::uint8_t> densify(
      std::span<const std::uint8_t> defaults) const;

  /// Wire/DMA bytes of the encoded batch: 2 + 3 * active per sample.
  std::size_t encoded_bytes() const {
    return 2 * sample_count() + 3 * active_total();
  }
};

/// Builds a batch from dense rows, keeping only bytes that differ from
/// `defaults` — the exact inverse of densify().
SparseBatch sparse_from_dense(std::span<const std::uint8_t> samples,
                              std::size_t features,
                              std::span<const std::uint8_t> defaults);

/// Serialises the batch into the per-sample stream layout above.
std::vector<std::uint8_t> encode_sparse(const SparseBatch& batch);

/// Parses and validates a stream of exactly `sample_count` samples over
/// `features` features; throws ParseError on truncation, trailing bytes,
/// out-of-range indices, duplicates or non-increasing order.
SparseBatch decode_sparse(std::span<const std::uint8_t> stream,
                          std::size_t features, std::size_t sample_count);

/// Bytes of the first `samples` per-sample records of `stream`, found by
/// walking their count headers (2 + 3·active bytes each). The stream must
/// already have passed decode_sparse: this is how a validated stream is
/// cut at a sample boundary without decoding it again.
std::size_t sparse_prefix_bytes(std::span<const std::uint8_t> stream,
                                std::size_t samples);

}  // namespace spnhbm::compiler
