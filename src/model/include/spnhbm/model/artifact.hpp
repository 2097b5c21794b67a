// Model artifacts: the unit of deployment for multi-model serving.
//
// A ModelArtifact bundles everything a serving engine needs to host one
// SPN — the (optional) source graph, the compiled DatapathModule, the
// arithmetic backend it was compiled for, a name/version identity, and a
// content hash over the serialised design + backend so two artifacts with
// the same bits are recognisably the same model. Artifacts are immutable
// after construction and shared by `ModelHandle` (shared_ptr<const ...>):
// every engine holding a handle pins the artifact alive, which is what
// makes deferred unload in the ModelRegistry safe.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "spnhbm/arith/backend.hpp"
#include "spnhbm/compiler/datapath.hpp"
#include "spnhbm/spn/graph.hpp"
#include "spnhbm/util/error.hpp"

namespace spnhbm::model {

/// Model-layer failures (unknown model, duplicate id, bad artifact file).
class ModelError : public Error {
 public:
  using Error::Error;
};

class ModelArtifact;
struct TuningManifest;
using ModelHandle = std::shared_ptr<const ModelArtifact>;

class ModelArtifact {
 public:
  /// Compiles `spn` with `backend` (ownership taken) into an artifact.
  static ModelHandle compile(std::string name, std::string version,
                             spn::Spn spn,
                             std::unique_ptr<arith::ArithBackend> backend,
                             const compiler::CompileOptions& options = {});

  /// Loads an artifact from `path`: a serialised design file (SPND magic)
  /// is deserialised directly, anything else is parsed as a textual SPN
  /// description and compiled with `backend`. Throws ModelError when the
  /// file cannot be read, ParseError when its contents are malformed.
  static ModelHandle load_file(std::string name, std::string version,
                               const std::string& path,
                               std::unique_ptr<arith::ArithBackend> backend,
                               const compiler::CompileOptions& options = {});

  /// Wraps an already-compiled module (copied) into an artifact. The
  /// backend is *borrowed*: the caller guarantees it outlives the
  /// artifact. Version is "0".
  static ModelHandle wrap(std::string name,
                          const compiler::DatapathModule& module,
                          const arith::ArithBackend& backend);

  /// As above, but takes ownership of the backend (for wrappers that have
  /// no caller-owned backend to borrow).
  static ModelHandle wrap(std::string name,
                          const compiler::DatapathModule& module,
                          std::unique_ptr<arith::ArithBackend> backend);

  const std::string& name() const { return name_; }
  const std::string& version() const { return version_; }
  /// Canonical identity: "name@version".
  std::string id() const { return name_ + "@" + version_; }

  /// FNV-1a over the serialised design bytes and the backend description:
  /// two artifacts with equal hashes hold bit-identical compiled designs.
  std::uint64_t content_hash() const { return content_hash_; }
  /// The hash as 16 lowercase hex characters.
  std::string content_hash_hex() const;

  const compiler::DatapathModule& module() const { return module_; }
  const arith::ArithBackend& backend() const { return *backend_; }
  std::size_t input_features() const { return module_.input_features(); }

  /// The source graph, when the artifact was compiled from one (absent
  /// for artifacts loaded from a serialised design).
  bool has_spn() const { return spn_.has_value(); }
  const spn::Spn& spn() const;

  /// "name@version [hash] 10 features, <backend>".
  std::string describe() const;

  /// Attaches a tuning manifest so every consumer of this handle (engines,
  /// serving lanes, fleet placement) sees the tuned knobs. The manifest
  /// must match this artifact — TuningManifest::require_matches runs here,
  /// so a manifest produced for different compiled bits is rejected with
  /// TuningError before it can influence anything. The manifest is serving
  /// metadata, not model content: attaching one does not change the
  /// content hash, and re-attaching replaces the previous manifest.
  void attach_tuning(std::shared_ptr<const TuningManifest> manifest) const;
  /// The attached manifest, or nullptr when the artifact is untuned.
  std::shared_ptr<const TuningManifest> tuning() const;

 private:
  ModelArtifact(std::string name, std::string version,
                std::optional<spn::Spn> spn, compiler::DatapathModule module,
                std::unique_ptr<arith::ArithBackend> owned,
                const arith::ArithBackend* borrowed);

  std::string name_;
  std::string version_;
  std::optional<spn::Spn> spn_;
  compiler::DatapathModule module_;
  std::unique_ptr<arith::ArithBackend> owned_backend_;
  const arith::ArithBackend* backend_;  ///< owned_backend_.get() or borrowed
  std::uint64_t content_hash_ = 0;
  /// Mutable serving metadata on an otherwise immutable artifact: the
  /// manifest binds to the content hash, so it cannot change what the
  /// artifact *is*, only how deployments configure themselves for it.
  mutable std::mutex tuning_mutex_;
  mutable std::shared_ptr<const TuningManifest> tuning_;
};

/// Builds an arithmetic backend by format name: "f64", "cfp", "lns" or
/// "posit" (the paper configurations). Throws ModelError on anything else.
std::unique_ptr<arith::ArithBackend> make_backend(const std::string& format);

}  // namespace spnhbm::model
