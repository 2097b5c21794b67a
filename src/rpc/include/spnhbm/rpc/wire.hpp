// The spnhbm remote-serving wire protocol (length-prefixed binary frames).
//
// Every frame on the TCP stream is
//
//   | u32 magic "SPNR" | u8 type | u32 body_length | body ... |
//
// with all integers little-endian. The magic on every frame makes stream
// desynchronisation detectable immediately instead of after a garbage
// length. Frame types:
//
//   kHello     server -> client, once per connection, immediately after
//              accept: protocol version, server build string, and the
//              list of loaded models (id + input width), so a client can
//              validate payload widths without a round trip.
//   kRequest   client -> server: caller-chosen request id (echoed in the
//              response), lane reference ("name@version", optionally
//              suffixed with a query kind as in "m@1#marginal", or an
//              unambiguous bare name), per-request deadline in
//              microseconds (0 = none), payload encoding byte (0 dense
//              sample rows, 1 CSR sparse evidence stream), explicit u32
//              sample count, the payload, and three trailing u64 fields:
//              trace id, parent span id and idempotency key (0 = absent).
//   kResponse  server -> client: echoed request id, a Status byte, and —
//              on kOk — one f64 probability per sample row, otherwise a
//              human-readable error message.
//   kShutdown  client -> server: asks the serving process to drain and
//              exit (the loopback admin path used by CI smoke runs).
//   kAdmin     client -> server: live-introspection poll with an empty
//              body; answered immediately with kAdminReply, out of band
//              of the inference stream.
//   kAdminReply server -> client: build/version info plus text sections
//              — Prometheus metrics exposition, per-engine health
//              states, the fleet replica map, and the tail sampler's
//              slowest-request breakdowns.
//
// Strings are u16 length + bytes; payloads and long text sections are
// u32 length + bytes. Frame bodies are capped at kMaxBodyBytes — a peer
// announcing more is treated as a protocol violation, not an allocation
// request.
//
// Every kRequest has the one fixed layout above, so its body length is
// fully determined by the lane ref and payload lengths. The query kind
// travels only in the lane ref: HELLO advertises every served lane under
// its suffixed id. The sample count is explicit because a sparse payload
// is not self-describing; dense payloads must agree with it. Self-healing
// clients mint one non-zero idempotency key per logical request and
// reuse it across retries, so a server that already accepted the
// original can answer the retry from its idempotency cache instead of
// executing (and double-counting) the work.
//
// Versioning: the HELLO layout is frozen and carries kProtocolVersion.
// Both ends of the protocol live in this repository, so there is exactly
// one version: a client refuses a server that advertises any other.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spnhbm/telemetry/trace_context.hpp"
#include "spnhbm/util/error.hpp"

namespace spnhbm::rpc {

/// Version of the frame layout described above; bumped on any change to
/// it. Client and server must agree exactly.
inline constexpr std::uint16_t kProtocolVersion = 5;

inline constexpr std::uint32_t kFrameMagic = 0x52'4E'50'53;  // "SPNR"
inline constexpr std::uint32_t kMaxBodyBytes = 64u << 20;
/// Bytes before the body: magic + type + body length.
inline constexpr std::size_t kFrameHeaderBytes = 9;

/// Malformed or protocol-violating bytes on the wire.
class WireError : public Error {
 public:
  explicit WireError(const std::string& what)
      : Error("wire error: " + what) {}
};

enum class FrameType : std::uint8_t {
  kHello = 1,
  kRequest = 2,
  kResponse = 3,
  kShutdown = 4,
  kAdmin = 5,
  kAdminReply = 6,
};

/// Response status. kOverloaded and kNoHealthyEngine are *retryable*: the
/// request was never executed and the client should back off and resend.
enum class Status : std::uint8_t {
  kOk = 0,
  /// Malformed request (payload not a multiple of the input width, ...).
  kInvalidRequest = 1,
  /// The model reference matched nothing (or was ambiguous).
  kUnknownModel = 2,
  kDeadlineExceeded = 3,
  /// Every engine of the model is quarantined; retryable.
  kNoHealthyEngine = 4,
  /// Shed by admission control (rate limit or queue depth); retryable.
  kOverloaded = 5,
  /// The server is draining; retryable against a replacement instance.
  kShuttingDown = 6,
  kInternalError = 7,
};
std::string to_string(Status status);
bool is_retryable(Status status);

struct ModelInfo {
  std::string id;  ///< "name@version"
  std::uint32_t input_features = 0;
};

struct HelloFrame {
  std::uint16_t protocol_version = kProtocolVersion;
  std::string build_version;
  std::vector<ModelInfo> models;
};

/// Payload encodings of a kRequest frame.
inline constexpr std::uint8_t kEncodingDense = 0;
inline constexpr std::uint8_t kEncodingSparse = 1;

/// Largest per-request deadline a server accepts: one day. Anything above
/// is answered INVALID_REQUEST, which also keeps the server's deadline
/// arithmetic on steady_clock far from overflow.
inline constexpr std::uint64_t kMaxDeadlineUs = 86'400'000'000ull;

struct RequestFrame {
  std::uint64_t request_id = 0;
  /// Lane reference: model id plus optional query-kind suffix.
  std::string model;
  /// Relative per-request deadline in microseconds; 0 = none. Servers
  /// reject one above kMaxDeadlineUs.
  std::uint64_t deadline_us = 0;
  /// kEncodingDense sample rows or a kEncodingSparse CSR evidence stream.
  std::uint8_t encoding = kEncodingDense;
  /// Samples in the payload; never 0. Dense payloads must hold exactly
  /// this many rows of the lane's input width.
  std::uint32_t sample_count = 0;
  std::vector<std::uint8_t> samples;
  /// Distributed-tracing context; an all-zero (invalid) context = none.
  telemetry::TraceContext trace;
  /// Idempotency key; 0 = none. Stable across retries of one logical
  /// request.
  std::uint64_t idempotency_key = 0;
};

struct ResponseFrame {
  std::uint64_t request_id = 0;
  Status status = Status::kOk;
  std::vector<double> results;  ///< kOk only
  std::string error;            ///< non-kOk only
};

/// Live-introspection snapshot. The long sections travel as u32
/// length-prefixed text (the Prometheus exposition of a loaded registry
/// does not fit the u16 string cap).
struct AdminReplyFrame {
  std::uint16_t protocol_version = kProtocolVersion;
  std::string build_version;
  std::string metrics_text;   ///< Prometheus text exposition
  std::string health_text;    ///< per-engine health lines
  std::string replicas_text;  ///< fleet replica map; empty = single server
  std::string tail_text;      ///< tail-sampler slowest-request breakdowns
};

struct Frame {
  FrameType type = FrameType::kHello;
  std::vector<std::uint8_t> body;
};

/// Serialises a frame (header + body) into contiguous wire bytes.
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Parses and validates a frame header (magic, type, body length).
/// Returns the body length still to be read off the stream.
std::uint32_t decode_frame_header(
    const std::uint8_t (&header)[kFrameHeaderBytes], FrameType& type);

Frame encode_hello(const HelloFrame& hello);
/// Throws WireError for an unknown encoding or a zero sample count.
Frame encode_request(const RequestFrame& request);
Frame encode_response(const ResponseFrame& response);
Frame encode_shutdown();
Frame encode_admin();
Frame encode_admin_reply(const AdminReplyFrame& reply);

/// Body decoders; throw WireError on truncated or trailing bytes (and
/// decode_request on an unknown encoding or a zero sample count).
HelloFrame decode_hello(const std::vector<std::uint8_t>& body);
RequestFrame decode_request(const std::vector<std::uint8_t>& body);
ResponseFrame decode_response(const std::vector<std::uint8_t>& body);
AdminReplyFrame decode_admin_reply(const std::vector<std::uint8_t>& body);

}  // namespace spnhbm::rpc
