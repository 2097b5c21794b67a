// RpcClient: the library a remote caller links against.
//
// connect() performs the TCP connect and consumes the server's hello
// handshake, so server_info() (protocol version, build string, loaded
// models) is available before the first request. The client refuses to
// talk to a server speaking any protocol version but its own.
//
// Requests are fully pipelined: submit() assigns a request id, writes the
// frame (serialised by a send mutex — safe from any thread) and returns a
// future; a background reader thread matches response frames back to
// their requests. A non-OK response makes the future's get() throw
// RpcStatusError carrying the typed wire status, so callers can
// distinguish retryable sheds (OVERLOADED, NO_HEALTHY_ENGINE) from hard
// failures; a dropped connection fails every outstanding request with
// status INTERNAL_ERROR. The reader thread hands each answer over as a
// plain value, and the error is constructed on the thread that calls
// get(), so no exception object is shared between threads.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "spnhbm/rpc/socket.hpp"
#include "spnhbm/rpc/wire.hpp"
#include "spnhbm/telemetry/trace.hpp"

namespace spnhbm::rpc {

/// A response with a non-OK wire status, as a typed exception.
class RpcStatusError : public Error {
 public:
  RpcStatusError(Status status, const std::string& message)
      : Error(to_string(status) + ": " + message), status_(status) {}

  Status status() const { return status_; }
  /// True for sheds the caller should back off and resend.
  bool retryable() const { return is_retryable(status_); }

 private:
  Status status_;
};

/// The server's HELLO advertised a protocol version other than
/// kProtocolVersion. Terminal: redialing the same peer cannot help.
class ProtocolVersionError : public RpcError {
 public:
  using RpcError::RpcError;
};

/// Server identity learned from the hello handshake.
struct ServerInfo {
  std::uint16_t protocol_version = 0;
  std::string build_version;
  std::vector<ModelInfo> models;

  /// Input width of model `ref` ("name@version" id or bare name when it
  /// uniquely prefixes one id). Throws RpcError when unknown.
  std::uint32_t input_features(const std::string& ref) const;
};

/// Payload options of a request. The defaults describe dense sample rows
/// whose count the client derives from the lane's advertised input width.
/// The query kind is not an option: it is part of the lane reference
/// ("m@1#marginal", see engine::query_lane_suffix).
struct QueryOptions {
  /// kEncodingDense (sample rows) or kEncodingSparse (CSR evidence
  /// stream, see compiler/sparse_evidence.hpp).
  std::uint8_t encoding = kEncodingDense;
  /// Explicit sample count. Required (non-zero) for sparse payloads —
  /// they are not self-describing; derived from the payload size and the
  /// advertised input width when left 0 on dense ones.
  std::uint32_t sample_count = 0;
};

/// Reads the HELLO that opens every connection and checks its protocol
/// version: RpcError when the peer closes first, WireError on a malformed
/// frame, ProtocolVersionError on any version but kProtocolVersion. (The
/// admin plane, which speaks the wire without an RpcClient, uses it too.)
HelloFrame receive_hello(Socket& socket);

/// Completion callback: status, results (kOk only), error text (other
/// statuses). Invoked on the client's reader thread — keep it cheap.
using ResponseCallback = std::function<void(
    Status, const std::vector<double>&, const std::string&)>;

class RpcClient {
 public:
  /// Connects and blocks until the hello handshake arrives. Throws
  /// ProtocolVersionError when the server speaks another protocol
  /// version.
  static std::unique_ptr<RpcClient> connect(const std::string& host,
                                            std::uint16_t port);

  ~RpcClient();
  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  const ServerInfo& server_info() const { return info_; }

  /// Pipelined asynchronous request. `model` is a lane reference; empty =
  /// the server's first advertised lane. `deadline_us` 0 = no
  /// per-request deadline. The future carries one probability per sample
  /// row, or throws RpcStatusError. It is deferred: get() blocks until the
  /// response arrives, while wait_for/wait_until report
  /// std::future_status::deferred (outstanding() tells whether an answer
  /// is still due). A non-zero `idempotency_key` marks retries of one
  /// logical request so the server can deduplicate them. `query` selects
  /// sparse evidence.
  std::future<std::vector<double>> submit(const std::string& model,
                                          std::vector<std::uint8_t> samples,
                                          std::uint64_t deadline_us = 0,
                                          std::uint64_t idempotency_key = 0,
                                          const QueryOptions& query = {});

  /// As submit(), but delivers the raw response via `callback` (on the
  /// reader thread) instead of a future — the open-loop load generator's
  /// path, where thousands of outstanding futures would be pure overhead.
  void submit_with_callback(const std::string& model,
                            std::vector<std::uint8_t> samples,
                            std::uint64_t deadline_us,
                            ResponseCallback callback,
                            std::uint64_t idempotency_key = 0,
                            const QueryOptions& query = {});

  /// Synchronous convenience wrapper around submit().get().
  std::vector<double> infer(const std::string& model,
                            std::vector<std::uint8_t> samples,
                            std::uint64_t deadline_us = 0,
                            const QueryOptions& query = {});

  /// Asks the serving process to drain and exit (admin/CI path).
  void request_shutdown();

  /// Requests not yet answered.
  std::size_t outstanding() const;

  /// False once the connection dropped (every further submit would throw
  /// RpcError). The self-healing wrapper polls this to decide whether a
  /// fresh connection is needed.
  bool alive() const;

  /// Closes the connection; outstanding requests fail with status
  /// INTERNAL_ERROR (a future's get() throws RpcStatusError).
  /// Idempotent; the destructor calls it.
  void close();

 private:
  RpcClient(Socket socket, ServerInfo info);

  /// A request awaiting its response: the completion callback plus the
  /// trace context minted at send time (invalid when unsampled), so the
  /// reader thread can close the request's flow chain on the response.
  struct PendingEntry {
    ResponseCallback callback;
    telemetry::TraceContext trace;
  };

  struct SentRequest {
    std::uint64_t request_id = 0;
    telemetry::TraceContext trace;
  };

  SentRequest send_request(const std::string& model,
                           std::vector<std::uint8_t> samples,
                           std::uint64_t deadline_us,
                           std::uint64_t idempotency_key,
                           const QueryOptions& query);
  void reader_loop();
  void fail_outstanding(const std::string& reason);

  Socket socket_;
  ServerInfo info_;
  std::thread reader_;
  std::mutex send_mutex_;
  mutable std::mutex pending_mutex_;
  std::map<std::uint64_t, PendingEntry> pending_;
  /// Wall-clock telemetry track of this connection ("rpc/clientN"); 0
  /// while tracing is disabled.
  telemetry::TrackId track_ = 0;
  /// Set by the reader on exit (guarded by pending_mutex_); submits after
  /// a lost connection fail fast instead of leaving a future hanging.
  bool reader_done_ = false;
  std::uint64_t next_request_id_ = 1;
  bool closed_ = false;
};

}  // namespace spnhbm::rpc
