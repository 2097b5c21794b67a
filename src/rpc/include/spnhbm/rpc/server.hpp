// RpcServer: the TCP front door of the serving stack.
//
// Accepts up to `max_connections` concurrent clients on a loopback
// listener and bridges wire-protocol frames into an existing (already
// started) engine::InferenceService — a local InferenceServer or a
// fleet router spanning several devices. Per connection the server runs
//
//   * a reader thread — parses frames, runs admission control and
//     submits accepted requests (always via the non-blocking
//     try_submit, so a full queue can never stall the socket), and
//   * a writer thread — sends the hello handshake, then resolves each
//     accepted request's future and streams responses back in request
//     order (TCP delivers in order anyway; per-request deadlines bound
//     head-of-line waits).
//
// Admission control (see rpc/admission.hpp): a token bucket on the
// accepted-request rate plus a queue-depth bound on the backing server's
// outstanding samples. A request failing either gate is answered
// immediately with the retryable OVERLOADED status. Typed engine errors
// map onto wire statuses: DeadlineExceededError -> DEADLINE_EXCEEDED,
// NoHealthyEngineError -> NO_HEALTHY_ENGINE, model resolution failures ->
// UNKNOWN_MODEL, submit-after-stop -> SHUTTING_DOWN.
//
// Accounting invariants (asserted by tests and printed by describe()):
//   received = accepted + rejected + shed + duplicates
//   accepted = completed + failed
// so no request can vanish between the socket and the engine fleet.
//
// Idempotency: a REQUEST carrying a non-zero idempotency key
// is remembered in a bounded cache. When the same key arrives again —
// a self-healing client retrying after a lost connection — the server
// answers from the cache (or with a retryable OVERLOADED while the
// original is still resolving) instead of re-executing the work, and
// counts the frame under `duplicates`. Retried requests are therefore
// never double-counted in the accepted/completed books.
//
// Network chaos: the reader, writer, accept and handshake paths consult
// the process-global fault::injector() at the sites
//
//   rpc.accept    instance "listener" — kFail refuses (closes) the
//                 accepted socket; window rules give refusal windows
//   rpc.hello     instance "conn<N>"  — kFail closes the connection
//                 before the HELLO handshake
//   rpc.conn.rx   instance "conn<N>"  — per received frame: kFail
//                 resets the connection, kCorrupt XORs the body with
//                 corrupt_mask (a bit-flipped frame on the wire),
//                 kStall/kDelay sleep duration_us before processing
//   rpc.conn.tx   instance "conn<N>"  — per sent frame: kFail resets
//                 the connection, kStall/kDelay model a slow peer by
//                 sleeping duration_us before the write
//
// keyed by the (site, instance, op-index) scheme, so a disarmed run is
// byte-identical and an armed run is reproducible by seed.
//
// The virtual-time simulation below the engines is untouched: everything
// here runs in wall time, on real threads, and registers wall-clock
// telemetry lanes ("rpc/conn<N>") plus rpc.* counters.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "spnhbm/engine/service.hpp"
#include "spnhbm/rpc/admission.hpp"
#include "spnhbm/rpc/socket.hpp"
#include "spnhbm/rpc/wire.hpp"
#include "spnhbm/telemetry/metrics.hpp"
#include "spnhbm/telemetry/trace.hpp"
#include "spnhbm/telemetry/trace_context.hpp"
#include "spnhbm/util/version.hpp"

namespace spnhbm::rpc {

struct AdmissionConfig {
  /// Token-bucket rate limit on accepted requests; <= 0 disables it.
  double rate_limit_rps = 0.0;
  /// Bucket capacity; <= 0 defaults to max(rate_limit_rps, 1).
  double burst = 0.0;
  /// Shed once the backing server's outstanding samples reach this bound
  /// (0 = rely on the server's own queue bound via try_submit).
  std::size_t max_outstanding_samples = 0;
};

struct RpcServerConfig {
  /// 0 = ephemeral port; read the bound one back via port().
  std::uint16_t port = 0;
  std::size_t max_connections = 64;
  AdmissionConfig admission;
  /// Advertised in the handshake.
  std::string build_version = kVersionString;
  /// Slowest traced requests retained for the ADMIN plane (ring bound).
  std::size_t tail_sample_capacity = 64;
  /// Idempotency entries retained (oldest evicted first). A retry whose
  /// key was already evicted is simply re-executed — safe, just no
  /// longer deduplicated.
  std::size_t idempotency_cache_capacity = 65536;
};

struct RpcServerStats {
  std::uint64_t connections_accepted = 0;
  /// Connections closed immediately because max_connections was reached.
  std::uint64_t connections_rejected = 0;
  /// Connections closed by an injected rpc.accept refusal fault.
  std::uint64_t connections_refused = 0;
  /// Request frames read off all sockets.
  std::uint64_t received = 0;
  /// Requests submitted into the InferenceServer (got a future).
  std::uint64_t accepted = 0;
  /// Pre-admission rejects: malformed payloads + unknown model refs.
  std::uint64_t rejected = 0;
  /// Retryable sheds, by gate.
  std::uint64_t shed_rate_limit = 0;
  std::uint64_t shed_queue_depth = 0;
  std::uint64_t shed_no_healthy_engine = 0;
  std::uint64_t shed_shutting_down = 0;
  /// Accepted requests that resolved OK / with an error status.
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  /// Of `failed`: deadline expirations (rpc- or engine-level).
  std::uint64_t deadline_exceeded = 0;
  /// Retried REQUESTs answered from the idempotency cache (or told to
  /// retry while the original was in flight) instead of re-executed.
  std::uint64_t duplicates = 0;
  /// Wall-clock request latency, frame receipt -> response sent.
  telemetry::HistogramSnapshot request_latency_us;

  std::uint64_t shed() const {
    return shed_rate_limit + shed_queue_depth + shed_no_healthy_engine +
           shed_shutting_down;
  }
  /// Both conservation identities hold.
  bool conserved() const {
    return received == accepted + rejected + shed() + duplicates &&
           accepted == completed + failed;
  }
  std::string describe() const;
};

class RpcServer {
 public:
  /// `server` is any InferenceService — a local InferenceServer or a
  /// fleet::FleetRouter spanning several devices. It must outlive the
  /// RpcServer and must already be start()ed (or be started before the
  /// first client connects). Binds the listener right here — throws
  /// RpcError when the port is taken — so port() is valid immediately;
  /// no client is accepted before start().
  RpcServer(engine::InferenceService& server, RpcServerConfig config = {});
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Starts the accept thread.
  void start();
  /// Stops accepting, shuts every connection down, resolves all in-flight
  /// requests (counting them, even when the response can no longer be
  /// delivered) and joins all threads. Idempotent.
  void stop();

  /// The bound port (resolves a port-0 request to the kernel's pick).
  std::uint16_t port() const { return port_; }

  /// True once a client sent a kShutdown frame.
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }
  /// Blocks until a kShutdown frame arrives or stop() is called.
  void wait_for_shutdown_request();

  std::size_t active_connections() const;
  RpcServerStats stats() const;
  /// Slowest retained traced requests (the ADMIN plane's tail view).
  const telemetry::TailSampler& tail_sampler() const { return tail_; }

 private:
  struct Outgoing {
    /// Pre-encoded frame (handshake or immediate reject)…
    std::vector<std::uint8_t> wire;
    /// …or an accepted request still resolving.
    std::optional<std::future<std::vector<double>>> future;
    std::uint64_t request_id = 0;
    std::uint64_t deadline_us = 0;
    std::chrono::steady_clock::time_point received;
    /// Trace context of the request (invalid when untraced).
    telemetry::TraceContext trace;
    /// Lane id + sample count, kept for the tail sampler's records.
    std::string model;
    std::uint64_t sample_count = 0;
    /// Non-zero when the request carried an idempotency key: the writer
    /// publishes the resolved response into the cache under this key.
    std::uint64_t idempotency_key = 0;
    /// ADMIN replies skip the request-latency accounting.
    bool admin = false;
  };

  /// One idempotency-cache slot: pending until the writer resolves the
  /// original, then the replayable response.
  struct IdempotencyEntry {
    bool done = false;
    ResponseFrame response;
  };

  struct Connection {
    Socket socket;
    std::uint64_t id = 0;
    std::thread reader;
    std::thread writer;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Outgoing> outbox;
    bool reader_done = false;
    bool writer_done = false;
    telemetry::TrackId track = 0;
  };

  void accept_loop();
  void reader_loop(Connection& connection);
  void writer_loop(Connection& connection);
  /// Admission + submit; returns the outbox entry for the request. The
  /// explicit sample count is cross-checked (dense) or trusted to the
  /// sparse decoder, and a sparse payload routes through
  /// try_submit_sparse.
  Outgoing handle_request(Connection& connection, RequestFrame request);
  /// Snapshot of the live plane, pre-encoded as an ADMIN reply.
  Outgoing handle_admin();
  ResponseFrame resolve(Outgoing& outgoing);
  void enqueue(Connection& connection, Outgoing outgoing);
  HelloFrame make_hello() const;

  engine::InferenceService& server_;
  RpcServerConfig config_;
  TokenBucket bucket_;
  Listener listener_;
  std::uint16_t port_ = 0;
  std::thread acceptor_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};
  mutable std::mutex mutex_;  ///< connections_ + stats_ + shutdown cv
  std::condition_variable cv_shutdown_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::uint64_t next_connection_id_ = 0;
  RpcServerStats stats_;
  /// Idempotency cache (guarded by mutex_): key -> entry, plus the
  /// insertion order for bounded eviction.
  std::map<std::uint64_t, IdempotencyEntry> idempotency_cache_;
  std::deque<std::uint64_t> idempotency_order_;
  telemetry::TailSampler tail_;
  std::shared_ptr<telemetry::Histogram> latency_us_;
  std::shared_ptr<telemetry::Counter> ctr_connections_;
  std::shared_ptr<telemetry::Counter> ctr_received_;
  std::shared_ptr<telemetry::Counter> ctr_accepted_;
  std::shared_ptr<telemetry::Counter> ctr_rejected_;
  std::shared_ptr<telemetry::Counter> ctr_shed_rate_limit_;
  std::shared_ptr<telemetry::Counter> ctr_shed_queue_depth_;
  std::shared_ptr<telemetry::Counter> ctr_completed_;
  std::shared_ptr<telemetry::Counter> ctr_failed_;
  std::shared_ptr<telemetry::Counter> ctr_duplicates_;
};

}  // namespace spnhbm::rpc
