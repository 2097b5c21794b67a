// ResilientClient: a self-healing wrapper around RpcClient.
//
// A plain RpcClient dies with its socket: one reset and every caller
// sees RpcError forever. The resilient layer owns the connection
// lifecycle instead —
//
//   * automatic reconnect with capped exponential backoff and
//     deterministic jitter (every backoff is a pure function of the
//     seed, the request's idempotency key and the attempt index, so two
//     runs with the same seed and chaos plan produce the identical
//     retry/backoff schedule),
//   * per-request idempotency keys (wire v3), minted once per logical
//     request and reused across its retries, so a server that already
//     accepted the original answers the retry from its cache and the
//     conservation books never double-count,
//   * a retry policy per logical request: retryable statuses
//     (OVERLOADED, NO_HEALTHY_ENGINE, SHUTTING_DOWN) and transport
//     failures are retried up to `max_attempts` within the
//     `retry_budget_us` wall budget,
//   * typed give-up errors: when the layer abandons a request, the
//     outcome carries a GiveUpReason (connect failed, attempts
//     exhausted, retry budget expired, non-retryable status, client
//     closed) — infer() throws it as RpcGiveUpError, the callback path
//     hands it to the caller for the give-up histogram.
//
// Chaos: dialing consults fault::injector() at site "rpc.client.connect"
// (instance = the client's label); kFail makes the dial attempt fail
// without touching the network, so connect-retry paths are testable
// deterministically.
//
// Threading: submits may come from any thread; responses arrive on the
// wrapped client's reader thread; an internal retry thread re-sends
// scheduled retries when their backoff expires. Exactly one final
// outcome is delivered per accepted request — that invariant is what
// keeps the load generator's sent = Σ outcomes books exact.
#pragma once

#include <chrono>
#include <cstdint>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "spnhbm/rpc/client.hpp"

namespace spnhbm::rpc {

/// Why the resilient layer delivered a non-OK final outcome.
enum class GiveUpReason : std::uint8_t {
  kNone = 0,            ///< Success — not a give-up.
  kConnectFailed,       ///< Reconnect attempts exhausted.
  kAttemptsExhausted,   ///< Per-request attempt budget spent.
  kRetryBudgetExpired,  ///< The next retry would overrun retry_budget_us.
  kNonRetryable,        ///< Terminal status; retrying would not help.
  kClientClosed,        ///< close() abandoned the request.
};
const char* to_string(GiveUpReason reason);

/// Final failure of a logical request, with the typed reason attached.
class RpcGiveUpError : public Error {
 public:
  RpcGiveUpError(GiveUpReason reason, Status last_status,
                 std::uint32_t attempts, const std::string& detail)
      : Error(std::string("rpc give-up (") + to_string(reason) + " after " +
              std::to_string(attempts) + " attempt(s), last status " +
              rpc::to_string(last_status) + "): " + detail),
        reason_(reason),
        last_status_(last_status),
        attempts_(attempts) {}

  GiveUpReason reason() const { return reason_; }
  Status last_status() const { return last_status_; }
  std::uint32_t attempts() const { return attempts_; }

 private:
  GiveUpReason reason_;
  Status last_status_;
  std::uint32_t attempts_;
};

struct ResilientClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Names this client: the "rpc.client.connect" fault instance and the
  /// idempotency-key stream. Give concurrent clients distinct labels.
  std::string label = "client0";
  /// Seeds the deterministic backoff jitter and the key stream.
  std::uint64_t seed = 0x5eed;
  /// Attempts per logical request (first send included); <= 0 = unbounded.
  int max_attempts = 8;
  double backoff_base_us = 200.0;
  double backoff_multiplier = 2.0;
  double backoff_cap_us = 50'000.0;
  /// Jitter fraction: each backoff is scaled by 1 ± jitter (deterministic
  /// in (seed, key, attempt)).
  double jitter = 0.25;
  /// Total wall budget per logical request, first send -> last retry;
  /// 0 = unbounded. A retry that would land past the budget gives up
  /// with kRetryBudgetExpired instead.
  double retry_budget_us = 0.0;
  /// Dial attempts per reconnect episode before kConnectFailed.
  int max_connect_attempts = 10;
  double connect_backoff_base_us = 500.0;
  double connect_backoff_cap_us = 100'000.0;
  /// Also retry INTERNAL_ERROR responses that are not transport
  /// failures. Safe when the server deduplicates by idempotency key;
  /// the soak harness turns this on to guarantee eventual completion.
  bool retry_internal_errors = false;
};

/// Final-outcome callback: like ResponseCallback plus the give-up
/// reason (kNone on success and on plain non-retryable outcomes that
/// were delivered by the server on the first attempt — the reason is
/// kNonRetryable whenever the layer classified the status as terminal).
using ResilientCallback =
    std::function<void(Status, const std::vector<double>&, const std::string&,
                       GiveUpReason)>;

/// One scheduled backoff — the reproducibility witness for the
/// reconnect-determinism tests. key 0 = a connect (dial) backoff.
struct RetryEvent {
  std::uint64_t key = 0;
  std::uint32_t attempt = 0;
  std::uint64_t backoff_us = 0;
};

class ResilientClient {
 public:
  /// Does NOT dial yet; the first submit (or server_info()) connects.
  explicit ResilientClient(ResilientClientConfig config);
  ~ResilientClient();

  ResilientClient(const ResilientClient&) = delete;
  ResilientClient& operator=(const ResilientClient&) = delete;

  /// Sends one logical request; retries ride the same idempotency key.
  /// The callback fires exactly once with the final outcome (any thread:
  /// the caller's, the reader's, or the retry thread's). Throws RpcError
  /// only after close(). The lane ref (query kind included) and the
  /// `query` encoding fold into the idempotency key, so two queries of
  /// different kinds over identical payloads never collide in the
  /// server's dedup cache.
  void submit_with_callback(const std::string& model,
                            std::vector<std::uint8_t> samples,
                            std::uint64_t deadline_us,
                            ResilientCallback callback,
                            const QueryOptions& query = {});

  /// Synchronous convenience wrapper; throws RpcGiveUpError on any
  /// non-OK final outcome.
  std::vector<double> infer(const std::string& model,
                            std::vector<std::uint8_t> samples,
                            std::uint64_t deadline_us = 0,
                            const QueryOptions& query = {});

  /// Hello identity of the current connection (dials when needed).
  ServerInfo server_info();
  /// Sends a SHUTDOWN frame over the current connection (dials when
  /// needed); propagates RpcGiveUpError when no connection can be made.
  void request_shutdown();

  /// Logical requests without a final outcome yet.
  std::size_t outstanding() const;
  /// Connections successfully established (1 = never reconnected).
  std::uint64_t connects() const;
  /// Every backoff scheduled so far. Entries are appended as retries
  /// are decided; compare as a (key, attempt)-sorted multiset when
  /// asserting cross-run determinism.
  std::vector<RetryEvent> retry_log() const;

  /// Abandons scheduled retries (kClientClosed outcomes), joins the
  /// retry thread and drops the connection. Idempotent.
  void close();

 private:
  using Clock = std::chrono::steady_clock;

  /// One logical request, alive until its final outcome is delivered.
  struct Request {
    std::string model;
    std::vector<std::uint8_t> samples;
    std::uint64_t deadline_us = 0;
    QueryOptions query;
    std::uint64_t key = 0;
    std::uint32_t attempts = 0;
    Clock::time_point first_sent;
    ResilientCallback callback;
    Status last_status = Status::kInternalError;
    std::string last_error;
  };
  using RequestPtr = std::shared_ptr<Request>;

  /// Pure function of (seed, key, attempt): the deterministic schedule.
  double backoff_us(std::uint64_t key, std::uint32_t attempt, double base,
                    double cap) const;

  /// Returns a usable client, reconnecting (with backoff) when the old
  /// one died. The returned shared_ptr keeps the connection alive while
  /// the caller sends on it outside the lock (a concurrent reconnect
  /// just drops the map entry, never the object under a sender). Throws
  /// RpcGiveUpError(kConnectFailed) on dial exhaustion,
  /// RpcGiveUpError(kNonRetryable) when the server speaks another
  /// protocol version, and RpcError after close().
  std::shared_ptr<RpcClient> acquire_client(
      std::unique_lock<std::mutex>& lock);
  /// One dial episode; throws RpcGiveUpError when max_connect_attempts
  /// ran out or the peer's protocol version differs.
  std::shared_ptr<RpcClient> dial_with_backoff();

  void send_attempt(RequestPtr request);
  void on_response(const RequestPtr& request, Status status,
                   const std::vector<double>& results,
                   const std::string& error);
  bool should_retry(Status status, const std::string& error) const;
  void schedule_retry(const RequestPtr& request);
  void finish(const RequestPtr& request, Status status,
              const std::vector<double>& results, const std::string& error,
              GiveUpReason reason);
  void retry_loop();

  ResilientClientConfig config_;
  std::uint64_t key_base_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable cv_;  ///< connection hand-off + retry wake-ups
  std::shared_ptr<RpcClient> client_;
  bool connecting_ = false;
  bool closed_ = false;
  std::uint64_t next_key_ = 0;
  std::uint64_t connects_ = 0;
  std::size_t outstanding_ = 0;
  std::multimap<Clock::time_point, RequestPtr> retry_queue_;
  std::vector<RetryEvent> retry_log_;
  std::thread retry_thread_;
};

}  // namespace spnhbm::rpc
