// End-to-end RPC tests over real loopback sockets: handshake content,
// concurrent-client correctness (the checksum results prove byte-exact
// delivery), typed error mapping, admission-control shedding that never
// stalls the socket, the shutdown frame, and the conservation law
// received = accepted + rejected + shed, accepted = completed + failed.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../engine/mock_engine.hpp"
#include "spnhbm/compiler/sparse_evidence.hpp"
#include "spnhbm/engine/cpu_engine.hpp"
#include "spnhbm/engine/server.hpp"
#include "spnhbm/rpc/client.hpp"
#include "spnhbm/rpc/resilient_client.hpp"
#include "spnhbm/rpc/server.hpp"
#include "spnhbm/spn/evaluate.hpp"
#include "spnhbm/spn/queries.hpp"
#include "spnhbm/spn/random_spn.hpp"
#include "spnhbm/telemetry/trace.hpp"
#include "spnhbm/telemetry/trace_context.hpp"
#include "spnhbm/util/rng.hpp"

namespace spnhbm::rpc {
namespace {

using engine_test::kFeatures;
using engine_test::MockEngine;
using engine_test::expect_encoded;
using engine_test::make_request;

/// A full serving stack on an ephemeral loopback port.
struct Harness {
  explicit Harness(MockEngine::Config mock_config = {},
                   AdmissionConfig admission = {},
                   std::size_t max_connections = 64) {
    engine::ServerConfig config;
    config.batch_samples = 8;
    config.max_latency = std::chrono::microseconds(200);
    server = std::make_unique<engine::InferenceServer>(config);
    mock = std::make_shared<MockEngine>(mock_config);
    server->register_engine(mock);
    server->start();

    RpcServerConfig rpc_config;
    rpc_config.port = 0;  // ephemeral
    rpc_config.max_connections = max_connections;
    rpc_config.admission = admission;
    rpc_config.build_version = "test-build";
    front = std::make_unique<RpcServer>(*server, rpc_config);
    front->start();
  }

  ~Harness() {
    mock->release();  // harmless when the engine is not gated
    front->stop();
    server->stop();
  }

  std::unique_ptr<RpcClient> connect() {
    return RpcClient::connect("127.0.0.1", front->port());
  }

  std::shared_ptr<MockEngine> mock;
  std::unique_ptr<engine::InferenceServer> server;
  std::unique_ptr<RpcServer> front;
};

/// Waits, at most five seconds, until every request sent on `client` has
/// its response, so a stalled response fails the test instead of hanging
/// it. (submit()'s future is deferred, so its wait_for cannot tell.)
bool all_answered(const RpcClient& client) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (client.outstanding() > 0) {
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(RpcServer, HandshakeCarriesBuildAndModels) {
  Harness harness;
  const auto client = harness.connect();
  const ServerInfo& info = client->server_info();
  EXPECT_EQ(info.protocol_version, kProtocolVersion);
  EXPECT_EQ(info.build_version, "test-build");
  ASSERT_EQ(info.models.size(), 1u);
  EXPECT_EQ(info.models[0].id, "mock@1");
  EXPECT_EQ(info.models[0].input_features, kFeatures);
  EXPECT_EQ(info.input_features("mock@1"), kFeatures);
  EXPECT_EQ(info.input_features("mock"), kFeatures);  // unique bare name
  EXPECT_THROW(info.input_features("other"), RpcError);
}

TEST(RpcServer, ConcurrentClientsGetTheirOwnResults) {
  // The acceptance shape of the tentpole: >= 4 concurrent connections,
  // every response byte-identical to the engine's local computation.
  constexpr std::size_t kClients = 5;
  constexpr std::size_t kRequestsPerClient = 20;
  Harness harness;

  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const auto client = harness.connect();
      std::vector<std::vector<std::uint8_t>> requests;
      std::vector<std::future<std::vector<double>>> futures;
      for (std::size_t r = 0; r < kRequestsPerClient; ++r) {
        // Distinct rows per (client, request): a response routed to the
        // wrong request or connection changes the checksum.
        const auto tag =
            static_cast<std::uint8_t>(c * kRequestsPerClient + r);
        const std::size_t rows = 1 + (c + r) % 3;
        requests.push_back(make_request(rows, tag));
        futures.push_back(client->submit("mock@1", requests.back()));
      }
      for (std::size_t r = 0; r < kRequestsPerClient; ++r) {
        expect_encoded(requests[r], futures[r].get());
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const RpcServerStats stats = harness.front->stats();
  EXPECT_EQ(stats.connections_accepted, kClients);
  EXPECT_EQ(stats.received, kClients * kRequestsPerClient);
  EXPECT_EQ(stats.accepted, kClients * kRequestsPerClient);
  EXPECT_EQ(stats.completed, kClients * kRequestsPerClient);
  EXPECT_TRUE(stats.conserved()) << stats.describe();
  EXPECT_EQ(stats.request_latency_us.count, kClients * kRequestsPerClient);
}

TEST(RpcServer, TypedErrorsForBadRequests) {
  Harness harness;
  const auto client = harness.connect();

  try {
    client->infer("absent@1", make_request(1, 1));
    FAIL() << "expected kUnknownModel";
  } catch (const RpcStatusError& e) {
    EXPECT_EQ(e.status(), Status::kUnknownModel);
    EXPECT_FALSE(e.retryable());
  }

  try {
    client->infer("mock@1", {1, 2, 3});  // not a multiple of kFeatures
    FAIL() << "expected kInvalidRequest";
  } catch (const RpcStatusError& e) {
    EXPECT_EQ(e.status(), Status::kInvalidRequest);
    EXPECT_FALSE(e.retryable());
  }

  // Rejections count toward conservation, on the `rejected` side.
  const RpcServerStats stats = harness.front->stats();
  EXPECT_EQ(stats.received, 2u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_TRUE(stats.conserved()) << stats.describe();
}

TEST(RpcServer, RateLimitShedsWithRetryableOverloaded) {
  AdmissionConfig admission;
  admission.rate_limit_rps = 0.001;  // one token, then dry for the test
  admission.burst = 1.0;
  Harness harness({}, admission);
  const auto client = harness.connect();

  const auto request = make_request(1, 3);
  expect_encoded(request, client->infer("mock@1", request));  // the token
  try {
    client->infer("mock@1", make_request(1, 4));
    FAIL() << "expected kOverloaded";
  } catch (const RpcStatusError& e) {
    EXPECT_EQ(e.status(), Status::kOverloaded);
    EXPECT_TRUE(e.retryable());
  }
  const RpcServerStats stats = harness.front->stats();
  EXPECT_EQ(stats.shed_rate_limit, 1u);
  EXPECT_TRUE(stats.conserved()) << stats.describe();
}

TEST(RpcServer, QueueDepthShedRespondsWhileEngineIsWedged) {
  // The "overload never stalls the socket" guarantee: with the engine
  // blocked and the queue-depth gate closed, a shed response must come
  // back promptly — the reader thread answers from admission control
  // without ever waiting on queue space. The probe uses its own
  // connection: on the first client's connection the shed response would
  // (correctly) queue behind the wedged in-flight request, because the
  // writer delivers in request order.
  MockEngine::Config mock_config;
  mock_config.gated = true;
  AdmissionConfig admission;
  admission.max_outstanding_samples = 1;
  Harness harness(mock_config, admission);
  const auto client = harness.connect();
  const auto prober = harness.connect();

  const auto first = make_request(1, 10);
  auto first_future = client->submit("mock@1", first);  // fills the bound
  // Make sure the wedged request reached the engine before probing, so
  // outstanding_samples() actually reflects it.
  while (harness.server->outstanding_samples() == 0) {
    std::this_thread::yield();
  }

  auto shed_future = prober->submit("mock@1", make_request(1, 11));
  ASSERT_TRUE(all_answered(*prober))
      << "shed response stalled behind the wedged engine";
  try {
    shed_future.get();
    FAIL() << "expected kOverloaded";
  } catch (const RpcStatusError& e) {
    EXPECT_EQ(e.status(), Status::kOverloaded);
    EXPECT_TRUE(e.retryable());
  }

  harness.mock->release();
  expect_encoded(first, first_future.get());
  const RpcServerStats stats = harness.front->stats();
  EXPECT_EQ(stats.shed_queue_depth, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_TRUE(stats.conserved()) << stats.describe();
}

TEST(RpcServer, PerRequestDeadlineMapsToDeadlineExceeded) {
  MockEngine::Config mock_config;
  mock_config.gated = true;
  Harness harness(mock_config);
  const auto client = harness.connect();

  auto future =
      client->submit("mock@1", make_request(1, 20), /*deadline_us=*/10'000);
  ASSERT_TRUE(all_answered(*client));
  try {
    future.get();
    FAIL() << "expected kDeadlineExceeded";
  } catch (const RpcStatusError& e) {
    EXPECT_EQ(e.status(), Status::kDeadlineExceeded);
  }
  harness.mock->release();
  // The deadline-expired request still counts exactly once, as failed.
  // (stats() is read after release; the writer already counted it when it
  // sent the response.)
  const RpcServerStats stats = harness.front->stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
}

TEST(RpcServer, DeadlineAboveTheCapIsAnInvalidRequest) {
  // A deadline past kMaxDeadlineUs (here the largest u64) is refused at
  // the front door instead of overflowing the server's deadline clock.
  Harness harness;
  const auto client = harness.connect();
  try {
    client->infer("mock@1", make_request(1, 5), UINT64_MAX);
    FAIL() << "expected kInvalidRequest";
  } catch (const RpcStatusError& e) {
    EXPECT_EQ(e.status(), Status::kInvalidRequest);
    EXPECT_FALSE(e.retryable());
  }
  // The books stay conserved and the connection keeps serving, deadlines
  // at the cap included.
  const auto request = make_request(2, 6);
  expect_encoded(request, client->infer("mock@1", request, kMaxDeadlineUs));
  const RpcServerStats stats = harness.front->stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_TRUE(stats.conserved()) << stats.describe();
}

/// Raw ADMIN poll over a fresh socket: consume the server's HELLO, send
/// one kAdmin frame, decode the kAdminReply. RpcClient's reader thread
/// only expects kResponse frames, so the introspection plane speaks the
/// wire directly — exactly what `spnhbm top` does.
AdminReplyFrame admin_poll(std::uint16_t port) {
  Socket socket = Socket::connect("127.0.0.1", port);
  const auto read_frame = [&socket]() {
    std::uint8_t header[kFrameHeaderBytes];
    if (!socket.recv_exact(header, sizeof(header))) {
      throw RpcError("peer closed before frame");
    }
    FrameType type;
    const std::uint32_t length = decode_frame_header(header, type);
    Frame frame;
    frame.type = type;
    frame.body.resize(length);
    if (length > 0 && !socket.recv_exact(frame.body.data(), length)) {
      throw RpcError("peer closed mid-frame");
    }
    return frame;
  };
  const Frame hello = read_frame();
  EXPECT_EQ(hello.type, FrameType::kHello);
  const auto wire = encode_frame(encode_admin());
  socket.send_all(wire.data(), wire.size());
  const Frame reply = read_frame();
  EXPECT_EQ(reply.type, FrameType::kAdminReply);
  return decode_admin_reply(reply.body);
}

/// Parses a Prometheus text exposition into name -> value, skipping
/// comments and labelled (histogram bucket) lines — the same projection
/// `spnhbm top` renders from.
std::map<std::string, double> parse_exposition_lines(const std::string& text) {
  std::map<std::string, double> values;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    const std::string name = line.substr(0, space);
    if (name.find('{') != std::string::npos) continue;
    values[name] = std::stod(line.substr(space + 1));
  }
  return values;
}

TEST(RpcServer, AdminReplyCarriesParseableMetricsAndHealth) {
  Harness harness;
  const auto client = harness.connect();
  const auto request = make_request(1, 50);
  expect_encoded(request, client->infer("mock@1", request));
  expect_encoded(request, client->infer("mock@1", request));

  const AdminReplyFrame reply = admin_poll(harness.front->port());
  EXPECT_EQ(reply.protocol_version, kProtocolVersion);
  EXPECT_EQ(reply.build_version, "test-build");

  const auto metrics = parse_exposition_lines(reply.metrics_text);
  ASSERT_TRUE(metrics.count("spnhbm_rpc_completed"));
  EXPECT_GE(metrics.at("spnhbm_rpc_completed"), 2.0);
  ASSERT_TRUE(metrics.count("spnhbm_rpc_request_latency_us_count"));
  EXPECT_GE(metrics.at("spnhbm_rpc_request_latency_us_count"), 2.0);

  // Per-engine health comes from the inference server behind the front.
  EXPECT_NE(reply.health_text.find("engine 0"), std::string::npos);
  EXPECT_NE(reply.health_text.find("healthy"), std::string::npos);
  // A single server has no fleet replica map.
  EXPECT_TRUE(reply.replicas_text.empty());
  EXPECT_NE(reply.tail_text.find("retained"), std::string::npos);

  // The ADMIN exchange is out of band: it never perturbs the inference
  // conservation law.
  const RpcServerStats stats = harness.front->stats();
  EXPECT_EQ(stats.received, 2u);
  EXPECT_TRUE(stats.conserved()) << stats.describe();
}

TEST(RpcServer, TracedRequestsLandInTheTailSampler) {
  // Enable the global tracer for this test only: the client mints a
  // context per request (head sampler at 1), the server's writer offers
  // every traced request to the tail ring.
  struct TracerGuard {
    TracerGuard() {
      telemetry::tracer().enable();
      telemetry::head_sampler().set_period(1);
    }
    ~TracerGuard() { telemetry::tracer().disable(); }
  } guard;

  Harness harness;
  const auto client = harness.connect();
  const auto request = make_request(1, 60);
  expect_encoded(request, client->infer("mock@1", request));
  expect_encoded(request, client->infer("mock@1", request));

  EXPECT_EQ(harness.front->tail_sampler().offered(), 2u);
  EXPECT_EQ(harness.front->tail_sampler().size(), 2u);
  const auto kept = harness.front->tail_sampler().snapshot();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_NE(kept[0].trace_id, 0u);
  EXPECT_EQ(kept[0].model, "mock@1");
  EXPECT_GT(kept[0].latency_us, 0.0);
  ASSERT_FALSE(kept[0].spans.empty());
  EXPECT_EQ(kept[0].spans[0].name, "request");

  const AdminReplyFrame reply = admin_poll(harness.front->port());
  EXPECT_NE(reply.tail_text.find("2/64 retained of 2 offered"),
            std::string::npos);
  EXPECT_NE(reply.tail_text.find("trace="), std::string::npos);
}

TEST(RpcServer, ShutdownFrameSignalsTheServer) {
  Harness harness;
  const auto client = harness.connect();
  EXPECT_FALSE(harness.front->shutdown_requested());
  client->request_shutdown();
  // The frame travels asynchronously; wait_for_shutdown_request blocks
  // until the reader thread has seen it.
  harness.front->wait_for_shutdown_request();
  EXPECT_TRUE(harness.front->shutdown_requested());
}

TEST(RpcServer, ConnectionLimitClosesExtraClients) {
  Harness harness({}, {}, /*max_connections=*/1);
  const auto first = harness.connect();  // hello received => registered
  EXPECT_THROW(harness.connect(), RpcError);
  EXPECT_EQ(harness.front->stats().connections_rejected, 1u);
  // The surviving client still works.
  const auto request = make_request(1, 30);
  expect_encoded(request, first->infer("mock@1", request));
}

TEST(RpcServer, StopResolvesInFlightRequestsAndClientSeesClosure) {
  Harness harness;
  const auto client = harness.connect();
  const auto request = make_request(2, 40);
  expect_encoded(request, client->infer("mock@1", request));
  harness.front->stop();
  // The connection is gone; new submits fail with a transport error, not
  // a hang.
  EXPECT_THROW(client->infer("mock@1", make_request(1, 41)), Error);
  const RpcServerStats stats = harness.front->stats();
  EXPECT_TRUE(stats.conserved()) << stats.describe();
}

// --- Query-generic serving (wire v4) --------------------------------------

constexpr std::size_t kQueryVars = 6;

/// A serving stack hosting the same SPN under all three query kinds, as
/// three real CpuEngine lanes ("q@1", "q@1#marginal", "q@1#mpe").
struct QueryHarness {
  QueryHarness() {
    spn::RandomSpnConfig spn_config;
    spn_config.variables = kQueryVars;
    spn_config.leaf_domain = compiler::kMissingByte;
    spn_config.seed = 2026;
    spn = spn::make_random_spn(spn_config);

    engine::ServerConfig config;
    config.batch_samples = 8;
    config.max_latency = std::chrono::microseconds(200);
    server = std::make_unique<engine::InferenceServer>(config);
    for (const auto query :
         {compiler::QueryKind::kJoint, compiler::QueryKind::kMarginal,
          compiler::QueryKind::kMpe}) {
      compiler::CompileOptions options;
      options.query = query;
      options.input_domain = compiler::kMissingByte;
      server->register_engine(std::make_shared<engine::CpuEngine>(
          model::ModelArtifact::compile("q", "1", spn,
                                        arith::make_float64_backend(),
                                        options)));
    }
    server->start();

    RpcServerConfig rpc_config;
    rpc_config.port = 0;
    rpc_config.build_version = "test-build";
    front = std::make_unique<RpcServer>(*server, rpc_config);
    front->start();
  }

  ~QueryHarness() {
    front->stop();
    server->stop();
  }

  std::unique_ptr<RpcClient> connect() {
    return RpcClient::connect("127.0.0.1", front->port());
  }

  /// Rows with random missingness plus the double twins (NaN) the local
  /// reference queries read.
  void make_batch(std::size_t count, std::uint64_t seed,
                  std::vector<std::uint8_t>& bytes,
                  std::vector<std::vector<double>>& doubles) {
    Rng rng(seed);
    for (std::size_t i = 0; i < count; ++i) {
      std::vector<double> row(kQueryVars);
      for (std::size_t v = 0; v < kQueryVars; ++v) {
        if (rng.next_below(3) == 0) {
          bytes.push_back(compiler::kMissingByte);
          row[v] = spn::missing_value();
        } else {
          const auto byte = static_cast<std::uint8_t>(
              rng.next_below(compiler::kMissingByte));
          bytes.push_back(byte);
          row[v] = static_cast<double>(byte);
        }
      }
      doubles.push_back(std::move(row));
    }
  }

  spn::Spn spn;
  std::unique_ptr<engine::InferenceServer> server;
  std::unique_ptr<RpcServer> front;
};

TEST(RpcServer, RemoteMarginalAndMpeMatchTheLocalReference) {
  QueryHarness harness;
  const auto client = harness.connect();

  // The handshake advertises every lane with its width.
  const ServerInfo& info = client->server_info();
  ASSERT_EQ(info.models.size(), 3u);
  EXPECT_EQ(info.input_features("q@1#marginal"), kQueryVars);
  // Suffixed bare refs resolve within their own query kind, as the
  // server resolves them.
  EXPECT_EQ(info.input_features("q#mpe"), kQueryVars);

  std::vector<std::uint8_t> bytes;
  std::vector<std::vector<double>> doubles;
  harness.make_batch(16, 31, bytes, doubles);

  // The query kind travels in the lane ref only.
  const auto p_marginal = client->infer("q@1#marginal", bytes);
  const auto p_mpe = client->infer("q#mpe", bytes);

  spn::Evaluator reference(harness.spn);
  ASSERT_EQ(p_marginal.size(), 16u);
  ASSERT_EQ(p_mpe.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    // Results travel as raw IEEE bits: remote must equal local exactly.
    EXPECT_EQ(p_marginal[i], reference.evaluate(doubles[i])) << i;
    EXPECT_EQ(p_mpe[i], spn::max_product_value(harness.spn, doubles[i],
                                               compiler::kMissingByte))
        << i;
  }
  const RpcServerStats stats = harness.front->stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_TRUE(stats.conserved()) << stats.describe();
}

TEST(RpcServer, RemoteSparseEvidenceEqualsDense) {
  QueryHarness harness;
  const auto client = harness.connect();

  // Mostly-missing evidence (one observed variable per sample) is the
  // regime sparse encoding exists for: the stream must be smaller than
  // the dense rows it replaces.
  std::vector<std::uint8_t> bytes;
  Rng rng(32);
  for (std::size_t i = 0; i < 12; ++i) {
    std::vector<std::uint8_t> row(kQueryVars, compiler::kMissingByte);
    row[rng.next_below(kQueryVars)] =
        static_cast<std::uint8_t>(rng.next_below(compiler::kMissingByte));
    bytes.insert(bytes.end(), row.begin(), row.end());
  }
  // The marginal module's default evidence is all-missing, so the sparse
  // twin carries only the observed variables.
  const std::vector<std::uint8_t> defaults(kQueryVars,
                                           compiler::kMissingByte);
  const auto stream = compiler::encode_sparse(
      compiler::sparse_from_dense(bytes, kQueryVars, defaults));
  ASSERT_LT(stream.size(), bytes.size());

  QueryOptions sparse;
  sparse.encoding = kEncodingSparse;
  sparse.sample_count = 12;
  const auto p_dense = client->infer("q@1#marginal", bytes);
  const auto p_sparse = client->infer("q@1#marginal", stream, 0, sparse);
  ASSERT_EQ(p_sparse.size(), 12u);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(p_sparse[i], p_dense[i]) << i;
  }
}

TEST(RpcServer, MalformedSparseStreamsRejectWithInvalidRequest) {
  QueryHarness harness;
  const auto client = harness.connect();

  const std::vector<std::uint8_t> defaults(kQueryVars,
                                           compiler::kMissingByte);
  std::vector<std::uint8_t> bytes;
  std::vector<std::vector<double>> doubles;
  harness.make_batch(2, 33, bytes, doubles);
  auto stream = compiler::encode_sparse(
      compiler::sparse_from_dense(bytes, kQueryVars, defaults));

  QueryOptions sparse;
  sparse.encoding = kEncodingSparse;
  sparse.sample_count = 2;

  // Truncated stream.
  std::vector<std::uint8_t> truncated(stream.begin(), stream.end() - 1);
  try {
    client->infer("q@1#marginal", truncated, 0, sparse);
    FAIL() << "expected kInvalidRequest";
  } catch (const RpcStatusError& e) {
    EXPECT_EQ(e.status(), Status::kInvalidRequest);
    EXPECT_FALSE(e.retryable());
  }

  // Duplicate index inside one sample: {count=2, (3,1), (3,2)}.
  const std::vector<std::uint8_t> duplicate = {2, 0, 3, 0, 1, 3, 0, 2,  //
                                               0, 0};
  try {
    client->infer("q@1#marginal", duplicate, 0, sparse);
    FAIL() << "expected kInvalidRequest";
  } catch (const RpcStatusError& e) {
    EXPECT_EQ(e.status(), Status::kInvalidRequest);
  }

  // Both rejections stayed at the front door: books conserved, no engine
  // marked unhealthy.
  const RpcServerStats stats = harness.front->stats();
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_TRUE(stats.conserved()) << stats.describe();
  for (std::size_t i = 0; i < harness.server->engine_count(); ++i) {
    EXPECT_EQ(harness.server->engine_health(i),
              engine::EngineHealth::kHealthy);
  }
}

/// Minimal older peer: accepts connections and answers each with a HELLO
/// advertising `version`, then holds the socket open.
struct OldPeer {
  explicit OldPeer(std::uint16_t version) : listener(0) {
    acceptor = std::thread([this, version] {
      while (true) {
        Socket conn = listener.accept();
        if (!conn.valid()) return;  // listener shut down
        HelloFrame hello;
        hello.protocol_version = version;
        hello.build_version = "old-build";
        hello.models = {{"q@1", static_cast<std::uint32_t>(kQueryVars)}};
        const auto wire = encode_frame(encode_hello(hello));
        conn.send_all(wire.data(), wire.size());
        std::uint8_t byte;
        try {
          conn.recv_exact(&byte, 1);  // block until the client hangs up
        } catch (const RpcError&) {
        }
      }
    });
  }

  ~OldPeer() {
    listener.shutdown();
    acceptor.join();
  }

  Listener listener;
  std::thread acceptor;
};

TEST(RpcServer, QueryRequestsAgainstV3PeerFailClientSide) {
  // The client speaks exactly one protocol version: against a v3 or v4
  // peer the handshake itself fails, so no request frame the old server
  // could misparse is ever sent.
  for (const std::uint16_t version : {std::uint16_t{3}, std::uint16_t{4}}) {
    OldPeer peer(version);
    try {
      (void)RpcClient::connect("127.0.0.1", peer.listener.port());
      FAIL() << "connected to a v" << version << " peer";
    } catch (const RpcError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("v" + std::to_string(version)), std::string::npos)
          << what;
      EXPECT_NE(what.find("v" + std::to_string(kProtocolVersion)),
                std::string::npos)
          << what;
    }
  }
}

TEST(RpcServer, ResilientClientGivesUpOnV3PeerWithoutRetrying) {
  OldPeer peer(3);
  ResilientClientConfig config;
  config.port = peer.listener.port();
  config.max_attempts = 5;
  ResilientClient client(config);

  try {
    client.infer("q@1#marginal", std::vector<std::uint8_t>(kQueryVars, 0));
    FAIL() << "expected RpcGiveUpError";
  } catch (const RpcGiveUpError& e) {
    // Terminal, not transport: one classification, zero redials.
    EXPECT_EQ(e.reason(), GiveUpReason::kNonRetryable);
    EXPECT_EQ(e.last_status(), Status::kInvalidRequest);
  }
  EXPECT_TRUE(client.retry_log().empty());
  client.close();
}

}  // namespace
}  // namespace spnhbm::rpc
