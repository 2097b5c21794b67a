// Wire-protocol fuzz: a live RpcServer is fed >= 10k seeded malformed
// frames — truncations, bad magic, oversized length claims, random bit
// flips, random bodies under valid headers (every frame type), and
// structurally valid REQUEST frames carrying broken encoding/count bytes,
// unknown query-kind lane suffixes or malformed CSR sparse streams — and
// must neither crash nor wedge: every violating connection is closed cleanly, the conservation
// identities keep holding, and a well-formed client still gets correct
// results afterwards.
//
// Shutdown frames (type 4) are explicitly excluded from the generator:
// a valid remote shutdown is a feature, not a malformation, and firing
// one mid-fuzz would end the test early by design.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "../engine/mock_engine.hpp"
#include "spnhbm/engine/server.hpp"
#include "spnhbm/rpc/client.hpp"
#include "spnhbm/rpc/server.hpp"
#include "spnhbm/rpc/socket.hpp"
#include "spnhbm/rpc/wire.hpp"
#include "spnhbm/util/rng.hpp"

namespace spnhbm::rpc {
namespace {

using engine_test::MockEngine;
using engine_test::expect_encoded;
using engine_test::make_request;

constexpr std::size_t kFuzzFrames = 10'000;
constexpr std::uint8_t kShutdownType = 4;

void put_u32(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
  }
}

std::vector<std::uint8_t> valid_request_wire(Rng& rng) {
  RequestFrame request;
  request.request_id = rng.next_u64();
  request.model = "mock@1";
  request.sample_count = 1 + static_cast<std::uint32_t>(rng.next_below(3));
  request.samples = make_request(request.sample_count,
                                 static_cast<std::uint8_t>(rng.next_u64()));
  if (rng.next_below(4) == 0) request.idempotency_key = rng.next_u64() | 1;
  if (rng.next_below(4) == 0) request.trace.trace_id = rng.next_u64() | 1;
  return encode_frame(encode_request(request));
}

/// A structurally valid REQUEST frame whose fields or sparse payload are
/// wrong: query-kind lane suffixes the mock does not serve, bogus
/// encoding/count bytes, sample-count lies, and CSR streams that are
/// truncated, out of range, duplicated or non-increasing. The server
/// must answer with a typed rejection or a clean close — never a crash
/// and never an engine fault.
std::vector<std::uint8_t> malformed_request_wire(Rng& rng) {
  static const char* const kLanes[] = {"mock@1", "mock@1#marginal",
                                       "mock@1#mpe"};
  RequestFrame request;
  request.request_id = rng.next_u64();
  request.model = kLanes[rng.next_below(3)];
  // A fuzzed deadline is mostly past the server's cap.
  if (rng.next_below(4) == 0) request.deadline_us = rng.next_u64();
  request.encoding = kEncodingSparse;
  request.sample_count = 1 + static_cast<std::uint32_t>(rng.next_below(4));
  switch (rng.next_below(5)) {
    case 0:  // truncated stream: count promises more pairs than sent
      request.samples = {5, 0, 1, 0, 9};
      break;
    case 1:  // index out of the mock's 4-feature range
      request.samples = {1, 0, 200, 0, 9};
      break;
    case 2:  // duplicate index
      request.samples = {2, 0, 1, 0, 3, 1, 0, 4};
      break;
    case 3:  // decreasing indices
      request.samples = {2, 0, 3, 0, 3, 1, 0, 4};
      break;
    default:  // random bytes as a stream
      request.samples.resize(1 + rng.next_below(32));
      for (auto& b : request.samples) {
        b = static_cast<std::uint8_t>(rng.next_u64());
      }
      break;
  }
  std::vector<std::uint8_t> wire = encode_frame(encode_request(request));
  // In a third of the frames, also corrupt the encoding byte or zero the
  // sample count in place (the encoder refuses to produce either, the
  // decoder must not accept them).
  if (rng.next_below(3) == 0) {
    const std::size_t encoding_offset =
        kFrameHeaderBytes + 8 + 2 + request.model.size() + 8;
    if (rng.next_below(2) == 0) {
      wire[encoding_offset] =
          static_cast<std::uint8_t>(2 + rng.next_below(254));
    } else {
      put_u32(wire, encoding_offset + 1, 0);
    }
  }
  return wire;
}

std::vector<std::uint8_t> malformed_frame(Rng& rng) {
  std::vector<std::uint8_t> wire;
  switch (rng.next_below(7)) {
    case 0: {  // pure garbage, no header structure at all
      wire.resize(1 + rng.next_below(64));
      for (auto& b : wire) b = static_cast<std::uint8_t>(rng.next_u64());
      break;
    }
    case 1: {  // valid request with 1..8 random bit flips
      wire = valid_request_wire(rng);
      const std::size_t flips = 1 + rng.next_below(8);
      for (std::size_t f = 0; f < flips; ++f) {
        const std::size_t at = rng.next_below(wire.size());
        wire[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
      }
      break;
    }
    case 2: {  // truncation: a valid frame cut mid-body
      wire = valid_request_wire(rng);
      wire.resize(1 + rng.next_below(wire.size() - 1));
      break;
    }
    case 3: {  // bad magic
      wire = valid_request_wire(rng);
      put_u32(wire, 0, static_cast<std::uint32_t>(rng.next_u64()));
      break;
    }
    case 4: {  // oversized length claim (kMaxBodyBytes+1 .. u32 max)
      wire = valid_request_wire(rng);
      put_u32(wire, 5,
              kMaxBodyBytes + 1 +
                  static_cast<std::uint32_t>(
                      rng.next_below(0xFFFFFFFFu - kMaxBodyBytes - 1)));
      break;
    }
    case 5: {  // valid header (any frame type), random body bytes
      const std::uint32_t body_len = 1 + rng.next_below(128);
      wire.resize(kFrameHeaderBytes + body_len);
      put_u32(wire, 0, kFrameMagic);
      wire[4] = static_cast<std::uint8_t>(
          1 + rng.next_below(
                  static_cast<std::uint8_t>(FrameType::kAdminReply)));
      put_u32(wire, 5, body_len);
      for (std::size_t at = kFrameHeaderBytes; at < wire.size(); ++at) {
        wire[at] = static_cast<std::uint8_t>(rng.next_u64());
      }
      break;
    }
    default: {  // structurally valid REQUEST with broken fields/content
      wire = malformed_request_wire(rng);
      break;
    }
  }
  // Never emit an intact shutdown control frame (see header comment).
  if (wire.size() >= kFrameHeaderBytes && wire[4] == kShutdownType) {
    wire[4] = 99;
  }
  return wire;
}

TEST(WireFuzz, TenThousandMalformedFramesNeverKillTheServer) {
  engine::ServerConfig config;
  config.batch_samples = 8;
  config.max_latency = std::chrono::microseconds(200);
  engine::InferenceServer server(config);
  server.register_engine(std::make_shared<MockEngine>());
  server.start();

  RpcServerConfig rpc_config;
  rpc_config.port = 0;
  rpc_config.max_connections = 64;
  RpcServer front(server, rpc_config);
  front.start();
  const std::uint16_t port = front.port();

  // 8 sender threads, each with its own deterministically seeded
  // generator stream: the frame *set* is seed-stable even though the
  // arrival interleaving is not (the server must survive any order).
  constexpr std::size_t kThreads = 8;
  std::atomic<std::size_t> sent{0};
  auto hammer = [&](std::size_t thread_index) {
    Rng rng(20260809 + thread_index);
    for (std::size_t i = 0; i < kFuzzFrames / kThreads; ++i) {
      const std::vector<std::uint8_t> wire = malformed_frame(rng);
      try {
        Socket socket = Socket::connect("127.0.0.1", port);
        socket.send_all(wire.data(), wire.size());
        sent.fetch_add(1, std::memory_order_relaxed);
        // Read the HELLO header before closing: this paces every sender
        // to the server's real accept rate. Closing blind lets the
        // senders run ~64 connects ahead of the accept loop, overflow
        // the listen backlog and stall a full SYN-retransmit second.
        std::uint8_t hello_header[kFrameHeaderBytes];
        (void)socket.recv_exact(hello_header, sizeof(hello_header));
      } catch (const RpcError&) {
        // A reset instead of a HELLO (the reader may kill the socket
        // before the writer speaks) is not a protocol bug; keep
        // hammering.
      }
    }
  };
  std::vector<std::thread> senders;
  for (std::size_t t = 0; t < kThreads; ++t) senders.emplace_back(hammer, t);
  for (auto& thread : senders) thread.join();
  EXPECT_GT(sent.load(), kFuzzFrames * 9 / 10) << "connect loop mostly failed";

  // The server must still speak the protocol perfectly: a well-formed
  // client round-trips a request with byte-exact results.
  auto client = RpcClient::connect("127.0.0.1", port);
  const auto payload = make_request(2, 7);
  expect_encoded(payload, client->submit("mock@1", payload).get());
  client.reset();

  // Every fuzz connection must drain (closed on violation), and the
  // books must balance: decode failures are protocol violations, not
  // requests, so received == accepted + rejected + shed + duplicates
  // still holds over whatever subset parsed as REQUEST frames.
  for (int i = 0; i < 500 && front.active_connections() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(front.active_connections(), 0u);
  const RpcServerStats stats = front.stats();
  EXPECT_TRUE(stats.conserved()) << stats.describe();
  EXPECT_EQ(stats.completed + stats.failed, stats.accepted);

  front.stop();
  server.stop();
  EXPECT_EQ(server.outstanding_samples(), 0u);
}

}  // namespace
}  // namespace spnhbm::rpc
