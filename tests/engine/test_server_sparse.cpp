// Sparse coalescing in the InferenceServer: CSR requests of one lane join
// into full batches, are sliced at sample boundaries, and never share a
// batch with dense rows; retry, deadline expiry and the request books keep
// working for sliced sparse requests. Every served result is compared bit
// for bit with the same request run alone through infer_sparse and
// through its dense rows on a reference card.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "spnhbm/arith/backend.hpp"
#include "spnhbm/compiler/sparse_evidence.hpp"
#include "spnhbm/engine/chaos_engine.hpp"
#include "spnhbm/engine/fpga_engine.hpp"
#include "spnhbm/engine/server.hpp"
#include "spnhbm/fault/fault.hpp"
#include "spnhbm/spn/random_spn.hpp"
#include "spnhbm/util/rng.hpp"

namespace spnhbm::engine {
namespace {

constexpr std::size_t kVars = 8;
const std::string kLane = "s@1#marginal";

ModelHandle marginal_artifact() {
  static const ModelHandle artifact = [] {
    spn::RandomSpnConfig config;
    config.variables = kVars;
    config.leaf_domain = compiler::kMissingByte;
    config.seed = 211;
    compiler::CompileOptions options;
    options.query = compiler::QueryKind::kMarginal;
    options.input_domain = compiler::kMissingByte;
    return model::ModelArtifact::compile("s", "1",
                                         spn::make_random_spn(config),
                                         arith::make_float64_backend(),
                                         options);
  }();
  return artifact;
}

/// One request in both encodings.
struct Request {
  std::size_t samples = 0;
  std::vector<std::uint8_t> dense;
  std::vector<std::uint8_t> sparse;
};

/// Rows where about half the variables are missing, so the CSR stream's
/// per-sample records differ in length.
Request make_request(std::size_t samples, std::uint64_t seed) {
  Rng rng(seed);
  Request request;
  request.samples = samples;
  for (std::size_t i = 0; i < samples * kVars; ++i) {
    request.dense.push_back(
        rng.next_below(2) == 0
            ? compiler::kMissingByte
            : static_cast<std::uint8_t>(rng.next_below(compiler::kMissingByte)));
  }
  request.sparse = compiler::encode_sparse(compiler::sparse_from_dense(
      request.dense, kVars, marginal_artifact()->module().default_evidence()));
  return request;
}

std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out(values.size());
  std::memcpy(out.data(), values.data(), values.size() * sizeof(double));
  return out;
}

/// `served` must equal the request run alone, sparse and dense, on a
/// fresh card.
void expect_bit_equal(const Request& request,
                      const std::vector<double>& served) {
  FpgaSimEngine reference(marginal_artifact());
  EXPECT_EQ(bits(served),
            bits(reference.infer_sparse(request.sparse, request.samples)));
  EXPECT_EQ(bits(served), bits(reference.infer(request.dense)));
}

/// What one engine call carried.
struct Call {
  bool sparse = false;
  std::size_t samples = 0;
  bool operator==(const Call&) const = default;
};

/// Records every batch an inner card receives; optionally holds the first
/// call until release(), and runs a hook as each call arrives.
class RecordingEngine final : public InferenceEngine {
 public:
  explicit RecordingEngine(bool gate_first = false) : gated_(gate_first) {
    FpgaEngineConfig config;
    config.pe_count = 4;
    inner_ = std::make_shared<FpgaSimEngine>(marginal_artifact(), config);
  }

  const EngineCapabilities& capabilities() const override {
    return inner_->capabilities();
  }
  const ModelHandle& loaded_model() const override {
    return inner_->loaded_model();
  }
  void activate(ModelHandle next) override { inner_->activate(next); }
  BatchHandle submit(std::span<const std::uint8_t> samples,
                     std::span<double> results) override {
    arrive({false, results.size()});
    return inner_->submit(samples, results);
  }
  BatchHandle submit_sparse(std::span<const std::uint8_t> stream,
                            std::size_t sample_count,
                            std::span<double> results) override {
    arrive({true, sample_count});
    return inner_->submit_sparse(stream, sample_count, results);
  }
  void wait(BatchHandle handle) override { inner_->wait(handle); }
  double measure_throughput(std::uint64_t samples) override {
    return inner_->measure_throughput(samples);
  }
  EngineStats stats() const override { return inner_->stats(); }

  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    gated_ = false;
    cv_.notify_all();
  }
  std::vector<Call> calls() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return calls_;
  }
  /// Set before the server starts; runs on the worker thread.
  std::function<void()> on_call;

 private:
  void arrive(Call call) {
    if (on_call) on_call();
    std::unique_lock<std::mutex> lock(mutex_);
    calls_.push_back(call);
    cv_.wait(lock, [&] { return !gated_; });
  }

  std::shared_ptr<FpgaSimEngine> inner_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool gated_;
  std::vector<Call> calls_;
};

ServerConfig config_with_target(std::size_t target) {
  ServerConfig config;
  config.batch_samples = target;
  return config;
}

TEST(ServerSparse, QueuedRequestsFormCeilTotalOverTargetBatches) {
  const std::vector<std::size_t> sizes = {5, 17, 30, 1, 64, 9, 40, 23, 12, 3};
  auto engine = std::make_shared<RecordingEngine>();
  InferenceServer server(config_with_target(64));
  server.register_engine(engine);

  std::vector<Request> requests;
  std::vector<std::future<std::vector<double>>> futures;
  std::size_t total = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    requests.push_back(make_request(sizes[i], 300 + i));
    futures.push_back(
        *server.try_submit_sparse(kLane, requests.back().sparse, sizes[i]));
    total += sizes[i];
  }
  server.start();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_bit_equal(requests[i], futures[i].get());
  }
  server.stop();

  ASSERT_EQ(total, 204u);
  EXPECT_EQ(server.stats().batches, (total + 63) / 64);
  EXPECT_EQ(engine->calls(), (std::vector<Call>{
                                 {true, 64}, {true, 64}, {true, 64}, {true, 12}}));
  EXPECT_EQ(engine->stats().batches, 4u);
}

TEST(ServerSparse, MiddleRequestIsSlicedAcrossTwoBatches) {
  auto engine = std::make_shared<RecordingEngine>();
  InferenceServer server(config_with_target(7));
  server.register_engine(engine);
  std::vector<Request> requests;
  std::vector<std::future<std::vector<double>>> futures;
  for (std::uint64_t i = 0; i < 3; ++i) {
    requests.push_back(make_request(5, 400 + i));
    futures.push_back(*server.try_submit_sparse(kLane, requests.back().sparse,
                                                5));
  }
  server.start();
  server.stop();

  // [A0..5 B0..2] [B2..5 C0..4] [C4..5]: B's samples ride two batches.
  EXPECT_EQ(engine->calls(),
            (std::vector<Call>{{true, 7}, {true, 7}, {true, 1}}));
  for (std::size_t i = 0; i < 3; ++i) {
    expect_bit_equal(requests[i], futures[i].get());
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.samples, 15u);
  EXPECT_EQ(server.outstanding_samples(), 0u);
}

TEST(ServerSparse, InterleavedEncodingsNeverShareABatchAndCompleteInOrder) {
  // D3 S3 S2 D4 S5 D1 with target 8: each batch takes the front's
  // encoding and closes where the other one comes up.
  const std::vector<std::pair<bool, std::size_t>> shape = {
      {false, 3}, {true, 3}, {true, 2}, {false, 4}, {true, 5}, {false, 1}};
  auto engine = std::make_shared<RecordingEngine>();
  InferenceServer server(config_with_target(8));
  server.register_engine(engine);

  std::vector<Request> requests;
  std::vector<std::future<std::vector<double>>> futures;
  for (std::size_t i = 0; i < shape.size(); ++i) {
    const auto [sparse, samples] = shape[i];
    requests.push_back(make_request(samples, 500 + i));
    futures.push_back(
        sparse ? *server.try_submit_sparse(kLane, requests.back().sparse,
                                           samples)
               : *server.try_submit(kLane, requests.back().dense));
  }
  // As each batch reaches the card, the requests already answered must be
  // exactly a prefix of the submission order.
  std::vector<std::size_t> answered_prefix;
  engine->on_call = [&] {
    std::size_t prefix = 0;
    while (prefix < futures.size() &&
           futures[prefix].wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      ++prefix;
    }
    for (std::size_t i = prefix; i < futures.size(); ++i) {
      EXPECT_NE(futures[i].wait_for(std::chrono::seconds(0)),
                std::future_status::ready)
          << "request " << i << " answered out of order";
    }
    answered_prefix.push_back(prefix);
  };
  server.start();
  server.stop();

  EXPECT_EQ(engine->calls(), (std::vector<Call>{{false, 3},
                                                {true, 5},
                                                {false, 4},
                                                {true, 5},
                                                {false, 1}}));
  EXPECT_EQ(answered_prefix, (std::vector<std::size_t>{0, 1, 3, 4, 5}));
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_bit_equal(requests[i], futures[i].get());
  }
}

TEST(ServerSparse, CoalescedBatchThatFailsOnceIsRetried) {
  fault::FaultPlan plan;
  fault::FaultRule rule;
  rule.site = "engine.submit";
  rule.kind = fault::FaultKind::kFail;
  rule.from = 0;
  rule.until = 1;
  rule.has_window = true;
  plan.rules.push_back(rule);
  const fault::ScopedFaultPlan armed(std::move(plan));

  auto recording = std::make_shared<RecordingEngine>();
  InferenceServer server(config_with_target(32));
  server.register_engine(std::make_shared<ChaosEngine>(recording));
  std::vector<Request> requests;
  std::vector<std::future<std::vector<double>>> futures;
  for (std::uint64_t i = 0; i < 3; ++i) {
    requests.push_back(make_request(5 + i, 600 + i));
    futures.push_back(*server.try_submit_sparse(
        kLane, requests.back().sparse, requests.back().samples));
  }
  server.start();
  for (std::size_t i = 0; i < 3; ++i) {
    expect_bit_equal(requests[i], futures[i].get());
  }
  server.stop();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batch_retries, 1u);
  EXPECT_EQ(stats.failed_requests, 0u);
  // The injected failure fired at the chaos boundary; the card saw the
  // one coalesced stream once, on the retry.
  EXPECT_EQ(recording->calls(), (std::vector<Call>{{true, 18}}));
}

TEST(ServerSparse, DeadlineCancelsOnlyTheUndispatchedSamples) {
  // Target 4, one 6-sample request: its first 4 samples dispatch at once
  // and are held on the card; the last 2 wait for a flush deadline far
  // beyond the request deadline, so expiry finds them still queued.
  auto engine = std::make_shared<RecordingEngine>(/*gate_first=*/true);
  ServerConfig config = config_with_target(4);
  config.max_latency = std::chrono::seconds(60);
  config.request_timeout = std::chrono::milliseconds(250);
  InferenceServer server(config);
  server.register_engine(engine);
  const Request request = make_request(6, 700);
  auto future = *server.try_submit_sparse(kLane, request.sparse, 6);
  server.start();

  EXPECT_THROW(future.get(), DeadlineExceededError);
  EXPECT_EQ(engine->calls(), (std::vector<Call>{{true, 4}}));
  // The 2 queued samples were cancelled; the 4 in flight stay counted.
  EXPECT_EQ(server.outstanding_samples(), 4u);

  engine->release();
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.deadline_expirations, 1u);
  EXPECT_EQ(stats.failed_requests, 0u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.samples, 4u);
  EXPECT_EQ(server.outstanding_samples(), 0u);
  EXPECT_EQ(engine->calls().size(), 1u);
}

}  // namespace
}  // namespace spnhbm::engine
