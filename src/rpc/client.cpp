#include "spnhbm/rpc/client.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "spnhbm/engine/service.hpp"
#include "spnhbm/telemetry/trace_context.hpp"
#include "spnhbm/util/strings.hpp"

namespace spnhbm::rpc {

namespace {

/// Explicit sample count of a dense payload: its rows at the lane's
/// advertised width. A ref or payload size the HELLO cannot resolve into
/// whole rows gets 1, so the request still reaches the server and fails
/// there with the typed UNKNOWN_MODEL / INVALID_REQUEST status.
std::uint32_t dense_sample_count(const ServerInfo& info,
                                 const std::string& ref, std::size_t bytes) {
  std::uint32_t features = 0;
  try {
    features = info.input_features(ref);
  } catch (const RpcError&) {
    return 1;
  }
  if (features == 0 || bytes == 0 || bytes % features != 0) return 1;
  return static_cast<std::uint32_t>(bytes / features);
}

}  // namespace

std::uint32_t ServerInfo::input_features(const std::string& ref) const {
  const auto find = [&](const std::string& id) {
    return std::find_if(models.begin(), models.end(),
                        [&](const ModelInfo& model) { return model.id == id; });
  };
  if (const auto it = find(ref); it != models.end()) {
    return it->input_features;
  }
  std::vector<std::string> ids;
  ids.reserve(models.size());
  for (const ModelInfo& model : models) ids.push_back(model.id);
  const engine::LaneRefMatch match = engine::resolve_lane_ref(ref, ids);
  if (!match.error.empty()) throw RpcError(match.error);
  return find(match.id)->input_features;
}

HelloFrame receive_hello(Socket& socket) {
  std::uint8_t header[kFrameHeaderBytes];
  if (!socket.recv_exact(header, sizeof(header))) {
    throw RpcError("server closed the connection before the handshake");
  }
  FrameType type;
  const std::uint32_t body_length = decode_frame_header(header, type);
  if (type != FrameType::kHello) {
    throw WireError("expected a hello frame, got type " +
                    std::to_string(static_cast<unsigned>(type)));
  }
  std::vector<std::uint8_t> body(body_length);
  if (body_length > 0 && !socket.recv_exact(body.data(), body_length)) {
    throw RpcError("server closed the connection mid-handshake");
  }
  HelloFrame hello = decode_hello(body);
  if (hello.protocol_version != kProtocolVersion) {
    throw ProtocolVersionError(strformat(
        "server speaks protocol v%u, this client speaks only v%u",
        hello.protocol_version, kProtocolVersion));
  }
  return hello;
}

std::unique_ptr<RpcClient> RpcClient::connect(const std::string& host,
                                              std::uint16_t port) {
  Socket socket = Socket::connect(host, port);
  HelloFrame hello = receive_hello(socket);
  ServerInfo info;
  info.protocol_version = hello.protocol_version;
  info.build_version = std::move(hello.build_version);
  info.models = std::move(hello.models);
  return std::unique_ptr<RpcClient>(
      new RpcClient(std::move(socket), std::move(info)));
}

RpcClient::RpcClient(Socket socket, ServerInfo info)
    : socket_(std::move(socket)), info_(std::move(info)) {
  if (telemetry::tracer().enabled()) {
    static std::atomic<std::uint64_t> next_client_ordinal{0};
    track_ = telemetry::tracer().register_track(
        "rpc/client" + std::to_string(next_client_ordinal.fetch_add(1)),
        telemetry::TraceClock::kWall);
  }
  reader_ = std::thread([this] { reader_loop(); });
}

RpcClient::~RpcClient() { close(); }

RpcClient::SentRequest RpcClient::send_request(
    const std::string& model, std::vector<std::uint8_t> samples,
    std::uint64_t deadline_us, std::uint64_t idempotency_key,
    const QueryOptions& query) {
  RequestFrame request;
  request.model = model.empty() && !info_.models.empty()
                      ? info_.models.front().id
                      : model;
  request.deadline_us = deadline_us;
  request.encoding = query.encoding;
  request.sample_count = query.sample_count;
  if (request.sample_count == 0) {
    if (query.encoding == kEncodingSparse) {
      throw RpcError("sparse evidence needs an explicit sample count");
    }
    request.sample_count =
        dense_sample_count(info_, request.model, samples.size());
  }
  request.samples = std::move(samples);
  request.idempotency_key = idempotency_key;
  // Mint a trace context for head-sampled requests when tracing is on.
  if (track_ != 0 && telemetry::head_sampler().sample()) {
    request.trace.trace_id = telemetry::mint_trace_id();
  }
  std::lock_guard<std::mutex> lock(send_mutex_);
  if (closed_) throw RpcError("client is closed");
  request.request_id = next_request_id_++;
  const telemetry::Tracer::WallTime send_start = telemetry::Tracer::wall_now();
  const std::vector<std::uint8_t> wire = encode_frame(encode_request(request));
  socket_.send_all(wire.data(), wire.size());
  if (request.trace.valid()) {
    auto& tracer = telemetry::tracer();
    tracer.complete_wall(track_, "send", send_start,
                         telemetry::Tracer::wall_now());
    // Flow start: the arrow chain every downstream span joins.
    tracer.flow_wall(track_, "request", 's', request.trace.trace_id,
                     send_start);
  }
  return {request.request_id, request.trace};
}

void RpcClient::submit_with_callback(const std::string& model,
                                     std::vector<std::uint8_t> samples,
                                     std::uint64_t deadline_us,
                                     ResponseCallback callback,
                                     std::uint64_t idempotency_key,
                                     const QueryOptions& query) {
  // pending_mutex_ is held across the send, so the reader thread cannot
  // look a response up before its callback is registered, however fast
  // the server answers. (Lock order is always pending -> send; the
  // reader only ever takes pending.)
  std::unique_lock<std::mutex> pending_lock(pending_mutex_);
  if (reader_done_) {
    throw RpcError("connection lost; request not sent");
  }
  const SentRequest sent = send_request(model, std::move(samples),
                                        deadline_us, idempotency_key, query);
  pending_.emplace(sent.request_id,
                   PendingEntry{std::move(callback), sent.trace});
}

std::future<std::vector<double>> RpcClient::submit(
    const std::string& model, std::vector<std::uint8_t> samples,
    std::uint64_t deadline_us, std::uint64_t idempotency_key,
    const QueryOptions& query) {
  auto promise = std::make_shared<std::promise<std::vector<double>>>();
  std::future<std::vector<double>> future = promise->get_future();
  submit_with_callback(
      model, std::move(samples), deadline_us,
      [promise](Status status, const std::vector<double>& results,
                const std::string& error) {
        if (status == Status::kOk) {
          promise->set_value(results);
        } else {
          promise->set_exception(
              std::make_exception_ptr(RpcStatusError(status, error)));
        }
      },
      idempotency_key, query);
  return future;
}

std::vector<double> RpcClient::infer(const std::string& model,
                                     std::vector<std::uint8_t> samples,
                                     std::uint64_t deadline_us,
                                     const QueryOptions& query) {
  return submit(model, std::move(samples), deadline_us, /*idempotency_key=*/0,
                query)
      .get();
}

void RpcClient::request_shutdown() {
  const std::vector<std::uint8_t> wire = encode_frame(encode_shutdown());
  std::lock_guard<std::mutex> lock(send_mutex_);
  if (closed_) throw RpcError("client is closed");
  socket_.send_all(wire.data(), wire.size());
}

std::size_t RpcClient::outstanding() const {
  std::lock_guard<std::mutex> lock(pending_mutex_);
  return pending_.size();
}

bool RpcClient::alive() const {
  std::lock_guard<std::mutex> lock(pending_mutex_);
  return !reader_done_;
}

void RpcClient::reader_loop() {
  std::string failure = "connection closed";
  try {
    for (;;) {
      std::uint8_t header[kFrameHeaderBytes];
      if (!socket_.recv_exact(header, sizeof(header))) break;
      FrameType type;
      const std::uint32_t body_length = decode_frame_header(header, type);
      std::vector<std::uint8_t> body(body_length);
      if (body_length > 0 && !socket_.recv_exact(body.data(), body_length)) {
        throw RpcError("server closed mid-frame");
      }
      if (type != FrameType::kResponse) {
        throw WireError("unexpected server frame type " +
                        std::to_string(static_cast<unsigned>(type)));
      }
      const telemetry::Tracer::WallTime recv_time =
          telemetry::Tracer::wall_now();
      const ResponseFrame response = decode_response(body);
      PendingEntry entry;
      {
        std::lock_guard<std::mutex> lock(pending_mutex_);
        const auto it = pending_.find(response.request_id);
        if (it == pending_.end()) {
          throw WireError(strformat(
              "response for unknown request id %llu",
              static_cast<unsigned long long>(response.request_id)));
        }
        entry = std::move(it->second);
        pending_.erase(it);
      }
      entry.callback(response.status, response.results, response.error);
      if (entry.trace.valid()) {
        auto& tracer = telemetry::tracer();
        tracer.complete_wall(track_, "response", recv_time,
                             telemetry::Tracer::wall_now());
        // Flow end: terminates the request's arrow chain at the client.
        tracer.flow_wall(track_, "request", 'f', entry.trace.trace_id,
                         recv_time);
      }
    }
  } catch (const std::exception& e) {
    failure = e.what();
  }
  fail_outstanding(failure);
}

void RpcClient::fail_outstanding(const std::string& reason) {
  std::map<std::uint64_t, PendingEntry> orphaned;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    reader_done_ = true;  // later submits fail instead of hanging forever
    orphaned.swap(pending_);
  }
  for (auto& [id, entry] : orphaned) {
    (void)id;
    entry.callback(Status::kInternalError, {}, "rpc error: " + reason);
  }
}

void RpcClient::close() {
  {
    std::lock_guard<std::mutex> lock(send_mutex_);
    if (closed_) return;
    closed_ = true;
  }
  socket_.shutdown();
  if (reader_.joinable()) reader_.join();
  socket_.close();
}

}  // namespace spnhbm::rpc
