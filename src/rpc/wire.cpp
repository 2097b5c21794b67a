#include "spnhbm/rpc/wire.hpp"

#include <bit>
#include <cstring>

#include "spnhbm/util/strings.hpp"

namespace spnhbm::rpc {

namespace {

/// Append-only little-endian encoder.
class Writer {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) {
    for (int i = 0; i < 2; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    if (s.size() > 0xFFFF) throw WireError("string field exceeds 65535 bytes");
    u16(static_cast<std::uint16_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  void blob(const std::vector<std::uint8_t>& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    bytes_.insert(bytes_.end(), b.begin(), b.end());
  }
  /// u32 length-prefixed text, for sections that may exceed the u16
  /// string cap (metrics expositions).
  void ltext(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian decoder over a frame body.
class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return static_cast<std::uint16_t>(uint_le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(uint_le(4)); }
  std::uint64_t u64() { return uint_le(8); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::size_t n = u16();
    const std::uint8_t* p = take(n);
    return std::string(reinterpret_cast<const char*>(p), n);
  }
  std::vector<std::uint8_t> blob() {
    const std::size_t n = u32();
    const std::uint8_t* p = take(n);
    return std::vector<std::uint8_t>(p, p + n);
  }
  std::string ltext() {
    const std::size_t n = u32();
    const std::uint8_t* p = take(n);
    return std::string(reinterpret_cast<const char*>(p), n);
  }
  void expect_end() const {
    if (cursor_ != bytes_.size()) {
      throw WireError(strformat("%zu trailing byte(s) after frame body",
                                bytes_.size() - cursor_));
    }
  }

 private:
  const std::uint8_t* take(std::size_t n) {
    if (bytes_.size() - cursor_ < n) throw WireError("truncated frame body");
    const std::uint8_t* p = bytes_.data() + cursor_;
    cursor_ += n;
    return p;
  }
  std::uint64_t uint_le(std::size_t n) {
    const std::uint8_t* p = take(n);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    return v;
  }

  const std::vector<std::uint8_t>& bytes_;
  std::size_t cursor_ = 0;
};

/// Field checks shared by the request encoder and decoder.
void check_request_fields(const RequestFrame& request) {
  if (request.encoding > kEncodingSparse) {
    throw WireError(strformat("payload encoding %u out of range (0..1)",
                              request.encoding));
  }
  if (request.sample_count == 0) {
    throw WireError("request needs a non-zero sample count");
  }
}

}  // namespace

std::string to_string(Status status) {
  switch (status) {
    case Status::kOk: return "OK";
    case Status::kInvalidRequest: return "INVALID_REQUEST";
    case Status::kUnknownModel: return "UNKNOWN_MODEL";
    case Status::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case Status::kNoHealthyEngine: return "NO_HEALTHY_ENGINE";
    case Status::kOverloaded: return "OVERLOADED";
    case Status::kShuttingDown: return "SHUTTING_DOWN";
    case Status::kInternalError: return "INTERNAL_ERROR";
  }
  return "UNKNOWN_STATUS";
}

bool is_retryable(Status status) {
  return status == Status::kOverloaded || status == Status::kNoHealthyEngine ||
         status == Status::kShuttingDown;
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  if (frame.body.size() > kMaxBodyBytes) {
    throw WireError("frame body exceeds kMaxBodyBytes");
  }
  Writer w;
  w.u32(kFrameMagic);
  w.u8(static_cast<std::uint8_t>(frame.type));
  w.u32(static_cast<std::uint32_t>(frame.body.size()));
  std::vector<std::uint8_t> bytes = w.take();
  bytes.insert(bytes.end(), frame.body.begin(), frame.body.end());
  return bytes;
}

std::uint32_t decode_frame_header(
    const std::uint8_t (&header)[kFrameHeaderBytes], FrameType& type) {
  std::uint32_t magic = 0;
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    magic |= static_cast<std::uint32_t>(header[i]) << (8 * i);
    length |= static_cast<std::uint32_t>(header[5 + i]) << (8 * i);
  }
  if (magic != kFrameMagic) {
    throw WireError(strformat("bad frame magic 0x%08x", magic));
  }
  const std::uint8_t raw_type = header[4];
  if (raw_type < static_cast<std::uint8_t>(FrameType::kHello) ||
      raw_type > static_cast<std::uint8_t>(FrameType::kAdminReply)) {
    throw WireError(strformat("unknown frame type %u", raw_type));
  }
  if (length > kMaxBodyBytes) {
    throw WireError(strformat("frame body of %u bytes exceeds the %u cap",
                              length, kMaxBodyBytes));
  }
  type = static_cast<FrameType>(raw_type);
  return length;
}

Frame encode_hello(const HelloFrame& hello) {
  Writer w;
  w.u16(hello.protocol_version);
  w.str(hello.build_version);
  if (hello.models.size() > 0xFFFF) throw WireError("too many models");
  w.u16(static_cast<std::uint16_t>(hello.models.size()));
  for (const ModelInfo& model : hello.models) {
    w.str(model.id);
    w.u32(model.input_features);
  }
  return Frame{FrameType::kHello, w.take()};
}

HelloFrame decode_hello(const std::vector<std::uint8_t>& body) {
  Reader r(body);
  HelloFrame hello;
  hello.protocol_version = r.u16();
  hello.build_version = r.str();
  const std::size_t count = r.u16();
  hello.models.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ModelInfo model;
    model.id = r.str();
    model.input_features = r.u32();
    hello.models.push_back(std::move(model));
  }
  r.expect_end();
  return hello;
}

Frame encode_request(const RequestFrame& request) {
  check_request_fields(request);
  Writer w;
  w.u64(request.request_id);
  w.str(request.model);
  w.u64(request.deadline_us);
  w.u8(request.encoding);
  w.u32(request.sample_count);
  w.blob(request.samples);
  w.u64(request.trace.trace_id);
  w.u64(request.trace.parent_span);
  w.u64(request.idempotency_key);
  return Frame{FrameType::kRequest, w.take()};
}

RequestFrame decode_request(const std::vector<std::uint8_t>& body) {
  Reader r(body);
  RequestFrame request;
  request.request_id = r.u64();
  request.model = r.str();
  request.deadline_us = r.u64();
  request.encoding = r.u8();
  request.sample_count = r.u32();
  check_request_fields(request);
  request.samples = r.blob();
  request.trace.trace_id = r.u64();
  request.trace.parent_span = r.u64();
  request.idempotency_key = r.u64();
  r.expect_end();
  return request;
}

Frame encode_response(const ResponseFrame& response) {
  Writer w;
  w.u64(response.request_id);
  w.u8(static_cast<std::uint8_t>(response.status));
  if (response.status == Status::kOk) {
    w.u32(static_cast<std::uint32_t>(response.results.size()));
    for (const double p : response.results) w.f64(p);
  } else {
    w.str(response.error);
  }
  return Frame{FrameType::kResponse, w.take()};
}

ResponseFrame decode_response(const std::vector<std::uint8_t>& body) {
  Reader r(body);
  ResponseFrame response;
  response.request_id = r.u64();
  const std::uint8_t raw_status = r.u8();
  if (raw_status > static_cast<std::uint8_t>(Status::kInternalError)) {
    throw WireError(strformat("unknown status byte %u", raw_status));
  }
  response.status = static_cast<Status>(raw_status);
  if (response.status == Status::kOk) {
    const std::size_t count = r.u32();
    response.results.reserve(count);
    for (std::size_t i = 0; i < count; ++i) response.results.push_back(r.f64());
  } else {
    response.error = r.str();
  }
  r.expect_end();
  return response;
}

Frame encode_shutdown() { return Frame{FrameType::kShutdown, {}}; }

Frame encode_admin() { return Frame{FrameType::kAdmin, {}}; }

Frame encode_admin_reply(const AdminReplyFrame& reply) {
  Writer w;
  w.u16(reply.protocol_version);
  w.str(reply.build_version);
  w.ltext(reply.metrics_text);
  w.ltext(reply.health_text);
  w.ltext(reply.replicas_text);
  w.ltext(reply.tail_text);
  return Frame{FrameType::kAdminReply, w.take()};
}

AdminReplyFrame decode_admin_reply(const std::vector<std::uint8_t>& body) {
  Reader r(body);
  AdminReplyFrame reply;
  reply.protocol_version = r.u16();
  reply.build_version = r.str();
  reply.metrics_text = r.ltext();
  reply.health_text = r.ltext();
  reply.replicas_text = r.ltext();
  reply.tail_text = r.ltext();
  r.expect_end();
  return reply;
}

}  // namespace spnhbm::rpc
