#include "src/serve/proto.h"

#include <cmath>
#include <cstring>

#include "src/util/binio.h"

namespace clara {
namespace serve {
namespace {

constexpr uint16_t kRequestTag = 0x5251;   // "RQ"
constexpr uint16_t kResponseTag = 0x5250;  // "RP"
// Optional trailing sections (telemetry extensions, see proto.h).
constexpr uint16_t kTraceSectionTag = 0x4954;      // "TI" — request trace id
constexpr uint16_t kBreakdownSectionTag = 0x4244;  // "DB" — latency breakdown
constexpr uint16_t kPrioritySectionTag = 0x5051;   // "QP" — shed-class priority
constexpr uint16_t kRetrySectionTag = 0x4152;      // "RA" — retry-after hint

void EncodeWorkload(BinWriter& w, const WorkloadSpec& spec) {
  w.Str(spec.name);
  w.U32(spec.num_flows);
  w.F64(spec.zipf_s);
  w.U16(spec.pkt_size);
  w.F64(spec.syn_ratio);
  w.F64(spec.udp_fraction);
  w.U64(spec.seed);
}

bool DecodeWorkload(BinReader& r, WorkloadSpec* spec, std::string* error) {
  spec->name = r.Str();
  spec->num_flows = r.U32();
  spec->zipf_s = r.F64();
  spec->pkt_size = r.U16();
  spec->syn_ratio = r.F64();
  spec->udp_fraction = r.F64();
  spec->seed = r.U64();
  if (!r.ok()) {
    *error = "request: " + r.error();
    return false;
  }
  if (spec->num_flows == 0 || spec->num_flows > kMaxRequestFlows) {
    *error = "request: workload num_flows must be in [1, " +
             std::to_string(kMaxRequestFlows) + "]";
    return false;
  }
  if (!std::isfinite(spec->zipf_s) || !std::isfinite(spec->syn_ratio) ||
      !std::isfinite(spec->udp_fraction)) {
    *error = "request: workload zipf_s, syn_ratio and udp_fraction must be finite";
    return false;
  }
  return true;
}

}  // namespace

MsgType PeekType(std::string_view payload) {
  if (payload.size() < 2) {
    return MsgType::kUnknown;
  }
  uint16_t tag = static_cast<uint16_t>(static_cast<uint8_t>(payload[0])) |
                 static_cast<uint16_t>(static_cast<uint8_t>(payload[1])) << 8;
  switch (static_cast<MsgType>(tag)) {
    case MsgType::kInsightRequest:
    case MsgType::kInsightResponse:
    case MsgType::kControlRequest:
    case MsgType::kControlResponse:
      return static_cast<MsgType>(tag);
    default:
      return MsgType::kUnknown;
  }
}

const char* ControlOpName(ControlOp op) {
  switch (op) {
    case ControlOp::kStats: return "stats";
    case ControlOp::kHealth: return "health";
    case ControlOp::kDump: return "dump";
    case ControlOp::kReload: return "reload";
  }
  return "?";
}

const char* ErrorCodeName(ErrorCode c) {
  switch (c) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kBadRequest: return "bad-request";
    case ErrorCode::kParseError: return "parse-error";
    case ErrorCode::kCheckFailed: return "check-failed";
    case ErrorCode::kUnknownElement: return "unknown-element";
    case ErrorCode::kQueueFull: return "queue-full";
    case ErrorCode::kDeadlineExceeded: return "deadline-exceeded";
    case ErrorCode::kOversized: return "oversized-frame";
    case ErrorCode::kShutdown: return "shutdown";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kShedded: return "shedded";
  }
  return "?";
}

bool IsRetryable(ErrorCode c) {
  switch (c) {
    case ErrorCode::kQueueFull:
    case ErrorCode::kShedded:
    case ErrorCode::kShutdown:
    case ErrorCode::kInternal:
      return true;
    default:
      return false;
  }
}

std::string EncodeRequest(const InsightRequest& req) {
  BinWriter w;
  w.U16(kRequestTag);
  w.U64(req.id);
  w.Str(req.element);
  w.Str(req.source);
  EncodeWorkload(w, req.workload);
  w.U32(req.deadline_ms);
  // Optional trailing sections in canonical order: v1 decoders never see
  // them because v1 encoders never write them, and the parser below treats
  // absence as the zero value.
  if (req.trace_id != 0) {
    w.U16(kTraceSectionTag);
    w.U64(req.trace_id);
  }
  if (req.priority != 0) {
    w.U16(kPrioritySectionTag);
    w.U8(req.priority);
  }
  return w.Take();
}

bool ParseRequest(std::string_view payload, InsightRequest* out, std::string* error) {
  BinReader r(payload);
  if (r.U16() != kRequestTag) {
    *error = "request: bad message tag";
    return false;
  }
  InsightRequest req;
  req.id = r.U64();
  req.element = r.Str();
  req.source = r.Str();
  if (!DecodeWorkload(r, &req.workload, error)) {
    return false;
  }
  req.deadline_ms = r.U32();
  if (!r.ok()) {
    *error = "request: " + r.error();
    return false;
  }
  // Optional trailing sections (absent in v1 frames), each at most once.
  bool saw_trace = false, saw_priority = false;
  while (r.remaining() != 0) {
    uint16_t tag = r.U16();
    if (tag == kTraceSectionTag && !saw_trace) {
      saw_trace = true;
      req.trace_id = r.U64();
    } else if (tag == kPrioritySectionTag && !saw_priority) {
      saw_priority = true;
      req.priority = r.U8();
    } else {
      *error = "request: bad trailing section tag";
      return false;
    }
    if (!r.ok()) {
      *error = "request: " + r.error();
      return false;
    }
  }
  if (req.element.empty() && req.source.empty()) {
    *error = "request: neither element name nor inline source given";
    return false;
  }
  *out = std::move(req);
  return true;
}

std::string EncodeResponseBody(const InsightResponse& resp) {
  BinWriter w;
  w.U8(static_cast<uint8_t>(resp.error));
  w.Str(resp.error_message);
  w.Str(resp.nf_name);
  w.Str(resp.accelerator);
  w.I32(resp.suggested_cores);
  w.F64(resp.total_compute);
  w.U32(resp.total_mem_state);
  w.F64(resp.naive_mpps);
  w.F64(resp.naive_us);
  w.F64(resp.tuned_mpps);
  w.F64(resp.tuned_us);
  w.Str(resp.rendered);
  return w.Take();
}

std::string EncodeResponseWithBody(uint64_t id, std::string_view body,
                                   const LatencyBreakdown& breakdown,
                                   uint32_t retry_after_ms) {
  BinWriter w;
  w.U16(kResponseTag);
  w.U64(id);
  w.Bytes(body.data(), body.size());
  if (breakdown.valid) {
    // Appended after the cached body so byte-equal cache replays stay
    // byte-equal while each response still carries its own stage timings.
    w.U16(kBreakdownSectionTag);
    w.U64(breakdown.trace_id);
    w.Bool(breakdown.cache_hit);
    w.U32(breakdown.queue_us);
    w.U32(breakdown.parse_us);
    w.U32(breakdown.infer_us);
    w.U32(breakdown.analyze_us);
    w.U32(breakdown.encode_us);
    w.U32(breakdown.total_us);
  }
  if (retry_after_ms != 0) {
    // Transient-error backoff hint; like the breakdown it stays outside the
    // cached body (it is per-delivery, not per-answer).
    w.U16(kRetrySectionTag);
    w.U32(retry_after_ms);
  }
  return w.Take();
}

std::string EncodeResponse(const InsightResponse& resp) {
  return EncodeResponseWithBody(resp.id, EncodeResponseBody(resp), resp.breakdown,
                                resp.retry_after_ms);
}

bool ParseResponse(std::string_view payload, InsightResponse* out, std::string* error) {
  BinReader r(payload);
  if (r.U16() != kResponseTag) {
    *error = "response: bad message tag";
    return false;
  }
  InsightResponse resp;
  resp.id = r.U64();
  uint8_t code = r.U8();
  if (r.ok() && code > kMaxErrorCode) {
    *error = "response: unknown error code " + std::to_string(code);
    return false;
  }
  resp.error = static_cast<ErrorCode>(code);
  resp.error_message = r.Str();
  resp.nf_name = r.Str();
  resp.accelerator = r.Str();
  resp.suggested_cores = r.I32();
  resp.total_compute = r.F64();
  resp.total_mem_state = r.U32();
  resp.naive_mpps = r.F64();
  resp.naive_us = r.F64();
  resp.tuned_mpps = r.F64();
  resp.tuned_us = r.F64();
  resp.rendered = r.Str();
  if (!r.ok()) {
    *error = "response: " + r.error();
    return false;
  }
  // Optional trailing sections (absent in v1 frames), each at most once.
  bool saw_breakdown = false, saw_retry = false;
  while (r.remaining() != 0) {
    uint16_t tag = r.U16();
    if (tag == kBreakdownSectionTag && !saw_breakdown) {
      saw_breakdown = true;
      resp.breakdown.valid = true;
      resp.breakdown.trace_id = r.U64();
      resp.breakdown.cache_hit = r.Bool();
      resp.breakdown.queue_us = r.U32();
      resp.breakdown.parse_us = r.U32();
      resp.breakdown.infer_us = r.U32();
      resp.breakdown.analyze_us = r.U32();
      resp.breakdown.encode_us = r.U32();
      resp.breakdown.total_us = r.U32();
    } else if (tag == kRetrySectionTag && !saw_retry) {
      saw_retry = true;
      resp.retry_after_ms = r.U32();
    } else {
      *error = "response: bad trailing section tag";
      return false;
    }
    if (!r.ok()) {
      *error = "response: " + r.error();
      return false;
    }
  }
  *out = std::move(resp);
  return true;
}

std::string EncodeControlRequest(const ControlRequest& req) {
  BinWriter w;
  w.U16(static_cast<uint16_t>(MsgType::kControlRequest));
  w.U8(static_cast<uint8_t>(req.op));
  return w.Take();
}

bool ParseControlRequest(std::string_view payload, ControlRequest* out,
                         std::string* error) {
  BinReader r(payload);
  if (r.U16() != static_cast<uint16_t>(MsgType::kControlRequest)) {
    *error = "control request: bad message tag";
    return false;
  }
  uint8_t op = r.U8();
  if (r.ok() && op > kMaxControlOp) {
    *error = "control request: unknown op " + std::to_string(op);
    return false;
  }
  if (!r.ok()) {
    *error = "control request: " + r.error();
    return false;
  }
  if (r.remaining() != 0) {
    *error = "control request: " + std::to_string(r.remaining()) + " trailing bytes";
    return false;
  }
  out->op = static_cast<ControlOp>(op);
  return true;
}

std::string EncodeControlResponse(const ControlResponse& resp) {
  BinWriter w;
  w.U16(static_cast<uint16_t>(MsgType::kControlResponse));
  w.U8(static_cast<uint8_t>(resp.op));
  w.Bool(resp.ok);
  w.Str(resp.error);
  w.Str(resp.json);
  return w.Take();
}

bool ParseControlResponse(std::string_view payload, ControlResponse* out,
                          std::string* error) {
  BinReader r(payload);
  if (r.U16() != static_cast<uint16_t>(MsgType::kControlResponse)) {
    *error = "control response: bad message tag";
    return false;
  }
  ControlResponse resp;
  uint8_t op = r.U8();
  if (r.ok() && op > kMaxControlOp) {
    *error = "control response: unknown op " + std::to_string(op);
    return false;
  }
  resp.op = static_cast<ControlOp>(op);
  resp.ok = r.Bool();
  resp.error = r.Str();
  resp.json = r.Str();
  if (!r.ok()) {
    *error = "control response: " + r.error();
    return false;
  }
  if (r.remaining() != 0) {
    *error = "control response: " + std::to_string(r.remaining()) + " trailing bytes";
    return false;
  }
  *out = std::move(resp);
  return true;
}

uint64_t HashWorkload(const WorkloadSpec& spec) {
  BinWriter w;
  EncodeWorkload(w, spec);
  return Fnv1a64(w.data());
}

void AppendFrame(std::string* out, std::string_view payload) {
  char len[4];
  uint32_t n = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    len[i] = static_cast<char>((n >> (8 * i)) & 0xff);
  }
  out->append(len, 4);
  out->append(payload.data(), payload.size());
}

void FrameReader::Feed(const void* data, size_t n) {
  buf_.append(static_cast<const char*>(data), n);
}

bool FrameReader::Next(std::string* frame) {
  for (;;) {
    if (skip_ > 0) {
      size_t take = std::min(skip_, buf_.size());
      buf_.erase(0, take);
      skip_ -= take;
      if (skip_ > 0) {
        return false;  // still discarding the oversized frame
      }
    }
    if (buf_.size() < 4) {
      return false;
    }
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(static_cast<uint8_t>(buf_[i])) << (8 * i);
    }
    if (len > kMaxFrameBytes) {
      ++oversized_;
      buf_.erase(0, 4);
      skip_ = len;
      continue;  // discard and look for the next frame
    }
    if (buf_.size() < 4 + static_cast<size_t>(len)) {
      return false;
    }
    frame->assign(buf_, 4, len);
    buf_.erase(0, 4 + static_cast<size_t>(len));
    return true;
  }
}

size_t FrameReader::TakeOversized() {
  size_t n = oversized_;
  oversized_ = 0;
  return n;
}

}  // namespace serve
}  // namespace clara
