// Length-prefixed wire format for the Clara insight-serving daemon.
//
// Transport framing: each message is a u32 little-endian payload length
// followed by the payload, capped at kMaxFrameBytes. FrameReader consumes an
// arbitrary byte stream incrementally and yields whole payloads; an oversized
// length prefix poisons only that frame (the bytes are skipped and the
// overflow is reported) so one bad client message cannot wedge the stream.
//
// Payload encoding rides on src/util/binio.h: requests carry either a
// registry element name or inline mini-Click source plus a workload spec and
// optional deadline; responses carry a structured error or the offloading
// insights. Parsing is fully bounds-checked and never throws — malformed
// payloads come back as (false, error message).
//
// Telemetry extensions are backward compatible in both directions: requests
// may append an optional trace section (trace id for end-to-end request
// tracing) and responses an optional per-stage latency breakdown, each
// introduced by its own tag *after* all v1 fields. A v1 frame simply ends
// where the optional section would begin, and encoders omit the section when
// it carries nothing, so v1 bytes round-trip unchanged.
//
// Besides insight request/response, the protocol carries control-plane
// messages (MsgType::kControlRequest/kControlResponse): Stats, Health and
// Dump queries that a daemon answers immediately from its telemetry state
// without going through the request queue.
#ifndef SRC_SERVE_PROTO_H_
#define SRC_SERVE_PROTO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/core/analyzer.h"
#include "src/workload/workload.h"

namespace clara {
namespace serve {

inline constexpr size_t kMaxFrameBytes = 1 << 20;  // 1 MiB

// Leading u16 of every payload. The two insight values predate this enum and
// keep their original byte patterns ("QR"/"PR" on the wire).
enum class MsgType : uint16_t {
  kUnknown = 0,
  kInsightRequest = 0x5251,
  kInsightResponse = 0x5250,
  kControlRequest = 0x5143,
  kControlResponse = 0x5043,
};

// Classifies a payload by its tag without decoding it (kUnknown when the
// payload is too short or the tag is not one of ours).
MsgType PeekType(std::string_view payload);

enum class ErrorCode : uint8_t {
  kOk = 0,
  kBadRequest = 1,        // undecodable request payload
  kParseError = 2,        // inline source failed to parse
  kCheckFailed = 3,       // parsed program failed the type checker
  kUnknownElement = 4,    // element name not in the registry
  kQueueFull = 5,         // admission control rejected the request
  kDeadlineExceeded = 6,  // request expired before dispatch
  kOversized = 7,         // frame exceeded kMaxFrameBytes
  kShutdown = 8,          // engine stopped before the request ran
  kInternal = 9,
  kShedded = 10,          // brownout load-shedding dropped the request
};

// Highest ErrorCode value on the wire (parser bound).
inline constexpr uint8_t kMaxErrorCode = static_cast<uint8_t>(ErrorCode::kShedded);

// True for errors a client may retry with backoff: the condition is
// transient on the server side (overload, shedding, restart, injected
// transient fault), not a property of the request bytes.
bool IsRetryable(ErrorCode c);

const char* ErrorCodeName(ErrorCode c);

struct InsightRequest {
  uint64_t id = 0;
  // Exactly one of these: a registry element name, or inline mini-Click
  // source (takes precedence when non-empty).
  std::string element;
  std::string source;
  WorkloadSpec workload;
  uint32_t deadline_ms = 0;  // 0 = no deadline
  // End-to-end tracing: every span recorded while serving this request
  // carries this id, and the response echoes it in the latency breakdown.
  // 0 = untraced (the server assigns one when a trace sink is live). Encoded
  // as an optional trailing section, invisible to v1 decoders when 0.
  uint64_t trace_id = 0;
  // Load-shedding class: when the engine browns out it sheds the
  // lowest-priority queued requests first (higher value = more important).
  // Encoded as an optional trailing section, omitted when 0.
  uint8_t priority = 0;
};

// Per-stage latency breakdown attached to a response *outside* the cached
// body (stage timings differ per request even on byte-equal cache replays).
struct LatencyBreakdown {
  bool valid = false;  // present on the wire only when true
  uint64_t trace_id = 0;
  bool cache_hit = false;
  uint32_t queue_us = 0;    // submit -> dispatch
  uint32_t parse_us = 0;    // program resolution (parse/check or registry;
                            // on a miss, also lowering into an NfInstance)
  uint32_t infer_us = 0;    // LSTM inference over this request's blocks
  uint32_t analyze_us = 0;  // the whole analysis: inference, profiling and
                            // everything derived from them
  uint32_t encode_us = 0;   // response-body encoding + cache store
  uint32_t total_us = 0;    // submit -> fulfill
  // infer_us overlaps analyze_us: inference runs inside the analysis, beside
  // the profiling. So the stage times no longer sum to total_us; queue,
  // parse, analyze and encode still do, up to the untimed gaps between them.
};

// The response payload. `id` echoes the request. On error, `error` is set
// and the insight fields are defaults. The serve cache stores the encoded
// body *after* the id, so cached and uncached responses to an identical
// (program, workload) are byte-equal modulo the echoed id.
struct InsightResponse {
  uint64_t id = 0;
  ErrorCode error = ErrorCode::kOk;
  std::string error_message;

  std::string nf_name;
  std::string accelerator;
  int suggested_cores = 1;
  double total_compute = 0;
  uint32_t total_mem_state = 0;
  double naive_mpps = 0;
  double naive_us = 0;
  double tuned_mpps = 0;
  double tuned_us = 0;
  std::string rendered;  // human-readable insight text

  // Not part of the cached body: appended per response when valid.
  LatencyBreakdown breakdown;
  // Server hint on transient errors (kQueueFull/kShedded/kShutdown): wait at
  // least this long before retrying. Optional trailing section, omitted when
  // 0; never part of the cached body.
  uint32_t retry_after_ms = 0;
};

// ---- control plane ----
enum class ControlOp : uint8_t {
  kStats = 0,   // metrics registry snapshot as JSON
  kHealth = 1,  // queue depth, cache hit rate, artifact version, uptime, SLO
  kDump = 2,    // flight-recorder contents
  kReload = 3,  // hot-reload the artifact from the daemon's model dir
};

// Highest ControlOp value on the wire (parser bound).
inline constexpr uint8_t kMaxControlOp = static_cast<uint8_t>(ControlOp::kReload);

const char* ControlOpName(ControlOp op);

struct ControlRequest {
  ControlOp op = ControlOp::kStats;
};

struct ControlResponse {
  ControlOp op = ControlOp::kStats;
  bool ok = false;
  std::string error;  // set when !ok
  std::string json;   // the answer document (empty when !ok)
};

std::string EncodeControlRequest(const ControlRequest& req);
bool ParseControlRequest(std::string_view payload, ControlRequest* out, std::string* error);
std::string EncodeControlResponse(const ControlResponse& resp);
bool ParseControlResponse(std::string_view payload, ControlResponse* out,
                          std::string* error);

// ---- payload codecs ----
std::string EncodeRequest(const InsightRequest& req);
// Rejects, besides malformed bytes, a workload the trace generator cannot
// run: no flows, more than kMaxRequestFlows, or a non-finite zipf_s,
// syn_ratio or udp_fraction.
bool ParseRequest(std::string_view payload, InsightRequest* out, std::string* error);

// The most flows a request may ask for. A skewed workload's Zipf table holds
// one double per flow (8 MiB at this bound) and stays cached after the miss.
inline constexpr uint32_t kMaxRequestFlows = 1u << 20;

std::string EncodeResponse(const InsightResponse& resp);
// The portion of the encoding after the id — the serve cache's unit. Never
// includes the latency breakdown (cached replays must stay byte-equal).
std::string EncodeResponseBody(const InsightResponse& resp);
std::string EncodeResponseWithBody(uint64_t id, std::string_view body,
                                   const LatencyBreakdown& breakdown = LatencyBreakdown{},
                                   uint32_t retry_after_ms = 0);
bool ParseResponse(std::string_view payload, InsightResponse* out, std::string* error);

// Content hashes for the serve cache key.
uint64_t HashWorkload(const WorkloadSpec& spec);

// ---- transport framing ----
void AppendFrame(std::string* out, std::string_view payload);

class FrameReader {
 public:
  // Appends raw bytes from the transport.
  void Feed(const void* data, size_t n);

  // Pops the next complete payload into *frame; false when no complete
  // frame is buffered. Oversized frames are consumed (skipped) and counted,
  // never returned.
  bool Next(std::string* frame);

  // Oversized frames consumed since the last call (resets the count).
  size_t TakeOversized();

 private:
  std::string buf_;
  size_t skip_ = 0;       // bytes of an oversized frame left to discard
  size_t oversized_ = 0;  // frames dropped
};

}  // namespace serve
}  // namespace clara

#endif  // SRC_SERVE_PROTO_H_
