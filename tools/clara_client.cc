// clara_client — client / codec utility for the clara_serve wire protocol.
//
// Modes:
//   --emit             write request frame(s) to stdout (pipe into clara_serve)
//   --emit-malformed   write a deliberately undecodable frame (error-path test)
//   --decode           read response frames from stdin, print them readably
//   --socket=PATH      connect to a clara_serve Unix socket, send the
//                      requests, and decode the responses in one step
//   stats|health|dump|reload
//                      control-plane query: send one control frame over
//                      --socket=PATH and print the JSON answer to stdout
//
// Request flags (for --emit / --socket):
//   --element=NAME     registry element to analyze
//   --source-file=F    inline mini-Click source instead ("-" = stdin)
//   --workload=small|large
//   --deadline-ms=N    per-request deadline (0 = none)
//   --count=N          emit N copies with ids 1..N (default 1)
//   --trace-id=N       tag the request(s) for end-to-end tracing (the daemon
//                      assigns ids itself when 0 and a trace sink is live)
//   --priority=N       shed class 0..255 (higher survives brownout shedding)
//   --full             (--decode) print the rendered insight text and the
//                      per-stage latency breakdown too
//
// Retry flags (--socket only):
//   --retries=N        retry transient failures (queue-full, shedded,
//                      shutdown, internal, dropped connections) up to N
//                      times with exponential backoff + jitter, honoring the
//                      server's retry_after_ms hint; only the failed request
//                      ids are re-sent
//   --retry-base-ms=N  first-retry delay before jitter (default 25)
//
// Example round trip:
//   clara_client --emit --element=aggcounter --count=2 |
//     clara_serve --model-dir=models/ --pipe | clara_client --decode
#include <errno.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/proto.h"
#include "src/serve/retry.h"
#include "src/util/net.h"

namespace {

using namespace clara;

int Usage() {
  std::fprintf(stderr,
               "usage: clara_client --emit|--emit-malformed|--decode|--socket=PATH\n"
               "         [--element=NAME | --source-file=F] [--workload=small|large]\n"
               "         [--deadline-ms=N] [--count=N] [--trace-id=N] [--priority=N]\n"
               "         [--retries=N] [--retry-base-ms=N] [--full]\n"
               "   or: clara_client stats|health|dump|reload --socket=PATH\n");
  return 2;
}

bool ReadAll(std::FILE* f, std::string* out) {
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  return std::ferror(f) == 0;
}

std::vector<serve::InsightRequest> BuildRequests(const std::string& element,
                                                 const std::string& source,
                                                 const WorkloadSpec& workload,
                                                 uint32_t deadline_ms, int count,
                                                 uint64_t trace_id, uint8_t priority) {
  std::vector<serve::InsightRequest> reqs;
  reqs.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    serve::InsightRequest req;
    req.id = static_cast<uint64_t>(i) + 1;
    req.element = element;
    req.source = source;
    req.workload = workload;
    req.deadline_ms = deadline_ms;
    // Distinct trace id per copy so traced requests stay distinguishable.
    req.trace_id = trace_id == 0 ? 0 : trace_id + static_cast<uint64_t>(i);
    req.priority = priority;
    reqs.push_back(std::move(req));
  }
  return reqs;
}

std::string EncodeFrames(const std::vector<serve::InsightRequest>& reqs) {
  std::string out;
  for (const auto& req : reqs) {
    serve::AppendFrame(&out, serve::EncodeRequest(req));
  }
  return out;
}

void PrintResponse(const serve::InsightResponse& resp, bool full) {
  if (resp.error != serve::ErrorCode::kOk) {
    std::printf("[%llu] ERROR %s: %s\n", static_cast<unsigned long long>(resp.id),
                serve::ErrorCodeName(resp.error), resp.error_message.c_str());
    return;
  }
  std::printf("[%llu] %s: accel=%s cores=%d compute=%.1f state=%u "
              "naive=%.2fMpps/%.2fus tuned=%.2fMpps/%.2fus\n",
              static_cast<unsigned long long>(resp.id), resp.nf_name.c_str(),
              resp.accelerator.c_str(), resp.suggested_cores, resp.total_compute,
              resp.total_mem_state, resp.naive_mpps, resp.naive_us, resp.tuned_mpps,
              resp.tuned_us);
  if (full && resp.breakdown.valid) {
    const serve::LatencyBreakdown& b = resp.breakdown;
    std::printf("[%llu]   trace=%llu %s queue=%uus parse=%uus infer=%uus "
                "analyze=%uus encode=%uus total=%uus\n",
                static_cast<unsigned long long>(resp.id),
                static_cast<unsigned long long>(b.trace_id),
                b.cache_hit ? "cache-hit" : "cache-miss", b.queue_us, b.parse_us,
                b.infer_us, b.analyze_us, b.encode_us, b.total_us);
  }
  if (full && !resp.rendered.empty()) {
    std::printf("%s", resp.rendered.c_str());
  }
}

// Decodes every response frame in `data`; returns the count of frames that
// carried a serve-level error (malformed frames count too).
int DecodeStream(const std::string& data, bool full, int* errors) {
  serve::FrameReader reader;
  reader.Feed(data.data(), data.size());
  std::string frame;
  int frames = 0;
  while (reader.Next(&frame)) {
    ++frames;
    serve::InsightResponse resp;
    std::string err;
    if (!serve::ParseResponse(frame, &resp, &err)) {
      std::printf("[?] undecodable response: %s\n", err.c_str());
      ++*errors;
      continue;
    }
    if (resp.error != serve::ErrorCode::kOk) {
      ++*errors;
    }
    PrintResponse(resp, full);
  }
  return frames;
}

// One socket round trip: connect, send all of `requests`, half-close, read
// the reply stream until the daemon closes. False on any transport error
// (errno text on stderr); short writes and EAGAIN are handled uniformly by
// the net helpers.
bool SocketExchange(const std::string& path, const std::string& requests,
                    std::string* reply) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "clara_client: socket: %s\n", std::strerror(errno));
    return false;
  }
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "clara_client: socket path too long\n");
    ::close(fd);
    return false;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0) {
    std::fprintf(stderr, "clara_client: connect %s: %s\n", path.c_str(),
                 std::strerror(errno));
    ::close(fd);
    return false;
  }
  std::string io_error;
  if (!net::WriteAll(fd, requests, &io_error)) {
    std::fprintf(stderr, "clara_client: %s\n", io_error.c_str());
    ::close(fd);
    return false;
  }
  ::shutdown(fd, SHUT_WR);
  char buf[1 << 16];
  for (;;) {
    size_t n = 0;
    net::IoStatus st = net::ReadSome(fd, buf, sizeof(buf), &n, &io_error);
    if (st == net::IoStatus::kInterrupted) {
      continue;
    }
    if (st == net::IoStatus::kError) {
      std::fprintf(stderr, "clara_client: %s\n", io_error.c_str());
      ::close(fd);
      return false;
    }
    if (st == net::IoStatus::kEof) {
      break;
    }
    reply->append(buf, n);
  }
  ::close(fd);
  return true;
}

// Socket mode with bounded retry: transient per-request failures (and whole
// dropped connections) are retried with exponential backoff + jitter, only
// re-sending the request ids that failed; the server's retry_after_ms hint
// floors each delay. Responses print in id order once everything settles.
int RunSocket(const std::string& path, std::vector<serve::InsightRequest> pending,
              bool full, serve::RetryPolicy::Options retry_opts) {
  serve::RetryPolicy policy(retry_opts);
  std::map<uint64_t, serve::InsightResponse> results;
  int undecodable = 0;
  int attempt = 0;
  while (!pending.empty()) {
    std::string data;
    bool transport_ok = SocketExchange(path, EncodeFrames(pending), &data);
    std::vector<serve::InsightRequest> next;
    uint32_t hint_ms = 0;
    if (transport_ok) {
      std::map<uint64_t, serve::InsightResponse> round;
      serve::FrameReader reader;
      reader.Feed(data.data(), data.size());
      std::string frame;
      while (reader.Next(&frame)) {
        serve::InsightResponse resp;
        std::string err;
        if (!serve::ParseResponse(frame, &resp, &err)) {
          std::printf("[?] undecodable response: %s\n", err.c_str());
          ++undecodable;
          continue;
        }
        round[resp.id] = std::move(resp);
      }
      for (auto& req : pending) {
        auto it = round.find(req.id);
        if (it == round.end()) {
          // Connection survived but this id got no answer (e.g. the daemon
          // restarted mid-stream): transient, retry the request.
          next.push_back(std::move(req));
          continue;
        }
        if (serve::IsRetryable(it->second.error) && policy.ShouldRetry(attempt)) {
          hint_ms = std::max(hint_ms, it->second.retry_after_ms);
          next.push_back(std::move(req));
          continue;
        }
        results[req.id] = std::move(it->second);
      }
    } else {
      next = std::move(pending);  // whole exchange failed: retry everything
    }
    if (next.empty()) {
      break;
    }
    if (!policy.ShouldRetry(attempt)) {
      for (auto& req : next) {
        serve::InsightResponse resp;
        resp.id = req.id;
        resp.error = serve::ErrorCode::kInternal;
        resp.error_message = "no answer after " + std::to_string(attempt) + " retries";
        results[req.id] = std::move(resp);
      }
      break;
    }
    uint32_t delay_ms = policy.NextDelayMs(attempt, hint_ms);
    std::fprintf(stderr, "clara_client: retrying %zu request(s) in %ums (attempt %d/%d)\n",
                 next.size(), delay_ms, attempt + 1, retry_opts.max_attempts);
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    pending = std::move(next);
    ++attempt;
  }
  int errors = undecodable;
  for (const auto& [id, resp] : results) {
    if (resp.error != serve::ErrorCode::kOk) {
      ++errors;
    }
    PrintResponse(resp, full);
  }
  return errors == 0 ? 0 : 1;
}

// Extracts the value of a top-level `"key":"value"` string field from a JSON
// document (good enough for the engine's own stats envelope; no escapes).
std::string JsonStringField(const std::string& json, const std::string& key) {
  std::string needle = "\"" + key + "\":\"";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) {
    return "";
  }
  size_t start = pos + needle.size();
  size_t end = json.find('"', start);
  if (end == std::string::npos) {
    return "";
  }
  return json.substr(start, end - start);
}

// Control-plane query: one control frame out, one JSON document back.
int RunControl(const std::string& path, serve::ControlOp op) {
  if (path.empty()) {
    std::fprintf(stderr, "clara_client: %s needs --socket=PATH\n",
                 serve::ControlOpName(op));
    return Usage();
  }
  std::string out;
  serve::ControlRequest req;
  req.op = op;
  serve::AppendFrame(&out, serve::EncodeControlRequest(req));
  std::string data;
  if (!SocketExchange(path, out, &data)) {
    return 1;
  }
  serve::FrameReader reader;
  reader.Feed(data.data(), data.size());
  std::string frame;
  if (!reader.Next(&frame)) {
    std::fprintf(stderr, "clara_client: no control response frame\n");
    return 1;
  }
  serve::ControlResponse resp;
  std::string err;
  if (!serve::ParseControlResponse(frame, &resp, &err)) {
    std::fprintf(stderr, "clara_client: %s\n", err.c_str());
    return 1;
  }
  if (!resp.ok) {
    std::fprintf(stderr, "clara_client: %s failed: %s\n", serve::ControlOpName(resp.op),
                 resp.error.c_str());
    return 1;
  }
  if (op == serve::ControlOp::kStats) {
    // One human-readable line on stderr (stdout stays a single JSON document)
    // so load tests can confirm which inference path they measured.
    std::string infer = JsonStringField(resp.json, "infer");
    std::string simd = JsonStringField(resp.json, "simd");
    if (!infer.empty() || !simd.empty()) {
      std::fprintf(stderr, "clara_client: infer=%s simd=%s\n", infer.c_str(),
                   simd.c_str());
    }
  }
  std::printf("%s\n", resp.json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { kNone, kEmit, kEmitMalformed, kDecode, kSocket, kControl };
  Mode mode = Mode::kNone;
  serve::ControlOp control_op = serve::ControlOp::kStats;
  std::string socket_path;
  std::string element;
  std::string source_file;
  std::string workload_name = "small";
  uint32_t deadline_ms = 0;
  uint64_t trace_id = 0;
  int count = 1;
  int priority = 0;
  bool full = false;
  serve::RetryPolicy::Options retry_opts;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--emit") {
      mode = Mode::kEmit;
    } else if (a == "--emit-malformed") {
      mode = Mode::kEmitMalformed;
    } else if (a == "--decode") {
      mode = Mode::kDecode;
    } else if (a == "stats" || a == "health" || a == "dump" || a == "reload") {
      mode = Mode::kControl;
      control_op = a == "stats"    ? serve::ControlOp::kStats
                   : a == "health" ? serve::ControlOp::kHealth
                   : a == "dump"   ? serve::ControlOp::kDump
                                   : serve::ControlOp::kReload;
    } else if (a.rfind("--socket=", 0) == 0) {
      if (mode != Mode::kControl) {
        mode = Mode::kSocket;
      }
      socket_path = a.substr(std::strlen("--socket="));
    } else if (a.rfind("--trace-id=", 0) == 0) {
      trace_id = std::strtoull(a.c_str() + std::strlen("--trace-id="), nullptr, 10);
    } else if (a.rfind("--element=", 0) == 0) {
      element = a.substr(std::strlen("--element="));
    } else if (a.rfind("--source-file=", 0) == 0) {
      source_file = a.substr(std::strlen("--source-file="));
    } else if (a.rfind("--workload=", 0) == 0) {
      workload_name = a.substr(std::strlen("--workload="));
    } else if (a.rfind("--deadline-ms=", 0) == 0) {
      deadline_ms = static_cast<uint32_t>(
          std::strtoul(a.c_str() + std::strlen("--deadline-ms="), nullptr, 10));
    } else if (a.rfind("--count=", 0) == 0) {
      count = std::atoi(a.c_str() + std::strlen("--count="));
    } else if (a.rfind("--priority=", 0) == 0) {
      priority = std::atoi(a.c_str() + std::strlen("--priority="));
    } else if (a.rfind("--retries=", 0) == 0) {
      retry_opts.max_attempts = std::atoi(a.c_str() + std::strlen("--retries="));
    } else if (a.rfind("--retry-base-ms=", 0) == 0) {
      retry_opts.base_ms = static_cast<uint32_t>(
          std::strtoul(a.c_str() + std::strlen("--retry-base-ms="), nullptr, 10));
    } else if (a == "--full") {
      full = true;
    } else {
      return Usage();
    }
  }
  if (mode == Mode::kNone || count < 1 || priority < 0 || priority > 255 ||
      retry_opts.max_attempts < 0) {
    return Usage();
  }

  if (mode == Mode::kControl) {
    return RunControl(socket_path, control_op);
  }
  if (mode == Mode::kEmitMalformed) {
    // A frame whose payload is not a request message — the daemon must answer
    // with a structured kBadRequest, not crash.
    std::string out;
    serve::AppendFrame(&out, "definitely not a clara request");
    std::fwrite(out.data(), 1, out.size(), stdout);
    return 0;
  }
  if (mode == Mode::kDecode) {
    std::string data;
    if (!ReadAll(stdin, &data)) {
      std::fprintf(stderr, "clara_client: read error on stdin\n");
      return 1;
    }
    int errors = 0;
    int frames = DecodeStream(data, full, &errors);
    std::fprintf(stderr, "clara_client: %d response(s), %d error(s)\n", frames, errors);
    return errors == 0 ? 0 : 1;
  }

  std::string source;
  if (!source_file.empty()) {
    if (source_file == "-") {
      if (!ReadAll(stdin, &source)) {
        std::fprintf(stderr, "clara_client: read error on stdin\n");
        return 1;
      }
    } else {
      std::FILE* f = std::fopen(source_file.c_str(), "rb");
      if (f == nullptr || !ReadAll(f, &source)) {
        std::fprintf(stderr, "clara_client: cannot read %s\n", source_file.c_str());
        if (f != nullptr) {
          std::fclose(f);
        }
        return 1;
      }
      std::fclose(f);
    }
  }
  if (element.empty() && source.empty()) {
    std::fprintf(stderr, "clara_client: need --element=NAME or --source-file=F\n");
    return Usage();
  }
  WorkloadSpec workload =
      workload_name == "large" ? WorkloadSpec::LargeFlows() : WorkloadSpec::SmallFlows();
  std::vector<serve::InsightRequest> requests = BuildRequests(
      element, source, workload, deadline_ms, count, trace_id,
      static_cast<uint8_t>(priority));
  if (mode == Mode::kSocket) {
    return RunSocket(socket_path, std::move(requests), full, retry_opts);
  }
  std::string out = EncodeFrames(requests);
  std::fwrite(out.data(), 1, out.size(), stdout);
  return 0;
}
