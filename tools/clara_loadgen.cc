// clara_loadgen — sustained multi-client load harness for clara_serve.
//
// Drives N concurrent Unix-socket connections against a daemon and measures
// the end-to-end serving path under real concurrency: each connection is a
// synthetic client with its own pacing clock, in-flight window and frame
// reassembly, so the daemon sees interleaved partial frames across many fds
// — exactly what the epoll transport exists for.
//
//   --mode=closed   each connection keeps exactly one request in flight
//                   (send, wait, repeat): measures service latency without
//                   queueing amplification.
//   --mode=open     requests are sent on a fixed schedule derived from
//                   --rate (total req/s across all connections) regardless
//                   of responses: measures behavior at a target load,
//                   including queueing, shedding and backpressure.
//
// Request mix knobs: --hit-ratio picks between the cache-hit class (one
// fixed workload per element, prewarmed, so responses replay byte-equal
// from the serve cache) and the miss class (a unique workload seed per
// request, forcing profiling + inference + analysis); --trace-pct attaches
// trace ids; --priority-hi-pct marks a fraction priority 1 (brownout
// shedding targets priority 0 first); --deadline-ms sets per-request
// deadlines.
//
// Correctness while under load: before the timed phase, one connection asks
// the daemon once per hit-class element, which prewarms its cache. Those
// answers (on a fresh daemon, single-connection cache misses) are the
// baseline: every OK response to a hit-class request under load is
// byte-compared against it (response body, the serve cache's unit). Any
// mismatch fails the run.
//
// The end-of-run JSON --report carries achieved req/s, p50/p90/p99/max
// latency, per-code error counts and verification results; --bench-json
// writes a bench_diff-comparable row (see bench/baselines/
// BENCH_serve_load.json) whose p99-vs-SLO ratio is clamped at 1.0 from
// below, so the committed baseline is machine-independent and the CI diff
// acts as a hard p99 SLO gate. Violating --slo-p99-us or --max-error-rate,
// any byte mismatch, or a failed connection makes the exit code nonzero.
//
// Usage (one command):
//   clara_loadgen --socket=PATH --connections=128 --mode=open --rate=1500
//                 --duration-s=10 --hit-ratio=0.995 --slo-p99-us=50000
//                 --report=load.json --bench-json=BENCH.json
#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/serve/proto.h"
#include "src/workload/workload.h"

namespace {

using namespace clara;
using Clock = std::chrono::steady_clock;

struct Config {
  std::string socket_path;
  std::string report_path;
  std::string bench_json_path;
  std::string mode = "closed";
  size_t connections = 128;
  double rate = 0;  // total req/s across connections (open mode)
  double duration_s = 10;
  double hit_ratio = 1.0;
  double trace_pct = 0;
  double priority_hi_pct = 0;
  uint32_t deadline_ms = 0;
  uint64_t seed = 1;
  double slo_p99_us = 0;       // 0 = no latency gate
  double max_error_rate = 0;   // allowed (errors+shed)/sent; 0 = none allowed
  size_t max_in_flight = 256;  // open-mode per-connection window cap
};

const char* kElements[] = {"aggcounter", "heavyhitter", "udpcount", "iplookup"};
constexpr size_t kElementCount = sizeof(kElements) / sizeof(kElements[0]);

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double UnitFloat(uint64_t x) {
  return static_cast<double>(x >> 11) * (1.0 / 9007199254740992.0);
}

bool TryConnect(const std::string& path, int* out_fd) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return false;
  }
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return false;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return false;
  }
  *out_fd = fd;
  return true;
}

// One blocking request/response exchange on a throwaway connection.
bool Exchange(const std::string& path, const std::string& out, std::string* reply) {
  int fd;
  if (!TryConnect(path, &fd)) {
    return false;
  }
  size_t off = 0;
  while (off < out.size()) {
    ssize_t n = ::write(fd, out.data() + off, out.size() - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::close(fd);
      return false;
    }
    off += static_cast<size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::close(fd);
      return false;
    }
    if (n == 0) {
      break;
    }
    reply->append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return true;
}

// The fixed hit-class workload: identical on every run, so responses come
// from the serve cache byte-equal.
WorkloadSpec HitWorkload() { return WorkloadSpec::SmallFlows(); }

serve::InsightRequest MakeRequest(const Config& cfg, uint64_t id, size_t conn,
                                  uint64_t seq, bool* is_hit, size_t* element_idx) {
  serve::InsightRequest req;
  req.id = id;
  uint64_t draw = SplitMix64(cfg.seed ^ (static_cast<uint64_t>(conn) << 40) ^ seq);
  *element_idx = seq % kElementCount;
  req.element = kElements[*element_idx];
  *is_hit = UnitFloat(draw) < cfg.hit_ratio;
  req.workload = HitWorkload();
  if (!*is_hit) {
    // A unique workload seed per miss forces a fresh (program, workload)
    // cache key: full profiling + inference + analysis on the daemon.
    req.workload.seed = SplitMix64(draw ^ 0xC0FFEEull);
  }
  if (cfg.trace_pct > 0 && UnitFloat(SplitMix64(draw ^ 1)) < cfg.trace_pct / 100.0) {
    req.trace_id = id;
  }
  if (cfg.priority_hi_pct > 0 &&
      UnitFloat(SplitMix64(draw ^ 2)) < cfg.priority_hi_pct / 100.0) {
    req.priority = 1;
  }
  req.deadline_ms = cfg.deadline_ms;
  return req;
}

// Baseline for the byte-compare: one fixed-workload request per element
// against `path`, over one connection (also prewarms that daemon's cache).
bool CaptureBaseline(const std::string& path,
                     std::map<std::string, std::string>* baseline) {
  std::string out;
  for (size_t i = 0; i < kElementCount; ++i) {
    serve::InsightRequest req;
    req.id = i + 1;
    req.element = kElements[i];
    req.workload = HitWorkload();
    serve::AppendFrame(&out, serve::EncodeRequest(req));
  }
  std::string reply;
  if (!Exchange(path, out, &reply)) {
    return false;
  }
  serve::FrameReader reader;
  reader.Feed(reply.data(), reply.size());
  std::string frame;
  while (reader.Next(&frame)) {
    serve::InsightResponse resp;
    std::string err;
    if (serve::ParseResponse(frame, &resp, &err) &&
        resp.error == serve::ErrorCode::kOk && resp.id >= 1 &&
        resp.id <= kElementCount) {
      (*baseline)[kElements[resp.id - 1]] = serve::EncodeResponseBody(resp);
    }
  }
  return baseline->size() == kElementCount;
}

struct ConnResult {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;       // structured non-OK, non-shed responses
  uint64_t torn = 0;         // frames that failed to parse
  uint64_t unanswered = 0;   // in flight when the drain window closed
  uint64_t skipped = 0;      // open mode: sends suppressed by the window cap
  bool conn_failed = false;
  std::vector<uint32_t> lat_us;
  std::map<int, uint64_t> error_codes;
};

struct Verifier {
  std::mutex mu;
  std::map<std::string, std::string> baseline;  // element -> expected body
  uint64_t mismatches = 0;
  std::string first_mismatch;

  // Returns false on a byte mismatch for a hit-class OK response.
  bool Check(const std::string& element, const serve::InsightResponse& resp) {
    std::string body = serve::EncodeResponseBody(resp);
    std::lock_guard<std::mutex> lock(mu);
    if (baseline.at(element) == body) {
      return true;
    }
    ++mismatches;
    if (first_mismatch.empty()) {
      first_mismatch = "element '" + element + "' response bytes diverged";
    }
    return false;
  }
};

struct PendingReq {
  Clock::time_point sent_at;
  bool is_hit = false;
  size_t element_idx = 0;
};

// Writes all of `data` to a non-blocking fd, polling on EAGAIN. The frames
// are tiny relative to the socket buffer, so this only stalls when the
// daemon is applying real backpressure.
bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      struct pollfd p = {fd, POLLOUT, 0};
      ::poll(&p, 1, 1000);
      continue;
    }
    return false;
  }
  return true;
}

void RunConnection(const Config& cfg, size_t conn_idx, Clock::time_point start,
                   Verifier* verifier, ConnResult* result) {
  int fd;
  if (!TryConnect(cfg.socket_path, &fd)) {
    result->conn_failed = true;
    return;
  }
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  const bool open_loop = cfg.mode == "open";
  const auto duration = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(cfg.duration_s));
  const Clock::time_point end = start + duration;
  const Clock::time_point drain_end = end + std::chrono::seconds(5);
  // Open mode: this connection sends every `interval`, phase-staggered so
  // the aggregate hits --rate without a thundering herd at t=0.
  Clock::duration interval = Clock::duration::zero();
  Clock::time_point next_send = start;
  if (open_loop) {
    double per_conn = cfg.rate / static_cast<double>(cfg.connections);
    interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / per_conn));
    next_send = start + (interval * static_cast<int>(conn_idx)) /
                            static_cast<int>(cfg.connections);
  }

  serve::FrameReader reader;
  std::unordered_map<uint64_t, PendingReq> in_flight;
  uint64_t seq = 0;
  char buf[1 << 16];

  auto send_one = [&]() -> bool {
    bool is_hit = false;
    size_t element_idx = 0;
    uint64_t id = (static_cast<uint64_t>(conn_idx + 1) << 32) | ++seq;
    serve::InsightRequest req =
        MakeRequest(cfg, id, conn_idx, seq, &is_hit, &element_idx);
    std::string out;
    serve::AppendFrame(&out, serve::EncodeRequest(req));
    PendingReq p;
    p.sent_at = Clock::now();
    p.is_hit = is_hit;
    p.element_idx = element_idx;
    if (!SendAll(fd, out)) {
      result->conn_failed = true;
      return false;
    }
    in_flight.emplace(id, p);
    ++result->sent;
    return true;
  };

  for (;;) {
    Clock::time_point now = Clock::now();
    if (result->conn_failed || now >= drain_end ||
        (now >= end && in_flight.empty())) {
      break;
    }
    if (now < end) {
      if (open_loop) {
        while (next_send <= now) {
          if (in_flight.size() >= cfg.max_in_flight) {
            ++result->skipped;  // window cap: the daemon is far behind
            next_send += interval;
            continue;
          }
          if (!send_one()) {
            break;
          }
          next_send += interval;
        }
      } else if (in_flight.empty()) {
        if (!send_one()) {
          break;
        }
      }
    }
    if (result->conn_failed) {
      break;
    }

    Clock::time_point wake = now >= end ? drain_end : end;
    if (open_loop && now < end && next_send < wake) {
      wake = next_send;
    }
    int timeout_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(wake - now).count());
    timeout_ms = std::max(0, std::min(timeout_ms, 100));
    struct pollfd p = {fd, POLLIN, 0};
    int pr = ::poll(&p, 1, timeout_ms);
    if (pr < 0 && errno != EINTR) {
      result->conn_failed = true;
      break;
    }
    if (pr <= 0 || (p.revents & (POLLIN | POLLHUP)) == 0) {
      continue;
    }
    bool peer_closed = false;
    for (;;) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        reader.Feed(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) {
        peer_closed = true;
        break;
      }
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      result->conn_failed = true;
      break;
    }
    std::string frame;
    while (reader.Next(&frame)) {
      serve::InsightResponse resp;
      std::string err;
      if (!serve::ParseResponse(frame, &resp, &err)) {
        ++result->torn;
        continue;
      }
      auto it = in_flight.find(resp.id);
      if (it == in_flight.end()) {
        ++result->torn;
        continue;
      }
      uint32_t lat = static_cast<uint32_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                it->second.sent_at)
              .count());
      if (resp.error == serve::ErrorCode::kOk) {
        ++result->ok;
        result->lat_us.push_back(lat);
        if (it->second.is_hit) {
          verifier->Check(kElements[it->second.element_idx], resp);
        }
      } else if (resp.error == serve::ErrorCode::kShedded) {
        ++result->shed;
      } else {
        ++result->errors;
        ++result->error_codes[static_cast<int>(resp.error)];
      }
      in_flight.erase(it);
    }
    reader.TakeOversized();
    if (peer_closed) {
      // Disconnected (e.g. slow-client backpressure): anything still in
      // flight is lost.
      result->conn_failed = !in_flight.empty() || result->sent == 0;
      break;
    }
  }
  result->unanswered += in_flight.size();
  ::close(fd);
}

uint32_t Percentile(std::vector<uint32_t>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

double Clamp(double v, double lo, double hi) { return std::max(lo, std::min(v, hi)); }

int Usage() {
  std::fprintf(
      stderr,
      "usage: clara_loadgen --socket=PATH [--connections=N] [--mode=open|closed]\n"
      "                     [--rate=REQ_PER_S] [--duration-s=S] [--hit-ratio=X]\n"
      "                     [--trace-pct=X] [--priority-hi-pct=X] [--deadline-ms=N]\n"
      "                     [--seed=N] [--slo-p99-us=X] [--max-error-rate=X]\n"
      "                     [--report=FILE] [--bench-json=FILE]\n"
      "Sustained multi-client load against a clara_serve --socket daemon; the\n"
      "exit code gates p99 latency, error rate and byte-identity of cached\n"
      "responses (vs the daemon's prewarm answers).\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto val = [&a](const char* flag) { return a.c_str() + std::strlen(flag); };
    if (a.rfind("--socket=", 0) == 0) {
      cfg.socket_path = val("--socket=");
    } else if (a.rfind("--report=", 0) == 0) {
      cfg.report_path = val("--report=");
    } else if (a.rfind("--bench-json=", 0) == 0) {
      cfg.bench_json_path = val("--bench-json=");
    } else if (a.rfind("--mode=", 0) == 0) {
      cfg.mode = val("--mode=");
    } else if (a.rfind("--connections=", 0) == 0) {
      cfg.connections = std::strtoul(val("--connections="), nullptr, 10);
    } else if (a.rfind("--rate=", 0) == 0) {
      cfg.rate = std::strtod(val("--rate="), nullptr);
    } else if (a.rfind("--duration-s=", 0) == 0) {
      cfg.duration_s = std::strtod(val("--duration-s="), nullptr);
    } else if (a.rfind("--hit-ratio=", 0) == 0) {
      cfg.hit_ratio = std::strtod(val("--hit-ratio="), nullptr);
    } else if (a.rfind("--trace-pct=", 0) == 0) {
      cfg.trace_pct = std::strtod(val("--trace-pct="), nullptr);
    } else if (a.rfind("--priority-hi-pct=", 0) == 0) {
      cfg.priority_hi_pct = std::strtod(val("--priority-hi-pct="), nullptr);
    } else if (a.rfind("--deadline-ms=", 0) == 0) {
      cfg.deadline_ms =
          static_cast<uint32_t>(std::strtoul(val("--deadline-ms="), nullptr, 10));
    } else if (a.rfind("--seed=", 0) == 0) {
      cfg.seed = std::strtoull(val("--seed="), nullptr, 10);
    } else if (a.rfind("--slo-p99-us=", 0) == 0) {
      cfg.slo_p99_us = std::strtod(val("--slo-p99-us="), nullptr);
    } else if (a.rfind("--max-error-rate=", 0) == 0) {
      cfg.max_error_rate = std::strtod(val("--max-error-rate="), nullptr);
    } else {
      return Usage();
    }
  }
  if (cfg.socket_path.empty() || cfg.connections == 0 || cfg.duration_s <= 0 ||
      (cfg.mode != "open" && cfg.mode != "closed") ||
      (cfg.mode == "open" && cfg.rate <= 0) || cfg.hit_ratio < 0 ||
      cfg.hit_ratio > 1) {
    return Usage();
  }
  ::signal(SIGPIPE, SIG_IGN);

  // Prewarm the daemon's cache so hit-class requests actually hit from the
  // first timed sample; the prewarm answers are the byte-compare baseline.
  Verifier verifier;
  if (!CaptureBaseline(cfg.socket_path, &verifier.baseline)) {
    std::fprintf(stderr, "clara_loadgen: cannot capture a baseline from %s\n",
                 cfg.socket_path.c_str());
    return 1;
  }

  std::vector<ConnResult> results(cfg.connections);
  std::vector<std::thread> threads;
  threads.reserve(cfg.connections);
  Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);
  for (size_t c = 0; c < cfg.connections; ++c) {
    threads.emplace_back(RunConnection, std::cref(cfg), c, start, &verifier,
                         &results[c]);
  }
  for (auto& t : threads) {
    t.join();
  }

  ConnResult total;
  std::vector<uint32_t> lat;
  size_t failed_conns = 0;
  for (const auto& r : results) {
    total.sent += r.sent;
    total.ok += r.ok;
    total.shed += r.shed;
    total.errors += r.errors;
    total.torn += r.torn;
    total.unanswered += r.unanswered;
    total.skipped += r.skipped;
    failed_conns += r.conn_failed ? 1 : 0;
    lat.insert(lat.end(), r.lat_us.begin(), r.lat_us.end());
    for (const auto& [code, n] : r.error_codes) {
      total.error_codes[code] += n;
    }
  }
  std::sort(lat.begin(), lat.end());
  uint32_t p50 = Percentile(lat, 0.50);
  uint32_t p90 = Percentile(lat, 0.90);
  uint32_t p99 = Percentile(lat, 0.99);
  uint32_t lat_max = lat.empty() ? 0 : lat.back();
  uint64_t completed = total.ok + total.shed + total.errors;
  double achieved_rps = static_cast<double>(completed) / cfg.duration_s;
  double error_rate =
      total.sent == 0
          ? 1.0
          : static_cast<double>(total.errors + total.torn + total.unanswered) /
                static_cast<double>(total.sent);

  bool slo_ok = cfg.slo_p99_us <= 0 || static_cast<double>(p99) <= cfg.slo_p99_us;
  bool errors_ok = error_rate <= cfg.max_error_rate;
  bool verify_ok = verifier.mismatches == 0;
  bool conns_ok = failed_conns == 0;

  std::string error_codes_json = "{";
  bool first = true;
  for (const auto& [code, n] : total.error_codes) {
    if (!first) {
      error_codes_json += ",";
    }
    first = false;
    error_codes_json +=
        "\"" +
        std::string(serve::ErrorCodeName(static_cast<serve::ErrorCode>(code))) +
        "\":" + std::to_string(n);
  }
  error_codes_json += "}";

  char report[2048];
  std::snprintf(
      report, sizeof(report),
      "{\n"
      "  \"mode\": \"%s\",\n"
      "  \"connections\": %zu,\n"
      "  \"target_rps\": %.1f,\n"
      "  \"duration_s\": %.2f,\n"
      "  \"hit_ratio\": %.4f,\n"
      "  \"sent\": %llu,\n"
      "  \"ok\": %llu,\n"
      "  \"shed\": %llu,\n"
      "  \"errors\": %llu,\n"
      "  \"torn\": %llu,\n"
      "  \"unanswered\": %llu,\n"
      "  \"skipped\": %llu,\n"
      "  \"failed_connections\": %zu,\n"
      "  \"achieved_rps\": %.1f,\n"
      "  \"latency_us\": {\"p50\": %u, \"p90\": %u, \"p99\": %u, \"max\": %u},\n"
      "  \"error_codes\": %s,\n"
      "  \"verify\": {\"mismatches\": %llu},\n"
      "  \"gates\": {\"slo_p99_us\": %.0f, \"slo_ok\": %s, \"errors_ok\": %s, "
      "\"verify_ok\": %s, \"connections_ok\": %s}\n"
      "}\n",
      cfg.mode.c_str(), cfg.connections, cfg.rate, cfg.duration_s, cfg.hit_ratio,
      static_cast<unsigned long long>(total.sent),
      static_cast<unsigned long long>(total.ok),
      static_cast<unsigned long long>(total.shed),
      static_cast<unsigned long long>(total.errors),
      static_cast<unsigned long long>(total.torn),
      static_cast<unsigned long long>(total.unanswered),
      static_cast<unsigned long long>(total.skipped), failed_conns, achieved_rps,
      p50, p90, p99, lat_max, error_codes_json.c_str(),
      static_cast<unsigned long long>(verifier.mismatches), cfg.slo_p99_us,
      slo_ok ? "true" : "false", errors_ok ? "true" : "false",
      verify_ok ? "true" : "false", conns_ok ? "true" : "false");
  std::fputs(report, stderr);
  if (!cfg.report_path.empty()) {
    std::FILE* f = std::fopen(cfg.report_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "clara_loadgen: cannot write %s\n",
                   cfg.report_path.c_str());
      return 1;
    }
    std::fputs(report, f);
    std::fclose(f);
  }

  if (!cfg.bench_json_path.empty()) {
    // Machine-independent rows for tools/bench_diff.py: the p99 ratio is
    // clamped to 1.0 from below (any machine meeting the SLO produces the
    // baseline value exactly), so a diff > threshold means the SLO is
    // genuinely blown, and the completion fraction regresses when the
    // daemon stops keeping up with the offered load.
    double slo = cfg.slo_p99_us > 0 ? cfg.slo_p99_us : 1;
    double p99_ratio = Clamp(static_cast<double>(p99) / slo, 1.0, 3.0);
    double target = cfg.mode == "open"
                        ? cfg.rate * cfg.duration_s
                        : static_cast<double>(total.sent);
    double completion =
        target <= 0 ? 0 : Clamp(static_cast<double>(completed) / target, 0.0, 1.0);
    std::FILE* f = std::fopen(cfg.bench_json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "clara_loadgen: cannot write %s\n",
                   cfg.bench_json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "[\n"
                 "  {\"phase\": \"sustained_load\", \"mode\": \"%s\", "
                 "\"p99_slo_latency_ratio\": %.4f, "
                 "\"completed_fraction_of_target\": %.4f}\n"
                 "]\n",
                 cfg.mode.c_str(), p99_ratio, completion);
    std::fclose(f);
  }

  if (!verify_ok) {
    std::fprintf(stderr, "clara_loadgen: FAIL: %s\n",
                 verifier.first_mismatch.c_str());
  }
  if (!conns_ok) {
    std::fprintf(stderr, "clara_loadgen: FAIL: %zu connection(s) failed\n",
                 failed_conns);
  }
  if (!slo_ok) {
    std::fprintf(stderr, "clara_loadgen: FAIL: p99 %u us exceeds SLO %.0f us\n", p99,
                 cfg.slo_p99_us);
  }
  if (!errors_ok) {
    std::fprintf(stderr, "clara_loadgen: FAIL: error rate %.4f exceeds %.4f\n",
                 error_rate, cfg.max_error_rate);
  }
  return (slo_ok && errors_ok && verify_ok && conns_ok) ? 0 : 1;
}
