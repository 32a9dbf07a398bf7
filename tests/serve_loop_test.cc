// The epoll multi-client transport (src/serve/eventloop.h): many concurrent
// connections with interleaved partial frames, slow-reader backpressure
// disconnects, control frames answered inline, and connection churn during
// hot reload with zero dropped in-flight requests.
//
// Runs as one ctest entry (clara_test_whole): the trained bundle fixture is
// shared across every test in the binary, and the Loop.* tests also run
// under the ThreadSanitizer target (tsan_check) — the loop thread, engine
// dispatcher and client threads all interleave here.
#include <gtest/gtest.h>

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/core/analyzer.h"
#include "src/elements/elements.h"
#include "src/serve/artifact.h"
#include "src/serve/eventloop.h"
#include "src/serve/proto.h"
#include "src/serve/server.h"
#include "src/workload/workload.h"

namespace clara {
namespace {

// ---- shared trained fixture (small corpus; trained once per process) ----

AnalyzerOptions SmallOptions() {
  AnalyzerOptions options;
  options.predictor.train_programs = 24;
  options.predictor.lstm.epochs = 2;
  options.scaleout.train_programs = 16;
  options.colocation.train_nfs = 8;
  options.colocation.train_groups = 16;
  options.algo_corpus_per_class = 6;
  return options;
}

const ClaraAnalyzer& TrainedAnalyzer() {
  static const ClaraAnalyzer* analyzer = [] {
    auto* a = new ClaraAnalyzer(SmallOptions());
    std::vector<Program> corpus;
    for (const auto& info : ElementRegistry()) {
      corpus.push_back(info.make());
    }
    std::vector<const Program*> ptrs;
    for (const auto& p : corpus) {
      ptrs.push_back(&p);
    }
    a->Train(ptrs);
    return a;
  }();
  return *analyzer;
}

TrainedBundle FreshBundle() {
  static const std::string* bytes =
      new std::string(serve::SerializeBundle(TrainedAnalyzer().ExportTrained()));
  TrainedBundle bundle;
  std::string error;
  EXPECT_TRUE(serve::DeserializeBundle(*bytes, &bundle, &error)) << error;
  return bundle;
}

serve::ServeOptions FastServeOptions() {
  serve::ServeOptions opts;
  opts.queue_capacity = 512;
  opts.cache_capacity = 64;
  opts.profile_packets = 40;  // keep cache misses cheap in unit tests
  return opts;
}

const char* kElements[] = {"aggcounter", "heavyhitter", "udpcount", "iplookup"};

serve::InsightRequest ElementRequest(uint64_t id, const std::string& element) {
  serve::InsightRequest req;
  req.id = id;
  req.element = element;
  req.workload = WorkloadSpec::SmallFlows();
  return req;
}

// ---- in-process loop harness ----

class LoopHarness {
 public:
  explicit LoopHarness(serve::EventLoopOptions lopts,
                       serve::ServeOptions sopts = FastServeOptions())
      : engine_(FreshBundle(), sopts) {
    static std::atomic<int> counter{0};
    path_ = "/tmp/clara_loop_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)) + ".sock";
    lopts.socket_path = path_;
    loop_ = std::make_unique<serve::EventLoop>(engine_, lopts);
  }

  ~LoopHarness() { StopLoop(); }

  bool StartLoop() {
    std::string error;
    if (!loop_->Init(&error)) {
      ADD_FAILURE() << error;
      return false;
    }
    engine_.Start();
    thread_ = std::thread([this] { loop_->Run(&stop_); });
    return true;
  }

  // Stops the loop, then destroys it before stopping the engine: a request
  // callback that outlived Run() would touch a destroyed loop, which the
  // sanitizer builds report.
  void StopLoop() {
    if (thread_.joinable()) {
      stop_.store(1);
      thread_.join();
      loop_.reset();
      engine_.Stop();
    }
  }

  int Connect() {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return -1;
    }
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
    for (int attempt = 0; attempt < 100; ++attempt) {
      if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) ==
          0) {
        return fd;
      }
      ::usleep(10 * 1000);
    }
    ::close(fd);
    return -1;
  }

  serve::ServeEngine& engine() { return engine_; }
  serve::EventLoop& loop() { return *loop_; }

 private:
  serve::ServeEngine engine_;
  std::unique_ptr<serve::EventLoop> loop_;
  std::string path_;
  std::atomic<int> stop_{0};
  std::thread thread_;
};

bool WriteAllFd(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

// Blocking read of exactly `expect` response frames (or EOF/error).
bool ReadResponses(int fd, size_t expect, std::vector<serve::InsightResponse>* out) {
  serve::FrameReader reader;
  char buf[1 << 14];
  while (out->size() < expect) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    if (n == 0) {
      return false;
    }
    reader.Feed(buf, static_cast<size_t>(n));
    std::string frame;
    while (reader.Next(&frame)) {
      serve::InsightResponse resp;
      std::string err;
      if (!serve::ParseResponse(frame, &resp, &err)) {
        return false;
      }
      out->push_back(std::move(resp));
    }
  }
  return true;
}

// Makes a blocking read on fd give up after `seconds`.
void SetRecvTimeout(int fd, int seconds) {
  struct timeval tv;
  tv.tv_sec = seconds;
  tv.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

// Waits up to 10 s for the engine's queue to hold `depth` requests.
bool WaitForQueueDepth(serve::ServeEngine& engine, size_t depth) {
  std::string want = "\"queue_depth\":" + std::to_string(depth) + ",";
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.HealthJson().find(want) == std::string::npos) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    ::usleep(1000);
  }
  return true;
}

// Holds the engine's dispatcher inside a request callback until Release()
// (or destruction), so whatever is submitted meanwhile stays queued.
class DispatcherHold {
 public:
  explicit DispatcherHold(serve::ServeEngine& engine) {
    std::future<void> entered = entered_.get_future();
    engine.Submit(ElementRequest(0, "no-such-element"), 0,
                  [entered = &entered_, released = released_](serve::InsightResponse) {
                    entered->set_value();
                    released.wait();
                  });
    entered.wait();
  }
  ~DispatcherHold() { Release(); }

  DispatcherHold(const DispatcherHold&) = delete;
  DispatcherHold& operator=(const DispatcherHold&) = delete;

  void Release() {
    if (!released_flag_) {
      released_flag_ = true;
      release_.set_value();
    }
  }

 private:
  std::promise<void> entered_;
  std::promise<void> release_;
  std::shared_future<void> released_ = release_.get_future().share();
  bool released_flag_ = false;
};

// ---- tests ----

// 64 concurrent connections, each carrying several frames whose bytes arrive
// interleaved one byte at a time across all fds: every connection's
// FrameReader must reassemble independently, and every request must answer
// OK with the body the engine computes for that element.
TEST(Loop, InterleavedPartialFramesAcross64Connections) {
  constexpr size_t kConns = 64;
  constexpr size_t kPerConn = 3;
  LoopHarness h(serve::EventLoopOptions{});
  ASSERT_TRUE(h.StartLoop());

  // Reference bodies straight from the engine (also warms the cache).
  std::vector<std::string> want;
  for (const char* e : kElements) {
    serve::InsightResponse resp = h.engine().Handle(ElementRequest(1, e));
    ASSERT_EQ(resp.error, serve::ErrorCode::kOk) << e;
    want.push_back(serve::EncodeResponseBody(resp));
  }

  std::vector<int> fds(kConns, -1);
  std::vector<std::string> payloads(kConns);
  for (size_t c = 0; c < kConns; ++c) {
    fds[c] = h.Connect();
    ASSERT_GE(fds[c], 0) << "connection " << c;
    for (size_t k = 0; k < kPerConn; ++k) {
      uint64_t id = (static_cast<uint64_t>(c + 1) << 16) | k;
      serve::AppendFrame(&payloads[c],
                         serve::EncodeRequest(ElementRequest(id, kElements[(c + k) % 4])));
    }
  }
  // Byte-by-byte round-robin: at any instant most connections hold a partial
  // frame. Readers drain as we go so responses never back up the loop.
  size_t max_len = 0;
  for (const auto& p : payloads) {
    max_len = std::max(max_len, p.size());
  }
  std::vector<std::thread> readers;
  std::vector<std::vector<serve::InsightResponse>> got(kConns);
  // char, not bool: vector<bool> packs bits into shared words, which is a
  // data race when reader threads store adjacent elements concurrently.
  std::vector<char> read_ok(kConns, 0);
  for (size_t c = 0; c < kConns; ++c) {
    readers.emplace_back([&, c] {
      std::vector<serve::InsightResponse> resps;
      read_ok[c] = ReadResponses(fds[c], kPerConn, &resps);
      got[c] = std::move(resps);
    });
  }
  for (size_t pos = 0; pos < max_len; ++pos) {
    for (size_t c = 0; c < kConns; ++c) {
      if (pos < payloads[c].size()) {
        ASSERT_TRUE(WriteAllFd(fds[c], payloads[c].substr(pos, 1)));
      }
    }
  }
  for (auto& t : readers) {
    t.join();
  }
  for (size_t c = 0; c < kConns; ++c) {
    ASSERT_TRUE(read_ok[c]) << "connection " << c;
    ASSERT_EQ(got[c].size(), kPerConn);
    for (size_t k = 0; k < kPerConn; ++k) {
      const auto& resp = got[c][k];
      EXPECT_EQ(resp.error, serve::ErrorCode::kOk);
      EXPECT_EQ(resp.id, (static_cast<uint64_t>(c + 1) << 16) | k);
      EXPECT_EQ(serve::EncodeResponseBody(resp), want[(c + k) % 4]);
    }
    ::close(fds[c]);
  }
  EXPECT_GE(h.loop().accepted(), kConns);
}

// A client that sends requests but never reads responses must be
// disconnected once its outbound buffer blows the cap — not allowed to grow
// the daemon's memory without bound.
TEST(Loop, SlowReaderIsDisconnected) {
  serve::EventLoopOptions lopts;
  lopts.max_outbound_bytes = 2048;  // tiny: a handful of responses
  LoopHarness h(lopts);
  ASSERT_TRUE(h.StartLoop());

  // Warm the cache so responses stream out fast.
  ASSERT_EQ(h.engine().Handle(ElementRequest(1, "aggcounter")).error,
            serve::ErrorCode::kOk);

  int fd = h.Connect();
  ASSERT_GE(fd, 0);
  // Never read. Keep writing until the daemon hangs up on us (the kernel
  // socket buffer absorbs the first wave; the cap catches the overflow).
  std::string out;
  for (uint64_t id = 1; id <= 64; ++id) {
    serve::AppendFrame(&out, serve::EncodeRequest(ElementRequest(id, "aggcounter")));
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool hung_up = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (!WriteAllFd(fd, out)) {
      hung_up = true;  // EPIPE: the loop closed us
      break;
    }
    if (h.loop().slow_disconnects() > 0) {
      hung_up = true;
      break;
    }
  }
  ::close(fd);
  EXPECT_TRUE(hung_up);
  // The disconnect must be attributed to backpressure.
  auto counter_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (h.loop().slow_disconnects() == 0 &&
         std::chrono::steady_clock::now() < counter_deadline) {
    ::usleep(10 * 1000);
  }
  EXPECT_GE(h.loop().slow_disconnects(), 1u);

  // The closed connection's queued frames never reach the engine, so its
  // admission queue drains instead of filling with answers nobody reads.
  auto drain_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool drained = false;
  while (!drained && std::chrono::steady_clock::now() < drain_deadline) {
    drained = h.engine().HealthJson().find("\"queue_depth\":0,") != std::string::npos;
    if (!drained) {
      ::usleep(10 * 1000);
    }
  }
  ASSERT_TRUE(drained) << "engine queue not empty 10 s after the disconnect: "
                       << h.engine().HealthJson();

  // The daemon itself is unharmed: a well-behaved client still gets served.
  int fd2 = h.Connect();
  ASSERT_GE(fd2, 0);
  std::string req;
  serve::AppendFrame(&req, serve::EncodeRequest(ElementRequest(99, "aggcounter")));
  ASSERT_TRUE(WriteAllFd(fd2, req));
  std::vector<serve::InsightResponse> resps;
  ASSERT_TRUE(ReadResponses(fd2, 1, &resps));
  EXPECT_EQ(resps[0].error, serve::ErrorCode::kOk);
  ::close(fd2);
}

// Control frames are answered inline by the loop thread, and the stats
// envelope carries the transport object while the engine keeps serving.
TEST(Loop, ControlFramesAnsweredInlineWithTransportStats) {
  LoopHarness h(serve::EventLoopOptions{});
  ASSERT_TRUE(h.StartLoop());
  h.engine().SetTransportStatsProvider([&h] { return h.loop().StatsJson(); });

  int fd = h.Connect();
  ASSERT_GE(fd, 0);
  serve::ControlRequest creq;
  creq.op = serve::ControlOp::kStats;
  std::string out;
  serve::AppendFrame(&out, serve::EncodeControlRequest(creq));
  ASSERT_TRUE(WriteAllFd(fd, out));

  serve::FrameReader reader;
  char buf[1 << 14];
  std::string frame;
  bool got = false;
  while (!got) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    ASSERT_GT(n, 0);
    reader.Feed(buf, static_cast<size_t>(n));
    while (reader.Next(&frame)) {
      got = true;
    }
  }
  serve::ControlResponse cresp;
  std::string err;
  ASSERT_TRUE(serve::ParseControlResponse(frame, &cresp, &err)) << err;
  EXPECT_TRUE(cresp.ok);
  EXPECT_NE(cresp.json.find("\"transport\":{"), std::string::npos);
  EXPECT_NE(cresp.json.find("\"mode\":\"epoll\""), std::string::npos);
  EXPECT_NE(cresp.json.find("\"conn_active\":1,"), std::string::npos) << cresp.json;
  EXPECT_NE(cresp.json.find("\"conn_accepted\":1,"), std::string::npos) << cresp.json;
  EXPECT_NE(cresp.json.find("\"frames_in\":1,"), std::string::npos) << cresp.json;
  EXPECT_EQ(cresp.json.find("\"shards\""), std::string::npos) << cresp.json;
  ::close(fd);
  h.engine().SetTransportStatsProvider(nullptr);
}

// An oversized frame answers with a structured kOversized error and the
// connection keeps working for well-formed frames after it.
TEST(Loop, OversizedFrameAnsweredAndConnectionSurvives) {
  LoopHarness h(serve::EventLoopOptions{});
  ASSERT_TRUE(h.StartLoop());
  int fd = h.Connect();
  ASSERT_GE(fd, 0);

  std::string out;
  uint32_t huge = static_cast<uint32_t>(serve::kMaxFrameBytes + 1);
  for (int i = 0; i < 4; ++i) {  // little-endian length prefix, as AppendFrame
    out.push_back(static_cast<char>((huge >> (8 * i)) & 0xff));
  }
  out.append(serve::kMaxFrameBytes + 1, 'x');
  serve::AppendFrame(&out, serve::EncodeRequest(ElementRequest(7, "aggcounter")));
  ASSERT_TRUE(WriteAllFd(fd, out));

  std::vector<serve::InsightResponse> resps;
  ASSERT_TRUE(ReadResponses(fd, 2, &resps));
  EXPECT_EQ(resps[0].error, serve::ErrorCode::kOversized);
  EXPECT_EQ(resps[1].error, serve::ErrorCode::kOk);
  EXPECT_EQ(resps[1].id, 7u);
  ::close(fd);
}

// One send carries a miss, then a hit. The hit is answered first, at
// admission on the loop thread, but its bytes wait in the connection's FIFO
// until the miss's are written.
TEST(Loop, HitBehindAMissIsAnsweredInRequestOrder) {
  LoopHarness h(serve::EventLoopOptions{});
  ASSERT_TRUE(h.StartLoop());
  ASSERT_EQ(h.engine().Handle(ElementRequest(1, "aggcounter")).error,
            serve::ErrorCode::kOk);

  int fd = h.Connect();
  ASSERT_GE(fd, 0);
  std::string out;
  serve::AppendFrame(&out, serve::EncodeRequest(ElementRequest(2, "heavyhitter")));
  serve::AppendFrame(&out, serve::EncodeRequest(ElementRequest(3, "aggcounter")));
  ASSERT_TRUE(WriteAllFd(fd, out));
  std::vector<serve::InsightResponse> resps;
  ASSERT_TRUE(ReadResponses(fd, 2, &resps));
  EXPECT_EQ(resps[0].id, 2u);
  EXPECT_FALSE(resps[0].breakdown.cache_hit);
  EXPECT_EQ(resps[1].id, 3u);
  EXPECT_TRUE(resps[1].breakdown.cache_hit);
  ::close(fd);
}

// Under brownout a newcomer on one connection displaces a queued request
// from another. The displaced request is answered inside the newcomer's
// Submit(), on the loop thread, while the loop reads the newcomer's
// connection; its own connection must still be flushed, though it sends
// nothing more.
TEST(Loop, DisplacedRequestIsAnsweredOnItsOwnConnection) {
  serve::ServeOptions sopts = FastServeOptions();
  sopts.queue_capacity = 2;  // brownout's displacement watermark: 1 queued
  sopts.slo_p99_us = 0.5;    // every real request busts the SLO
  LoopHarness h(serve::EventLoopOptions{}, sopts);
  ASSERT_TRUE(h.StartLoop());
  ASSERT_EQ(h.engine().Handle(ElementRequest(1, "aggcounter")).error,
            serve::ErrorCode::kOk);
  bool active = false;
  for (int i = 0; i < 100 && !active; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    active = h.engine().brownout_active();
  }
  ASSERT_TRUE(active) << "brownout never engaged";
  DispatcherHold hold(h.engine());

  int low = h.Connect();
  int high = h.Connect();
  ASSERT_GE(low, 0);
  ASSERT_GE(high, 0);
  SetRecvTimeout(low, 5);
  SetRecvTimeout(high, 10);
  std::string out;
  serve::AppendFrame(&out, serve::EncodeRequest(ElementRequest(2, "heavyhitter")));
  ASSERT_TRUE(WriteAllFd(low, out));
  ASSERT_TRUE(WaitForQueueDepth(h.engine(), 1)) << h.engine().HealthJson();
  serve::InsightRequest vip = ElementRequest(3, "udpcount");
  vip.priority = 9;
  out.clear();
  serve::AppendFrame(&out, serve::EncodeRequest(vip));
  ASSERT_TRUE(WriteAllFd(high, out));

  std::vector<serve::InsightResponse> displaced;
  ASSERT_TRUE(ReadResponses(low, 1, &displaced)) << "the displaced answer never arrived";
  EXPECT_EQ(displaced[0].id, 2u);
  EXPECT_EQ(displaced[0].error, serve::ErrorCode::kShedded) << displaced[0].error_message;
  EXPECT_GT(displaced[0].retry_after_ms, 0u);

  hold.Release();
  std::vector<serve::InsightResponse> served;
  ASSERT_TRUE(ReadResponses(high, 1, &served));
  EXPECT_EQ(served[0].id, 3u);
  EXPECT_EQ(served[0].error, serve::ErrorCode::kOk) << served[0].error_message;
  ::close(low);
  ::close(high);
}

// Hits pipelined behind a miss are answered at admission, but their bytes
// wait in the connection's FIFO until the miss is written. They count
// against max_outbound_bytes there too: a client that sends one slow miss
// and then many hits is disconnected, not buffered without bound.
TEST(Loop, AnswersWaitingBehindAMissCountAgainstTheCap) {
  serve::EventLoopOptions lopts;
  lopts.max_outbound_bytes = 2048;  // a handful of responses
  LoopHarness h(lopts);
  ASSERT_TRUE(h.StartLoop());
  ASSERT_EQ(h.engine().Handle(ElementRequest(1, "aggcounter")).error,
            serve::ErrorCode::kOk);
  DispatcherHold hold(h.engine());  // the miss below stays queued

  int fd = h.Connect();
  ASSERT_GE(fd, 0);
  SetRecvTimeout(fd, 5);
  std::string out;
  serve::AppendFrame(&out, serve::EncodeRequest(ElementRequest(2, "heavyhitter")));
  for (uint64_t id = 3; id < 3 + 32; ++id) {
    serve::AppendFrame(&out, serve::EncodeRequest(ElementRequest(id, "aggcounter")));
  }
  ASSERT_TRUE(WriteAllFd(fd, out));
  // Nothing can be written before the miss's answer, so the loop's hang-up
  // is the first thing the client sees.
  char buf[256];
  ssize_t n = ::read(fd, buf, sizeof(buf));
  int read_errno = errno;
  EXPECT_TRUE(n == 0 || (n < 0 && read_errno == ECONNRESET))
      << "read returned " << n << " (" << std::strerror(read_errno) << ")";
  // The loop counts the disconnect just after it closes the fd.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (h.loop().slow_disconnects() == 0 && std::chrono::steady_clock::now() < deadline) {
    ::usleep(1000);
  }
  EXPECT_EQ(h.loop().slow_disconnects(), 1u);
  ::close(fd);
}

// Stopping the loop with misses in flight: Run() returns only once every
// request callback has run (they capture the loop), so each answer still
// reaches its client in the last flush before the connection closes.
TEST(Loop, StopWaitsForInFlightCallbacks) {
  constexpr int kMisses = 4;
  serve::ServeOptions sopts = FastServeOptions();
  sopts.profile_packets = 1000;  // misses that are still running at the stop
  LoopHarness h(serve::EventLoopOptions{}, sopts);
  ASSERT_TRUE(h.StartLoop());
  int fd = h.Connect();
  ASSERT_GE(fd, 0);
  std::string out;
  for (int i = 0; i < kMisses; ++i) {
    serve::InsightRequest req = ElementRequest(i + 1, "wepdecap");
    req.workload.seed += static_cast<uint64_t>(i);  // a new key each: all misses
    serve::AppendFrame(&out, serve::EncodeRequest(req));
  }
  ASSERT_TRUE(WriteAllFd(fd, out));
  // Frames are counted as they are read, and one read submits all of them
  // before the loop looks at its stop flag again.
  std::string read_all = "\"frames_in\":" + std::to_string(kMisses) + ",";
  while (h.loop().StatsJson().find(read_all) == std::string::npos) {
    ::usleep(1000);
  }
  h.StopLoop();

  std::vector<serve::InsightResponse> resps;
  ASSERT_TRUE(ReadResponses(fd, kMisses, &resps));
  for (int i = 0; i < kMisses; ++i) {
    EXPECT_EQ(resps[i].id, static_cast<uint64_t>(i + 1));
    EXPECT_EQ(resps[i].error, serve::ErrorCode::kOk) << resps[i].error_message;
  }
  ::close(fd);
}

// Connection churn during hot reload: clients connect, exchange, disconnect
// in a loop while the model is reloaded repeatedly. The artifact version
// must advance and not a single in-flight request may be dropped or
// answered with an error.
TEST(Loop, ConnectionChurnDuringHotReload) {
  constexpr size_t kClients = 8;
  constexpr int kRounds = 12;
  LoopHarness h(serve::EventLoopOptions{});
  ASSERT_TRUE(h.StartLoop());

  std::vector<std::string> want;
  for (const char* e : kElements) {
    serve::InsightResponse resp = h.engine().Handle(ElementRequest(1, e));
    ASSERT_EQ(resp.error, serve::ErrorCode::kOk) << e;
    want.push_back(serve::EncodeResponseBody(resp));
  }

  std::atomic<int> churn_stop{0};
  std::atomic<uint64_t> exchanges{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      uint64_t seq = 0;
      while (churn_stop.load() == 0) {
        int fd = h.Connect();
        if (fd < 0) {
          failures.fetch_add(1);
          return;
        }
        std::string out;
        constexpr size_t kBatch = 4;
        for (size_t k = 0; k < kBatch; ++k) {
          uint64_t id = (static_cast<uint64_t>(c + 1) << 32) | ++seq;
          serve::AppendFrame(
              &out, serve::EncodeRequest(ElementRequest(id, kElements[seq % 4])));
        }
        if (!WriteAllFd(fd, out)) {
          failures.fetch_add(1);
          ::close(fd);
          continue;
        }
        std::vector<serve::InsightResponse> resps;
        if (!ReadResponses(fd, kBatch, &resps)) {
          failures.fetch_add(1);
          ::close(fd);
          continue;
        }
        for (const auto& resp : resps) {
          if (resp.error != serve::ErrorCode::kOk) {
            failures.fetch_add(1);
          }
        }
        exchanges.fetch_add(kBatch);
        ::close(fd);
      }
    });
  }

  uint64_t version_before = h.engine().artifact_version();
  int reloads_ok = 0;
  for (int r = 0; r < kRounds; ++r) {
    std::string error;
    if (h.engine().Reload(FreshBundle(), &error)) {
      ++reloads_ok;
    } else {
      ADD_FAILURE() << "reload rejected: " << error;
    }
    ::usleep(20 * 1000);
  }
  // Let churn continue on the final model for a moment, then stop.
  ::usleep(100 * 1000);
  churn_stop.store(1);
  for (auto& t : clients) {
    t.join();
  }

  EXPECT_EQ(failures.load(), 0u) << "requests dropped or failed during reload churn";
  EXPECT_GT(exchanges.load(), 0u);
  EXPECT_EQ(h.engine().artifact_version(),
            version_before + static_cast<uint64_t>(reloads_ok));
  EXPECT_EQ(h.engine().reloads_rejected(), 0u);

  // Responses after the final reload still match the trained baseline bytes.
  int fd = h.Connect();
  ASSERT_GE(fd, 0);
  std::string out;
  for (uint64_t i = 0; i < 4; ++i) {
    serve::AppendFrame(&out,
                       serve::EncodeRequest(ElementRequest(1000 + i, kElements[i])));
  }
  ASSERT_TRUE(WriteAllFd(fd, out));
  std::vector<serve::InsightResponse> resps;
  ASSERT_TRUE(ReadResponses(fd, 4, &resps));
  for (const auto& resp : resps) {
    ASSERT_EQ(resp.error, serve::ErrorCode::kOk);
    EXPECT_EQ(serve::EncodeResponseBody(resp), want[resp.id - 1000]);
  }
  ::close(fd);
}

}  // namespace
}  // namespace clara
