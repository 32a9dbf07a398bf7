// Shared pieces of the insight-serving benchmark: the committed inline-NF
// corpus, the seeded request sequences of the three workloads, process
// control for the real clara_cli / clara_serve binaries, and closed-loop
// Unix-socket connections.
//
// Both the end-to-end run (client.cc) and the traced run (traced.cc) build
// their requests here, so the two replay the same sequence for a seed.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/serve/proto.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0);
double MicrosBetween(Clock::time_point a, Clock::time_point b);

enum class Workload { kColdMiss, kHitPoll, kReloadChurn };

bool ParseWorkload(const std::string& name, Workload* out);

// Registry elements and the committed generated NFs are each this many; a
// class is one (NF, preset) pair.
inline constexpr size_t kRegistryNfs = 23;
inline constexpr size_t kPresets = 2;  // small-flows, large-flows

// One generated NF of the committed corpus, sent as inline source.
struct CorpusNf {
  std::string name;
  std::string source;
};

// Reads the corpus file written by `perfbench_client gen-corpus`. Empty on
// a missing or malformed file (*error says why).
std::vector<CorpusNf> LoadCorpus(const std::string& path, std::string* error);
// The corpus file format: "#nf <name>" header lines, each followed by the
// program's ToSource text.
std::string FormatCorpus(const std::vector<CorpusNf>& corpus, uint64_t seed);

struct BenchRequest {
  size_t cls = 0;  // (NF, preset) class, see ClassLabel
  clara::serve::InsightRequest req;
};

// cold_miss: every registry element by name and every corpus NF inline,
// each with both presets, `copies` times over (so 92 * copies requests),
// shuffled by `seed`. Every request carries a fresh workload seed, so each
// is a new cache key.
std::vector<BenchRequest> ColdMissSequence(uint64_t seed, size_t copies,
                                           const std::vector<CorpusNf>& corpus);
// cold_miss copies for a run of `seconds`: 12 at 20 s (1104 requests, which
// take about 18 s on a 4-core x86 host).
size_t ColdMissCopies(double seconds);

// hit_poll / reload_churn working set: the 23 registry elements x 2 presets
// with the presets' fixed seeds (46 cache keys).
std::vector<BenchRequest> WorkingSet();

// A seeded permutation of [0, n).
std::vector<size_t> Permutation(size_t n, uint64_t seed);
uint64_t SplitMix64(uint64_t x);

// "aggcounter/small", "synth_3/large", ...
std::string ClassLabel(const BenchRequest& r);

// ---- processes ----
// Starts argv[0] (a path) with stdout and stderr appended to `log_path`.
// Returns the pid, or -1.
pid_t Spawn(const std::vector<std::string>& argv, const std::string& log_path);
// Waits up to `timeout_s`; returns the exit code, 128 + signal when killed by
// one, or -1 on timeout (the child is then killed and reaped).
int WaitExit(pid_t pid, double timeout_s);
// SIGTERM, then WaitExit.
int StopProcess(pid_t pid, double timeout_s);
// VmHWM of a live process in KiB (0 when unreadable).
uint64_t PeakRssKb(pid_t pid);
// The whole file (empty when unreadable).
std::string ReadFile(const std::string& path);

// ---- transport ----
enum class Outcome {
  kOk,          // a whole response frame arrived and parsed
  kTorn,        // a frame arrived but did not parse
  kUnanswered,  // no frame before the timeout
  kDropped,     // the connection failed or closed
};

const char* OutcomeName(Outcome o);

// One client connection with at most one request in flight (closed loop).
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Open(const std::string& socket_path);
  bool is_open() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();

  // Sends one payload as a frame and waits for the next response frame.
  Outcome Exchange(const std::string& payload, std::string* reply,
                   double timeout_s = 60);

  // The two halves of Exchange, for callers that poll many connections:
  // Send writes one frame; Receive reads what the socket holds (call it
  // when fd() is readable) and yields kOk with a whole frame, kUnanswered
  // while the frame is still incomplete, or kDropped.
  bool Send(const std::string& payload);
  Outcome Receive(std::string* reply);

 private:
  int fd_ = -1;
  clara::serve::FrameReader reader_;
};

// Polls `socket_path` with health control frames until one answers ok, or
// until `timeout_s`.
bool WaitHealthy(const std::string& socket_path, double timeout_s);

// Sends one control frame on `conn`; true when the daemon answered ok.
bool Control(Connection& conn, clara::serve::ControlOp op, std::string* json);

// Drives `lanes` closed-loop connections to `socket_path` from the calling
// thread with one poll() loop, so the client adds no thread per connection
// to the daemon's. next(c, &payload) gives lane c's next request, or false
// once the lane is done; done(c, outcome, reply, rtt_us) gets its answer.
// A lane whose connection dropped reconnects for its next request; one
// that cannot reconnect reports kDropped and stops. Returns when every lane
// is done.
void DriveLanes(const std::string& socket_path, size_t lanes,
                const std::function<bool(size_t, std::string*)>& next,
                const std::function<void(size_t, Outcome, const std::string&, double)>& done);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
