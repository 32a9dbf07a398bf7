#include "perfbench/workloads.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/elements/elements.h"
#include "src/util/net.h"

namespace perfbench {

using clara::WorkloadSpec;
using clara::serve::ControlOp;
using clara::serve::ControlRequest;
using clara::serve::ControlResponse;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "cold_miss") {
    *out = Workload::kColdMiss;
  } else if (name == "hit_poll") {
    *out = Workload::kHitPoll;
  } else if (name == "reload_churn") {
    *out = Workload::kReloadChurn;
  } else {
    return false;
  }
  return true;
}

std::vector<CorpusNf> LoadCorpus(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read corpus " + path;
    return {};
  }
  std::vector<CorpusNf> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("#nf ", 0) == 0) {
      out.push_back(CorpusNf{line.substr(4), ""});
    } else if (!out.empty()) {
      out.back().source += line + "\n";
    } else if (!line.empty() && line[0] != '#') {
      *error = "corpus: text before the first #nf header";
      return {};
    }
  }
  if (out.size() != kRegistryNfs) {
    *error = "corpus: expected " + std::to_string(kRegistryNfs) + " NFs, found " +
             std::to_string(out.size());
    return {};
  }
  return out;
}

std::string FormatCorpus(const std::vector<CorpusNf>& corpus, uint64_t seed) {
  std::string out = "# Generated NFs sent inline by the cold_miss workload.\n";
  out += "# SynthesizeCorpus(" + std::to_string(corpus.size()) +
         ", SynthOptions{}, seed=" + std::to_string(seed) +
         ") printed with ToSource; regenerate with\n";
  out += "#   perfbench_client gen-corpus --seed=" + std::to_string(seed) + "\n";
  for (const CorpusNf& nf : corpus) {
    out += "#nf " + nf.name + "\n" + nf.source;
    if (!nf.source.empty() && nf.source.back() != '\n') {
      out += "\n";
    }
  }
  return out;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::vector<size_t> Permutation(size_t n, uint64_t seed) {
  std::vector<size_t> p(n);
  for (size_t i = 0; i < n; ++i) {
    p[i] = i;
  }
  uint64_t state = seed;
  for (size_t i = n; i > 1; --i) {
    state = SplitMix64(state);
    std::swap(p[i - 1], p[state % i]);
  }
  return p;
}

namespace {

WorkloadSpec Preset(size_t preset) {
  return preset == 0 ? WorkloadSpec::SmallFlows() : WorkloadSpec::LargeFlows();
}

}  // namespace

std::string ClassLabel(const BenchRequest& r) {
  std::string nf = r.req.element;
  if (!r.req.source.empty()) {
    nf = "inline#" + std::to_string((r.cls / kPresets) - kRegistryNfs);
  }
  return nf + "/" + (r.cls % kPresets == 0 ? "small" : "large");
}

size_t ColdMissCopies(double seconds) {
  return std::max<size_t>(1, static_cast<size_t>(std::lround(seconds * 0.6)));
}

std::vector<BenchRequest> ColdMissSequence(uint64_t seed, size_t copies,
                                           const std::vector<CorpusNf>& corpus) {
  const auto& registry = clara::ElementRegistry();
  size_t classes = (kRegistryNfs + corpus.size()) * kPresets;
  std::vector<BenchRequest> out;
  out.reserve(classes * copies);
  for (size_t copy = 0; copy < copies; ++copy) {
    for (size_t cls = 0; cls < classes; ++cls) {
      BenchRequest r;
      r.cls = cls;
      size_t nf = cls / kPresets;
      if (nf < kRegistryNfs) {
        r.req.element = registry.at(nf).name;
      } else {
        r.req.source = corpus.at(nf - kRegistryNfs).source;
      }
      r.req.workload = Preset(cls % kPresets);
      out.push_back(std::move(r));
    }
  }
  std::vector<size_t> order = Permutation(out.size(), seed);
  std::vector<BenchRequest> shuffled;
  shuffled.reserve(out.size());
  for (size_t i = 0; i < order.size(); ++i) {
    BenchRequest r = out[order[i]];
    r.req.id = i + 1;
    // A fresh workload seed per request makes every request a new cache key.
    r.req.workload.seed = SplitMix64(seed * 0x100000001B3ull + i);
    shuffled.push_back(std::move(r));
  }
  return shuffled;
}

std::vector<BenchRequest> WorkingSet() {
  const auto& registry = clara::ElementRegistry();
  std::vector<BenchRequest> out;
  for (size_t nf = 0; nf < kRegistryNfs; ++nf) {
    for (size_t preset = 0; preset < kPresets; ++preset) {
      BenchRequest r;
      r.cls = nf * kPresets + preset;
      r.req.id = r.cls + 1;
      r.req.element = registry.at(nf).name;
      r.req.workload = Preset(preset);
      out.push_back(std::move(r));
    }
  }
  return out;
}

// ---- processes ----

pid_t Spawn(const std::vector<std::string>& argv, const std::string& log_path) {
  int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log < 0) {
    return -1;
  }
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(log, STDOUT_FILENO);
    ::dup2(log, STDERR_FILENO);
    int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDIN_FILENO);
    }
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(log);
  return pid;
}

int WaitExit(pid_t pid, double timeout_s) {
  Clock::time_point t0 = Clock::now();
  for (;;) {
    int status = 0;
    pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) {
      if (WIFEXITED(status)) {
        return WEXITSTATUS(status);
      }
      return WIFSIGNALED(status) ? 128 + WTERMSIG(status) : -1;
    }
    if (r < 0 && errno != EINTR) {
      return -1;
    }
    if (SecondsSince(t0) > timeout_s) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

int StopProcess(pid_t pid, double timeout_s) {
  ::kill(pid, SIGTERM);
  return WaitExit(pid, timeout_s);
}

uint64_t PeakRssKb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---- transport ----

const char* OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kOk:
      return "ok";
    case Outcome::kTorn:
      return "torn";
    case Outcome::kUnanswered:
      return "unanswered";
    case Outcome::kDropped:
      return "dropped";
  }
  return "?";
}

Connection::~Connection() { Close(); }

void Connection::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_ = clara::serve::FrameReader();
}

bool Connection::Open(const std::string& socket_path) {
  Close();
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return false;
  }
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return false;
  }
  std::memcpy(addr.sun_path, socket_path.data(), socket_path.size());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return false;
  }
  fd_ = fd;
  return true;
}

bool Connection::Send(const std::string& payload) {
  if (fd_ < 0) {
    return false;
  }
  std::string frame;
  clara::serve::AppendFrame(&frame, payload);
  std::string error;
  if (!clara::net::WriteAll(fd_, frame, &error)) {
    Close();
    return false;
  }
  return true;
}

Outcome Connection::Receive(std::string* reply) {
  if (reader_.Next(reply)) {
    return Outcome::kOk;
  }
  if (fd_ < 0) {
    return Outcome::kDropped;
  }
  char buf[1 << 16];
  ssize_t n = ::read(fd_, buf, sizeof(buf));
  if (n < 0 && (errno == EINTR || errno == EAGAIN)) {
    return Outcome::kUnanswered;
  }
  if (n <= 0) {
    Close();
    return Outcome::kDropped;
  }
  reader_.Feed(buf, static_cast<size_t>(n));
  return reader_.Next(reply) ? Outcome::kOk : Outcome::kUnanswered;
}

Outcome Connection::Exchange(const std::string& payload, std::string* reply,
                             double timeout_s) {
  if (!Send(payload)) {
    return Outcome::kDropped;
  }
  Clock::time_point t0 = Clock::now();
  for (;;) {
    if (reader_.Next(reply)) {
      return Outcome::kOk;
    }
    int wait_ms = static_cast<int>((timeout_s - SecondsSince(t0)) * 1000);
    if (wait_ms <= 0) {
      return Outcome::kUnanswered;
    }
    pollfd pfd{fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0 && errno == EINTR) {
      continue;
    }
    if (ready == 0) {
      return Outcome::kUnanswered;
    }
    Outcome o = Receive(reply);
    if (o != Outcome::kUnanswered) {
      return o;
    }
  }
}

bool Control(Connection& conn, ControlOp op, std::string* json) {
  ControlRequest req;
  req.op = op;
  std::string reply;
  if (conn.Exchange(clara::serve::EncodeControlRequest(req), &reply) != Outcome::kOk) {
    return false;
  }
  ControlResponse resp;
  std::string error;
  if (!clara::serve::ParseControlResponse(reply, &resp, &error) || !resp.ok) {
    return false;
  }
  if (json != nullptr) {
    *json = std::move(resp.json);
  }
  return true;
}

bool WaitHealthy(const std::string& socket_path, double timeout_s) {
  Clock::time_point t0 = Clock::now();
  while (SecondsSince(t0) < timeout_s) {
    Connection conn;
    if (conn.Open(socket_path) && Control(conn, ControlOp::kHealth, nullptr)) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

void DriveLanes(const std::string& socket_path, size_t lanes,
                const std::function<bool(size_t, std::string*)>& next,
                const std::function<void(size_t, Outcome, const std::string&, double)>& done) {
  struct Lane {
    Connection conn;
    bool busy = false;
    bool finished = false;
    Clock::time_point t0;
  };
  std::vector<Lane> state(lanes);
  std::vector<pollfd> fds;
  std::vector<size_t> fd_lane;
  std::string payload;
  std::string reply;
  for (;;) {
    for (size_t c = 0; c < lanes; ++c) {
      Lane& l = state[c];
      if (l.busy || l.finished) {
        continue;
      }
      if (!next(c, &payload)) {
        l.finished = true;
        continue;
      }
      l.t0 = Clock::now();
      if (!l.conn.is_open() && !l.conn.Open(socket_path)) {
        l.finished = true;
        done(c, Outcome::kDropped, reply, 0);
        continue;
      }
      if (!l.conn.Send(payload)) {
        done(c, Outcome::kDropped, reply, MicrosBetween(l.t0, Clock::now()));
        continue;
      }
      l.busy = true;
    }
    fds.clear();
    fd_lane.clear();
    for (size_t c = 0; c < lanes; ++c) {
      if (state[c].busy) {
        fds.push_back(pollfd{state[c].conn.fd(), POLLIN, 0});
        fd_lane.push_back(c);
      }
    }
    if (fds.empty()) {
      return;
    }
    int ready = ::poll(fds.data(), fds.size(), 60 * 1000);
    Clock::time_point t1 = Clock::now();
    if (ready < 0 && errno == EINTR) {
      continue;
    }
    for (size_t i = 0; i < fds.size(); ++i) {
      size_t c = fd_lane[i];
      Lane& l = state[c];
      if (ready <= 0) {
        // No answer on any connection for 60 s.
        l.conn.Close();
        l.busy = false;
        done(c, Outcome::kUnanswered, reply, MicrosBetween(l.t0, t1));
      } else if (fds[i].revents != 0) {
        Outcome o = l.conn.Receive(&reply);
        if (o != Outcome::kUnanswered) {
          l.busy = false;
          done(c, o, reply, MicrosBetween(l.t0, t1));
        }
      }
    }
  }
}

}  // namespace perfbench
