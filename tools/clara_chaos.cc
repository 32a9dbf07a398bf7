// clara_chaos — chaos harness for the clara_serve daemon.
//
// Spawns a real daemon (fork/exec), drives it over its Unix socket, and
// verifies the self-healing properties the serve plane claims:
//
//   faults         for every injectable fault site (src/util/fault.h) at
//                  prob 0.05 with a fixed seed: no daemon crash, every
//                  request eventually answers byte-equal to a fault-free
//                  baseline under bounded retries, the stats envelope proves
//                  injections actually happened, and the daemon still
//                  shuts down cleanly afterwards. Artifact sites are
//                  exercised by interleaving reload control frames.
//   killrestart    SIGKILL mid-traffic, restart on the same socket, assert
//                  bounded recovery and byte-equal answers afterwards.
//   dropframe      torn frames: a length prefix promising more bytes than
//                  ever arrive, raw garbage, then a clean exchange must
//                  still work on the same daemon.
//   reload         hot reload under load (SIGHUP + control frames): every
//                  in-flight request answers OK on the first try, and the
//                  health artifact_version bumps.
//   corruptreload  corrupt the bundle on disk, reload is rejected, the old
//                  model keeps serving byte-equal; restore the file and the
//                  next reload succeeds with a version bump.
//
// Everything is deterministic: fault draws are seeded, and "no wrong
// answer" is a byte-compare of response bodies against a clean-run baseline
// captured at startup.
//
// Usage:
//   clara_chaos --serve=PATH/clara_serve --model-dir=DIR --workdir=DIR
//               [--iters=N] [--seed=N] [--scenario=NAME|all]
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/serve/artifact.h"
#include "src/serve/proto.h"
#include "src/serve/retry.h"
#include "src/util/fault.h"

namespace {

using namespace clara;

struct ChaosConfig {
  std::string serve_bin;
  std::string model_dir;
  std::string workdir;
  std::string scenario = "all";
  int iters = 60;
  uint64_t seed = 1;
};

const char* kElements[] = {"aggcounter", "heavyhitter", "udpcount", "iplookup"};
constexpr size_t kElementCount = sizeof(kElements) / sizeof(kElements[0]);
constexpr size_t kBatch = 8;  // requests per exchange, pipelined on one connection

int g_failures = 0;

void Fail(const std::string& what) {
  std::fprintf(stderr, "clara_chaos: FAIL: %s\n", what.c_str());
  ++g_failures;
}

void Note(const std::string& what) {
  std::fprintf(stderr, "clara_chaos: %s\n", what.c_str());
}

// ---- daemon management ----

pid_t StartDaemon(const ChaosConfig& cfg, const std::string& socket_path,
                  const std::string& model_dir, const std::string& fault_spec,
                  const std::string& log_path) {
  std::vector<std::string> args;
  args.push_back(cfg.serve_bin);
  args.push_back("--model-dir=" + model_dir);
  args.push_back("--socket=" + socket_path);
  if (!fault_spec.empty()) {
    args.push_back("--fault=" + fault_spec);
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    return -1;
  }
  if (pid == 0) {
    int null_fd = ::open("/dev/null", O_RDONLY);
    if (null_fd >= 0) {
      ::dup2(null_fd, 0);
      ::close(null_fd);
    }
    int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd >= 0) {
      ::dup2(log_fd, 2);
      ::close(log_fd);
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (auto& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  return pid;
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

// Polls until the daemon accepts a connection; the bound doubles as the
// "recovery time is bounded" assertion for restart scenarios.
bool WaitForSocket(const std::string& path, int timeout_ms) {
  for (int waited = 0; waited < timeout_ms; waited += 50) {
    int fd;
    if (TryConnect(path, &fd)) {
      ::close(fd);
      return true;
    }
    ::usleep(50 * 1000);
  }
  return false;
}

// SIGTERM + bounded wait; true only when the daemon exited with status 0
// ("no crash" includes the shutdown path).
bool StopDaemonClean(pid_t pid) {
  ::kill(pid, SIGTERM);
  for (int i = 0; i < 150; ++i) {  // 15 s bound
    int status = 0;
    pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) {
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    ::usleep(100 * 1000);
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  return false;
}

// True when the daemon died on its own (e.g. crashed) — used to assert it
// did NOT.
bool DaemonDied(pid_t pid) {
  int status = 0;
  return ::waitpid(pid, &status, WNOHANG) == pid;
}

// ---- wire helpers ----

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

serve::InsightRequest MakeRequest(uint64_t id, const std::string& element) {
  serve::InsightRequest req;
  req.id = id;
  req.element = element;
  req.workload = WorkloadSpec::SmallFlows();
  return req;
}

// The comparison unit for "no wrong answer": the response body (everything
// after the echoed id, before the per-delivery sections).
std::string BodyOf(const serve::InsightResponse& resp) {
  return serve::EncodeResponseBody(resp);
}

// Sends one batch of requests with bounded retries; every id must end OK.
// Under fault sweeps ANY error is treated as transient (an injected decode
// fault can surface as kBadRequest), but a *successful* answer must be
// byte-equal to the baseline — corruption is never acceptable.
bool RunBatch(const std::string& socket_path,
              const std::vector<serve::InsightRequest>& reqs, int max_retries,
              const std::map<std::string, std::string>& baseline, std::string* why) {
  std::map<uint64_t, const serve::InsightRequest*> pending;
  for (const auto& r : reqs) {
    pending[r.id] = &r;
  }
  serve::RetryPolicy policy(
      serve::RetryPolicy::Options{max_retries, /*base_ms=*/5, /*max_ms=*/200,
                                  /*jitter_seed=*/42});
  for (int attempt = 0; !pending.empty(); ++attempt) {
    std::string out;
    for (const auto& [id, req] : pending) {
      serve::AppendFrame(&out, serve::EncodeRequest(*req));
    }
    std::string reply;
    uint32_t hint_ms = 0;
    if (Exchange(socket_path, out, &reply)) {
      serve::FrameReader reader;
      reader.Feed(reply.data(), reply.size());
      std::string frame;
      while (reader.Next(&frame)) {
        serve::InsightResponse resp;
        std::string err;
        if (!serve::ParseResponse(frame, &resp, &err)) {
          continue;  // torn by an injected write fault: retry covers it
        }
        auto it = pending.find(resp.id);
        if (it == pending.end()) {
          continue;
        }
        if (resp.error != serve::ErrorCode::kOk) {
          hint_ms = std::max(hint_ms, resp.retry_after_ms);
          continue;  // transient under chaos: stays pending
        }
        auto base = baseline.find(it->second->element);
        if (base != baseline.end() && BodyOf(resp) != base->second) {
          *why = "wrong answer for element '" + it->second->element +
                 "' (bytes differ from fault-free baseline)";
          return false;
        }
        pending.erase(it);
      }
    }
    if (pending.empty()) {
      break;
    }
    if (!policy.ShouldRetry(attempt)) {
      *why = std::to_string(pending.size()) + " request(s) unanswered after " +
             std::to_string(attempt) + " retries";
      return false;
    }
    ::usleep(policy.NextDelayMs(attempt, hint_ms) * 1000);
  }
  return true;
}

// Control query with bounded retries (socket fault sites can tear these
// connections, and binio.read faults can poison the daemon's parse of the
// control frame itself). A structured !ok answer is retried for idempotent
// queries — under chaos it usually means an injected decode fault — but for
// kReload it is returned immediately: a rejected reload is a *result* the
// scenarios assert on, not a transport hiccup. Returns the JSON document,
// empty on failure.
std::string ControlJson(const std::string& socket_path, serve::ControlOp op,
                        bool* ok_out) {
  serve::ControlRequest req;
  req.op = op;
  std::string out;
  serve::AppendFrame(&out, serve::EncodeControlRequest(req));
  bool retry_not_ok = op != serve::ControlOp::kReload;
  std::string last_error;
  for (int attempt = 0; attempt < 12; ++attempt) {
    std::string reply;
    if (Exchange(socket_path, out, &reply)) {
      serve::FrameReader reader;
      reader.Feed(reply.data(), reply.size());
      std::string frame;
      serve::ControlResponse resp;
      std::string err;
      if (reader.Next(&frame) && serve::ParseControlResponse(frame, &resp, &err)) {
        if (resp.ok || !retry_not_ok) {
          if (ok_out != nullptr) {
            *ok_out = resp.ok;
          }
          return resp.ok ? resp.json : resp.error;
        }
        last_error = resp.error;
      }
    }
    ::usleep(20 * 1000);
  }
  if (ok_out != nullptr) {
    *ok_out = false;
  }
  return last_error;
}

// Extracts a top-level unsigned JSON number field ("key":123).
uint64_t JsonU64Field(const std::string& json, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) {
    return 0;
  }
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

std::vector<serve::InsightRequest> MakeBatch(size_t n) {
  std::vector<serve::InsightRequest> reqs;
  for (size_t i = 0; i < n; ++i) {
    reqs.push_back(MakeRequest(i + 1, kElements[i % kElementCount]));
  }
  return reqs;
}

// Fault-free baseline: the byte-exact response body per element.
bool CaptureBaseline(const ChaosConfig& cfg, const std::string& model_dir,
                     std::map<std::string, std::string>* baseline) {
  std::string sock = cfg.workdir + "/baseline.sock";
  pid_t pid = StartDaemon(cfg, sock, model_dir, "", cfg.workdir + "/baseline.log");
  if (pid < 0 || !WaitForSocket(sock, 15000)) {
    Fail("baseline daemon did not come up");
    return false;
  }
  std::string out;
  std::vector<serve::InsightRequest> reqs;
  for (size_t i = 0; i < kElementCount; ++i) {
    reqs.push_back(MakeRequest(i + 1, kElements[i]));
    serve::AppendFrame(&out, serve::EncodeRequest(reqs.back()));
  }
  std::string reply;
  bool ok = Exchange(sock, out, &reply);
  if (ok) {
    serve::FrameReader reader;
    reader.Feed(reply.data(), reply.size());
    std::string frame;
    while (reader.Next(&frame)) {
      serve::InsightResponse resp;
      std::string err;
      if (serve::ParseResponse(frame, &resp, &err) &&
          resp.error == serve::ErrorCode::kOk && resp.id >= 1 &&
          resp.id <= kElementCount) {
        (*baseline)[kElements[resp.id - 1]] = BodyOf(resp);
      }
    }
  }
  bool clean = StopDaemonClean(pid);
  if (baseline->size() != kElementCount || !clean) {
    Fail("baseline capture incomplete");
    return false;
  }
  return true;
}

// Injected-fault count for one site from the stats envelope; *stats_ok is
// false when the control query itself failed.
uint64_t InjectedCount(const std::string& socket_path, const std::string& site,
                       bool* stats_ok) {
  std::string stats = ControlJson(socket_path, serve::ControlOp::kStats, stats_ok);
  if (!*stats_ok) {
    return 0;
  }
  size_t pos = stats.find("\"" + site + "\":{");
  if (pos == std::string::npos) {
    return 0;
  }
  return JsonU64Field(stats.substr(pos), "injected");
}

// ---- scenarios ----

void ScenarioFaults(const ChaosConfig& cfg, const std::string& model_dir,
                    const std::map<std::string, std::string>& baseline) {
  // Sites on the request path: plain traffic sweeps. Artifact sites only
  // draw during (re)loads, so their sweeps interleave reload frames.
  const struct {
    const char* site;
    bool with_reloads;
  } kSweeps[] = {
      {"binio.read", false},  {"sock.read", false},    {"sock.write", false},
      {"sock.accept", false}, {"queue.admit", false},  {"dispatch", false},
      {"artifact.crc", true}, {"artifact.load", true},
  };
  int sweep_idx = 0;
  for (const auto& sweep : kSweeps) {
    std::string site = sweep.site;
    std::string spec =
        site + ":0.05:" + std::to_string(cfg.seed + static_cast<uint64_t>(sweep_idx));
    ++sweep_idx;
    std::string sock = cfg.workdir + "/fault.sock";
    std::string log = cfg.workdir + "/fault_" + site + ".log";
    pid_t pid = StartDaemon(cfg, sock, model_dir, spec, log);
    if (pid < 0 || !WaitForSocket(sock, 15000)) {
      Fail("fault sweep " + site + ": daemon did not come up");
      continue;
    }
    bool sweep_ok = true;
    int sent = 0;
    int reloads = 0;
    std::string why;
    while (sent < cfg.iters) {
      size_t n = std::min<size_t>(kBatch, static_cast<size_t>(cfg.iters - sent));
      if (!RunBatch(sock, MakeBatch(n), /*max_retries=*/12, baseline, &why)) {
        Fail("fault sweep " + site + ": " + why);
        sweep_ok = false;
        break;
      }
      sent += static_cast<int>(n);
      if (sweep.with_reloads) {
        // Reload may be rejected by the injected artifact fault — required
        // behavior, not an error. It must never take the daemon down.
        bool ok = false;
        std::string json = ControlJson(sock, serve::ControlOp::kReload, &ok);
        ++reloads;
        (void)json;
      }
      if (DaemonDied(pid)) {
        Fail("fault sweep " + site + ": daemon crashed");
        sweep_ok = false;
        pid = -1;
        break;
      }
    }
    if (pid > 0) {
      // Prove the sweep exercised the site: the injected counter must move.
      // At prob 0.05 a short sweep can legitimately draw zero injections, so
      // top up with single-request exchanges (each one a fresh connection,
      // i.e. fresh accept/read/write draws) or reload attempts until it does.
      bool stats_ok = false;
      uint64_t injected = InjectedCount(sock, site, &stats_ok);
      int extra = 0;
      while (stats_ok && injected == 0 && extra < 400) {
        if (sweep.with_reloads) {
          bool ok = false;
          ControlJson(sock, serve::ControlOp::kReload, &ok);
          ++reloads;
        } else {
          std::string w;
          if (!RunBatch(sock, MakeBatch(1), /*max_retries=*/12, baseline, &w)) {
            Fail("fault sweep " + site + ": top-up traffic failed: " + w);
            sweep_ok = false;
            break;
          }
          ++sent;
        }
        ++extra;
        injected = InjectedCount(sock, site, &stats_ok);
      }
      if (!stats_ok) {
        Fail("fault sweep " + site + ": stats query failed after sweep");
        sweep_ok = false;
      } else if (injected == 0 && sweep_ok) {
        Fail("fault sweep " + site + ": no injections recorded after " +
             std::to_string(extra) + " top-up rounds");
        sweep_ok = false;
      }
      bool healthy = false;
      ControlJson(sock, serve::ControlOp::kHealth, &healthy);
      if (!healthy) {
        Fail("fault sweep " + site + ": health query failed after sweep");
        sweep_ok = false;
      }
      if (!StopDaemonClean(pid)) {
        Fail("fault sweep " + site + ": daemon did not shut down cleanly");
        sweep_ok = false;
      }
    }
    if (sweep_ok) {
      Note("fault sweep " + site + ": OK (" + std::to_string(sent) + " requests" +
           (reloads > 0 ? ", " + std::to_string(reloads) + " reload attempts" : "") +
           ")");
    }
  }
}

void ScenarioKillRestart(const ChaosConfig& cfg, const std::string& model_dir,
                         const std::map<std::string, std::string>& baseline) {
  std::string sock = cfg.workdir + "/kill.sock";
  std::string log = cfg.workdir + "/kill.log";
  pid_t pid = StartDaemon(cfg, sock, model_dir, "", log);
  if (pid < 0 || !WaitForSocket(sock, 15000)) {
    Fail("killrestart: daemon did not come up");
    return;
  }
  std::string why;
  if (!RunBatch(sock, MakeBatch(kBatch), 3, baseline, &why)) {
    Fail("killrestart: pre-kill traffic failed: " + why);
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  // Hard-killed daemon: the socket file may linger, connects must fail or
  // hang up, and a fresh daemon must recover the endpoint within bounds.
  pid = StartDaemon(cfg, sock, model_dir, "", log);
  if (pid < 0 || !WaitForSocket(sock, 15000)) {
    Fail("killrestart: daemon did not recover within 15s");
    return;
  }
  if (!RunBatch(sock, MakeBatch(kBatch), 3, baseline, &why)) {
    Fail("killrestart: post-restart traffic failed: " + why);
  }
  if (!StopDaemonClean(pid)) {
    Fail("killrestart: restarted daemon did not shut down cleanly");
  } else {
    Note("killrestart: OK");
  }
}

void ScenarioDropFrame(const ChaosConfig& cfg, const std::string& model_dir,
                       const std::map<std::string, std::string>& baseline) {
  std::string sock = cfg.workdir + "/drop.sock";
  pid_t pid = StartDaemon(cfg, sock, model_dir, "", cfg.workdir + "/drop.log");
  if (pid < 0 || !WaitForSocket(sock, 15000)) {
    Fail("dropframe: daemon did not come up");
    return;
  }
  // A frame header promising 1000 bytes, then only 10, then hang up.
  int fd;
  if (TryConnect(sock, &fd)) {
    unsigned char torn[14] = {0xE8, 0x03, 0x00, 0x00};  // u32 LE length = 1000
    std::memset(torn + 4, 0xAB, 10);
    (void)!::write(fd, torn, sizeof(torn));
    ::close(fd);
  }
  // Raw garbage that never forms a frame.
  if (TryConnect(sock, &fd)) {
    (void)!::write(fd, "\xff\xfe\xfd\xfc", 4);
    ::close(fd);
  }
  if (DaemonDied(pid)) {
    Fail("dropframe: daemon crashed on torn frames");
    return;
  }
  std::string why;
  if (!RunBatch(sock, MakeBatch(kBatch), 3, baseline, &why)) {
    Fail("dropframe: clean exchange after torn frames failed: " + why);
  }
  if (!StopDaemonClean(pid)) {
    Fail("dropframe: daemon did not shut down cleanly");
  } else {
    Note("dropframe: OK");
  }
}

void ScenarioReload(const ChaosConfig& cfg, const std::string& model_dir,
                    const std::map<std::string, std::string>& baseline) {
  std::string sock = cfg.workdir + "/reload.sock";
  pid_t pid = StartDaemon(cfg, sock, model_dir, "", cfg.workdir + "/reload.log");
  if (pid < 0 || !WaitForSocket(sock, 15000)) {
    Fail("reload: daemon did not come up");
    return;
  }
  bool all_ok = true;
  int rounds = std::max(4, cfg.iters / static_cast<int>(kBatch));
  uint64_t version_before = 0;
  {
    bool ok = false;
    version_before = JsonU64Field(ControlJson(sock, serve::ControlOp::kHealth, &ok),
                                  "artifact_version");
  }
  for (int r = 0; r < rounds; ++r) {
    // Alternate the two reload triggers while traffic is in flight.
    if (r % 2 == 0) {
      ::kill(pid, SIGHUP);
    } else {
      bool ok = false;
      ControlJson(sock, serve::ControlOp::kReload, &ok);
      if (!ok) {
        Fail("reload: control-plane reload rejected on a healthy bundle");
        all_ok = false;
      }
    }
    // No retries here: hot reload must not drop a single in-flight request.
    std::string why;
    if (!RunBatch(sock, MakeBatch(kBatch), /*max_retries=*/0, baseline, &why)) {
      Fail("reload: request dropped during hot reload: " + why);
      all_ok = false;
      break;
    }
  }
  bool ok = false;
  uint64_t version_after = JsonU64Field(
      ControlJson(sock, serve::ControlOp::kHealth, &ok), "artifact_version");
  if (!ok || version_after <= version_before) {
    Fail("reload: artifact_version did not advance (before " +
         std::to_string(version_before) + ", after " + std::to_string(version_after) +
         ")");
    all_ok = false;
  }
  if (!StopDaemonClean(pid)) {
    Fail("reload: daemon did not shut down cleanly");
    all_ok = false;
  }
  if (all_ok) {
    Note("reload: OK (artifact_version " + std::to_string(version_before) + " -> " +
         std::to_string(version_after) + ")");
  }
}

bool CopyFile(const std::string& from, const std::string& to) {
  std::FILE* in = std::fopen(from.c_str(), "rb");
  if (in == nullptr) {
    return false;
  }
  std::FILE* out = std::fopen(to.c_str(), "wb");
  if (out == nullptr) {
    std::fclose(in);
    return false;
  }
  char buf[1 << 16];
  size_t n;
  bool ok = true;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    ok = std::fwrite(buf, 1, n, out) == n && ok;
  }
  ok = std::ferror(in) == 0 && ok;
  std::fclose(in);
  ok = std::fclose(out) == 0 && ok;
  return ok;
}

void ScenarioCorruptReload(const ChaosConfig& cfg,
                           const std::map<std::string, std::string>& baseline) {
  // Private model dir so corrupting the bundle does not poison other
  // scenarios (the daemon reloads from its own --model-dir).
  std::string dir = cfg.workdir + "/corrupt_models";
  ::mkdir(dir.c_str(), 0755);
  std::string src = serve::BundlePath(cfg.model_dir);
  std::string dst = serve::BundlePath(dir);
  if (!CopyFile(src, dst)) {
    Fail("corruptreload: cannot copy bundle");
    return;
  }
  std::string sock = cfg.workdir + "/corrupt.sock";
  pid_t pid = StartDaemon(cfg, sock, dir, "", cfg.workdir + "/corrupt.log");
  if (pid < 0 || !WaitForSocket(sock, 15000)) {
    Fail("corruptreload: daemon did not come up");
    return;
  }
  bool all_ok = true;
  std::string why;
  if (!RunBatch(sock, MakeBatch(kBatch), 3, baseline, &why)) {
    Fail("corruptreload: pre-corruption traffic failed: " + why);
    all_ok = false;
  }
  // Flip one byte in the middle of the artifact payload: the CRC check must
  // reject the reload and the old model must keep serving.
  {
    std::FILE* f = std::fopen(dst.c_str(), "r+b");
    if (f == nullptr) {
      Fail("corruptreload: cannot open bundle for corruption");
      StopDaemonClean(pid);
      return;
    }
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fseek(f, size / 2, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, size / 2, SEEK_SET);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  bool ok = true;
  std::string err = ControlJson(sock, serve::ControlOp::kReload, &ok);
  if (ok) {
    Fail("corruptreload: reload of a corrupt bundle was accepted");
    all_ok = false;
  }
  uint64_t version = JsonU64Field(ControlJson(sock, serve::ControlOp::kHealth, &ok),
                                  "artifact_version");
  if (version != 1) {
    Fail("corruptreload: artifact_version changed after rejected reload");
    all_ok = false;
  }
  if (!RunBatch(sock, MakeBatch(kBatch), 3, baseline, &why)) {
    Fail("corruptreload: old model stopped serving correctly: " + why);
    all_ok = false;
  }
  // Restore the bundle: the next reload must succeed and bump the version.
  if (!CopyFile(src, dst)) {
    Fail("corruptreload: cannot restore bundle");
    all_ok = false;
  }
  err = ControlJson(sock, serve::ControlOp::kReload, &ok);
  if (!ok) {
    Fail("corruptreload: reload of the restored bundle rejected: " + err);
    all_ok = false;
  }
  version = JsonU64Field(ControlJson(sock, serve::ControlOp::kHealth, &ok),
                         "artifact_version");
  if (version != 2) {
    Fail("corruptreload: artifact_version is " + std::to_string(version) +
         " after restore, expected 2");
    all_ok = false;
  }
  if (!RunBatch(sock, MakeBatch(kBatch), 3, baseline, &why)) {
    Fail("corruptreload: post-restore traffic failed: " + why);
    all_ok = false;
  }
  if (!StopDaemonClean(pid)) {
    Fail("corruptreload: daemon did not shut down cleanly");
    all_ok = false;
  }
  if (all_ok) {
    Note("corruptreload: OK");
  }
}

// connfloods: a slowloris-style connection flood — dozens of clients that
// deliver a frame header plus half a payload and then stall half-open,
// pinning per-connection FrameReader state in the epoll loop — while the
// sock.accept fault site randomly drops incoming connections. Legitimate
// traffic threaded through the flood (with retries: an accept fault costs
// that connection) must keep answering byte-identically, and once the flood
// is released the daemon must return to clean service within one bounded
// retry batch.
void ScenarioConnFloods(const ChaosConfig& cfg, const std::string& model_dir,
                        const std::map<std::string, std::string>& baseline) {
  std::string sock = cfg.workdir + "/flood.sock";
  std::string spec = "sock.accept:0.05:" + std::to_string(cfg.seed + 101);
  pid_t pid =
      StartDaemon(cfg, sock, model_dir, spec, cfg.workdir + "/flood.log");
  if (pid < 0 || !WaitForSocket(sock, 15000)) {
    Fail("connfloods: daemon did not come up");
    return;
  }
  bool all_ok = true;

  // Mount the half-open flood. Writes can race an injected accept-drop
  // (EPIPE; SIGPIPE is ignored) — the fd still counts as flood pressure.
  constexpr size_t kFlood = 32;
  std::string teaser;
  serve::AppendFrame(&teaser, serve::EncodeRequest(MakeRequest(1, kElements[0])));
  teaser.resize(teaser.size() / 2);  // header promises more than ever arrives
  std::vector<int> floods;
  for (size_t i = 0; i < kFlood; ++i) {
    int fd;
    if (!TryConnect(sock, &fd)) {
      continue;
    }
    (void)!::write(fd, teaser.data(), teaser.size());
    floods.push_back(fd);
  }
  if (DaemonDied(pid)) {
    Fail("connfloods: daemon crashed under the half-open flood");
    return;
  }

  // Legitimate traffic through the flood: every answer byte-equal, retries
  // absorbing the accept faults.
  int sent = 0;
  std::string why;
  while (sent < cfg.iters) {
    size_t n = std::min<size_t>(kBatch, static_cast<size_t>(cfg.iters - sent));
    if (!RunBatch(sock, MakeBatch(n), /*max_retries=*/12, baseline, &why)) {
      Fail("connfloods: legit traffic failed mid-flood: " + why);
      all_ok = false;
      break;
    }
    sent += static_cast<int>(n);
  }

  // The transport stats see the stalled connections (an injected accept
  // fault drops ~5%, so a conservative floor).
  bool ok = false;
  std::string stats = ControlJson(sock, serve::ControlOp::kStats, &ok);
  uint64_t active = JsonU64Field(stats, "conn_active");
  if (!ok || active < kFlood / 2) {
    Fail("connfloods: transport stats report " + std::to_string(active) +
         " active connection(s) under a " + std::to_string(floods.size()) +
         "-connection flood");
    all_ok = false;
  }

  // Release the flood: bounded recovery back to clean service.
  for (int fd : floods) {
    ::close(fd);
  }
  if (DaemonDied(pid)) {
    Fail("connfloods: daemon crashed when the flood hung up");
    return;
  }
  if (!RunBatch(sock, MakeBatch(kBatch), /*max_retries=*/12, baseline, &why)) {
    Fail("connfloods: recovery after flood release failed: " + why);
    all_ok = false;
  }
  if (!StopDaemonClean(pid)) {
    Fail("connfloods: daemon did not shut down cleanly");
    all_ok = false;
  }
  if (all_ok) {
    Note("connfloods: OK (" + std::to_string(floods.size()) +
         " slowloris connection(s), " + std::to_string(sent) +
         " legit request(s))");
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: clara_chaos --serve=PATH --model-dir=DIR --workdir=DIR\n"
               "                   [--iters=N] [--seed=N]\n"
               "                   [--scenario=faults|killrestart|dropframe|reload|"
               "corruptreload|connfloods|all]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ChaosConfig cfg;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--serve=", 0) == 0) {
      cfg.serve_bin = a.substr(std::strlen("--serve="));
    } else if (a.rfind("--model-dir=", 0) == 0) {
      cfg.model_dir = a.substr(std::strlen("--model-dir="));
    } else if (a.rfind("--workdir=", 0) == 0) {
      cfg.workdir = a.substr(std::strlen("--workdir="));
    } else if (a.rfind("--iters=", 0) == 0) {
      cfg.iters = std::atoi(a.c_str() + std::strlen("--iters="));
    } else if (a.rfind("--seed=", 0) == 0) {
      cfg.seed = std::strtoull(a.c_str() + std::strlen("--seed="), nullptr, 10);
    } else if (a.rfind("--scenario=", 0) == 0) {
      cfg.scenario = a.substr(std::strlen("--scenario="));
    } else {
      return Usage();
    }
  }
  if (cfg.serve_bin.empty() || cfg.model_dir.empty() || cfg.workdir.empty() ||
      cfg.iters < 1) {
    return Usage();
  }
  // SIGPIPE from a daemon we just killed must not take the harness down.
  ::signal(SIGPIPE, SIG_IGN);

  std::map<std::string, std::string> baseline;
  if (!CaptureBaseline(cfg, cfg.model_dir, &baseline)) {
    return 1;
  }
  Note("baseline captured (" + std::to_string(baseline.size()) + " elements)");

  bool all = cfg.scenario == "all";
  if (all || cfg.scenario == "faults") {
    ScenarioFaults(cfg, cfg.model_dir, baseline);
  }
  if (all || cfg.scenario == "killrestart") {
    ScenarioKillRestart(cfg, cfg.model_dir, baseline);
  }
  if (all || cfg.scenario == "dropframe") {
    ScenarioDropFrame(cfg, cfg.model_dir, baseline);
  }
  if (all || cfg.scenario == "reload") {
    ScenarioReload(cfg, cfg.model_dir, baseline);
  }
  if (all || cfg.scenario == "corruptreload") {
    ScenarioCorruptReload(cfg, baseline);
  }
  if (all || cfg.scenario == "connfloods") {
    ScenarioConnFloods(cfg, cfg.model_dir, baseline);
  }

  if (g_failures > 0) {
    std::fprintf(stderr, "clara_chaos: %d failure(s)\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "clara_chaos: all scenarios passed\n");
  return 0;
}
