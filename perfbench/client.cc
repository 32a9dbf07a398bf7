// perfbench_client — the closed-loop client of the insight-serving benchmark.
//
//   perfbench_client e2e --workload=W --seed=N --seconds=S --bin=DIR
//                        --corpus=FILE --out=FILE
//     Sets up three times (clara_cli train with default options, clara_serve
//     --socket with default flags until it answers a health frame, the
//     workload's cache prewarm), then drives workload W against the last
//     daemon for the timed window, stops the daemon, and checks every answer
//     against an in-process ServeEngine on the same bundle. Writes one line
//     per request plus "#" summary lines to --out; perfbench/run.py turns
//     them into metrics. Exits 1 on any wrong answer.
//
//   perfbench_client traced ...   the outside-in per-layer run (traced.cc)
//
//   perfbench_client gen-corpus --seed=N
//     Prints the inline-NF corpus (perfbench/corpus/inline_nfs.txt).
//
// Paths are used as given; run.py starts the client inside its work
// directory so the daemon's socket path stays short. The client process
// drives its insight connections (at most 4) from one thread; reload_churn's
// control connection has a second.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>

#include "perfbench/workloads.h"
#include "src/core/predictor.h"
#include "src/elements/elements.h"
#include "src/lang/interp.h"
#include "src/lang/parse.h"
#include "src/lang/printer.h"
#include "src/serve/artifact.h"
#include "src/serve/server.h"
#include "src/synth/synth.h"
#include "src/util/parallel.h"

namespace perfbench {

int RunTraced(const std::map<std::string, std::string>& args);

namespace {

using clara::serve::ControlOp;
using clara::serve::ErrorCode;
using clara::serve::InsightResponse;

constexpr int kSetups = 3;
// reload_churn reloads at the start of the window and then every period.
constexpr double kReloadPeriodS = 5.0;
const char kModelDir[] = "model";
const char kSocket[] = "serve.sock";

struct Sample {
  char kind = 'I';  // 'I' insight request, 'R' reload control frame
  uint32_t conn = 0;
  uint32_t cls = 0;
  double t_s = 0;  // send time, seconds since the window opened
  double rtt_us = 0;
  Outcome outcome = Outcome::kOk;
  uint8_t code = 0;  // ErrorCode of an insight answer; 0/1 ok flag of a reload
  bool hit = false;
  // An OK answer's body equals the prewarm answer for its key; an error is
  // a transient one (retryable), which counts as failed, not as wrong.
  bool body_ok = true;
};

// The answer to one request as the benchmark keeps it for checking.
struct Answer {
  Outcome outcome = Outcome::kUnanswered;
  ErrorCode code = ErrorCode::kOk;
  std::string body;  // EncodeResponseBody of the parsed response
  std::string nf_name;
  double total_compute = 0;
  bool hit = false;
};

Answer Ask(Connection& conn, const clara::serve::InsightRequest& req, double* rtt_us) {
  std::string payload = clara::serve::EncodeRequest(req);
  std::string reply;
  Clock::time_point t0 = Clock::now();
  Answer a;
  a.outcome = conn.Exchange(payload, &reply);
  *rtt_us = MicrosBetween(t0, Clock::now());
  if (a.outcome != Outcome::kOk) {
    return a;
  }
  InsightResponse resp;
  std::string error;
  if (!clara::serve::ParseResponse(reply, &resp, &error) || resp.id != req.id) {
    a.outcome = Outcome::kTorn;
    return a;
  }
  a.code = resp.error;
  a.hit = resp.breakdown.valid && resp.breakdown.cache_hit;
  a.nf_name = resp.nf_name;
  a.total_compute = resp.total_compute;
  a.body = clara::serve::EncodeResponseBody(resp);
  return a;
}

struct Checker {
  size_t checked = 0;
  size_t mismatches = 0;
  std::string first;

  void Fail(const std::string& what) {
    ++mismatches;
    if (first.empty()) {
      first = what;
    }
  }
};

class E2eRun {
 public:
  E2eRun(Workload w, uint64_t seed, double seconds, std::string bin,
         std::vector<CorpusNf> corpus)
      : workload_(w), seed_(seed), seconds_(seconds), bin_(std::move(bin)),
        corpus_(std::move(corpus)) {}

  int Run(const std::string& out_path);

 private:
  bool Setup(int rep);
  bool Prewarm();
  void DriveColdMiss();
  void DriveWorkingSet(size_t insight_conns, bool reloads);
  void CheckAnswers();
  void OracleRows();

  Workload workload_;
  uint64_t seed_;
  double seconds_;
  std::string bin_;
  std::vector<CorpusNf> corpus_;

  std::vector<double> setup_s_;
  std::string bundle_bytes_;
  pid_t daemon_ = -1;
  std::vector<BenchRequest> requests_;     // cold_miss sequence or working set
  std::vector<Answer> prewarm_;            // working set answers, by class
  std::vector<Answer> cold_answers_;       // cold_miss answers, by position
  std::vector<Sample> samples_;
  double window_s_ = 0;
  uint64_t peak_rss_kb_ = 0;
  Checker check_;
  std::vector<std::string> summary_;
};

bool E2eRun::Setup(int rep) {
  Clock::time_point t0 = Clock::now();
  pid_t train = Spawn({bin_ + "/clara_cli", "train", std::string("--model-dir=") + kModelDir},
                      "train.log");
  if (train < 0 || WaitExit(train, 150) != 0) {
    std::fprintf(stderr, "perfbench: clara_cli train failed (see train.log)\n");
    return false;
  }
  daemon_ = Spawn({bin_ + "/clara_serve", std::string("--model-dir=") + kModelDir,
                   std::string("--socket=") + kSocket},
                  "serve.log");
  if (daemon_ < 0 || !WaitHealthy(kSocket, 60)) {
    std::fprintf(stderr, "perfbench: clara_serve did not answer health (see serve.log)\n");
    return false;
  }
  if (workload_ != Workload::kColdMiss && !Prewarm()) {
    return false;
  }
  setup_s_.push_back(SecondsSince(t0));
  // Training is deterministic: every set-up must serve the same bundle.
  std::string bytes = ReadFile(clara::serve::BundlePath(kModelDir));
  if (rep == 0) {
    bundle_bytes_ = bytes;
  } else if (bytes != bundle_bytes_) {
    check_.Fail("set-up " + std::to_string(rep) + " trained a different bundle");
  }
  return true;
}

bool E2eRun::Prewarm() {
  Connection conn;
  if (!conn.Open(kSocket)) {
    return false;
  }
  prewarm_.assign(requests_.size(), Answer{});
  for (const BenchRequest& r : requests_) {
    double rtt_us = 0;
    Answer a = Ask(conn, r.req, &rtt_us);
    if (a.outcome != Outcome::kOk || a.code != ErrorCode::kOk) {
      std::fprintf(stderr, "perfbench: prewarm of %s failed (%s, code %d)\n",
                   ClassLabel(r).c_str(), OutcomeName(a.outcome), static_cast<int>(a.code));
      return false;
    }
    prewarm_[r.cls] = std::move(a);
  }
  return true;
}

void E2eRun::DriveColdMiss() {
  Connection conn;
  conn.Open(kSocket);
  cold_answers_.resize(requests_.size());
  Clock::time_point start = Clock::now();
  for (size_t i = 0; i < requests_.size(); ++i) {
    const BenchRequest& r = requests_[i];
    if (!conn.is_open()) {
      conn.Open(kSocket);
    }
    Sample s;
    s.cls = static_cast<uint32_t>(r.cls);
    s.t_s = SecondsSince(start);
    Answer a = Ask(conn, r.req, &s.rtt_us);
    s.outcome = a.outcome;
    s.code = static_cast<uint8_t>(a.code);
    s.hit = a.hit;
    samples_.push_back(s);
    cold_answers_[i] = std::move(a);
  }
  window_s_ = SecondsSince(start);
}

// Drives the working-set workloads: `insight_conns` closed-loop connections
// from this thread, each walking its own seeded permutation of the working
// set, plus (reload_churn) a control connection on a second thread that
// sends a reload at the start of the window and every kReloadPeriodS.
void E2eRun::DriveWorkingSet(size_t insight_conns, bool reloads) {
  auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds_));
  auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kReloadPeriodS));
  Clock::time_point start = Clock::now();
  Clock::time_point end = start + window;
  std::vector<Sample> reload_samples;
  std::thread reloader;
  if (reloads) {
    reloader = std::thread([&] {
      Connection conn;
      for (Clock::time_point at = start; at < end; at += period) {
        std::this_thread::sleep_until(at);
        Sample s;
        s.kind = 'R';
        s.conn = static_cast<uint32_t>(insight_conns);
        s.t_s = SecondsSince(start);
        Clock::time_point t0 = Clock::now();
        bool ok = (conn.is_open() || conn.Open(kSocket)) &&
                  Control(conn, ControlOp::kReload, nullptr);
        s.rtt_us = MicrosBetween(t0, Clock::now());
        s.code = ok ? 1 : 0;
        reload_samples.push_back(s);
      }
    });
  }
  struct Lane {
    std::vector<size_t> order;  // the permutation walked
    uint64_t sent = 0;
    uint64_t id = 0;  // of the request in flight
    const BenchRequest* request = nullptr;
    Sample sample;
  };
  std::vector<Lane> lanes(insight_conns);
  for (size_t c = 0; c < insight_conns; ++c) {
    lanes[c].order = Permutation(requests_.size(), SplitMix64(seed_) + c);
  }
  auto next = [&](size_t c, std::string* payload) {
    if (Clock::now() >= end) {
      return false;
    }
    Lane& l = lanes[c];
    l.request = &requests_[l.order[l.sent % l.order.size()]];
    clara::serve::InsightRequest req = l.request->req;
    l.id = req.id = (static_cast<uint64_t>(c + 1) << 40) | l.sent;
    ++l.sent;
    l.sample = Sample{};
    l.sample.conn = static_cast<uint32_t>(c);
    l.sample.cls = static_cast<uint32_t>(l.request->cls);
    l.sample.t_s = SecondsSince(start);
    *payload = clara::serve::EncodeRequest(req);
    return true;
  };
  auto done = [&](size_t c, Outcome o, const std::string& reply, double rtt_us) {
    Lane& l = lanes[c];
    Sample s = l.sample;
    s.rtt_us = rtt_us;
    s.outcome = o;
    InsightResponse resp;
    std::string error;
    if (o == Outcome::kOk &&
        (!clara::serve::ParseResponse(reply, &resp, &error) || resp.id != l.id)) {
      s.outcome = Outcome::kTorn;
    }
    if (s.outcome == Outcome::kOk) {
      s.code = static_cast<uint8_t>(resp.error);
      s.hit = resp.breakdown.valid && resp.breakdown.cache_hit;
      s.body_ok = resp.error == ErrorCode::kOk
                      ? clara::serve::EncodeResponseBody(resp) == prewarm_[l.request->cls].body
                      : clara::serve::IsRetryable(resp.error);
    }
    samples_.push_back(s);
  };
  DriveLanes(kSocket, insight_conns, next, done);
  if (reloader.joinable()) {
    reloader.join();
  }
  window_s_ = SecondsSince(start);
  samples_.insert(samples_.end(), reload_samples.begin(), reload_samples.end());
}

// The reference is an in-process ServeEngine on the daemon's bundle, run
// after the timed window with one thread.
void E2eRun::CheckAnswers() {
  clara::TrainedBundle bundle;
  std::string error;
  if (!clara::serve::LoadBundleFile(clara::serve::BundlePath(kModelDir), &bundle, &error)) {
    check_.Fail("reference: " + error);
    return;
  }
  clara::serve::ServeEngine ref(std::move(bundle));
  auto compare = [&](const BenchRequest& r, const Answer& got, const std::string& where) {
    InsightResponse want = ref.Handle(r.req);
    ++check_.checked;
    if (got.outcome != Outcome::kOk) {
      check_.Fail(where + " " + ClassLabel(r) + ": " + OutcomeName(got.outcome));
    } else if (got.code != want.error) {
      check_.Fail(where + " " + ClassLabel(r) + ": error " +
                  clara::serve::ErrorCodeName(got.code) + ", reference " +
                  clara::serve::ErrorCodeName(want.error));
    } else if (got.body != clara::serve::EncodeResponseBody(want)) {
      check_.Fail(where + " " + ClassLabel(r) + ": body differs from the reference");
    }
    return want.error;
  };
  if (workload_ == Workload::kColdMiss) {
    // Every request of a class must be answered with the class's error code;
    // the first request of each class is byte-compared.
    std::map<size_t, ErrorCode> class_code;
    for (size_t i = 0; i < requests_.size(); ++i) {
      const BenchRequest& r = requests_[i];
      const Answer& got = cold_answers_[i];
      auto it = class_code.find(r.cls);
      if (it == class_code.end()) {
        class_code[r.cls] = compare(r, got, "request " + std::to_string(r.req.id));
      } else if (got.outcome == Outcome::kOk && !clara::serve::IsRetryable(got.code) &&
                 got.code != it->second) {
        check_.Fail("request " + std::to_string(r.req.id) + " " + ClassLabel(r) +
                    ": error " + clara::serve::ErrorCodeName(got.code) + ", reference " +
                    clara::serve::ErrorCodeName(it->second));
      }
    }
    return;
  }
  for (const BenchRequest& r : requests_) {
    compare(r, prewarm_[r.cls], "prewarm");
  }
  for (const Sample& s : samples_) {
    if (s.kind == 'I' && !s.body_ok) {
      check_.Fail("request on connection " + std::to_string(s.conn) + " " +
                  ClassLabel(requests_[s.cls]) + ": answer differs from the prewarm answer");
      break;
    }
  }
}

// predict_wmape inputs: for each distinct NF answered, the predicted
// total_compute and the oracle (CompileGroundTruth summed over blocks).
void E2eRun::OracleRows() {
  std::map<std::string, std::pair<const BenchRequest*, double>> seen;
  auto note = [&](const BenchRequest& r, const Answer& a) {
    if (a.outcome == Outcome::kOk && a.code == ErrorCode::kOk) {
      seen.emplace(a.nf_name, std::make_pair(&r, a.total_compute));
    }
  };
  if (workload_ == Workload::kColdMiss) {
    for (size_t i = 0; i < requests_.size(); ++i) {
      note(requests_[i], cold_answers_[i]);
    }
  } else {
    for (const BenchRequest& r : requests_) {
      note(r, prewarm_[r.cls]);
    }
  }
  for (const auto& [name, entry] : seen) {
    const BenchRequest& r = *entry.first;
    clara::Program program;
    if (!r.req.source.empty()) {
      clara::ParseResult parsed = clara::ParseProgram(r.req.source);
      program = std::move(parsed.program);
    } else {
      program = clara::MakeElementByName(r.req.element);
    }
    clara::NfInstance nf(std::move(program));
    if (!nf.ok()) {
      continue;
    }
    double oracle = 0;
    for (const clara::BlockTruth& b : clara::CompileGroundTruth(nf.module())) {
      oracle += b.compute;
    }
    char line[256];
    std::snprintf(line, sizeof(line), "oracle %s %.17g %.17g", name.c_str(), entry.second,
                  oracle);
    summary_.push_back(line);
  }
}

int E2eRun::Run(const std::string& out_path) {
  if (workload_ == Workload::kColdMiss) {
    requests_ = ColdMissSequence(seed_, ColdMissCopies(seconds_), corpus_);
  } else {
    requests_ = WorkingSet();
  }
  for (int rep = 0; rep < kSetups; ++rep) {
    if (!Setup(rep)) {
      if (daemon_ > 0) {
        StopProcess(daemon_, 30);
      }
      return 2;
    }
    if (rep + 1 < kSetups) {
      int rc = StopProcess(daemon_, 60);
      daemon_ = -1;
      if (rc != 0) {
        check_.Fail("daemon of set-up " + std::to_string(rep) + " exited with " +
                    std::to_string(rc));
      }
    }
  }
  switch (workload_) {
    case Workload::kColdMiss:
      DriveColdMiss();
      break;
    case Workload::kHitPoll:
      DriveWorkingSet(4, false);
      break;
    case Workload::kReloadChurn:
      DriveWorkingSet(3, true);
      break;
  }
  peak_rss_kb_ = PeakRssKb(daemon_);
  int rc = StopProcess(daemon_, 60);
  if (rc != 0) {
    check_.Fail("daemon exited with " + std::to_string(rc));
  }
  clara::SetNumThreads(1);
  CheckAnswers();
  OracleRows();

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
    return 2;
  }
  for (double s : setup_s_) {
    std::fprintf(f, "# setup_s %.9f\n", s);
  }
  std::fprintf(f, "# window_s %.9f\n", window_s_);
  std::fprintf(f, "# peak_rss_kb %llu\n", static_cast<unsigned long long>(peak_rss_kb_));
  for (const std::string& line : summary_) {
    std::fprintf(f, "# %s\n", line.c_str());
  }
  std::fprintf(f, "# checked %zu\n# mismatches %zu\n", check_.checked, check_.mismatches);
  if (!check_.first.empty()) {
    std::fprintf(f, "# first_mismatch %s\n", check_.first.c_str());
  }
  for (const Sample& s : samples_) {
    std::fprintf(f, "%c %u %u %.6f %.3f %s %u %d\n", s.kind, s.conn, s.cls, s.t_s,
                 s.rtt_us, OutcomeName(s.outcome), s.code, s.hit ? 1 : 0);
  }
  std::fclose(f);
  if (check_.mismatches > 0) {
    std::fprintf(stderr, "perfbench: %zu wrong answer(s); first: %s\n", check_.mismatches,
                 check_.first.c_str());
    return 1;
  }
  return 0;
}

int GenCorpus(uint64_t seed) {
  std::vector<clara::Program> programs =
      clara::SynthesizeCorpus(kRegistryNfs, clara::SynthOptions{}, seed);
  std::vector<CorpusNf> corpus;
  for (const clara::Program& p : programs) {
    corpus.push_back(CorpusNf{p.name, clara::ToSource(p)});
  }
  std::fputs(FormatCorpus(corpus, seed).c_str(), stdout);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_client e2e|traced --workload=W --seed=N --seconds=S\n"
               "                        --bin=DIR --corpus=FILE --out=FILE\n"
               "       perfbench_client gen-corpus --seed=N\n");
  return 2;
}

std::map<std::string, std::string> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    size_t eq = a.find('=');
    if (a.rfind("--", 0) == 0 && eq != std::string::npos) {
      args[a.substr(2, eq - 2)] = a.substr(eq + 1);
    } else {
      args["?"] = a;
    }
  }
  return args;
}

}  // namespace

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  std::string cmd = argv[1];
  std::map<std::string, std::string> args = ParseArgs(argc, argv);
  if (args.count("?") != 0) {
    return Usage();
  }
  uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  if (cmd == "gen-corpus") {
    return GenCorpus(seed);
  }
  if (cmd == "traced") {
    return RunTraced(args);
  }
  Workload w;
  if (cmd != "e2e" || !ParseWorkload(args["workload"], &w) || args["bin"].empty() ||
      args["out"].empty()) {
    return Usage();
  }
  std::string error;
  std::vector<CorpusNf> corpus = LoadCorpus(args["corpus"], &error);
  if (corpus.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  double seconds = std::strtod(args["seconds"].c_str(), nullptr);
  if (seconds <= 0) {
    return Usage();
  }
  E2eRun run(w, seed, seconds, args["bin"], std::move(corpus));
  return run.Run(args["out"]);
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
