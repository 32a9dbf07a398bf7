// The traced run: per-layer numbers, timed from outside each layer.
//
//   perfbench_client traced --workload=W --seed=N --seconds=S --bin=DIR
//                           --corpus=FILE --out=FILE
//
// 1. Trains the bundle in-process, one trainer at a time in
//    ClaraAnalyzer::Train order, and checks that it serializes to the bytes
//    `clara_cli train` wrote.
// 2. Replays the workload's request sequence by calling each layer's public
//    functions in ServeEngine / ClaraAnalyzer::Analyze order, one span per
//    call (name, start, end, parent, request id), kept in memory and written
//    at the end as Chrome-trace JSON (traced.trace.json) via obs::TraceSink.
//    The same replay runs once more without spans for the tracing overhead.
// 3. Checks every decomposed answer byte-equal to an in-process ServeEngine.
// 4. Replays the workload over the socket against clara_serve for the
//    response latency breakdowns and the stats frame.
//
// Writes to --out: "metric <name> <value> <unit> <n>" lines for counts and
// ratios; "samples <name> <unit> <stats> <values...>" lines with the raw
// per-call durations, from which perfbench/stats.py computes each listed
// statistic (p50, p99, median); "attempted <n> <failed>"; and
// "mismatch <text>" on the first wrong answer.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>

#include "perfbench/workloads.h"
#include "src/core/analyzer.h"
#include "src/core/coalescing.h"
#include "src/core/placement.h"
#include "src/elements/elements.h"
#include "src/lang/check.h"
#include "src/lang/interp.h"
#include "src/lang/parse.h"
#include "src/lang/printer.h"
#include "src/nic/backend.h"
#include "src/nic/demand.h"
#include "src/obs/trace.h"
#include "src/serve/artifact.h"
#include "src/serve/server.h"
#include "src/synth/algorithm_corpus.h"
#include "src/synth/synth.h"
#include "src/util/binio.h"
#include "src/util/parallel.h"
#include "src/workload/workload.h"

namespace perfbench {
namespace {

using clara::serve::ErrorCode;
using clara::serve::InsightRequest;
using clara::serve::InsightResponse;

const char kModelDir[] = "model";
const char kSocket[] = "traced.sock";
constexpr size_t kHitRounds = 100;     // hit_poll: rounds over the working set
constexpr size_t kChurnCycles = 3;     // reload_churn: reloads replayed
constexpr size_t kChurnRounds = 30;    // reload_churn: rounds per cycle
constexpr int kProbeRepeats = 5;       // reload-cost and parse probe repetitions

// ---- spans ----

struct Span {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
  int parent;  // index into the span list, -1 for a request root
  uint64_t request;
};

// Records spans when enabled; otherwise every call is a no-op, which gives
// the untraced replay for trace.overhead.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}

  int Begin(const char* name, int parent, uint64_t request) {
    if (!on_) {
      return -1;
    }
    spans_.push_back(Span{name, Clock::now(), {}, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    if (id >= 0) {
      spans_[id].end = Clock::now();
    }
  }
  // Request ids are known only once the payload is decoded.
  void Tag(int id, uint64_t request) {
    if (id >= 0) {
      spans_[id].request = request;
    }
  }
  bool on() const { return on_; }
  const std::vector<Span>& all() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

// Times one layer call: a span plus a duration sample under the same name.
class Layer {
 public:
  Layer(Spans& spans, std::map<std::string, std::vector<double>>& samples, const char* name,
        int parent, uint64_t request)
      : spans_(spans), samples_(samples), name_(name),
        start_(spans.on() ? Clock::now() : Clock::time_point()),
        id_(spans.Begin(name, parent, request)) {}
  ~Layer() {
    if (spans_.on()) {
      spans_.End(id_);
      samples_[name_].push_back(MicrosBetween(start_, Clock::now()));
    }
  }
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;
  int id() const { return id_; }

 private:
  Spans& spans_;
  std::map<std::string, std::vector<double>>& samples_;
  const char* name_;
  Clock::time_point start_;
  int id_;
};

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) {
    s += x;
  }
  return s;
}

class Output {
 public:
  void Metric(const std::string& name, double value, const char* unit, size_t n) {
    char line[256];
    std::snprintf(line, sizeof(line), "metric %s %.9g %s %zu\n", name.c_str(), value, unit,
                  n);
    text_ += line;
  }
  // `stats` is a comma-separated list of p50, p99 and median.
  void Samples(const std::string& name, const char* unit, const char* stats,
               const std::vector<double>& v) {
    text_ += "samples " + name + " " + unit + " " + stats;
    char value[32];
    for (double x : v) {
      std::snprintf(value, sizeof(value), " %.9g", x);
      text_ += value;
    }
    text_ += "\n";
  }
  void Line(const std::string& s) { text_ += s + "\n"; }
  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

// ---- the decomposed engine ----

clara::serve::ServeOptions EngineOptions() { return clara::serve::ServeOptions{}; }

clara::AnalyzerOptions EngineAnalyzerOptions() {
  // What ServeEngine builds from default ServeOptions.
  clara::AnalyzerOptions a;
  a.nic = EngineOptions().nic;
  a.profile_packets = EngineOptions().profile_packets;
  return a;
}

// Per-request counts of the decomposed replay.
struct Counts {
  size_t misses = 0;
  size_t packets = 0;
  size_t blocks = 0;
  double ilp_nodes = 0;
};

// Answers requests the way ServeEngine::ProcessBatch + ClaraAnalyzer::Analyze
// do for a batch of one, one layer call at a time.
class Decomposed {
 public:
  Decomposed(const clara::TrainedBundle& bundle, bool traced)
      : opts_(EngineAnalyzerOptions()), analyzer_(opts_, bundle), spans_(traced) {
    analyzer_.SetInferBackend(EngineOptions().infer_backend);
  }

  // Returns the encoded response payload.
  std::string Handle(const std::string& payload);
  void ClearCache() { cache_.clear(); }

  Spans& spans() { return spans_; }
  std::map<std::string, std::vector<double>>& samples() { return samples_; }
  const Counts& counts() const { return counts_; }
  std::vector<double>& request_us() { return request_us_; }

 private:
  InsightResponse Answer(const InsightRequest& req, int root);
  InsightResponse Miss(clara::Program program, const InsightRequest& req, int root);

  clara::AnalyzerOptions opts_;
  clara::ClaraAnalyzer analyzer_;
  Spans spans_;
  std::map<std::string, std::vector<double>> samples_;
  std::vector<double> request_us_;
  std::unordered_map<std::string, std::string> cache_;  // key -> body
  Counts counts_;
};

InsightResponse ErrorAnswer(uint64_t id, ErrorCode code, std::string message) {
  InsightResponse resp;
  resp.id = id;
  resp.error = code;
  resp.error_message = std::move(message);
  return resp;
}

std::string Decomposed::Handle(const std::string& payload) {
  Clock::time_point t0 = Clock::now();
  InsightRequest req;
  std::string error;
  int root = spans_.Begin("request", -1, 0);
  bool ok;
  {
    Layer l(spans_, samples_, "proto.decode", root, 0);
    ok = clara::serve::ParseRequest(payload, &req, &error);
  }
  InsightResponse resp = ok ? Answer(req, root)
                            : ErrorAnswer(0, ErrorCode::kBadRequest, error);
  std::string out;
  {
    Layer l(spans_, samples_, "proto.encode", root, req.id);
    out = clara::serve::EncodeResponse(resp);
  }
  spans_.End(root);
  spans_.Tag(root, req.id);
  if (spans_.on()) {
    request_us_.push_back(MicrosBetween(t0, Clock::now()));
  }
  return out;
}

InsightResponse Decomposed::Answer(const InsightRequest& req, int root) {
  uint64_t id = req.id;
  clara::Program program;
  std::string key;
  {
    Layer key_layer(spans_, samples_, "serve.cache_key", root, id);
    {
      Layer l(spans_, samples_, "serve.resolve", key_layer.id(), id);
      if (!req.source.empty()) {
        clara::ParseResult parsed;
        {
          Layer p(spans_, samples_, "lang.parse", l.id(), id);
          parsed = clara::ParseProgram(req.source);
        }
        if (!parsed.ok) {
          return ErrorAnswer(id, ErrorCode::kParseError, parsed.error);
        }
        clara::CheckResult check;
        {
          Layer c(spans_, samples_, "lang.check", l.id(), id);
          check = clara::CheckProgram(parsed.program);
        }
        if (!check.ok) {
          std::string msg = "program failed type check:";
          for (const auto& e : check.errors) {
            msg += " " + e + ";";
          }
          return ErrorAnswer(id, ErrorCode::kCheckFailed, msg);
        }
        program = std::move(parsed.program);
      } else {
        const clara::ElementInfo* info = nullptr;
        for (const auto& e : clara::ElementRegistry()) {
          if (e.name == req.element) {
            info = &e;
            break;
          }
        }
        if (info == nullptr) {
          return ErrorAnswer(id, ErrorCode::kUnknownElement,
                             "element '" + req.element + "' not in registry");
        }
        Layer m(spans_, samples_, "elements.make", l.id(), id);
        program = info->make();
      }
    }
    std::string source;
    {
      Layer l(spans_, samples_, "lang.print", key_layer.id(), id);
      source = clara::ToSource(program);
    }
    Layer l(spans_, samples_, "serve.hash", key_layer.id(), id);
    uint64_t h[2] = {clara::Fnv1a64(source), clara::serve::HashWorkload(req.workload)};
    key.assign(reinterpret_cast<const char*>(h), sizeof(h));
  }
  auto hit = cache_.find(key);
  if (hit != cache_.end()) {
    Layer l(spans_, samples_, "serve.replay", root, id);
    std::string payload = clara::serve::EncodeResponseWithBody(id, hit->second);
    InsightResponse resp;
    std::string error;
    if (!clara::serve::ParseResponse(payload, &resp, &error)) {
      return ErrorAnswer(id, ErrorCode::kInternal, "cache decode: " + error);
    }
    return resp;
  }
  ++counts_.misses;
  InsightResponse resp = Miss(std::move(program), req, root);
  if (resp.error == ErrorCode::kOk) {
    Layer l(spans_, samples_, "serve.store", root, id);
    cache_[key] = clara::serve::EncodeResponseBody(resp);
  }
  return resp;
}

InsightResponse Decomposed::Miss(clara::Program program, const InsightRequest& req,
                                 int root) {
  uint64_t id = req.id;
  const clara::NicConfig& nic_cfg = opts_.nic;
  std::unique_ptr<clara::NfInstance> lowered;
  {
    Layer l(spans_, samples_, "lang.lower", root, id);
    lowered = std::make_unique<clara::NfInstance>(clara::CloneProgram(program));
  }
  if (!lowered->ok()) {
    return ErrorAnswer(id, ErrorCode::kCheckFailed, "lowering failed: " + lowered->error());
  }
  clara::OffloadingInsights out;
  {
    Layer l(spans_, samples_, "core.predict", root, id);
    out.prediction = analyzer_.predictor().PredictNf(lowered->module());
  }
  counts_.blocks += out.prediction.blocks.size();
  out.nf_name = program.name;
  std::unique_ptr<clara::NfInstance> nf;
  {
    Layer l(spans_, samples_, "lang.lower", root, id);
    nf = std::make_unique<clara::NfInstance>(std::move(program));
  }
  clara::Trace trace;
  {
    Layer l(spans_, samples_, "workload.gentrace", root, id);
    trace = clara::GenerateTrace(req.workload, opts_.profile_packets);
  }
  counts_.packets += trace.packets.size();
  {
    Layer l(spans_, samples_, "lang.interp", root, id);
    for (auto& pkt : trace.packets) {
      nf->Process(pkt);
    }
  }
  const clara::Module& m = nf->module();
  {
    Layer l(spans_, samples_, "core.classify", root, id);
    out.accelerator = analyzer_.algo_id().Classify(m);
  }
  clara::NicProgram nic;
  {
    Layer l(spans_, samples_, "nic.compile", root, id);
    nic = clara::CompileToNic(m, opts_.predictor.backend);
  }
  clara::NfDemand naive;
  {
    Layer l(spans_, samples_, "nic.demand", root, id);
    naive = clara::BuildDemand(m, nic, nf->profile(), req.workload, nic_cfg);
  }
  {
    Layer l(spans_, samples_, "core.scaleout", root, id);
    out.suggested_cores = analyzer_.scaleout().trained()
                              ? analyzer_.scaleout().SuggestCores(naive)
                              : analyzer_.perf_model().OptimalCores(naive);
  }
  {
    Layer l(spans_, samples_, "core.placement", root, id);
    out.placement = clara::PlaceState(m, nf->profile(), req.workload, nic_cfg);
  }
  counts_.ilp_nodes += static_cast<double>(out.placement.ilp_nodes);
  {
    Layer l(spans_, samples_, "core.coalescing", root, id);
    out.coalescing = clara::SuggestCoalescing(m, nf->profile());
  }
  {
    Layer l(spans_, samples_, "nic.evaluate", root, id);
    clara::DemandOptions tuned_opts;
    tuned_opts.placement = out.placement.placement;
    tuned_opts.coalescing = out.coalescing.effects;
    clara::NfDemand tuned =
        clara::BuildDemand(m, nic, nf->profile(), req.workload, nic_cfg, tuned_opts);
    out.naive_perf = analyzer_.perf_model().Evaluate(naive, out.suggested_cores);
    out.tuned_perf = analyzer_.perf_model().Evaluate(tuned, out.suggested_cores);
  }
  Layer l(spans_, samples_, "core.render", root, id);
  InsightResponse resp;
  resp.id = id;
  resp.nf_name = out.nf_name;
  resp.accelerator = clara::AccelClassName(out.accelerator);
  resp.suggested_cores = out.suggested_cores;
  resp.total_compute = out.prediction.total_compute;
  resp.total_mem_state = out.prediction.total_mem_state;
  resp.naive_mpps = out.naive_perf.throughput_mpps;
  resp.naive_us = out.naive_perf.latency_us;
  resp.tuned_mpps = out.tuned_perf.throughput_mpps;
  resp.tuned_us = out.tuned_perf.latency_us;
  resp.rendered = out.ToString(nic_cfg);
  return resp;
}

// ---- the replayed sequence ----

// One step of a replay: an insight request, or (reload_churn) a reload.
// Steps of phase 0 (cold_miss, and the prewarm of the other two) run on one
// connection; later phases are spread over the workload's connections.
struct Step {
  bool reload = false;
  BenchRequest request;
  size_t phase = 0;
};

// The traced replay's request sequence for a workload: cold_miss's full
// sequence; for the other two the prewarm followed by rounds over the
// working set in connection 0's order, with reloads between rounds for
// reload_churn.
std::vector<Step> Sequence(Workload w, uint64_t seed, double seconds,
                           const std::vector<CorpusNf>& corpus) {
  std::vector<Step> steps;
  if (w == Workload::kColdMiss) {
    for (BenchRequest& r : ColdMissSequence(seed, ColdMissCopies(seconds), corpus)) {
      steps.push_back(Step{false, std::move(r), 0});
    }
    return steps;
  }
  std::vector<BenchRequest> set = WorkingSet();
  for (const BenchRequest& r : set) {
    steps.push_back(Step{false, r, 0});
  }
  std::vector<size_t> order = Permutation(set.size(), SplitMix64(seed));
  size_t cycles = w == Workload::kReloadChurn ? kChurnCycles : 1;
  size_t rounds = w == Workload::kReloadChurn ? kChurnRounds : kHitRounds;
  uint64_t id = 1000;
  for (size_t c = 0; c < cycles; ++c) {
    if (w == Workload::kReloadChurn) {
      steps.push_back(Step{true, {}, c + 1});
    }
    for (size_t round = 0; round < rounds; ++round) {
      for (size_t i : order) {
        Step s{false, set[i], c + 1};
        s.request.req.id = ++id;
        steps.push_back(std::move(s));
      }
    }
  }
  return steps;
}

// Decomposed replay of `steps`; returns the response payloads (empty
// strings at reload steps) and the wall time.
std::vector<std::string> Replay(Decomposed& d, const std::vector<Step>& steps,
                                double* wall_s) {
  std::vector<std::string> out;
  out.reserve(steps.size());
  Clock::time_point t0 = Clock::now();
  for (const Step& s : steps) {
    if (s.reload) {
      d.ClearCache();
      out.emplace_back();
      continue;
    }
    out.push_back(d.Handle(clara::serve::EncodeRequest(s.request.req)));
  }
  *wall_s = SecondsSince(t0);
  return out;
}

// Self time per layer name: span duration minus what its children cover.
std::map<std::string, double> SelfTimesUs(const std::vector<Span>& spans) {
  std::vector<double> child_us(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_us[s.parent] += MicrosBetween(s.start, s.end);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    self[spans[i].name] += MicrosBetween(spans[i].start, spans[i].end) - child_us[i];
  }
  return self;
}

bool WriteChromeTrace(const std::vector<Span>& spans, Clock::time_point epoch,
                      const std::string& path) {
  clara::obs::TraceSink sink;
  std::vector<clara::obs::TraceEvent> events;
  events.reserve(spans.size());
  for (const Span& s : spans) {
    clara::obs::TraceEvent e;
    e.name = s.name;
    e.cat = s.parent >= 0 ? "layer" : (e.name == "request" ? "request" : "train");
    e.ts_us = static_cast<int64_t>(MicrosBetween(epoch, s.start));
    e.dur_us = static_cast<int64_t>(MicrosBetween(s.start, s.end));
    e.tid = static_cast<uint32_t>(s.request % 100000);
    e.trace_id = s.request;
    events.push_back(std::move(e));
  }
  sink.AddEvents(std::move(events));
  return sink.WriteChromeJson(path);
}

// ---- socket replay ----

struct Breakdowns {
  std::vector<double> transport, queue, parse, infer, analyze, encode;
  size_t sent = 0;
  size_t failed = 0;
  // The daemon's own counters, summed over the insight phases only (a
  // reload's canary analysis is not a request).
  double compiles = 0;
  double misses = 0;
};

// The number after `"key":` in a JSON document (-1 when absent).
double JsonNumberAfter(const std::string& json, const std::string& key) {
  size_t at = json.find("\"" + key + "\":");
  if (at == std::string::npos) {
    return -1;
  }
  return std::strtod(json.c_str() + at + key.size() + 3, nullptr);
}

// A daemon counter from a stats frame; a counter that never fired is absent.
double Counter(const std::string& stats_json, const char* name) {
  return std::max(0.0, JsonNumberAfter(stats_json, name));
}

// Keeps one socket answer's latency breakdown.
void Note(Outcome o, const std::string& reply, double rtt_us, Breakdowns* out) {
  ++out->sent;
  InsightResponse resp;
  std::string error;
  if (o != Outcome::kOk || !clara::serve::ParseResponse(reply, &resp, &error) ||
      resp.error != ErrorCode::kOk || !resp.breakdown.valid) {
    ++out->failed;
    return;
  }
  const clara::serve::LatencyBreakdown& b = resp.breakdown;
  out->transport.push_back(rtt_us - b.total_us);
  out->queue.push_back(b.queue_us);
  out->parse.push_back(b.parse_us);
  out->encode.push_back(b.encode_us);
  if (!b.cache_hit) {
    out->infer.push_back(b.infer_us);
    out->analyze.push_back(b.analyze_us);
  }
}

// Replays the steps over the socket: the insight steps of one phase are
// dealt round-robin to `connections` concurrent connections (one in phase
// 0); reloads go on their own control connection, which also reads the
// daemon's counters before and after each phase.
Breakdowns SocketReplay(const std::vector<Step>& steps, size_t connections, bool* ok) {
  Breakdowns total;
  Connection control;
  *ok = control.Open(kSocket);
  std::string before, after;
  size_t i = 0;
  while (i < steps.size()) {
    if (steps[i].reload) {
      *ok = *ok && Control(control, clara::serve::ControlOp::kReload, nullptr);
      ++i;
      continue;
    }
    std::vector<std::vector<const BenchRequest*>> per(connections);
    size_t phase = steps[i].phase;
    size_t lanes = phase == 0 ? 1 : connections;
    for (size_t k = 0; i < steps.size() && !steps[i].reload && steps[i].phase == phase;
         ++i, ++k) {
      per[k % lanes].push_back(&steps[i].request);
    }
    *ok = *ok && Control(control, clara::serve::ControlOp::kStats, &before);
    std::vector<size_t> sent(lanes, 0);
    DriveLanes(
        kSocket, lanes,
        [&](size_t c, std::string* payload) {
          if (sent[c] == per[c].size()) {
            return false;
          }
          *payload = clara::serve::EncodeRequest(per[c][sent[c]++]->req);
          return true;
        },
        [&](size_t, Outcome o, const std::string& reply, double rtt_us) {
          Note(o, reply, rtt_us, &total);
        });
    *ok = *ok && Control(control, clara::serve::ControlOp::kStats, &after);
    total.compiles += Counter(after, "nic.backend.compilations") -
                      Counter(before, "nic.backend.compilations");
    total.misses += Counter(after, "serve.cache.misses") - Counter(before, "serve.cache.misses");
  }
  return total;
}

// The options `clara_cli train` trains with (CliAnalyzerOptions in
// tools/clara_cli.cc).
clara::AnalyzerOptions CliTrainOptions() {
  clara::AnalyzerOptions options;
  options.predictor.train_programs = 150;
  options.predictor.lstm.epochs = 10;
  options.scaleout.train_programs = 60;
  options.colocation.train_nfs = 24;
  options.colocation.train_groups = 60;
  options.algo_corpus_per_class = 25;
  return options;
}

// ClaraAnalyzer::Train, one trainer call at a time, each timed.
clara::TrainedBundle TrainByStage(Output& out, Spans& spans) {
  clara::AnalyzerOptions opts = CliTrainOptions();
  clara::PerfModel perf_model(opts.nic);
  std::vector<clara::Program> corpus;
  for (const auto& info : clara::ElementRegistry()) {
    corpus.push_back(info.make());
  }
  std::vector<const clara::Program*> ptrs;
  for (const auto& p : corpus) {
    ptrs.push_back(&p);
  }
  clara::TrainedBundle b;
  auto stage = [&](const char* name, auto&& fn) {
    Clock::time_point t0 = Clock::now();
    int id = spans.Begin(name, -1, 0);
    fn();
    spans.End(id);
    out.Metric(name, SecondsSince(t0), "s", 1);
  };
  stage("train.measure_corpus_s", [&] { b.synth_profile = clara::MeasureCorpus(ptrs); });
  stage("train.predictor_s", [&] {
    clara::PredictorOptions popts = opts.predictor;
    popts.synth.profile = b.synth_profile;
    b.predictor = clara::InstructionPredictor(popts);
    b.predictor.Train();
  });
  stage("train.algo_id_s", [&] {
    b.algo_id = clara::AlgorithmIdentifier(opts.algo_id);
    b.algo_id.Train(clara::BuildAlgorithmCorpus(opts.algo_corpus_per_class, opts.seed));
  });
  stage("train.scaleout_s", [&] {
    clara::ScaleOutOptions sopts = opts.scaleout;
    sopts.synth.profile = b.synth_profile;
    b.scaleout = clara::ScaleOutAdvisor(sopts);
    b.scaleout.Train(perf_model,
                     {clara::WorkloadSpec::LargeFlows(), clara::WorkloadSpec::SmallFlows()});
  });
  stage("train.colocation_s", [&] {
    clara::ColocationOptions copts = opts.colocation;
    copts.synth.profile = b.synth_profile;
    b.colocation = clara::ColocationRanker(copts);
    b.colocation.Train(perf_model, clara::WorkloadSpec::SmallFlows());
  });
  return b;
}

}  // namespace

int RunTraced(const std::map<std::string, std::string>& args) {
  auto arg = [&](const char* k) {
    auto it = args.find(k);
    return it == args.end() ? std::string() : it->second;
  };
  Workload w;
  std::string error;
  std::vector<CorpusNf> corpus = LoadCorpus(arg("corpus"), &error);
  double seconds = std::strtod(arg("seconds").c_str(), nullptr);
  uint64_t seed = std::strtoull(arg("seed").c_str(), nullptr, 10);
  if (!ParseWorkload(arg("workload"), &w) || corpus.empty() || seconds <= 0 ||
      arg("out").empty()) {
    std::fprintf(stderr, "perfbench traced: bad arguments %s\n", error.c_str());
    return 2;
  }
  std::string bin = arg("bin");
  Clock::time_point run_start = Clock::now();
  Output out;
  std::string first_mismatch;
  auto mismatch = [&](const std::string& what) {
    if (first_mismatch.empty()) {
      first_mismatch = what;
    }
  };

  // 1. Training, by stage, against the clara_cli bundle.
  pid_t train = Spawn({bin + "/clara_cli", "train", std::string("--model-dir=") + kModelDir},
                      "train.log");
  if (train < 0 || WaitExit(train, 150) != 0) {
    std::fprintf(stderr, "perfbench traced: clara_cli train failed\n");
    return 2;
  }
  std::string bundle_path = clara::serve::BundlePath(kModelDir);
  Spans train_spans(true);
  clara::TrainedBundle bundle = TrainByStage(out, train_spans);
  if (clara::serve::SerializeBundle(bundle) != ReadFile(bundle_path)) {
    mismatch("in-process training serialized differently from the clara_cli bundle");
  }
  clara::SetNumThreads(1);  // the replays below time serial layer calls

  // Reload cost: artifact load and the canary analysis.
  std::vector<double> load_ms, canary_ms;
  for (int i = 0; i < kProbeRepeats; ++i) {
    clara::TrainedBundle loaded;
    Clock::time_point t0 = Clock::now();
    if (!clara::serve::LoadBundleFile(bundle_path, &loaded, &error)) {
      mismatch("artifact load: " + error);
      break;
    }
    Clock::time_point t1 = Clock::now();
    clara::ClaraAnalyzer canary(EngineAnalyzerOptions(), std::move(loaded));
    canary.SetInferBackend(EngineOptions().infer_backend);
    Clock::time_point t2 = Clock::now();
    canary.Analyze(clara::ElementRegistry().front().make(), clara::WorkloadSpec::SmallFlows());
    load_ms.push_back(MicrosBetween(t0, t1) / 1000);
    canary_ms.push_back(MicrosBetween(t2, Clock::now()) / 1000);
  }
  out.Samples("serve.artifact_load_ms", "ms", "median", load_ms);
  out.Samples("serve.canary_ms", "ms", "median", canary_ms);

  // Front end probe, the same on every workload: parse and check each corpus
  // source a few times.
  std::vector<double> parse_us;
  size_t check_rejects = 0;
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    for (const CorpusNf& nf : corpus) {
      Clock::time_point t0 = Clock::now();
      clara::ParseResult parsed = clara::ParseProgram(nf.source);
      parse_us.push_back(MicrosBetween(t0, Clock::now()));
      if (rep == 0 && (!parsed.ok || !clara::CheckProgram(parsed.program).ok)) {
        ++check_rejects;
      }
    }
  }

  // 2. Decomposed replays, traced and untraced.
  std::vector<Step> steps = Sequence(w, seed, seconds, corpus);
  // The first traced replay keeps its spans and samples. The overhead
  // compares the medians of traced and untraced replay wall times, run
  // alternately: three of each when a replay takes under 5 s, else one.
  Decomposed traced(bundle, true);
  std::vector<double> traced_s(1), untraced_s;
  std::vector<std::string> answers = Replay(traced, steps, &traced_s[0]);
  int pairs = traced_s[0] < 5 ? 3 : 1;
  for (int k = 0; k < pairs; ++k) {
    double wall = 0;
    Decomposed plain(bundle, false);
    Replay(plain, steps, &wall);
    untraced_s.push_back(wall);
    if (k + 1 < pairs) {
      Decomposed again(bundle, true);
      Replay(again, steps, &wall);
      traced_s.push_back(wall);
    }
  }

  // 3. The in-process engine on the same bundle, not started (inline).
  clara::serve::ServeEngine engine(bundle);
  std::vector<double> inline_us;
  // The last 46 answered steps: still cached, so asking again hits.
  std::deque<size_t> hit_pass;
  size_t attempted = 0, failed = 0;
  for (size_t i = 0; i < steps.size(); ++i) {
    const Step& s = steps[i];
    if (s.reload) {
      clara::TrainedBundle fresh;
      if (!clara::serve::LoadBundleFile(bundle_path, &fresh, &error) ||
          !engine.Reload(std::move(fresh), &error)) {
        mismatch("engine reload: " + error);
      }
      continue;
    }
    std::string payload = clara::serve::EncodeRequest(s.request.req);
    Clock::time_point t0 = Clock::now();
    std::string want = engine.HandlePayload(payload);
    inline_us.push_back(MicrosBetween(t0, Clock::now()));
    InsightResponse a, b;
    std::string e1, e2;
    ++attempted;
    if (!clara::serve::ParseResponse(answers[i], &a, &e1) ||
        !clara::serve::ParseResponse(want, &b, &e2) || a.error != b.error ||
        clara::serve::EncodeResponseBody(a) != clara::serve::EncodeResponseBody(b)) {
      mismatch("request " + std::to_string(s.request.req.id) + " " +
               ClassLabel(s.request) + ": decomposed answer differs from the engine's");
    }
    if (b.error != ErrorCode::kOk) {
      ++failed;
      continue;
    }
    hit_pass.push_back(i);
    if (hit_pass.size() > kRegistryNfs * kPresets) {
      hit_pass.pop_front();
    }
  }
  // Handoff: the same cache hits through a started engine minus inline.
  std::vector<double> handoff_us;
  {
    std::vector<double> inline_hit;
    for (size_t i : hit_pass) {
      std::string payload = clara::serve::EncodeRequest(steps[i].request.req);
      Clock::time_point t0 = Clock::now();
      engine.HandlePayload(payload);
      inline_hit.push_back(MicrosBetween(t0, Clock::now()));
    }
    engine.Start();
    for (size_t k = 0; k < hit_pass.size(); ++k) {
      std::string payload = clara::serve::EncodeRequest(steps[hit_pass[k]].request.req);
      Clock::time_point t0 = Clock::now();
      engine.HandlePayload(payload);
      handoff_us.push_back(MicrosBetween(t0, Clock::now()) - inline_hit[k]);
    }
    engine.Stop();
  }

  // 4. Socket replay against the real daemon.
  Clock::time_point spawn = Clock::now();
  pid_t daemon = Spawn({bin + "/clara_serve", std::string("--model-dir=") + kModelDir,
                        std::string("--socket=") + kSocket},
                       "serve.log");
  if (daemon < 0 || !WaitHealthy(kSocket, 60)) {
    std::fprintf(stderr, "perfbench traced: clara_serve did not start\n");
    if (daemon > 0) {
      StopProcess(daemon, 30);
    }
    return 2;
  }
  double daemon_start_s = SecondsSince(spawn);
  size_t conns = w == Workload::kColdMiss ? 1 : (w == Workload::kHitPoll ? 4 : 3);
  bool socket_ok = false;
  Breakdowns bd = SocketReplay(steps, conns, &socket_ok);
  std::string stats_json;
  {
    Connection c;
    if (!c.Open(kSocket) || !Control(c, clara::serve::ControlOp::kStats, &stats_json)) {
      mismatch("stats frame unanswered");
    }
  }
  if (StopProcess(daemon, 60) != 0) {
    mismatch("daemon did not exit cleanly");
  }
  if (!socket_ok) {
    mismatch("a control frame over the socket failed");
  }
  if (bd.sent != attempted || bd.failed != failed) {
    mismatch("socket replay failed " + std::to_string(bd.failed) + " of " +
             std::to_string(bd.sent) + ", in-process " + std::to_string(failed));
  }

  // ---- metrics ----
  auto& smp = traced.samples();
  const Counts& cnt = traced.counts();
  out.Samples("serve.transport_us", "us", "p50", bd.transport);
  out.Samples("serve.queue_us", "us", "p50,p99", bd.queue);
  out.Samples("serve.parse_us", "us", "p50", bd.parse);
  out.Samples("serve.infer_us", "us", "p50", bd.infer);
  out.Samples("serve.analyze_us", "us", "p50", bd.analyze);
  out.Samples("serve.encode_us", "us", "p50", bd.encode);
  double batches = JsonNumberAfter(stats_json, "serve.batch.size\":{\"count");
  double batch_sum =
      batches > 0 ? JsonNumberAfter(stats_json.substr(stats_json.find("serve.batch.size")),
                                    "sum")
                  : 0;
  double hits = Counter(stats_json, "serve.cache.hits");
  double misses = Counter(stats_json, "serve.cache.misses");
  out.Metric("serve.batch_size.mean", batches > 0 ? batch_sum / batches : 0, "count",
             static_cast<size_t>(std::max(batches, 0.0)));
  out.Metric("serve.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
             "ratio", static_cast<size_t>(hits + misses));
  out.Metric("serve.daemon_start_s", daemon_start_s, "s", 1);

  // Cold misses never hit: time a cache replay of each hit-pass answer too.
  for (size_t i : hit_pass) {
    InsightResponse resp;
    clara::serve::ParseResponse(answers[i], &resp, &error);
    std::string body = clara::serve::EncodeResponseBody(resp);
    Clock::time_point t0 = Clock::now();
    std::string payload = clara::serve::EncodeResponseWithBody(resp.id, body);
    InsightResponse parsed;
    clara::serve::ParseResponse(payload, &parsed, &error);
    smp["serve.replay"].push_back(MicrosBetween(t0, Clock::now()));
  }
  for (const char* layer :
       {"proto.decode", "proto.encode", "serve.cache_key", "serve.replay", "workload.gentrace",
        "lang.lower", "core.predict", "core.classify", "nic.compile", "nic.demand",
        "core.scaleout", "core.placement", "core.coalescing", "nic.evaluate", "core.render"}) {
    out.Samples(std::string(layer) + "_us", "us", "p50", smp[layer]);
  }
  out.Samples("lang.interp_us", "us", "p50,p99", smp["lang.interp"]);
  out.Samples("serve.handle_inline_us", "us", "p50", inline_us);
  out.Samples("serve.handoff_us", "us", "p50", handoff_us);
  out.Samples("lang.parse_us", "us", "p50", parse_us);

  out.Metric("workload.packets", cnt.misses ? double(cnt.packets) / cnt.misses : 0, "count",
             cnt.misses);
  out.Metric("lang.check_rejects", static_cast<double>(check_rejects), "count",
             corpus.size());
  out.Metric("lang.interp_ns_per_pkt",
             cnt.packets ? Sum(smp["lang.interp"]) * 1000 / cnt.packets : 0, "ns/pkt",
             cnt.packets);
  out.Metric("core.predict_blocks", cnt.misses ? double(cnt.blocks) / cnt.misses : 0, "count",
             cnt.misses);
  out.Metric("ml.lstm_us_per_block", cnt.blocks ? Sum(smp["core.predict"]) / cnt.blocks : 0,
             "us", cnt.blocks);
  // The daemon's compilations per cache miss, over the socket replay.
  out.Metric("nic.compiles_per_miss", bd.misses > 0 ? bd.compiles / bd.misses : 0, "count",
             static_cast<size_t>(bd.misses));
  out.Metric("solver.ilp_nodes", cnt.misses ? cnt.ilp_nodes / cnt.misses : 0, "count",
             cnt.misses);

  // Accounting over the request spans.
  const std::vector<Span>& spans = traced.spans().all();
  std::map<std::string, double> self = SelfTimesUs(spans);
  double request_us = Sum(traced.request_us());
  double layers_us = 0;
  for (const auto& [name, us] : self) {
    if (name != "request") {
      layers_us += us;
    }
  }
  out.Metric("trace.coverage", request_us > 0 ? layers_us / request_us : 0, "ratio",
             traced.request_us().size());
  out.Samples("trace.traced_replay_s", "s", "median", traced_s);
  out.Samples("trace.untraced_replay_s", "s", "median", untraced_s);
  for (const auto& [name, us] : self) {
    char line[160];
    std::snprintf(line, sizeof(line), "self_us %s %.1f", name.c_str(), us);
    out.Line(line);
  }

  std::vector<Span> all = train_spans.all();
  all.insert(all.end(), spans.begin(), spans.end());
  if (!WriteChromeTrace(all, run_start, "traced.trace.json")) {
    mismatch("cannot write traced.trace.json");
  }
  out.Line("attempted " + std::to_string(attempted) + " " + std::to_string(failed));
  if (!first_mismatch.empty()) {
    out.Line("mismatch " + first_mismatch);
  }
  std::FILE* f = std::fopen(arg("out").c_str(), "w");
  if (f == nullptr) {
    return 2;
  }
  std::fputs(out.text().c_str(), f);
  std::fclose(f);
  return first_mismatch.empty() ? 0 : 1;
}

}  // namespace perfbench
