// The serving subsystem (src/serve/): artifact store round-trips, corrupted
// artifact rejection, wire-protocol codecs, the mini-Click parser used for
// inline-source requests, and the serving engine (cache byte
// equality, admission control, deadlines, concurrency).
//
// Runs as one ctest entry (clara_test_whole): the trained bundle fixture is
// shared across every test in the binary.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <limits>
#include <string_view>
#include <thread>
#include <vector>

#include "src/core/analyzer.h"
#include "src/elements/elements.h"
#include "src/lang/lower.h"
#include "src/lang/parse.h"
#include "src/lang/printer.h"
#include "src/ml/ensemble.h"
#include "src/ml/kmeans.h"
#include "src/ml/knn.h"
#include "src/ml/linear.h"
#include "src/ml/tree.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "src/serve/artifact.h"
#include "src/serve/brownout.h"
#include "src/serve/proto.h"
#include "src/serve/retry.h"
#include "src/serve/server.h"
#include "src/util/binio.h"
#include "src/util/rng.h"
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

const std::string& SerializedBundle() {
  static const std::string* bytes =
      new std::string(serve::SerializeBundle(TrainedAnalyzer().ExportTrained()));
  return *bytes;
}

TrainedBundle ReloadedBundle() {
  TrainedBundle bundle;
  std::string error;
  EXPECT_TRUE(serve::DeserializeBundle(SerializedBundle(), &bundle, &error)) << error;
  return bundle;
}

Module LowerElement(const std::string& name) {
  Program program = MakeElementByName(name);
  LowerResult lr = LowerProgram(program);
  EXPECT_TRUE(lr.ok) << lr.error;
  return std::move(lr.module);
}

// Defined with the serve-engine tests below.
serve::ServeOptions FastServeOptions();
serve::InsightRequest ElementRequest(uint64_t id, const std::string& element);

// ---- artifact store: bit-identical round trips ----

TEST(Artifact, SerializeDeserializeIsAFixedPoint) {
  TrainedBundle reloaded = ReloadedBundle();
  EXPECT_TRUE(reloaded.trained());
  // Byte-level fixed point covers every serialized model at once: any lossy
  // field would change the second serialization.
  EXPECT_EQ(serve::SerializeBundle(reloaded), SerializedBundle());
}

TEST(Artifact, ReloadedPredictorIsBitIdentical) {
  TrainedBundle reloaded = ReloadedBundle();
  for (const char* name : {"aggcounter", "heavyhitter", "iplookup"}) {
    Module m = LowerElement(name);
    NfPrediction a = TrainedAnalyzer().predictor().PredictNf(m);
    NfPrediction b = reloaded.predictor.PredictNf(m);
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    EXPECT_EQ(a.total_mem_state, b.total_mem_state);
    // Exact double equality: the LSTM+FC weights must reload bit-for-bit.
    for (size_t i = 0; i < a.blocks.size(); ++i) {
      EXPECT_EQ(a.blocks[i].compute, b.blocks[i].compute) << name << " block " << i;
    }
    EXPECT_EQ(a.total_compute, b.total_compute) << name;
  }
}

TEST(Artifact, ReloadedAlgoIdAndAdvisorsMatch) {
  TrainedBundle reloaded = ReloadedBundle();
  for (const char* name : {"aggcounter", "iprewriter", "cmsketch"}) {
    Module m = LowerElement(name);
    EXPECT_EQ(TrainedAnalyzer().algo_id().Classify(m), reloaded.algo_id.Classify(m));
    FeatureVec fa = TrainedAnalyzer().algo_id().ExtractFeatures(m);
    FeatureVec fb = reloaded.algo_id.ExtractFeatures(m);
    EXPECT_EQ(fa, fb) << name;
  }
}

TEST(Artifact, ReloadedAnalyzerProducesIdenticalInsights) {
  ClaraAnalyzer warm(SmallOptions(), ReloadedBundle());
  WorkloadSpec wl = WorkloadSpec::SmallFlows();
  OffloadingInsights a = TrainedAnalyzer().Analyze(MakeElementByName("aggcounter"), wl);
  OffloadingInsights b = warm.Analyze(MakeElementByName("aggcounter"), wl);
  EXPECT_EQ(a.accelerator, b.accelerator);
  EXPECT_EQ(a.suggested_cores, b.suggested_cores);
  EXPECT_EQ(a.prediction.total_compute, b.prediction.total_compute);
  EXPECT_EQ(a.ToString(NicConfig{}), b.ToString(NicConfig{}));
}

// ---- artifact store: corruption rejection ----

TEST(Artifact, RejectsBadMagic) {
  std::string bytes = SerializedBundle();
  bytes[0] = 'X';
  TrainedBundle b;
  std::string error;
  EXPECT_FALSE(serve::DeserializeBundle(bytes, &b, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(Artifact, RejectsVersionBump) {
  std::string bytes = SerializedBundle();
  bytes[4] = static_cast<char>(serve::kArtifactVersion + 1);  // u16 LE at offset 4
  TrainedBundle b;
  std::string error;
  EXPECT_FALSE(serve::DeserializeBundle(bytes, &b, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(Artifact, RejectsTruncation) {
  std::string bytes = SerializedBundle();
  for (size_t keep : {bytes.size() - 1, bytes.size() / 2, size_t{10}, size_t{0}}) {
    TrainedBundle b;
    std::string error;
    EXPECT_FALSE(serve::DeserializeBundle(bytes.substr(0, keep), &b, &error))
        << "kept " << keep << " bytes";
    EXPECT_FALSE(error.empty());
  }
}

TEST(Artifact, RejectsPayloadCorruption) {
  std::string bytes = SerializedBundle();
  bytes[bytes.size() / 2] ^= 0x40;
  TrainedBundle b;
  std::string error;
  EXPECT_FALSE(serve::DeserializeBundle(bytes, &b, &error));
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
}

// ---- artifact store: the CLRQ trailer of older bundles ----

// Appends the frame older releases wrote after the main payload:
// "CLRQ" | u16 version | u32 CRC-32 of payload | u32 payload size | payload.
std::string WithQuantTrailer(const std::string& bundle, std::string_view payload) {
  BinWriter w;
  w.Bytes(serve::kQuantMagic, sizeof(serve::kQuantMagic));
  w.U16(serve::kQuantVersion);
  w.U32(Crc32(payload));
  w.U32(static_cast<uint32_t>(payload.size()));
  w.Bytes(payload.data(), payload.size());
  return bundle + w.Take();
}

TEST(Artifact, OldQuantTrailerIsCheckedThenSkipped) {
  const std::string& plain = SerializedBundle();
  std::string old = WithQuantTrailer(plain, "int8 weights that nothing reads");

  TrainedBundle bundle;
  std::string error;
  ASSERT_TRUE(serve::DeserializeBundle(old, &bundle, &error)) << error;
  // Written back without the trailer.
  EXPECT_EQ(serve::SerializeBundle(bundle), plain);

  serve::ServeEngine with_trailer(std::move(bundle), FastServeOptions());
  serve::ServeEngine without_trailer(ReloadedBundle(), FastServeOptions());
  for (const char* name : {"aggcounter", "heavyhitter"}) {
    serve::InsightResponse a = with_trailer.Handle(ElementRequest(1, name));
    serve::InsightResponse b = without_trailer.Handle(ElementRequest(1, name));
    ASSERT_EQ(a.error, serve::ErrorCode::kOk) << a.error_message;
    EXPECT_EQ(serve::EncodeResponseBody(a), serve::EncodeResponseBody(b)) << name;
  }

  // A damaged trailer still rejects the whole artifact. Cut inside the
  // trailer's header and inside its payload:
  for (size_t keep : {plain.size() + 5, old.size() - 3}) {
    TrainedBundle b;
    EXPECT_FALSE(serve::DeserializeBundle(old.substr(0, keep), &b, &error))
        << "kept " << keep << " of " << old.size();
    EXPECT_NE(error.find("quantized frame truncated"), std::string::npos) << error;
  }
  // Flip a payload byte (past the trailer's 14-byte header):
  std::string flipped = old;
  flipped[plain.size() + 14 + 2] ^= 0x20;
  TrainedBundle b;
  EXPECT_FALSE(serve::DeserializeBundle(flipped, &b, &error));
  EXPECT_NE(error.find("CRC mismatch"), std::string::npos) << error;
}

// ---- standalone model round trips (every family in the bundle or store) --

template <typename T>
T RoundTrip(const T& model) {
  BinWriter w;
  model.SaveTo(w);
  BinReader r(w.data());
  T out;
  EXPECT_TRUE(out.LoadFrom(r)) << r.error();
  EXPECT_EQ(r.remaining(), 0u);
  return out;
}

TabularDataset RegData(size_t n, uint64_t seed) {
  TabularDataset d;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    double x0 = rng.NextDouble() * 10, x1 = rng.NextDouble() * 4;
    d.x.push_back({x0, x1});
    d.y.push_back(x0 * 1.5 - x1 + rng.NextGaussian(0.1));
  }
  return d;
}

TabularDataset ClsData(size_t n, int classes, uint64_t seed) {
  TabularDataset d;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    int c = static_cast<int>(rng.NextBounded(classes));
    d.x.push_back({c * 3.0 + rng.NextGaussian(0.4), (c % 2) * 3.0 + rng.NextGaussian(0.4)});
    d.y.push_back(c);
  }
  return d;
}

std::vector<FeatureVec> Probes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<FeatureVec> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back({rng.NextDouble() * 10, rng.NextDouble() * 4});
  }
  return out;
}

TEST(ModelRoundTrip, RegressionTree) {
  RegressionTree tree(TreeOptions{5, 2, 0});
  tree.Fit(RegData(200, 3));
  RegressionTree loaded = RoundTrip(tree);
  for (const auto& p : Probes(50, 4)) {
    EXPECT_EQ(tree.Predict(p), loaded.Predict(p));
  }
}

TEST(ModelRoundTrip, GbdtRegressor) {
  GbdtRegressor gbdt;
  gbdt.Fit(RegData(300, 5));
  GbdtRegressor loaded = RoundTrip(gbdt);
  for (const auto& p : Probes(50, 6)) {
    EXPECT_EQ(gbdt.Predict(p), loaded.Predict(p));
  }
}

TEST(ModelRoundTrip, RandomForestRegressor) {
  RandomForestRegressor forest;
  forest.Fit(RegData(300, 7));
  RandomForestRegressor loaded = RoundTrip(forest);
  for (const auto& p : Probes(50, 8)) {
    EXPECT_EQ(forest.Predict(p), loaded.Predict(p));
  }
}

TEST(ModelRoundTrip, GbdtClassifier) {
  GbdtClassifier cls;
  cls.Fit(ClsData(300, 3, 9), 3);
  GbdtClassifier loaded = RoundTrip(cls);
  for (const auto& p : Probes(50, 10)) {
    EXPECT_EQ(cls.Predict(p), loaded.Predict(p));
  }
}

TEST(ModelRoundTrip, GbdtRanker) {
  Rng rng(11);
  std::vector<RankGroup> groups;
  for (int g = 0; g < 20; ++g) {
    RankGroup grp;
    for (int i = 0; i < 4; ++i) {
      double x0 = rng.NextDouble(), x1 = rng.NextDouble();
      grp.items.push_back({x0, x1});
      grp.relevance.push_back(x0 * 2 - x1);
    }
    groups.push_back(std::move(grp));
  }
  GbdtRanker ranker;
  ranker.Fit(groups);
  GbdtRanker loaded = RoundTrip(ranker);
  for (const auto& p : Probes(50, 12)) {
    EXPECT_EQ(ranker.Score({p[0] / 10, p[1] / 4}), loaded.Score({p[0] / 10, p[1] / 4}));
  }
}

TEST(ModelRoundTrip, LinearSvm) {
  LinearSvm svm;
  svm.Fit(ClsData(300, 3, 13), 3);
  LinearSvm loaded = RoundTrip(svm);
  for (const auto& p : Probes(50, 14)) {
    EXPECT_EQ(svm.Predict(p), loaded.Predict(p));
  }
}

TEST(ModelRoundTrip, KnnClassifierAndRegressor) {
  KnnClassifier cls;
  cls.Fit(ClsData(150, 3, 15), 3);
  KnnClassifier cls_loaded = RoundTrip(cls);
  KnnRegressor reg;
  reg.Fit(RegData(150, 16));
  KnnRegressor reg_loaded = RoundTrip(reg);
  for (const auto& p : Probes(50, 17)) {
    EXPECT_EQ(cls.Predict(p), cls_loaded.Predict(p));
    EXPECT_EQ(reg.Predict(p), reg_loaded.Predict(p));
  }
}

TEST(ModelRoundTrip, KMeansResultRoundTrips) {
  std::vector<FeatureVec> x;
  Rng rng(18);
  for (int i = 0; i < 120; ++i) {
    int c = i % 3;
    x.push_back({c * 5.0 + rng.NextGaussian(0.3), c * 2.0 + rng.NextGaussian(0.3)});
  }
  KMeansResult res = KMeans(x, 3);
  BinWriter w;
  SaveKMeansResult(w, res);
  BinReader r(w.data());
  KMeansResult loaded;
  ASSERT_TRUE(LoadKMeansResult(r, &loaded)) << r.error();
  EXPECT_EQ(res.centroids, loaded.centroids);
  EXPECT_EQ(res.assignment, loaded.assignment);
  EXPECT_EQ(res.inertia, loaded.inertia);
}

TEST(ModelRoundTrip, CorruptedTreeLinksRejected) {
  RegressionTree tree(TreeOptions{4, 2, 0});
  tree.Fit(RegData(200, 19));
  BinWriter w;
  tree.SaveTo(w);
  std::string bytes = w.data();
  // Corrupt a child-link field to a backward reference: LoadFrom must reject
  // it (Predict traversal would loop otherwise). Node 0's `left` i32 sits at
  // tag(2) + count(4) + feature(4) + threshold(8) + value(8).
  bytes[2 + 4 + 4 + 8 + 8] = 0;
  BinReader r(bytes);
  RegressionTree loaded;
  EXPECT_FALSE(loaded.LoadFrom(r));
  EXPECT_FALSE(r.error().empty());
}

// ---- wire protocol ----

TEST(Proto, RequestRoundTrips) {
  serve::InsightRequest req;
  req.id = 42;
  req.element = "aggcounter";
  req.source = "class X : public Element {};";
  req.workload = WorkloadSpec::LargeFlows();
  req.deadline_ms = 250;
  serve::InsightRequest out;
  std::string error;
  ASSERT_TRUE(serve::ParseRequest(serve::EncodeRequest(req), &out, &error)) << error;
  EXPECT_EQ(out.id, req.id);
  EXPECT_EQ(out.element, req.element);
  EXPECT_EQ(out.source, req.source);
  EXPECT_EQ(out.workload.name, req.workload.name);
  EXPECT_EQ(out.workload.num_flows, req.workload.num_flows);
  EXPECT_EQ(out.workload.zipf_s, req.workload.zipf_s);
  EXPECT_EQ(out.deadline_ms, req.deadline_ms);
}

TEST(Proto, ResponseRoundTrips) {
  serve::InsightResponse resp;
  resp.id = 7;
  resp.nf_name = "aggcounter";
  resp.accelerator = "none";
  resp.suggested_cores = 12;
  resp.total_compute = 17.25;
  resp.total_mem_state = 6;
  resp.naive_mpps = 33.5;
  resp.tuned_us = 0.75;
  resp.rendered = "=== insights ===\n";
  serve::InsightResponse out;
  std::string error;
  ASSERT_TRUE(serve::ParseResponse(serve::EncodeResponse(resp), &out, &error)) << error;
  EXPECT_EQ(out.id, resp.id);
  EXPECT_EQ(out.nf_name, resp.nf_name);
  EXPECT_EQ(out.suggested_cores, resp.suggested_cores);
  EXPECT_EQ(out.total_compute, resp.total_compute);
  EXPECT_EQ(out.rendered, resp.rendered);
}

TEST(Proto, MalformedRequestRejected) {
  serve::InsightRequest out;
  std::string error;
  EXPECT_FALSE(serve::ParseRequest("not a request", &out, &error));
  EXPECT_FALSE(error.empty());
  // Neither element nor source.
  serve::InsightRequest empty;
  EXPECT_FALSE(serve::ParseRequest(serve::EncodeRequest(empty), &out, &error));
  EXPECT_NE(error.find("neither"), std::string::npos) << error;
}

TEST(Proto, FrameReaderReassemblesSplitFrames) {
  std::string stream;
  serve::AppendFrame(&stream, "alpha");
  serve::AppendFrame(&stream, "");
  serve::AppendFrame(&stream, "gamma");
  serve::FrameReader reader;
  std::vector<std::string> frames;
  std::string frame;
  for (size_t i = 0; i < stream.size(); ++i) {  // worst case: byte at a time
    reader.Feed(stream.data() + i, 1);
    while (reader.Next(&frame)) {
      frames.push_back(frame);
    }
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0], "alpha");
  EXPECT_EQ(frames[1], "");
  EXPECT_EQ(frames[2], "gamma");
  EXPECT_EQ(reader.TakeOversized(), 0u);
}

TEST(Proto, FrameReaderSkipsOversizedFrames) {
  std::string stream;
  // A length prefix over the cap, followed by that many junk bytes, then a
  // well-formed frame.
  uint32_t big = serve::kMaxFrameBytes + 5;
  for (int i = 0; i < 4; ++i) {
    stream.push_back(static_cast<char>((big >> (8 * i)) & 0xff));
  }
  stream.append(big, 'x');
  serve::AppendFrame(&stream, "survivor");
  serve::FrameReader reader;
  reader.Feed(stream.data(), stream.size());
  std::string frame;
  ASSERT_TRUE(reader.Next(&frame));
  EXPECT_EQ(frame, "survivor");
  EXPECT_EQ(reader.TakeOversized(), 1u);
}

// ---- mini-Click parser (inline-source requests) ----

TEST(Parse, EveryRegistryElementRoundTripsThroughSource) {
  for (const auto& info : ElementRegistry()) {
    Program original = info.make();
    std::string source = ToSource(original);
    ParseResult parsed = ParseProgram(source);
    ASSERT_TRUE(parsed.ok) << info.name << ": " << parsed.error;
    // Printing the parsed program must reproduce the source exactly — the
    // parser is the printer's inverse on printer output.
    EXPECT_EQ(ToSource(parsed.program), source) << info.name;
  }
}

TEST(Parse, ReportsErrorsWithLineNumbers) {
  ParseResult r = ParseProgram("class Broken : public Element {\n  int;\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line"), std::string::npos) << r.error;
}

// ---- serving engine ----

serve::InsightRequest ElementRequest(uint64_t id, const std::string& element) {
  serve::InsightRequest req;
  req.id = id;
  req.element = element;
  req.workload = WorkloadSpec::SmallFlows();
  return req;
}

serve::ServeOptions FastServeOptions() {
  serve::ServeOptions opts;
  opts.profile_packets = 400;
  return opts;
}

TEST(Engine, CachedAndUncachedResponsesAreByteEqual) {
  serve::ServeEngine engine(ReloadedBundle(), FastServeOptions());
  serve::InsightResponse first = engine.Handle(ElementRequest(1, "aggcounter"));
  ASSERT_EQ(first.error, serve::ErrorCode::kOk) << first.error_message;
  EXPECT_EQ(engine.cache_entries(), 1u);
  serve::InsightResponse second = engine.Handle(ElementRequest(2, "aggcounter"));
  ASSERT_EQ(second.error, serve::ErrorCode::kOk);
  // Identical (program, workload) ⇒ identical encoded body; only the echoed
  // id differs.
  EXPECT_EQ(serve::EncodeResponseBody(first), serve::EncodeResponseBody(second));
  EXPECT_EQ(engine.cache_entries(), 1u);
}

TEST(Engine, InlineSourceHitsTheSameCacheEntryAsTheElement) {
  serve::ServeEngine engine(ReloadedBundle(), FastServeOptions());
  serve::InsightResponse by_name = engine.Handle(ElementRequest(1, "aggcounter"));
  ASSERT_EQ(by_name.error, serve::ErrorCode::kOk) << by_name.error_message;
  serve::InsightRequest req;
  req.id = 2;
  req.source = ToSource(MakeElementByName("aggcounter"));
  req.workload = WorkloadSpec::SmallFlows();
  serve::InsightResponse by_source = engine.Handle(std::move(req));
  ASSERT_EQ(by_source.error, serve::ErrorCode::kOk) << by_source.error_message;
  // Same content hash ⇒ served from the cache, byte-equal bodies.
  EXPECT_EQ(engine.cache_entries(), 1u);
  EXPECT_EQ(serve::EncodeResponseBody(by_name), serve::EncodeResponseBody(by_source));
}

TEST(Engine, ConcurrentRequestsAreAnswered) {
  serve::ServeEngine engine(ReloadedBundle(), FastServeOptions());
  engine.Start();
  std::vector<std::future<serve::InsightResponse>> futures;
  const char* elements[] = {"aggcounter", "heavyhitter", "aggcounter", "iplookup"};
  for (uint64_t i = 0; i < 4; ++i) {
    futures.push_back(engine.Submit(ElementRequest(i + 1, elements[i])));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    serve::InsightResponse resp = futures[i].get();
    EXPECT_EQ(resp.error, serve::ErrorCode::kOk) << resp.error_message;
    EXPECT_EQ(resp.id, i + 1);
  }
  engine.Stop();
}

TEST(Engine, AdmissionControlRejectsWhenQueueIsFull) {
  serve::ServeOptions opts = FastServeOptions();
  opts.queue_capacity = 1;
  serve::ServeEngine engine(ReloadedBundle(), opts);
  // Not started: the queue cannot drain, so the second submit must be
  // rejected immediately.
  std::future<serve::InsightResponse> queued = engine.Submit(ElementRequest(1, "aggcounter"));
  std::future<serve::InsightResponse> rejected =
      engine.Submit(ElementRequest(2, "aggcounter"));
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(rejected.get().error, serve::ErrorCode::kQueueFull);
  engine.Start();  // drain the queued request
  EXPECT_EQ(queued.get().error, serve::ErrorCode::kOk);
  engine.Stop();
}

// A by-name hit is answered at admission, on the submitting thread: it does
// not wait for the dispatcher. The miss's callback holds the dispatcher
// inside that miss until the hit has been answered.
TEST(Engine, ByNameHitIsAnsweredWhileTheDispatcherRunsAMiss) {
  serve::ServeEngine engine(ReloadedBundle(), FastServeOptions());
  ASSERT_EQ(engine.Handle(ElementRequest(1, "aggcounter")).error, serve::ErrorCode::kOk);
  engine.Start();
  std::promise<void> in_miss;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> miss_done{false};
  engine.Submit(ElementRequest(2, "heavyhitter"), 0, [&](serve::InsightResponse resp) {
    EXPECT_EQ(resp.error, serve::ErrorCode::kOk) << resp.error_message;
    in_miss.set_value();
    released.wait();
    miss_done = true;
  });
  in_miss.get_future().wait();

  std::future<serve::InsightResponse> hit = engine.Submit(ElementRequest(3, "aggcounter"));
  ASSERT_EQ(hit.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_FALSE(miss_done.load());
  serve::InsightResponse resp = hit.get();
  EXPECT_EQ(resp.error, serve::ErrorCode::kOk) << resp.error_message;
  EXPECT_EQ(resp.id, 3u);
  EXPECT_TRUE(resp.breakdown.cache_hit);
  EXPECT_EQ(resp.breakdown.queue_us, 0u);
  EXPECT_EQ(resp.breakdown.parse_us, 0u);
  release.set_value();
  engine.Stop();
  EXPECT_TRUE(miss_done.load());
}

// Admission control bounds the queue, and a by-name hit never enters it.
TEST(Engine, ByNameHitIsAnsweredWhenTheQueueIsFull) {
  serve::ServeOptions opts = FastServeOptions();
  opts.queue_capacity = 1;
  serve::ServeEngine engine(ReloadedBundle(), opts);
  ASSERT_EQ(engine.Handle(ElementRequest(1, "aggcounter")).error, serve::ErrorCode::kOk);
  // Not started: the queued miss fills the queue and stays there.
  std::future<serve::InsightResponse> queued = engine.Submit(ElementRequest(2, "heavyhitter"));
  EXPECT_EQ(engine.Submit(ElementRequest(3, "udpcount")).get().error,
            serve::ErrorCode::kQueueFull);
  std::future<serve::InsightResponse> hit = engine.Submit(ElementRequest(4, "aggcounter"));
  ASSERT_EQ(hit.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  serve::InsightResponse resp = hit.get();
  EXPECT_EQ(resp.error, serve::ErrorCode::kOk) << resp.error_message;
  EXPECT_EQ(resp.id, 4u);
  EXPECT_TRUE(resp.breakdown.cache_hit);
  engine.Start();
  EXPECT_EQ(queued.get().error, serve::ErrorCode::kOk);
  engine.Stop();
}

// The dispatcher probes the cache for each request when it reaches it, so
// requests queued for one key cost one analysis: the first fills the key and
// the rest replay it.
TEST(Engine, QueuedRequestsForOneKeyAreAnalyzedOnce) {
  serve::ServeEngine engine(ReloadedBundle(), FastServeOptions());
  // Not started: the requests queue behind each other, none of them cached.
  std::vector<std::future<serve::InsightResponse>> futures;
  for (uint64_t id = 1; id <= 4; ++id) {
    futures.push_back(engine.Submit(ElementRequest(id, "heavyhitter")));
  }
  engine.Start();
  int hits = 0;
  for (auto& fut : futures) {
    serve::InsightResponse resp = fut.get();
    ASSERT_EQ(resp.error, serve::ErrorCode::kOk) << resp.error_message;
    hits += resp.breakdown.cache_hit ? 1 : 0;
  }
  engine.Stop();
  EXPECT_EQ(hits, 3);
  std::string health = engine.HealthJson();
  EXPECT_NE(health.find("\"hits\":3,\"misses\":1,"), std::string::npos) << health;
}

// A queued request's deadline is checked when the dispatcher reaches it, not
// when it left the queue: one that expires while the miss ahead of it is
// being answered is rejected. The miss's callback holds the dispatcher.
TEST(Engine, DeadlineIsCheckedWhenTheDispatcherReachesTheRequest) {
  serve::ServeEngine engine(ReloadedBundle(), FastServeOptions());
  std::promise<void> in_miss;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  engine.Submit(ElementRequest(1, "heavyhitter"), 0, [&](serve::InsightResponse resp) {
    EXPECT_EQ(resp.error, serve::ErrorCode::kOk) << resp.error_message;
    in_miss.set_value();
    released.wait();
  });
  serve::InsightRequest late = ElementRequest(2, "udpcount");
  late.deadline_ms = 50;
  std::future<serve::InsightResponse> fut = engine.Submit(std::move(late));
  engine.Start();
  in_miss.get_future().wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  release.set_value();
  serve::InsightResponse resp = fut.get();
  EXPECT_EQ(resp.error, serve::ErrorCode::kDeadlineExceeded) << resp.error_message;
  engine.Stop();
}

// Health and the registry count a hit where an answer is replayed and a miss
// where a probe fails; a request that errors before its probe is neither.
TEST(Engine, HealthAndStatsCountErrorsAsNeitherHitNorMiss) {
  obs::EnabledScope obs_on;
  obs::Counter& hits = obs::MetricsRegistry::Global().GetCounter("serve.cache.hits");
  obs::Counter& misses = obs::MetricsRegistry::Global().GetCounter("serve.cache.misses");
  uint64_t hits_before = hits.value();
  uint64_t misses_before = misses.value();
  serve::ServeEngine engine(ReloadedBundle(), FastServeOptions());
  EXPECT_EQ(engine.Handle(ElementRequest(1, "nosuchelement")).error,
            serve::ErrorCode::kUnknownElement);
  serve::InsightRequest bad_source;
  bad_source.id = 2;
  bad_source.source = "class Broken : public Element { int;";
  EXPECT_EQ(engine.Handle(std::move(bad_source)).error, serve::ErrorCode::kParseError);
  EXPECT_EQ(engine.Handle(ElementRequest(3, "aggcounter")).error, serve::ErrorCode::kOk);
  EXPECT_EQ(engine.Handle(ElementRequest(4, "aggcounter")).error, serve::ErrorCode::kOk);
  std::string health = engine.HealthJson();
  EXPECT_NE(health.find("\"hits\":1,\"misses\":1,"), std::string::npos) << health;
  EXPECT_EQ(hits.value() - hits_before, 1u);
  EXPECT_EQ(misses.value() - misses_before, 1u);
}

// By-name requests are keyed from a table built at construction; it must
// hold exactly the key the printed program would give.
TEST(Engine, ElementKeysAreThePrintedProgramHashes) {
  serve::ServeEngine engine(ReloadedBundle(), FastServeOptions());
  EXPECT_EQ(engine.element_keys().size(), ElementRegistry().size());
  for (const auto& info : ElementRegistry()) {
    auto it = engine.element_keys().find(info.name);
    ASSERT_NE(it, engine.element_keys().end()) << info.name;
    EXPECT_EQ(it->second, Fnv1a64(ToSource(*FindElementByName(info.name)))) << info.name;
  }
}

// Two keys whose bucket hash collides keep their own answers: the cache map
// is keyed on the whole (program, workload) pair, not on its mix.
TEST(AnswerCache, KeysWithACollidingMixKeepTheirOwnBodies) {
  constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
  uint64_t p1 = 0x0123456789ABCDEFULL;
  uint64_t w1 = 7;
  uint64_t w2 = 8;
  uint64_t p2 = p1 ^ (w1 * kGolden) ^ (w2 * kGolden);
  ASSERT_EQ(serve::AnswerCache::Mix(p1, w1), serve::AnswerCache::Mix(p2, w2));
  serve::AnswerCache cache(8);
  cache.Put(p1, w1, "first");
  cache.Put(p2, w2, "second");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Get(p1, w1), "first");
  EXPECT_EQ(cache.Get(p2, w2), "second");
  EXPECT_EQ(cache.Get(p1, w2), "");
}

TEST(Engine, ExpiredDeadlineIsRejectedAtDispatch) {
  serve::ServeEngine engine(ReloadedBundle(), FastServeOptions());
  serve::InsightRequest req = ElementRequest(1, "aggcounter");
  req.deadline_ms = 1;
  std::future<serve::InsightResponse> fut = engine.Submit(std::move(req));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  engine.Start();
  EXPECT_EQ(fut.get().error, serve::ErrorCode::kDeadlineExceeded);
  engine.Stop();
}

TEST(Engine, StructuredErrorsNeverCrash) {
  serve::ServeEngine engine(ReloadedBundle(), FastServeOptions());
  serve::InsightResponse unknown = engine.Handle(ElementRequest(1, "nosuchelement"));
  EXPECT_EQ(unknown.error, serve::ErrorCode::kUnknownElement);
  serve::InsightRequest bad_source;
  bad_source.id = 2;
  bad_source.source = "class Broken : public Element { int;";
  bad_source.workload = WorkloadSpec::SmallFlows();
  serve::InsightResponse parse_err = engine.Handle(std::move(bad_source));
  EXPECT_EQ(parse_err.error, serve::ErrorCode::kParseError);
  EXPECT_FALSE(parse_err.error_message.empty());
  // Undecodable payload through the transport entry point.
  std::string encoded = engine.HandlePayload("garbage payload");
  serve::InsightResponse decoded;
  std::string error;
  ASSERT_TRUE(serve::ParseResponse(encoded, &decoded, &error)) << error;
  EXPECT_EQ(decoded.error, serve::ErrorCode::kBadRequest);
}

TEST(Engine, UnrunnableWorkloadIsABadRequestAndServingContinues) {
  serve::ServeEngine engine(ReloadedBundle(), FastServeOptions());
  auto answer = [&](const serve::InsightRequest& req) {
    serve::InsightResponse resp;
    std::string error;
    EXPECT_TRUE(serve::ParseResponse(engine.HandlePayload(serve::EncodeRequest(req)), &resp,
                                     &error))
        << error;
    return resp;
  };
  std::vector<serve::InsightRequest> bad(5, ElementRequest(1, "aggcounter"));
  bad[0].workload.num_flows = 0;  // zipf_s > 0: sampling an empty table
  bad[1].workload.num_flows = serve::kMaxRequestFlows + 1;
  bad[2].workload.zipf_s = std::nan("");
  bad[3].workload.syn_ratio = std::numeric_limits<double>::infinity();
  bad[4].workload.udp_fraction = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < bad.size(); ++i) {
    serve::InsightResponse resp = answer(bad[i]);
    EXPECT_EQ(resp.error, serve::ErrorCode::kBadRequest) << "request " << i;
    EXPECT_NE(resp.error_message.find("workload"), std::string::npos) << resp.error_message;
  }
  serve::InsightRequest edge = ElementRequest(2, "aggcounter");
  edge.workload.num_flows = serve::kMaxRequestFlows;
  serve::InsightResponse ok = answer(edge);
  EXPECT_EQ(ok.error, serve::ErrorCode::kOk) << ok.error_message;
  EXPECT_EQ(ok.id, 2u);
}

// The engine answers a miss through ClaraAnalyzer's pipeline, so its
// response carries exactly what Analyze computes for the same program and
// workload: by registry name on both presets, and for inline source.
TEST(Engine, MissAnswersMatchTheAnalyzer) {
  serve::ServeOptions opts = FastServeOptions();
  serve::ServeEngine engine(ReloadedBundle(), opts);
  std::vector<serve::InsightRequest> requests;
  for (const char* name : {"aggcounter", "mazunat", "iplookup", "wepdecap"}) {
    for (const WorkloadSpec& wl : {WorkloadSpec::SmallFlows(), WorkloadSpec::LargeFlows()}) {
      serve::InsightRequest req = ElementRequest(requests.size() + 1, name);
      req.workload = wl;
      requests.push_back(std::move(req));
    }
  }
  serve::InsightRequest inline_req;
  inline_req.id = requests.size() + 1;
  inline_req.source = ToSource(MakeElementByName("heavyhitter"));
  inline_req.workload = WorkloadSpec::LargeFlows();
  requests.push_back(std::move(inline_req));

  for (const serve::InsightRequest& req : requests) {
    Program program;
    if (req.source.empty()) {
      program = MakeElementByName(req.element);
    } else {
      ParseResult parsed = ParseProgram(req.source);
      ASSERT_TRUE(parsed.ok) << parsed.error;
      program = std::move(parsed.program);
    }
    OffloadingInsights want = engine.analyzer().Analyze(std::move(program), req.workload);
    serve::InsightResponse got = engine.Handle(req);
    ASSERT_EQ(got.error, serve::ErrorCode::kOk) << got.error_message;
    EXPECT_FALSE(got.breakdown.cache_hit) << "request " << req.id;
    EXPECT_EQ(got.nf_name, want.nf_name);
    EXPECT_EQ(got.rendered, want.ToString(opts.nic)) << "request " << req.id;
    EXPECT_EQ(std::memcmp(&got.total_compute, &want.prediction.total_compute, sizeof(double)),
              0)
        << "request " << req.id;
  }
}

// ---- telemetry wire extensions ----

TEST(Proto, TraceIdRoundTripsAndZeroIsOmitted) {
  serve::InsightRequest req;
  req.id = 9;
  req.element = "aggcounter";
  req.workload = WorkloadSpec::SmallFlows();
  std::string v1_bytes = serve::EncodeRequest(req);  // trace_id == 0: no section
  req.trace_id = 0xDEADBEEFCAFEF00DULL;
  std::string traced_bytes = serve::EncodeRequest(req);
  EXPECT_GT(traced_bytes.size(), v1_bytes.size());

  serve::InsightRequest out;
  std::string error;
  ASSERT_TRUE(serve::ParseRequest(traced_bytes, &out, &error)) << error;
  EXPECT_EQ(out.trace_id, req.trace_id);
  // A frame with no trailing section decodes exactly as before (v1 compat).
  ASSERT_TRUE(serve::ParseRequest(v1_bytes, &out, &error)) << error;
  EXPECT_EQ(out.trace_id, 0u);
  EXPECT_EQ(out.element, "aggcounter");
}

TEST(Proto, TruncatedTraceSectionRejected) {
  serve::InsightRequest req;
  req.id = 1;
  req.element = "aggcounter";
  req.workload = WorkloadSpec::SmallFlows();
  req.trace_id = 77;
  std::string bytes = serve::EncodeRequest(req);
  serve::InsightRequest out;
  std::string error;
  // Chop into the trailing section: tag present but id truncated.
  EXPECT_FALSE(serve::ParseRequest(bytes.substr(0, bytes.size() - 3), &out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(Proto, BreakdownRoundTripsAndStaysOutOfTheBody) {
  serve::InsightResponse resp;
  resp.id = 3;
  resp.nf_name = "aggcounter";
  resp.rendered = "text";
  std::string body_plain = serve::EncodeResponseBody(resp);
  resp.breakdown.valid = true;
  resp.breakdown.trace_id = 55;
  resp.breakdown.cache_hit = true;
  resp.breakdown.queue_us = 10;
  resp.breakdown.parse_us = 1;
  resp.breakdown.infer_us = 200;
  resp.breakdown.analyze_us = 300;
  resp.breakdown.encode_us = 4;
  resp.breakdown.total_us = 515;
  // The cached unit is unchanged by the breakdown: cache replays stay
  // byte-equal across requests with different stage timings.
  EXPECT_EQ(serve::EncodeResponseBody(resp), body_plain);

  serve::InsightResponse out;
  std::string error;
  ASSERT_TRUE(serve::ParseResponse(serve::EncodeResponse(resp), &out, &error)) << error;
  ASSERT_TRUE(out.breakdown.valid);
  EXPECT_EQ(out.breakdown.trace_id, 55u);
  EXPECT_TRUE(out.breakdown.cache_hit);
  EXPECT_EQ(out.breakdown.infer_us, 200u);
  EXPECT_EQ(out.breakdown.total_us, 515u);

  // And a v1 response (no section) still decodes, breakdown invalid.
  resp.breakdown.valid = false;
  ASSERT_TRUE(serve::ParseResponse(serve::EncodeResponse(resp), &out, &error)) << error;
  EXPECT_FALSE(out.breakdown.valid);
}

TEST(Proto, ControlMessagesRoundTrip) {
  for (serve::ControlOp op : {serve::ControlOp::kStats, serve::ControlOp::kHealth,
                              serve::ControlOp::kDump}) {
    serve::ControlRequest req;
    req.op = op;
    serve::ControlRequest req_out;
    std::string error;
    ASSERT_TRUE(
        serve::ParseControlRequest(serve::EncodeControlRequest(req), &req_out, &error))
        << error;
    EXPECT_EQ(req_out.op, op);

    serve::ControlResponse resp;
    resp.op = op;
    resp.ok = true;
    resp.json = "{\"k\":1}";
    serve::ControlResponse resp_out;
    ASSERT_TRUE(
        serve::ParseControlResponse(serve::EncodeControlResponse(resp), &resp_out, &error))
        << error;
    EXPECT_EQ(resp_out.op, op);
    EXPECT_TRUE(resp_out.ok);
    EXPECT_EQ(resp_out.json, resp.json);
  }
}

TEST(Proto, ControlParserRejectsBadOpAndTrailingBytes) {
  serve::ControlRequest req;
  std::string bytes = serve::EncodeControlRequest(req);
  serve::ControlRequest out;
  std::string error;
  std::string bad_op = bytes;
  bad_op[2] = 9;  // op byte past kDump
  EXPECT_FALSE(serve::ParseControlRequest(bad_op, &out, &error));
  EXPECT_NE(error.find("op"), std::string::npos) << error;
  EXPECT_FALSE(serve::ParseControlRequest(bytes + "x", &out, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(Proto, PeekTypeClassifiesPayloads) {
  serve::InsightRequest req;
  req.element = "aggcounter";
  EXPECT_EQ(serve::PeekType(serve::EncodeRequest(req)), serve::MsgType::kInsightRequest);
  EXPECT_EQ(serve::PeekType(serve::EncodeResponse(serve::InsightResponse{})),
            serve::MsgType::kInsightResponse);
  EXPECT_EQ(serve::PeekType(serve::EncodeControlRequest(serve::ControlRequest{})),
            serve::MsgType::kControlRequest);
  EXPECT_EQ(serve::PeekType(serve::EncodeControlResponse(serve::ControlResponse{})),
            serve::MsgType::kControlResponse);
  EXPECT_EQ(serve::PeekType(""), serve::MsgType::kUnknown);
  EXPECT_EQ(serve::PeekType("z"), serve::MsgType::kUnknown);
  EXPECT_EQ(serve::PeekType("zz"), serve::MsgType::kUnknown);
}

TEST(Proto, FrameReaderInterleavesControlAndInsightFrames) {
  serve::InsightRequest req;
  req.id = 1;
  req.element = "aggcounter";
  req.workload = WorkloadSpec::SmallFlows();
  req.trace_id = 11;
  serve::ControlRequest ctl;
  ctl.op = serve::ControlOp::kHealth;

  std::string stream;
  serve::AppendFrame(&stream, serve::EncodeRequest(req));
  serve::AppendFrame(&stream, serve::EncodeControlRequest(ctl));
  // An oversized control-plane frame: skipped like any other oversized frame.
  uint32_t big = serve::kMaxFrameBytes + 1;
  for (int i = 0; i < 4; ++i) {
    stream.push_back(static_cast<char>((big >> (8 * i)) & 0xff));
  }
  stream.append(big, 'c');
  serve::AppendFrame(&stream, serve::EncodeControlRequest(serve::ControlRequest{}));

  serve::FrameReader reader;
  std::vector<serve::MsgType> types;
  std::string frame;
  for (size_t i = 0; i < stream.size(); i += 7) {  // uneven chunks
    reader.Feed(stream.data() + i, std::min<size_t>(7, stream.size() - i));
    while (reader.Next(&frame)) {
      types.push_back(serve::PeekType(frame));
    }
  }
  ASSERT_EQ(types.size(), 3u);
  EXPECT_EQ(types[0], serve::MsgType::kInsightRequest);
  EXPECT_EQ(types[1], serve::MsgType::kControlRequest);
  EXPECT_EQ(types[2], serve::MsgType::kControlRequest);
  EXPECT_EQ(reader.TakeOversized(), 1u);
}

// ---- engine telemetry plane ----

TEST(Engine, ResponsesCarryLatencyBreakdowns) {
  serve::ServeEngine engine(ReloadedBundle(), FastServeOptions());
  serve::InsightResponse miss = engine.Handle(ElementRequest(1, "aggcounter"));
  ASSERT_EQ(miss.error, serve::ErrorCode::kOk) << miss.error_message;
  ASSERT_TRUE(miss.breakdown.valid);
  EXPECT_FALSE(miss.breakdown.cache_hit);
  EXPECT_GT(miss.breakdown.total_us, 0u);
  EXPECT_GT(miss.breakdown.analyze_us, 0u);

  serve::InsightResponse hit = engine.Handle(ElementRequest(2, "aggcounter"));
  ASSERT_EQ(hit.error, serve::ErrorCode::kOk);
  ASSERT_TRUE(hit.breakdown.valid);
  EXPECT_TRUE(hit.breakdown.cache_hit);
  // Bodies stay byte-equal even though the breakdowns differ.
  EXPECT_EQ(serve::EncodeResponseBody(miss), serve::EncodeResponseBody(hit));
}

// Inference runs inside the analysis, beside the profiling, so a miss's
// serve.infer stage is nonzero and lies within its serve.analyze stage.
TEST(Engine, MissReportsInferenceInsideAnalysis) {
  serve::ServeEngine engine(ReloadedBundle(), FastServeOptions());
  for (const char* name : {"aggcounter", "mazunat", "iplookup"}) {
    serve::InsightResponse miss = engine.Handle(ElementRequest(1, name));
    ASSERT_EQ(miss.error, serve::ErrorCode::kOk) << miss.error_message;
    ASSERT_TRUE(miss.breakdown.valid);
    ASSERT_FALSE(miss.breakdown.cache_hit);
    EXPECT_GT(miss.breakdown.infer_us, 0u) << name;
    EXPECT_LE(miss.breakdown.infer_us, miss.breakdown.analyze_us) << name;
  }
}

TEST(Engine, ControlPlaneAnswersStatsHealthDump) {
  serve::ServeEngine engine(ReloadedBundle(), FastServeOptions());
  serve::InsightResponse resp = engine.Handle(ElementRequest(1, "aggcounter"));
  ASSERT_EQ(resp.error, serve::ErrorCode::kOk) << resp.error_message;

  std::string health = engine.HealthJson();
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"requests\":1"), std::string::npos) << health;
  EXPECT_NE(health.find("\"artifact_version\":"), std::string::npos) << health;
  EXPECT_NE(health.find("\"queue_capacity\":64"), std::string::npos) << health;

  std::string dump = engine.DumpJson();
  EXPECT_NE(dump.find("\"recorded\":1"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"label\":\"aggcounter\""), std::string::npos) << dump;

  for (serve::ControlOp op : {serve::ControlOp::kStats, serve::ControlOp::kHealth,
                              serve::ControlOp::kDump}) {
    serve::ControlRequest creq;
    creq.op = op;
    std::string encoded = engine.HandleControl(serve::EncodeControlRequest(creq));
    serve::ControlResponse cresp;
    std::string error;
    ASSERT_TRUE(serve::ParseControlResponse(encoded, &cresp, &error)) << error;
    EXPECT_TRUE(cresp.ok) << cresp.error;
    EXPECT_EQ(cresp.op, op);
    EXPECT_FALSE(cresp.json.empty());
    EXPECT_EQ(cresp.json.front(), '{');
  }

  // An undecodable control payload gets a structured !ok answer, not a crash.
  std::string bad = engine.HandleControl("junk");
  serve::ControlResponse cresp;
  std::string error;
  ASSERT_TRUE(serve::ParseControlResponse(bad, &cresp, &error)) << error;
  EXPECT_FALSE(cresp.ok);
  EXPECT_FALSE(cresp.error.empty());
}

TEST(Engine, SloTrackerFlipsHealthToDegraded) {
  serve::ServeOptions opts = FastServeOptions();
  opts.slo_p99_us = 0.5;  // microsecond-scale: any real request busts it
  serve::ServeEngine engine(ReloadedBundle(), opts);
  serve::InsightResponse resp = engine.Handle(ElementRequest(1, "aggcounter"));
  ASSERT_EQ(resp.error, serve::ErrorCode::kOk) << resp.error_message;
  obs::SloTracker::Window w = engine.SloWindow();
  EXPECT_EQ(w.count, 1u);
  EXPECT_TRUE(w.degraded);
  EXPECT_NE(engine.HealthJson().find("\"status\":\"degraded\""), std::string::npos);
}

TEST(Engine, FlightRecorderKeepsRecentRequests) {
  serve::ServeOptions opts = FastServeOptions();
  opts.flight_capacity = 2;
  serve::ServeEngine engine(ReloadedBundle(), opts);
  engine.Handle(ElementRequest(1, "aggcounter"));
  engine.Handle(ElementRequest(2, "aggcounter"));
  engine.Handle(ElementRequest(3, "nosuchelement"));  // error outcome recorded too
  const obs::FlightRecorder& flight = engine.flight();
  EXPECT_EQ(flight.recorded(), 3u);
  std::vector<obs::FlightRecord> recent = flight.Snapshot();
  ASSERT_EQ(recent.size(), 2u);  // capacity bounds the ring
  EXPECT_EQ(recent[0].id, 2u);
  EXPECT_EQ(recent[1].id, 3u);
  EXPECT_EQ(recent[1].outcome, static_cast<uint8_t>(serve::ErrorCode::kUnknownElement));
  EXPECT_TRUE(recent[0].cache_hit);
}

TEST(Engine, TraceSinkReceivesNestedRequestSpans) {
  obs::TraceSink sink;
  obs::SetGlobalTrace(&sink);
  serve::ServeEngine engine(ReloadedBundle(), FastServeOptions());
  serve::InsightRequest req = ElementRequest(1, "aggcounter");
  req.trace_id = 4242;
  serve::InsightResponse resp = engine.Handle(std::move(req));
  obs::SetGlobalTrace(nullptr);
  ASSERT_EQ(resp.error, serve::ErrorCode::kOk) << resp.error_message;
  EXPECT_EQ(resp.breakdown.trace_id, 4242u);

  const obs::TraceEvent* root = nullptr;
  std::vector<const obs::TraceEvent*> children;
  std::vector<obs::TraceEvent> events = sink.Events();
  for (const obs::TraceEvent& e : events) {
    if (e.trace_id != 4242) {
      continue;
    }
    if (e.name == "serve.request") {
      root = &e;
    } else {
      children.push_back(&e);
    }
  }
  ASSERT_NE(root, nullptr);
  ASSERT_GE(children.size(), 3u);  // queue_wait + parse + analyze + encode
  bool saw_queue_wait = false;
  for (const obs::TraceEvent* c : children) {
    saw_queue_wait |= c->name == "serve.queue_wait";
    EXPECT_EQ(c->tid, root->tid) << c->name;
    // Children nest inside the root interval (1us slack for clock rounding).
    EXPECT_GE(c->ts_us + 1, root->ts_us) << c->name;
    EXPECT_LE(c->ts_us + c->dur_us, root->ts_us + root->dur_us + 1) << c->name;
  }
  EXPECT_TRUE(saw_queue_wait);
}

TEST(Engine, ServerAssignsTraceIdsWhenSinkIsLive) {
  obs::TraceSink sink;
  obs::SetGlobalTrace(&sink);
  serve::ServeEngine engine(ReloadedBundle(), FastServeOptions());
  serve::InsightResponse a = engine.Handle(ElementRequest(1, "aggcounter"));
  serve::InsightResponse b = engine.Handle(ElementRequest(2, "aggcounter"));
  obs::SetGlobalTrace(nullptr);
  ASSERT_EQ(a.error, serve::ErrorCode::kOk);
  ASSERT_EQ(b.error, serve::ErrorCode::kOk);
  EXPECT_NE(a.breakdown.trace_id, 0u);
  EXPECT_NE(b.breakdown.trace_id, 0u);
  EXPECT_NE(a.breakdown.trace_id, b.breakdown.trace_id);
}

// ---- wire extensions: priority + retry hints ----

TEST(Proto, PriorityRoundTripsAndZeroIsOmitted) {
  serve::InsightRequest req;
  req.id = 5;
  req.element = "aggcounter";
  req.workload = WorkloadSpec::SmallFlows();
  std::string v1_bytes = serve::EncodeRequest(req);  // priority 0: no section
  req.priority = 7;
  std::string prioritized = serve::EncodeRequest(req);
  EXPECT_GT(prioritized.size(), v1_bytes.size());

  serve::InsightRequest out;
  std::string error;
  ASSERT_TRUE(serve::ParseRequest(prioritized, &out, &error)) << error;
  EXPECT_EQ(out.priority, 7);
  ASSERT_TRUE(serve::ParseRequest(v1_bytes, &out, &error)) << error;
  EXPECT_EQ(out.priority, 0);

  // Trace + priority sections coexist on one frame.
  req.trace_id = 99;
  ASSERT_TRUE(serve::ParseRequest(serve::EncodeRequest(req), &out, &error)) << error;
  EXPECT_EQ(out.trace_id, 99u);
  EXPECT_EQ(out.priority, 7);
}

TEST(Proto, RetryAfterRoundTripsAndStaysOutOfTheBody) {
  serve::InsightResponse resp;
  resp.id = 4;
  resp.error = serve::ErrorCode::kQueueFull;
  resp.error_message = "busy";
  std::string body_plain = serve::EncodeResponseBody(resp);
  resp.retry_after_ms = 250;
  // The hint is per-delivery advice, never part of the cached answer bytes.
  EXPECT_EQ(serve::EncodeResponseBody(resp), body_plain);

  serve::InsightResponse out;
  std::string error;
  ASSERT_TRUE(serve::ParseResponse(serve::EncodeResponse(resp), &out, &error)) << error;
  EXPECT_EQ(out.retry_after_ms, 250u);
  resp.retry_after_ms = 0;  // zero hint: section omitted, v1 decode
  ASSERT_TRUE(serve::ParseResponse(serve::EncodeResponse(resp), &out, &error)) << error;
  EXPECT_EQ(out.retry_after_ms, 0u);

  // Breakdown + retry sections coexist; a duplicated section is rejected.
  resp.retry_after_ms = 10;
  resp.breakdown.valid = true;
  resp.breakdown.total_us = 5;
  std::string both = serve::EncodeResponse(resp);
  ASSERT_TRUE(serve::ParseResponse(both, &out, &error)) << error;
  EXPECT_TRUE(out.breakdown.valid);
  EXPECT_EQ(out.retry_after_ms, 10u);
  std::string doubled = both;
  doubled.append(both.end() - 6, both.end());  // second retry section (tag+u32)
  EXPECT_FALSE(serve::ParseResponse(doubled, &out, &error));
  EXPECT_NE(error.find("section"), std::string::npos) << error;
}

TEST(Proto, SheddedErrorsAreRetryable) {
  EXPECT_TRUE(serve::IsRetryable(serve::ErrorCode::kShedded));
  EXPECT_TRUE(serve::IsRetryable(serve::ErrorCode::kQueueFull));
  EXPECT_TRUE(serve::IsRetryable(serve::ErrorCode::kShutdown));
  EXPECT_FALSE(serve::IsRetryable(serve::ErrorCode::kBadRequest));
  EXPECT_FALSE(serve::IsRetryable(serve::ErrorCode::kUnknownElement));
  EXPECT_NE(std::string(serve::ErrorCodeName(serve::ErrorCode::kShedded)), "?");
}

TEST(Proto, ReloadControlOpRoundTrips) {
  serve::ControlRequest req;
  req.op = serve::ControlOp::kReload;
  serve::ControlRequest out;
  std::string error;
  ASSERT_TRUE(serve::ParseControlRequest(serve::EncodeControlRequest(req), &out, &error))
      << error;
  EXPECT_EQ(out.op, serve::ControlOp::kReload);
}

// ---- brownout policy (fake clock) ----

TEST(Brownout, EntersOnDegradedWindowAndExitsWithHysteresis) {
  serve::BrownoutPolicy::Options opts;
  opts.enter_threshold_us = 1000;
  opts.exit_margin = 0.8;  // exit bar: p99 < 800us ...
  opts.exit_hold_us = 1000;  // ... sustained for 1ms of fake time
  serve::BrownoutPolicy policy(opts);

  EXPECT_FALSE(policy.Update(/*now_us=*/0, /*p99_us=*/500, /*count=*/10));
  EXPECT_TRUE(policy.Update(10, 1500, 10));  // over threshold: enter
  EXPECT_EQ(policy.entered(), 1u);

  // Calm-but-above-exit-bar readings must NOT exit (hysteresis band).
  EXPECT_TRUE(policy.Update(20, 900, 10));
  // Below the bar, but not yet sustained for exit_hold_us.
  EXPECT_TRUE(policy.Update(100, 700, 10));
  EXPECT_TRUE(policy.Update(600, 700, 10));
  // A spike resets the calm streak.
  EXPECT_TRUE(policy.Update(900, 950, 10));
  EXPECT_TRUE(policy.Update(1000, 700, 10));
  EXPECT_TRUE(policy.Update(1500, 700, 10));  // only 500us of calm so far
  EXPECT_FALSE(policy.Update(2100, 700, 10));  // 1100us >= hold: exit
  EXPECT_EQ(policy.exited(), 1u);
}

TEST(Brownout, EmptyWindowsNeverTransition) {
  serve::BrownoutPolicy::Options opts;
  opts.enter_threshold_us = 1000;
  opts.exit_hold_us = 100;
  serve::BrownoutPolicy policy(opts);
  // No samples: huge p99 values are vacuous, no entry.
  EXPECT_FALSE(policy.Update(0, 1e9, 0));
  EXPECT_TRUE(policy.Update(10, 2000, 1));
  // No samples while active: no evidence of calm either, stays active.
  EXPECT_TRUE(policy.Update(10000, 0, 0));
  EXPECT_TRUE(policy.Update(20000, 0, 0));
}

TEST(Brownout, ZeroThresholdDisablesThePolicy) {
  serve::BrownoutPolicy policy(serve::BrownoutPolicy::Options{});  // threshold 0
  EXPECT_FALSE(policy.Update(0, 1e9, 1000));
  EXPECT_EQ(policy.entered(), 0u);
}

// ---- client retry schedule (seeded jitter) ----

TEST(Retry, DelaysStayInTheEqualJitterBand) {
  serve::RetryPolicy::Options opts;
  opts.max_attempts = 6;
  opts.base_ms = 25;
  opts.max_ms = 2000;
  opts.jitter_seed = 7;
  serve::RetryPolicy policy(opts);
  for (int attempt = 0; attempt < 10; ++attempt) {
    uint64_t full = std::min<uint64_t>(
        static_cast<uint64_t>(opts.base_ms) << attempt, opts.max_ms);
    uint32_t delay = policy.NextDelayMs(attempt, /*retry_after_ms=*/0);
    EXPECT_GE(delay, full / 2) << "attempt " << attempt;
    EXPECT_LE(delay, full) << "attempt " << attempt;
  }
  EXPECT_TRUE(policy.ShouldRetry(5));
  EXPECT_FALSE(policy.ShouldRetry(6));
}

TEST(Retry, ServerHintIsAFloorAndScheduleIsDeterministic) {
  serve::RetryPolicy::Options opts;
  opts.max_attempts = 3;
  opts.jitter_seed = 11;
  serve::RetryPolicy a(opts);
  serve::RetryPolicy b(opts);
  // Same seed, same sequence.
  for (int attempt = 0; attempt < 5; ++attempt) {
    EXPECT_EQ(a.NextDelayMs(attempt, 0), b.NextDelayMs(attempt, 0));
  }
  // A server hint larger than the whole backoff window wins outright.
  EXPECT_GE(a.NextDelayMs(0, 5000), 5000u);
  // max_attempts=0 means fail fast.
  serve::RetryPolicy none((serve::RetryPolicy::Options()));
  EXPECT_FALSE(none.ShouldRetry(0));
}

// ---- hot reload ----

TEST(Engine, ReloadSwapsSnapshotBumpsVersionAndClearsCache) {
  serve::ServeEngine engine(ReloadedBundle(), FastServeOptions());
  EXPECT_EQ(engine.artifact_version(), 1u);
  serve::InsightResponse before = engine.Handle(ElementRequest(1, "aggcounter"));
  ASSERT_EQ(before.error, serve::ErrorCode::kOk) << before.error_message;
  EXPECT_EQ(engine.cache_entries(), 1u);

  std::string why;
  ASSERT_TRUE(engine.Reload(ReloadedBundle(), &why)) << why;
  EXPECT_EQ(engine.artifact_version(), 2u);
  EXPECT_EQ(engine.reloads_ok(), 1u);
  // The response cache is keyed by model generation: a swap empties it so no
  // stale answer can outlive the artifact that produced it.
  EXPECT_EQ(engine.cache_entries(), 0u);
  EXPECT_NE(engine.HealthJson().find("\"artifact_version\":2"), std::string::npos);
  EXPECT_NE(engine.StatsJson().find("\"artifact_version\":2"), std::string::npos);

  // Identical bundle ⇒ identical answers across the swap.
  serve::InsightResponse after = engine.Handle(ElementRequest(2, "aggcounter"));
  ASSERT_EQ(after.error, serve::ErrorCode::kOk) << after.error_message;
  EXPECT_EQ(serve::EncodeResponseBody(before), serve::EncodeResponseBody(after));
}

TEST(Engine, RejectedReloadKeepsTheOldModelServing) {
  serve::ServeEngine engine(ReloadedBundle(), FastServeOptions());
  std::string why;
  TrainedBundle untrained;
  EXPECT_FALSE(engine.Reload(std::move(untrained), &why));
  EXPECT_FALSE(why.empty());
  EXPECT_EQ(engine.artifact_version(), 1u);
  EXPECT_EQ(engine.reloads_rejected(), 1u);

  // Corrupt bytes on disk: rejected at load, old model keeps serving.
  std::string path = testing::TempDir() + "/clara_corrupt_bundle.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a bundle", f);
    std::fclose(f);
  }
  EXPECT_FALSE(engine.ReloadFromFile(path, &why));
  EXPECT_EQ(engine.reloads_rejected(), 2u);
  EXPECT_EQ(engine.artifact_version(), 1u);
  std::remove(path.c_str());

  serve::InsightResponse resp = engine.Handle(ElementRequest(1, "aggcounter"));
  EXPECT_EQ(resp.error, serve::ErrorCode::kOk) << resp.error_message;
}

// A reload clears the cache once, so each key costs one analysis per reload.
// A request that probed the cleared cache while holding the old model would
// analyze, see CachePut drop its answer as stale, and leave the next request
// to analyze the key again.
TEST(Engine, ReloadRepopulatesEachKeyWithOneAnalysis) {
  constexpr int kReloads = 100;
  serve::ServeEngine engine(ReloadedBundle(), FastServeOptions());
  engine.Start();
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread client([&] {
    for (uint64_t id = 1; !stop.load(); ++id) {
      if (engine.Submit(ElementRequest(id, "aggcounter")).get().error != serve::ErrorCode::kOk) {
        failures.fetch_add(1);
      }
    }
  });
  auto wait_until_cached = [&] {
    while (engine.cache_entries() == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  };
  wait_until_cached();
  for (int i = 0; i < kReloads; ++i) {
    std::string why;
    if (!engine.Reload(ReloadedBundle(), &why)) {
      ADD_FAILURE() << "reload " << i << ": " << why;
      break;
    }
    wait_until_cached();
  }
  stop = true;
  client.join();
  engine.Stop();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_NE(engine.HealthJson().find("\"misses\":" + std::to_string(kReloads + 1) + ","),
            std::string::npos)
      << engine.HealthJson();
}

// ---- brownout end-to-end (engine) ----

TEST(Engine, BrownoutShedsOnlyLowPriorityCacheMisses) {
  serve::ServeOptions opts = FastServeOptions();
  opts.slo_p99_us = 0.5;  // every real request busts the SLO: brownout is
                          // inevitable once the dispatcher samples a window
  serve::ServeEngine engine(ReloadedBundle(), opts);
  engine.Start();
  // Seed the cache and the SLO window with one request.
  serve::InsightResponse warm = engine.Submit(ElementRequest(1, "aggcounter")).get();
  ASSERT_EQ(warm.error, serve::ErrorCode::kOk) << warm.error_message;
  // The dispatcher evaluates brownout at most every ~100ms; wait for entry.
  bool active = false;
  for (int i = 0; i < 100 && !active; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    active = engine.brownout_active();
  }
  ASSERT_TRUE(active) << "brownout never engaged";
  // Brownout sheds work; it never switches the inference backend.
  EXPECT_NE(engine.HealthJson().find("\"infer\":\"f64\""), std::string::npos)
      << engine.HealthJson();

  // Priority-0 cache miss: shed with a structured error and a retry hint.
  serve::InsightResponse shed = engine.Submit(ElementRequest(2, "heavyhitter")).get();
  EXPECT_EQ(shed.error, serve::ErrorCode::kShedded) << shed.error_message;
  EXPECT_GT(shed.retry_after_ms, 0u);

  // Cache hits still serve under brownout (they are nearly free).
  serve::InsightResponse hit = engine.Submit(ElementRequest(3, "aggcounter")).get();
  EXPECT_EQ(hit.error, serve::ErrorCode::kOk) << hit.error_message;
  EXPECT_GE(engine.shedded(), 1u);

  // Higher-priority work rides through the brownout.
  serve::InsightRequest vip = ElementRequest(4, "heavyhitter");
  vip.priority = 5;
  serve::InsightResponse vip_resp = engine.Submit(vip).get();
  EXPECT_EQ(vip_resp.error, serve::ErrorCode::kOk) << vip_resp.error_message;
  EXPECT_TRUE(engine.brownout_active());
  engine.Stop();

  // ...and gets the answer an engine that never browned out gives: that is
  // the body the cache replays once brownout ends.
  serve::ServeEngine calm(ReloadedBundle(), FastServeOptions());
  serve::InsightResponse calm_resp = calm.Handle(std::move(vip));
  ASSERT_EQ(calm_resp.error, serve::ErrorCode::kOk) << calm_resp.error_message;
  EXPECT_EQ(serve::EncodeResponseBody(vip_resp), serve::EncodeResponseBody(calm_resp));
}

// ---- shutdown drain race ----

TEST(Engine, SubmitRacingStopNeverStrandsAPromise) {
  // Regression for the Submit-vs-Stop race: a request submitted while Stop()
  // drains must get kShutdown (or a normal answer), never a broken promise.
  for (int round = 0; round < 8; ++round) {
    serve::ServeEngine engine(ReloadedBundle(), FastServeOptions());
    engine.Start();
    std::vector<std::future<serve::InsightResponse>> futures;
    std::thread submitter([&] {
      for (uint64_t i = 0; i < 16; ++i) {
        futures.push_back(engine.Submit(ElementRequest(i + 1, "nosuchelement")));
      }
    });
    std::this_thread::sleep_for(std::chrono::microseconds(100 * round));
    engine.Stop();
    submitter.join();
    for (auto& fut : futures) {
      ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)), std::future_status::ready);
      serve::ErrorCode code = fut.get().error;
      EXPECT_TRUE(code == serve::ErrorCode::kUnknownElement ||
                  code == serve::ErrorCode::kShutdown ||
                  code == serve::ErrorCode::kQueueFull)
          << static_cast<int>(code);
    }
  }
}

TEST(Engine, StopAnswersQueuedRequestsWithShutdown) {
  serve::ServeOptions opts = FastServeOptions();
  serve::ServeEngine engine(ReloadedBundle(), opts);
  std::future<serve::InsightResponse> fut = engine.Submit(ElementRequest(1, "aggcounter"));
  engine.Start();
  engine.Stop();
  // Either the dispatcher got to it before Stop (kOk) or Stop drained it
  // (kShutdown) — never a hang or a broken promise.
  serve::ErrorCode code = fut.get().error;
  EXPECT_TRUE(code == serve::ErrorCode::kOk || code == serve::ErrorCode::kShutdown);
}

}  // namespace
}  // namespace clara
