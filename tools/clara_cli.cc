// clara_cli — command-line front end to the Clara library.
//
// Subcommands:
//   list                          the NF element registry (Table 2 style)
//   show <element>                pseudo-Click source + lowered IR summary
//   ir <element>                  full lowered IR dump
//   asm <element>                 simulated NIC machine code per block
//   profile <element> [small|large]   trace-driven workload profile
//   insights <element> [small|large]  full Clara analysis (trains models,
//                                 or loads a bundle with --model-dir)
//   train                         train all models once and save the bundle
//                                 to --model-dir (artifact store)
//   report [element...]           telemetry report: per-region utilization,
//                                 bottleneck attribution, backend rule
//                                 firings (defaults to the whole registry);
//                                 with --model-dir also exercises the serve
//                                 engine so serve.* metrics appear
//
// Global flags (any command):
//   --trace=out.json        emit a Chrome-trace (chrome://tracing) span file
//   --trace-jsonl=out.jsonl same events, one JSON object per line
//   --metrics-json=out.json dump the metrics registry as JSON on exit
//   --model-dir=DIR         model artifact directory (train writes, insights/
//                           report read)
//
// Examples:
//   clara_cli list
//   clara_cli asm aggcounter
//   clara_cli profile aggcounter --trace=trace.json
//   clara_cli report aggcounter heavyhitter mazunat
//   clara_cli train --model-dir=models/
//   clara_cli insights mazunat small --model-dir=models/
#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "src/core/analyzer.h"
#include "src/elements/elements.h"
#include "src/ir/classify.h"
#include "src/ir/printer.h"
#include "src/lang/interp.h"
#include "src/lang/lower.h"
#include "src/lang/printer.h"
#include "src/nic/backend.h"
#include "src/nic/demand.h"
#include "src/obs/bottleneck.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "src/serve/artifact.h"
#include "src/serve/server.h"
#include "src/util/parallel.h"
#include "src/workload/workload.h"

namespace {

using namespace clara;

// --infer= backend for insights/report analysis and the report serve engine.
InferBackend g_infer = InferBackend::kF64;

int Usage() {
  std::fprintf(stderr,
               "usage: clara_cli [flags] <command> [args]\n"
               "  list                       NF element registry\n"
               "  show <element>             pseudo-Click source + IR summary\n"
               "  ir <element>               lowered IR dump\n"
               "  asm <element>              simulated NIC machine code\n"
               "  profile <element> [small|large]\n"
               "  insights <element> [small|large]\n"
               "  train                      train all models, save bundle to --model-dir\n"
               "                             (--fast: small CI-sized training corpus)\n"
               "  report [element...]        telemetry report (default: all)\n"
               "flags:\n"
               "  --trace=FILE               Chrome-trace JSON (chrome://tracing)\n"
               "  --trace-jsonl=FILE         trace events as JSONL\n"
               "  --metrics-json=FILE        metrics registry dump as JSON\n"
               "  --model-dir=DIR            model artifact directory. `train` writes a\n"
               "                             checksummed bundle there once; `insights`\n"
               "                             then loads it and skips in-process training\n"
               "                             entirely (typically 10-100x faster end to\n"
               "                             end; bench/serve_latency prints measured\n"
               "                             cold-vs-warm numbers).\n"
               "                             `report` uses it to run the serve engine so\n"
               "                             serve.* metrics show up in the registry.\n"
               "  --threads=N                worker threads for parallel phases\n"
               "                             (default: CLARA_THREADS or all cores)\n"
               "  --infer=f64|f32            LSTM inference backend for insights/report\n"
               "                             (default f64; f32 uses the SIMD engine)\n");
  return 2;
}

WorkloadSpec PickWorkload(const std::vector<std::string>& args, size_t index) {
  if (args.size() > index && args[index] == "large") {
    return WorkloadSpec::LargeFlows();
  }
  return WorkloadSpec::SmallFlows();
}

// Accepts both `aggcounter` and `examples/aggcounter` spellings.
std::string ElementName(const std::string& arg) {
  size_t slash = arg.rfind('/');
  return slash == std::string::npos ? arg : arg.substr(slash + 1);
}

int CmdList() {
  std::printf("%-14s %-8s insights\n", "element", "stateful");
  for (const auto& info : ElementRegistry()) {
    std::string tags;
    for (size_t i = 0; i < info.insights.size(); ++i) {
      tags += (i ? "," : "") + info.insights[i];
    }
    std::printf("%-14s %-8s %s\n", info.name.c_str(), info.stateful ? "yes" : "no",
                tags.c_str());
  }
  return 0;
}

// Builds the named registry element, or reports the name and returns nullopt.
std::optional<Program> LoadElement(const std::string& name) {
  std::optional<Program> p = FindElementByName(name);
  if (!p) {
    std::fprintf(stderr, "unknown element '%s'\n", name.c_str());
  }
  return p;
}

int CmdShow(const std::string& name) {
  std::optional<Program> p = LoadElement(name);
  if (!p) {
    return 2;
  }
  std::printf("%s\n", ToSource(*p).c_str());
  LowerResult lr = LowerProgram(*p);
  if (!lr.ok) {
    std::fprintf(stderr, "lowering failed: %s\n", lr.error.c_str());
    return 1;
  }
  BlockCounts c = CountFunction(lr.module.functions[0]);
  std::printf("// lowered: %zu blocks, %u instrs (%u compute, %u stateless mem, "
              "%u stateful mem, %u API calls)\n",
              lr.module.functions[0].blocks.size(),
              lr.module.functions[0].NumInstructions(), c.compute, c.stateless_mem,
              c.stateful_mem, c.api_calls);
  return 0;
}

int CmdIr(const std::string& name) {
  std::optional<Program> p = LoadElement(name);
  if (!p) {
    return 2;
  }
  LowerResult lr = LowerProgram(*p);
  if (!lr.ok) {
    std::fprintf(stderr, "lowering failed: %s\n", lr.error.c_str());
    return 1;
  }
  std::printf("%s", ToString(lr.module).c_str());
  return 0;
}

int CmdAsm(const std::string& name) {
  std::optional<Program> p = LoadElement(name);
  if (!p) {
    return 2;
  }
  LowerResult lr = LowerProgram(*p);
  if (!lr.ok) {
    std::fprintf(stderr, "lowering failed: %s\n", lr.error.c_str());
    return 1;
  }
  NicProgram nic = CompileToNic(lr.module);
  const Function& f = lr.module.functions[0];
  for (size_t b = 0; b < nic.blocks.size(); ++b) {
    std::printf("^%s:  ; compute=%u api=%u mem_state=%u mem_pkt=%u lmem=%u\n",
                f.blocks[b].label.c_str(), nic.blocks[b].counts.compute,
                nic.blocks[b].counts.api_compute, nic.blocks[b].counts.mem_state,
                nic.blocks[b].counts.mem_packet, nic.blocks[b].counts.mem_lmem);
    for (const auto& instr : nic.blocks[b].instrs) {
      std::printf("    %s\n", ToString(instr, lr.module).c_str());
    }
  }
  NicBlockCounts t = nic.Totals();
  std::printf("; totals: %u compute + %u api-compute, %u state mem, %u pkt mem\n",
              t.compute, t.api_compute, t.mem_state, t.mem_packet);
  return 0;
}

void PrintRuleFirings(const RuleFirings& r) {
  std::printf("backend rewrite-rule firings (%u total):\n", r.Total());
  std::printf("  %-24s %6u    %-24s %6u\n", "mul->pow2 shift", r.mul_pow2_shifts,
              "mul expansion", r.mul_expansions);
  std::printf("  %-24s %6u    %-24s %6u\n", "div expansion", r.div_expansions,
              "cmp/branch fusion", r.cmp_branch_fusions);
  std::printf("  %-24s %6u    %-24s %6u\n", "cmp materialization", r.cmp_materializations,
              "immed materialization", r.immed_materializations);
  std::printf("  %-24s %6u    %-24s %6u\n", "zext elision", r.zext_elisions,
              "api expansion", r.api_expansions);
  std::printf("  %-24s %6u    %-24s %6u\n", "packet coalesce", r.packet_coalesces,
              "state coalesce", r.state_coalesces);
  std::printf("  %-24s %6u    %-24s %6u\n", "stack promotion", r.stack_promotions,
              "stack spill", r.stack_spills);
}

int CmdProfile(const std::string& name, const WorkloadSpec& workload) {
  CLARA_TRACE_SPAN("cli.pipeline", "cli");
  std::optional<Program> program = [&] {
    obs::StageTimer t("cli.parse", "cli.stage_ms.parse", "cli");
    return LoadElement(name);
  }();
  if (!program) {
    return 2;
  }
  NfInstance nf = [&] {
    obs::StageTimer t("cli.lower", "cli.stage_ms.lower", "cli");
    return NfInstance(std::move(*program));
  }();
  if (!nf.ok()) {
    std::fprintf(stderr, "error: %s\n", nf.error().c_str());
    return 1;
  }
  {
    obs::StageTimer t("cli.profile", "cli.stage_ms.profile", "cli");
    Trace trace = GenerateTrace(workload, 5000);
    for (auto& pkt : trace.packets) {
      pkt.in_port = pkt.src_ip & 1;
      nf.Process(pkt);
    }
  }
  const NfProfile& prof = nf.profile();
  std::printf("workload: %s (%u flows, %uB packets)\n", workload.name.c_str(),
              workload.num_flows, workload.pkt_size);
  std::printf("packets: %llu  sends: %llu  drops: %llu\n",
              static_cast<unsigned long long>(prof.packets),
              static_cast<unsigned long long>(prof.sends),
              static_cast<unsigned long long>(prof.drops));
  std::printf("\nstate accesses per packet:\n");
  for (size_t v = 0; v < nf.module().state.size(); ++v) {
    std::printf("  %-16s %8.3f reads  %8.3f writes  (%llu bytes)\n",
                nf.module().state[v].name.c_str(),
                static_cast<double>(prof.state_reads[v]) / prof.packets,
                static_cast<double>(prof.state_writes[v]) / prof.packets,
                static_cast<unsigned long long>(nf.module().state[v].SizeBytes()));
  }
  std::printf("\nframework API calls per packet:\n");
  for (const auto& [api, count] : prof.api_calls) {
    std::printf("  %-16s %8.3f\n", api.c_str(),
                static_cast<double>(count) / prof.packets);
  }

  // Demand + model estimate, so a profile --trace covers the whole pipeline.
  NicConfig cfg;
  NfDemand demand;
  NicProgram nic;
  {
    obs::StageTimer t("cli.demand", "cli.stage_ms.demand", "cli");
    nic = CompileToNic(nf.module());
    demand = BuildDemand(nf.module(), nic, prof, workload, cfg);
  }
  {
    obs::StageTimer t("cli.evaluate", "cli.stage_ms.evaluate", "cli");
    PerfModel model(cfg);
    int cores = model.OptimalCores(demand);
    PerfPoint p = model.Evaluate(demand, cores);
    std::printf("\nmodel estimate: %.2f Mpps / %.2f us at %d cores (bound by %s)\n",
                p.throughput_mpps, p.latency_us, cores, p.breakdown.bound_resource);
  }
  return 0;
}

AnalyzerOptions CliAnalyzerOptions() {
  AnalyzerOptions options;
  options.predictor.train_programs = 150;
  options.predictor.lstm.epochs = 10;
  options.scaleout.train_programs = 60;
  options.colocation.train_nfs = 24;
  options.colocation.train_groups = 60;
  options.algo_corpus_per_class = 25;
  return options;
}

ClaraAnalyzer TrainAnalyzer(AnalyzerOptions options = CliAnalyzerOptions()) {
  ClaraAnalyzer analyzer(std::move(options));
  std::printf("training Clara (one-time)...\n");
  std::vector<Program> corpus;
  for (const auto& info : ElementRegistry()) {
    corpus.push_back(info.make());
  }
  std::vector<const Program*> ptrs;
  for (const auto& p : corpus) {
    ptrs.push_back(&p);
  }
  analyzer.Train(ptrs);
  return analyzer;
}

bool LoadBundle(const std::string& model_dir, TrainedBundle* bundle) {
  std::string error;
  if (!serve::LoadBundleFile(serve::BundlePath(model_dir), bundle, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return false;
  }
  return true;
}

// Much smaller training corpus for CI smoke tests: the bundle is lower
// quality but exercises the identical artifact/serving paths in seconds.
AnalyzerOptions FastAnalyzerOptions() {
  AnalyzerOptions options;
  options.predictor.train_programs = 24;
  options.predictor.lstm.epochs = 2;
  options.scaleout.train_programs = 16;
  options.colocation.train_nfs = 8;
  options.colocation.train_groups = 16;
  options.algo_corpus_per_class = 6;
  return options;
}

int CmdTrain(const std::string& model_dir, bool fast) {
  if (model_dir.empty()) {
    std::fprintf(stderr, "error: train requires --model-dir=DIR\n");
    return 2;
  }
  auto t0 = std::chrono::steady_clock::now();
  ClaraAnalyzer analyzer = TrainAnalyzer(fast ? FastAnalyzerOptions() : CliAnalyzerOptions());
  double train_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  ::mkdir(model_dir.c_str(), 0755);  // fopen below reports any real failure
  std::string path = serve::BundlePath(model_dir);
  std::string error;
  if (!serve::SaveBundleFile(path, analyzer.ExportTrained(), &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("trained in %.1fs; bundle saved to %s\n", train_s, path.c_str());
  std::printf("serve it:  clara_serve --model-dir=%s --pipe\n", model_dir.c_str());
  std::printf("reuse it:  clara_cli insights <element> --model-dir=%s\n", model_dir.c_str());
  return 0;
}

int CmdInsights(const std::string& name, const WorkloadSpec& workload,
                const std::string& model_dir) {
  std::optional<Program> program = LoadElement(name);
  if (!program) {
    return 2;
  }
  if (!model_dir.empty()) {
    TrainedBundle bundle;
    if (!LoadBundle(model_dir, &bundle)) {
      return 1;
    }
    ClaraAnalyzer analyzer(CliAnalyzerOptions(), std::move(bundle));
    analyzer.SetInferBackend(g_infer);
    OffloadingInsights insights = analyzer.Analyze(std::move(*program), workload);
    std::printf("%s", insights.ToString(analyzer.perf_model().config()).c_str());
    return 0;
  }
  ClaraAnalyzer analyzer = TrainAnalyzer();
  analyzer.SetInferBackend(g_infer);
  OffloadingInsights insights = analyzer.Analyze(std::move(*program), workload);
  std::printf("%s", insights.ToString(analyzer.perf_model().config()).c_str());
  return 0;
}

// One NF's telemetry report: profile, compile, evaluate at the optimal core
// count, then print utilization + attribution + rule firings.
int ReportOne(const std::string& name, const WorkloadSpec& workload, const NicConfig& cfg) {
  CLARA_TRACE_SPAN("cli.report_nf", "cli");
  std::optional<Program> program = LoadElement(name);
  if (!program) {
    return 1;  // the report goes on over the rest of the list
  }
  NfInstance nf = [&] {
    obs::StageTimer t("cli.lower", "cli.stage_ms.lower", "cli");
    return NfInstance(std::move(*program));
  }();
  if (!nf.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", name.c_str(), nf.error().c_str());
    return 1;
  }
  {
    obs::StageTimer t("cli.profile", "cli.stage_ms.profile", "cli");
    Trace trace = GenerateTrace(workload, 4000);
    for (auto& pkt : trace.packets) {
      pkt.in_port = pkt.src_ip & 1;
      nf.Process(pkt);
    }
  }
  NicProgram nic;
  NfDemand demand;
  {
    obs::StageTimer t("cli.demand", "cli.stage_ms.demand", "cli");
    nic = CompileToNic(nf.module());
    demand = BuildDemand(nf.module(), nic, nf.profile(), workload, cfg);
  }
  PerfModel model(cfg);
  PerfPoint p;
  int cores = 0;
  {
    obs::StageTimer t("cli.evaluate", "cli.stage_ms.evaluate", "cli");
    cores = model.OptimalCores(demand);
    p = model.Evaluate(demand, cores);
  }

  std::printf("=== %s (%s workload) ===\n", name.c_str(), workload.name.c_str());
  std::printf("%llu packets profiled; %.3f state accesses/pkt; arithmetic intensity %.2f\n",
              static_cast<unsigned long long>(nf.profile().packets),
              demand.TotalStateAccesses(), demand.ArithmeticIntensity());
  std::printf("operating point: %.2f Mpps / %.2f us at %d cores\n", p.throughput_mpps,
              p.latency_us, cores);
  std::printf("bottleneck: %s (rho=%.2f)\n", p.breakdown.bound_resource,
              p.breakdown.bound_rho);
  std::printf("per-region utilization:\n");
  for (int r = 0; r < kNumMemRegions; ++r) {
    if (!p.breakdown.region_used[r]) {
      continue;
    }
    std::printf("  %-6s rho=%5.2f  eff-latency=%8.1f cyc\n",
                MemRegionName(static_cast<MemRegion>(r)), p.breakdown.region_rho[r],
                p.breakdown.region_latency_cycles[r]);
  }
  if (p.breakdown.cache_used) {
    std::printf("  %-6s rho=%5.2f  eff-latency=%8.1f cyc\n", "EMEM$", p.breakdown.cache_rho,
                p.breakdown.cache_latency_cycles);
  }
  if (p.breakdown.pkt_used) {
    std::printf("  %-6s rho=%5.2f  eff-latency=%8.1f cyc\n", "PKT", p.breakdown.pkt_rho,
                p.breakdown.pkt_latency_cycles);
  }
  std::printf("  %-6s rho=%5.2f  (compute %.1f cyc + mem wait %.1f cyc per pkt)\n", "cores",
              p.breakdown.core_rho, p.breakdown.compute_cycles, p.breakdown.mem_cycles);
  PrintRuleFirings(nic.rules);
  std::printf("\n");
  return 0;
}

// Runs the named elements through the serve engine (each twice, so the
// result cache gets both misses and hits) purely to populate the serve.*
// metrics that the report renders below.
int ReportServe(const std::vector<std::string>& names, const WorkloadSpec& workload,
                const std::string& model_dir) {
  TrainedBundle bundle;
  if (!LoadBundle(model_dir, &bundle)) {
    return 1;
  }
  serve::ServeOptions serve_opts;
  serve_opts.infer_backend = g_infer;
  serve::ServeEngine engine(std::move(bundle), serve_opts);
  engine.Start();
  uint64_t id = 0;
  std::vector<std::future<serve::InsightResponse>> futures;
  for (int round = 0; round < 2; ++round) {
    for (const auto& name : names) {
      serve::InsightRequest req;
      req.id = ++id;
      req.element = ElementName(name);
      req.workload = workload;
      futures.push_back(engine.Submit(std::move(req)));
    }
  }
  int errors = 0;
  for (auto& f : futures) {
    serve::InsightResponse resp = f.get();
    if (resp.error != serve::ErrorCode::kOk) {
      std::fprintf(stderr, "serve error: %s: %s\n", serve::ErrorCodeName(resp.error),
                   resp.error_message.c_str());
      ++errors;
    }
  }
  engine.Stop();
  std::printf("=== serve (%zu requests, %zu cached results) ===\n", futures.size(),
              engine.cache_entries());
  // The same health document a live daemon serves for `clara_client health`.
  std::printf("health: %s\n", engine.HealthJson().c_str());
  return errors == 0 ? 0 : 1;
}

int CmdReport(std::vector<std::string> names, const WorkloadSpec& workload,
              const std::string& model_dir) {
  obs::SetEnabled(true);
  if (names.empty()) {
    for (const auto& info : ElementRegistry()) {
      names.push_back(info.name);
    }
  }
  NicConfig cfg;
  int rc = 0;
  for (const auto& name : names) {
    rc |= ReportOne(ElementName(name), workload, cfg);
  }
  if (!model_dir.empty()) {
    rc |= ReportServe(names, workload, model_dir);
  }
  std::printf("=== metrics registry ===\n%s",
              obs::MetricsRegistry::Global().Render().c_str());
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string jsonl_path;
  std::string metrics_path;
  std::string model_dir;
  bool fast = false;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--fast") {
      fast = true;
    } else if (a.rfind("--trace=", 0) == 0) {
      trace_path = a.substr(strlen("--trace="));
    } else if (a.rfind("--trace-jsonl=", 0) == 0) {
      jsonl_path = a.substr(strlen("--trace-jsonl="));
    } else if (a.rfind("--metrics-json=", 0) == 0) {
      metrics_path = a.substr(strlen("--metrics-json="));
    } else if (a.rfind("--model-dir=", 0) == 0) {
      model_dir = a.substr(strlen("--model-dir="));
    } else if (a.rfind("--threads=", 0) == 0) {
      clara::SetNumThreads(std::atoi(a.c_str() + strlen("--threads=")));
    } else if (a.rfind("--infer=", 0) == 0) {
      if (!ParseInferBackend(a.substr(strlen("--infer=")), &g_infer)) {
        std::fprintf(stderr, "unknown --infer backend: %s\n",
                     a.c_str() + strlen("--infer="));
        return Usage();
      }
    } else if (a.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return Usage();
    } else {
      args.push_back(std::move(a));
    }
  }

  obs::TraceSink sink;
  bool tracing = !trace_path.empty() || !jsonl_path.empty();
  if (tracing || !metrics_path.empty()) {
    obs::SetEnabled(true);
  }
  if (tracing) {
    obs::SetGlobalTrace(&sink);
  }

  int rc = 2;
  if (args.empty()) {
    rc = Usage();
  } else {
    const std::string& cmd = args[0];
    if (cmd == "list") {
      rc = CmdList();
    } else if (cmd == "train") {
      rc = CmdTrain(model_dir, fast);
    } else if (cmd == "report") {
      rc = CmdReport(std::vector<std::string>(args.begin() + 1, args.end()),
                     WorkloadSpec::SmallFlows(), model_dir);
    } else if (args.size() < 2) {
      rc = Usage();
    } else {
      std::string element = ElementName(args[1]);
      if (cmd == "show") {
        rc = CmdShow(element);
      } else if (cmd == "ir") {
        rc = CmdIr(element);
      } else if (cmd == "asm") {
        rc = CmdAsm(element);
      } else if (cmd == "profile") {
        rc = CmdProfile(element, PickWorkload(args, 2));
      } else if (cmd == "insights") {
        rc = CmdInsights(element, PickWorkload(args, 2), model_dir);
      } else {
        rc = Usage();
      }
    }
  }

  obs::SetGlobalTrace(nullptr);
  if (!trace_path.empty() && !sink.WriteChromeJson(trace_path)) {
    std::fprintf(stderr, "failed to write trace to %s\n", trace_path.c_str());
    rc = rc == 0 ? 1 : rc;
  }
  if (!jsonl_path.empty() && !sink.WriteJsonl(jsonl_path)) {
    std::fprintf(stderr, "failed to write trace JSONL to %s\n", jsonl_path.c_str());
    rc = rc == 0 ? 1 : rc;
  }
  if (!metrics_path.empty()) {
    FILE* f = std::fopen(metrics_path.c_str(), "w");
    if (f != nullptr) {
      std::string json = obs::MetricsRegistry::Global().ToJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "failed to write metrics to %s\n", metrics_path.c_str());
      rc = rc == 0 ? 1 : rc;
    }
  }
  return rc;
}
