#include "src/core/analyzer.h"

#include <sstream>

#include "src/lang/interp.h"
#include "src/nic/backend.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "src/util/binio.h"
#include "src/workload/workload.h"

namespace clara {

std::string OffloadingInsights::ToString(const NicConfig& cfg) const {
  std::ostringstream os;
  os << "=== Clara offloading insights for '" << nf_name << "' ===\n";
  os << "[prediction]   compute instrs/pkt-path: " << prediction.total_compute
     << ", stateful mem instrs: " << prediction.total_mem_state << "\n";
  os << "[accelerator]  " << AccelClassName(accelerator);
  if (accelerator != AccelClass::kNone) {
    os << "  -> rewrite the matching block to use the " << AccelClassName(accelerator)
       << " engine";
  }
  os << "\n";
  os << "[scale-out]    suggested cores: " << suggested_cores << " / " << cfg.num_cores
     << "\n";
  os << "[placement]    ";
  for (const auto& [var, region] : placement.placement) {
    os << var << "->" << MemRegionName(region) << " ";
  }
  os << "(ILP nodes: " << placement.ilp_nodes << ")\n";
  os << "[coalescing]   " << coalescing.packs.size() << " pack(s):";
  for (const auto& pack : coalescing.packs) {
    os << " {";
    for (size_t i = 0; i < pack.vars.size(); ++i) {
      os << (i > 0 ? "," : "") << pack.vars[i];
    }
    os << "|" << pack.pack_bytes << "B}";
  }
  os << "\n";
  os << "[estimate]     naive: " << naive_perf.throughput_mpps << " Mpps / "
     << naive_perf.latency_us << " us;  tuned: " << tuned_perf.throughput_mpps << " Mpps / "
     << tuned_perf.latency_us << " us\n";
  return os.str();
}

void TrainedBundle::SaveTo(BinWriter& w) const {
  w.U16(0x5442);  // "TB"
  SaveSynthProfile(w, synth_profile);
  predictor.SaveTo(w);
  algo_id.SaveTo(w);
  scaleout.SaveTo(w);
  colocation.SaveTo(w);
}

bool TrainedBundle::LoadFrom(BinReader& r) {
  if (r.U16() != 0x5442) {
    r.Fail("trained bundle: bad section tag");
    return false;
  }
  return LoadSynthProfile(r, &synth_profile) && predictor.LoadFrom(r) &&
         algo_id.LoadFrom(r) && scaleout.LoadFrom(r) && colocation.LoadFrom(r);
}

ClaraAnalyzer::ClaraAnalyzer(AnalyzerOptions opts)
    : opts_(std::move(opts)), perf_model_(opts_.nic) {}

ClaraAnalyzer::ClaraAnalyzer(AnalyzerOptions opts, TrainedBundle bundle)
    : opts_(std::move(opts)),
      perf_model_(opts_.nic),
      synth_profile_(std::move(bundle.synth_profile)),
      predictor_(std::move(bundle.predictor)),
      algo_id_(std::move(bundle.algo_id)),
      scaleout_(std::move(bundle.scaleout)),
      colocation_(std::move(bundle.colocation)) {
  trained_ = predictor_.trained() && algo_id_.trained() && scaleout_.trained() &&
             colocation_.trained();
}

TrainedBundle ClaraAnalyzer::ExportTrained() const {
  TrainedBundle b;
  b.synth_profile = synth_profile_;
  b.predictor = predictor_;
  b.algo_id = algo_id_;
  b.scaleout = scaleout_;
  b.colocation = colocation_;
  return b;
}

void ClaraAnalyzer::Train(const std::vector<const Program*>& click_corpus) {
  obs::StageTimer train_timer("core.analyzer.train", "core.analyzer.stage_ms.train");
  {
    // §3.2: guide the synthesizer by the real corpus' AST distribution.
    obs::StageTimer t("core.analyzer.train.measure_corpus",
                      "core.analyzer.stage_ms.measure_corpus");
    synth_profile_ = MeasureCorpus(click_corpus);
  }
  {
    obs::StageTimer t("core.analyzer.train.predictor", "core.analyzer.stage_ms.predictor");
    PredictorOptions popts = opts_.predictor;
    popts.synth.profile = synth_profile_;
    predictor_ = InstructionPredictor(popts);
    predictor_.Train();
  }
  {
    obs::StageTimer t("core.analyzer.train.algo_id", "core.analyzer.stage_ms.algo_id");
    algo_id_ = AlgorithmIdentifier(opts_.algo_id);
    algo_id_.Train(BuildAlgorithmCorpus(opts_.algo_corpus_per_class, opts_.seed));
  }
  {
    obs::StageTimer t("core.analyzer.train.scaleout", "core.analyzer.stage_ms.scaleout");
    ScaleOutOptions sopts = opts_.scaleout;
    sopts.synth.profile = synth_profile_;
    scaleout_ = ScaleOutAdvisor(sopts);
    scaleout_.Train(perf_model_, {WorkloadSpec::LargeFlows(), WorkloadSpec::SmallFlows()});
  }
  {
    obs::StageTimer t("core.analyzer.train.colocation", "core.analyzer.stage_ms.colocation");
    ColocationOptions copts = opts_.colocation;
    copts.synth.profile = synth_profile_;
    colocation_ = ColocationRanker(copts);
    colocation_.Train(perf_model_, WorkloadSpec::SmallFlows());
  }
  trained_ = true;
}

OffloadingInsights ClaraAnalyzer::Analyze(Program program, const WorkloadSpec& workload) const {
  obs::StageTimer analyze_timer("core.analyzer.analyze", "core.analyzer.stage_ms.analyze");
  NfInstance nf = [&] {
    obs::StageTimer t("core.analyzer.lower", "core.analyzer.stage_ms.lower");
    return NfInstance(std::move(program));
  }();
  if (!nf.ok()) {
    OffloadingInsights out;
    out.nf_name = nf.program().name;
    return out;
  }
  NfPrediction prediction = [&] {
    obs::StageTimer t("core.analyzer.predict", "core.analyzer.stage_ms.predict");
    return predictor_.PredictNf(nf.module());
  }();
  return Analyze(nf, workload, std::move(prediction));
}

OffloadingInsights ClaraAnalyzer::Analyze(NfInstance& nf, const WorkloadSpec& workload,
                                          NfPrediction prediction) const {
  OffloadingInsights out;
  out.nf_name = nf.program().name;
  out.prediction = std::move(prediction);
  {
    // Workload-specific profiling on the host (paper §4.3: run the NF with
    // its reverse-ported data structures on the specified workload).
    obs::StageTimer t("core.analyzer.profile", "core.analyzer.stage_ms.profile");
    Trace trace = GenerateTrace(workload, opts_.profile_packets);
    for (auto& pkt : trace.packets) {
      nf.Process(pkt);
    }
  }
  const Module& m = nf.module();
  {
    obs::StageTimer t("core.analyzer.classify", "core.analyzer.stage_ms.classify");
    out.accelerator = algo_id_.Classify(m);
  }

  NicProgram nic;
  NfDemand naive;
  {
    obs::StageTimer t("core.analyzer.demand", "core.analyzer.stage_ms.demand");
    nic = CompileToNic(m, opts_.predictor.backend);
    naive = BuildDemand(m, nic, nf.profile(), workload, opts_.nic);
  }

  {
    obs::StageTimer t("core.analyzer.scaleout", "core.analyzer.stage_ms.scaleout_advise");
    out.suggested_cores = scaleout_.trained() ? scaleout_.SuggestCores(naive)
                                              : perf_model_.OptimalCores(naive);
  }
  {
    obs::StageTimer t("core.analyzer.placement", "core.analyzer.stage_ms.placement");
    out.placement = PlaceState(m, nf.profile(), workload, opts_.nic);
  }
  {
    obs::StageTimer t("core.analyzer.coalescing", "core.analyzer.stage_ms.coalescing");
    out.coalescing = SuggestCoalescing(m, nf.profile());
  }

  {
    obs::StageTimer t("core.analyzer.evaluate", "core.analyzer.stage_ms.evaluate");
    DemandOptions tuned_opts;
    tuned_opts.placement = out.placement.placement;
    tuned_opts.coalescing = out.coalescing.effects;
    NfDemand tuned = BuildDemand(m, nic, nf.profile(), workload, opts_.nic, tuned_opts);
    out.naive_perf = perf_model_.Evaluate(naive, out.suggested_cores);
    out.tuned_perf = perf_model_.Evaluate(tuned, out.suggested_cores);
  }
  if (obs::Enabled()) {
    obs::MetricsRegistry::Global().GetCounter("core.analyzer.analyses").Add(1);
  }
  return out;
}

}  // namespace clara
