#include "src/core/scaleout.h"

#include <algorithm>
#include <cmath>

#include "src/lang/interp.h"
#include "src/nic/backend.h"
#include "src/util/binio.h"
#include "src/util/parallel.h"
#include "src/workload/workload.h"

namespace clara {

void ScaleOutAdvisor::SaveTo(BinWriter& w) const {
  w.U16(0x534F);  // "SO"
  w.Bool(trained_);
  w.I32(num_cores_);
  gbdt_.SaveTo(w);
}

bool ScaleOutAdvisor::LoadFrom(BinReader& r) {
  if (r.U16() != 0x534F) {
    r.Fail("scale-out: bad section tag");
    return false;
  }
  bool trained = r.Bool();
  int num_cores = r.I32();
  if (r.ok() && num_cores <= 0) {
    r.Fail("scale-out: non-positive core count");
    return false;
  }
  GbdtRegressor gbdt;
  if (!gbdt.LoadFrom(r)) {
    return false;
  }
  trained_ = trained;
  num_cores_ = num_cores;
  gbdt_ = std::move(gbdt);
  dataset_ = TabularDataset{};
  return true;
}

FeatureVec ScaleOutAdvisor::Features(const NfDemand& d) {
  double state_accesses = d.TotalStateAccesses();
  double cache_words = 0;
  double dram_words = 0;
  double sram_words = 0;
  for (const auto& s : d.state) {
    double words = s.accesses_per_pkt * s.words_per_access;
    if (s.region == MemRegion::kEmem) {
      cache_words += words * s.cache_hit_rate;
      dram_words += words * (1 - s.cache_hit_rate);
    } else {
      sram_words += words;
    }
  }
  return FeatureVec{
      d.compute_cycles,
      d.engine_cycles,
      state_accesses,
      d.pkt_accesses,
      d.ArithmeticIntensity(),
      cache_words,
      dram_words,
      sram_words,
      d.wire_bytes,
  };
}

void ScaleOutAdvisor::Train(const PerfModel& model, const std::vector<WorkloadSpec>& workloads) {
  num_cores_ = model.config().num_cores;
  std::vector<Program> programs =
      SynthesizeCorpus(opts_.train_programs, opts_.synth, opts_.seed);
  dataset_ = TabularDataset{};
  // Each program's profile + schedule sweep is independent: fan the corpus
  // out across the pool and splice the rows back in program order, so the
  // dataset matches a serial run exactly.
  struct ProgramRows {
    std::vector<FeatureVec> x;
    std::vector<double> y;
  };
  std::vector<ProgramRows> rows = ParallelMap<ProgramRows>(programs.size(), [&](size_t i) {
    ProgramRows out;
    NfInstance nf(std::move(programs[i]));
    if (!nf.ok()) {
      return out;
    }
    NicProgram nic = CompileToNic(nf.module());
    for (const auto& w : workloads) {
      nf.ResetState();
      nf.ResetProfile();
      Trace trace = GenerateTrace(w, 800);
      for (auto& pkt : trace.packets) {
        nf.Process(pkt);
      }
      NfDemand demand = BuildDemand(nf.module(), nic, nf.profile(), w, model.config());
      // "Schedule" sweep: the training label is the measured-optimal core
      // count on the NIC.
      int optimal = model.OptimalCores(demand);
      out.x.push_back(Features(demand));
      out.y.push_back(optimal);
    }
    return out;
  });
  for (ProgramRows& r : rows) {
    for (size_t k = 0; k < r.x.size(); ++k) {
      dataset_.x.push_back(std::move(r.x[k]));
      dataset_.y.push_back(r.y[k]);
    }
  }
  gbdt_ = GbdtRegressor(opts_.gbdt);
  gbdt_.Fit(dataset_);
  trained_ = true;
}

int ScaleOutAdvisor::SuggestCores(const NfDemand& demand) const {
  double y = gbdt_.Predict(Features(demand));
  return std::clamp(static_cast<int>(std::lround(y)), 1, num_cores_);
}

}  // namespace clara
