#include "src/core/colocation.h"

#include <algorithm>
#include <cmath>

#include "src/lang/interp.h"
#include "src/nic/backend.h"
#include "src/nic/demand.h"
#include "src/util/binio.h"
#include "src/util/parallel.h"

namespace clara {

void ColocationRanker::SaveTo(BinWriter& w) const {
  w.U16(0x4352);  // "CR"
  w.Bool(trained_);
  ranker_.SaveTo(w);
}

bool ColocationRanker::LoadFrom(BinReader& r) {
  if (r.U16() != 0x4352) {
    r.Fail("colocation: bad section tag");
    return false;
  }
  bool trained = r.Bool();
  GbdtRanker ranker;
  if (!ranker.LoadFrom(r)) {
    return false;
  }
  trained_ = trained;
  ranker_ = std::move(ranker);
  return true;
}

const char* RankObjectiveName(RankObjective o) {
  switch (o) {
    case RankObjective::kTotalThroughput: return "Th.Tot.";
    case RankObjective::kAverageThroughput: return "Th.Avg.";
    case RankObjective::kTotalLatency: return "Lat.Tot.";
    case RankObjective::kAverageLatency: return "Lat.Avg.";
  }
  return "?";
}

double PairOutcome::Friendliness(RankObjective o) const {
  switch (o) {
    case RankObjective::kTotalThroughput:
      return (tput_a_coloc + tput_b_coloc) / std::max(1e-9, tput_a_solo + tput_b_solo);
    case RankObjective::kAverageThroughput:
      return 0.5 * (tput_a_coloc / std::max(1e-9, tput_a_solo) +
                    tput_b_coloc / std::max(1e-9, tput_b_solo));
    case RankObjective::kTotalLatency:
      return (lat_a_solo + lat_b_solo) / std::max(1e-9, lat_a_coloc + lat_b_coloc);
    case RankObjective::kAverageLatency:
      return 0.5 * (lat_a_solo / std::max(1e-9, lat_a_coloc) +
                    lat_b_solo / std::max(1e-9, lat_b_coloc));
  }
  return 0;
}

PairOutcome MeasurePair(const PerfModel& model, const NfDemand& a, const NfDemand& b) {
  PairOutcome o;
  int cores = model.config().num_cores;
  int half = std::max(1, cores / 2);
  // Solo baselines use the same per-NF core budget as the colocated run, so
  // degradation isolates memory-system interference (paper: "each NF is
  // given the same amount of SmartNIC resources").
  PerfPoint a_solo = model.Evaluate(a, half);
  PerfPoint b_solo = model.Evaluate(b, half);
  auto [a_co, b_co] = model.EvaluatePair(a, half, b, half);
  o.tput_a_solo = a_solo.throughput_mpps;
  o.tput_b_solo = b_solo.throughput_mpps;
  o.lat_a_solo = a_solo.latency_us;
  o.lat_b_solo = b_solo.latency_us;
  o.tput_a_coloc = a_co.throughput_mpps;
  o.tput_b_coloc = b_co.throughput_mpps;
  o.lat_a_coloc = a_co.latency_us;
  o.lat_b_coloc = b_co.latency_us;
  return o;
}

FeatureVec ColocationRanker::PairFeatures(const NfDemand& a, const NfDemand& b) {
  auto dram_words = [](const NfDemand& d) {
    double words = 0;
    for (const auto& s : d.state) {
      if (s.region == MemRegion::kEmem) {
        words += s.accesses_per_pkt * s.words_per_access * (1 - s.cache_hit_rate);
      }
    }
    return words;
  };
  double ai_a = a.ArithmeticIntensity();
  double ai_b = b.ArithmeticIntensity();
  return FeatureVec{
      ai_a,
      ai_b,
      a.compute_cycles,
      b.compute_cycles,
      ai_a / std::max(1e-9, ai_b),
      a.TotalStateAccesses(),
      b.TotalStateAccesses(),
      dram_words(a),
      dram_words(b),
      dram_words(a) + dram_words(b),
  };
}

void ColocationRanker::Train(const PerfModel& model, const WorkloadSpec& workload) {
  Rng rng(opts_.seed);
  std::vector<Program> programs = SynthesizeCorpus(opts_.train_nfs, opts_.synth, opts_.seed);

  // Profile each NF once to build its demand. Each program is independent, so
  // the profile runs fan out across the pool; results are collected (and
  // failed instantiations dropped) in program order to match a serial run.
  struct MaybeDemand {
    bool ok = false;
    NfDemand demand;
  };
  std::vector<MaybeDemand> profiled =
      ParallelMap<MaybeDemand>(programs.size(), [&](size_t i) {
        MaybeDemand out;
        NfInstance nf(std::move(programs[i]));
        if (!nf.ok()) {
          return out;
        }
        NicProgram nic = CompileToNic(nf.module());
        Trace trace = GenerateTrace(workload, 600);
        for (auto& pkt : trace.packets) {
          nf.Process(pkt);
        }
        out.demand = BuildDemand(nf.module(), nic, nf.profile(), workload, model.config());
        out.ok = true;
        return out;
      });
  std::vector<NfDemand> demands;
  demands.reserve(profiled.size());
  for (MaybeDemand& md : profiled) {
    if (md.ok) {
      demands.push_back(std::move(md.demand));
    }
  }
  if (demands.size() < opts_.group_size) {
    return;
  }

  // Sample groups of candidate pairings; relevance = measured friendliness.
  // The rng draws stay serial (one shared stream decides the pairings), then
  // the expensive pair measurements fan out and are assembled in draw order.
  struct PairDraw {
    size_t anchor = 0;
    size_t other = 0;
  };
  std::vector<PairDraw> draws;
  draws.reserve(opts_.train_groups * opts_.group_size);
  for (size_t g = 0; g < opts_.train_groups; ++g) {
    size_t anchor = rng.NextBounded(demands.size());
    for (size_t i = 0; i < opts_.group_size; ++i) {
      draws.push_back(PairDraw{anchor, rng.NextBounded(demands.size())});
    }
  }
  std::vector<double> relevance = ParallelMap<double>(draws.size(), [&](size_t i) {
    PairOutcome outcome = MeasurePair(model, demands[draws[i].anchor], demands[draws[i].other]);
    return outcome.Friendliness(opts_.objective);
  });
  std::vector<RankGroup> groups;
  groups.reserve(opts_.train_groups);
  for (size_t g = 0; g < opts_.train_groups; ++g) {
    RankGroup group;
    for (size_t i = 0; i < opts_.group_size; ++i) {
      size_t idx = g * opts_.group_size + i;
      group.items.push_back(PairFeatures(demands[draws[idx].anchor], demands[draws[idx].other]));
      group.relevance.push_back(relevance[idx]);
    }
    groups.push_back(std::move(group));
  }
  ranker_ = GbdtRanker(opts_.gbdt);
  ranker_.Fit(groups);
  trained_ = true;
}

double ColocationRanker::ScorePair(const NfDemand& a, const NfDemand& b) const {
  return ranker_.Score(PairFeatures(a, b));
}

}  // namespace clara
