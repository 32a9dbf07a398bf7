#include "src/core/predictor.h"

#include "src/lang/lower.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "src/util/binio.h"
#include "src/util/parallel.h"

namespace clara {

void InstructionPredictor::SaveTo(BinWriter& w) const {
  w.U16(0x4950);  // "IP"
  w.Bool(trained_);
  // PredictBlock re-encodes blocks under the trained abstraction mode.
  w.U8(static_cast<uint8_t>(opts_.abstraction));
  vocab_.SaveTo(w);
  lstm_.SaveTo(w);
}

bool InstructionPredictor::LoadFrom(BinReader& r) {
  if (r.U16() != 0x4950) {
    r.Fail("predictor: bad section tag");
    return false;
  }
  bool trained = r.Bool();
  uint8_t mode = r.U8();
  if (r.ok() && mode > static_cast<uint8_t>(AbstractionMode::kRaw)) {
    r.Fail("predictor: unknown abstraction mode");
    return false;
  }
  Vocabulary vocab;
  LstmRegressor lstm;
  if (!vocab.LoadFrom(r) || !lstm.LoadFrom(r)) {
    return false;
  }
  trained_ = trained;
  opts_.abstraction = static_cast<AbstractionMode>(mode);
  vocab_ = std::move(vocab);
  lstm_ = std::move(lstm);
  dataset_ = SeqDataset{};
  return true;
}

std::vector<BlockTruth> CompileGroundTruth(const Module& m, const NicBackendOptions& opts) {
  NicProgram prog = CompileToNic(m, opts);
  std::vector<BlockTruth> out;
  out.reserve(prog.blocks.size());
  for (const auto& b : prog.blocks) {
    out.push_back(BlockTruth{b.counts.compute, b.counts.mem_state});
  }
  return out;
}

void InstructionPredictor::Train() {
  obs::StageTimer train_timer("core.predictor.train", "core.predictor.stage_ms.train");
  std::vector<Program> corpus = [&] {
    obs::StageTimer t("core.predictor.synthesize", "core.predictor.stage_ms.synthesize");
    return SynthesizeCorpus(opts_.train_programs, opts_.synth, opts_.seed);
  }();
  dataset_ = SeqDataset{};
  {
    // Lower + compile the synthetic corpus to get ground-truth labels. The
    // lower/compile pass is data-parallel across programs; the vocabulary
    // encode stays serial and in corpus order because token interning is
    // order-sensitive — this keeps the dataset, and therefore the trained
    // model, bit-identical to a fully serial run at any thread count.
    obs::StageTimer t("core.predictor.label", "core.predictor.stage_ms.label");
    struct Labeled {
      bool ok = false;
      LowerResult lr;
      NicProgram nic;
    };
    std::vector<Labeled> labeled = ParallelMap<Labeled>(corpus.size(), [&](size_t i) {
      Labeled out;
      out.lr = LowerProgram(corpus[i]);
      if (!out.lr.ok) {
        return out;  // synthesized programs always lower; defensive
      }
      out.nic = CompileToNic(out.lr.module, opts_.backend);
      out.ok = true;
      return out;
    });
    for (const Labeled& lab : labeled) {
      if (!lab.ok) {
        continue;
      }
      const Function& f = lab.lr.module.functions[0];
      for (size_t b = 0; b < f.blocks.size(); ++b) {
        const BasicBlock& blk = f.blocks[b];
        if (blk.instrs.size() < 2) {
          continue;  // trivial terminator-only blocks carry no signal
        }
        SeqExample ex;
        ex.tokens = vocab_.Encode(blk, lab.lr.module, opts_.abstraction);
        ex.target = static_cast<double>(lab.nic.blocks[b].counts.compute);
        dataset_.examples.push_back(std::move(ex));
      }
    }
  }
  vocab_.Freeze();
  dataset_.vocab = vocab_.size();
  {
    obs::StageTimer t("core.predictor.fit", "core.predictor.stage_ms.fit");
    lstm_ = LstmRegressor(opts_.lstm);
    lstm_.Fit(dataset_);
  }
  if (obs::Enabled()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    reg.GetGauge("core.predictor.train_examples")
        .Set(static_cast<double>(dataset_.examples.size()));
    reg.GetGauge("core.predictor.vocab_size").Set(static_cast<double>(vocab_.size()));
    reg.GetGauge("core.predictor.train_wmape").Set(lstm_.train_wmape());
  }
  trained_ = true;
}

BlockPrediction InstructionPredictor::PredictBlock(const Module& m,
                                                   const BasicBlock& block) const {
  BlockPrediction p;
  // Memory accesses: counted directly from the IR (paper §3.2).
  BlockCounts counts = CountBlock(block);
  p.mem_state = counts.stateful_mem;
  p.mem_stateless = counts.stateless_mem;
  p.api_calls = counts.api_calls;
  // Compute instructions: learned approximation of the opaque compiler. A
  // trained vocabulary is frozen, so Vocabulary::Encode would only look words
  // up; looking them up here keeps an untrained predictor read-only too.
  std::vector<int> tokens;
  for (const std::string& word : AbstractBlock(block, m, opts_.abstraction)) {
    tokens.push_back(vocab_.Lookup(word));
  }
  p.compute = lstm_.Predict(tokens);
  return p;
}

NfPrediction InstructionPredictor::PredictNf(const Module& m) const {
  const std::vector<BasicBlock>& blocks = m.functions.at(0).blocks;
  NfPrediction out;
  out.blocks = ParallelMap<BlockPrediction>(
      blocks.size(), [&](size_t b) { return PredictBlock(m, blocks[b]); });
  for (const BlockPrediction& bp : out.blocks) {
    out.total_compute += bp.compute;
    out.total_mem_state += bp.mem_state;
  }
  return out;
}

}  // namespace clara
