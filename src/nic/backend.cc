#include "src/nic/backend.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <vector>

#include "src/nic/api_profile.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"

namespace clara {
namespace {

bool IsPow2(int64_t v) { return v > 0 && (v & (v - 1)) == 0; }

uint8_t Log2Pow2(int64_t v) {
  uint8_t n = 0;
  while (v > 1) {
    v >>= 1;
    ++n;
  }
  return n;
}

// Extra instructions needed to materialize a constant operand.
int ImmedCost(int64_t imm) {
  int64_t a = std::llabs(imm);
  if (a < 256) {
    return 0;
  }
  if (a < 65536) {
    return 1;
  }
  return 2;
}

NicRef Ref(const Value& v) {
  if (v.is_reg()) {
    return NicRef::R(v.reg);
  }
  if (v.is_const()) {
    return NicRef::I(v.imm);
  }
  return NicRef{};
}

NicAlu AluFor(Opcode op) {
  switch (op) {
    case Opcode::kAdd: return NicAlu::kAdd;
    case Opcode::kSub: return NicAlu::kSub;
    case Opcode::kAnd: return NicAlu::kAnd;
    case Opcode::kOr: return NicAlu::kOr;
    case Opcode::kXor: return NicAlu::kXor;
    case Opcode::kShl: return NicAlu::kShl;
    case Opcode::kLShr: return NicAlu::kShr;
    case Opcode::kAShr: return NicAlu::kAsr;
    default: return NicAlu::kNone;
  }
}

NicCc CcFor(Opcode op) {
  switch (op) {
    case Opcode::kIcmpEq: return NicCc::kEq;
    case Opcode::kIcmpNe: return NicCc::kNe;
    case Opcode::kIcmpUlt: return NicCc::kUlt;
    case Opcode::kIcmpUle: return NicCc::kUle;
    case Opcode::kIcmpUgt: return NicCc::kUgt;
    case Opcode::kIcmpUge: return NicCc::kUge;
    default: return NicCc::kNone;
  }
}

struct BlockInfo {
  std::map<uint32_t, Opcode> def_op;  // reg -> defining opcode (within block)
  std::map<uint32_t, int> uses;       // reg -> number of uses within block
  std::map<uint32_t, bool> only_store_uses;
};

BlockInfo AnalyzeBlock(const BasicBlock& b) {
  BlockInfo info;
  for (const auto& i : b.instrs) {
    if (i.result != 0) {
      info.def_op[i.result] = i.op;
      info.only_store_uses[i.result] = true;
    }
    for (size_t k = 0; k < i.operands.size(); ++k) {
      const Value& v = i.operands[k];
      if (v.is_reg()) {
        ++info.uses[v.reg];
        bool is_store_value = i.op == Opcode::kStore && k == 0;
        if (!is_store_value) {
          info.only_store_uses[v.reg] = false;
        }
      }
    }
  }
  return info;
}

class BlockTranslator {
 public:
  BlockTranslator(const Module& m, const Function& f, const NicBackendOptions& opts,
                  const std::set<uint32_t>& spilled_slots,
                  const std::map<uint32_t, Type>& reg_types, const BasicBlock& block,
                  RuleFirings* rules)
      : m_(m), f_(f), opts_(opts), spilled_(spilled_slots), reg_types_(reg_types),
        block_(block), info_(AnalyzeBlock(block)), rules_(rules) {}

  NicBlock Run() {
    for (size_t idx = 0; idx < block_.instrs.size(); ++idx) {
      Translate(block_.instrs[idx], idx);
    }
    for (const auto& ni : out_.instrs) {
      out_.issue_cycles += NicIssueCycles(ni.op);
      if (IsNicCompute(ni.op)) {
        if (ni.from_api) {
          ++out_.counts.api_compute;
        } else {
          ++out_.counts.compute;
        }
      } else if (ni.op == NicOp::kLmemRead || ni.op == NicOp::kLmemWrite) {
        ++out_.counts.mem_lmem;
      } else if (IsNicMem(ni.op)) {
        if (ni.space == AddressSpace::kState) {
          ++out_.counts.mem_state;
          out_.counts.state_words += ni.words;
        } else {
          ++out_.counts.mem_packet;
          out_.counts.pkt_words += ni.words;
        }
      }
    }
    return std::move(out_);
  }

 private:
  void Emit(NicOp op, bool from_api = false) {
    NicInstr i;
    i.op = op;
    i.from_api = from_api;
    out_.instrs.push_back(i);
  }

  void EmitN(NicOp op, int n, bool from_api = false) {
    for (int k = 0; k < n; ++k) {
      Emit(op, from_api);
    }
  }

  // Last emitted instruction; used to attach the executable payload of a
  // macro-op to its semantic carrier immediately after emission.
  NicInstr& Last() { return out_.instrs.back(); }

  // Records a zero-cost architectural register move (see NicMove).
  void EmitMove(uint32_t dst, NicRef src, Type vtype) {
    out_.moves.push_back(
        NicMove{static_cast<uint32_t>(out_.instrs.size()), dst, src, vtype});
  }

  // Emits a shared-memory access and returns its index in the output.
  size_t EmitMem(NicOp op, AddressSpace space, uint32_t sym, int words, bool from_api = false) {
    NicInstr i;
    i.op = op;
    i.space = space;
    i.sym = sym;
    i.words = static_cast<uint8_t>(std::min(words, 32));
    i.from_api = from_api;
    out_.instrs.push_back(i);
    return out_.instrs.size() - 1;
  }

  void OperandCosts(const Instruction& i) {
    for (const auto& v : i.operands) {
      if (v.is_const()) {
        int n = ImmedCost(v.imm);
        EmitN(NicOp::kImmed, n);
        rules_->immed_materializations += static_cast<uint32_t>(n);
      }
    }
  }

  bool DefinedBy(const Value& v, Opcode op) const {
    if (!v.is_reg()) {
      return false;
    }
    auto it = info_.def_op.find(v.reg);
    return it != info_.def_op.end() && it->second == op;
  }

  // Bit width of an operand's defining type (for sext); constants are full
  // 64-bit values already, unknown registers default to 32.
  uint8_t OperandWidth(const Value& v) const {
    if (!v.is_reg()) {
      return 64;
    }
    auto it = reg_types_.find(v.reg);
    return it == reg_types_.end() ? 32 : static_cast<uint8_t>(BitWidth(it->second));
  }

  // Word span [lo, hi] of a field access at byte `offset` of width `bits`.
  static std::pair<int, int> WordSpan(int offset, int bits) {
    int lo = offset / 4;
    int hi = (offset + bits / 8 - 1) / 4;
    return {lo, hi};
  }

  void TranslatePacketAccess(const Instruction& i) {
    bool is_load = i.op == Opcode::kLoad;
    const PacketFieldInfo& field = m_.packet_fields[i.sym];
    if (i.has_dyn_index) {
      // Payload byte with computed address: address calc + 1-word transfer +
      // byte extract/merge.
      NicRef midx = Ref(i.operands.back());
      Emit(NicOp::kAlu);  // address computation (scratch)
      size_t mi = EmitMem(is_load ? NicOp::kMemRead : NicOp::kMemWrite,
                          AddressSpace::kPacket, i.sym, 1);
      Emit(NicOp::kLdField);
      if (is_load) {
        NicInstr& lf = Last();
        lf.fmode = NicFieldMode::kExtract;
        lf.space = AddressSpace::kPacket;
        lf.sym = i.sym;
        lf.dst = i.result;
        lf.moff = field.byte_offset;
        lf.mbits = 8;
        lf.midx = midx;
        lf.vtype = i.type;
      } else {
        Last().fmode = NicFieldMode::kMerge;  // byte merge (scratch)
        NicInstr& mw = out_.instrs[mi];
        mw.a = Ref(i.operands[0]);
        mw.moff = field.byte_offset;
        mw.mbits = 8;
        mw.midx = midx;
        mw.vtype = i.type;
      }
      return;
    }
    auto [lo, hi] = WordSpan(field.byte_offset, BitWidth(field.type));
    bool subword = BitWidth(field.type) < 32 || field.byte_offset % 4 != 0;
    uint8_t mbits = static_cast<uint8_t>(BitWidth(field.type));
    if (is_load) {
      bool all_cached = opts_.coalesce_packet;
      for (int w = lo; w <= hi && all_cached; ++w) {
        all_cached = pkt_words_.count(w) > 0;
      }
      if (all_cached) {
        ++rules_->packet_coalesces;
        Emit(NicOp::kLdField);  // extract from the already-fetched word
        NicInstr& lf = Last();
        lf.fmode = NicFieldMode::kExtract;
        lf.space = AddressSpace::kPacket;
        lf.sym = i.sym;
        lf.dst = i.result;
        lf.moff = field.byte_offset;
        lf.mbits = mbits;
        lf.vtype = i.type;
        return;
      }
      size_t mi = EmitMem(NicOp::kMemRead, AddressSpace::kPacket, i.sym, hi - lo + 1);
      for (int w = lo; w <= hi; ++w) {
        pkt_words_.insert(w);
      }
      if (subword) {
        Emit(NicOp::kLdField);
        NicInstr& lf = Last();
        lf.fmode = NicFieldMode::kExtract;
        lf.space = AddressSpace::kPacket;
        lf.sym = i.sym;
        lf.dst = i.result;
        lf.moff = field.byte_offset;
        lf.mbits = mbits;
        lf.vtype = i.type;
      } else {
        NicInstr& mr = out_.instrs[mi];
        mr.fmode = NicFieldMode::kExtract;
        mr.dst = i.result;
        mr.moff = field.byte_offset;
        mr.mbits = mbits;
        mr.vtype = i.type;
      }
    } else {
      if (subword) {
        Emit(NicOp::kLdField);  // merge bytes into the word (scratch)
        Last().fmode = NicFieldMode::kMerge;
      }
      size_t mi = EmitMem(NicOp::kMemWrite, AddressSpace::kPacket, i.sym, hi - lo + 1);
      NicInstr& mw = out_.instrs[mi];
      mw.a = Ref(i.operands[0]);
      mw.moff = field.byte_offset;
      mw.mbits = mbits;
      mw.vtype = i.type;
      for (int w = lo; w <= hi; ++w) {
        pkt_words_.insert(w);  // word now resident in transfer registers
      }
    }
  }

  void TranslateStateAccess(const Instruction& i) {
    bool is_load = i.op == Opcode::kLoad;
    const StateVar& sv = m_.state[i.sym];
    int elem_bytes;
    if (sv.kind == StateKind::kMap) {
      elem_bytes = static_cast<int>(sv.key_bytes + sv.value_bytes);
    } else {
      elem_bytes = BitWidth(sv.elem_type) / 8;
    }
    // Address computation for dynamic element indices.
    uint32_t dyn_reg = 0;
    NicRef midx;
    if (i.has_dyn_index) {
      const Value& idx = i.operands.back();
      dyn_reg = idx.is_reg() ? idx.reg : 0xffffffffu;
      midx = Ref(idx);
      if (IsPow2(elem_bytes)) {
        Emit(NicOp::kAluShf);  // index << log2(stride) + base
      } else {
        EmitN(NicOp::kMulStep, 3);
        Emit(NicOp::kAlu);
      }
    }
    auto [lo, hi] = WordSpan(i.offset, BitWidth(i.type));
    int words = hi - lo + 1;
    bool subword = BitWidth(i.type) < 32 || i.offset % 4 != 0;
    uint8_t mbits = static_cast<uint8_t>(BitWidth(i.type));

    // Coalescing: LOADS whose word ranges intersect a just-issued load of
    // the same element are folded into that transfer (subword fields sharing
    // a 32-bit word arrive together). Stores stay 1:1 with source accesses.
    // This keeps the IR-level stateful count in close correspondence with
    // machine code (paper §3.2: 96.4%-100%) while leaving the source-level
    // packing optimization to Clara's §4.4 analysis.
    if (opts_.coalesce_state && is_load && last_state_.valid && last_state_.sym == i.sym &&
        last_state_.is_load && last_state_.dyn_reg == dyn_reg &&
        lo <= last_state_.hi && hi >= last_state_.lo) {
      int new_lo = std::min(lo, last_state_.lo);
      int new_hi = std::max(hi, last_state_.hi);
      NicInstr& prev = out_.instrs[last_state_.instr_index];
      int prev_words = prev.words;
      int merged = new_hi - new_lo + 1;
      if (merged <= 16) {
        ++rules_->state_coalesces;
        prev.words = static_cast<uint8_t>(merged);
        static_cast<void>(prev_words);  // word totals are tallied in Run()
        last_state_.lo = new_lo;
        last_state_.hi = new_hi;
        Emit(NicOp::kLdField);  // extract/merge within the wide transfer
        NicInstr& lf = Last();
        lf.fmode = NicFieldMode::kExtract;
        lf.space = AddressSpace::kState;
        lf.sym = i.sym;
        lf.dst = i.result;
        lf.moff = i.offset;
        lf.mbits = mbits;
        lf.midx = midx;
        lf.vtype = i.type;
        return;
      }
    }
    size_t mem_idx = EmitMem(is_load ? NicOp::kMemRead : NicOp::kMemWrite,
                             AddressSpace::kState, i.sym, words);
    if (subword) {
      Emit(NicOp::kLdField);
      if (is_load) {
        NicInstr& lf = Last();
        lf.fmode = NicFieldMode::kExtract;
        lf.space = AddressSpace::kState;
        lf.sym = i.sym;
        lf.dst = i.result;
        lf.moff = i.offset;
        lf.mbits = mbits;
        lf.midx = midx;
        lf.vtype = i.type;
      } else {
        Last().fmode = NicFieldMode::kMerge;  // scratch merge
      }
    }
    NicInstr& mem = out_.instrs[mem_idx];
    if (is_load) {
      if (!subword) {
        mem.fmode = NicFieldMode::kExtract;
        mem.dst = i.result;
        mem.moff = i.offset;
        mem.mbits = mbits;
        mem.midx = midx;
        mem.vtype = i.type;
      }
    } else {
      mem.a = Ref(i.operands[0]);
      mem.moff = i.offset;
      mem.mbits = mbits;
      mem.midx = midx;
      mem.vtype = i.type;
    }
    last_state_ = LastState{true, i.sym, dyn_reg, lo, hi, is_load, mem_idx};
  }

  // Attaches API call semantics (callee + up to three argument refs) to the
  // macro-op's semantic carrier.
  void SetCallPayload(NicInstr& n, const Instruction& i) {
    n.callee = i.callee;
    n.dst = i.result;
    n.vtype = i.type;
    if (!i.operands.empty()) {
      n.a = Ref(i.operands[0]);
    }
    if (i.operands.size() > 1) {
      n.b = Ref(i.operands[1]);
    }
    if (i.operands.size() > 2) {
      n.c = Ref(i.operands[2]);
    }
  }

  void TranslateCall(const Instruction& i) {
    last_state_.valid = false;
    auto prof = LookupApiProfile(m_.apis[i.callee].name);
    if (!prof.has_value()) {
      Emit(NicOp::kAlu, /*from_api=*/true);
      SetCallPayload(Last(), i);
      return;
    }
    ++rules_->api_expansions;
    int compute = prof->compute_instrs;
    bool carried = false;
    if (prof->uses_accelerator) {
      Emit(NicOp::kCsr, /*from_api=*/true);
      SetCallPayload(Last(), i);
      carried = true;
      compute = std::max(0, compute - 1);
    }
    for (int k = 0; k < compute; ++k) {
      Emit(NicOp::kAlu, /*from_api=*/true);
      if (!carried) {
        SetCallPayload(Last(), i);
        carried = true;
      }
    }
    // Packet traffic from library code arrives in 4-word bursts.
    for (int left = prof->pkt_read_words; left > 0; left -= 4) {
      EmitMem(NicOp::kMemRead, AddressSpace::kPacket, 0, std::min(left, 4),
              /*from_api=*/true);
    }
    for (int left = prof->pkt_write_words; left > 0; left -= 4) {
      EmitMem(NicOp::kMemWrite, AddressSpace::kPacket, 0, std::min(left, 4),
              /*from_api=*/true);
    }
  }

  void Translate(const Instruction& i, size_t idx) {
    switch (i.op) {
      case Opcode::kAdd:
      case Opcode::kSub:
      case Opcode::kAnd:
      case Opcode::kOr:
      case Opcode::kXor: {
        OperandCosts(i);
        Emit(NicOp::kAlu);
        NicInstr& n = Last();
        n.alu = AluFor(i.op);
        n.vtype = i.type;
        n.dst = i.result;
        n.a = Ref(i.operands[0]);
        n.b = Ref(i.operands[1]);
        break;
      }
      case Opcode::kShl:
      case Opcode::kLShr:
      case Opcode::kAShr: {
        if (!i.operands[1].is_const()) {
          Emit(NicOp::kAlu);  // fetch the indirect shift amount (scratch)
        }
        Emit(NicOp::kAluShf);
        NicInstr& n = Last();
        n.alu = AluFor(i.op);
        n.vtype = i.type;
        n.dst = i.result;
        n.a = Ref(i.operands[0]);
        n.b = Ref(i.operands[1]);  // amount masked by (width-1) at execution
        break;
      }
      case Opcode::kMul: {
        const Value& rhs = i.operands[1];
        if (rhs.is_const() && IsPow2(rhs.imm)) {
          ++rules_->mul_pow2_shifts;
          Emit(NicOp::kAluShf);
          NicInstr& n = Last();
          // Synthetic shift: `shift` holds the raw exponent (no width
          // masking) so mul by 2^k, k >= width, correctly yields zero.
          n.alu = NicAlu::kShl;
          n.vtype = i.type;
          n.dst = i.result;
          n.a = Ref(i.operands[0]);
          n.shift = Log2Pow2(rhs.imm);
        } else if (rhs.is_const()) {
          ++rules_->mul_expansions;
          rules_->immed_materializations += static_cast<uint32_t>(ImmedCost(rhs.imm));
          EmitN(NicOp::kImmed, ImmedCost(rhs.imm));
          EmitN(NicOp::kMulStep, 3);
          NicInstr& n = Last();
          n.mul_last = true;
          n.vtype = i.type;
          n.dst = i.result;
          n.a = Ref(i.operands[0]);
          n.b = Ref(rhs);
        } else {
          ++rules_->mul_expansions;
          EmitN(NicOp::kMulStep, 4);
          NicInstr& n = Last();
          n.mul_last = true;
          n.vtype = i.type;
          n.dst = i.result;
          n.a = Ref(i.operands[0]);
          n.b = Ref(rhs);
        }
        break;
      }
      case Opcode::kUDiv:
      case Opcode::kURem: {
        const Value& rhs = i.operands[1];
        if (rhs.is_const() && IsPow2(rhs.imm)) {
          if (i.op == Opcode::kUDiv) {
            Emit(NicOp::kAluShf);
            NicInstr& n = Last();
            n.alu = NicAlu::kShr;
            n.vtype = i.type;
            n.dst = i.result;
            n.a = Ref(i.operands[0]);
            n.shift = Log2Pow2(rhs.imm);  // raw exponent, like mul-pow2
          } else {
            Emit(NicOp::kAlu);
            NicInstr& n = Last();
            n.alu = NicAlu::kAnd;
            n.vtype = i.type;
            n.dst = i.result;
            n.a = Ref(i.operands[0]);
            n.b = NicRef::I(rhs.imm - 1);
          }
        } else {
          // Software divide: restore-style loop, unrolled by the library.
          // The final kAlu of the routine delivers the quotient/remainder;
          // the trailing shift/branch ops are loop bookkeeping (scratch).
          ++rules_->div_expansions;
          ++rules_->immed_materializations;
          Emit(NicOp::kImmed);
          EmitN(NicOp::kAlu, 12);
          NicInstr& n = Last();
          n.alu = i.op == Opcode::kUDiv ? NicAlu::kUDiv : NicAlu::kURem;
          n.vtype = i.type;
          n.dst = i.result;
          n.a = Ref(i.operands[0]);
          n.b = Ref(rhs);
          EmitN(NicOp::kAluShf, 4);
          EmitN(NicOp::kBcc, 2);
          break;
        }
        break;
      }
      case Opcode::kIcmpEq:
      case Opcode::kIcmpNe:
      case Opcode::kIcmpUlt:
      case Opcode::kIcmpUle:
      case Opcode::kIcmpUgt:
      case Opcode::kIcmpUge: {
        OperandCosts(i);
        bool fused = FusesWithTerminator(i, idx);
        if (fused) {
          ++rules_->cmp_branch_fusions;
          Emit(NicOp::kAlu);  // compare sets condition codes
          NicInstr& n = Last();
          n.alu = NicAlu::kCmp;
          n.cc = CcFor(i.op);
          n.vtype = Type::kI1;
          n.dst = i.result;  // flag value also lands in the i1 register
          n.a = Ref(i.operands[0]);
          n.b = Ref(i.operands[1]);
        } else {
          ++rules_->cmp_materializations;
          Emit(NicOp::kAlu);
          NicInstr& cmp = Last();
          cmp.alu = NicAlu::kCmp;
          cmp.cc = CcFor(i.op);
          cmp.vtype = Type::kI1;
          cmp.a = Ref(i.operands[0]);
          cmp.b = Ref(i.operands[1]);
          Emit(NicOp::kAluShf);  // shift the flag into place (scratch)
          Emit(NicOp::kAlu);     // materialize 0/1
          NicInstr& set = Last();
          set.alu = NicAlu::kSetCc;
          set.vtype = Type::kI1;
          set.dst = i.result;
        }
        break;
      }
      case Opcode::kZext: {
        const Value& src = i.operands[0];
        if (src.is_const() || DefinedBy(src, Opcode::kLoad)) {
          ++rules_->zext_elisions;
          EmitMove(i.result, Ref(src), i.type);
          break;  // loads zero-extend for free
        }
        Emit(NicOp::kAlu);
        NicInstr& n = Last();
        n.alu = NicAlu::kMov;
        n.vtype = i.type;
        n.dst = i.result;
        n.a = Ref(src);
        break;
      }
      case Opcode::kSext: {
        EmitN(NicOp::kAluShf, 2);
        NicInstr& n = Last();
        n.alu = NicAlu::kSext;
        n.vtype = i.type;
        n.dst = i.result;
        n.a = Ref(i.operands[0]);
        n.shift = OperandWidth(i.operands[0]);  // sign bit position
        break;
      }
      case Opcode::kTrunc: {
        auto it = info_.only_store_uses.find(i.result);
        bool store_only = it != info_.only_store_uses.end() && it->second &&
                          info_.uses.count(i.result) > 0;
        if (!store_only && BitWidth(i.type) < 32) {
          Emit(NicOp::kAlu);  // mask
          NicInstr& n = Last();
          n.alu = NicAlu::kMov;
          n.vtype = i.type;
          n.dst = i.result;
          n.a = Ref(i.operands[0]);
        } else {
          EmitMove(i.result, Ref(i.operands[0]), i.type);
        }
        break;
      }
      case Opcode::kSelect: {
        OperandCosts(i);
        EmitN(NicOp::kAlu, 3);
        NicInstr& n = Last();
        n.alu = NicAlu::kSelect;
        n.vtype = i.type;
        n.dst = i.result;
        n.c = Ref(i.operands[0]);
        n.a = Ref(i.operands[1]);
        n.b = Ref(i.operands[2]);
        break;
      }
      case Opcode::kLoad:
      case Opcode::kStore:
        switch (i.space) {
          case AddressSpace::kStack: {
            uint32_t slot_reg = kNicSlotRegBase + i.sym;
            if (spilled_.count(i.sym) > 0) {
              Emit(i.op == Opcode::kLoad ? NicOp::kLmemRead : NicOp::kLmemWrite);
              NicInstr& n = Last();
              n.vtype = i.type;
              if (i.op == Opcode::kLoad) {
                n.dst = i.result;
                n.a = NicRef::R(slot_reg);
              } else {
                n.dst = slot_reg;
                n.a = Ref(i.operands[0]);
              }
              break;
            }
            // Register-allocated slots cost nothing: a zero-cost move.
            if (i.op == Opcode::kLoad) {
              EmitMove(i.result, NicRef::R(slot_reg), i.type);
            } else {
              EmitMove(slot_reg, Ref(i.operands[0]), i.type);
            }
            break;
          }
          case AddressSpace::kPacket:
            TranslatePacketAccess(i);
            break;
          case AddressSpace::kState:
            TranslateStateAccess(i);
            break;
          case AddressSpace::kNone:
            break;
        }
        break;
      case Opcode::kCall:
        TranslateCall(i);
        break;
      case Opcode::kBr:
      case Opcode::kRet: {
        Emit(NicOp::kBr);
        NicInstr& n = Last();
        if (i.op == Opcode::kRet) {
          n.is_ret = true;
        } else {
          n.has_targets = true;
          n.t0 = i.target0;
          n.t1 = i.target0;
        }
        break;
      }
      case Opcode::kCondBr: {
        const Value& c = i.operands[0];
        if (!(c.is_reg() && IsCompare(info_.def_op.count(c.reg) > 0
                                          ? info_.def_op[c.reg]
                                          : Opcode::kAdd) &&
              info_.uses[c.reg] == 1)) {
          Emit(NicOp::kAlu);  // test the boolean explicitly
          NicInstr& t = Last();
          t.alu = NicAlu::kTest;
          t.a = Ref(c);
        }
        Emit(NicOp::kBcc);
        NicInstr& n = Last();
        n.has_targets = true;
        n.cc = NicCc::kNe;
        n.a = Ref(c);  // branch decided on the condition register directly
        n.t0 = i.target0;
        n.t1 = i.target1;
        break;
      }
    }
  }

  bool FusesWithTerminator(const Instruction& cmp, size_t idx) const {
    if (cmp.result == 0) {
      return false;
    }
    auto it = info_.uses.find(cmp.result);
    if (it == info_.uses.end() || it->second != 1) {
      return false;
    }
    const auto& instrs = block_.instrs;
    if (instrs.empty() || instrs.back().op != Opcode::kCondBr) {
      return false;
    }
    const Value& c = instrs.back().operands[0];
    return c.is_reg() && c.reg == cmp.result;
  }

  struct LastState {
    bool valid = false;
    uint32_t sym = 0;
    uint32_t dyn_reg = 0;
    int lo = 0;
    int hi = 0;
    bool is_load = true;
    size_t instr_index = 0;
  };

  const Module& m_;
  const Function& f_;
  const NicBackendOptions& opts_;
  const std::set<uint32_t>& spilled_;
  const std::map<uint32_t, Type>& reg_types_;
  const BasicBlock& block_;
  BlockInfo info_;
  RuleFirings* rules_;
  NicBlock out_;
  std::set<int> pkt_words_;
  LastState last_state_;
};

}  // namespace

NicProgram CompileToNic(const Module& m, const Function& f, const NicBackendOptions& opts) {
  NicProgram prog;
  prog.name = m.name;

  // Register allocation: promote the most-accessed stack slots to GPRs.
  std::vector<std::pair<uint64_t, uint32_t>> slot_freq(f.slots.size());
  for (size_t s = 0; s < f.slots.size(); ++s) {
    slot_freq[s] = {0, static_cast<uint32_t>(s)};
  }
  for (const auto& b : f.blocks) {
    for (const auto& i : b.instrs) {
      if ((i.op == Opcode::kLoad || i.op == Opcode::kStore) &&
          i.space == AddressSpace::kStack && i.sym < f.slots.size()) {
        ++slot_freq[i.sym].first;
      }
    }
  }
  std::sort(slot_freq.begin(), slot_freq.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::set<uint32_t> spilled;
  for (size_t rank = 0; rank < slot_freq.size(); ++rank) {
    if (static_cast<int>(rank) >= opts.gpr_budget) {
      spilled.insert(slot_freq[rank].second);
    } else if (slot_freq[rank].first > 0) {
      ++prog.rules.stack_promotions;
    }
  }
  for (const auto& [freq, slot] : slot_freq) {
    if (freq > 0 && spilled.count(slot) > 0) {
      ++prog.rules.stack_spills;
    }
  }

  // Function-wide result types, so expansions that need an operand's width
  // (e.g. sext) can look past block boundaries.
  std::map<uint32_t, Type> reg_types;
  for (const auto& b : f.blocks) {
    for (const auto& i : b.instrs) {
      if (i.result != 0) {
        reg_types[i.result] = i.type;
      }
    }
  }

  for (const auto& b : f.blocks) {
    prog.blocks.push_back(
        BlockTranslator(m, f, opts, spilled, reg_types, b, &prog.rules).Run());
  }

  if (obs::Enabled()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    reg.GetCounter("nic.backend.compilations").Add(1);
    const RuleFirings& r = prog.rules;
    reg.GetCounter("nic.backend.rule.mul_pow2_shift").Add(r.mul_pow2_shifts);
    reg.GetCounter("nic.backend.rule.mul_expansion").Add(r.mul_expansions);
    reg.GetCounter("nic.backend.rule.div_expansion").Add(r.div_expansions);
    reg.GetCounter("nic.backend.rule.cmp_branch_fusion").Add(r.cmp_branch_fusions);
    reg.GetCounter("nic.backend.rule.cmp_materialization").Add(r.cmp_materializations);
    reg.GetCounter("nic.backend.rule.immed_materialization").Add(r.immed_materializations);
    reg.GetCounter("nic.backend.rule.zext_elision").Add(r.zext_elisions);
    reg.GetCounter("nic.backend.rule.packet_coalesce").Add(r.packet_coalesces);
    reg.GetCounter("nic.backend.rule.state_coalesce").Add(r.state_coalesces);
    reg.GetCounter("nic.backend.rule.stack_promotion").Add(r.stack_promotions);
    reg.GetCounter("nic.backend.rule.stack_spill").Add(r.stack_spills);
    reg.GetCounter("nic.backend.rule.api_expansion").Add(r.api_expansions);
  }
  return prog;
}

NicProgram CompileToNic(const Module& m, const NicBackendOptions& opts) {
  return CompileToNic(m, m.functions.at(0), opts);
}

}  // namespace clara
