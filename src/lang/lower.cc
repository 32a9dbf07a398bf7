#include "src/lang/lower.h"

#include <map>
#include <optional>
#include <set>

#include "src/ir/builder.h"

namespace clara {

uint32_t MapFieldHash(const uint64_t* key_vals, size_t n) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ static_cast<uint32_t>(key_vals[i])) * 16777619u;
  }
  return h;
}

namespace {

constexpr uint32_t kFnvBasis = 2166136261u;
constexpr uint32_t kFnvPrime = 16777619u;

// Byte offset of the i-th key field within a map slot.
int32_t KeyFieldOffset(const StateDecl& m, size_t i) {
  int32_t off = 0;
  for (size_t k = 0; k < i; ++k) {
    off += BitWidth(m.key_fields[k]) / 8;
  }
  return off;
}

// Byte offset of the j-th value field within a map slot.
int32_t ValueFieldOffset(const StateDecl& m, size_t j) {
  int32_t off = static_cast<int32_t>(m.KeyBytes());
  for (size_t k = 0; k < j; ++k) {
    off += BitWidth(m.value_fields[k].type) / 8;
  }
  return off;
}

class Lowerer {
 public:
  explicit Lowerer(Program& p) : p_(p) {}

  LowerResult Run() {
    LowerResult r;
    CheckResult chk = CheckProgram(p_);
    if (!chk.ok) {
      r.error = chk.errors.front();
      return r;
    }

    r.module.name = p_.name;
    InstallStandardPacketFields(r.module);
    for (const auto& sd : p_.state) {
      StateVar sv;
      sv.name = sd.name;
      sv.kind = sd.kind;
      sv.elem_type = sd.elem_type;
      sv.length = sd.length;
      if (sd.kind == StateKind::kMap) {
        sv.key_bytes = sd.KeyBytes();
        sv.value_bytes = sd.ValueBytes();
        sv.capacity = sd.capacity;
        // Backing-store slot count, mirroring SimMap: bucketed NIC maps round
        // capacity up to whole buckets; host maps probe the raw capacity.
        if (sd.impl == MapImpl::kNicFixedBucket) {
          uint32_t spb = sd.slots_per_bucket == 0 ? 1 : sd.slots_per_bucket;
          uint32_t buckets = (sd.capacity + spb - 1) / spb;
          if (buckets == 0) {
            buckets = 1;
          }
          sv.slots = buckets * spb;
        } else {
          sv.slots = sd.capacity == 0 ? 1 : sd.capacity;
        }
      }
      r.module.state.push_back(sv);
    }

    r.module.functions.emplace_back();
    Function& f = r.module.functions.back();
    f.name = "simple_action";
    builder_.emplace(r.module, f);
    IrBuilder& b = *builder_;

    for (const auto& l : chk.locals) {
      slot_by_name_[l.name] = b.AddSlot(l.name, l.type);
    }

    uint32_t entry = b.NewBlock("entry");
    b.SetInsertPoint(entry);
    LowerBody(p_.body);
    if (!b.BlockTerminated()) {
      b.Ret();
    }
    // Terminate any empty or unterminated synthetic blocks (e.g. unreachable
    // joins after returns in both branches).
    for (auto& blk : f.blocks) {
      if (blk.instrs.empty() || !IsTerminator(blk.instrs.back().op)) {
        Instruction ret;
        ret.op = Opcode::kRet;
        blk.instrs.push_back(ret);
      }
    }
    r.ok = true;
    return r;
  }

 private:
  IrBuilder& B() { return *builder_; }

  uint32_t Slot(const std::string& name) { return slot_by_name_.at(name); }

  uint32_t EnsureTempSlot(const std::string& name, Type t) {
    auto it = slot_by_name_.find(name);
    if (it != slot_by_name_.end()) {
      return it->second;
    }
    uint32_t s = B().AddSlot(name, t);
    slot_by_name_[name] = s;
    return s;
  }

  uint32_t NewBlock(const std::string& label) {
    return B().NewBlock(label + "." + std::to_string(block_seq_++));
  }

  // Emits zext/trunc so that a value of type `from` becomes type `to`.
  Value Coerce(Value v, Type from, Type to) {
    if (from == to || v.is_const()) {
      return v;
    }
    int wf = BitWidth(from);
    int wt = BitWidth(to);
    if (wf == wt) {
      return v;
    }
    return B().Cast(wf < wt ? Opcode::kZext : Opcode::kTrunc, to, v);
  }

  // Lowers `e`, recording on it the slot, state, field or API index it names.
  Value LowerExpr(Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit:
        return Value::Const(static_cast<int64_t>(e.value));
      case ExprKind::kLocal:
        e.sym = static_cast<int>(Slot(e.name));
        return B().LoadStack(static_cast<uint32_t>(e.sym));
      case ExprKind::kStateScalar:
        e.sym = B().module().FindState(e.name);
        return B().LoadState(static_cast<uint32_t>(e.sym), e.type);
      case ExprKind::kStateArray: {
        e.sym = B().module().FindState(e.name);
        Value idx = LowerExpr(*e.args[0]);
        return B().LoadState(static_cast<uint32_t>(e.sym), e.type, idx);
      }
      case ExprKind::kPacketField:
        e.sym = B().module().FindPacketField(e.name);
        return B().LoadPacket(static_cast<uint32_t>(e.sym));
      case ExprKind::kPayloadByte: {
        Value idx = LowerExpr(*e.args[0]);
        return B().LoadPacket(
            static_cast<uint32_t>(B().module().FindPacketField("pkt.payload")), idx);
      }
      case ExprKind::kBinary: {
        Value a = Coerce(LowerExpr(*e.args[0]), e.args[0]->type, e.type);
        Value bv = Coerce(LowerExpr(*e.args[1]), e.args[1]->type, e.type);
        return B().Binary(e.op, e.type, a, bv);
      }
      case ExprKind::kCompare: {
        Type ct = BitWidth(e.args[0]->type) >= BitWidth(e.args[1]->type) ? e.args[0]->type
                                                                         : e.args[1]->type;
        Value a = Coerce(LowerExpr(*e.args[0]), e.args[0]->type, ct);
        Value bv = Coerce(LowerExpr(*e.args[1]), e.args[1]->type, ct);
        return B().Compare(e.op, a, bv);
      }
      case ExprKind::kCast:
        return Coerce(LowerExpr(*e.args[0]), e.args[0]->type, e.type);
      case ExprKind::kCall: {
        Value v = B().Call(e.callee, LowerArgs(e.args), e.type);
        e.sym = B().module().FindApi(e.callee);
        return v;
      }
    }
    return Value::Const(0);
  }

  std::vector<Value> LowerArgs(const std::vector<ExprPtr>& exprs) {
    std::vector<Value> args;
    for (const auto& a : exprs) {
      args.push_back(LowerExpr(*a));
    }
    return args;
  }

  // Lowers a condition to an i1 value.
  Value LowerCond(Expr& e) {
    Value v = LowerExpr(e);
    if (e.kind == ExprKind::kCompare) {
      return v;
    }
    return B().Compare(Opcode::kIcmpNe, v, Value::Const(0));
  }

  void MarkEntry(Stmt& s) {
    s.block = static_cast<int>(B().insert_point());
    if (blocks_with_entry_.insert(s.block).second) {
      s.block_entry = true;
    }
  }

  void LowerBody(const std::vector<StmtPtr>& body) {
    for (const auto& s : body) {
      if (B().BlockTerminated()) {
        // Unreachable statements after return/drop: still annotate them so
        // the interpreter has valid block ids, but they never execute.
        MarkEntry(*s);
        continue;
      }
      LowerStmt(*s);
    }
  }

  void LowerStmt(Stmt& s) {
    MarkEntry(s);
    switch (s.kind) {
      case StmtKind::kDecl:
      case StmtKind::kAssignLocal: {
        uint32_t slot = Slot(s.name);
        s.sym = static_cast<int>(slot);
        Type st = B().func().slots[slot].type;
        Value v = Coerce(LowerExpr(*s.e0), s.e0->type, st);
        B().StoreStack(slot, v);
        break;
      }
      case StmtKind::kAssignState: {
        s.sym = B().module().FindState(s.name);
        Type st = B().module().state[s.sym].elem_type;
        Value v = Coerce(LowerExpr(*s.e0), s.e0->type, st);
        B().StoreState(static_cast<uint32_t>(s.sym), st, v);
        break;
      }
      case StmtKind::kAssignStateArr: {
        s.sym = B().module().FindState(s.name);
        Type st = B().module().state[s.sym].elem_type;
        Value idx = LowerExpr(*s.e1);
        Value v = Coerce(LowerExpr(*s.e0), s.e0->type, st);
        B().StoreState(static_cast<uint32_t>(s.sym), st, v, idx);
        break;
      }
      case StmtKind::kAssignPacket: {
        s.sym = B().module().FindPacketField(s.name);
        Type ft = B().module().packet_fields[s.sym].type;
        Value v = Coerce(LowerExpr(*s.e0), s.e0->type, ft);
        B().StorePacket(static_cast<uint32_t>(s.sym), v);
        break;
      }
      case StmtKind::kAssignPayload: {
        int field = B().module().FindPacketField("pkt.payload");
        Value idx = LowerExpr(*s.e1);
        Value v = Coerce(LowerExpr(*s.e0), s.e0->type, Type::kI8);
        B().StorePacket(static_cast<uint32_t>(field), v, idx);
        break;
      }
      case StmtKind::kIf:
        LowerIf(s);
        break;
      case StmtKind::kFor:
        LowerFor(s);
        break;
      case StmtKind::kMapFind:
      case StmtKind::kMapInsert:
      case StmtKind::kMapErase:
        LowerMapOp(s);
        break;
      case StmtKind::kApiCall:
        B().Call(s.callee, LowerArgs(s.args), Type::kVoid);
        s.sym = B().module().FindApi(s.callee);
        break;
      case StmtKind::kSend: {
        Value port = s.e0 ? LowerExpr(*s.e0) : Value::Const(0);
        B().Call("send", {port}, Type::kVoid);
        s.sym = B().module().FindApi("send");
        B().Ret();
        break;
      }
      case StmtKind::kDrop:
        B().Call("drop", {}, Type::kVoid);
        s.sym = B().module().FindApi("drop");
        B().Ret();
        break;
      case StmtKind::kReturn:
        B().Ret();
        break;
    }
  }

  void LowerIf(Stmt& s) {
    Value cond = LowerCond(*s.e0);
    uint32_t then_b = NewBlock("then");
    uint32_t join_b = NewBlock("join");
    uint32_t else_b = s.else_body.empty() ? join_b : NewBlock("else");
    B().CondBr(cond, then_b, else_b);

    B().SetInsertPoint(then_b);
    LowerBody(s.body);
    if (!B().BlockTerminated()) {
      B().Br(join_b);
    }
    if (!s.else_body.empty()) {
      B().SetInsertPoint(else_b);
      LowerBody(s.else_body);
      if (!B().BlockTerminated()) {
        B().Br(join_b);
      }
    }
    B().SetInsertPoint(join_b);
  }

  void LowerFor(Stmt& s) {
    uint32_t var = Slot(s.name);
    s.sym = static_cast<int>(var);
    Value lo = Coerce(LowerExpr(*s.e0), s.e0->type, Type::kI32);
    B().StoreStack(var, lo);
    uint32_t cond_b = NewBlock("for.cond");
    uint32_t body_b = NewBlock("for.body");
    uint32_t latch_b = NewBlock("for.latch");
    uint32_t exit_b = NewBlock("for.exit");
    s.block_cond = static_cast<int>(cond_b);
    s.block_latch = static_cast<int>(latch_b);
    B().Br(cond_b);

    B().SetInsertPoint(cond_b);
    Value i = B().LoadStack(var);
    Value hi = Coerce(LowerExpr(*s.e1), s.e1->type, Type::kI32);
    Value c = B().Compare(Opcode::kIcmpUlt, i, hi);
    B().CondBr(c, body_b, exit_b);

    B().SetInsertPoint(body_b);
    LowerBody(s.body);
    if (!B().BlockTerminated()) {
      B().Br(latch_b);
    }

    B().SetInsertPoint(latch_b);
    Value iv = B().LoadStack(var);
    Value inc = B().Binary(Opcode::kAdd, Type::kI32, iv, Value::Const(1));
    B().StoreStack(var, inc);
    B().Br(cond_b);

    B().SetInsertPoint(exit_b);
  }

  // Expands map find/insert/erase into an explicit bounded probe loop with
  // the control flow of the declared implementation. See lower.h for the
  // block roles.
  void LowerMapOp(Stmt& s) {
    const StateDecl& m = *p_.FindState(s.name);
    uint32_t sym = static_cast<uint32_t>(B().module().FindState(s.name));
    s.sym = static_cast<int>(sym);
    size_t nkeys = m.key_fields.size();
    bool nic = m.impl == MapImpl::kNicFixedBucket;
    uint32_t spb = m.slots_per_bucket == 0 ? 1 : m.slots_per_bucket;
    uint32_t buckets = nic ? (m.capacity + spb - 1) / spb : 0;
    uint32_t bound = nic ? spb : m.capacity;

    // Shared temporaries.
    uint32_t t_h = EnsureTempSlot("__h", Type::kI32);
    uint32_t t_idx = EnsureTempSlot("__idx", Type::kI32);
    uint32_t t_n = EnsureTempSlot("__n", Type::kI32);
    uint32_t t_k0 = EnsureTempSlot("__probek0", Type::kI64);
    std::vector<uint32_t> t_keys;
    for (size_t i = 0; i < nkeys; ++i) {
      t_keys.push_back(EnsureTempSlot("__key" + std::to_string(i), Type::kI64));
    }

    // Entry: evaluate keys into temps, hash, compute the start index.
    for (size_t i = 0; i < nkeys; ++i) {
      Value k = Coerce(LowerExpr(*s.args[i]), s.args[i]->type, Type::kI64);
      B().StoreStack(t_keys[i], k);
    }
    Value h = Value::Const(static_cast<int64_t>(kFnvBasis));
    for (size_t i = 0; i < nkeys; ++i) {
      Value k = B().LoadStack(t_keys[i]);
      Value k32 = B().Cast(Opcode::kTrunc, Type::kI32, k);
      h = B().Binary(Opcode::kXor, Type::kI32, h, k32);
      h = B().Binary(Opcode::kMul, Type::kI32, h, Value::Const(kFnvPrime));
    }
    B().StoreStack(t_h, h);
    Value start;
    if (nic) {
      Value hh = B().LoadStack(t_h);
      Value bucket = B().Binary(Opcode::kURem, Type::kI32, hh,
                                Value::Const(static_cast<int64_t>(buckets)));
      start = B().Binary(Opcode::kMul, Type::kI32, bucket,
                         Value::Const(static_cast<int64_t>(spb)));
    } else {
      Value hh = B().LoadStack(t_h);
      start = B().Binary(Opcode::kURem, Type::kI32, hh,
                         Value::Const(static_cast<int64_t>(m.capacity)));
    }
    B().StoreStack(t_idx, start);
    B().StoreStack(t_n, Value::Const(0));

    uint32_t cond_b = NewBlock("probe.cond");
    uint32_t body_b = NewBlock("probe.body");
    uint32_t echk_b = NewBlock("probe.echk");
    uint32_t latch_b = NewBlock("probe.latch");
    uint32_t hit_b = NewBlock("probe.hit");
    uint32_t miss_b = NewBlock("probe.miss");
    uint32_t join_b = NewBlock("probe.join");
    s.block_cond = static_cast<int>(cond_b);
    s.block_body = static_cast<int>(body_b);
    s.block_echk = static_cast<int>(echk_b);
    s.block_latch = static_cast<int>(latch_b);
    s.block_hit = static_cast<int>(hit_b);
    s.block_miss = static_cast<int>(miss_b);
    B().Br(cond_b);

    // cond: n < bound ?
    B().SetInsertPoint(cond_b);
    Value n = B().LoadStack(t_n);
    Value c = B().Compare(Opcode::kIcmpUlt, n, Value::Const(static_cast<int64_t>(bound)));
    B().CondBr(c, body_b, miss_b);

    // body: load stored key fields, compare against probe keys.
    B().SetInsertPoint(body_b);
    Value idx = B().LoadStack(t_idx);
    Value match;  // i1 chain
    for (size_t i = 0; i < nkeys; ++i) {
      Type kt = m.key_fields[i];
      Value stored = B().LoadState(sym, kt, idx, KeyFieldOffset(m, i));
      Value stored64 = Coerce(stored, kt, Type::kI64);
      if (i == 0) {
        B().StoreStack(t_k0, stored64);
      }
      Value want = B().LoadStack(t_keys[i]);
      Value eq = B().Compare(Opcode::kIcmpEq, stored64, want);
      match = (i == 0) ? eq : B().Binary(Opcode::kAnd, Type::kI1, match, eq);
    }
    B().CondBr(match, hit_b, echk_b);

    // echk: empty slot terminates the probe (miss / insert target).
    B().SetInsertPoint(echk_b);
    Value k0 = B().LoadStack(t_k0);
    Value empty = B().Compare(Opcode::kIcmpEq, k0, Value::Const(0));
    if (s.kind == StmtKind::kMapInsert) {
      B().CondBr(empty, hit_b, latch_b);  // claim the empty slot
    } else {
      B().CondBr(empty, miss_b, latch_b);
    }

    // latch: advance the probe index.
    B().SetInsertPoint(latch_b);
    Value iv = B().LoadStack(t_idx);
    Value next = B().Binary(Opcode::kAdd, Type::kI32, iv, Value::Const(1));
    if (!nic) {
      next = B().Binary(Opcode::kURem, Type::kI32, next,
                        Value::Const(static_cast<int64_t>(m.capacity)));
    }
    B().StoreStack(t_idx, next);
    Value nv = B().LoadStack(t_n);
    B().StoreStack(t_n, B().Binary(Opcode::kAdd, Type::kI32, nv, Value::Const(1)));
    B().Br(cond_b);

    // hit / write.
    B().SetInsertPoint(hit_b);
    Value hidx = B().LoadStack(t_idx);
    switch (s.kind) {
      case StmtKind::kMapFind:
        s.out_slots.clear();
        for (size_t j = 0; j < s.outs.size(); ++j) {
          Type vt = m.value_fields[j].type;
          Value v = B().LoadState(sym, vt, hidx, ValueFieldOffset(m, j));
          uint32_t slot = Slot(s.outs[j]);
          s.out_slots.push_back(static_cast<int>(slot));
          B().StoreStack(slot, Coerce(v, vt, B().func().slots[slot].type));
        }
        s.found_slot = s.found_local.empty() ? -1 : static_cast<int>(Slot(s.found_local));
        if (s.found_slot >= 0) {
          B().StoreStack(static_cast<uint32_t>(s.found_slot), Value::Const(1));
        }
        break;
      case StmtKind::kMapInsert:
        for (size_t i = 0; i < nkeys; ++i) {
          Type kt = m.key_fields[i];
          Value k = B().LoadStack(t_keys[i]);
          B().StoreState(sym, kt, Coerce(k, Type::kI64, kt), hidx, KeyFieldOffset(m, i));
        }
        for (size_t j = 0; j < m.value_fields.size(); ++j) {
          Type vt = m.value_fields[j].type;
          Expr& ve = *s.args[nkeys + j];
          Value v = Coerce(LowerExpr(ve), ve.type, vt);
          B().StoreState(sym, vt, v, hidx, ValueFieldOffset(m, j));
        }
        break;
      case StmtKind::kMapErase: {
        Type kt = m.key_fields[0];
        B().StoreState(sym, kt, Value::Const(0), hidx, 0);
        break;
      }
      default:
        break;
    }
    B().Br(join_b);

    // miss.
    B().SetInsertPoint(miss_b);
    if (s.kind == StmtKind::kMapFind && s.found_slot >= 0) {
      B().StoreStack(static_cast<uint32_t>(s.found_slot), Value::Const(0));
    }
    B().Br(join_b);

    B().SetInsertPoint(join_b);
  }

  Program& p_;
  std::optional<IrBuilder> builder_;
  std::map<std::string, uint32_t> slot_by_name_;
  std::set<int> blocks_with_entry_;
  int block_seq_ = 0;
};

}  // namespace

LowerResult LowerProgram(Program& p) { return Lowerer(p).Run(); }

}  // namespace clara
