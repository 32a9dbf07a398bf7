#include "src/lang/interp.h"

#include <algorithm>
#include <cassert>
#include <string_view>
#include <utility>

#include "src/nf/checksum.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"

namespace clara {

SimMap::SimMap(const StateDecl& decl)
    : nkeys_(decl.key_fields.size()),
      nvals_(decl.value_fields.size()),
      nic_(decl.impl == MapImpl::kNicFixedBucket),
      spb_(decl.slots_per_bucket == 0 ? 1 : decl.slots_per_bucket) {
  if (nic_) {
    buckets_ = (decl.capacity + spb_ - 1) / spb_;
    if (buckets_ == 0) {
      buckets_ = 1;
    }
    slot_count_ = static_cast<size_t>(buckets_) * spb_;
  } else {
    buckets_ = 0;
    slot_count_ = decl.capacity == 0 ? 1 : decl.capacity;
  }
  keys_.assign(slot_count_ * nkeys_, 0);
  values_.assign(slot_count_ * nvals_, 0);
}

SimMap::Probe SimMap::StartProbe(const std::vector<uint64_t>& keys) const {
  uint32_t h = MapFieldHash(keys.data(), keys.size());
  if (nic_) {
    return Probe{static_cast<uint64_t>(h % buckets_) * spb_, spb_};
  }
  return Probe{h % slot_count_, static_cast<uint32_t>(slot_count_)};
}

uint64_t SimMap::Advance(uint64_t idx) const {
  return nic_ ? idx + 1 : (idx + 1) % slot_count_;
}

bool SimMap::KeyMatches(uint64_t idx, const std::vector<uint64_t>& keys) const {
  for (size_t i = 0; i < nkeys_; ++i) {
    if (keys_[idx * nkeys_ + i] != keys[i]) {
      return false;
    }
  }
  return true;
}

SimMap::OpResult SimMap::Find(const std::vector<uint64_t>& keys,
                              std::vector<uint64_t>* values_out) {
  OpResult r;
  Probe p = StartProbe(keys);
  uint64_t idx = p.start;
  for (uint32_t n = 0; n < p.bound; ++n) {
    ++r.probes;
    if (KeyMatches(idx, keys)) {
      r.found = true;
      r.index = idx;
      if (values_out != nullptr) {
        values_out->assign(values_.begin() + idx * nvals_,
                           values_.begin() + (idx + 1) * nvals_);
      }
      return r;
    }
    if (keys_[idx * nkeys_] == 0) {
      r.stopped_empty = true;
      return r;
    }
    ++r.continues;
    idx = Advance(idx);
  }
  r.exhausted = true;
  return r;
}

SimMap::OpResult SimMap::Insert(const std::vector<uint64_t>& keys,
                                const std::vector<uint64_t>& values) {
  OpResult r;
  Probe p = StartProbe(keys);
  uint64_t idx = p.start;
  for (uint32_t n = 0; n < p.bound; ++n) {
    ++r.probes;
    bool match = KeyMatches(idx, keys);
    bool empty = keys_[idx * nkeys_] == 0;
    if (match || empty) {
      if (empty && !match) {
        r.stopped_empty = true;
        ++entries_;
      }
      for (size_t i = 0; i < nkeys_; ++i) {
        keys_[idx * nkeys_ + i] = keys[i];
      }
      for (size_t i = 0; i < nvals_ && i < values.size(); ++i) {
        values_[idx * nvals_ + i] = values[i];
      }
      r.found = true;
      r.index = idx;
      return r;
    }
    ++r.continues;
    idx = Advance(idx);
  }
  r.exhausted = true;  // structure full: baremetal insert fails
  return r;
}

SimMap::OpResult SimMap::Erase(const std::vector<uint64_t>& keys) {
  OpResult r;
  Probe p = StartProbe(keys);
  uint64_t idx = p.start;
  for (uint32_t n = 0; n < p.bound; ++n) {
    ++r.probes;
    if (KeyMatches(idx, keys)) {
      keys_[idx * nkeys_] = 0;  // mark invalid only (paper §3.3)
      r.found = true;
      r.index = idx;
      if (entries_ > 0) {
        --entries_;
      }
      return r;
    }
    if (keys_[idx * nkeys_] == 0) {
      r.stopped_empty = true;
      return r;
    }
    ++r.continues;
    idx = Advance(idx);
  }
  r.exhausted = true;
  return r;
}

void SimMap::Clear() {
  std::fill(keys_.begin(), keys_.end(), 0);
  std::fill(values_.begin(), values_.end(), 0);
  entries_ = 0;
}

// Compiles the lowered handler into code_. The program must do what walking
// the AST statement by statement would, in the same order, because the
// profile is defined by that walk: operands left to right (an array or
// payload store evaluates its index before its value), each state access
// recorded in the block its statement attributes it to (a loop bound in the
// loop's condition block), and a block-count bump where a statement starts
// its block.
class NfInstance::Compiler {
  static_assert(static_cast<int>(Op::kAdd) == static_cast<int>(Opcode::kAdd) &&
                    static_cast<int>(Op::kAShr) == static_cast<int>(Opcode::kAShr) &&
                    static_cast<int>(Op::kUge) == static_cast<int>(Opcode::kIcmpUge),
                "Op must start with Opcode's binary operations and comparisons");

 public:
  explicit Compiler(NfInstance& nf) : nf_(nf) {}

  void Run() {
    uint32_t next = static_cast<uint32_t>(nf_.slot_masks_.size());
    literals_[0] = 0;  // the value of an operation the kind does not define
    CollectLiterals(nf_.program_.body);
    for (auto& [value, reg] : literals_) {
      reg = next++;
    }
    next_temp_ = max_temp_ = next;
    Body(nf_.program_.body);
    Emit(Op::kReturn);
    nf_.regs_.assign(max_temp_, 0);
    for (const auto& [value, reg] : literals_) {
      nf_.regs_[reg] = value;
    }
  }

 private:
  void CollectLiterals(const Expr& e) {
    if (e.kind == ExprKind::kIntLit) {
      literals_[e.value & TypeMask(e.type)] = 0;
    }
    for (const ExprPtr& a : e.args) {
      CollectLiterals(*a);
    }
  }

  void CollectLiterals(const std::vector<StmtPtr>& body) {
    for (const StmtPtr& s : body) {
      for (const Expr* e : {s->e0.get(), s->e1.get()}) {
        if (e != nullptr) {
          CollectLiterals(*e);
        }
      }
      for (const ExprPtr& a : s->args) {
        CollectLiterals(*a);
      }
      CollectLiterals(s->body);
      CollectLiterals(s->else_body);
    }
  }

  size_t Emit(Op op, uint32_t a = 0, uint32_t b = 0, uint32_t c = 0, uint32_t d = 0,
              uint64_t k = 0) {
    nf_.code_.push_back(Insn{op, 0, a, b, c, d, k});
    produced_ = kNoTemp;
    return nf_.code_.size() - 1;
  }

  // Points the jump at `at` to the next instruction emitted.
  void Patch(size_t at) { nf_.code_[at].a = static_cast<uint32_t>(nf_.code_.size()); }

  uint32_t Temp() {
    max_temp_ = std::max(max_temp_, next_temp_ + 1);
    return next_temp_++;
  }

  // Emits `op` into a fresh temporary and returns it. `op` reads its
  // operands, then writes its result masked with `k` to register `a`.
  uint32_t Produce(Op op, uint32_t b, uint32_t c, uint32_t d, uint64_t k) {
    uint32_t t = Temp();
    Emit(op, t, b, c, d, k);
    produced_ = t;
    return t;
  }

  uint64_t ElemMask(int sym) const { return TypeMask(nf_.module_.state[sym].elem_type); }

  // The register holding `e`'s value. Its state reads count against `block`.
  uint32_t Value(const Expr& e, int block) {
    uint32_t blk = static_cast<uint32_t>(block);
    switch (e.kind) {
      case ExprKind::kIntLit:
        return literals_.at(e.value & TypeMask(e.type));
      case ExprKind::kLocal:
        return static_cast<uint32_t>(e.sym);
      case ExprKind::kStateScalar:
        return Produce(Op::kLoadScalar, e.sym, blk, 0, TypeMask(e.type));
      case ExprKind::kStateArray: {
        uint32_t idx = Value(*e.args[0], block);
        return Produce(Op::kLoadArray, e.sym, idx, blk, TypeMask(e.type));
      }
      case ExprKind::kPacketField:
        return Produce(Op::kLoadField, e.sym, 0, 0, TypeMask(e.type));
      case ExprKind::kPayloadByte:
        return Produce(Op::kLoadPayload, Value(*e.args[0], block), 0, 0, ~0ULL);
      case ExprKind::kBinary:
      case ExprKind::kCompare: {
        uint32_t x = Value(*e.args[0], block);
        uint32_t y = Value(*e.args[1], block);
        bool binary = e.kind == ExprKind::kBinary;
        if (binary ? !IsBinaryOp(e.op) : !IsCompare(e.op)) {
          return literals_.at(0);
        }
        return Produce(static_cast<Op>(e.op), x, y, static_cast<uint32_t>(BitWidth(e.type) - 1),
                       binary ? TypeMask(e.type) : ~0ULL);
      }
      case ExprKind::kCast:
        return Produce(Op::kMask, Value(*e.args[0], block), 0, 0, TypeMask(e.type));
      case ExprKind::kCall:
        return Call(e.sym, e.args, block, TypeMask(e.type));
    }
    return literals_.at(0);
  }

  // Evaluates every argument; the first kApiArgs are passed.
  uint32_t Call(int api, const std::vector<ExprPtr>& args, int block, uint64_t mask) {
    uint32_t regs[kApiArgs] = {};
    for (size_t i = 0; i < args.size(); ++i) {
      uint32_t v = Value(*args[i], block);
      if (i < kApiArgs) {
        regs[i] = v;
      }
    }
    uint32_t t = Produce(Op::kCall, api, regs[0], regs[1], mask);
    nf_.code_.back().n = static_cast<uint8_t>(std::min(args.size(), kApiArgs));
    return t;
  }

  // local = e & the slot's mask. When the last instruction produced e's
  // value, it writes the slot instead, and no kMask follows.
  void AssignLocal(const Expr& e, int block, uint32_t slot) {
    uint32_t v = Value(e, block);
    uint64_t mask = nf_.slot_masks_[slot];
    if (v == produced_) {
      nf_.code_.back().a = slot;
      nf_.code_.back().k &= mask;
    } else {
      Emit(Op::kMask, slot, v, 0, 0, mask);
    }
  }

  // Emits a jump, to be patched, that is taken when `cond` is false.
  size_t JumpUnless(const Expr& cond, int block) {
    if (cond.kind != ExprKind::kCompare) {
      return Emit(Op::kJumpZero, 0, Value(cond, block));
    }
    uint32_t x = Value(*cond.args[0], block);
    uint32_t y = Value(*cond.args[1], block);
    if (!IsCompare(cond.op)) {
      return Emit(Op::kJump);  // the comparison yields 0
    }
    // Indexed like the comparisons from kIcmpEq: the jump on the opposite.
    constexpr Op kJumpIfNot[] = {Op::kJumpNe,  Op::kJumpEq,  Op::kJumpUge,
                                 Op::kJumpUgt, Op::kJumpUle, Op::kJumpUlt};
    int idx = static_cast<int>(cond.op) - static_cast<int>(Opcode::kIcmpEq);
    return Emit(kJumpIfNot[idx], 0, x, y);
  }

  void Body(const std::vector<StmtPtr>& body) {
    for (const StmtPtr& s : body) {
      uint32_t mark = next_temp_;
      Statement(*s);
      next_temp_ = mark;
      if (s->kind == StmtKind::kSend || s->kind == StmtKind::kDrop ||
          s->kind == StmtKind::kReturn) {
        return;  // what follows never runs, and lowering resolved none of it
      }
    }
  }

  void Statement(const Stmt& s) {
    uint32_t blk = static_cast<uint32_t>(s.block);
    if (s.block_entry && s.block >= 0) {
      Emit(Op::kBump, blk);
    }
    switch (s.kind) {
      case StmtKind::kDecl:
      case StmtKind::kAssignLocal:
        AssignLocal(*s.e0, s.block, s.sym);
        return;
      case StmtKind::kAssignState:
        Emit(Op::kStoreScalar, Value(*s.e0, s.block), s.sym, blk, 0, ElemMask(s.sym));
        return;
      case StmtKind::kAssignStateArr: {
        uint32_t idx = Value(*s.e1, s.block);
        uint32_t v = Value(*s.e0, s.block);
        Emit(Op::kStoreArray, v, s.sym, idx, blk, ElemMask(s.sym));
        return;
      }
      case StmtKind::kAssignPacket:
        Emit(Op::kStoreField, Value(*s.e0, s.block), s.sym);
        return;
      case StmtKind::kAssignPayload: {
        uint32_t idx = Value(*s.e1, s.block);
        uint32_t v = Value(*s.e0, s.block);
        Emit(Op::kStorePayload, v, idx);
        return;
      }
      case StmtKind::kIf: {
        size_t to_else = JumpUnless(*s.e0, s.block);
        Body(s.body);
        if (s.else_body.empty()) {
          Patch(to_else);
          return;
        }
        size_t to_end = Emit(Op::kJump);
        Patch(to_else);
        Body(s.else_body);
        Patch(to_end);
        return;
      }
      case StmtKind::kFor: {
        uint32_t var = static_cast<uint32_t>(s.sym);
        uint32_t lo = Value(*s.e0, s.block);
        uint32_t iters = Temp();  // this loop's own backstop count
        Emit(Op::kLoopEnter, var, lo, iters);
        uint32_t cond = static_cast<uint32_t>(nf_.code_.size());
        if (s.block_cond >= 0) {
          Emit(Op::kBump, static_cast<uint32_t>(s.block_cond));
        }
        uint32_t hi = Value(*s.e1, s.block_cond);
        size_t to_exit = Emit(Op::kJumpUge, 0, var, hi);
        Body(s.body);
        if (s.block_latch >= 0) {
          Emit(Op::kBump, static_cast<uint32_t>(s.block_latch));
        }
        size_t next = Emit(Op::kLoopNext, cond, var, iters);
        Patch(to_exit);
        nf_.code_[next].d = nf_.code_[to_exit].a;
        return;
      }
      case StmtKind::kMapFind:
      case StmtKind::kMapInsert:
      case StmtKind::kMapErase: {
        const StateDecl& d = nf_.program_.state[s.sym];
        MapSite site{&s, {}, {}};
        for (size_t i = 0; i < d.key_fields.size(); ++i) {
          site.keys.push_back(Value(*s.args[i], s.block));
        }
        if (s.kind == StmtKind::kMapInsert) {
          for (size_t j = 0; j < d.value_fields.size(); ++j) {
            site.values.push_back(Value(*s.args[d.key_fields.size() + j], s.block));
          }
        }
        Op op = s.kind == StmtKind::kMapFind     ? Op::kMapFind
                : s.kind == StmtKind::kMapInsert ? Op::kMapInsert
                                                 : Op::kMapErase;
        Emit(op, static_cast<uint32_t>(nf_.map_sites_.size()));
        nf_.map_sites_.push_back(std::move(site));
        return;
      }
      case StmtKind::kApiCall:
        Call(s.sym, s.args, s.block, 0);
        return;
      case StmtKind::kSend: {
        uint32_t port = s.e0 ? Value(*s.e0, s.block) : 0;
        Produce(Op::kCall, s.sym, port, 0, 0);
        nf_.code_.back().n = s.e0 ? 1 : 0;
        Emit(Op::kReturn);
        return;
      }
      case StmtKind::kDrop:
        Produce(Op::kCall, s.sym, 0, 0, 0);
        Emit(Op::kReturn);
        return;
      case StmtKind::kReturn:
        Emit(Op::kReturn);
        return;
    }
  }

  NfInstance& nf_;
  std::map<uint64_t, uint32_t> literals_;  // value -> register
  static constexpr uint32_t kNoTemp = ~0u;
  uint32_t produced_ = kNoTemp;  // the temporary the last instruction wrote
  uint32_t next_temp_ = 0;
  uint32_t max_temp_ = 0;
};

NfInstance::NfInstance(Program program, uint64_t seed)
    : program_(std::move(program)), rng_(seed) {
  LowerResult lr = LowerProgram(program_);
  if (!lr.ok) {
    error_ = lr.error;
    return;
  }
  module_ = std::move(lr.module);
  ok_ = true;
  for (const StackSlot& slot : module_.functions[0].slots) {
    slot_masks_.push_back(TypeMask(slot.type));
  }
  size_t nvars = program_.state.size();
  arrays_.resize(nvars);
  maps_.resize(nvars);
  map_keys_.resize(nvars);
  map_values_.resize(nvars);
  for (size_t i = 0; i < nvars; ++i) {
    map_keys_[i].resize(program_.state[i].key_fields.size());
    map_values_[i].resize(program_.state[i].value_fields.size());
  }
  static constexpr std::pair<std::string_view, ApiKind> kKinds[] = {
      {"checksum_update", ApiKind::kChecksum}, {"csum_hw", ApiKind::kChecksum},
      {"send", ApiKind::kSend},                {"drop", ApiKind::kDrop},
      {"crc_hash_hw", ApiKind::kCrcHash},      {"crc32_hw", ApiKind::kCrc32},
      {"lpm_hw", ApiKind::kLpm},               {"flow_cache_get", ApiKind::kFlowCacheGet},
      {"flow_cache_put", ApiKind::kFlowCachePut}, {"rand", ApiKind::kRand},
  };
  for (const ApiInfo& info : module_.apis) {
    Api api;
    for (const auto& [name, kind] : kKinds) {
      if (info.name == name) {
        api.kind = kind;
      }
    }
    apis_.push_back(api);
  }
  Compiler(*this).Run();
  ResetState();
  ResetProfile();
}

void NfInstance::ResetState() {
  for (size_t i = 0; i < program_.state.size(); ++i) {
    const StateDecl& d = program_.state[i];
    switch (d.kind) {
      case StateKind::kScalar:
        arrays_[i].assign(1, d.init.empty() ? 0 : d.init[0]);
        break;
      case StateKind::kArray:
        arrays_[i].assign(d.length, 0);
        for (size_t k = 0; k < d.init.size() && k < d.length; ++k) {
          arrays_[i][k] = d.init[k];
        }
        break;
      case StateKind::kMap:
        maps_[i] = std::make_unique<SimMap>(d);
        break;
    }
  }
  flow_cache_.clear();
}

void NfInstance::ResetProfile() {
  profile_ = NfProfile{};
  size_t nblocks = module_.functions[0].blocks.size();
  size_t nvars = module_.state.size();
  profile_.block_exec.assign(nblocks, 0);
  profile_.state_reads.assign(nvars, 0);
  profile_.state_writes.assign(nvars, 0);
  profile_.block_var_access.assign(nblocks, std::vector<uint64_t>(nvars, 0));
  for (Api& api : apis_) {
    api.calls = nullptr;
  }
}

void NfInstance::RecordStateRead(int sym, int block, uint64_t n) {
  profile_.state_reads[sym] += n;
  if (block >= 0) {
    profile_.block_var_access[block][sym] += n;
  }
}

void NfInstance::RecordStateWrite(int sym, int block, uint64_t n) {
  profile_.state_writes[sym] += n;
  if (block >= 0) {
    profile_.block_var_access[block][sym] += n;
  }
}

uint64_t NfInstance::LoadField(int field) const {
  const Packet& p = *pkt_;
  switch (static_cast<PacketField>(field)) {
    case PacketField::kEthType: return p.eth_type;
    case PacketField::kIpIhl: return p.ip_ihl;
    case PacketField::kIpTos: return p.ip_tos;
    case PacketField::kIpLen: return p.ip_len;
    case PacketField::kIpTtl: return p.ip_ttl;
    case PacketField::kIpProto: return p.ip_proto;
    case PacketField::kIpCsum: return p.ip_checksum;
    case PacketField::kIpSrc: return p.src_ip;
    case PacketField::kIpDst: return p.dst_ip;
    case PacketField::kTcpSport: return p.sport;
    case PacketField::kTcpDport: return p.dport;
    case PacketField::kTcpSeq: return p.tcp_seq;
    case PacketField::kTcpAck: return p.tcp_ack;
    case PacketField::kTcpOff: return p.tcp_off;
    case PacketField::kTcpFlags: return p.tcp_flags;
    case PacketField::kTcpCsum: return p.l4_checksum;
    case PacketField::kPktLen: return p.wire_len;
    case PacketField::kPktPayloadLen: return p.payload_len;
    case PacketField::kPktInPort: return p.in_port;
    case PacketField::kPktTs: return p.ts_ns;
    case PacketField::kPktPayload: return 0;  // only payload[i] reads bytes
  }
  return 0;
}

void NfInstance::StoreField(int field, uint64_t v) {
  Packet& p = *pkt_;
  switch (static_cast<PacketField>(field)) {
    case PacketField::kEthType: p.eth_type = static_cast<uint16_t>(v); return;
    case PacketField::kIpIhl: p.ip_ihl = static_cast<uint8_t>(v); return;
    case PacketField::kIpTos: p.ip_tos = static_cast<uint8_t>(v); return;
    case PacketField::kIpLen: p.ip_len = static_cast<uint16_t>(v); return;
    case PacketField::kIpTtl: p.ip_ttl = static_cast<uint8_t>(v); return;
    case PacketField::kIpProto: p.ip_proto = static_cast<uint8_t>(v); return;
    case PacketField::kIpCsum: p.ip_checksum = static_cast<uint16_t>(v); return;
    case PacketField::kIpSrc: p.src_ip = static_cast<uint32_t>(v); return;
    case PacketField::kIpDst: p.dst_ip = static_cast<uint32_t>(v); return;
    case PacketField::kTcpSport: p.sport = static_cast<uint16_t>(v); return;
    case PacketField::kTcpDport: p.dport = static_cast<uint16_t>(v); return;
    case PacketField::kTcpSeq: p.tcp_seq = static_cast<uint32_t>(v); return;
    case PacketField::kTcpAck: p.tcp_ack = static_cast<uint32_t>(v); return;
    case PacketField::kTcpOff: p.tcp_off = static_cast<uint8_t>(v); return;
    case PacketField::kTcpFlags: p.tcp_flags = static_cast<uint8_t>(v); return;
    case PacketField::kTcpCsum: p.l4_checksum = static_cast<uint16_t>(v); return;
    case PacketField::kPktInPort: p.in_port = static_cast<uint16_t>(v); return;
    case PacketField::kPktLen:
    case PacketField::kPktPayloadLen:
    case PacketField::kPktTs:
    case PacketField::kPktPayload:
      return;  // read-only metadata; payload[i] = v writes bytes
  }
}

uint64_t NfInstance::CallApi(int api, const uint64_t* args, size_t nargs) {
  Api& a = apis_[api];
  if (a.calls == nullptr) {
    // First call since ResetProfile: api_calls lists only the APIs that ran.
    a.calls = &profile_.api_calls[module_.apis[api].name];
  }
  ++*a.calls;
  if (obs::Enabled() && obs_api_calls_ != nullptr) {
    obs_api_calls_->Add(1);
    if (obs_drops_ != nullptr && a.kind == ApiKind::kDrop) {
      obs_drops_->Add(1);
    }
  }
  Packet& p = *pkt_;
  switch (a.kind) {
    case ApiKind::kNoop:
      return 0;
    case ApiKind::kChecksum:
      p.ip_checksum = Ipv4HeaderChecksum(p);
      return p.ip_checksum;
    case ApiKind::kSend:
      p.verdict = Packet::Verdict::kSent;
      p.out_port = nargs == 0 ? 0 : static_cast<uint16_t>(args[0]);
      ++profile_.sends;
      return 0;
    case ApiKind::kDrop:
      p.verdict = Packet::Verdict::kDropped;
      ++profile_.drops;
      return 0;
    case ApiKind::kCrcHash: {
      uint64_t key = nargs == 0 ? 0 : args[0];
      uint8_t bytes[8];
      for (int i = 0; i < 8; ++i) {
        bytes[i] = static_cast<uint8_t>(key >> (8 * i));
      }
      return Crc32Bitwise(bytes, 8);
    }
    case ApiKind::kCrc32: {
      int len = p.PayloadPrefixLen();
      if (nargs > 0 && args[0] < static_cast<uint64_t>(len)) {
        len = static_cast<int>(args[0]);
      }
      return Crc32Bitwise(p.payload.data(), static_cast<size_t>(len));
    }
    case ApiKind::kLpm:
      if (lpm_accel_ != nullptr && nargs > 0) {
        auto hop = lpm_accel_->Lookup(static_cast<uint32_t>(args[0]));
        return hop.has_value() ? *hop + 1 : 0;
      }
      return 0;
    case ApiKind::kFlowCacheGet: {
      auto it = flow_cache_.find(nargs == 0 ? 0 : args[0]);
      return it == flow_cache_.end() ? 0 : it->second + 1;
    }
    case ApiKind::kFlowCachePut:
      if (nargs >= 2) {
        flow_cache_[args[0]] = args[1];
      }
      return 0;
    case ApiKind::kRand:
      return rng_.NextU64() & 0xffffffffULL;
  }
  return 0;
}

void NfInstance::AttributeMapOp(const Stmt& s, const SimMap::OpResult& r, size_t nkeys,
                                size_t value_reads, size_t value_writes, int sym) {
  auto bump = [this](int block, uint64_t n) {
    if (block >= 0 && n > 0) {
      profile_.block_exec[block] += n;
    }
  };
  bump(s.block_cond, r.probes + (r.exhausted ? 1 : 0));
  bump(s.block_body, r.probes);
  // echk runs on every probe that did not match (a hit skips it once).
  uint64_t early_hit = (r.found && !r.exhausted) ? 1 : 0;
  bump(s.block_echk, r.probes >= early_hit ? r.probes - early_hit : 0);
  bump(s.block_latch, r.continues);
  bump(s.block_hit, r.found ? 1 : 0);
  bump(s.block_miss, r.found ? 0 : 1);

  // Probe-loop key loads.
  if (s.block_body >= 0) {
    RecordStateRead(sym, s.block_body, static_cast<uint64_t>(r.probes) * nkeys);
  }
  if (r.found) {
    if (value_reads > 0) {
      RecordStateRead(sym, s.block_hit, value_reads);
    }
    if (value_writes > 0) {
      RecordStateWrite(sym, s.block_hit, value_writes);
    }
  }
}

void NfInstance::RunMapOp(Op op, const MapSite& site) {
  const Stmt& s = *site.stmt;
  const StateDecl& d = program_.state[s.sym];
  std::vector<uint64_t>& keys = map_keys_[s.sym];
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = regs_[site.keys[i]] & TypeMask(d.key_fields[i]);
  }
  SimMap& m = *maps_[s.sym];
  switch (op) {
    case Op::kMapFind: {
      SimMap::OpResult r = m.Find(keys, nullptr);
      AttributeMapOp(s, r, keys.size(), s.outs.size(), 0, s.sym);
      if (r.found) {
        for (size_t j = 0; j < s.out_slots.size(); ++j) {
          int slot = s.out_slots[j];
          regs_[slot] = m.ValueAt(r.index, j) & slot_masks_[slot];
        }
      }
      if (s.found_slot >= 0) {
        regs_[s.found_slot] = (r.found ? 1 : 0) & slot_masks_[s.found_slot];
      }
      return;
    }
    case Op::kMapInsert: {
      std::vector<uint64_t>& values = map_values_[s.sym];
      for (size_t j = 0; j < values.size(); ++j) {
        values[j] = regs_[site.values[j]] & TypeMask(d.value_fields[j].type);
      }
      SimMap::OpResult r = m.Insert(keys, values);
      AttributeMapOp(s, r, keys.size(), 0, keys.size() + values.size(), s.sym);
      return;
    }
    default: {
      SimMap::OpResult r = m.Erase(keys);
      AttributeMapOp(s, r, keys.size(), 0, r.found ? 1 : 0, s.sym);
      return;
    }
  }
}

// The dispatch loop. Operand roles:
//   a  the register written (for a store, the register holding the value
//      stored), a jump's target, a bump's block or a map operation's site;
//   b  a register read, or the state variable, packet field or API named;
//   c  a register read, or a scalar access's block;
//   d  a call's second argument, an array access's block, a shift's
//      width - 1, or a loop's exit;
//   k  the mask applied to the value written.
// kLoopEnter and kLoopNext also write the loop's backstop count in c.
void NfInstance::Run() {
  constexpr uint64_t kI32 = 0xffffffffULL;     // loop variables are i32
  constexpr uint64_t kLoopBackstop = 1u << 16;  // runaway-loop backstop (NF loops are small)
  const Insn* code = code_.data();
  uint64_t* r = regs_.data();
  uint64_t* bumps = profile_.block_exec.data();
  for (size_t pc = 0;;) {
    const Insn& i = code[pc++];
    switch (i.op) {
      case Op::kAdd: r[i.a] = (r[i.b] + r[i.c]) & i.k; break;
      case Op::kSub: r[i.a] = (r[i.b] - r[i.c]) & i.k; break;
      case Op::kMul: r[i.a] = (r[i.b] * r[i.c]) & i.k; break;
      case Op::kUDiv: r[i.a] = (r[i.c] == 0 ? 0 : r[i.b] / r[i.c]) & i.k; break;
      case Op::kURem: r[i.a] = (r[i.c] == 0 ? 0 : r[i.b] % r[i.c]) & i.k; break;
      case Op::kAnd: r[i.a] = (r[i.b] & r[i.c]) & i.k; break;
      case Op::kOr: r[i.a] = (r[i.b] | r[i.c]) & i.k; break;
      case Op::kXor: r[i.a] = (r[i.b] ^ r[i.c]) & i.k; break;
      case Op::kShl: r[i.a] = (r[i.b] << (r[i.c] & i.d)) & i.k; break;
      case Op::kLShr: r[i.a] = (r[i.b] >> (r[i.c] & i.d)) & i.k; break;
      case Op::kAShr: {
        // Arithmetic shift within the type width (i.d + 1 bits).
        uint64_t v = r[i.b];
        uint64_t sa = r[i.c] & i.d;
        uint64_t out = v >> sa;
        if (sa != 0 && ((v >> i.d) & 1) != 0) {
          out |= ~0ULL << (i.d + 1 - sa);
        }
        r[i.a] = out & i.k;
        break;
      }
      case Op::kEq: r[i.a] = (r[i.b] == r[i.c]) & i.k; break;
      case Op::kNe: r[i.a] = (r[i.b] != r[i.c]) & i.k; break;
      case Op::kUlt: r[i.a] = (r[i.b] < r[i.c]) & i.k; break;
      case Op::kUle: r[i.a] = (r[i.b] <= r[i.c]) & i.k; break;
      case Op::kUgt: r[i.a] = (r[i.b] > r[i.c]) & i.k; break;
      case Op::kUge: r[i.a] = (r[i.b] >= r[i.c]) & i.k; break;
      case Op::kMask: r[i.a] = r[i.b] & i.k; break;
      case Op::kLoadScalar:
        RecordStateRead(static_cast<int>(i.b), static_cast<int>(i.c));
        r[i.a] = arrays_[i.b][0] & i.k;
        break;
      case Op::kLoadArray: {
        RecordStateRead(static_cast<int>(i.b), static_cast<int>(i.d));
        const std::vector<uint64_t>& arr = arrays_[i.b];
        r[i.a] = arr.empty() ? 0 : arr[r[i.c] % arr.size()] & i.k;
        break;
      }
      case Op::kLoadField: r[i.a] = LoadField(static_cast<int>(i.b)) & i.k; break;
      case Op::kLoadPayload: r[i.a] = pkt_->payload[r[i.b] % kMaxPayloadPrefix] & i.k; break;
      case Op::kCall: {
        uint64_t args[kApiArgs] = {r[i.c], r[i.d]};
        r[i.a] = CallApi(static_cast<int>(i.b), args, i.n) & i.k;
        break;
      }
      case Op::kStoreScalar:
        arrays_[i.b][0] = r[i.a] & i.k;
        RecordStateWrite(static_cast<int>(i.b), static_cast<int>(i.c));
        break;
      case Op::kStoreArray: {
        std::vector<uint64_t>& arr = arrays_[i.b];
        if (!arr.empty()) {
          arr[r[i.c] % arr.size()] = r[i.a] & i.k;
        }
        RecordStateWrite(static_cast<int>(i.b), static_cast<int>(i.d));
        break;
      }
      case Op::kStoreField: StoreField(static_cast<int>(i.b), r[i.a]); break;
      case Op::kStorePayload:
        pkt_->payload[r[i.b] % kMaxPayloadPrefix] = static_cast<uint8_t>(r[i.a]);
        break;
      case Op::kMapFind:
      case Op::kMapInsert:
      case Op::kMapErase:
        RunMapOp(i.op, map_sites_[i.a]);
        break;
      case Op::kBump: ++bumps[i.a]; break;
      case Op::kJump: pc = i.a; break;
      case Op::kJumpZero: if (r[i.b] == 0) pc = i.a; break;
      case Op::kJumpEq: if (r[i.b] == r[i.c]) pc = i.a; break;
      case Op::kJumpNe: if (r[i.b] != r[i.c]) pc = i.a; break;
      case Op::kJumpUlt: if (r[i.b] < r[i.c]) pc = i.a; break;
      case Op::kJumpUle: if (r[i.b] <= r[i.c]) pc = i.a; break;
      case Op::kJumpUgt: if (r[i.b] > r[i.c]) pc = i.a; break;
      case Op::kJumpUge: if (r[i.b] >= r[i.c]) pc = i.a; break;
      case Op::kLoopEnter:
        r[i.a] = r[i.b] & kI32;
        r[i.c] = 0;
        break;
      case Op::kLoopNext:
        r[i.b] = (r[i.b] + 1) & kI32;
        pc = ++r[i.c] > kLoopBackstop ? i.d : i.a;
        break;
      case Op::kReturn:
        return;
    }
  }
}

void NfInstance::Process(Packet& pkt) {
  assert(ok_);
  pkt_ = &pkt;
  ++profile_.packets;
  if (obs::Enabled()) {
    if (obs_packets_ == nullptr) {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      std::string base = "lang.interp." + module_.name;
      obs_packets_ = &reg.GetCounter(base + ".packets");
      obs_api_calls_ = &reg.GetCounter(base + ".api_calls");
      obs_drops_ = &reg.GetCounter(base + ".drops");
    }
    obs_packets_->Add(1);
  }
  std::fill(regs_.begin(), regs_.begin() + slot_masks_.size(), 0);
  Run();
  if (pkt.verdict == Packet::Verdict::kPending) {
    pkt.verdict = Packet::Verdict::kSent;  // default: pass through
  }
  pkt_ = nullptr;
}

uint64_t NfInstance::ReadScalar(const std::string& name) const {
  int sym = module_.FindState(name);
  return sym >= 0 ? arrays_[sym][0] : 0;
}

uint64_t NfInstance::ReadArray(const std::string& name, size_t index) const {
  int sym = module_.FindState(name);
  if (sym < 0 || arrays_[sym].empty()) {
    return 0;
  }
  return arrays_[sym][index % arrays_[sym].size()];
}

SimMap* NfInstance::FindMap(const std::string& name) {
  int sym = module_.FindState(name);
  return sym >= 0 ? maps_[sym].get() : nullptr;
}

}  // namespace clara
