#include "src/lang/interp.h"

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
  locals_.assign(slot_masks_.size(), 0);
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

uint64_t NfInstance::EvalCall(int api, const std::vector<ExprPtr>& arg_exprs, int block) {
  uint64_t args[kApiArgs] = {};
  for (size_t i = 0; i < arg_exprs.size(); ++i) {
    uint64_t v = EvalExpr(*arg_exprs[i], block);
    if (i < kApiArgs) {
      args[i] = v;
    }
  }
  return CallApi(api, args, arg_exprs.size());
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

uint64_t NfInstance::EvalExpr(const Expr& e, int block) {
  switch (e.kind) {
    case ExprKind::kIntLit:
      return e.value & TypeMask(e.type);
    case ExprKind::kLocal:
      return locals_[e.sym];
    case ExprKind::kStateScalar:
      RecordStateRead(e.sym, block);
      return arrays_[e.sym][0] & TypeMask(e.type);
    case ExprKind::kStateArray: {
      uint64_t idx = EvalExpr(*e.args[0], block);
      RecordStateRead(e.sym, block);
      const auto& arr = arrays_[e.sym];
      return arr.empty() ? 0 : arr[idx % arr.size()] & TypeMask(e.type);
    }
    case ExprKind::kPacketField:
      return LoadField(e.sym) & TypeMask(e.type);
    case ExprKind::kPayloadByte: {
      uint64_t idx = EvalExpr(*e.args[0], block);
      return pkt_->payload[idx % kMaxPayloadPrefix];
    }
    case ExprKind::kBinary: {
      uint64_t a = EvalExpr(*e.args[0], block);
      uint64_t b = EvalExpr(*e.args[1], block);
      uint64_t r = 0;
      switch (e.op) {
        case Opcode::kAdd: r = a + b; break;
        case Opcode::kSub: r = a - b; break;
        case Opcode::kMul: r = a * b; break;
        case Opcode::kUDiv: r = b == 0 ? 0 : a / b; break;
        case Opcode::kURem: r = b == 0 ? 0 : a % b; break;
        case Opcode::kAnd: r = a & b; break;
        case Opcode::kOr: r = a | b; break;
        case Opcode::kXor: r = a ^ b; break;
        case Opcode::kShl: r = a << (b & (BitWidth(e.type) - 1)); break;
        case Opcode::kLShr: r = a >> (b & (BitWidth(e.type) - 1)); break;
        case Opcode::kAShr: {
          // Arithmetic shift within the type width.
          int w = BitWidth(e.type);
          uint64_t sign_bit = 1ULL << (w - 1);
          uint64_t sa = b & (w - 1);
          r = a >> sa;
          if (a & sign_bit) {
            r |= ~((1ULL << (w - static_cast<int>(sa))) - 1);
          }
          break;
        }
        default: r = 0; break;
      }
      return r & TypeMask(e.type);
    }
    case ExprKind::kCompare: {
      uint64_t a = EvalExpr(*e.args[0], block);
      uint64_t b = EvalExpr(*e.args[1], block);
      switch (e.op) {
        case Opcode::kIcmpEq: return a == b;
        case Opcode::kIcmpNe: return a != b;
        case Opcode::kIcmpUlt: return a < b;
        case Opcode::kIcmpUle: return a <= b;
        case Opcode::kIcmpUgt: return a > b;
        case Opcode::kIcmpUge: return a >= b;
        default: return 0;
      }
    }
    case ExprKind::kCast:
      return EvalExpr(*e.args[0], block) & TypeMask(e.type);
    case ExprKind::kCall:
      return EvalCall(e.sym, e.args, block) & TypeMask(e.type);
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

std::vector<uint64_t>& NfInstance::EvalKeys(const Stmt& s) {
  const StateDecl& d = program_.state[s.sym];
  std::vector<uint64_t>& keys = map_keys_[s.sym];
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = EvalExpr(*s.args[i], s.block) & TypeMask(d.key_fields[i]);
  }
  return keys;
}

NfInstance::Flow NfInstance::ExecBody(const std::vector<StmtPtr>& body) {
  for (const auto& s : body) {
    if (ExecStmt(*s) == Flow::kReturned) {
      return Flow::kReturned;
    }
  }
  return Flow::kNormal;
}

NfInstance::Flow NfInstance::ExecStmt(const Stmt& s) {
  if (s.block_entry && s.block >= 0) {
    ++profile_.block_exec[s.block];
  }
  switch (s.kind) {
    case StmtKind::kDecl:
    case StmtKind::kAssignLocal:
      locals_[s.sym] = EvalExpr(*s.e0, s.block) & slot_masks_[s.sym];
      return Flow::kNormal;
    case StmtKind::kAssignState:
      arrays_[s.sym][0] = EvalExpr(*s.e0, s.block) & TypeMask(module_.state[s.sym].elem_type);
      RecordStateWrite(s.sym, s.block);
      return Flow::kNormal;
    case StmtKind::kAssignStateArr: {
      uint64_t idx = EvalExpr(*s.e1, s.block);
      uint64_t v = EvalExpr(*s.e0, s.block);
      auto& arr = arrays_[s.sym];
      if (!arr.empty()) {
        arr[idx % arr.size()] = v & TypeMask(module_.state[s.sym].elem_type);
      }
      RecordStateWrite(s.sym, s.block);
      return Flow::kNormal;
    }
    case StmtKind::kAssignPacket:
      StoreField(s.sym, EvalExpr(*s.e0, s.block));
      return Flow::kNormal;
    case StmtKind::kAssignPayload: {
      uint64_t idx = EvalExpr(*s.e1, s.block);
      uint64_t v = EvalExpr(*s.e0, s.block);
      pkt_->payload[idx % kMaxPayloadPrefix] = static_cast<uint8_t>(v);
      return Flow::kNormal;
    }
    case StmtKind::kIf: {
      uint64_t c = EvalExpr(*s.e0, s.block);
      return c != 0 ? ExecBody(s.body) : ExecBody(s.else_body);
    }
    case StmtKind::kFor: {
      constexpr uint64_t kI32 = 0xffffffffULL;  // loop variables are i32
      uint64_t& var = locals_[s.sym];
      var = EvalExpr(*s.e0, s.block) & kI32;
      uint64_t iters = 0;
      while (true) {
        if (s.block_cond >= 0) {
          ++profile_.block_exec[s.block_cond];
        }
        uint64_t hi = EvalExpr(*s.e1, s.block_cond);
        if (var >= hi) {
          break;
        }
        Flow f = ExecBody(s.body);
        if (f == Flow::kReturned) {
          return f;
        }
        if (s.block_latch >= 0) {
          ++profile_.block_exec[s.block_latch];
        }
        var = (var + 1) & kI32;
        ++iters;
        if (iters > 1u << 16) {
          break;  // runaway-loop backstop (NF loops are small by construction)
        }
      }
      return Flow::kNormal;
    }
    case StmtKind::kMapFind: {
      std::vector<uint64_t>& keys = EvalKeys(s);
      SimMap& m = *maps_[s.sym];
      auto r = m.Find(keys, nullptr);
      AttributeMapOp(s, r, keys.size(), s.outs.size(), 0, s.sym);
      if (r.found) {
        for (size_t j = 0; j < s.out_slots.size(); ++j) {
          int slot = s.out_slots[j];
          locals_[slot] = m.ValueAt(r.index, j) & slot_masks_[slot];
        }
      }
      if (s.found_slot >= 0) {
        locals_[s.found_slot] = (r.found ? 1 : 0) & slot_masks_[s.found_slot];
      }
      return Flow::kNormal;
    }
    case StmtKind::kMapInsert: {
      std::vector<uint64_t>& keys = EvalKeys(s);
      std::vector<uint64_t>& values = map_values_[s.sym];
      const StateDecl& d = program_.state[s.sym];
      for (size_t j = 0; j < values.size(); ++j) {
        values[j] = EvalExpr(*s.args[keys.size() + j], s.block) & TypeMask(d.value_fields[j].type);
      }
      auto r = maps_[s.sym]->Insert(keys, values);
      AttributeMapOp(s, r, keys.size(), 0, keys.size() + values.size(), s.sym);
      return Flow::kNormal;
    }
    case StmtKind::kMapErase: {
      std::vector<uint64_t>& keys = EvalKeys(s);
      auto r = maps_[s.sym]->Erase(keys);
      AttributeMapOp(s, r, keys.size(), 0, r.found ? 1 : 0, s.sym);
      return Flow::kNormal;
    }
    case StmtKind::kApiCall:
      EvalCall(s.sym, s.args, s.block);
      return Flow::kNormal;
    case StmtKind::kSend: {
      uint64_t port = s.e0 ? EvalExpr(*s.e0, s.block) : 0;
      CallApi(s.sym, &port, s.e0 ? 1 : 0);
      return Flow::kReturned;
    }
    case StmtKind::kDrop:
      CallApi(s.sym, nullptr, 0);
      return Flow::kReturned;
    case StmtKind::kReturn:
      return Flow::kReturned;
  }
  return Flow::kNormal;
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
  std::fill(locals_.begin(), locals_.end(), 0);
  ExecBody(program_.body);
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
