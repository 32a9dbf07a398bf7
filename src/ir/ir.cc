#include "src/ir/ir.h"

namespace clara {

const char* TypeName(Type t) {
  switch (t) {
    case Type::kVoid: return "void";
    case Type::kI1: return "i1";
    case Type::kI8: return "i8";
    case Type::kI16: return "i16";
    case Type::kI32: return "i32";
    case Type::kI64: return "i64";
  }
  return "?";
}

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kMul: return "mul";
    case Opcode::kUDiv: return "udiv";
    case Opcode::kURem: return "urem";
    case Opcode::kAnd: return "and";
    case Opcode::kOr: return "or";
    case Opcode::kXor: return "xor";
    case Opcode::kShl: return "shl";
    case Opcode::kLShr: return "lshr";
    case Opcode::kAShr: return "ashr";
    case Opcode::kIcmpEq: return "icmp.eq";
    case Opcode::kIcmpNe: return "icmp.ne";
    case Opcode::kIcmpUlt: return "icmp.ult";
    case Opcode::kIcmpUle: return "icmp.ule";
    case Opcode::kIcmpUgt: return "icmp.ugt";
    case Opcode::kIcmpUge: return "icmp.uge";
    case Opcode::kZext: return "zext";
    case Opcode::kSext: return "sext";
    case Opcode::kTrunc: return "trunc";
    case Opcode::kSelect: return "select";
    case Opcode::kLoad: return "load";
    case Opcode::kStore: return "store";
    case Opcode::kCall: return "call";
    case Opcode::kBr: return "br";
    case Opcode::kCondBr: return "condbr";
    case Opcode::kRet: return "ret";
  }
  return "?";
}

bool IsBinaryOp(Opcode op) {
  return op >= Opcode::kAdd && op <= Opcode::kAShr;
}

bool IsCompare(Opcode op) {
  return op >= Opcode::kIcmpEq && op <= Opcode::kIcmpUge;
}

bool IsCast(Opcode op) {
  return op == Opcode::kZext || op == Opcode::kSext || op == Opcode::kTrunc;
}

bool IsTerminator(Opcode op) {
  return op == Opcode::kBr || op == Opcode::kCondBr || op == Opcode::kRet;
}

const char* AddressSpaceName(AddressSpace s) {
  switch (s) {
    case AddressSpace::kNone: return "none";
    case AddressSpace::kStack: return "stack";
    case AddressSpace::kPacket: return "pkt";
    case AddressSpace::kState: return "state";
  }
  return "?";
}

uint64_t StateVar::SizeBytes() const {
  switch (kind) {
    case StateKind::kScalar:
      return static_cast<uint64_t>(BitWidth(elem_type)) / 8;
    case StateKind::kArray:
      return static_cast<uint64_t>(BitWidth(elem_type)) / 8 * length;
    case StateKind::kMap:
      return static_cast<uint64_t>(capacity) * (key_bytes + value_bytes);
  }
  return 0;
}

uint32_t StateVar::ElementCount() const {
  switch (kind) {
    case StateKind::kScalar:
      return 1;
    case StateKind::kArray:
      return length == 0 ? 1 : length;
    case StateKind::kMap: {
      uint32_t n = slots != 0 ? slots : capacity;
      return n == 0 ? 1 : n;
    }
  }
  return 1;
}

uint32_t StateVar::ElementBytes() const {
  if (kind == StateKind::kMap) {
    uint32_t b = key_bytes + value_bytes;
    return b == 0 ? 4 : b;
  }
  uint32_t b = static_cast<uint32_t>(BitWidth(elem_type)) / 8;
  return b == 0 ? 1 : b;
}

uint32_t Function::NumInstructions() const {
  uint32_t n = 0;
  for (const auto& b : blocks) {
    n += static_cast<uint32_t>(b.instrs.size());
  }
  return n;
}

int Module::FindState(const std::string& name) const {
  for (size_t i = 0; i < state.size(); ++i) {
    if (state[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int Module::FindPacketField(const std::string& name) const {
  for (size_t i = 0; i < packet_fields.size(); ++i) {
    if (packet_fields[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int Module::FindApi(const std::string& name) const {
  for (size_t i = 0; i < apis.size(); ++i) {
    if (apis[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

const Function* Module::FindFunction(const std::string& name) const {
  for (const auto& f : functions) {
    if (f.name == name) {
      return &f;
    }
  }
  return nullptr;
}

uint32_t Module::InternApi(const std::string& name, uint8_t num_args, Type result) {
  int idx = FindApi(name);
  if (idx >= 0) {
    return static_cast<uint32_t>(idx);
  }
  apis.push_back(ApiInfo{name, num_args, result});
  return static_cast<uint32_t>(apis.size() - 1);
}

void InstallStandardPacketFields(Module& m) {
  // In PacketField order.
  m.packet_fields = {
      {"eth.type", Type::kI16, 12},
      {"ip.ihl", Type::kI8, 14},
      {"ip.tos", Type::kI8, 15},
      {"ip.len", Type::kI16, 16},
      {"ip.ttl", Type::kI8, 22},
      {"ip.proto", Type::kI8, 23},
      {"ip.csum", Type::kI16, 24},
      {"ip.src", Type::kI32, 26},
      {"ip.dst", Type::kI32, 30},
      {"tcp.sport", Type::kI16, 34},
      {"tcp.dport", Type::kI16, 36},
      {"tcp.seq", Type::kI32, 38},
      {"tcp.ack", Type::kI32, 42},
      {"tcp.off", Type::kI8, 46},
      {"tcp.flags", Type::kI8, 47},
      {"tcp.csum", Type::kI16, 48},
      {"pkt.len", Type::kI16, 0},       // metadata pseudo-fields
      {"pkt.payload_len", Type::kI16, 0},
      {"pkt.in_port", Type::kI16, 0},
      {"pkt.ts", Type::kI64, 0},
      {"pkt.payload", Type::kI8, 54},   // byte-indexed via dynamic index
  };
}

}  // namespace clara
