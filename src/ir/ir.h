// Clara's uniform low-level intermediate representation.
//
// This is a deliberately small, LLVM-flavoured IR: typed virtual registers,
// basic blocks with explicit terminators, and load/store instructions that
// carry an address space + symbol reference instead of a full pointer
// arithmetic sublanguage. The AST-to-IR lowering (src/lang) keeps
// optimizations off, so local variables remain stack load/store traffic —
// exactly the unoptimized form the paper feeds to its learned compiler model
// (§3.1: "Clara disables most LLVM optimizations").
//
// Instruction taxonomy (paper Figure 5):
//   compute        — arithmetic/logic/compare/cast/select
//   memory         — load/store, further split by address space:
//                      kStack  (function locals; stateless, register-allocatable)
//                      kPacket (header/payload bytes; stateless)
//                      kState  (global cross-packet state; stateful)
//   framework API  — kCall to a Click-style API (reverse-ported separately)
//   control        — br/condbr/ret
#ifndef SRC_IR_IR_H_
#define SRC_IR_IR_H_

#include <cstdint>
#include <string>
#include <vector>

namespace clara {

enum class Type : uint8_t { kVoid, kI1, kI8, kI16, kI32, kI64 };

inline int BitWidth(Type t) {
  constexpr int kBits[] = {0, 1, 8, 16, 32, 64};
  return kBits[static_cast<uint8_t>(t)];
}

// The bits a value of type `t` keeps (kVoid keeps none).
inline uint64_t TypeMask(Type t) {
  constexpr uint64_t kMasks[] = {0, 1, 0xff, 0xffff, 0xffffffffULL, ~0ULL};
  return kMasks[static_cast<uint8_t>(t)];
}
const char* TypeName(Type t);

enum class Opcode : uint8_t {
  // Binary arithmetic / logic.
  kAdd, kSub, kMul, kUDiv, kURem,
  kAnd, kOr, kXor, kShl, kLShr, kAShr,
  // Comparisons (result kI1).
  kIcmpEq, kIcmpNe, kIcmpUlt, kIcmpUle, kIcmpUgt, kIcmpUge,
  // Casts and select.
  kZext, kSext, kTrunc, kSelect,
  // Memory.
  kLoad, kStore,
  // Framework API call.
  kCall,
  // Control flow.
  kBr, kCondBr, kRet,
};

const char* OpcodeName(Opcode op);
bool IsBinaryOp(Opcode op);
bool IsCompare(Opcode op);
bool IsCast(Opcode op);
bool IsTerminator(Opcode op);

enum class AddressSpace : uint8_t { kNone, kStack, kPacket, kState };

const char* AddressSpaceName(AddressSpace s);

// An operand. Register ids are function-scoped and dense, assigned by the
// builder; constants carry their value inline.
struct Value {
  enum class Kind : uint8_t { kNone, kConst, kReg };
  Kind kind = Kind::kNone;
  int64_t imm = 0;   // kConst
  uint32_t reg = 0;  // kReg

  static Value Const(int64_t v) { return Value{Kind::kConst, v, 0}; }
  static Value Reg(uint32_t r) { return Value{Kind::kReg, 0, r}; }
  bool is_const() const { return kind == Kind::kConst; }
  bool is_reg() const { return kind == Kind::kReg; }
};

struct Instruction {
  Opcode op;
  Type type = Type::kVoid;   // result type; for store, the stored value type
  uint32_t result = 0;       // defined register (0 = none; register 0 unused)
  std::vector<Value> operands;

  // Memory metadata (kLoad/kStore). `sym` indexes the per-space symbol table
  // in Function (stack slots) or Module (packet fields / state vars). For
  // state arrays, operands[index] holds the dynamic element index when
  // has_dyn_index; `offset` is a constant byte offset within the element.
  AddressSpace space = AddressSpace::kNone;
  uint32_t sym = 0;
  int32_t offset = 0;
  bool has_dyn_index = false;

  // Call metadata (kCall): index into Module::apis.
  uint32_t callee = 0;

  // Branch metadata: block indices within the function.
  uint32_t target0 = 0;
  uint32_t target1 = 0;
};

struct BasicBlock {
  std::string label;
  // The AST block-region this block was lowered from; lets the interpreter's
  // per-region execution counts be attached to IR blocks. -1 = synthetic.
  int ast_region = -1;
  std::vector<Instruction> instrs;
};

// A function-local stack slot (one per NF-program local variable).
struct StackSlot {
  std::string name;
  Type type = Type::kI32;
};

// Kinds of global NF state (paper §4.3: hashmaps, vectors, counters...).
enum class StateKind : uint8_t { kScalar, kArray, kMap };

struct StateVar {
  std::string name;
  StateKind kind = StateKind::kScalar;
  Type elem_type = Type::kI32;  // scalar/array element type
  uint32_t length = 1;          // array length (scalars: 1)
  // Map geometry (kMap): total bytes = capacity * (key_bytes + value_bytes).
  uint32_t key_bytes = 0;
  uint32_t value_bytes = 0;
  uint32_t capacity = 0;
  // Backing-store slots for maps (bucketed NIC maps round capacity up to a
  // whole number of buckets). Set by the AST lowering; 0 = derive from
  // capacity/length.
  uint32_t slots = 0;

  uint64_t SizeBytes() const;
  // Number of addressable elements (scalars: 1, arrays: length, maps: the
  // probe-loop slot count).
  uint32_t ElementCount() const;
  // Bytes per addressable element.
  uint32_t ElementBytes() const;
};

// A packet field exposed to NF programs (e.g. "ip.src").
struct PacketFieldInfo {
  std::string name;
  Type type = Type::kI16;
  uint16_t byte_offset = 0;  // offset in the logical wire layout
};

// A framework API callable from NF programs.
struct ApiInfo {
  std::string name;
  uint8_t num_args = 0;
  Type result = Type::kVoid;
};

struct Function {
  std::string name;
  std::vector<StackSlot> slots;
  std::vector<BasicBlock> blocks;
  uint32_t next_reg = 1;  // register 0 reserved

  uint32_t NumInstructions() const;
};

struct Module {
  std::string name;
  std::vector<StateVar> state;
  std::vector<PacketFieldInfo> packet_fields;
  std::vector<ApiInfo> apis;
  std::vector<Function> functions;

  // Returns the index of the named entity, or -1.
  int FindState(const std::string& name) const;
  int FindPacketField(const std::string& name) const;
  int FindApi(const std::string& name) const;
  const Function* FindFunction(const std::string& name) const;

  // Registers an API (idempotent by name) and returns its index.
  uint32_t InternApi(const std::string& name, uint8_t num_args, Type result);
};

// Installs the canonical packet-field table (eth/ip/tcp/udp fields + payload
// bytes) into `m`. All lowered NF programs share this layout.
void InstallStandardPacketFields(Module& m);

// Indices into that table, in its order.
enum class PacketField : uint8_t {
  kEthType, kIpIhl, kIpTos, kIpLen, kIpTtl, kIpProto, kIpCsum, kIpSrc, kIpDst,
  kTcpSport, kTcpDport, kTcpSeq, kTcpAck, kTcpOff, kTcpFlags, kTcpCsum,
  kPktLen, kPktPayloadLen, kPktInPort, kPktTs, kPktPayload,
};

}  // namespace clara

#endif  // SRC_IR_IR_H_
