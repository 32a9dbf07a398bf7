// Abstract syntax tree for Clara's mini-Click NF language.
//
// NF programs (the paper's "legacy NFs") are written as an element with
// global state declarations and a per-packet handler, mirroring Click's
// Element::simple_action. The same AST serves three purposes:
//   1. It is lowered to Clara IR (src/lang/lower.h) with optimizations off,
//      yielding the uniform representation of paper §3.1.
//   2. The interpreter (src/lang/interp.h) compiles it into a register
//      program and runs that for trace-driven, workload-specific profiling
//      (paper §4.3/§4.4).
//   3. It is the target of the program synthesizer (src/synth).
//
// Stateful map operations are not calls: lowering expands them inline with
// the control flow of the chosen implementation (host linear probing vs NIC
// fixed buckets) — the "reverse porting" of paper §3.3.
#ifndef SRC_LANG_AST_H_
#define SRC_LANG_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/ir/ir.h"

namespace clara {

struct Expr;
struct Stmt;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

enum class ExprKind : uint8_t {
  kIntLit,       // value
  kLocal,        // name
  kStateScalar,  // name
  kStateArray,   // name, args[0] = index
  kPacketField,  // field (e.g. "ip.src")
  kPayloadByte,  // args[0] = byte index
  kBinary,       // op, args[0], args[1]
  kCompare,      // op (icmp.*), args[0], args[1]
  kCast,         // explicit width change, args[0]
  kCall,         // value-returning framework API, callee, args
};

struct Expr {
  ExprKind kind;
  Type type = Type::kI32;  // result width; set by the type checker
  uint64_t value = 0;      // kIntLit
  std::string name;        // local / state / packet field name
  Opcode op = Opcode::kAdd;
  std::string callee;
  std::vector<ExprPtr> args;

  // Filled by lowering: the IR index this node names — its stack slot
  // (kLocal), state variable (kStateScalar, kStateArray), packet field
  // (kPacketField) or framework API (kCall, an index into Module::apis).
  // The interpreter runs on these instead of the names.
  int sym = -1;
};

enum class StmtKind : uint8_t {
  kDecl,             // local decl with init: name, type, e0
  kAssignLocal,      // name, e0
  kAssignState,      // name, e0 (scalar)
  kAssignStateArr,   // name, e0 = value, e1 = index
  kAssignPacket,     // name = field name, e0
  kAssignPayload,    // e0 = value, e1 = byte index
  kIf,               // e0 = cond, body, else_body
  kFor,              // name = loop var, e0 = lo, e1 = hi (exclusive), body
  kMapFind,          // name = map; args = key exprs; outs = value-field locals;
                     //   found local receives 0/1
  kMapInsert,        // name = map; args = key exprs then value exprs
  kMapErase,         // name = map; args = key exprs
  kApiCall,          // void framework API: callee, args
  kSend,             // e0 = port (optional; default 0)
  kDrop,
  kReturn,
};

struct Stmt {
  StmtKind kind;
  std::string name;
  Type type = Type::kI32;
  ExprPtr e0;
  ExprPtr e1;
  std::vector<ExprPtr> args;
  std::vector<std::string> outs;  // kMapFind value-field destinations
  std::string found_local;        // kMapFind hit flag destination
  std::string callee;             // kApiCall
  std::vector<StmtPtr> body;
  std::vector<StmtPtr> else_body;

  // Filled by lowering: the IR block this statement starts in, plus auxiliary
  // blocks for compound statements (see src/lang/lower.h for the roles).
  // Used by the interpreter to attribute profile counts to IR blocks.
  int block = -1;
  bool block_entry = false;  // this statement is the first lowered into `block`
  int block_cond = -1;
  int block_body = -1;
  int block_echk = -1;
  int block_latch = -1;
  int block_hit = -1;
  int block_miss = -1;

  // Filled by lowering, like Expr::sym: the stack slot written (kDecl,
  // kAssignLocal, the kFor loop variable), the state variable (kAssignState,
  // kAssignStateArr, map operations), the packet field (kAssignPacket) or the
  // framework API (kApiCall, kSend, kDrop).
  int sym = -1;
  std::vector<int> out_slots;  // kMapFind: the stack slots of `outs`
  int found_slot = -1;         // kMapFind: the stack slot of `found_local`
};

// Map implementation selected for lowering + interpretation (paper §3.3).
enum class MapImpl : uint8_t { kHostLinearProbe, kNicFixedBucket };

struct ValueField {
  std::string name;
  Type type;
};

struct StateDecl {
  std::string name;
  StateKind kind = StateKind::kScalar;
  Type elem_type = Type::kI32;
  uint32_t length = 1;  // array length
  // Map geometry.
  std::vector<Type> key_fields;
  std::vector<ValueField> value_fields;
  uint32_t capacity = 0;
  MapImpl impl = MapImpl::kNicFixedBucket;
  uint32_t slots_per_bucket = 4;
  // Initial array contents (e.g. a flattened LPM trie); optional.
  std::vector<uint64_t> init;

  uint32_t KeyBytes() const;
  uint32_t ValueBytes() const;
  uint64_t SizeBytes() const;
};

struct Program {
  std::string name;
  std::vector<StateDecl> state;
  std::vector<StmtPtr> body;  // the simple_action handler

  const StateDecl* FindState(const std::string& n) const;
};

// ---- Factory helpers (namespace-level, used by elements/synth/tests) ----

ExprPtr Lit(uint64_t v, Type t = Type::kI32);
ExprPtr Local(const std::string& name);
ExprPtr StateRef(const std::string& name);
ExprPtr StateAt(const std::string& name, ExprPtr index);
ExprPtr PktField(const std::string& field);
ExprPtr PayloadAt(ExprPtr index);
ExprPtr Bin(Opcode op, ExprPtr a, ExprPtr b);
ExprPtr Cmp(Opcode op, ExprPtr a, ExprPtr b);
ExprPtr CastTo(Type t, ExprPtr v);
ExprPtr CallExpr(const std::string& api, std::vector<ExprPtr> args, Type result);

StmtPtr Decl(const std::string& name, Type t, ExprPtr init);
StmtPtr Assign(const std::string& local, ExprPtr v);
StmtPtr AssignState(const std::string& state, ExprPtr v);
StmtPtr AssignStateAt(const std::string& state, ExprPtr index, ExprPtr v);
StmtPtr AssignPkt(const std::string& field, ExprPtr v);
StmtPtr AssignPayload(ExprPtr index, ExprPtr v);
StmtPtr If(ExprPtr cond, std::vector<StmtPtr> then_body, std::vector<StmtPtr> else_body = {});
StmtPtr For(const std::string& var, ExprPtr lo, ExprPtr hi, std::vector<StmtPtr> body);
StmtPtr MapFind(const std::string& map, std::vector<ExprPtr> keys, const std::string& found,
                std::vector<std::string> outs);
StmtPtr MapInsert(const std::string& map, std::vector<ExprPtr> keys,
                  std::vector<ExprPtr> values);
StmtPtr MapErase(const std::string& map, std::vector<ExprPtr> keys);
StmtPtr Api(const std::string& api, std::vector<ExprPtr> args = {});
StmtPtr Send(ExprPtr port = nullptr);
StmtPtr Drop();
StmtPtr Return();

// Deep copies (the synthesizer mutates program templates).
ExprPtr CloneExpr(const Expr& e);
StmtPtr CloneStmt(const Stmt& s);
Program CloneProgram(const Program& p);

}  // namespace clara

#endif  // SRC_LANG_AST_H_
