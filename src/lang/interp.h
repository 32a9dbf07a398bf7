// Trace-driven NF interpreter.
//
// Executes an NF program against packets, maintaining real NF state
// (scalars, arrays, and probe-accurate hash maps) and recording the
// workload-specific profile that Clara's porting-strategy analyses consume:
// per-IR-block execution counts, per-state-variable access frequencies, and
// the (block x variable) access matrix used for coalescing (§4.4).
//
// The constructor lowers the program, which records on every AST node the
// stack slot, state variable, packet field or framework API it names (see
// Expr::sym, Stmt::sym) and the IR blocks each statement produced. It then
// compiles the annotated handler once into a flat register program: locals,
// literals and expression temporaries share one register array, every
// operation has its own opcode, a comparison that decides a branch is a
// conditional jump, and each block-count bump is an instruction placed where
// the statement that starts the block runs. Processing a packet zeroes the
// local registers and runs one dispatch loop over that program. It does no
// string compare, no string-keyed lookup and no heap allocation, with two
// exceptions that track state: the first call of each API after ResetProfile
// creates that API's api_calls entry, and the flow-cache accelerator's table
// grows with the flows it caches.
//
// The interpreter's map semantics (SimMap) implement exactly the probe loops
// the lowering expands (src/lang/lower.cc), so execution counts attach to IR
// blocks with symmetric control flow — the reverse-porting fidelity property
// of paper §3.3.
#ifndef SRC_LANG_INTERP_H_
#define SRC_LANG_INTERP_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/lang/ast.h"
#include "src/lang/lower.h"
#include "src/nf/lpm.h"
#include "src/nf/packet.h"
#include "src/util/rng.h"

namespace clara {

namespace obs {
class Counter;
}  // namespace obs

// A hash map with the probe behaviour of the lowered IR: bounded scan,
// key0 == 0 means empty, NIC variant probes within a fixed bucket, host
// variant probes linearly with wraparound.
class SimMap {
 public:
  explicit SimMap(const StateDecl& decl);

  struct OpResult {
    bool found = false;      // find: hit; insert: slot written; erase: entry removed
    uint32_t probes = 0;     // probe-body executions
    uint32_t continues = 0;  // latch executions
    bool exhausted = false;  // probe bound reached without stopping
    bool stopped_empty = false;
    uint64_t index = 0;      // slot index on found
  };

  OpResult Find(const std::vector<uint64_t>& keys, std::vector<uint64_t>* values_out);
  OpResult Insert(const std::vector<uint64_t>& keys, const std::vector<uint64_t>& values);
  OpResult Erase(const std::vector<uint64_t>& keys);

  size_t entries() const { return entries_; }
  size_t slot_count() const { return slot_count_; }
  void Clear();

  // Slot-level inspection for the differential harness (src/nic/diff.h),
  // which compares SimMap contents field-by-field against the lowered
  // backing-store byte image.
  size_t num_keys() const { return nkeys_; }
  size_t num_values() const { return nvals_; }
  uint64_t KeyAt(size_t slot, size_t k) const { return keys_[slot * nkeys_ + k]; }
  uint64_t ValueAt(size_t slot, size_t v) const { return values_[slot * nvals_ + v]; }

 private:
  struct Probe {
    uint64_t start;
    uint32_t bound;
  };
  Probe StartProbe(const std::vector<uint64_t>& keys) const;
  uint64_t Advance(uint64_t idx) const;
  bool KeyMatches(uint64_t idx, const std::vector<uint64_t>& keys) const;

  size_t nkeys_;
  size_t nvals_;
  bool nic_;
  uint32_t spb_;
  uint32_t buckets_;
  size_t slot_count_;
  size_t entries_ = 0;
  std::vector<uint64_t> keys_;    // slot-major
  std::vector<uint64_t> values_;  // slot-major
};

// Workload-specific execution profile.
struct NfProfile {
  uint64_t packets = 0;
  uint64_t sends = 0;
  uint64_t drops = 0;
  std::vector<uint64_t> block_exec;                    // [ir block]
  std::vector<uint64_t> state_reads;                   // [state var]
  std::vector<uint64_t> state_writes;                  // [state var]
  std::vector<std::vector<uint64_t>> block_var_access; // [ir block][state var]
  std::map<std::string, uint64_t> api_calls;

  uint64_t StateAccesses(size_t var) const { return state_reads[var] + state_writes[var]; }
};

// An executable NF: owns the program, its lowered IR module, and its state.
class NfInstance {
 public:
  // Takes ownership of `program`; lowers it immediately.
  explicit NfInstance(Program program, uint64_t seed = 1);

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  const Program& program() const { return program_; }
  const Module& module() const { return module_; }

  // Runs the handler on one packet, mutating it (header writes, verdict).
  void Process(Packet& pkt);

  const NfProfile& profile() const { return profile_; }
  void ResetProfile();

  // Resets all NF state (maps, scalars, arrays) to initial values.
  void ResetState();

  // Test/inspection hooks.
  uint64_t ReadScalar(const std::string& name) const;
  uint64_t ReadArray(const std::string& name, size_t index) const;
  SimMap* FindMap(const std::string& name);

  // Table backing the lpm_hw accelerator API (iplookup's ported form).
  void SetLpmAccelTable(const LpmTable* table) { lpm_accel_ = table; }

 private:
  // Framework API semantics; unknown APIs do nothing and return 0.
  enum class ApiKind : uint8_t {
    kNoop, kChecksum, kSend, kDrop, kCrcHash, kCrc32, kLpm, kFlowCacheGet, kFlowCachePut,
    kRand,
  };
  struct Api {
    ApiKind kind = ApiKind::kNoop;
    uint64_t* calls = nullptr;  // its profile_.api_calls entry, once it exists
  };
  // No framework API reads more arguments than this; extra ones are still
  // evaluated.
  static constexpr size_t kApiArgs = 2;

  // The compiled handler. Run() documents each opcode's operands. The first
  // seventeen are Opcode's binary operations and comparisons, in its order.
  enum class Op : uint8_t {
    kAdd, kSub, kMul, kUDiv, kURem, kAnd, kOr, kXor, kShl, kLShr, kAShr,
    kEq, kNe, kUlt, kUle, kUgt, kUge,
    kMask,
    kLoadScalar, kLoadArray, kLoadField, kLoadPayload, kCall,
    kStoreScalar, kStoreArray, kStoreField, kStorePayload,
    kMapFind, kMapInsert, kMapErase,
    kBump, kJump, kJumpZero, kJumpEq, kJumpNe, kJumpUlt, kJumpUle, kJumpUgt, kJumpUge,
    kLoopEnter, kLoopNext, kReturn,
  };
  struct Insn {
    Op op;
    uint8_t n = 0;  // kCall: arguments passed, at most kApiArgs
    uint32_t a = 0, b = 0, c = 0, d = 0;
    uint64_t k = 0;  // mask applied to the value written
  };
  // A map operation's operands: the statement (map, blocks, output slots)
  // and the registers its key and value expressions were evaluated into.
  struct MapSite {
    const Stmt* stmt;
    std::vector<uint32_t> keys;
    std::vector<uint32_t> values;
  };
  class Compiler;

  void Run();
  uint64_t CallApi(int api, const uint64_t* args, size_t nargs);
  void RunMapOp(Op op, const MapSite& site);

  void RecordStateRead(int sym, int block, uint64_t n = 1);
  void RecordStateWrite(int sym, int block, uint64_t n = 1);
  void AttributeMapOp(const Stmt& s, const SimMap::OpResult& r, size_t nkeys,
                      size_t value_reads, size_t value_writes, int sym);

  uint64_t LoadField(int field) const;
  void StoreField(int field, uint64_t v);

  Program program_;
  Module module_;
  bool ok_ = false;
  std::string error_;

  std::vector<Insn> code_;
  std::vector<MapSite> map_sites_;  // by kMap* operand
  // Registers: the stack slots (zeroed per packet), then the literals, then
  // the expression temporaries.
  std::vector<uint64_t> regs_;
  std::vector<uint64_t> slot_masks_;           // by stack-slot index
  std::vector<std::vector<uint64_t>> arrays_;  // per state var (scalars: size 1)
  std::vector<std::unique_ptr<SimMap>> maps_;  // per state var (null if not map)
  // Per map: the key and value buffers its operations pass, sized once.
  std::vector<std::vector<uint64_t>> map_keys_;
  std::vector<std::vector<uint64_t>> map_values_;
  std::vector<Api> apis_;  // by Module::apis index

  NfProfile profile_;
  // Cached telemetry handles (lang.interp.<element>.*), resolved on first
  // use with telemetry enabled; see src/obs/metrics.h for handle stability.
  obs::Counter* obs_packets_ = nullptr;
  obs::Counter* obs_api_calls_ = nullptr;
  obs::Counter* obs_drops_ = nullptr;
  Packet* pkt_ = nullptr;
  Rng rng_;
  const LpmTable* lpm_accel_ = nullptr;
  std::map<uint64_t, uint64_t> flow_cache_;  // accelerator-backed flow cache
};

}  // namespace clara

#endif  // SRC_LANG_INTERP_H_
