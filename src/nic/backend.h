// The simulated vendor compiler ("nfcc") from Clara IR to NIC machine code.
//
// This plays the role of the closed-source SmartNIC toolchain: it applies
// instruction selection, peephole optimization and register allocation whose
// rules Clara's learned model never sees directly — Clara only observes
// (IR, machine code) pairs as training data (paper §3.2).
//
// Selection rules (deterministic, compositional):
//   * add/sub/and/or/xor            -> 1 alu (+0..2 immed for large constants)
//   * shifts: const -> 1 alu_shf; by-register -> 2
//   * mul: by pow2 -> 1 alu_shf; by other const -> 3 mul_step; reg -> 4
//   * udiv/urem: by pow2 -> 1; otherwise an 19-instruction software routine
//   * compare feeding the block terminator is fused into alu + bcc;
//     otherwise materializing a boolean costs 3
//   * zext after a load is free (loads zero-extend); sext costs 2;
//     trunc feeding only stores is free
//   * stack slots are register-allocated; only spilled slots (beyond the
//     GPR budget, chosen by access frequency) become lmem traffic
//   * packet-field loads read 32-bit CTM words and are coalesced within a
//     block: re-reading an already-fetched word is a 1-cycle ld_field
//   * adjacent same-symbol state accesses coalesce into wider transfers
//   * framework API calls expand to their reverse-ported NIC profiles
#ifndef SRC_NIC_BACKEND_H_
#define SRC_NIC_BACKEND_H_

#include "src/ir/ir.h"
#include "src/nic/isa.h"

namespace clara {

struct NicBackendOptions {
  int gpr_budget = 24;          // stack slots promoted to registers
  bool coalesce_packet = true;  // CTM word re-use
  bool coalesce_state = true;   // adjacent state access widening
};

// Compiles one IR function. Output blocks are 1:1 with f.blocks.
NicProgram CompileToNic(const Module& m, const Function& f,
                        const NicBackendOptions& opts = NicBackendOptions{});

// Convenience: compiles module's first function.
NicProgram CompileToNic(const Module& m, const NicBackendOptions& opts = NicBackendOptions{});

}  // namespace clara

#endif  // SRC_NIC_BACKEND_H_
