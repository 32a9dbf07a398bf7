// AST -> IR lowering with optimizations disabled (paper §3.1): every local
// variable stays a stack slot, so the IR faithfully reflects unoptimized
// source structure, and it is the NIC backend's job (src/nic/backend.h) to
// register-allocate — the compiler behaviour Clara's ML model learns.
//
// Stateful map operations are expanded inline with the control flow of the
// declared implementation (host linear probing vs NIC fixed-bucket), making
// the IR control-flow-symmetric with the interpreter's execution — the
// "reverse porting" property of paper §3.3. The lowering records, on each
// AST statement, which IR blocks it produced (entry/cond/body/echk/latch/
// hit/miss) so the interpreter can attribute per-block execution counts,
// and on each statement and expression the IR index it names (Expr::sym,
// Stmt::sym: stack slot, state variable, packet field or API), so the
// interpreter never looks a name up while it runs.
#ifndef SRC_LANG_LOWER_H_
#define SRC_LANG_LOWER_H_

#include <string>

#include "src/ir/ir.h"
#include "src/lang/ast.h"
#include "src/lang/check.h"

namespace clara {

struct LowerResult {
  bool ok = false;
  std::string error;
  Module module;  // one function: "simple_action"
};

// Blocks recorded on statements (see Stmt block fields):
//   block       — where the statement's lowering begins
//   block_cond  — loop/probe condition block
//   block_body  — probe body (key loads + match test)
//   block_echk  — empty-slot check
//   block_latch — loop/probe advance
//   block_hit   — map hit / insert-write continuation
//   block_miss  — map miss continuation
//
// Type-checks `p` first; lowering mutates the AST (expression types, block
// and index annotations).
LowerResult LowerProgram(Program& p);

// Maximum hash-map key fields supported by the probe expansion.
inline constexpr int kMaxMapKeyFields = 4;

// FNV-style fold over key field values; both the lowered IR and the
// interpreter's simulated maps use this bucket hash so control flow stays
// symmetric.
uint32_t MapFieldHash(const uint64_t* key_vals, size_t n);

}  // namespace clara

#endif  // SRC_LANG_LOWER_H_
