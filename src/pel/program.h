// PEL — the P2 Expression Language (§3.1).
//
// PEL is a small byte-code language for manipulating Values and Tuples. It
// is not written by humans: the OverLog planner compiles rule expressions
// (selections, assignments, projections, range tests) into PEL programs,
// which parameterize rule strands and the other dataflow elements.
//
// Programs are authored in a stack-based postfix form (Emit/AddConst —
// convenient for the expression compiler and for tests), then lowered once
// into a register form that the VM (vm.h) actually executes: every
// instruction names its operands directly (register, constant-pool slot, or
// input-tuple field — "field-load fusion"), so the common rule expression
// runs in a third of the instructions with no per-op stack traffic. (The
// legacy stack interpreter that once served as the lowering's golden
// reference soaked through a release cycle and has been deleted; its
// randomized test programs remain as register-VM regression vectors in
// tests/pel_equiv_test.cc.)
#ifndef P2_PEL_PROGRAM_H_
#define P2_PEL_PROGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/runtime/value.h"

namespace p2 {

enum class PelOp : uint8_t {
  kPushConst,  // arg: constant pool index
  kPushField,  // arg: input tuple field index
  // Binary arithmetic (pops b, then a; pushes a OP b).
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kShl,
  // Comparisons (same pop order; push bool).
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  // Boolean logic.
  kAnd,
  kOr,
  kNot,
  // Unary minus.
  kNeg,
  // Ring-interval membership: pops hi, lo, x; pushes bool.
  kInOO,
  kInOC,
  kInCO,
  kInCC,
  // Builtins.
  kNow,        // pushes current time (double seconds)
  kRand,       // pushes uniform double in [0,1)
  kRandInt,    // pushes uniform int64 in [0, 2^62)
  kCoinFlip,   // pops p; pushes Bernoulli(p) bool
  kHash,       // pops v; pushes 160-bit Id hash of v's marshaled bytes
  kLocalAddr,  // pushes the executing node's address
  // Register-form only: copies operand a to the destination register.
  // Produced by lowering when the whole program is a lone push.
  kMove,
};

struct PelInstr {
  PelOp op;
  uint32_t arg = 0;
};

// A register-instruction operand: where to read the input from.
enum class PelSrcKind : uint8_t {
  kNone = 0,
  kReg,    // VM register file
  kConst,  // program constant pool
  kField,  // input tuple field
};

struct PelSrc {
  PelSrcKind kind = PelSrcKind::kNone;
  uint16_t index = 0;
};

// One register instruction: dst = op(a [, b [, c]]). Operands read
// constants and tuple fields in place, so a lowered program has exactly one
// instruction per operator in the source expression.
struct PelRegInstr {
  PelOp op;
  uint8_t dst;
  PelSrc a;
  PelSrc b;
  PelSrc c;
};

class PelProgram {
 public:
  // Adds a constant to the pool, returns its index (deduplicates).
  uint32_t AddConst(const Value& v);
  void Emit(PelOp op, uint32_t arg = 0) {
    code_.push_back(PelInstr{op, arg});
    lowered_ = false;
  }

  const std::vector<PelInstr>& code() const { return code_; }
  const std::vector<Value>& consts() const { return consts_; }
  bool empty() const { return code_.empty(); }

  // Register form. Lowering runs once (the planner calls Lower() at plan
  // time; hand-built programs lower lazily on first access) and is
  // invalidated by further Emit calls. Aborts on malformed stack code
  // (operand underflow / result count != 1) — planner bug, not user input.
  void Lower() const;
  const std::vector<PelRegInstr>& reg_code() const {
    if (!lowered_) {
      Lower();
    }
    return reg_code_;
  }
  // Number of VM registers the lowered program needs (= max operand depth).
  uint16_t num_regs() const {
    if (!lowered_) {
      Lower();
    }
    return num_regs_;
  }

  // Human-readable listing of the stack form (for tests and logging).
  std::string Disassemble() const;
  // Human-readable listing of the register form.
  std::string DisassembleRegs() const;

 private:
  std::vector<PelInstr> code_;
  std::vector<Value> consts_;
  // Lowered register form, derived from code_ (cached; see Lower()).
  mutable std::vector<PelRegInstr> reg_code_;
  mutable uint16_t num_regs_ = 0;
  mutable bool lowered_ = false;
};

}  // namespace p2

#endif  // P2_PEL_PROGRAM_H_
