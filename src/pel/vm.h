// The PEL virtual machine.
//
// PelVm::Eval runs the lowered register form of a program: one flat
// dispatch loop over a preallocated register file, each instruction reading
// its operands (registers, pooled constants, input-tuple fields) in place.
// (The original stack interpreter served as the golden reference while the
// register VM soaked and has since been deleted; the randomized programs
// from that era live on in tests/pel_equiv_test.cc as regression vectors.)
#ifndef P2_PEL_VM_H_
#define P2_PEL_VM_H_

#include <string>
#include <vector>

#include "src/pel/program.h"
#include "src/runtime/executor.h"
#include "src/runtime/random.h"
#include "src/runtime/tuple.h"

namespace p2 {

// Per-node execution environment visible to PEL programs.
struct PelEnv {
  Executor* executor = nullptr;       // for kNow
  Rng* rng = nullptr;                 // for kRand / kCoinFlip
  const std::string* local_addr = nullptr;  // for kLocalAddr
};

class PelVm {
 public:
  explicit PelVm(PelEnv env) : env_(env) {}

  // Evaluates `prog` against `input` (may be null if the program reads no
  // fields) and returns its result. Aborts on malformed programs (planner
  // bug, not user input).
  Value Eval(const PelProgram& prog, const Tuple* input);

  // Evaluates `prog` against a binding frame: `n` fields at `fields` (a
  // rule strand's event fields, joined rows and assigned values). Field
  // reads are bound-checked against `n`, exactly as against a tuple.
  Value Eval(const PelProgram& prog, const Value* fields, size_t n);

  // Evaluates a boolean-valued program; non-bool results coerce via AsBool.
  bool EvalBool(const PelProgram& prog, const Tuple* input);

 private:
  PelEnv env_;
  std::vector<Value> regs_;  // register file, reused across calls
};

}  // namespace p2

#endif  // P2_PEL_VM_H_
