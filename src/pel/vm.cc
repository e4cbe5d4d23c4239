#include "src/pel/vm.h"

#include "src/runtime/logging.h"
#include "src/runtime/marshal.h"

namespace p2 {
namespace {

// Shared by both engines: the ring-interval test over loosely-typed
// operands. Ranges are ring-interval tests on Ids; integers coerce. Any
// other operand type (e.g. the "-" null-predecessor string reaching
// "P in (P1, N)" through a non-short-circuiting "||") yields false rather
// than aborting.
bool RingInterval(PelOp op, const Value& x, const Value& lo, const Value& hi) {
  auto ring_ok = [](const Value& v) {
    return v.type() == ValueType::kId || v.type() == ValueType::kInt ||
           v.type() == ValueType::kBool;
  };
  if (!ring_ok(x) || !ring_ok(lo) || !ring_ok(hi)) {
    return false;
  }
  Uint160 xi = x.type() == ValueType::kId ? x.AsId()
                                          : Uint160(static_cast<uint64_t>(x.AsInt()));
  Uint160 li = lo.type() == ValueType::kId ? lo.AsId()
                                           : Uint160(static_cast<uint64_t>(lo.AsInt()));
  Uint160 hi2 = hi.type() == ValueType::kId ? hi.AsId()
                                            : Uint160(static_cast<uint64_t>(hi.AsInt()));
  switch (op) {
    case PelOp::kInOO:
      return xi.InOO(li, hi2);
    case PelOp::kInOC:
      return xi.InOC(li, hi2);
    case PelOp::kInCO:
      return xi.InCO(li, hi2);
    case PelOp::kInCC:
      return xi.InCC(li, hi2);
    default:
      P2_FATAL("not an interval op");
  }
}

Value HashToId(const Value& v) {
  ByteWriter w;
  MarshalValue(v, &w);
  return Value::Id(Uint160::HashOf(
      std::string_view(reinterpret_cast<const char*>(w.buffer().data()), w.size())));
}

}  // namespace

Value PelVm::Eval(const PelProgram& prog, const Tuple* input) {
  return input == nullptr ? Eval(prog, nullptr, 0)
                          : Eval(prog, input->fields().data(), input->size());
}

Value PelVm::Eval(const PelProgram& prog, const Value* fields, size_t n) {
  const std::vector<PelRegInstr>& code = prog.reg_code();
  const uint16_t nregs = prog.num_regs();
  P2_CHECK(nregs >= 1);  // empty programs have no result
  if (regs_.size() < nregs) {
    regs_.resize(nregs);
  }
  const std::vector<Value>& consts = prog.consts();
  // Operand load: registers and constants are unchecked array reads (the
  // lowering validated indices); field reads bound-check against the input
  // because tuple arity off the wire is data, not code.
  auto ld = [&](const PelSrc& s) -> const Value& {
    switch (s.kind) {
      case PelSrcKind::kReg:
        return regs_[s.index];
      case PelSrcKind::kConst:
        return consts[s.index];
      case PelSrcKind::kField:
        P2_CHECK(s.index < n);
        return fields[s.index];
      case PelSrcKind::kNone:
        break;
    }
    P2_FATAL("operand with no source");
  };
  for (const PelRegInstr& ins : code) {
    Value& dst = regs_[ins.dst];
    switch (ins.op) {
      case PelOp::kMove:
        dst = ld(ins.a);
        break;
      case PelOp::kAdd:
        dst = Value::Add(ld(ins.a), ld(ins.b));
        break;
      case PelOp::kSub:
        dst = Value::Sub(ld(ins.a), ld(ins.b));
        break;
      case PelOp::kMul:
        dst = Value::Mul(ld(ins.a), ld(ins.b));
        break;
      case PelOp::kDiv:
        dst = Value::Div(ld(ins.a), ld(ins.b));
        break;
      case PelOp::kMod:
        dst = Value::Mod(ld(ins.a), ld(ins.b));
        break;
      case PelOp::kShl:
        dst = Value::Shl(ld(ins.a), ld(ins.b));
        break;
      case PelOp::kEq:
        dst = Value::Bool(ld(ins.a) == ld(ins.b));
        break;
      case PelOp::kNe:
        dst = Value::Bool(ld(ins.a) != ld(ins.b));
        break;
      case PelOp::kLt:
        dst = Value::Bool(Value::Compare(ld(ins.a), ld(ins.b)) < 0);
        break;
      case PelOp::kLe:
        dst = Value::Bool(Value::Compare(ld(ins.a), ld(ins.b)) <= 0);
        break;
      case PelOp::kGt:
        dst = Value::Bool(Value::Compare(ld(ins.a), ld(ins.b)) > 0);
        break;
      case PelOp::kGe:
        dst = Value::Bool(Value::Compare(ld(ins.a), ld(ins.b)) >= 0);
        break;
      case PelOp::kAnd:
        dst = Value::Bool(ld(ins.a).AsBool() && ld(ins.b).AsBool());
        break;
      case PelOp::kOr:
        dst = Value::Bool(ld(ins.a).AsBool() || ld(ins.b).AsBool());
        break;
      case PelOp::kNot:
        dst = Value::Bool(!ld(ins.a).AsBool());
        break;
      case PelOp::kNeg:
        dst = Value::Sub(Value::Int(0), ld(ins.a));
        break;
      case PelOp::kInOO:
      case PelOp::kInOC:
      case PelOp::kInCO:
      case PelOp::kInCC:
        dst = Value::Bool(RingInterval(ins.op, ld(ins.a), ld(ins.b), ld(ins.c)));
        break;
      case PelOp::kNow:
        P2_CHECK(env_.executor != nullptr);
        dst = Value::Double(env_.executor->Now());
        break;
      case PelOp::kRand:
        P2_CHECK(env_.rng != nullptr);
        dst = Value::Double(env_.rng->NextDouble());
        break;
      case PelOp::kRandInt:
        P2_CHECK(env_.rng != nullptr);
        dst = Value::Int(static_cast<int64_t>(env_.rng->NextU64() >> 2));
        break;
      case PelOp::kCoinFlip:
        P2_CHECK(env_.rng != nullptr);
        dst = Value::Bool(env_.rng->CoinFlip(ld(ins.a).AsDouble()));
        break;
      case PelOp::kHash:
        dst = HashToId(ld(ins.a));
        break;
      case PelOp::kLocalAddr:
        P2_CHECK(env_.local_addr != nullptr);
        dst = Value::Addr(*env_.local_addr);
        break;
      case PelOp::kPushConst:
      case PelOp::kPushField:
        P2_FATAL("stack op in register code");
    }
  }
  return regs_[0];
}

bool PelVm::EvalBool(const PelProgram& prog, const Tuple* input) {
  return Eval(prog, input).AsBool();
}

}  // namespace p2
