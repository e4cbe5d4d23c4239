#include <gtest/gtest.h>

#include "src/pel/builtins.h"
#include "src/pel/vm.h"
#include "src/sim/event_loop.h"

namespace p2 {
namespace {

class PelTest : public ::testing::Test {
 protected:
  PelTest() : rng_(1), addr_("n0"), vm_(PelEnv{&loop_, &rng_, &addr_}) {}

  Value Run(const PelProgram& p, const Tuple* in = nullptr) { return vm_.Eval(p, in); }

  SimEventLoop loop_;
  Rng rng_;
  std::string addr_;
  PelVm vm_;
};

TEST_F(PelTest, PushConstAndFields) {
  PelProgram p;
  p.Emit(PelOp::kPushConst, p.AddConst(Value::Int(7)));
  EXPECT_EQ(Run(p).AsInt(), 7);

  TuplePtr t = Tuple::Make("r", {Value::Int(10), Value::Str("x")});
  PelProgram q;
  q.Emit(PelOp::kPushField, 1);
  EXPECT_EQ(Run(q, t.get()).AsStr(), "x");
}

TEST_F(PelTest, ConstPoolDeduplicates) {
  PelProgram p;
  uint32_t a = p.AddConst(Value::Int(7));
  uint32_t b = p.AddConst(Value::Int(7));
  uint32_t c = p.AddConst(Value::Int(8));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST_F(PelTest, ArithmeticOps) {
  struct Case {
    PelOp op;
    int64_t a, b, want;
  };
  for (const Case& c : std::vector<Case>{{PelOp::kAdd, 5, 3, 8},
                                         {PelOp::kSub, 5, 3, 2},
                                         {PelOp::kMul, 5, 3, 15},
                                         {PelOp::kDiv, 7, 2, 3},
                                         {PelOp::kMod, 7, 3, 1}}) {
    PelProgram p;
    p.Emit(PelOp::kPushConst, p.AddConst(Value::Int(c.a)));
    p.Emit(PelOp::kPushConst, p.AddConst(Value::Int(c.b)));
    p.Emit(c.op);
    EXPECT_EQ(Run(p).AsInt(), c.want);
  }
}

TEST_F(PelTest, ComparisonsAndLogic) {
  PelProgram p;
  p.Emit(PelOp::kPushConst, p.AddConst(Value::Int(2)));
  p.Emit(PelOp::kPushConst, p.AddConst(Value::Int(3)));
  p.Emit(PelOp::kLt);
  p.Emit(PelOp::kNot);
  EXPECT_FALSE(Run(p).AsBool());

  PelProgram q;
  q.Emit(PelOp::kPushConst, q.AddConst(Value::Bool(true)));
  q.Emit(PelOp::kPushConst, q.AddConst(Value::Bool(false)));
  q.Emit(PelOp::kOr);
  EXPECT_TRUE(Run(q).AsBool());
}

TEST_F(PelTest, RingRangeOps) {
  // 15 in (10, 20] -> true; 10 in (10,20] -> false; 20 in (10,20] -> true.
  auto in_range = [&](int64_t x, int64_t lo, int64_t hi, PelOp op) {
    PelProgram p;
    p.Emit(PelOp::kPushConst, p.AddConst(Value::Id(Uint160(x))));
    p.Emit(PelOp::kPushConst, p.AddConst(Value::Id(Uint160(lo))));
    p.Emit(PelOp::kPushConst, p.AddConst(Value::Id(Uint160(hi))));
    p.Emit(op);
    return Run(p).AsBool();
  };
  EXPECT_TRUE(in_range(15, 10, 20, PelOp::kInOC));
  EXPECT_FALSE(in_range(10, 10, 20, PelOp::kInOC));
  EXPECT_TRUE(in_range(20, 10, 20, PelOp::kInOC));
  EXPECT_FALSE(in_range(20, 10, 20, PelOp::kInOO));
  EXPECT_TRUE(in_range(10, 10, 20, PelOp::kInCO));
  EXPECT_TRUE(in_range(10, 10, 20, PelOp::kInCC));
  // Wrap-around: 2 in (max-1, 5).
  PelProgram p;
  p.Emit(PelOp::kPushConst, p.AddConst(Value::Id(Uint160(2))));
  p.Emit(PelOp::kPushConst, p.AddConst(Value::Id(Uint160::Max())));
  p.Emit(PelOp::kPushConst, p.AddConst(Value::Id(Uint160(5))));
  p.Emit(PelOp::kInOO);
  EXPECT_TRUE(Run(p).AsBool());
}

TEST_F(PelTest, RangeWithNonRingOperandIsFalseNotFatal) {
  // SB9's "(PI1 == \"-\") || (P in (P1, N))" evaluates both sides; the
  // range test must tolerate the "-" string.
  PelProgram p;
  p.Emit(PelOp::kPushConst, p.AddConst(Value::Id(Uint160(3))));
  p.Emit(PelOp::kPushConst, p.AddConst(Value::Str("-")));
  p.Emit(PelOp::kPushConst, p.AddConst(Value::Id(Uint160(9))));
  p.Emit(PelOp::kInOO);
  EXPECT_FALSE(Run(p).AsBool());
}

TEST_F(PelTest, NowReflectsExecutorTime) {
  loop_.RunUntil(12.5);
  PelProgram p;
  p.Emit(PelOp::kNow);
  EXPECT_DOUBLE_EQ(Run(p).AsDouble(), 12.5);
}

TEST_F(PelTest, RandAndCoinFlip) {
  PelProgram p;
  p.Emit(PelOp::kRand);
  for (int i = 0; i < 100; ++i) {
    double v = Run(p).AsDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
  PelProgram q;
  q.Emit(PelOp::kPushConst, q.AddConst(Value::Double(1.0)));
  q.Emit(PelOp::kCoinFlip);
  EXPECT_TRUE(Run(q).AsBool());
}

TEST_F(PelTest, HashProducesStableId) {
  PelProgram p;
  p.Emit(PelOp::kPushConst, p.AddConst(Value::Str("abc")));
  p.Emit(PelOp::kHash);
  Value a = Run(p);
  Value b = Run(p);
  ASSERT_EQ(a.type(), ValueType::kId);
  EXPECT_EQ(a, b);
}

TEST_F(PelTest, LocalAddr) {
  PelProgram p;
  p.Emit(PelOp::kLocalAddr);
  EXPECT_EQ(Run(p).AsAddr(), "n0");
}

TEST_F(PelTest, ShlBuildsRingOffsets) {
  // K := N + (1 << I), the finger-target idiom.
  TuplePtr t = Tuple::Make("f", {Value::Id(Uint160(100)), Value::Int(70)});
  PelProgram p;
  p.Emit(PelOp::kPushField, 0);
  p.Emit(PelOp::kPushConst, p.AddConst(Value::Int(1)));
  p.Emit(PelOp::kPushField, 1);
  p.Emit(PelOp::kShl);
  p.Emit(PelOp::kAdd);
  Value k = Run(p, t.get());
  EXPECT_EQ(k.AsId(), Uint160(100) + (Uint160(1) << 70));
}

TEST(PelBuiltins, RegistryLookups) {
  ASSERT_NE(FindPelBuiltin("f_now"), nullptr);
  EXPECT_EQ(FindPelBuiltin("f_now")->arity, 0);
  ASSERT_NE(FindPelBuiltin("f_coinFlip"), nullptr);
  EXPECT_EQ(FindPelBuiltin("f_coinFlip")->arity, 1);
  ASSERT_NE(FindPelBuiltin("f_sha1"), nullptr);
  EXPECT_EQ(FindPelBuiltin("nosuch"), nullptr);
}

TEST(PelProgram, DisassembleListsOps) {
  PelProgram p;
  p.Emit(PelOp::kPushConst, p.AddConst(Value::Int(1)));
  p.Emit(PelOp::kPushField, 2);
  p.Emit(PelOp::kAdd);
  std::string text = p.Disassemble();
  EXPECT_NE(text.find("push_const 0 (1)"), std::string::npos);
  EXPECT_NE(text.find("push_field 2"), std::string::npos);
  EXPECT_NE(text.find("add"), std::string::npos);
}

}  // namespace
}  // namespace p2
