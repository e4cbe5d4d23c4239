// Property-based tests: randomized sweeps checking invariants of the
// runtime substrates against reference models.
#include <gtest/gtest.h>

#include <map>

#include "src/net/wire.h"
#include "src/overlog/compile_expr.h"
#include "src/overlog/parser.h"
#include "src/pel/vm.h"
#include "src/runtime/marshal.h"
#include "src/runtime/random.h"
#include "src/sim/event_loop.h"
#include "src/table/table.h"

namespace p2 {
namespace {

// --- Uint160 vs a 64-bit reference model (operations that stay small) ---

class SmallRingProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SmallRingProperty, MatchesUint64Reference) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    uint64_t a = rng.NextU64() >> 1;  // keep clear of the 64-bit wrap
    uint64_t b = rng.NextU64() >> 1;
    Uint160 A(a);
    Uint160 B(b);
    EXPECT_EQ((A + B).Low64(), a + b);
    EXPECT_EQ((A - B).Low64(), a - b);  // same wrap behaviour in low limb
    EXPECT_EQ(A < B, a < b);
    unsigned sh = static_cast<unsigned>(rng.NextBelow(32));
    EXPECT_EQ((A << sh).Low64() & 0x7FFFFFFFFFFFFFFFull,
              (a << sh) & 0x7FFFFFFFFFFFFFFFull);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmallRingProperty, ::testing::Values(3u, 5u, 8u, 13u));

// --- Marshal round-trip over random tuples; fuzz over corrupted bytes ---

Value RandomValue(Rng* rng, int depth) {
  switch (rng->NextBelow(depth > 0 ? 8 : 7)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Bool(rng->CoinFlip(0.5));
    case 2:
      return Value::Int(static_cast<int64_t>(rng->NextU64()));
    case 3:
      return Value::Double(rng->NextDouble() * 1e6 - 5e5);
    case 4: {
      std::string s;
      for (uint64_t n = rng->NextBelow(20); n > 0; --n) {
        s.push_back(static_cast<char>('a' + rng->NextBelow(26)));
      }
      return Value::Str(std::move(s));
    }
    case 5:
      return Value::Id(rng->NextId());
    case 6:
      return Value::Addr("h" + std::to_string(rng->NextBelow(1000)));
    default: {
      ValueList items;
      for (uint64_t n = rng->NextBelow(4); n > 0; --n) {
        items.push_back(RandomValue(rng, depth - 1));
      }
      return Value::List(std::move(items));
    }
  }
}

class MarshalProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MarshalProperty, RandomTuplesRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    std::vector<Value> fields;
    for (uint64_t n = rng.NextBelow(8); n > 0; --n) {
      fields.push_back(RandomValue(&rng, 2));
    }
    TuplePtr t = Tuple::Make("t" + std::to_string(i % 7), std::move(fields));
    std::optional<TuplePtr> back = UnmarshalTupleFromBytes(MarshalTupleToBytes(*t));
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE((*back)->SameAs(*t));
  }
}

// MarshaledSize is the exact marshaled length (a frame adds its 6-byte
// header), and frames decoded through one AddrCache — evicting as the
// random addresses collide — equal their originals.
TEST_P(MarshalProperty, FramesAreExactlySizedAndDecodeThroughAnAddrCache) {
  Rng rng(GetParam() ^ 0x5123);
  AddrCache addrs;
  for (int i = 0; i < 200; ++i) {
    std::vector<Value> fields;
    for (uint64_t n = rng.NextBelow(8); n > 0; --n) {
      fields.push_back(RandomValue(&rng, 3));
    }
    TuplePtr t = Tuple::Make("t" + std::to_string(i % 7), std::move(fields));
    std::vector<uint8_t> frame = FrameTuple(*t);
    EXPECT_EQ(MarshaledSize(*t) + 6, frame.size());
    EXPECT_EQ(MarshaledSize(*t), MarshalTupleToBytes(*t).size());
    std::optional<TuplePtr> back = UnframeTuple(frame, &addrs);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE((*back)->SameAs(*t));
  }
}

TEST_P(MarshalProperty, CorruptedBytesNeverCrash) {
  Rng rng(GetParam() ^ 0xF00D);
  std::vector<Value> fields;
  for (int i = 0; i < 5; ++i) {
    fields.push_back(RandomValue(&rng, 2));
  }
  std::vector<uint8_t> bytes = MarshalTupleToBytes(Tuple("t", fields));
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> mutated = bytes;
    // Flip up to 4 random bytes and/or truncate.
    for (uint64_t flips = 1 + rng.NextBelow(4); flips > 0; --flips) {
      mutated[rng.NextBelow(mutated.size())] ^= static_cast<uint8_t>(rng.NextU64());
    }
    if (rng.CoinFlip(0.3)) {
      mutated.resize(rng.NextBelow(mutated.size() + 1));
    }
    // Must either parse into some tuple or fail cleanly; never crash.
    std::optional<TuplePtr> result = UnmarshalTupleFromBytes(mutated);
    if (result.has_value()) {
      EXPECT_LE((*result)->size(), 65535u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarshalProperty, ::testing::Values(11u, 22u, 33u));

// --- Table vs a map-based reference model ---

class TableProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TableProperty, RandomOpsMatchReferenceModel) {
  SimEventLoop loop;
  TableSpec spec;
  spec.name = "t";
  spec.key_positions = {0};
  spec.max_size = 16;
  spec.lifetime_s = 50.0;
  Table table(spec, &loop);

  struct Ref {
    int64_t value;
    double expires;
    uint64_t order;  // refresh order for FIFO eviction
  };
  std::map<int64_t, Ref> model;
  uint64_t order = 0;
  Rng rng(GetParam());

  auto purge_model = [&]() {
    for (auto it = model.begin(); it != model.end();) {
      if (it->second.expires <= loop.Now()) {
        it = model.erase(it);
      } else {
        ++it;
      }
    }
  };
  auto evict_model = [&]() {
    while (model.size() > spec.max_size) {
      auto oldest = model.begin();
      for (auto it = model.begin(); it != model.end(); ++it) {
        if (it->second.order < oldest->second.order) {
          oldest = it;
        }
      }
      model.erase(oldest);
    }
  };

  for (int step = 0; step < 2000; ++step) {
    int64_t key = static_cast<int64_t>(rng.NextBelow(24));
    switch (rng.NextBelow(4)) {
      case 0:
      case 1: {  // insert
        int64_t value = static_cast<int64_t>(rng.NextBelow(100));
        table.Insert(Tuple::Make("t", {Value::Int(key), Value::Int(value)}));
        purge_model();
        model[key] = Ref{value, loop.Now() + spec.lifetime_s, order++};
        evict_model();
        break;
      }
      case 2: {  // delete
        bool removed = table.DeleteByKey({Value::Int(key)});
        purge_model();
        EXPECT_EQ(removed, model.erase(key) > 0);
        break;
      }
      case 3: {  // advance time
        loop.RunUntil(loop.Now() + rng.NextDouble() * 10.0);
        break;
      }
    }
    // Compare lookup results on a random key.
    purge_model();
    TuplePtr found = table.FindByKey({Value::Int(key)});
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_EQ(found, nullptr) << "step " << step;
    } else {
      ASSERT_NE(found, nullptr) << "step " << step;
      EXPECT_EQ(found->field(1).AsInt(), it->second.value) << "step " << step;
    }
    EXPECT_EQ(table.size(), model.size()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableProperty, ::testing::Values(7u, 19u, 31u));

// --- Parser/printer round-trip property over the bundled overlays ---

TEST(ParserProperty, PrintedRulesReparseIdentically) {
  // Parse a program, print every rule, re-parse, and compare structure.
  const char* kProgram =
      "materialize(succ, 10, 100, keys(2)).\n"
      "L1 res@R(R,K,S,SI,E) :- node@NI(NI,N), lookup@NI(NI,K,R,E), succ@NI(NI,S,SI), "
      "K in (N,S].\n"
      "L2 d@NI(NI,K,min<D>) :- lookup@NI(NI,K), finger@NI(NI,I,B,BI), D := K - B - 1, "
      "B in (N,K).\n"
      "S1 c@NI(NI,count<*>) :- succ@NI(NI,S,SI).\n"
      "F8 n@NI(NI,0) :- e@NI(NI,I,B,BI), ((I == 159) || (BI == NI)).\n"
      "L3 delete succ@NI(NI,S) :- dead@NI(NI,S).\n";
  ProgramAst first;
  std::string err;
  ASSERT_TRUE(ParseOverLog(kProgram, &first, &err)) << err;
  for (const RuleAst& rule : first.rules) {
    std::string printed = RuleToString(rule);
    ProgramAst again;
    ASSERT_TRUE(ParseOverLog(printed, &again, &err)) << printed << "\n" << err;
    ASSERT_EQ(again.rules.size(), 1u);
    EXPECT_EQ(RuleToString(again.rules[0]), printed);
  }
}

// --- PEL compilation matches direct expression evaluation ---

TEST(CompileProperty, ArithmeticExpressionsEvaluateCorrectly) {
  // Random integer expression trees compiled through the OverLog expression
  // compiler must match a direct recursive evaluation.
  SimEventLoop loop;
  Rng rng(77);
  std::string addr = "n0";
  PelVm vm(PelEnv{&loop, &rng, &addr});

  struct Node {
    char op;  // 0 = leaf
    int64_t leaf;
    std::unique_ptr<Node> l, r;
  };
  std::function<std::unique_ptr<Node>(int)> gen = [&](int depth) {
    auto n = std::make_unique<Node>();
    if (depth == 0 || rng.CoinFlip(0.3)) {
      n->op = 0;
      n->leaf = static_cast<int64_t>(rng.NextBelow(100)) - 50;
      return n;
    }
    const char ops[] = {'+', '-', '*'};
    n->op = ops[rng.NextBelow(3)];
    n->l = gen(depth - 1);
    n->r = gen(depth - 1);
    return n;
  };
  std::function<ExprPtr(const Node&)> to_expr = [&](const Node& n) -> ExprPtr {
    if (n.op == 0) {
      return Expr::Const(Value::Int(n.leaf));
    }
    return Expr::Binary(std::string(1, n.op), to_expr(*n.l), to_expr(*n.r));
  };
  std::function<int64_t(const Node&)> eval = [&](const Node& n) -> int64_t {
    if (n.op == 0) {
      return n.leaf;
    }
    int64_t a = eval(*n.l);
    int64_t b = eval(*n.r);
    return n.op == '+' ? a + b : (n.op == '-' ? a - b : a * b);
  };

  for (int i = 0; i < 300; ++i) {
    std::unique_ptr<Node> tree = gen(4);
    PelProgram prog;
    std::string err;
    VarEnv env;
    ASSERT_TRUE(CompileExpr(*to_expr(*tree), env, &prog, &err)) << err;
    EXPECT_EQ(vm.Eval(prog, nullptr).AsInt(), eval(*tree));
  }
}

}  // namespace
}  // namespace p2
