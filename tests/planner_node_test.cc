#include <gtest/gtest.h>

#include <algorithm>

#include "src/net/wire.h"
#include "src/p2/node.h"
#include "src/runtime/marshal.h"
#include "src/sim/network.h"

namespace p2 {
namespace {

// Two P2 nodes on a simulated network.
class PlannerNodeTest : public ::testing::Test {
 protected:
  PlannerNodeTest() : net_(&loop_, Topology(TopologyConfig{}), 99) {
    t1_ = net_.MakeTransport("n1", 0);
    t2_ = net_.MakeTransport("n2", 1);
  }

  std::unique_ptr<P2Node> MakeNode(Transport* t, uint64_t seed) {
    P2NodeConfig c;
    c.executor = &loop_;
    c.transport = t;
    c.seed = seed;
    return std::make_unique<P2Node>(c);
  }

  // Installs `program` into a fresh node on transport `t`; aborts test on
  // failure.
  std::unique_ptr<P2Node> Install(Transport* t, const std::string& program, uint64_t seed) {
    auto node = MakeNode(t, seed);
    std::string err;
    EXPECT_TRUE(node->Install(program, &err)) << err;
    return node;
  }

  SimEventLoop loop_;
  SimNetwork net_;
  std::unique_ptr<SimTransport> t1_;
  std::unique_ptr<SimTransport> t2_;
};

TEST_F(PlannerNodeTest, PeriodicRuleEmitsStream) {
  auto n = Install(t1_.get(), "r1 tick@X(X) :- periodic@X(X, E, 1).", 1);
  int ticks = 0;
  n->Subscribe("tick", [&](const TuplePtr& t) {
    EXPECT_EQ(t->field(0).AsAddr(), "n1");
    ++ticks;
  });
  n->Start();
  loop_.RunUntil(5.5);
  EXPECT_GE(ticks, 4);
  EXPECT_LE(ticks, 6);
}

TEST_F(PlannerNodeTest, PeriodicWithCountFiresOnce) {
  auto n = Install(t1_.get(), "s0 boot@X(X) :- periodic@X(X, E, 0, 1).", 1);
  int boots = 0;
  n->Subscribe("boot", [&](const TuplePtr&) { ++boots; });
  n->Start();
  loop_.RunUntil(10.0);
  EXPECT_EQ(boots, 1);
}

TEST_F(PlannerNodeTest, RemoteSendRoundTrip) {
  const std::string program =
      "p1 pong@Y(Y,X) :- ping@X(X,Y).\n"
      "p2 ack@X(X,Y) :- pong@Y(Y,X).\n";
  auto n1 = Install(t1_.get(), program, 1);
  auto n2 = Install(t2_.get(), program, 2);
  int pongs_at_n2 = 0;
  int acks_at_n1 = 0;
  n2->Subscribe("pong", [&](const TuplePtr&) { ++pongs_at_n2; });
  n1->Subscribe("ack", [&](const TuplePtr& t) {
    EXPECT_EQ(t->field(0).AsAddr(), "n1");  // ack(X, Y) with X = original sender
    EXPECT_EQ(t->field(1).AsAddr(), "n2");
    ++acks_at_n1;
  });
  n1->Start();
  n2->Start();
  n1->Inject(Tuple::Make("ping", {Value::Addr("n1"), Value::Addr("n2")}));
  loop_.RunUntil(2.0);
  EXPECT_EQ(pongs_at_n2, 1);
  // p2 at n2 fires on pong and sends ack back to n1... but ack's head
  // locspec X binds from pong's second field = original sender.
  EXPECT_EQ(acks_at_n1, 1);
  EXPECT_GE(n1->stats().tuples_sent, 1u);
  EXPECT_GE(n2->stats().tuples_from_net, 1u);
}

TEST_F(PlannerNodeTest, JoinAgainstTable) {
  const std::string program =
      "materialize(kv, infinity, 100, keys(2)).\n"
      "r out@X(X,V) :- ev@X(X,K), kv@X(X,K,V).\n";
  auto n = Install(t1_.get(), program, 1);
  n->GetTable("kv")->Insert(
      Tuple::Make("kv", {Value::Addr("n1"), Value::Int(1), Value::Str("one")}));
  n->GetTable("kv")->Insert(
      Tuple::Make("kv", {Value::Addr("n1"), Value::Int(2), Value::Str("two")}));
  std::vector<std::string> outs;
  n->Subscribe("out", [&](const TuplePtr& t) { outs.push_back(t->field(1).AsStr()); });
  n->Start();
  n->Inject(Tuple::Make("ev", {Value::Addr("n1"), Value::Int(2)}));
  n->Inject(Tuple::Make("ev", {Value::Addr("n1"), Value::Int(9)}));  // no match
  loop_.RunUntil(1.0);
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0], "two");
}

TEST_F(PlannerNodeTest, ConstantsInEventActAsFilters) {
  auto n = Install(t1_.get(), "r out@X(X) :- ev@X(X, 5).", 1);
  int outs = 0;
  n->Subscribe("out", [&](const TuplePtr&) { ++outs; });
  n->Start();
  n->Inject(Tuple::Make("ev", {Value::Addr("n1"), Value::Int(5)}));
  n->Inject(Tuple::Make("ev", {Value::Addr("n1"), Value::Int(6)}));
  loop_.RunUntil(1.0);
  EXPECT_EQ(outs, 1);
}

TEST_F(PlannerNodeTest, RepeatedVariablesInEventUnify) {
  auto n = Install(t1_.get(), "r out@X(X,A) :- ev@X(X,A,A).", 1);
  int outs = 0;
  n->Subscribe("out", [&](const TuplePtr&) { ++outs; });
  n->Start();
  n->Inject(Tuple::Make("ev", {Value::Addr("n1"), Value::Int(1), Value::Int(1)}));
  n->Inject(Tuple::Make("ev", {Value::Addr("n1"), Value::Int(1), Value::Int(2)}));
  loop_.RunUntil(1.0);
  EXPECT_EQ(outs, 1);
}

TEST_F(PlannerNodeTest, NegationAsAntiJoin) {
  const std::string program =
      "materialize(seen, infinity, 100, keys(2)).\n"
      "r fresh@X(X,K) :- ev@X(X,K), not seen@X(X,K).\n";
  auto n = Install(t1_.get(), program, 1);
  n->GetTable("seen")->Insert(Tuple::Make("seen", {Value::Addr("n1"), Value::Int(1)}));
  std::vector<int64_t> outs;
  n->Subscribe("fresh", [&](const TuplePtr& t) { outs.push_back(t->field(1).AsInt()); });
  n->Start();
  n->Inject(Tuple::Make("ev", {Value::Addr("n1"), Value::Int(1)}));
  n->Inject(Tuple::Make("ev", {Value::Addr("n1"), Value::Int(2)}));
  loop_.RunUntil(1.0);
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0], 2);
}

TEST_F(PlannerNodeTest, AssignmentsFiltersAndRanges) {
  // Binds K := N + (1 << I) and requires K in (N, S].
  const std::string program =
      "r out@X(X,K) :- ev@X(X,N,S,I), K := N + (1 << I), K in (N,S].\n";
  auto n = Install(t1_.get(), program, 1);
  std::vector<Uint160> outs;
  n->Subscribe("out", [&](const TuplePtr& t) { outs.push_back(t->field(1).AsId()); });
  n->Start();
  // N=100, S=200, I=5 -> K=132, in (100,200]: fires.
  n->Inject(Tuple::Make("ev", {Value::Addr("n1"), Value::Id(Uint160(100)),
                               Value::Id(Uint160(200)), Value::Int(5)}));
  // I=7 -> K=228, outside: dropped.
  n->Inject(Tuple::Make("ev", {Value::Addr("n1"), Value::Id(Uint160(100)),
                               Value::Id(Uint160(200)), Value::Int(7)}));
  loop_.RunUntil(1.0);
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0], Uint160(132));
}

TEST_F(PlannerNodeTest, DeleteRuleRemovesRow) {
  const std::string program =
      "materialize(kv, infinity, 100, keys(2)).\n"
      "d delete kv@X(X,K) :- drop@X(X,K).\n";
  auto n = Install(t1_.get(), program, 1);
  n->GetTable("kv")->Insert(Tuple::Make("kv", {Value::Addr("n1"), Value::Int(1)}));
  n->Start();
  n->Inject(Tuple::Make("drop", {Value::Addr("n1"), Value::Int(1)}));
  loop_.RunUntil(1.0);
  EXPECT_EQ(n->GetTable("kv")->size(), 0u);
}

TEST_F(PlannerNodeTest, PerEventMinAggregateSelectsWinner) {
  const std::string program =
      "materialize(dist, infinity, 100, keys(2)).\n"
      "r best@X(X,B,min<D>) :- ev@X(X), dist@X(X,B,D).\n";
  auto n = Install(t1_.get(), program, 1);
  auto row = [](const char* b, int64_t d) {
    return Tuple::Make("dist", {Value::Addr("n1"), Value::Str(b), Value::Int(d)});
  };
  n->GetTable("dist")->Insert(row("b1", 30));
  n->GetTable("dist")->Insert(row("b2", 10));
  n->GetTable("dist")->Insert(row("b3", 20));
  std::vector<TuplePtr> outs;
  n->Subscribe("best", [&](const TuplePtr& t) { outs.push_back(t); });
  n->Start();
  n->Inject(Tuple::Make("ev", {Value::Addr("n1")}));
  loop_.RunUntil(1.0);
  ASSERT_EQ(outs.size(), 1u);  // one aggregate result per event
  EXPECT_EQ(outs[0]->field(1).AsStr(), "b2");  // argmin semantics
  EXPECT_EQ(outs[0]->field(2).AsInt(), 10);
}

// Gossip's shape: a volatile assignment after a join. A volatile body
// keeps rule-text order, so the strand draws once per joined row that
// passes the filter written before the assignment, in probe order, and
// never for the filtered row. The expected draws were captured from the
// element-per-operator chain that the strand replaced (node seed 1).
TEST_F(PlannerNodeTest, VolatileAssignDrawsOncePerJoinedRowInRuleTextOrder) {
  const std::string program =
      "materialize(gmember, infinity, 100, keys(2)).\n"
      "G2 pick@X(X,Y,R) :- gossipEvent@X(X,E), gmember@X(X,Y), Y != X, R := f_rand().\n";
  auto n = Install(t1_.get(), program, 1);
  for (const char* y : {"m1", "n1", "m2", "m3"}) {  // n1 is the node itself
    n->GetTable("gmember")->Insert(Tuple::Make("gmember", {Value::Addr("n1"), Value::Addr(y)}));
  }
  std::vector<std::pair<std::string, double>> picks;
  n->Subscribe("pick", [&](const TuplePtr& t) {
    picks.emplace_back(t->field(1).AsAddr(), t->field(2).AsDouble());
  });
  n->Start();
  n->Inject(Tuple::Make("gossipEvent", {Value::Addr("n1"), Value::Int(1)}));
  loop_.RunUntil(1.0);
  const std::vector<std::pair<std::string, double>> want = {
      {"m1", 0.70292183315885048}, {"m2", 0.52043661993885693}, {"m3", 0.5741057000197225}};
  EXPECT_EQ(picks, want);
  // Exactly three draws happened: the node's stream continues with the
  // fourth.
  EXPECT_EQ(n->rng()->NextDouble(), 0.39132860204190445);
}

TEST_F(PlannerNodeTest, CountEmitsZeroForEmptyMatch) {
  const std::string program =
      "materialize(m, infinity, 100, keys(2)).\n"
      "r found@X(X,K,count<*>) :- ev@X(X,K), m@X(X,K).\n";
  auto n = Install(t1_.get(), program, 1);
  n->GetTable("m")->Insert(Tuple::Make("m", {Value::Addr("n1"), Value::Int(7)}));
  std::vector<std::pair<int64_t, int64_t>> outs;
  n->Subscribe("found", [&](const TuplePtr& t) {
    outs.emplace_back(t->field(1).AsInt(), t->field(2).AsInt());
  });
  n->Start();
  n->Inject(Tuple::Make("ev", {Value::Addr("n1"), Value::Int(7)}));
  n->Inject(Tuple::Make("ev", {Value::Addr("n1"), Value::Int(8)}));
  loop_.RunUntil(1.0);
  ASSERT_EQ(outs.size(), 2u);
  EXPECT_EQ(outs[0], (std::pair<int64_t, int64_t>(7, 1)));
  EXPECT_EQ(outs[1], (std::pair<int64_t, int64_t>(8, 0)));
}

TEST_F(PlannerNodeTest, TableAggregateWatcher) {
  const std::string program =
      "materialize(dist, infinity, 100, keys(2)).\n"
      "n3 best@X(X,min<D>) :- dist@X(X,S,D).\n";
  auto n = Install(t1_.get(), program, 1);
  std::vector<int64_t> outs;
  n->Subscribe("best", [&](const TuplePtr& t) { outs.push_back(t->field(1).AsInt()); });
  n->Start();
  auto row = [](int64_t s, int64_t d) {
    return Tuple::Make("dist", {Value::Addr("n1"), Value::Int(s), Value::Int(d)});
  };
  n->GetTable("dist")->Insert(row(1, 50));
  n->GetTable("dist")->Insert(row(2, 20));
  n->GetTable("dist")->Insert(row(3, 90));  // min unchanged: no emission
  loop_.RunUntil(1.0);
  ASSERT_EQ(outs.size(), 2u);
  EXPECT_EQ(outs[0], 50);
  EXPECT_EQ(outs[1], 20);
}

TEST_F(PlannerNodeTest, MaterializedHeadInsertsAndCascades) {
  const std::string program =
      "materialize(kv, infinity, 100, keys(2)).\n"
      "r1 kv@X(X,K,V) :- ev@X(X,K,V).\n"
      "r2 seen@X(X,K) :- kv@X(X,K,V).\n";  // delta-triggered
  auto n = Install(t1_.get(), program, 1);
  int seen = 0;
  n->Subscribe("seen", [&](const TuplePtr&) { ++seen; });
  n->Start();
  n->Inject(Tuple::Make("ev", {Value::Addr("n1"), Value::Int(1), Value::Str("v")}));
  loop_.RunUntil(1.0);
  EXPECT_EQ(n->GetTable("kv")->size(), 1u);
  EXPECT_EQ(seen, 1);
}

TEST_F(PlannerNodeTest, RemoteMaterializedHeadStoredAtDestination) {
  const std::string program =
      "materialize(kv, infinity, 100, keys(2)).\n"
      "r1 kv@Y(Y,K,V) :- ev@X(X,Y,K,V).\n";
  auto n1 = Install(t1_.get(), program, 1);
  auto n2 = Install(t2_.get(), program, 2);
  n1->Start();
  n2->Start();
  n1->Inject(Tuple::Make("ev", {Value::Addr("n1"), Value::Addr("n2"), Value::Int(1),
                                Value::Str("v")}));
  loop_.RunUntil(2.0);
  EXPECT_EQ(n1->GetTable("kv")->size(), 0u);
  EXPECT_EQ(n2->GetTable("kv")->size(), 1u);
}

TEST_F(PlannerNodeTest, FactsInstalledAtInstallTime) {
  const std::string program =
      "materialize(nfx, infinity, 1, keys(1)).\n"
      "f0 nfx@NI(NI, 0).\n";
  auto n = Install(t1_.get(), program, 1);
  Table* t = n->GetTable("nfx");
  ASSERT_EQ(t->size(), 1u);
  TuplePtr row = t->Scan()[0];
  EXPECT_EQ(row->field(0).AsAddr(), "n1");
  EXPECT_EQ(row->field(1).AsInt(), 0);
}

TEST_F(PlannerNodeTest, RuleFireCountsTracked) {
  auto n = Install(t1_.get(), "r1 tick@X(X) :- periodic@X(X,E,1).", 1);
  n->Start();
  loop_.RunUntil(4.5);
  auto counts = n->RuleFireCounts();
  ASSERT_TRUE(counts.count("r1") > 0);
  EXPECT_GE(counts["r1"], 3u);
  EXPECT_EQ(n->num_rules(), 1u);
  EXPECT_GT(n->ApproxMemoryBytes(), 0u);
}

TEST_F(PlannerNodeTest, InstallErrors) {
  struct Case {
    const char* program;
    const char* fragment;
  };
  const Case cases[] = {
      {"r h@X(X) :- a@X(X), b@X(X).", "more than one stream"},
      {"r h@X(X,Z) :- ev@X(X).", "unbound"},
      {"r h@X(X) :- ev@X(X), V := f_bogus().", "unknown builtin"},
      {"f0 stream@NI(NI, 0).", "non-materialized"},
      {"materialize(t, infinity, 1, keys(1)).\n"
       "materialize(t, infinity, 1, keys(1)).",
       "declared twice"},
      {"d delete s@X(X) :- ev@X(X).", "non-materialized"},
  };
  for (const Case& c : cases) {
    auto n = MakeNode(t1_.get(), 1);
    std::string err;
    EXPECT_FALSE(n->Install(c.program, &err)) << c.program;
    EXPECT_NE(err.find(c.fragment), std::string::npos)
        << "program: " << c.program << "\nerr: " << err;
  }
}

TEST_F(PlannerNodeTest, LocalizedMultiNodeRuleRunsEndToEnd) {
  // The §2.3 Narada rule R4 pattern: event + tables at X, a negated check
  // and an assignment at Y, head at Y. The localizer splits it into a ship
  // rule and a receive rule; this verifies the pair works over the network.
  const std::string program =
      "materialize(member, infinity, 100, keys(2)).\n"
      "materialize(neighbor, infinity, 100, keys(2)).\n"
      "R4 member@Y(Y, A, S, T) :- refreshSeq@X(X, S), member@X(X, A, _, _), "
      "neighbor@X(X, Y), not member@Y(Y, A, _, _), T := f_now@Y().\n";
  auto n1 = Install(t1_.get(), program, 1);
  auto n2 = Install(t2_.get(), program, 2);
  // n1 knows member "m9" and has n2 as neighbor; n2 does not know "m9".
  n1->GetTable("member")->Insert(Tuple::Make(
      "member", {Value::Addr("n1"), Value::Addr("m9"), Value::Int(3), Value::Double(0)}));
  n1->GetTable("neighbor")->Insert(
      Tuple::Make("neighbor", {Value::Addr("n1"), Value::Addr("n2")}));
  n1->Start();
  n2->Start();
  n1->Inject(Tuple::Make("refreshSeq", {Value::Addr("n1"), Value::Int(7)}));
  loop_.RunUntil(2.0);
  // n2 learned the member, stamped with n2's local clock.
  TuplePtr learned = n2->GetTable("member")->FindByKey({Value::Addr("m9")});
  ASSERT_NE(learned, nullptr);
  EXPECT_EQ(learned->field(2).AsInt(), 7);  // S rides from the refresh event
  EXPECT_GT(learned->field(3).AsDouble(), 0.0);
  // The negation holds on re-derivation: a second refresh does not
  // overwrite n2's now-existing entry (no delta beyond the first).
  double t_first = learned->field(3).AsDouble();
  n1->Inject(Tuple::Make("refreshSeq", {Value::Addr("n1"), Value::Int(8)}));
  loop_.RunUntil(4.0);
  TuplePtr again = n2->GetTable("member")->FindByKey({Value::Addr("m9")});
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->field(3).AsDouble(), t_first);
}

TEST_F(PlannerNodeTest, WatchDirectiveLogsWithoutCrashing) {
  auto n = Install(t1_.get(),
                   "watch(tick).\n"
                   "r1 tick@X(X) :- periodic@X(X,E,1).",
                   1);
  n->Start();
  loop_.RunUntil(3.5);  // watch output goes to the log; nothing to assert
  EXPECT_GE(n->RuleFireCounts()["r1"], 2u);
}

TEST_F(PlannerNodeTest, ArityInferenceRejectsInconsistentUse) {
  auto n = MakeNode(t1_.get(), 1);
  std::string err;
  EXPECT_FALSE(n->Install("materialize(t, infinity, 10, keys(1)).\n"
                          "r1 t@X(X,K) :- ev@X(X,K).\n"
                          "r2 out@X(X) :- t@X(X,K,V).\n",
                          &err));
  EXPECT_NE(err.find("inconsistent arity"), std::string::npos);
}

TEST_F(PlannerNodeTest, WrongArityWireTuplesAreDropped) {
  const std::string program =
      "materialize(kv, infinity, 100, keys(2)).\n"
      "r1 out@X(X,V) :- ev@X(X,K), kv@X(X,K,V).\n";
  auto n = Install(t1_.get(), program, 1);
  n->Start();
  // A short "kv" tuple arriving off the wire must not plant a malformed
  // row (which would crash the join's field indexing later).
  t2_->SendTo("n1", FrameTuple(Tuple("kv", {Value::Addr("n1")})),
              TrafficClass::kMaintenance);
  // A short "ev" event must be dropped by the rule driver.
  t2_->SendTo("n1", FrameTuple(Tuple("ev", {Value::Addr("n1")})),
              TrafficClass::kMaintenance);
  loop_.RunUntil(1.0);
  EXPECT_EQ(n->GetTable("kv")->size(), 0u);
  // The node still works.
  n->GetTable("kv")->Insert(
      Tuple::Make("kv", {Value::Addr("n1"), Value::Int(1), Value::Str("v")}));
  int outs = 0;
  n->Subscribe("out", [&](const TuplePtr&) { ++outs; });
  n->Inject(Tuple::Make("ev", {Value::Addr("n1"), Value::Int(1)}));
  loop_.RunUntil(2.0);
  EXPECT_EQ(outs, 1);
}

// Received addresses come from the node's direct-mapped address cache.
// Frames carrying far more distinct addresses than it has slots must still
// deliver every tuple with its own addresses, as values equal to freshly
// built ones.
TEST_F(PlannerNodeTest, ReceivedAddressesSurviveCacheEvictions) {
  auto n = Install(t1_.get(), "r1 got@X(X,A,B) :- hello@X(X,A,B).\n", 1);
  std::vector<std::pair<std::string, std::string>> got;
  n->Subscribe("hello", [&](const TuplePtr& t) {
    EXPECT_EQ(t->field(1), Value::Addr(t->field(1).AsAddr()));
    EXPECT_EQ(t->field(2).HashValue(), Value::Addr(t->field(2).AsAddr()).HashValue());
    got.emplace_back(t->field(1).AsAddr(), t->field(2).AsAddr());
  });
  n->Start();
  std::vector<std::pair<std::string, std::string>> want;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 300; ++i) {
      std::string a = "peer" + std::to_string(i);
      std::string b = "10.1." + std::to_string(i % 7) + "." + std::to_string(i) + ":4000";
      want.emplace_back(a, b);
      t2_->SendTo("n1",
                  FrameTuple(Tuple("hello", {Value::Addr("n1"), Value::Addr(a), Value::Addr(b)})),
                  TrafficClass::kMaintenance);
    }
  }
  loop_.RunUntil(5.0);
  // Frame sizes differ, so serialization delay reorders arrivals.
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  EXPECT_EQ(n->stats().tuples_from_net, want.size());
}

// A peer cannot grow the process-wide atom table: a frame naming a
// predicate nobody interned is a bad packet, and nothing is interned.
TEST_F(PlannerNodeTest, FrameNamingAnUninternedPredicateIsABadPacket) {
  auto n = Install(t1_.get(), "r1 got@X(X) :- hello@X(X).\n", 1);
  n->Start();
  ByteWriter w;
  w.PutU8(kTupleMagic);
  w.PutU8(kTupleVersion);
  w.PutU32(0);
  w.PutString("no_program_names_this_predicate");
  w.PutU16(1);
  MarshalValue(Value::Addr("n1"), &w);
  std::vector<uint8_t> frame = w.Take();
  SealFrame(&frame);
  size_t schemas = SchemaCount();
  t2_->SendTo("n1", std::move(frame), TrafficClass::kMaintenance);
  loop_.RunUntil(1.0);
  EXPECT_EQ(n->stats().bad_packets, 1u);
  EXPECT_EQ(n->stats().tuples_from_net, 0u);
  EXPECT_EQ(SchemaCount(), schemas);
}

TEST_F(PlannerNodeTest, InjectRoutesByLocationSpecifier) {
  const std::string program = "r1 got@X(X,V) :- msg@X(X,V).\n";
  auto n1 = Install(t1_.get(), program, 1);
  auto n2 = Install(t2_.get(), program, 2);
  int at_n2 = 0;
  n2->Subscribe("got", [&](const TuplePtr&) { ++at_n2; });
  n1->Start();
  n2->Start();
  // Injected at n1 but addressed to n2: ships across the network.
  n1->Inject(Tuple::Make("msg", {Value::Addr("n2"), Value::Int(5)}));
  loop_.RunUntil(1.0);
  EXPECT_EQ(at_n2, 1);
}

TEST_F(PlannerNodeTest, BadPacketsCounted) {
  auto n = Install(t1_.get(), "r1 tick@X(X) :- periodic@X(X,E,1).", 1);
  n->Start();
  t2_->SendTo("n1", {0xDE, 0xAD}, TrafficClass::kMaintenance);
  loop_.RunUntil(1.0);
  EXPECT_EQ(n->stats().bad_packets, 1u);
}

}  // namespace
}  // namespace p2
