// Semi-naive planner and incremental-aggregate unit tests.
//
// Pins the planner's delta semantics: pure-table rules fire from EVERY
// materialized body predicate (not just the first), remove chains retract
// derived rows when a support is deleted or evicted (but not when it
// merely expires — soft state ages out on its own TTL), projections that
// give one head row several derivations keep it while any support lives,
// and the incremental table-aggregate watcher tracks count/sum/avg in O(1)
// and min/max through a support multiset, queueing re-entrant deltas.
#include <gtest/gtest.h>

#include "src/dataflow/rel_elements.h"
#include "src/p2/node.h"
#include "src/sim/network.h"

namespace p2 {
namespace {

class SemiNaiveTest : public ::testing::Test {
 protected:
  SemiNaiveTest() : net_(&loop_, Topology(TopologyConfig{}), 17) {
    t1_ = net_.MakeTransport("n1", 0);
  }

  std::unique_ptr<P2Node> Install(const std::string& program) {
    P2NodeConfig c;
    c.executor = &loop_;
    c.transport = t1_.get();
    c.seed = 1;
    auto node = std::make_unique<P2Node>(c);
    std::string err;
    EXPECT_TRUE(node->Install(program, &err)) << err;
    return node;
  }

  SimEventLoop loop_;
  SimNetwork net_;
  std::unique_ptr<SimTransport> t1_;
};

// --- Multi-delta triggers -------------------------------------------------

TEST_F(SemiNaiveTest, PureTableRuleFiresFromEveryBodyPredicate) {
  const std::string program =
      "materialize(a, infinity, 100, keys(2)).\n"
      "materialize(b, infinity, 100, keys(2)).\n"
      "materialize(h, infinity, 100, keys(2)).\n"
      "r1 h@X(X,K,V) :- a@X(X,K), b@X(X,K,V).\n";
  auto n = Install(program);
  n->Start();
  // a first, then b: only a delta-insert(b) trigger can derive this h row.
  n->GetTable("a")->Insert(Tuple::Make("a", {Value::Addr("n1"), Value::Int(1)}));
  n->GetTable("b")->Insert(
      Tuple::Make("b", {Value::Addr("n1"), Value::Int(1), Value::Str("x")}));
  // b first, then a: the mirror case needs the delta-insert(a) trigger.
  n->GetTable("b")->Insert(
      Tuple::Make("b", {Value::Addr("n1"), Value::Int(2), Value::Str("y")}));
  n->GetTable("a")->Insert(Tuple::Make("a", {Value::Addr("n1"), Value::Int(2)}));
  loop_.RunUntil(1.0);
  Table* h = n->GetTable("h");
  EXPECT_EQ(h->size(), 2u);
  EXPECT_NE(h->FindByKey({Value::Int(1)}), nullptr);
  EXPECT_NE(h->FindByKey({Value::Int(2)}), nullptr);
}

// --- Remove chains --------------------------------------------------------

TEST_F(SemiNaiveTest, DeleteRetractsDerivedRow) {
  const std::string program =
      "materialize(a, infinity, 100, keys(2)).\n"
      "materialize(b, infinity, 100, keys(2)).\n"
      "materialize(h, infinity, 100, keys(2)).\n"
      "r1 h@X(X,K,V) :- a@X(X,K), b@X(X,K,V).\n";
  auto n = Install(program);
  n->Start();
  n->GetTable("a")->Insert(Tuple::Make("a", {Value::Addr("n1"), Value::Int(1)}));
  n->GetTable("b")->Insert(
      Tuple::Make("b", {Value::Addr("n1"), Value::Int(1), Value::Str("x")}));
  ASSERT_EQ(n->GetTable("h")->size(), 1u);
  // Retracting either support un-derives h (all body vars appear in the
  // head, so the remove chain is provably safe).
  n->GetTable("a")->DeleteByKey({Value::Int(1)});
  loop_.RunUntil(1.0);
  EXPECT_EQ(n->GetTable("h")->size(), 0u);
}

TEST_F(SemiNaiveTest, EvictionRetractsDerivedRow) {
  const std::string program =
      "materialize(a, infinity, 2, keys(2)).\n"  // capacity 2: FIFO evicts
      "materialize(h, infinity, 100, keys(2)).\n"
      "r1 h@X(X,K) :- a@X(X,K).\n";
  auto n = Install(program);
  n->Start();
  for (int k = 1; k <= 3; ++k) {
    n->GetTable("a")->Insert(Tuple::Make("a", {Value::Addr("n1"), Value::Int(k)}));
  }
  loop_.RunUntil(1.0);
  // k=1 was evicted; its derived row went with it.
  EXPECT_EQ(n->GetTable("a")->size(), 2u);
  EXPECT_EQ(n->GetTable("h")->size(), 2u);
  EXPECT_EQ(n->GetTable("h")->FindByKey({Value::Int(1)}), nullptr);
}

TEST_F(SemiNaiveTest, ExpiryDoesNotRetractDerivedRow) {
  // Soft-state refresh noise: a TTL'd support expiring is not a retraction
  // (the Chord ping cycle depends on derived state outliving one refresh
  // gap). Derived rows age out on their own TTL instead.
  const std::string program =
      "materialize(a, 1, 100, keys(2)).\n"
      "materialize(h, infinity, 100, keys(2)).\n"
      "r1 h@X(X,K) :- a@X(X,K).\n";
  auto n = Install(program);
  n->Start();
  n->GetTable("a")->Insert(Tuple::Make("a", {Value::Addr("n1"), Value::Int(1)}));
  loop_.RunUntil(3.0);  // well past a's 1s lifetime
  EXPECT_EQ(n->GetTable("a")->size(), 0u);
  EXPECT_EQ(n->GetTable("h")->size(), 1u);
}

TEST_F(SemiNaiveTest, ProjectedSupportGetsNoRemoveChain) {
  // h projects S away, so one h row can have many derivations; deleting a
  // single support must NOT kill it (Chord's pingNode :- succ shape). The
  // remove chain only decrements h's support count, which stays above 0.
  const std::string program =
      "materialize(a, infinity, 100, keys(2,3)).\n"
      "materialize(h, infinity, 100, keys(2)).\n"
      "r1 h@X(X,K) :- a@X(X,K,S).\n";
  auto n = Install(program);
  n->Start();
  n->GetTable("a")->Insert(
      Tuple::Make("a", {Value::Addr("n1"), Value::Int(1), Value::Int(10)}));
  n->GetTable("a")->Insert(
      Tuple::Make("a", {Value::Addr("n1"), Value::Int(1), Value::Int(20)}));
  ASSERT_EQ(n->GetTable("h")->size(), 1u);
  n->GetTable("a")->DeleteByKey({Value::Int(1), Value::Int(10)});
  loop_.RunUntil(1.0);
  EXPECT_EQ(n->GetTable("h")->size(), 1u);  // second derivation still holds
}

// --- Incremental table aggregates ----------------------------------------

TEST_F(SemiNaiveTest, MinSurvivesRetractionOfNonExtremum) {
  const std::string program =
      "materialize(dist, infinity, 100, keys(2)).\n"
      "best@X(X,min<D>) :- dist@X(X,S,D).\n";
  auto n = Install(program);
  std::vector<int64_t> outs;
  n->Subscribe("best", [&](const TuplePtr& t) { outs.push_back(t->field(1).AsInt()); });
  n->Start();
  auto row = [](int64_t s, int64_t d) {
    return Tuple::Make("dist", {Value::Addr("n1"), Value::Int(s), Value::Int(d)});
  };
  n->GetTable("dist")->Insert(row(1, 50));
  n->GetTable("dist")->Insert(row(2, 20));
  n->GetTable("dist")->Insert(row(3, 90));           // min unchanged: silent
  n->GetTable("dist")->DeleteByKey({Value::Int(3)});  // non-extremum: silent
  n->GetTable("dist")->DeleteByKey({Value::Int(2)});  // extremum: successor
  loop_.RunUntil(1.0);
  ASSERT_EQ(outs.size(), 3u);
  EXPECT_EQ(outs[0], 50);
  EXPECT_EQ(outs[1], 20);
  EXPECT_EQ(outs[2], 50);
}

TEST_F(SemiNaiveTest, MinSupportCountsDuplicateValues) {
  const std::string program =
      "materialize(dist, infinity, 100, keys(2)).\n"
      "best@X(X,min<D>) :- dist@X(X,S,D).\n";
  auto n = Install(program);
  std::vector<int64_t> outs;
  n->Subscribe("best", [&](const TuplePtr& t) { outs.push_back(t->field(1).AsInt()); });
  n->Start();
  auto row = [](int64_t s, int64_t d) {
    return Tuple::Make("dist", {Value::Addr("n1"), Value::Int(s), Value::Int(d)});
  };
  n->GetTable("dist")->Insert(row(1, 10));
  n->GetTable("dist")->Insert(row(2, 10));            // duplicate extremum
  n->GetTable("dist")->Insert(row(3, 40));
  n->GetTable("dist")->DeleteByKey({Value::Int(1)});  // one of two 10s: silent
  n->GetTable("dist")->DeleteByKey({Value::Int(2)});  // last 10: min -> 40
  loop_.RunUntil(1.0);
  ASSERT_EQ(outs.size(), 2u);
  EXPECT_EQ(outs[0], 10);
  EXPECT_EQ(outs[1], 40);
}

TEST_F(SemiNaiveTest, ReplaceRetractsDisplacedContribution) {
  const std::string program =
      "materialize(dist, infinity, 100, keys(2)).\n"
      "total@X(X,sum<D>) :- dist@X(X,S,D).\n";
  auto n = Install(program);
  std::vector<int64_t> outs;
  n->Subscribe("total", [&](const TuplePtr& t) { outs.push_back(t->field(1).AsInt()); });
  n->Start();
  auto row = [](int64_t s, int64_t d) {
    return Tuple::Make("dist", {Value::Addr("n1"), Value::Int(s), Value::Int(d)});
  };
  n->GetTable("dist")->Insert(row(1, 5));
  n->GetTable("dist")->Insert(row(2, 7));
  n->GetTable("dist")->Insert(row(1, 9));  // replaces the 5 by primary key
  loop_.RunUntil(1.0);
  ASSERT_EQ(outs.size(), 3u);
  EXPECT_EQ(outs[0], 5);
  EXPECT_EQ(outs[1], 12);
  EXPECT_EQ(outs[2], 16);  // 12 - 5 + 9: the displaced row was retracted
}

TEST_F(SemiNaiveTest, CountEmitsZeroWhenGroupVanishes) {
  const std::string program =
      "materialize(m, infinity, 100, keys(2)).\n"
      "cnt@X(X,count<*>) :- m@X(X,K).\n";
  auto n = Install(program);
  std::vector<int64_t> outs;
  n->Subscribe("cnt", [&](const TuplePtr& t) { outs.push_back(t->field(1).AsInt()); });
  n->Start();
  n->GetTable("m")->Insert(Tuple::Make("m", {Value::Addr("n1"), Value::Int(1)}));
  n->GetTable("m")->Insert(Tuple::Make("m", {Value::Addr("n1"), Value::Int(2)}));
  n->GetTable("m")->DeleteByKey({Value::Int(1)});
  n->GetTable("m")->DeleteByKey({Value::Int(2)});
  loop_.RunUntil(1.0);
  ASSERT_EQ(outs.size(), 4u);
  EXPECT_EQ(outs[0], 1);
  EXPECT_EQ(outs[1], 2);
  EXPECT_EQ(outs[2], 1);
  EXPECT_EQ(outs[3], 0);  // counts report empty groups (S1/S2 eviction loop)
}

TEST_F(SemiNaiveTest, AvgTracksGroupedRows) {
  const std::string program =
      "materialize(m, infinity, 100, keys(2)).\n"
      "mean@X(X,G,avg<D>) :- m@X(X,K,G,D).\n";
  auto n = Install(program);
  std::vector<std::pair<int64_t, int64_t>> outs;  // (group, avg)
  n->Subscribe("mean", [&](const TuplePtr& t) {
    outs.emplace_back(t->field(1).AsInt(), t->field(2).AsInt());
  });
  n->Start();
  auto row = [](int64_t k, int64_t g, int64_t d) {
    return Tuple::Make("m", {Value::Addr("n1"), Value::Int(k), Value::Int(g), Value::Int(d)});
  };
  n->GetTable("m")->Insert(row(1, 7, 10));
  n->GetTable("m")->Insert(row(2, 7, 20));           // group 7 avg -> 15
  n->GetTable("m")->Insert(row(3, 8, 99));           // independent group
  n->GetTable("m")->DeleteByKey({Value::Int(1)});    // group 7 avg -> 20
  loop_.RunUntil(1.0);
  ASSERT_EQ(outs.size(), 4u);
  EXPECT_EQ(outs[0], (std::pair<int64_t, int64_t>(7, 10)));
  EXPECT_EQ(outs[1], (std::pair<int64_t, int64_t>(7, 15)));
  EXPECT_EQ(outs[2], (std::pair<int64_t, int64_t>(8, 99)));
  EXPECT_EQ(outs[3], (std::pair<int64_t, int64_t>(7, 20)));
}

TEST_F(SemiNaiveTest, ReentrantDeltasAreQueuedNotDropped) {
  // cnt's emission drives a rule that writes back into the watched table:
  // the watcher's OnDelta re-enters while the triggering delta is still
  // being processed. Queued draining must reach the fixpoint (3 rows).
  const std::string program =
      "materialize(src, infinity, 100, keys(2)).\n"
      "materialize(cnt, infinity, 10, keys(1)).\n"
      "r1 cnt@X(X,count<*>) :- src@X(X,K).\n"
      "r2 src@X(X, 100 + C) :- cnt@X(X,C), C < 3.\n";
  auto n = Install(program);
  n->Start();
  n->GetTable("src")->Insert(Tuple::Make("src", {Value::Addr("n1"), Value::Int(1)}));
  loop_.RunUntil(1.0);
  EXPECT_EQ(n->GetTable("src")->size(), 3u);
  TuplePtr cnt = n->GetTable("cnt")->Scan()[0];
  EXPECT_EQ(cnt->field(1).AsInt(), 3);
}

// --- Backpressure plumbing ------------------------------------------------

// Captures the congestion callback a join hands downstream.
class CongestedSink : public Element {
 public:
  CongestedSink() : Element("congested_sink") {}
  int Push(int port, const TuplePtr& t, const Callback& cb) override {
    (void)port;
    tuples.push_back(t);
    saw_callback.push_back(cb != nullptr);
    return 0;  // always congested
  }
  std::vector<TuplePtr> tuples;
  std::vector<bool> saw_callback;
};

TEST_F(SemiNaiveTest, JoinForwardsBackpressureCallback) {
  TableSpec spec;
  spec.name = "t";
  spec.key_positions = {1};
  Table table(std::move(spec), &loop_);
  table.Insert(Tuple::Make("t", {Value::Int(1), Value::Int(10)}));
  table.Insert(Tuple::Make("t", {Value::Int(1), Value::Int(20)}));

  PelProgram key;  // join on input field 0 == table column 0
  key.Emit(PelOp::kPushField, 0);
  JoinElement join("join", PelEnv{}, &table, {JoinKey{0, std::move(key)}}, "out");
  CongestedSink sink;
  join.BindOutput(0, &sink, 0);

  bool fired = false;
  int signal = join.Push(0, Tuple::Make("ev", {Value::Int(1)}), [&]() { fired = true; });
  EXPECT_EQ(signal, 0);  // congestion propagates upstream
  ASSERT_EQ(sink.tuples.size(), 2u);
  // The caller's callback reached the sink with every match; a congested
  // downstream can actually wake the pusher again.
  EXPECT_TRUE(sink.saw_callback[0]);
  EXPECT_TRUE(sink.saw_callback[1]);
  EXPECT_FALSE(fired);  // the sink owns when to invoke it
}

}  // namespace
}  // namespace p2
