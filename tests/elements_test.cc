#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "src/dataflow/basic_elements.h"
#include "src/dataflow/graph.h"
#include "src/dataflow/rel_elements.h"
#include "src/sim/event_loop.h"
#include "src/table/support_counts.h"

namespace p2 {
namespace {

TuplePtr T(const std::string& name, std::vector<Value> fields) {
  return Tuple::Make(name, std::move(fields));
}

// Head programs copying the first `n` frame slots unchanged.
std::vector<PelProgram> Slots(uint32_t n) {
  std::vector<PelProgram> programs(n);
  for (uint32_t i = 0; i < n; ++i) {
    programs[i].Emit(PelOp::kPushField, i);
  }
  return programs;
}

// One probe key: table column `col` equals frame slot `slot`.
std::vector<JoinKey> KeyOn(size_t col, uint32_t slot) {
  PelProgram expr;
  expr.Emit(PelOp::kPushField, slot);
  std::vector<JoinKey> keys;
  keys.push_back(JoinKey{col, std::move(expr)});
  return keys;
}

class ElementsTest : public ::testing::Test {
 protected:
  ElementsTest() : rng_(1), addr_("n0") {}
  PelEnv Env() { return PelEnv{&loop_, &rng_, &addr_}; }

  // Terminal collector.
  CallbackSink* Sink(std::vector<TuplePtr>* out) {
    return graph_.Add<CallbackSink>("sink", [out](const TuplePtr& t) { out->push_back(t); });
  }

  // A route tail collecting every head the strand emits.
  static void RouteTo(RuleDriver* s, std::vector<TuplePtr>* out) {
    RuleDriver::Tail tail;
    tail.route = [out](const TuplePtr& t) { out->push_back(t); };
    s->SetTail(std::move(tail));
  }

  SimEventLoop loop_;
  Rng rng_;
  std::string addr_;
  Graph graph_;
};

// --- Input queue ------------------------------------------------------------

// Records every batch pushed into it; `on_batch` runs after each.
class BatchSink : public Element {
 public:
  BatchSink() : Element("batches") {}
  void Push(int port, const TuplePtr& t) override { PushMany(port, {t}); }
  void PushMany(int port, const std::vector<TuplePtr>& ts) override {
    (void)port;
    batches.push_back(ts);
    if (on_batch) {
      on_batch();
    }
  }
  std::vector<std::vector<TuplePtr>> batches;
  std::function<void()> on_batch;
};

class InputQueueTest : public ElementsTest {
 protected:
  InputQueue* Queue(size_t capacity) {
    auto* q = graph_.Add<InputQueue>("input_queue", &loop_, capacity);
    graph_.Connect(q, 0, &sink_, 0);
    return q;
  }
  std::vector<size_t> BatchSizes() const {
    std::vector<size_t> sizes;
    for (const auto& b : sink_.batches) {
      sizes.push_back(b.size());
    }
    return sizes;
  }

  BatchSink sink_;
};

TEST_F(InputQueueTest, DrainsInFifoBatchesOneEventEach) {
  InputQueue* q = Queue(1000);
  for (int i = 0; i < 200; ++i) {
    q->Push(0, T("t", {Value::Int(i)}));
  }
  EXPECT_EQ(loop_.pending(), 0u);  // nothing drains before Start
  q->Start();
  loop_.RunAll();
  // Full batches re-arm; the short fourth one empties the queue and parks.
  EXPECT_EQ(BatchSizes(), (std::vector<size_t>{64, 64, 64, 8}));
  EXPECT_EQ(loop_.events_run(), 4u);
  int64_t next = 0;
  for (const auto& batch : sink_.batches) {
    for (const TuplePtr& t : batch) {
      EXPECT_EQ(t->field(0).AsInt(), next++);
    }
  }
  EXPECT_EQ(next, 200);
  EXPECT_EQ(q->size(), 0u);
}

TEST_F(InputQueueTest, FullLastBatchTakesOneEmptyDrain) {
  InputQueue* q = Queue(1000);
  for (int i = 0; i < 128; ++i) {
    q->Push(0, T("t", {Value::Int(i)}));
  }
  q->Start();
  loop_.RunAll();
  // The second full batch cannot know the queue is empty, so a third
  // drain runs, finds nothing and parks.
  EXPECT_EQ(BatchSizes(), (std::vector<size_t>{64, 64}));
  EXPECT_EQ(loop_.events_run(), 3u);
  // Parked: a later push schedules exactly one more drain.
  q->Push(0, T("t", {Value::Int(128)}));
  loop_.RunAll();
  EXPECT_EQ(BatchSizes(), (std::vector<size_t>{64, 64, 1}));
  EXPECT_EQ(loop_.events_run(), 4u);
}

TEST_F(InputQueueTest, PushDuringABatchThatEmptiedTheQueueSchedulesTheNextDrain) {
  InputQueue* q = Queue(1000);
  // The first batch loops one tuple back, as a local stream head routed
  // back into the node does while the batch is still running.
  sink_.on_batch = [&]() {
    if (sink_.batches.size() == 1) {
      q->Push(0, T("t", {Value::Int(99)}));
    }
  };
  for (int i = 0; i < 5; ++i) {
    q->Push(0, T("t", {Value::Int(i)}));
  }
  q->Start();
  loop_.RunAll();
  ASSERT_EQ(BatchSizes(), (std::vector<size_t>{5, 1}));
  EXPECT_EQ(sink_.batches[1][0]->field(0).AsInt(), 99);
  EXPECT_EQ(loop_.events_run(), 2u);
}

TEST_F(InputQueueTest, OverflowShedsTheOldestTuple) {
  InputQueue* q = Queue(3);
  for (const char* name : {"a", "b", "c", "d"}) {
    q->Push(0, T(name, {}));
  }
  EXPECT_EQ(q->dropped(), 1u);
  EXPECT_EQ(q->size(), 3u);
  q->Start();
  loop_.RunAll();
  ASSERT_EQ(sink_.batches.size(), 1u);
  std::vector<std::string> names;
  for (const TuplePtr& t : sink_.batches[0]) {
    names.push_back(t->name());
  }
  EXPECT_EQ(names, (std::vector<std::string>{"b", "c", "d"}));
}

// --- Glue elements -----------------------------------------------------------

TEST_F(ElementsTest, DemuxRoutesByName) {
  auto* demux = graph_.Add<DemuxByName>("demux");
  std::vector<TuplePtr> a;
  std::vector<TuplePtr> b;
  graph_.Connect(demux, demux->PortFor("alpha"), Sink(&a), 0);
  graph_.Connect(demux, demux->PortFor("beta"), Sink(&b), 0);
  demux->Push(0, T("alpha", {}));
  demux->Push(0, T("beta", {}));
  demux->Push(0, T("gamma", {}));  // unroutable
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(demux->unroutable(), 1u);
  EXPECT_EQ(demux->PortFor("alpha"), demux->PortFor("alpha"));  // idempotent
}

TEST_F(ElementsTest, DemuxPushManyPartitionsByPortInOrder) {
  auto* demux = graph_.Add<DemuxByName>("demux");
  std::vector<TuplePtr> a;
  std::vector<TuplePtr> b;
  std::vector<TuplePtr> fallback;
  graph_.Connect(demux, demux->PortFor("alpha"), Sink(&a), 0);
  graph_.Connect(demux, demux->PortFor("beta"), Sink(&b), 0);
  int dflt = demux->PortFor("other");
  demux->SetDefaultPort(dflt);
  graph_.Connect(demux, dflt, Sink(&fallback), 0);
  std::vector<TuplePtr> batch{T("alpha", {Value::Int(1)}), T("beta", {Value::Int(2)}),
                              T("alpha", {Value::Int(3)}), T("gamma", {Value::Int(4)}),
                              T("beta", {Value::Int(5)})};
  demux->PushMany(0, batch);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0]->field(0).AsInt(), 1);  // intra-name order preserved
  EXPECT_EQ(a[1]->field(0).AsInt(), 3);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0]->field(0).AsInt(), 2);
  EXPECT_EQ(b[1]->field(0).AsInt(), 5);
  ASSERT_EQ(fallback.size(), 1u);  // unknown name takes the default port
  EXPECT_EQ(fallback[0]->field(0).AsInt(), 4);
  EXPECT_EQ(demux->unroutable(), 0u);
}

TEST_F(ElementsTest, DupFansOutToAllOutputs) {
  auto* dup = graph_.Add<DupElement>("dup");
  std::vector<TuplePtr> a;
  std::vector<TuplePtr> b;
  graph_.Connect(dup, 0, Sink(&a), 0);
  graph_.Connect(dup, 1, Sink(&b), 0);
  dup->Push(0, T("t", {}));
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].get(), b[0].get());  // same shared tuple, no copy
}

TEST_F(ElementsTest, PeriodicSourceEmitsWithExtras) {
  auto* src = graph_.Add<PeriodicSource>("p", &loop_, &rng_, "n0", 2.0, 3, 0.0,
                                         std::vector<Value>{Value::Int(2), Value::Int(3)});
  std::vector<TuplePtr> out;
  graph_.Connect(src, 0, Sink(&out), 0);
  src->Start();
  loop_.RunUntil(100.0);
  ASSERT_EQ(out.size(), 3u);  // count = 3
  const TuplePtr& t = out[0];
  EXPECT_EQ(t->name(), "periodic");
  ASSERT_EQ(t->size(), 4u);
  EXPECT_EQ(t->field(0).AsAddr(), "n0");
  EXPECT_EQ(t->field(1).type(), ValueType::kId);
  EXPECT_EQ(t->field(2).AsInt(), 2);
  EXPECT_EQ(t->field(3).AsInt(), 3);
  // Event ids are unique.
  EXPECT_NE(out[0]->field(1), out[1]->field(1));
}

TEST_F(ElementsTest, PeriodicSourceStopCancels) {
  auto* src = graph_.Add<PeriodicSource>("p", &loop_, &rng_, "n0", 1.0, 0, 0.0,
                                         std::vector<Value>{});
  std::vector<TuplePtr> out;
  graph_.Connect(src, 0, Sink(&out), 0);
  src->Start();
  loop_.RunUntil(3.5);
  size_t seen = out.size();
  EXPECT_GE(seen, 3u);
  src->Stop();
  loop_.RunUntil(10.0);
  EXPECT_EQ(out.size(), seen);
}

// --- Rule strands ---------------------------------------------------------
//
// A strand runs a rule's body ops over one binding frame and builds only
// the head tuple. These cases feed it the inputs the per-operator
// elements it replaced (filter, extend, project, join, anti-join) were
// tested with, and expect the same outputs.

TEST_F(ElementsTest, StrandFilterDropsFalse) {
  PelProgram prog;  // field0 > 5
  prog.Emit(PelOp::kPushField, 0);
  prog.Emit(PelOp::kPushConst, prog.AddConst(Value::Int(5)));
  prog.Emit(PelOp::kGt);
  auto* f = graph_.Add<RuleDriver>("rule:f", Env());
  f->AddFilter(std::move(prog));
  f->SetHead("t", Slots(1));
  std::vector<TuplePtr> out;
  RouteTo(f, &out);
  f->Push(0, T("t", {Value::Int(3)}));
  f->Push(0, T("t", {Value::Int(7)}));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->field(0).AsInt(), 7);
  EXPECT_EQ(f->fires(), 2u);  // a filtered fire still counts as a fire
}

TEST_F(ElementsTest, StrandAssignAppendsComputedField) {
  PelProgram prog;  // field0 + 1
  prog.Emit(PelOp::kPushField, 0);
  prog.Emit(PelOp::kPushConst, prog.AddConst(Value::Int(1)));
  prog.Emit(PelOp::kAdd);
  auto* e = graph_.Add<RuleDriver>("rule:e", Env());
  e->AddAssign(std::move(prog));
  e->SetHead("t", Slots(2));  // the assigned value is frame slot 1
  std::vector<TuplePtr> out;
  RouteTo(e, &out);
  e->Push(0, T("t", {Value::Int(41)}));
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0]->size(), 2u);
  EXPECT_EQ(out[0]->field(1).AsInt(), 42);
}

TEST_F(ElementsTest, StrandHeadProjectsFields) {
  std::vector<PelProgram> programs(2);
  programs[0].Emit(PelOp::kPushField, 1);
  programs[1].Emit(PelOp::kPushConst, programs[1].AddConst(Value::Str("k")));
  auto* p = graph_.Add<RuleDriver>("rule:p", Env());
  p->SetHead("head", std::move(programs));
  std::vector<TuplePtr> out;
  RouteTo(p, &out);
  p->Push(0, T("t", {Value::Int(1), Value::Int(2)}));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->name(), "head");
  EXPECT_EQ(out[0]->field(0).AsInt(), 2);
  EXPECT_EQ(out[0]->field(1).AsStr(), "k");
}

TEST_F(ElementsTest, StrandJoinBindsEachMatch) {
  TableSpec spec;
  spec.name = "nbr";
  spec.key_positions = {0, 1};
  Table table(spec, &loop_);
  table.Insert(T("nbr", {Value::Int(1), Value::Str("a")}));
  table.Insert(T("nbr", {Value::Int(1), Value::Str("b")}));
  table.Insert(T("nbr", {Value::Int(2), Value::Str("c")}));
  auto* join = graph_.Add<RuleDriver>("rule:join", Env());
  join->AddJoin(&table, KeyOn(0, 0));  // event field 0 == table col 0
  join->SetHead("j", Slots(4));        // the whole frame: event, then row
  std::vector<TuplePtr> out;
  RouteTo(join, &out);
  join->Push(0, T("ev", {Value::Int(1), Value::Int(99)}));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0]->name(), "j");
  EXPECT_EQ(out[0]->size(), 4u);  // 2 event + 2 table fields
  EXPECT_EQ(out[0]->field(1).AsInt(), 99);
  // Match order is index order (unspecified); compare as a set.
  std::vector<std::string> matched = {out[0]->field(3).AsStr(), out[1]->field(3).AsStr()};
  std::sort(matched.begin(), matched.end());
  EXPECT_EQ(matched, (std::vector<std::string>{"a", "b"}));
  // The join installed a secondary index for its key columns.
  EXPECT_TRUE(table.HasIndex({0}));
}

TEST_F(ElementsTest, StrandAntiJoinPassesOnlyWhenNoMatch) {
  TableSpec spec;
  spec.name = "t";
  spec.key_positions = {0};
  Table table(spec, &loop_);
  table.Insert(T("t", {Value::Int(1)}));
  auto* aj = graph_.Add<RuleDriver>("rule:aj", Env());
  aj->AddAntiJoin(&table, KeyOn(0, 0));
  aj->SetHead("ev", Slots(1));
  std::vector<TuplePtr> out;
  RouteTo(aj, &out);
  aj->Push(0, T("ev", {Value::Int(1)}));  // match exists: blocked
  aj->Push(0, T("ev", {Value::Int(2)}));  // no match: passes
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->field(0).AsInt(), 2);
}

TEST_F(ElementsTest, StrandNestedJoinsBacktrackOverOneFrame) {
  // ev(K) joins a(K, M), then b(M, V): the frame is [K | K, M | M, V], and
  // the second probe's slots are rewritten for every row the first yields.
  TableSpec aspec;
  aspec.name = "a";
  aspec.key_positions = {0, 1};
  Table a(aspec, &loop_);
  a.Insert(T("a", {Value::Int(1), Value::Int(10)}));
  a.Insert(T("a", {Value::Int(1), Value::Int(20)}));
  a.Insert(T("a", {Value::Int(2), Value::Int(30)}));
  TableSpec bspec;
  bspec.name = "b";
  bspec.key_positions = {0, 1};
  Table b(bspec, &loop_);
  b.Insert(T("b", {Value::Int(10), Value::Str("x")}));
  b.Insert(T("b", {Value::Int(10), Value::Str("y")}));
  b.Insert(T("b", {Value::Int(20), Value::Str("z")}));
  b.Insert(T("b", {Value::Int(30), Value::Str("w")}));
  auto* s = graph_.Add<RuleDriver>("rule:s", Env());
  s->AddJoin(&a, KeyOn(0, 0));
  s->AddJoin(&b, KeyOn(0, 2));  // b col 0 == frame slot 2 (a's M)
  std::vector<PelProgram> head(2);
  head[0].Emit(PelOp::kPushField, 2);
  head[1].Emit(PelOp::kPushField, 4);
  s->SetHead("h", std::move(head));
  std::vector<TuplePtr> out;
  RouteTo(s, &out);
  s->Push(0, T("ev", {Value::Int(1)}));
  std::vector<std::string> got;
  for (const TuplePtr& t : out) {
    got.push_back(t->ToString());
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<std::string>{"h(10, \"x\")", "h(10, \"y\")", "h(20, \"z\")"}));
}

// An aggregate strand folds its bindings and pushes one result per fire.
// The table keys on the whole row, so every row is a binding.
class StrandAggregateTest : public ElementsTest {
 protected:
  StrandAggregateTest() : table_(Spec(), &loop_) {}

  static TableSpec Spec() {
    TableSpec spec;
    spec.name = "cand";
    return spec;
  }

  // ev(G) joins cand(G, Name, V); the head is (Name, V) with the aggregate
  // at position 1, or (G, V) with `group_head`.
  RuleDriver* Strand(AggKind kind, bool group_head, std::vector<PelProgram> empty_fields,
                     std::vector<TuplePtr>* out) {
    auto* s = graph_.Add<RuleDriver>("rule:agg", Env());
    s->set_event_arity(1);
    s->AddJoin(&table_, KeyOn(0, 0));
    std::vector<PelProgram> head(2);
    head[0].Emit(PelOp::kPushField, group_head ? 0 : 2);
    head[1].Emit(PelOp::kPushField, 3);
    s->SetHead("out", std::move(head));
    s->SetAggregate(kind, 1, std::move(empty_fields));
    RouteTo(s, out);
    return s;
  }

  void Add(const char* group, const char* name, int64_t v) {
    table_.Insert(T("cand", {Value::Str(group), Value::Str(name), Value::Int(v)}));
  }

  Table table_;
};

TEST_F(StrandAggregateTest, MinSelectsTheWinningBinding) {
  Add("g", "b", 5);
  Add("g", "a", 3);
  Add("g", "c", 9);
  Add("g", "d", 3);  // ties the best: the first best stays
  std::vector<TuplePtr> out;
  RuleDriver* s = Strand(AggKind::kMin, false, {}, &out);
  s->Push(0, T("ev", {Value::Str("g")}));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->name(), "out");
  // min selection carries the winner's other fields.
  EXPECT_EQ(out[0]->field(0).AsStr(), "a");
  EXPECT_EQ(out[0]->field(1).AsInt(), 3);
  // No binding: min emits nothing.
  s->Push(0, T("ev", {Value::Str("none")}));
  EXPECT_EQ(out.size(), 1u);
}

TEST_F(StrandAggregateTest, CountAndEmptyEmission) {
  Add("g", "x", 1);
  Add("g", "y", 1);
  std::vector<PelProgram> empty_fields(1);
  empty_fields[0].Emit(PelOp::kPushField, 0);  // group field from event
  std::vector<TuplePtr> out;
  RuleDriver* s = Strand(AggKind::kCount, true, std::move(empty_fields), &out);
  // Two bindings -> count 2.
  s->Push(0, T("ev", {Value::Str("g")}));
  // No binding -> count 0 via the event-derived fields.
  s->Push(0, T("ev", {Value::Str("h")}));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0]->field(0).AsStr(), "g");
  EXPECT_EQ(out[0]->field(1).AsInt(), 2);
  EXPECT_EQ(out[1]->field(0).AsStr(), "h");
  EXPECT_EQ(out[1]->field(1).AsInt(), 0);
}

TEST_F(StrandAggregateTest, SumAccumulatesEveryBinding) {
  for (int i = 1; i <= 4; ++i) {
    Add("g", "r", i);
  }
  std::vector<TuplePtr> out;
  RuleDriver* s = Strand(AggKind::kSum, true, {}, &out);
  s->Push(0, T("ev", {Value::Str("g")}));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->field(1).AsInt(), 10);
}

TEST_F(ElementsTest, AggregateStrandEmitsOncePerFire) {
  auto* driver = graph_.Add<RuleDriver>("rule:x", Env());
  // An empty body whose head copies the event: the strand is identity.
  driver->SetHead("pre", Slots(1));
  driver->SetAggregate(AggKind::kMax, 0, {});
  std::vector<TuplePtr> out;
  RouteTo(driver, &out);
  driver->Push(0, T("pre", {Value::Int(5)}));
  driver->Push(0, T("pre", {Value::Int(2)}));
  EXPECT_EQ(driver->fires(), 2u);
  ASSERT_EQ(out.size(), 2u);  // one result at the end of each fire
  EXPECT_EQ(out[0]->field(0).AsInt(), 5);
  EXPECT_EQ(out[1]->field(0).AsInt(), 2);
}

TEST_F(ElementsTest, InsertElementStoresAndDeleteTailRemovesByKey) {
  TableSpec spec;
  spec.name = "t";
  spec.key_positions = {0};
  Table table(spec, &loop_);
  auto* ins = graph_.Add<InsertElement>("ins", &table);
  ins->Push(0, T("t", {Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(table.size(), 1u);
  // A delete rule's strand removes the row whose key its head carries.
  auto* del = graph_.Add<RuleDriver>("rule:del", Env());
  del->SetHead("t", Slots(2));
  RuleDriver::Tail tail;
  tail.kind = RuleDriver::Tail::Kind::kDelete;
  tail.table = &table;
  del->SetTail(std::move(tail));
  del->Push(0, T("ev", {Value::Int(1), Value::Int(999)}));
  EXPECT_EQ(table.size(), 0u);
}

// --- Strand tails ------------------------------------------------------------
//
// Counted variants: ev(A, K) joins src(K, V) and derives h(A, V) into a
// head table keyed on the whole row, whose supports `counts_` tracks.
class StrandTailTest : public ElementsTest {
 protected:
  StrandTailTest() : src_(Spec("src"), &loop_), head_(Spec("h"), &loop_), counts_(&head_) {}

  static TableSpec Spec(const char* name) {
    TableSpec spec;
    spec.name = name;
    return spec;
  }

  RuleDriver* Strand(RuleDriver::Tail::Kind kind) {
    auto* s = graph_.Add<RuleDriver>("rule:r", Env());
    s->AddJoin(&src_, KeyOn(0, 1));
    std::vector<PelProgram> head(2);
    head[0].Emit(PelOp::kPushField, 0);
    head[1].Emit(PelOp::kPushField, 3);
    s->SetHead("h", std::move(head));
    RuleDriver::Tail tail;
    tail.kind = kind;
    tail.watch = [this](const TuplePtr& t) { log_.push_back("watch " + t->ToString()); };
    tail.route = [this](const TuplePtr& t) {
      log_.push_back("route " + t->ToString());
      if (on_route) {
        on_route(t);
      }
    };
    tail.counts = &counts_;
    tail.local_addr = "n0";
    tail.table = &head_;
    s->SetTail(std::move(tail));
    return s;
  }

  static TuplePtr Ev(const char* addr, int64_t k) {
    return T("ev", {Value::Addr(addr), Value::Int(k)});
  }
  static TuplePtr H(const char* addr, int64_t v) {
    return T("h", {Value::Addr(addr), Value::Int(v)});
  }
  uint64_t Count(const char* addr, int64_t v) const { return counts_.Count(*H(addr, v)); }

  Table src_;
  Table head_;
  SupportCounts counts_;
  std::vector<std::string> log_;
  std::function<void(const TuplePtr&)> on_route;
};

TEST_F(StrandTailTest, CountRouteCountsFreshLocalHeadsAndRoutesEveryHead) {
  src_.Insert(T("src", {Value::Int(1), Value::Int(10)}));
  RuleDriver* s = Strand(RuleDriver::Tail::Kind::kCountRoute);
  s->Fire(Ev("n0", 1), /*ttl=*/false);
  EXPECT_EQ(Count("n0", 10), 1u);
  // A TTL refresh re-derives and routes the head without a new support.
  s->Fire(Ev("n0", 1), /*ttl=*/true);
  EXPECT_EQ(Count("n0", 10), 1u);
  // A remote head is routed but counted where it is stored.
  s->Fire(Ev("n9", 1), /*ttl=*/false);
  EXPECT_EQ(Count("n9", 10), 0u);
  EXPECT_EQ(log_, (std::vector<std::string>{"watch h(n0, 10)", "route h(n0, 10)",
                                            "watch h(n0, 10)", "route h(n0, 10)",
                                            "watch h(n9, 10)", "route h(n9, 10)"}));
}

TEST_F(StrandTailTest, RetractDeletesAtZeroUnlessTheSupportExpired) {
  src_.Insert(T("src", {Value::Int(1), Value::Int(10)}));
  src_.Insert(T("src", {Value::Int(2), Value::Int(20)}));
  head_.Insert(H("n0", 10));
  head_.Insert(H("n0", 20));
  counts_.Inc(*H("n0", 10));
  counts_.Inc(*H("n0", 10));
  counts_.Inc(*H("n0", 20));
  RuleDriver* s = Strand(RuleDriver::Tail::Kind::kRetract);
  s->Fire(Ev("n0", 1), /*ttl=*/false);  // one of two supports goes
  EXPECT_EQ(Count("n0", 10), 1u);
  EXPECT_EQ(head_.size(), 2u);
  s->Fire(Ev("n0", 1), /*ttl=*/false);  // the last one: the head goes too
  EXPECT_EQ(head_.size(), 1u);
  s->Fire(Ev("n0", 2), /*ttl=*/true);  // expired: the head ages out on its own
  EXPECT_EQ(Count("n0", 20), 0u);
  EXPECT_EQ(head_.size(), 1u);
  // Every retracted head passes the watch tap, and none is routed.
  EXPECT_EQ(log_, (std::vector<std::string>{"watch h(n0, 10)", "watch h(n0, 10)",
                                            "watch h(n0, 20)"}));
}

TEST_F(StrandTailTest, EachReentrantFireKeepsItsOwnMode) {
  // ev(n0, 1) derives h(n0, 10) and h(n0, 20). Routing the first re-fires
  // the strand as a TTL refresh of ev(n0, 2) before the outer fire builds
  // its second head, which must still count as a fresh support.
  src_.Insert(T("src", {Value::Int(1), Value::Int(10)}));
  src_.Insert(T("src", {Value::Int(1), Value::Int(20)}));
  src_.Insert(T("src", {Value::Int(2), Value::Int(30)}));
  RuleDriver* s = Strand(RuleDriver::Tail::Kind::kCountRoute);
  bool nested = false;
  on_route = [&](const TuplePtr&) {
    if (!nested) {
      nested = true;
      s->Fire(Ev("n0", 2), /*ttl=*/true);
    }
  };
  s->Fire(Ev("n0", 1), /*ttl=*/false);
  EXPECT_EQ(log_, (std::vector<std::string>{"watch h(n0, 10)", "route h(n0, 10)",
                                            "watch h(n0, 30)", "route h(n0, 30)",
                                            "watch h(n0, 20)", "route h(n0, 20)"}));
  EXPECT_EQ(Count("n0", 10), 1u);
  EXPECT_EQ(Count("n0", 30), 0u);
  EXPECT_EQ(Count("n0", 20), 1u);
}

TEST_F(ElementsTest, TableAggWatcherEmitsOnChange) {
  TableSpec spec;
  spec.name = "succDist";
  spec.key_positions = {1};
  Table table(spec, &loop_);
  auto* watcher = graph_.Add<TableAggWatcher>("w", &table, std::vector<size_t>{0},
                                              AggKind::kMin, 2, "bestSuccDist");
  std::vector<TuplePtr> out;
  watcher->SetRoute([&out](const TuplePtr& t) { out.push_back(t); });
  watcher->Attach();
  auto row = [](int64_t s, int64_t d) {
    return Tuple::Make("succDist", {Value::Str("n0"), Value::Int(s), Value::Int(d)});
  };
  table.Insert(row(1, 50));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->name(), "bestSuccDist");
  EXPECT_EQ(out[0]->field(1).AsInt(), 50);
  table.Insert(row(2, 80));  // min unchanged: no emission
  EXPECT_EQ(out.size(), 1u);
  table.Insert(row(3, 10));  // new min
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1]->field(1).AsInt(), 10);
}

TEST_F(ElementsTest, GraphBookkeeping) {
  Graph g;
  auto* a = g.Add<DupElement>("a");
  auto* b = g.Add<DiscardElement>("b");
  g.Connect(a, 0, b, 0);
  EXPECT_EQ(g.num_elements(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_GT(g.ApproxBytes(), 0u);
  std::vector<std::string> names = g.ElementNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
}

}  // namespace
}  // namespace p2
