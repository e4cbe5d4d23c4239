// E8 micro-benchmarks: the cost of the runtime primitives the paper
// quantifies in §3.3 ("most [transitions] take about 50 machine
// instructions on an ia32 processor, or 75 if the callback is invoked").
//
// Measured here: tuple construction, element push handoff, PEL dispatch,
// stream×table equijoin probes through a rule strand, a min strand's
// distinct probe and fold, table insertion, replacement and probes,
// tuple marshaling, the datagram path (framing, checksum, delivery
// lane), and end-to-end rule firing through a compiled OverLog rule.
#include <benchmark/benchmark.h>

#include "src/dataflow/basic_elements.h"
#include "src/dataflow/graph.h"
#include "src/dataflow/rel_elements.h"
#include "src/net/wire.h"
#include "src/obs/registry.h"
#include "src/p2/node.h"
#include "src/runtime/marshal.h"
#include "src/sim/event_loop.h"
#include "src/sim/network.h"

namespace p2 {
namespace {

TuplePtr BenchTuple() {
  return Tuple::Make("lookup", {Value::Addr("n0"), Value::Id(Uint160::HashOf("key")),
                                Value::Addr("n1"), Value::Id(Uint160(42))});
}

// --- Value representation ---

// Scalar copies are the fast path the 16-byte tagged union buys: two word
// stores, no dispatch, no refcount.
void BM_ValueCopyScalar(benchmark::State& state) {
  Value v = Value::Int(123456789);
  for (auto _ : state) {
    Value c = v;
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_ValueCopyScalar);

// Shared-payload copies bump a plain (non-atomic) refcount.
void BM_ValueCopyShared(benchmark::State& state) {
  Value v = Value::Id(Uint160::HashOf("node"));
  for (auto _ : state) {
    Value c = v;
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_ValueCopyShared);

// Copying a tuple's whole field vector: what an element-per-operator rule
// chain paid for every join match and assignment to build the next
// intermediate tuple. Rule strands bind into one reused frame instead and
// copy only the fields of each joined row (see BM_RuleJoinProbe).
void BM_TupleFieldsCopy(benchmark::State& state) {
  TuplePtr t = BenchTuple();
  for (auto _ : state) {
    std::vector<Value> fields = t->fields().ToVector();
    benchmark::DoNotOptimize(fields);
  }
}
BENCHMARK(BM_TupleFieldsCopy);

// Building a 4-field tuple. Arg(0) gathers the fields in a vector first
// and hands it to Tuple::Make: two allocations. Arg(1) writes them
// straight into the tuple's block with Tuple::Build, as rule heads, table
// aggregates and the decoder do: one.
void BM_TupleBuild(benchmark::State& state) {
  const SchemaId schema = InternSchema("lookup");
  const Value a = Value::Addr("n0");
  const Value key = Value::Id(Uint160::HashOf("key"));
  const Value b = Value::Addr("n1");
  const Value e = Value::Int(42);
  const bool in_place = state.range(0) == 1;
  for (auto _ : state) {
    TuplePtr t = in_place ? Tuple::Build(schema, 4,
                                         [&](Value* f) {
                                           f[0] = a;
                                           f[1] = key;
                                           f[2] = b;
                                           f[3] = e;
                                         })
                          : Tuple::Make(schema, {a, key, b, e});
    benchmark::DoNotOptimize(t.get());
  }
}
BENCHMARK(BM_TupleBuild)->Arg(0)->Arg(1);

// --- Element handoff ---

void BM_PushHandoff(benchmark::State& state) {
  Graph g;
  auto* dup = g.Add<DupElement>("dup");
  auto* sink = g.Add<DiscardElement>("sink");
  g.Connect(dup, 0, sink, 0);
  TuplePtr t = BenchTuple();
  for (auto _ : state) {
    dup->Push(0, t);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PushHandoff);

// --- PEL ---

void BM_PelArithmetic(benchmark::State& state) {
  SimEventLoop loop;
  Rng rng(1);
  std::string addr = "n0";
  PelVm vm(PelEnv{&loop, &rng, &addr});
  // D := K - B - 1 (the Chord distance computation) on 160-bit ids.
  PelProgram prog;
  prog.Emit(PelOp::kPushField, 1);
  prog.Emit(PelOp::kPushField, 3);
  prog.Emit(PelOp::kSub);
  prog.Emit(PelOp::kPushConst, prog.AddConst(Value::Int(1)));
  prog.Emit(PelOp::kSub);
  TuplePtr t = BenchTuple();
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.Eval(prog, t.get()));
  }
}
BENCHMARK(BM_PelArithmetic);

void BM_PelRangeTest(benchmark::State& state) {
  SimEventLoop loop;
  Rng rng(1);
  std::string addr = "n0";
  PelVm vm(PelEnv{&loop, &rng, &addr});
  PelProgram prog;  // K in (N, S]
  prog.Emit(PelOp::kPushConst, prog.AddConst(Value::Id(Uint160::HashOf("k"))));
  prog.Emit(PelOp::kPushConst, prog.AddConst(Value::Id(Uint160::HashOf("n"))));
  prog.Emit(PelOp::kPushConst, prog.AddConst(Value::Id(Uint160::HashOf("s"))));
  prog.Emit(PelOp::kInOC);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.EvalBool(prog, nullptr));
  }
}
BENCHMARK(BM_PelRangeTest);

// --- Tables and joins ---

void BM_TableInsertReplace(benchmark::State& state) {
  SimEventLoop loop;
  TableSpec spec;
  spec.name = "t";
  spec.key_positions = {0};
  Table table(spec, &loop);
  TuplePtr t = BenchTuple();
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Insert(t));
  }
}
BENCHMARK(BM_TableInsertReplace);

// A stream × table equijoin fired through a one-join rule strand: every
// row of the `rows`-row table matches, and each match builds the head
// (here the whole binding frame, event then row) and routes it.
void BM_RuleJoinProbe(benchmark::State& state) {
  SimEventLoop loop;
  Rng rng(1);
  std::string addr = "n0";
  Graph g;
  TableSpec spec;
  spec.name = "finger";
  spec.key_positions = {1};
  Table table(spec, &loop);
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    table.Insert(Tuple::Make(
        "finger", {Value::Addr("n0"), Value::Int(i),
                   Value::Id(Uint160::HashOf(std::to_string(i))), Value::Addr("nX")}));
  }
  PelProgram key;
  key.Emit(PelOp::kPushField, 0);
  std::vector<JoinKey> keys;
  keys.push_back(JoinKey{0, std::move(key)});
  auto* rule = g.Add<RuleDriver>("rule:join", PelEnv{&loop, &rng, &addr});
  rule->AddJoin(&table, std::move(keys));
  std::vector<PelProgram> head(5);
  for (uint32_t i = 0; i < head.size(); ++i) {
    head[i].Emit(PelOp::kPushField, i);
  }
  rule->SetHead("j", std::move(head));
  RuleDriver::Tail tail;
  tail.route = [](const TuplePtr& t) { benchmark::DoNotOptimize(t); };
  rule->SetTail(std::move(tail));
  TuplePtr ev = Tuple::Make("ev", {Value::Addr("n0")});
  for (auto _ : state) {
    rule->Push(0, ev);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RuleJoinProbe)->Arg(16)->Arg(160);

// Chord's L2 shape: ev(NI, K) joins the node's 160-row finger table into
// min<D>, D := K - B - 1, where the fingers hold only 6 distinct (B, BI).
// Arg 0 visits every row; arg 1 probes each distinct B once, as the
// planner does for a min/max strand whose later ops read only B.
void BM_MinStrandRepeatedProjections(benchmark::State& state) {
  SimEventLoop loop;
  Rng rng(1);
  std::string addr = "n0";
  Graph g;
  TableSpec spec;
  spec.name = "finger";
  spec.key_positions = {1};
  Table table(spec, &loop);
  for (int i = 0; i < 160; ++i) {
    std::string peer = std::to_string(i % 6);
    table.Insert(Tuple::Make("finger", {Value::Addr("n0"), Value::Int(i),
                                        Value::Id(Uint160::HashOf(peer)),
                                        Value::Addr("n" + peer)}));
  }
  PelProgram key;
  key.Emit(PelOp::kPushField, 0);
  std::vector<JoinKey> keys;
  keys.push_back(JoinKey{0, std::move(key)});
  auto* rule = g.Add<RuleDriver>("rule:min", PelEnv{&loop, &rng, &addr});
  rule->set_event_arity(2);
  size_t join = rule->AddJoin(&table, std::move(keys));
  PelProgram d;  // D := K - B - 1 (slot 6)
  d.Emit(PelOp::kPushField, 1);
  d.Emit(PelOp::kPushField, 4);
  d.Emit(PelOp::kSub);
  d.Emit(PelOp::kPushConst, d.AddConst(Value::Int(1)));
  d.Emit(PelOp::kSub);
  rule->AddAssign(std::move(d));
  std::vector<PelProgram> head(3);
  head[0].Emit(PelOp::kPushField, 0);
  head[1].Emit(PelOp::kPushField, 1);
  head[2].Emit(PelOp::kPushField, 6);
  rule->SetHead("best", std::move(head));
  rule->SetAggregate(AggKind::kMin, 2, {});
  if (state.range(0) == 1) {
    rule->SetDistinct(join, {2});
  }
  RuleDriver::Tail tail;
  tail.route = [](const TuplePtr& t) { benchmark::DoNotOptimize(t); };
  rule->SetTail(std::move(tail));
  TuplePtr ev = Tuple::Make("ev", {Value::Addr("n0"), Value::Id(Uint160::HashOf("key"))});
  for (auto _ : state) {
    rule->Push(0, ev);
  }
}
BENCHMARK(BM_MinStrandRepeatedProjections)->Arg(0)->Arg(1);

// An indexed probe of a 256-row table into a reused buffer, as a rule
// strand's join probes: the key is hashed and compared in place against
// the bucket's own row, and `Arg` rows match (the bucket size).
void BM_TableProbe(benchmark::State& state) {
  SimEventLoop loop;
  TableSpec spec;
  spec.name = "member";
  spec.key_positions = {0};
  Table table(spec, &loop);
  table.AddIndex({1});
  const int64_t buckets = 256 / state.range(0);
  for (int64_t i = 0; i < 256; ++i) {
    table.Insert(Tuple::Make(
        "member", {Value::Int(i), Value::Addr("n" + std::to_string(i % buckets)),
                   Value::Id(Uint160::HashOf(std::to_string(i)))}));
  }
  std::vector<Value> probe{Value::Addr("n7")};
  const std::vector<size_t> cols{1};
  std::vector<TuplePtr> hits;
  for (auto _ : state) {
    table.LookupByCols(cols, probe, &hits);
    benchmark::DoNotOptimize(hits.data());
  }
}
BENCHMARK(BM_TableProbe)->Arg(1)->Arg(16);

// Replace by primary key under two secondary indices: every insert
// changes a non-key field and moves its row to another bucket of both
// indices, as a refreshed route with a new next hop does. Keys are read
// in place, so an insert allocates nothing (tests/alloc_test.cc pins
// it); one item is one insert.
void BM_TableReplaceByKey(benchmark::State& state) {
  SimEventLoop loop;
  TableSpec spec;
  spec.name = "route";
  spec.key_positions = {1};
  Table table(spec, &loop);
  table.AddIndex({2});
  table.AddIndex({2, 0});
  constexpr int64_t kRows = 64;
  std::vector<TuplePtr> passes[2];
  for (int64_t p = 0; p < 2; ++p) {
    for (int64_t k = 0; k < kRows; ++k) {
      passes[p].push_back(Tuple::Make("route", {Value::Addr("n0"), Value::Int(k),
                                                Value::Int((k + p) % 8), Value::Int(p)}));
    }
  }
  for (const TuplePtr& t : passes[1]) {
    table.Insert(t);
  }
  size_t pass = 0;
  for (auto _ : state) {
    for (const TuplePtr& t : passes[pass]) {
      benchmark::DoNotOptimize(table.Insert(t));
    }
    pass ^= 1;
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_TableReplaceByKey);

// --- Demultiplexer dispatch ---

void BM_DemuxDispatch(benchmark::State& state) {
  Graph g;
  auto* demux = g.Add<DemuxByName>("demux");
  std::vector<TuplePtr> tuples;
  for (int i = 0; i < 16; ++i) {
    std::string name = "relation" + std::to_string(i);
    auto* sink = g.Add<DiscardElement>("sink" + std::to_string(i));
    g.Connect(demux, demux->PortFor(name), sink, 0);
    tuples.push_back(Tuple::Make(name, {Value::Addr("n0"), Value::Int(i)}));
  }
  size_t i = 0;
  for (auto _ : state) {
    demux->Push(0, tuples[i & 15]);
    benchmark::ClobberMemory();
    ++i;
  }
}
BENCHMARK(BM_DemuxDispatch);

// Input queue -> demux drain: the node input path the planner's fan-out
// strands sit behind.
void BM_QueueDemuxDrain(benchmark::State& state) {
  SimEventLoop loop;
  Graph g;
  auto* q = g.Add<InputQueue>("q", &loop, 8192);
  auto* demux = g.Add<DemuxByName>("demux");
  g.Connect(q, 0, demux, 0);
  std::vector<TuplePtr> tuples;
  for (int i = 0; i < 8; ++i) {
    std::string name = "relation" + std::to_string(i);
    auto* sink = g.Add<DiscardElement>("sink" + std::to_string(i));
    g.Connect(demux, demux->PortFor(name), sink, 0);
    tuples.push_back(Tuple::Make(name, {Value::Addr("n0"), Value::Int(i)}));
  }
  q->Start();
  constexpr int kBurst = 512;
  for (auto _ : state) {
    for (int i = 0; i < kBurst; ++i) {
      q->Push(0, tuples[i & 7]);
    }
    loop.RunUntil(loop.Now() + 0.001);
  }
  state.SetItemsProcessed(state.iterations() * kBurst);
}
BENCHMARK(BM_QueueDemuxDrain);

// --- Timers ---

// Schedule/cancel churn with many pending timers: the reliable stack's
// per-peer retransmit timers at 1k-node scale.
void BM_TimerScheduleCancel(benchmark::State& state) {
  SimEventLoop loop;
  const int64_t pending = state.range(0);
  std::vector<TimerId> ids;
  for (int64_t i = 0; i < pending; ++i) {
    ids.push_back(loop.ScheduleAfter(1e9 + static_cast<double>(i), []() {}));
  }
  int batch = 0;
  for (auto _ : state) {
    TimerId id = loop.ScheduleAfter(0.5, []() {});
    loop.Cancel(id);
    benchmark::DoNotOptimize(id);
    if (++batch == 256) {
      // Advance past the cancelled deadline so backends that reclaim
      // cancelled timers lazily pay their reclamation cost here.
      batch = 0;
      loop.RunUntil(loop.Now() + 1.0);
    }
  }
  for (TimerId id : ids) {
    loop.Cancel(id);
  }
}
BENCHMARK(BM_TimerScheduleCancel)->Arg(1024)->Arg(16384);

// --- Marshaling and the datagram path ---

// One exactly-sized buffer per tuple: MarshaledSize, then one pass.
void BM_MarshalTuple(benchmark::State& state) {
  TuplePtr t = BenchTuple();
  for (auto _ : state) {
    ByteWriter w(MarshaledSize(*t));
    MarshalTuple(*t, &w);
    benchmark::DoNotOptimize(w.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MarshalTuple);

void BM_UnmarshalTuple(benchmark::State& state) {
  std::vector<uint8_t> bytes = MarshalTupleToBytes(*BenchTuple());
  for (auto _ : state) {
    benchmark::DoNotOptimize(UnmarshalTupleFromBytes(bytes));
  }
}
BENCHMARK(BM_UnmarshalTuple);

// A datagram's wire work on both ends: frame and seal at the sender,
// verify and decode at the receiver, whose addresses come from an address
// cache like the one each P2Node owns.
void BM_FrameUnframe(benchmark::State& state) {
  TuplePtr t = BenchTuple();
  AddrCache addrs;
  for (auto _ : state) {
    std::vector<uint8_t> frame = FrameTuple(*t);
    benchmark::DoNotOptimize(UnframeTuple(frame, &addrs));
  }
}
BENCHMARK(BM_FrameUnframe);

void BM_WireChecksum(benchmark::State& state) {
  std::vector<uint8_t> bytes(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 131);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(WireChecksum(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WireChecksum)->Arg(64)->Arg(1024);

// The simulator's delivery lane holding N datagrams: every delivery
// re-sends a copy one virtual second later, so one iteration turns the
// whole lane over once (N deliveries; see items_per_second). Many sources
// share each instant, so the (at, src, seq) order breaks ties.
void BM_DeliveryLane(benchmark::State& state) {
  const int64_t n = state.range(0);
  SimEventLoop loop;
  uint64_t seq = 0;
  loop.SetDeliverFn([&](const SimDelivery& d) {
    SimDelivery next = d;
    next.at = d.at + 1.0;
    next.seq = seq++;
    loop.EnqueueLocal(std::move(next));
  });
  for (int64_t i = 0; i < n; ++i) {
    SimDelivery d;
    d.at = 1.0 + static_cast<double>(i % 17) * 1e-3;
    d.src = static_cast<uint64_t>(i % 64);
    d.seq = seq++;
    d.from = static_cast<uint32_t>(i % 64);
    d.to = static_cast<uint32_t>((i * 7) % 64);
    d.bytes.assign(96, static_cast<uint8_t>(i));
    loop.EnqueueLocal(std::move(d));
  }
  for (auto _ : state) {
    loop.RunUntil(loop.Now() + 1.0);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DeliveryLane)->Arg(1024);

// --- End-to-end compiled rule firing ---

void BM_CompiledRuleFire(benchmark::State& state) {
  SimEventLoop loop;
  SimNetwork net(&loop, Topology(TopologyConfig{}), 1);
  auto transport = net.MakeTransport("n0", 0);
  P2NodeConfig nc;
  nc.executor = &loop;
  nc.transport = transport.get();
  nc.seed = 1;
  P2Node node(nc);
  std::string err;
  bool ok = node.Install(
      "materialize(kv, infinity, 1000, keys(2)).\n"
      "r out@X(X,V,D) :- ev@X(X,K,N), kv@X(X,K,V), D := K - N - 1, K in (N,K].\n",
      &err);
  if (!ok) {
    state.SkipWithError(err.c_str());
    return;
  }
  node.GetTable("kv")->Insert(
      Tuple::Make("kv", {Value::Addr("n0"), Value::Id(Uint160(7)), Value::Str("v")}));
  node.Start();
  loop.RunUntil(0.001);
  TuplePtr ev = Tuple::Make(
      "ev", {Value::Addr("n0"), Value::Id(Uint160(7)), Value::Id(Uint160(3))});
  for (auto _ : state) {
    node.Inject(ev);
    loop.RunUntil(loop.Now() + 0.001);  // drain input queue through the rule
  }
}
BENCHMARK(BM_CompiledRuleFire);

// --- Semi-naive delta paths ---

// One table-delta propagating through a compiled delta-insert chain:
// replace a row of `a`, the rule joins `b` and upserts the counted head.
void BM_RuleFireDelta(benchmark::State& state) {
  SimEventLoop loop;
  SimNetwork net(&loop, Topology(TopologyConfig{}), 1);
  auto transport = net.MakeTransport("n0", 0);
  P2NodeConfig nc;
  nc.executor = &loop;
  nc.transport = transport.get();
  nc.seed = 1;
  P2Node node(nc);
  std::string err;
  bool ok = node.Install(
      "materialize(a, infinity, 1000, keys(2)).\n"
      "materialize(b, infinity, 1000, keys(2)).\n"
      "materialize(h, infinity, 1000, keys(2)).\n"
      "r1 h@X(X,K,V) :- a@X(X,K), b@X(X,K,V).\n",
      &err);
  if (!ok) {
    state.SkipWithError(err.c_str());
    return;
  }
  node.GetTable("b")->Insert(
      Tuple::Make("b", {Value::Addr("n0"), Value::Int(7), Value::Str("v")}));
  node.Start();
  TuplePtr row = Tuple::Make("a", {Value::Addr("n0"), Value::Int(7)});
  for (auto _ : state) {
    node.GetTable("a")->Insert(row);  // delta fires the chain synchronously
  }
}
BENCHMARK(BM_RuleFireDelta);

// One aggregate update over a table of `rows` live rows: replace a row
// with a fresh non-extremal value. The incremental watcher updates a
// per-group support multiset in O(log n), so the cost stays flat in rows.
void BM_AggIncremental(benchmark::State& state) {
  SimEventLoop loop;
  SimNetwork net(&loop, Topology(TopologyConfig{}), 1);
  auto transport = net.MakeTransport("n0", 0);
  P2NodeConfig nc;
  nc.executor = &loop;
  nc.transport = transport.get();
  nc.seed = 1;
  P2Node node(nc);
  std::string err;
  bool ok = node.Install(
      "materialize(dist, infinity, 100000, keys(2)).\n"
      "best@X(X,min<D>) :- dist@X(X,S,D).\n",
      &err);
  if (!ok) {
    state.SkipWithError(err.c_str());
    return;
  }
  Table* dist = node.GetTable("dist");
  const int64_t rows = state.range(0);
  for (int64_t i = 0; i < rows; ++i) {
    dist->Insert(Tuple::Make("dist", {Value::Addr("n0"), Value::Int(i), Value::Int(100 + i)}));
  }
  node.Start();
  int64_t v = 0;
  for (auto _ : state) {
    // Rotate one row's value above the minimum: every delta retracts the
    // old contribution and applies the new one without moving the min.
    dist->Insert(Tuple::Make(
        "dist", {Value::Addr("n0"), Value::Int(rows / 2), Value::Int(200 + (v++ & 63))}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AggIncremental)->Arg(64)->Arg(1024);

// One insert+delete round trip through a projected-support rule
// (`h :- b` drops b's second key column, so one head row can stand for
// many derivations): the delete flows through the delta-remove chain,
// the support count drops to zero, and the head row is erased — the
// full counted-retraction bill.
void BM_CountedRetraction(benchmark::State& state) {
  SimEventLoop loop;
  SimNetwork net(&loop, Topology(TopologyConfig{}), 1);
  auto transport = net.MakeTransport("n0", 0);
  P2NodeConfig nc;
  nc.executor = &loop;
  nc.transport = transport.get();
  nc.seed = 1;
  P2Node node(nc);
  std::string err;
  bool ok = node.Install(
      "materialize(b, infinity, 8192, keys(2,3)).\n"
      "materialize(h, infinity, 8192, keys(2)).\n"
      "r1 h@X(X,B) :- b@X(X,A,B).\n",
      &err);
  if (!ok) {
    state.SkipWithError(err.c_str());
    return;
  }
  node.Start();
  int64_t k = 0;
  for (auto _ : state) {
    ++k;
    node.GetTable("b")->Insert(
        Tuple::Make("b", {Value::Addr("n0"), Value::Int(k), Value::Int(k)}));
    node.GetTable("b")->DeleteByKey({Value::Int(k), Value::Int(k)});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountedRetraction);

// --- Observability primitives ---

// The metrics hot path: a registered counter handle is one relaxed
// load+store (no RMW), a few ns — cheap enough to leave on in production
// runs.
void BM_ObsCounterInc(benchmark::State& state) {
  obs::Registry reg(1);
  obs::Counter* c = reg.GetCounter(0, "p2_bench_total");
  for (auto _ : state) {
    c->Inc();
  }
  benchmark::DoNotOptimize(c->value());
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::Registry reg(1);
  obs::LogHistogram* h = reg.GetHistogram(0, "p2_bench_ns");
  uint64_t v = 1;
  for (auto _ : state) {
    h->Observe(v);
    v = (v << 1) | (v >> 17);  // walk the buckets
  }
  benchmark::DoNotOptimize(h->count());
}
BENCHMARK(BM_ObsHistogramObserve);

// Instrumented vs uninstrumented rule firing: BM_RuleFireDelta's chain with
// a Registry attached (arg = 1) or absent (arg = 0). The delta between the
// two args is the whole per-fire metrics bill — fire counter, table delta
// counters, element out counters, and the 1-in-16 latency sample.
void BM_RuleFireInstrumented(benchmark::State& state) {
  SimEventLoop loop;
  SimNetwork net(&loop, Topology(TopologyConfig{}), 1);
  auto transport = net.MakeTransport("n0", 0);
  obs::Registry reg(1);
  P2NodeConfig nc;
  nc.executor = &loop;
  nc.transport = transport.get();
  nc.seed = 1;
  nc.metrics = state.range(0) == 0 ? nullptr : &reg;
  P2Node node(nc);
  std::string err;
  bool ok = node.Install(
      "materialize(a, infinity, 1000, keys(2)).\n"
      "materialize(b, infinity, 1000, keys(2)).\n"
      "materialize(h, infinity, 1000, keys(2)).\n"
      "r1 h@X(X,K,V) :- a@X(X,K), b@X(X,K,V).\n",
      &err);
  if (!ok) {
    state.SkipWithError(err.c_str());
    return;
  }
  node.GetTable("b")->Insert(
      Tuple::Make("b", {Value::Addr("n0"), Value::Int(7), Value::Str("v")}));
  node.Start();
  TuplePtr row = Tuple::Make("a", {Value::Addr("n0"), Value::Int(7)});
  for (auto _ : state) {
    node.GetTable("a")->Insert(row);
  }
}
BENCHMARK(BM_RuleFireInstrumented)->Arg(0)->Arg(1);

}  // namespace
}  // namespace p2
