// Allocation budgets of the tuple and table hot paths, counted by a
// replacement global operator new. The replacement lives in this binary
// alone, so it counts nothing for any other test.
//
// Budgets: a tuple is one allocation; keys and probes are none. In steady
// state (buckets, frames and buffers already grown) a replace by primary
// key under secondary indices allocates nothing, a probe into a reused
// buffer allocates nothing, and a strand fire that emits one head
// allocates exactly once — the head.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/dataflow/rel_elements.h"
#include "src/runtime/marshal.h"
#include "src/sim/event_loop.h"
#include "src/table/support_counts.h"
#include "src/table/table.h"

namespace {

size_t g_news = 0;
size_t g_deletes = 0;

}  // namespace

// GCC reads the free() below as freeing operator new's memory; here that
// pairing is the point.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept {
  if (p != nullptr) {
    ++g_deletes;
    std::free(p);
  }
}
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace p2 {
namespace {

// operator new / delete calls since construction.
class AllocCounter {
 public:
  AllocCounter() : news_(g_news), deletes_(g_deletes) {}
  size_t news() const { return g_news - news_; }
  size_t deletes() const { return g_deletes - deletes_; }

 private:
  size_t news_;
  size_t deletes_;
};

TuplePtr Row(int64_t k, int64_t g, int64_t v) {
  return Tuple::Make("r", {Value::Addr("n0"), Value::Int(k), Value::Int(g), Value::Int(v)});
}

class AllocTest : public ::testing::Test {
 protected:
  AllocTest() : rng_(1), addr_("n0") {}
  PelEnv Env() { return PelEnv{&loop_, &rng_, &addr_}; }

  // r(addr, k, g, v) keyed on k, indexed on g and on (g, addr), with a
  // typed listener like the ones rule strands attach.
  std::unique_ptr<Table> MakeTable() {
    TableSpec spec;
    spec.name = "r";
    spec.key_positions = {1};
    spec.lifetime_s = 1000.0;
    auto table = std::make_unique<Table>(spec, &loop_);
    table->AddIndex({2});
    table->AddIndex({2, 0});
    table->AddTypedListener([this](const TableDelta&) { ++deltas_; });
    return table;
  }

  SimEventLoop loop_;
  Rng rng_;
  std::string addr_;
  size_t deltas_ = 0;
};

TEST_F(AllocTest, ReplaceByKeyUnderSecondaryIndicesAllocatesNothing) {
  std::unique_ptr<Table> table = MakeTable();
  constexpr int kRows = 16;
  for (int k = 0; k < kRows; ++k) {
    table->Insert(Row(k, k % 4, k));
  }
  // Two passes of replacements that move every row to another group, a
  // pass of identical refreshes, and one that changes a non-key field but
  // keeps each row in its group. The passes are built twice: the first
  // copy grows the buckets, the second is measured.
  auto pass = [&](int shift, int64_t v) {
    std::vector<TuplePtr> rows;
    for (int k = 0; k < kRows; ++k) {
      rows.push_back(Row(k, (k + shift) % 4, v + k));
    }
    return rows;
  };
  std::vector<std::vector<TuplePtr>> passes;
  for (int copy = 0; copy < 2; ++copy) {
    passes.push_back(pass(1, 1000));
    passes.push_back(pass(2, 2000));
    passes.push_back(pass(2, 2000));  // identical content: refreshes
    passes.push_back(pass(2, 3000));  // same groups, new values
  }
  for (size_t p = 0; p < 4; ++p) {
    for (const TuplePtr& t : passes[p]) {
      table->Insert(t);
    }
  }
  size_t deltas_before = deltas_;
  AllocCounter counter;
  size_t changed = 0;
  for (size_t p = 4; p < 8; ++p) {
    for (const TuplePtr& t : passes[p]) {
      changed += table->Insert(t) ? 1 : 0;
    }
  }
  EXPECT_EQ(counter.news(), 0u);
  EXPECT_EQ(changed, 3u * kRows);  // the refresh pass changes nothing
  EXPECT_EQ(deltas_ - deltas_before, 4u * kRows);
  std::vector<TuplePtr> hits;
  table->LookupByCols({2}, {Value::Int(2)}, &hits);
  EXPECT_EQ(hits.size(), 4u);
}

TEST_F(AllocTest, ProbesIntoAReusedBufferAllocateNothing) {
  std::unique_ptr<Table> table = MakeTable();
  for (int k = 0; k < 32; ++k) {
    table->Insert(Row(k, k % 4, k));
  }
  const std::vector<size_t> by_group{2};
  const std::vector<size_t> by_group_addr{2, 0};
  const std::vector<size_t> distinct{3};
  std::vector<Value> group{Value::Int(1)};
  std::vector<Value> group_addr{Value::Int(3), Value::Addr("n0")};
  std::vector<TuplePtr> hits;
  // Grow the buffer and the distinct-projection slot set once.
  table->Scan(&hits);
  table->LookupDistinct({}, {}, distinct, &hits);
  AllocCounter counter;
  size_t found = 0;
  for (int i = 0; i < 100; ++i) {
    table->LookupByCols(by_group, group, &hits);
    found += hits.size();
    table->LookupByCols(by_group_addr, group_addr, &hits);
    found += hits.size();
    table->LookupDistinct(by_group, group, distinct, &hits);
    found += hits.size();
    found += table->HasMatch(by_group, group) ? 1 : 0;
    table->Scan(&hits);
    found += hits.size();
  }
  EXPECT_EQ(counter.news(), 0u);
  EXPECT_EQ(found, 100u * (8 + 8 + 8 + 1 + 32));
}

// A strand joining ev(addr, k) with r on k, head h(addr, k, v).
TEST_F(AllocTest, StrandFireEmittingOneHeadAllocatesOnce) {
  std::unique_ptr<Table> table = MakeTable();
  for (int k = 0; k < 8; ++k) {
    table->Insert(Row(k, k % 4, k));
  }
  RuleDriver strand("rule:h", Env());
  PelProgram key;
  key.Emit(PelOp::kPushField, 1);
  std::vector<JoinKey> keys;
  keys.push_back(JoinKey{1, std::move(key)});
  strand.AddJoin(table.get(), std::move(keys));
  std::vector<PelProgram> head(3);
  head[0].Emit(PelOp::kPushField, 0);
  head[1].Emit(PelOp::kPushField, 1);
  head[2].Emit(PelOp::kPushField, 5);  // the row's v
  strand.SetHead("h", std::move(head));
  TuplePtr last;
  size_t heads = 0;
  RuleDriver::Tail tail;
  tail.route = [&](const TuplePtr& t) {
    last = t;
    ++heads;
  };
  strand.SetTail(std::move(tail));
  std::vector<TuplePtr> events;
  for (int k = 0; k < 5; ++k) {
    events.push_back(Tuple::Make("ev", {Value::Addr("n0"), Value::Int(k)}));
  }
  strand.Push(0, events[0]);  // grows the frame and its probe buffer
  for (int k = 1; k < 5; ++k) {
    AllocCounter counter;
    strand.Push(0, events[static_cast<size_t>(k)]);
    EXPECT_EQ(counter.news(), 1u) << "fire " << k;
  }
  EXPECT_EQ(heads, 5u);
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->field(2).AsInt(), 4);
}

// The same join as an aggregate strand, h(addr, k, min<v>) over rows
// sharing a group: the fold keeps its head fields in a reused buffer, so
// a fire still builds exactly one tuple.
TEST_F(AllocTest, AggregateStrandFireAllocatesOnce) {
  std::unique_ptr<Table> table = MakeTable();
  for (int k = 0; k < 16; ++k) {
    table->Insert(Row(k, k % 4, 100 - k));
  }
  RuleDriver strand("rule:min", Env());
  PelProgram key;
  key.Emit(PelOp::kPushField, 1);
  std::vector<JoinKey> keys;
  keys.push_back(JoinKey{2, std::move(key)});  // ev's field 1 is a group
  strand.AddJoin(table.get(), std::move(keys));
  std::vector<PelProgram> head(3);
  head[0].Emit(PelOp::kPushField, 0);
  head[1].Emit(PelOp::kPushField, 1);
  head[2].Emit(PelOp::kPushField, 5);
  strand.SetHead("best", std::move(head));
  strand.SetAggregate(AggKind::kMin, 2, {});
  TuplePtr last;
  RuleDriver::Tail tail;
  tail.route = [&](const TuplePtr& t) { last = t; };
  strand.SetTail(std::move(tail));
  std::vector<TuplePtr> events;
  for (int g = 0; g < 4; ++g) {
    events.push_back(Tuple::Make("ev", {Value::Addr("n0"), Value::Int(g)}));
  }
  strand.Push(0, events[0]);
  for (size_t g = 1; g < 4; ++g) {
    AllocCounter counter;
    strand.Push(0, events[g]);
    EXPECT_EQ(counter.news(), 1u) << "group " << g;
    ASSERT_NE(last, nullptr);
    EXPECT_EQ(last->field(2).AsInt(), 100 - 12 - static_cast<int64_t>(g));
  }
}

// A counted re-derivation: the head is counted once more as a support of
// its existing entry and refreshes its row in the head table. Only the
// head itself is allocated.
TEST_F(AllocTest, CountedRederivationAllocatesOnlyTheHead) {
  std::unique_ptr<Table> table = MakeTable();
  table->Insert(Row(1, 1, 7));
  TableSpec head_spec;
  head_spec.name = "h";
  head_spec.key_positions = {1};
  Table head_table(head_spec, &loop_);
  head_table.AddIndex({0});
  SupportCounts counts(&head_table);
  RuleDriver strand("rule:h", Env());
  PelProgram key;
  key.Emit(PelOp::kPushField, 1);
  std::vector<JoinKey> keys;
  keys.push_back(JoinKey{1, std::move(key)});
  strand.AddJoin(table.get(), std::move(keys));
  std::vector<PelProgram> head(3);
  head[0].Emit(PelOp::kPushField, 0);
  head[1].Emit(PelOp::kPushField, 1);
  head[2].Emit(PelOp::kPushField, 5);
  strand.SetHead("h", std::move(head));
  RuleDriver::Tail tail;
  tail.kind = RuleDriver::Tail::Kind::kCountRoute;
  tail.counts = &counts;
  tail.local_addr = addr_;
  tail.route = [&](const TuplePtr& t) { head_table.Insert(t); };
  strand.SetTail(std::move(tail));
  TuplePtr ev = Tuple::Make("ev", {Value::Addr("n0"), Value::Int(1)});
  strand.Push(0, ev);  // first derivation: new row, new count entry
  strand.Push(0, ev);
  AllocCounter counter;
  strand.Push(0, ev);
  EXPECT_EQ(counter.news(), 1u);
  EXPECT_EQ(counts.Count(*Tuple::Make("h", {Value::Addr("n0"), Value::Int(1), Value::Int(7)})),
            3u);
  EXPECT_EQ(head_table.size(), 1u);
}

TEST(UnmarshalAlloc, FailingMidFrameFreesWhatItBuilt) {
  TuplePtr t = Tuple::Make("lookup", {Value::Str("partly built"), Value::Addr("n1"),
                                      Value::Str("cut")});
  std::vector<uint8_t> bytes = MarshalTupleToBytes(*t);
  bytes.resize(bytes.size() - 2);
  AllocCounter counter;
  bool decoded = UnmarshalTupleFromBytes(bytes).has_value();
  size_t news = counter.news();
  size_t deletes = counter.deletes();
  EXPECT_FALSE(decoded);
  EXPECT_EQ(news, 3u);  // the tuple block and the first two fields' reps
  EXPECT_EQ(deletes, news);
}

TEST(UnmarshalAlloc, DecodingATupleOfScalarsIsOneAllocation) {
  TuplePtr t = Tuple::Make("ev", {Value::Int(1), Value::Double(2.5), Value::Bool(true),
                                  Value::Null()});
  std::vector<uint8_t> bytes = MarshalTupleToBytes(*t);
  ByteReader r(bytes);
  AllocCounter counter;
  std::optional<TuplePtr> back = UnmarshalTuple(&r);
  size_t news = counter.news();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(news, 1u);
  EXPECT_TRUE((*back)->SameAs(*t));
}

}  // namespace
}  // namespace p2
