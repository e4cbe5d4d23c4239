#include "src/table/table.h"

#include <gtest/gtest.h>

#include "src/sim/event_loop.h"

namespace p2 {
namespace {

TuplePtr Row(const std::string& name, int64_t k, int64_t v) {
  return Tuple::Make(name, {Value::Int(k), Value::Int(v)});
}

class TableTest : public ::testing::Test {
 protected:
  TableSpec Spec(double lifetime, size_t max_size) {
    TableSpec s;
    s.name = "t";
    s.lifetime_s = lifetime;
    s.max_size = max_size;
    s.key_positions = {0};
    return s;
  }
  SimEventLoop loop_;
};

TEST_F(TableTest, InsertAndFind) {
  Table t(Spec(std::numeric_limits<double>::infinity(), 100), &loop_);
  EXPECT_TRUE(t.Insert(Row("t", 1, 10)));
  EXPECT_EQ(t.size(), 1u);
  TuplePtr found = t.FindByKey({Value::Int(1)});
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->field(1).AsInt(), 10);
  EXPECT_EQ(t.FindByKey({Value::Int(9)}), nullptr);
}

TEST_F(TableTest, InsertReplacesByPrimaryKey) {
  Table t(Spec(std::numeric_limits<double>::infinity(), 100), &loop_);
  EXPECT_TRUE(t.Insert(Row("t", 1, 10)));
  EXPECT_TRUE(t.Insert(Row("t", 1, 20)));   // changed content
  EXPECT_FALSE(t.Insert(Row("t", 1, 20)));  // identical refresh
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.FindByKey({Value::Int(1)})->field(1).AsInt(), 20);
}

TEST_F(TableTest, FifoEvictionBeyondMaxSize) {
  Table t(Spec(std::numeric_limits<double>::infinity(), 3), &loop_);
  for (int i = 0; i < 5; ++i) {
    t.Insert(Row("t", i, i));
  }
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.FindByKey({Value::Int(0)}), nullptr);
  EXPECT_EQ(t.FindByKey({Value::Int(1)}), nullptr);
  EXPECT_NE(t.FindByKey({Value::Int(4)}), nullptr);
}

TEST_F(TableTest, RefreshMovesRowToBackOfEvictionOrder) {
  Table t(Spec(std::numeric_limits<double>::infinity(), 2), &loop_);
  t.Insert(Row("t", 1, 1));
  t.Insert(Row("t", 2, 2));
  t.Insert(Row("t", 1, 1));  // refresh 1: now 2 is oldest
  t.Insert(Row("t", 3, 3));  // evicts 2
  EXPECT_NE(t.FindByKey({Value::Int(1)}), nullptr);
  EXPECT_EQ(t.FindByKey({Value::Int(2)}), nullptr);
}

TEST_F(TableTest, SoftStateExpiry) {
  Table t(Spec(10.0, 100), &loop_);
  t.Insert(Row("t", 1, 1));
  loop_.RunUntil(5.0);
  t.Insert(Row("t", 2, 2));
  loop_.RunUntil(10.5);  // row 1 expired (inserted at 0, ttl 10)
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.FindByKey({Value::Int(1)}), nullptr);
  EXPECT_NE(t.FindByKey({Value::Int(2)}), nullptr);
  loop_.RunUntil(16.0);
  EXPECT_EQ(t.size(), 0u);
}

TEST_F(TableTest, RefreshExtendsLifetime) {
  Table t(Spec(10.0, 100), &loop_);
  t.Insert(Row("t", 1, 1));
  loop_.RunUntil(8.0);
  t.Insert(Row("t", 1, 1));  // refresh at t=8: expires at 18
  loop_.RunUntil(15.0);
  EXPECT_NE(t.FindByKey({Value::Int(1)}), nullptr);
  loop_.RunUntil(19.0);
  EXPECT_EQ(t.FindByKey({Value::Int(1)}), nullptr);
}

TEST_F(TableTest, DeleteByKeyAndMatching) {
  Table t(Spec(std::numeric_limits<double>::infinity(), 100), &loop_);
  t.Insert(Row("t", 1, 10));
  t.Insert(Row("t", 2, 20));
  EXPECT_TRUE(t.DeleteByKey({Value::Int(1)}));
  EXPECT_FALSE(t.DeleteByKey({Value::Int(1)}));
  // DeleteMatching extracts the key from a derived tuple (value ignored).
  EXPECT_TRUE(t.DeleteMatching(*Row("t", 2, 999)));
  EXPECT_EQ(t.size(), 0u);
}

TEST_F(TableTest, SecondaryIndexLookup) {
  TableSpec s;
  s.name = "member";
  s.key_positions = {0};
  Table t(s, &loop_);
  t.Insert(Tuple::Make("member", {Value::Int(1), Value::Str("a"), Value::Int(100)}));
  t.Insert(Tuple::Make("member", {Value::Int(2), Value::Str("b"), Value::Int(100)}));
  t.Insert(Tuple::Make("member", {Value::Int(3), Value::Str("a"), Value::Int(200)}));
  t.AddIndex({1});
  EXPECT_TRUE(t.HasIndex({1}));
  EXPECT_FALSE(t.HasIndex({2}));
  std::vector<TuplePtr> hits = t.LookupByCols({1}, {Value::Str("a")});
  EXPECT_EQ(hits.size(), 2u);
  // Index stays correct across replacement and deletion.
  t.Insert(Tuple::Make("member", {Value::Int(1), Value::Str("c"), Value::Int(1)}));
  hits = t.LookupByCols({1}, {Value::Str("a")});
  EXPECT_EQ(hits.size(), 1u);
  t.DeleteByKey({Value::Int(3)});
  EXPECT_TRUE(t.LookupByCols({1}, {Value::Str("a")}).empty());
}

// Row ids (column 1) in probe order.
std::vector<int64_t> Ids(const std::vector<TuplePtr>& rows) {
  std::vector<int64_t> ids;
  for (const TuplePtr& r : rows) {
    ids.push_back(r->field(1).AsInt());
  }
  return ids;
}

TEST_F(TableTest, LookupDistinctKeepsTheFirstRowOfEachProjection) {
  // finger(node, id, b, bi) keyed on id: many fingers share (b, bi).
  TableSpec s;
  s.name = "finger";
  s.key_positions = {1};
  Table t(s, &loop_);
  t.AddIndex({0});
  auto finger = [](const char* node, int64_t id, Value b, const char* bi) {
    return Tuple::Make("finger", {Value::Str(node), Value::Int(id), std::move(b), Value::Str(bi)});
  };
  t.Insert(finger("n", 0, Value::Int(5), "p"));
  t.Insert(finger("n", 1, Value::Int(5), "p"));
  t.Insert(finger("n", 2, Value::Int(7), "q"));
  t.Insert(finger("m", 3, Value::Int(9), "r"));   // another bucket
  t.Insert(finger("n", 4, Value::Int(5), "p"));
  t.Insert(finger("n", 5, Value::Int(7), "s"));   // same b, other bi
  t.Insert(finger("n", 6, Value::Double(5.0), "p"));  // == Int(5), not identical
  t.Insert(finger("n", 7, Value::Double(0.0), "p"));
  t.Insert(finger("n", 8, Value::Double(-0.0), "p"));  // == 0.0, other bits
  const std::vector<Value> n{Value::Str("n")};
  EXPECT_EQ(Ids(t.LookupByCols({0}, n)), (std::vector<int64_t>{0, 1, 2, 4, 5, 6, 7, 8}));
  EXPECT_EQ(Ids(t.LookupDistinct({0}, n, {2})), (std::vector<int64_t>{0, 2, 6, 7, 8}));
  EXPECT_EQ(Ids(t.LookupDistinct({0}, n, {2, 3})), (std::vector<int64_t>{0, 2, 5, 6, 7, 8}));
  EXPECT_EQ(Ids(t.LookupDistinct({0}, n, {})), (std::vector<int64_t>{0}));
  EXPECT_TRUE(t.LookupDistinct({0}, {Value::Str("none")}, {2}).empty());
  // No probed columns: the whole table, oldest first.
  EXPECT_EQ(Ids(t.LookupDistinct({}, {}, {3})), (std::vector<int64_t>{0, 2, 3, 5}));
  // A replacement that changes content moves its row to the back of the
  // bucket, so the next row sharing its old projection comes first.
  t.Insert(finger("n", 0, Value::Int(5), "z"));
  EXPECT_EQ(Ids(t.LookupDistinct({0}, n, {2})), (std::vector<int64_t>{1, 2, 6, 7, 8}));
  EXPECT_EQ(Ids(t.LookupDistinct({0}, n, {3})), (std::vector<int64_t>{1, 2, 5, 0}));
}

TEST_F(TableTest, LookupDistinctMatchesFirstOccurrencesOfLookupByCols) {
  TableSpec s;
  s.name = "r";
  s.key_positions = {1};
  s.max_size = 40;
  Table t(s, &loop_);
  t.AddIndex({0});
  uint64_t x = 12345;
  auto next = [&x](int64_t n) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<int64_t>((x >> 33) % static_cast<uint64_t>(n));
  };
  for (int step = 0; step < 400; ++step) {
    t.Insert(Tuple::Make("r", {Value::Int(next(2)), Value::Int(next(60)), Value::Int(next(4)),
                               Value::Int(next(3))}));
    if (step % 7 == 0) {
      t.DeleteByKey({Value::Int(next(60))});
    }
    for (const std::vector<size_t>& cols :
         {std::vector<size_t>{2}, std::vector<size_t>{3, 2}, std::vector<size_t>{}}) {
      const std::vector<Value> key{Value::Int(next(2))};
      std::vector<TuplePtr> want;
      for (const TuplePtr& row : t.LookupByCols({0}, key)) {
        bool seen = false;
        for (const TuplePtr& kept : want) {
          seen = seen || kept->KeyOf(cols) == row->KeyOf(cols);
        }
        if (!seen) {
          want.push_back(row);
        }
      }
      ASSERT_EQ(Ids(t.LookupDistinct({0}, key, cols)), Ids(want)) << "step " << step;
    }
  }
}

TEST_F(TableTest, ExpiryTimerFiresRemovalListenersWithoutTouches) {
  // Rows must expire (and notify removal listeners) on the executor's
  // clock even when nothing queries the table — table aggregates depend on
  // the notification to shrink.
  Table t(Spec(5.0, 100), &loop_);
  int removed = 0;
  t.AddTypedListener([&](const TableDelta& d) {
    removed += d.kind == TableDelta::Kind::kRemove ? 1 : 0;
  });
  t.Insert(Row("t", 1, 1));
  t.Insert(Row("t", 2, 2));
  loop_.RunUntil(4.9);
  EXPECT_EQ(removed, 0);
  loop_.RunUntil(5.1);  // no table call in between: the timer purges
  EXPECT_EQ(removed, 2);
}

TEST_F(TableTest, MultiColumnIndex) {
  TableSpec s;
  s.name = "env";
  s.key_positions = {0, 1};
  Table t(s, &loop_);
  t.Insert(Tuple::Make("env", {Value::Int(1), Value::Str("x"), Value::Int(5)}));
  t.Insert(Tuple::Make("env", {Value::Int(1), Value::Str("y"), Value::Int(6)}));
  t.AddIndex({0, 1});
  std::vector<TuplePtr> hits = t.LookupByCols({0, 1}, {Value::Int(1), Value::Str("y")});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->field(2).AsInt(), 6);
}

TEST_F(TableTest, ScanReturnsOldestFirst) {
  Table t(Spec(std::numeric_limits<double>::infinity(), 100), &loop_);
  t.Insert(Row("t", 1, 1));
  t.Insert(Row("t", 2, 2));
  t.Insert(Row("t", 1, 9));  // refresh: moves to back
  std::vector<TuplePtr> rows = t.Scan();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0]->field(0).AsInt(), 2);
  EXPECT_EQ(rows[1]->field(0).AsInt(), 1);
}

TEST_F(TableTest, DeltaListenersFireOnEveryInsert) {
  Table t(Spec(std::numeric_limits<double>::infinity(), 100), &loop_);
  int fires = 0;
  t.AddDeltaListener([&](const TuplePtr&) { ++fires; });
  t.Insert(Row("t", 1, 1));
  t.Insert(Row("t", 1, 1));  // refresh also fires (soft-state re-derivation)
  t.Insert(Row("t", 1, 2));
  EXPECT_EQ(fires, 3);
  t.DeleteByKey({Value::Int(1)});
  EXPECT_EQ(fires, 3);  // deletes do not fire insert deltas
}

TEST_F(TableTest, WholeTupleKeyWhenNoKeyPositions) {
  TableSpec s;
  s.name = "t";
  Table t(s, &loop_);
  t.Insert(Row("t", 1, 1));
  t.Insert(Row("t", 1, 1));
  t.Insert(Row("t", 1, 2));
  EXPECT_EQ(t.size(), 2u);
}

TEST_F(TableTest, ApproxBytesGrowsWithRows) {
  Table t(Spec(std::numeric_limits<double>::infinity(), 1000), &loop_);
  size_t empty = t.ApproxBytes();
  for (int i = 0; i < 100; ++i) {
    t.Insert(Row("t", i, i));
  }
  EXPECT_GT(t.ApproxBytes(), empty + 100 * sizeof(Tuple));
}

}  // namespace
}  // namespace p2
