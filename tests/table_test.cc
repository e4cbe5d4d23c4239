#include "src/table/table.h"

#include <gtest/gtest.h>

#include <list>
#include <random>
#include <unordered_map>

#include "src/sim/event_loop.h"

namespace p2 {
namespace {

TuplePtr Row(const std::string& name, int64_t k, int64_t v) {
  return Tuple::Make(name, {Value::Int(k), Value::Int(v)});
}

// The table's probes fill a caller's reusable buffer; these return it.
std::vector<TuplePtr> Lookup(Table& t, const std::vector<size_t>& cols,
                             const std::vector<Value>& vals) {
  std::vector<TuplePtr> out;
  t.LookupByCols(cols, vals, &out);
  return out;
}
std::vector<TuplePtr> Distinct(Table& t, const std::vector<size_t>& cols,
                               const std::vector<Value>& vals,
                               const std::vector<size_t>& distinct) {
  std::vector<TuplePtr> out;
  t.LookupDistinct(cols, vals, distinct, &out);
  return out;
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
  std::vector<TuplePtr> hits = Lookup(t, {1}, {Value::Str("a")});
  EXPECT_EQ(hits.size(), 2u);
  // Index stays correct across replacement and deletion.
  t.Insert(Tuple::Make("member", {Value::Int(1), Value::Str("c"), Value::Int(1)}));
  hits = Lookup(t, {1}, {Value::Str("a")});
  EXPECT_EQ(hits.size(), 1u);
  t.DeleteByKey({Value::Int(3)});
  EXPECT_TRUE(Lookup(t, {1}, {Value::Str("a")}).empty());
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
  EXPECT_EQ(Ids(Lookup(t, {0}, n)), (std::vector<int64_t>{0, 1, 2, 4, 5, 6, 7, 8}));
  EXPECT_EQ(Ids(Distinct(t, {0}, n, {2})), (std::vector<int64_t>{0, 2, 6, 7, 8}));
  EXPECT_EQ(Ids(Distinct(t, {0}, n, {2, 3})), (std::vector<int64_t>{0, 2, 5, 6, 7, 8}));
  EXPECT_EQ(Ids(Distinct(t, {0}, n, {})), (std::vector<int64_t>{0}));
  EXPECT_TRUE(Distinct(t, {0}, {Value::Str("none")}, {2}).empty());
  // No probed columns: the whole table, oldest first.
  EXPECT_EQ(Ids(Distinct(t, {}, {}, {3})), (std::vector<int64_t>{0, 2, 3, 5}));
  // A replacement that changes content moves its row to the back of the
  // bucket, so the next row sharing its old projection comes first.
  t.Insert(finger("n", 0, Value::Int(5), "z"));
  EXPECT_EQ(Ids(Distinct(t, {0}, n, {2})), (std::vector<int64_t>{1, 2, 6, 7, 8}));
  EXPECT_EQ(Ids(Distinct(t, {0}, n, {3})), (std::vector<int64_t>{1, 2, 5, 0}));
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
      for (const TuplePtr& row : Lookup(t, {0}, key)) {
        bool seen = false;
        for (const TuplePtr& kept : want) {
          seen = seen || kept->KeyOf(cols) == row->KeyOf(cols);
        }
        if (!seen) {
          want.push_back(row);
        }
      }
      ASSERT_EQ(Ids(Distinct(t, {0}, key, cols)), Ids(want)) << "step " << step;
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
  std::vector<TuplePtr> hits = Lookup(t, {0, 1}, {Value::Int(1), Value::Str("y")});
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

// --- Differential test: keys read in place vs materialised key vectors ---

// The table as it was when every key was a materialised vector under
// ValueVecHash / ValueVecEq: a primary map, secondary buckets keyed by
// the projection of the row that created them, FIFO eviction and
// front-first expiry. It logs the deltas the real table would emit. One
// repair over the vector-keyed original: a refresh that is equal under
// SameAs but moves a projection's hash (Int(1) for Double(1.0)) re-files
// the row under its new projection, where the original left it in the
// old bucket, to be missed by the erase that later freed the row.
class VectorKeyedTable {
 public:
  struct Delta {
    TableDelta::Kind kind;
    TableDelta::Cause cause;
    const Tuple* tuple;
    const Tuple* old_tuple;
    bool operator==(const Delta& o) const {
      return kind == o.kind && cause == o.cause && tuple == o.tuple && old_tuple == o.old_tuple;
    }
  };

  VectorKeyedTable(TableSpec spec, std::vector<Delta>* log) : spec_(std::move(spec)), log_(log) {}

  void AddIndex(const std::vector<size_t>& cols) {
    Index& idx = indices_.emplace_back();
    idx.cols = cols;
    for (auto it = rows_.begin(); it != rows_.end(); ++it) {
      idx.map[it->tuple->KeyOf(cols)].push_back(it);
    }
  }

  bool Insert(const TuplePtr& t, double now) {
    Purge(now);
    double expires = now + spec_.lifetime_s;
    std::vector<Value> key = KeyOf(*t);
    auto found = primary_.find(key);
    if (found != primary_.end()) {
      auto it = found->second;
      bool changed = !it->tuple->SameAs(*t);
      TuplePtr displaced = it->tuple;
      rows_.splice(rows_.end(), rows_, it);
      if (changed) {
        IndexErase(it);
        it->tuple = t;
        IndexInsert(it);
      } else {
        for (Index& idx : indices_) {
          std::vector<Value> old_key = it->tuple->KeyOf(idx.cols);
          std::vector<Value> new_key = t->KeyOf(idx.cols);
          if (ValueVecHash()(old_key) != ValueVecHash()(new_key)) {
            Unindex(&idx, it, old_key);
            idx.map[new_key].push_back(it);
          }
        }
        it->tuple = t;
      }
      it->expires_at = expires;
      log_->push_back({TableDelta::Kind::kReplace, TableDelta::Cause::kInsert, t.get(),
                       displaced.get()});
      return changed;
    }
    rows_.push_back(Row{t, expires});
    auto it = std::prev(rows_.end());
    primary_.emplace(std::move(key), it);
    IndexInsert(it);
    while (rows_.size() > spec_.max_size) {
      Erase(rows_.begin(), TableDelta::Cause::kEviction);
    }
    log_->push_back({TableDelta::Kind::kInsert, TableDelta::Cause::kInsert, t.get(), nullptr});
    return true;
  }

  bool DeleteByKey(const std::vector<Value>& key, double now) {
    Purge(now);
    auto found = primary_.find(key);
    if (found == primary_.end()) {
      return false;
    }
    Erase(found->second, TableDelta::Cause::kDelete);
    return true;
  }

  std::vector<const Tuple*> Lookup(const std::vector<size_t>& cols,
                                   const std::vector<Value>& vals, double now) {
    Purge(now);
    std::vector<const Tuple*> out;
    for (Index& idx : indices_) {
      if (idx.cols != cols) {
        continue;
      }
      auto bucket = idx.map.find(vals);
      if (bucket != idx.map.end()) {
        for (auto row : bucket->second) {
          out.push_back(row->tuple.get());
        }
      }
    }
    return out;
  }

  const Tuple* Find(const std::vector<Value>& key, double now) {
    Purge(now);
    auto found = primary_.find(key);
    return found == primary_.end() ? nullptr : found->second->tuple.get();
  }

  std::vector<const Tuple*> Scan(double now) {
    Purge(now);
    std::vector<const Tuple*> out;
    for (const Row& row : rows_) {
      out.push_back(row.tuple.get());
    }
    return out;
  }

  void Purge(double now) {
    while (!rows_.empty() && rows_.front().expires_at <= now) {
      Erase(rows_.begin(), TableDelta::Cause::kExpiry);
    }
  }

 private:
  struct Row {
    TuplePtr tuple;
    double expires_at;
  };
  using RowList = std::list<Row>;
  struct Index {
    std::vector<size_t> cols;
    std::unordered_map<std::vector<Value>, std::vector<RowList::iterator>, ValueVecHash,
                       ValueVecEq>
        map;
  };

  std::vector<Value> KeyOf(const Tuple& t) const {
    return spec_.key_positions.empty() ? t.fields().ToVector() : t.KeyOf(spec_.key_positions);
  }
  void IndexInsert(RowList::iterator it) {
    for (Index& idx : indices_) {
      idx.map[it->tuple->KeyOf(idx.cols)].push_back(it);
    }
  }
  void Unindex(Index* idx, RowList::iterator it, const std::vector<Value>& key) {
    auto bucket = idx->map.find(key);
    auto& rows = bucket->second;
    rows.erase(std::find(rows.begin(), rows.end(), it));
    if (rows.empty()) {
      idx->map.erase(bucket);
    }
  }
  void IndexErase(RowList::iterator it) {
    for (Index& idx : indices_) {
      Unindex(&idx, it, it->tuple->KeyOf(idx.cols));
    }
  }
  void Erase(RowList::iterator it, TableDelta::Cause cause) {
    TuplePtr gone = it->tuple;
    IndexErase(it);
    primary_.erase(KeyOf(*gone));
    rows_.erase(it);
    log_->push_back({TableDelta::Kind::kRemove, cause, gone.get(), nullptr});
  }

  TableSpec spec_;
  std::vector<Delta>* log_;
  RowList rows_;
  std::unordered_map<std::vector<Value>, RowList::iterator, ValueVecHash, ValueVecEq> primary_;
  std::vector<Index> indices_;
};

struct DiffCase {
  const char* label;
  std::vector<size_t> key;  // empty: whole-tuple key
  std::vector<std::vector<size_t>> indices;
  double lifetime_s;
  size_t max_size;
  size_t min_arity;  // rows are min_arity..3 fields: short rows project Null
};

// A small domain where collisions are the rule: Int(1) == Double(1.0) but
// the two hash apart, lists compare element-wise, and Null fills gaps.
Value DiffValue(std::mt19937* rng) {
  switch ((*rng)() % 6) {
    case 0:
    case 1:
      return Value::Int((*rng)() % 3);
    case 2:
      return Value::Double(static_cast<double>((*rng)() % 3));
    case 3:
      return Value::Str((*rng)() % 2 == 0 ? "a" : "b");
    case 4:
      return Value::List({Value::Int((*rng)() % 2), Value::Str((*rng)() % 2 == 0 ? "x" : "y")});
    default:
      return Value::Null();
  }
}

std::vector<Value> DiffValues(std::mt19937* rng, size_t n) {
  std::vector<Value> vals;
  for (size_t i = 0; i < n; ++i) {
    vals.push_back(DiffValue(rng));
  }
  return vals;
}

std::vector<const Tuple*> Raw(const std::vector<TuplePtr>& rows) {
  std::vector<const Tuple*> out;
  for (const TuplePtr& r : rows) {
    out.push_back(r.get());
  }
  return out;
}

class TableDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(TableDifferentialTest, InPlaceKeysMatchVectorKeyedModel) {
  const std::vector<DiffCase> cases = {
      {"key col 0, two indices", {0}, {{1}, {2, 1}}, 4.0, 12, 3},
      {"whole-tuple key", {}, {{0}, {1}}, std::numeric_limits<double>::infinity(), 10, 1},
      {"key past short rows", {2, 0}, {{1}, {2}}, 2.5, 8, 2},
  };
  for (const DiffCase& c : cases) {
    SCOPED_TRACE(c.label);
    std::mt19937 rng(static_cast<unsigned>(GetParam()));
    SimEventLoop loop;
    TableSpec spec;
    spec.name = "d";
    spec.key_positions = c.key;
    spec.lifetime_s = c.lifetime_s;
    spec.max_size = c.max_size;
    Table table(spec, &loop);
    std::vector<VectorKeyedTable::Delta> got;
    std::vector<VectorKeyedTable::Delta> want;
    table.AddTypedListener([&got](const TableDelta& d) {
      got.push_back({d.kind, d.cause, d.tuple.get(), d.old_tuple.get()});
    });
    VectorKeyedTable model(spec, &want);
    for (const std::vector<size_t>& cols : c.indices) {
      table.AddIndex(cols);
      model.AddIndex(cols);
    }
    std::vector<TuplePtr> hits;
    for (int step = 0; step < 400; ++step) {
      SCOPED_TRACE(step);
      const double now = loop.Now();
      switch (rng() % 8) {
        case 0:
        case 1:
        case 2:
        case 3: {
          size_t arity = c.min_arity + rng() % (4 - c.min_arity);
          TuplePtr t = Tuple::Make("d", DiffValues(&rng, arity));
          ASSERT_EQ(table.Insert(t), model.Insert(t, now));
          break;
        }
        case 4: {
          std::vector<Value> key = DiffValues(&rng, c.key.empty() ? 3 : c.key.size());
          ASSERT_EQ(table.DeleteByKey(key), model.DeleteByKey(key, now));
          break;
        }
        case 5: {
          // Delete a live row by a derived tuple with its key (the rest
          // replaced), as a delete rule does.
          std::vector<TuplePtr> rows = table.Scan();
          model.Purge(now);
          if (rows.empty()) {
            break;
          }
          const Tuple& row = *rows[rng() % rows.size()];
          std::vector<Value> fields = row.fields().ToVector();
          std::vector<Value> key =
              c.key.empty() ? fields : Tuple::Make("d", fields)->KeyOf(c.key);
          for (size_t i = 0; i < fields.size(); ++i) {
            if (std::find(c.key.begin(), c.key.end(), i) == c.key.end() && !c.key.empty()) {
              fields[i] = Value::Str("derived");
            }
          }
          ASSERT_TRUE(table.DeleteMatching(*Tuple::Make("d", fields)));
          ASSERT_TRUE(model.DeleteByKey(key, now));
          break;
        }
        case 6:
          loop.RunUntil(now + 0.5);  // the expiry timer purges the table
          model.Purge(loop.Now());
          break;
        default: {
          std::vector<Value> key = DiffValues(&rng, c.key.empty() ? 3 : c.key.size());
          TuplePtr found = table.FindByKey(key);
          ASSERT_EQ(found.get(), model.Find(key, now));
          break;
        }
      }
      ASSERT_EQ(got, want);
      ASSERT_EQ(Raw(table.Scan()), model.Scan(loop.Now()));
      for (const std::vector<size_t>& cols : c.indices) {
        for (int probe = 0; probe < 3; ++probe) {
          std::vector<Value> vals = DiffValues(&rng, cols.size());
          table.LookupByCols(cols, vals, &hits);
          ASSERT_EQ(Raw(hits), model.Lookup(cols, vals, loop.Now()));
          ASSERT_EQ(table.HasMatch(cols, vals), !hits.empty());
        }
        // Probe with a live row's own projection too, so hits are common.
        std::vector<TuplePtr> rows = table.Scan();
        if (!rows.empty()) {
          std::vector<Value> vals = rows[rng() % rows.size()]->KeyOf(cols);
          table.LookupByCols(cols, vals, &hits);
          ASSERT_FALSE(hits.empty());
          ASSERT_EQ(Raw(hits), model.Lookup(cols, vals, loop.Now()));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableDifferentialTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace p2
