// Randomized differential test: the planner's incremental state against a
// from-scratch reference evaluation (tests/reference_eval.h).
//
// Generates random OverLog programs — deterministic expressions only, DAG
// table dependencies — and drives one node with a random interleaving of
// base-table operations and stream events. At every quiescent point each
// pure-table head the node maintains must equal the least fixpoint the
// reference evaluator derives from the node's current base rows, and every
// stream event must emit exactly the heads the reference fires for it
// against that fixpoint. Two corpora:
//
//   - insert-only: multi-join stream rules, a single-predicate pure-table
//     chain, and a min/max table aggregate;
//   - retracting: the same stream rules plus multi-join and
//     projected-support pure-table rules (one head row standing for many
//     derivations, including a projection through a counted intermediate
//     table), driven with base-table deletes, FIFO evictions (small
//     max_size) and replacements by key. Aggregate heads stay on the
//     insert-only corpus: an emptied min/max group's row is deliberately
//     left to soft-state expiry rather than retracted.
//
// Recursive programs are out of scope: their heads fall back to TTL decay.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/p2/node.h"
#include "src/sim/network.h"
#include "tests/reference_eval.h"

namespace p2 {
namespace {

struct GenTable {
  std::string name;
  size_t arity;     // including the leading address field
  size_t key_cols;  // leading data columns forming the primary key
};

struct GenProgram {
  std::string text;
  std::vector<GenTable> bases;     // driven with inserts (and deletes)
  std::vector<std::string> heads;  // stream heads to subscribe to
  std::vector<std::string> derived;  // pure-table heads to compare
};

std::string Var(size_t i) { return std::string(1, static_cast<char>('A' + i)); }

// Body predicate over base `t`: location X, join column A, then `cols`
// (padded with "_" to the table's arity).
std::string BaseTerm(const GenTable& t, const std::vector<std::string>& cols) {
  std::string s = t.name + "@X(X, A";
  for (size_t k = 2; k < t.arity; ++k) {
    s += ", " + (k - 2 < cols.size() ? cols[k - 2] : std::string("_"));
  }
  return s + ")";
}

// Builds one random program: 2-3 base tables, 1-2 stream rules with
// multi-table join bodies (where cost ordering can actually reorder), one
// single-predicate pure-table chain, and — insert-only — one table
// aggregate, or — retracting — multi-join and projected-support rules.
GenProgram Generate(std::mt19937* rng, bool retracting) {
  auto pick = [rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(*rng);
  };
  GenProgram p;
  std::ostringstream out;

  size_t num_bases = static_cast<size_t>(pick(2, 3));
  for (size_t i = 0; i < num_bases; ++i) {
    GenTable t;
    t.name = "b" + std::to_string(i);
    t.arity = static_cast<size_t>(pick(3, 4));
    // Insert-only: the whole row is the key, so an insert never displaces
    // a different row. Retracting: the tables are small, so inserts evict
    // FIFO, and half are keyed on the join column alone, so inserts also
    // replace rows with different content.
    t.key_cols = t.arity - 1;
    int max_size = 1000;
    if (retracting) {
      max_size = pick(3, 6);
      t.key_cols = pick(0, 1) == 0 ? t.arity - 1 : 1;
    }
    p.bases.push_back(t);
    out << "materialize(" << t.name << ", infinity, " << max_size << ", keys(";
    for (size_t k = 2; k < 2 + t.key_cols; ++k) {
      out << (k == 2 ? "" : ",") << k;
    }
    out << ")).\n";
  }

  // Stream rules: ev(X, A) joined against every base on its first data
  // column, all bindings exported. Different bodies per rule exercise
  // different join orders under the cost model.
  int num_stream = pick(1, 2);
  for (int r = 0; r < num_stream; ++r) {
    std::vector<size_t> body(p.bases.size());
    for (size_t i = 0; i < body.size(); ++i) {
      body[i] = i;
    }
    std::shuffle(body.begin(), body.end(), *rng);
    size_t use = static_cast<size_t>(pick(2, static_cast<int>(body.size())));
    std::string head = "out" + std::to_string(r);
    p.heads.push_back(head);
    out << "s" << r << " " << head << "@X(X";
    size_t var = 0;
    std::vector<std::string> terms;
    for (size_t i = 0; i < use; ++i) {
      const GenTable& t = p.bases[body[i]];
      std::vector<std::string> cols;
      for (size_t k = 2; k < t.arity; ++k) {
        cols.push_back(Var(1 + var));  // B, C, ... all exported
        ++var;
      }
      terms.push_back(BaseTerm(t, cols));
    }
    for (size_t v = 0; v < 1 + var; ++v) {
      out << ", " << Var(v);
    }
    out << ") :- ev@X(X, A)";
    for (const std::string& t : terms) {
      out << ", " << t;
    }
    if (pick(0, 1) == 1) {
      out << ", A < 4";  // deterministic filter
    }
    out << ".\n";
  }

  // Pure-table chain: d0 :- b0, d1 :- d0, keyed on every data column.
  out << "materialize(d0, infinity, 1000, keys(2,3)).\n"
      << "materialize(d1, infinity, 1000, keys(2,3)).\n"
      << "t0 d0@X(X, A, B) :- " << BaseTerm(p.bases[0], {"B"}) << ".\n"
      << "t1 d1@X(X, B, A) :- d0@X(X, A, B), B != A.\n";
  p.derived = {"d0", "d1"};

  if (!retracting) {
    // Table aggregate over b1's first two data columns.
    const char* agg = pick(0, 1) == 0 ? "min" : "max";
    out << "materialize(agg0, infinity, 1000, keys(2)).\n"
        << "ag agg0@X(X, A, " << agg << "<B>) :- " << BaseTerm(p.bases[1], {"B"}) << ".\n";
    p.derived.push_back("agg0");
    p.text = out.str();
    return p;
  }

  // Multi-join with full support: two or three distinct bases joined on A,
  // every column exported.
  std::vector<size_t> order(p.bases.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::shuffle(order.begin(), order.end(), *rng);
  size_t use = static_cast<size_t>(pick(2, static_cast<int>(order.size())));
  std::vector<std::string> head_vars{"A"};
  std::vector<std::string> terms;
  size_t var = 0;
  for (size_t i = 0; i < use; ++i) {
    const GenTable& t = p.bases[order[i]];
    std::vector<std::string> cols;
    for (size_t k = 2; k < t.arity; ++k) {
      cols.push_back(Var(1 + var++));
      head_vars.push_back(cols.back());
    }
    terms.push_back(BaseTerm(t, cols));
  }
  out << "materialize(j0, infinity, 1000, keys(";
  for (size_t k = 0; k < head_vars.size(); ++k) {
    out << (k == 0 ? "" : ",") << k + 2;
  }
  out << ")).\nm0 j0@X(X";
  for (const std::string& v : head_vars) {
    out << ", " << v;
  }
  out << ") :- " << terms[0];
  for (size_t i = 1; i < terms.size(); ++i) {
    out << ", " << terms[i];
  }
  out << ".\n";

  // Projected two-join: the join column A is dropped, so every A shared by
  // a b_i row with value B and a b_j row with value C supports j1(B, C).
  const GenTable& left = p.bases[order[0]];
  const GenTable& right = p.bases[order[1]];
  out << "materialize(j1, infinity, 1000, keys(2,3)).\n"
      << "m1 j1@X(X, B, C) :- " << BaseTerm(left, {"B"}) << ", " << BaseTerm(right, {"C"})
      << ".\n";

  // Projected chain through the counted intermediate d0 (itself projected
  // when b0 has a column t0 drops): many (A, B) pairs share one B - A.
  out << "materialize(k0, infinity, 1000, keys(2)).\n"
      << "c0 k0@X(X, C) :- d0@X(X, A, B), C := B - A.\n";
  p.derived.insert(p.derived.end(), {"j0", "j1", "k0"});
  p.text = out.str();
  return p;
}

std::string RowKey(const std::string& name, const std::vector<Value>& fields) {
  // Field 0 is always the node's own address; drop it.
  std::string s = name + "(";
  for (size_t i = 1; i < fields.size(); ++i) {
    s += fields[i].ToString() + ",";
  }
  return s + ")";
}

// Drives `p` on one node with a random operation sequence and checks it
// against the reference evaluator at every quiescent point.
void DriveAndCompare(const GenProgram& p, uint64_t seed, bool retracting,
                     const std::string& context) {
  SimEventLoop loop;
  SimNetwork net(&loop, Topology(TopologyConfig{}), 7);
  auto transport = net.MakeTransport("n1", 0);
  P2NodeConfig c;
  c.executor = &loop;
  c.transport = transport.get();
  c.seed = 42;
  P2Node node(c);
  std::string err;
  ASSERT_TRUE(node.Install(p.text, &err)) << err << "\n" << context;
  ReferenceEvaluator ref;
  ASSERT_TRUE(ref.Load(p.text, "n1", &err)) << err << "\n" << context;

  std::vector<std::string> streams;
  for (const std::string& head : p.heads) {
    node.Subscribe(head, [&streams](const TuplePtr& t) {
      streams.push_back(RowKey(t->name(), t->fields()));
    });
  }
  node.Start();

  auto reference_state = [&]() {
    RefDatabase base;
    for (const GenTable& t : p.bases) {
      RefRelation& rows = base[t.name];
      for (const TuplePtr& row : node.GetTable(t.name)->Scan()) {
        rows.insert(row->fields());
      }
    }
    return ref.Fixpoint(base);
  };

  // Interleaved base inserts, deletes and event injections over a tiny
  // value domain (collisions guaranteed).
  std::mt19937 drive(static_cast<unsigned>(seed));
  auto pick = [&drive](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(drive);
  };
  std::vector<std::string> expected_streams;
  for (int step = 0; step < 60; ++step) {
    int op = pick(0, retracting ? 5 : 3);
    if (op == 0) {
      TuplePtr ev = Tuple::Make("ev", {Value::Addr("n1"), Value::Int(pick(0, 5))});
      for (const TuplePtr& t : ref.Fire(*ev, reference_state())) {
        expected_streams.push_back(RowKey(t->name(), t->fields()));
      }
      node.Inject(ev);
    } else {
      const GenTable& t = p.bases[static_cast<size_t>(pick(
          0, static_cast<int>(p.bases.size()) - 1))];
      std::vector<Value> fields{Value::Addr("n1")};
      for (size_t k = 1; k < t.arity; ++k) {
        fields.push_back(Value::Int(pick(0, 5)));
      }
      Table* table = node.GetTable(t.name);
      if (op >= 4) {
        // Delete: usually a live row, else whatever the random key hits.
        std::vector<TuplePtr> rows = table->Scan();
        if (!rows.empty() && op == 4) {
          fields = rows[static_cast<size_t>(pick(0, static_cast<int>(rows.size()) - 1))]
                       ->fields();
        }
        table->DeleteByKey(
            std::vector<Value>(fields.begin() + 1, fields.begin() + 1 + t.key_cols));
      } else {
        table->Insert(Tuple::Make(t.name, std::move(fields)));
      }
    }
    loop.RunUntil(loop.Now() + 0.01);

    RefDatabase want = reference_state();
    for (const std::string& name : p.derived) {
      std::vector<std::string> got_rows;
      for (const TuplePtr& row : node.GetTable(name)->Scan()) {
        got_rows.push_back(RowKey(name, row->fields()));
      }
      std::vector<std::string> want_rows;
      for (const std::vector<Value>& row : want[name]) {
        want_rows.push_back(RowKey(name, row));
      }
      std::sort(got_rows.begin(), got_rows.end());
      std::sort(want_rows.begin(), want_rows.end());
      ASSERT_EQ(got_rows, want_rows) << "table " << name << " after step " << step << "\n"
                                     << context;
    }
  }
  loop.RunUntil(loop.Now() + 1.0);
  std::sort(streams.begin(), streams.end());
  std::sort(expected_streams.begin(), expected_streams.end());
  EXPECT_EQ(streams, expected_streams) << context;
}

TEST(RuleEquivTest, RandomProgramsMatchTheReferenceEvaluator) {
  // Insert-only corpus, every head kind including table aggregates.
  for (uint64_t case_id = 0; case_id < 25; ++case_id) {
    std::mt19937 rng(static_cast<unsigned>(1000 + case_id));
    GenProgram p = Generate(&rng, /*retracting=*/false);
    DriveAndCompare(p, case_id, /*retracting=*/false,
                    "case " + std::to_string(case_id) + "\n" + p.text);
  }
}

TEST(RuleEquivTest, RetractionsMatchTheReferenceEvaluator) {
  // Deletes, FIFO evictions and content-changing replacements through
  // multi-join and projected-support rules: support counts must retract
  // exactly what lost its last proof.
  for (uint64_t case_id = 0; case_id < 200; ++case_id) {
    std::mt19937 rng(static_cast<unsigned>(2000 + case_id));
    GenProgram p = Generate(&rng, /*retracting=*/true);
    DriveAndCompare(p, case_id, /*retracting=*/true,
                    "retracting case " + std::to_string(case_id) + "\n" + p.text);
  }
}

// Projected-support rule h(B) :- b(A,B): the head drops A, so several b
// rows derive the SAME h row. Support counting keeps a per-head-row
// derivation count and deletes only at zero; the reference evaluator says
// which rows must exist.
class MultiDerivationTest : public ::testing::Test {
 protected:
  static constexpr char kProgram[] =
      "materialize(b, infinity, 1000, keys(2,3)).\n"
      "materialize(h, infinity, 1000, keys(2)).\n"
      "r h@X(X,B) :- b@X(X,A,B).\n";

  MultiDerivationTest() : net_(&loop_, Topology(TopologyConfig{}), 7) {
    transport_ = net_.MakeTransport("n1", 0);
    P2NodeConfig c;
    c.executor = &loop_;
    c.transport = transport_.get();
    c.seed = 42;
    node_ = std::make_unique<P2Node>(c);
    std::string err;
    EXPECT_TRUE(node_->Install(kProgram, &err)) << err;
    EXPECT_TRUE(ref_.Load(kProgram, "n1", &err)) << err;
    node_->Start();
  }

  void InsertB(int64_t a, int64_t b) {
    node_->GetTable("b")->Insert(
        Tuple::Make("b", {Value::Addr("n1"), Value::Int(a), Value::Int(b)}));
  }
  bool DeleteB(int64_t a, int64_t b) {
    return node_->GetTable("b")->DeleteByKey({Value::Int(a), Value::Int(b)});
  }
  std::vector<std::string> DumpH() {
    std::vector<std::string> rows;
    for (const TuplePtr& row : node_->GetTable("h")->Scan()) {
      rows.push_back(RowKey("h", row->fields()));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }
  // h as the reference derives it from the node's current b rows.
  std::vector<std::string> ReferenceH() {
    RefDatabase base;
    for (const TuplePtr& row : node_->GetTable("b")->Scan()) {
      base["b"].insert(row->fields());
    }
    RefDatabase want = ref_.Fixpoint(base);
    std::vector<std::string> rows;
    for (const std::vector<Value>& row : want["h"]) {
      rows.push_back(RowKey("h", row));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  SimEventLoop loop_;
  SimNetwork net_;
  std::unique_ptr<SimTransport> transport_;
  std::unique_ptr<P2Node> node_;
  ReferenceEvaluator ref_;
};

TEST_F(MultiDerivationTest, CountingNeverDeletesARowWithALiveSupport) {
  for (int64_t a = 0; a < 3; ++a) {
    InsertB(a, 7);
  }
  loop_.RunUntil(loop_.Now() + 0.1);
  const SupportCounts* counts = node_->SupportCountsFor("h");
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(counts->Count(*Tuple::Make("h", {Value::Addr("n1"), Value::Int(7)})), 3u);
  EXPECT_EQ(DumpH(), ReferenceH());

  // Two of three supports retract: h(7) must survive.
  EXPECT_TRUE(DeleteB(0, 7));
  EXPECT_TRUE(DeleteB(1, 7));
  loop_.RunUntil(loop_.Now() + 0.1);
  EXPECT_EQ(node_->GetTable("h")->size(), 1u);
  EXPECT_EQ(counts->Count(*Tuple::Make("h", {Value::Addr("n1"), Value::Int(7)})), 1u);
  EXPECT_EQ(DumpH(), ReferenceH());

  // Last support retracts: the head goes with it.
  EXPECT_TRUE(DeleteB(2, 7));
  loop_.RunUntil(loop_.Now() + 0.1);
  EXPECT_EQ(node_->GetTable("h")->size(), 0u);
  EXPECT_EQ(DumpH(), ReferenceH());
}

TEST_F(MultiDerivationTest, FinalStatesAgreeWhenEverySurvivingHeadHasSupport) {
  // Retractions mid-run, then one support re-inserted per head value: the
  // counted table must end where the reference fixpoint does.
  for (int64_t b = 0; b < 3; ++b) {
    for (int64_t a = 0; a < 4; ++a) {
      InsertB(a, b);
    }
  }
  loop_.RunUntil(loop_.Now() + 0.05);
  for (int64_t a = 0; a < 4; ++a) {
    DeleteB(a, 0);  // all supports of h(0)
  }
  DeleteB(0, 1);  // some supports of h(1)
  DeleteB(1, 1);
  loop_.RunUntil(loop_.Now() + 0.05);
  EXPECT_EQ(DumpH(), ReferenceH());
  for (int64_t b = 0; b < 3; ++b) {
    InsertB(9, b);  // fresh support for every head value
  }
  loop_.RunUntil(loop_.Now() + 0.05);
  EXPECT_EQ(DumpH(), ReferenceH());
  EXPECT_EQ(DumpH().size(), 3u);
}

TEST(RuleEquivTest, ModeReachesThePlan) {
  std::mt19937 rng(1);
  GenProgram p = Generate(&rng, /*retracting=*/false);
  SimEventLoop loop;
  SimNetwork net(&loop, Topology(TopologyConfig{}), 7);
  auto transport = net.MakeTransport("n1", 0);
  P2NodeConfig c;
  c.executor = &loop;
  c.transport = transport.get();
  P2Node node(c);
  std::string err;
  ASSERT_TRUE(node.Install(p.text, &err)) << err;
  const std::string& dump = node.PlanExplain();
  EXPECT_NE(dump.find("delta-insert"), std::string::npos);
  EXPECT_NE(dump.find("(incremental)"), std::string::npos);
  // Counting reaches the chains: counted heads route through the support
  // counter and retract through the counted path.
  EXPECT_NE(dump.find("-> count+route"), std::string::npos);
  EXPECT_NE(dump.find("-> retract-count (local)"), std::string::npos);
}

}  // namespace
}  // namespace p2
