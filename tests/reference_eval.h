// Reference semantics for the planner's differential tests: a naive
// bottom-up evaluator over one node's local OverLog rules.
//
// The planner compiles each rule into delta-driven dataflow chains whose
// state is maintained incrementally — per-delta trigger variants, support
// counts, incremental aggregates. This evaluator takes the textbook route
// instead. Given a snapshot of the node's base rows it applies every
// table rule to the whole database, recomputing each derived relation from
// scratch, until a round changes nothing: the least fixpoint. Stream
// events are evaluated by joining the event tuple against such a database.
// It shares only the OverLog parser, the localizer and the PEL expression
// compiler with the runtime — no planner, dataflow element, table or
// listener — so a bug in the incremental machinery cannot hide in its own
// oracle.
//
// Supported fragment, checked by Load:
//   - table rules: every body predicate is a positive materialized one;
//     bodies may also hold assignments and filters;
//   - min/max aggregate heads, over a body of exactly one table predicate
//     (the planner's table aggregate) or in an event rule whose other head
//     fields the event alone binds (one row per event, as the planner's
//     aggregate strand folds it);
//   - event rules: exactly one non-materialized predicate;
//   - deterministic expressions only (no f_rand, f_now, ...); no facts,
//     negation, periodic or delete rules.
// Derived relations are sets of rows, unbounded and never expiring. A
// program whose heads can derive two rows with one primary key has no
// order-free meaning, so tests keep every derived key over all data
// columns (or over an aggregate's group columns).
#ifndef P2_TESTS_REFERENCE_EVAL_H_
#define P2_TESTS_REFERENCE_EVAL_H_

#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/overlog/ast.h"
#include "src/pel/program.h"
#include "src/runtime/tuple.h"
#include "src/runtime/value.h"

namespace p2 {

// One relation's rows (all fields, location first) and a whole database.
using RefRelation = std::unordered_set<std::vector<Value>, ValueVecHash, ValueVecEq>;
using RefDatabase = std::map<std::string, RefRelation>;

class ReferenceEvaluator {
 public:
  // Parses and localizes `program` as node `addr` would. False with *err
  // on a parse error or a rule outside the supported fragment.
  bool Load(const std::string& program, const std::string& addr, std::string* err);

  // Least fixpoint of the table rules over `base`. Derived heads addressed
  // to another node are dropped (they would ship away). Aborts if 10,000
  // rounds do not reach a fixpoint.
  RefDatabase Fixpoint(const RefDatabase& base) const;

  // Head rows that `event` derives through the event rules against `db`:
  // one per satisfying binding, so duplicates are meaningful.
  std::vector<TuplePtr> Fire(const Tuple& event, const RefDatabase& db) const;

 private:
  // One body term compiled against the binding layout built so far: the
  // binding is the concatenation of every joined row's fields (the event's
  // first) and every assignment's value, as a tuple PEL programs can read.
  struct Step {
    enum Kind { kJoin, kAssign, kFilter };
    Kind kind = kFilter;
    std::string relation;  // kJoin
    // kJoin, per column of the relation: the value the column must equal
    // (computed from the binding), and/or an earlier column of the same
    // row it must repeat (-1 for none).
    std::vector<bool> has_key;
    std::vector<PelProgram> key;
    std::vector<int> same_as;
    PelProgram expr;  // kAssign: appended value; kFilter: predicate
  };
  struct Rule {
    std::string head;
    std::vector<PelProgram> head_fields;  // the aggregate field's program
                                          // reads the aggregated variable
    int agg_field = -1;                   // -1: no aggregate head
    bool agg_min = false;                 // min<>, else max<>
    std::string event;                    // event rules: the stream name
    size_t event_arity = 0;
    std::vector<Step> steps;              // event rules: the event first
  };

  bool CompileRule(const RuleAst& rule, const ProgramAst& program, std::string* err);
  // Depth-first enumeration of the bindings satisfying steps[i..]; an
  // event rule's event predicate matches only `event`.
  void Enumerate(const Rule& rule, size_t i, const TuplePtr& binding, const RefDatabase& db,
                 const std::vector<Value>* event, std::vector<TuplePtr>* out) const;
  // Evaluates the rule's head over every binding (aggregating if needed).
  std::vector<std::vector<Value>> Heads(const Rule& rule,
                                        const std::vector<TuplePtr>& bindings) const;

  std::string addr_;
  std::vector<Rule> table_rules_;
  std::vector<Rule> event_rules_;
};

}  // namespace p2

#endif  // P2_TESTS_REFERENCE_EVAL_H_
