// The P2 planner (§3.5): translates a parsed, localized OverLog program
// into tables, indices and a dataflow element graph inside a P2Node.
//
// Per rule, the planner emits one or more *variants*: a RuleDriver fed by
// an event source (periodic timer, stream demux port, or a table's delta
// stream), a sequence of equijoin / anti-join / filter / extend elements
// over the remaining body terms, a projection constructing the head tuple,
// optional per-event aggregation (AggWrap), and finally either a table
// delete, or the node's output router which sends remote tuples over the
// network and loops local ones back into the input queue.
//
// Evaluation is semi-naive. A rule whose body is all materialized
// predicates is rewritten into per-delta variants: one insert-triggered
// chain per body predicate (any table gaining a row can complete a join,
// so each gets its own trigger). When the head is itself materialized and
// outside any table-dependency cycle, the rule is support-counted: each
// fresh derivation increments a per-head-row count, and one
// remove-triggered chain per body predicate re-derives the head tuple from
// a retracted row and decrements it, deleting the head row at zero — so
// retractions propagate instead of waiting for soft-state expiry. Join
// order within each chain is chosen greedily by estimated fanout
// (Table::EstimateFanout) rather than rule-text order, and every probed
// index is declared at plan time. Table aggregates are maintained
// incrementally from the table's typed delta stream.
#ifndef P2_OVERLOG_PLANNER_H_
#define P2_OVERLOG_PLANNER_H_

#include <string>

#include "src/overlog/ast.h"

namespace p2 {

class P2Node;

class Planner {
 public:
  // Installs `program` into `node`. On failure returns false with a
  // diagnostic in *err; the node is then in an unusable state.
  static bool Install(const ProgramAst& program, P2Node* node, std::string* err);
};

}  // namespace p2

#endif  // P2_OVERLOG_PLANNER_H_
