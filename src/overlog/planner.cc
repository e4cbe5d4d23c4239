#include "src/overlog/planner.h"

#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <unordered_set>

#include "src/dataflow/basic_elements.h"
#include "src/dataflow/rel_elements.h"
#include "src/obs/watch.h"
#include "src/overlog/compile_expr.h"
#include "src/p2/node.h"
#include "src/runtime/logging.h"

namespace p2 {
namespace {

struct AggInfo {
  bool present = false;
  size_t head_position = 0;
  AggKind kind = AggKind::kMin;
  std::string var;  // "*" for count<*>
};

bool AggKindFromName(const std::string& name, AggKind* out) {
  if (name == "min") {
    *out = AggKind::kMin;
  } else if (name == "max") {
    *out = AggKind::kMax;
  } else if (name == "count") {
    *out = AggKind::kCount;
  } else if (name == "sum") {
    *out = AggKind::kSum;
  } else if (name == "avg") {
    *out = AggKind::kAvg;
  } else {
    return false;
  }
  return true;
}

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kAvg:
      return "avg";
  }
  return "?";
}

std::string ColsToString(const std::vector<size_t>& cols) {
  std::string out = "[";
  for (size_t i = 0; i < cols.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += std::to_string(cols[i]);
  }
  return out + "]";
}

std::string EstToString(double est) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", est);
  return buf;
}

// How a rule variant is driven.
enum class TriggerKind { kPeriodic, kStream, kDeltaInsert, kDeltaRemove };

// True if evaluating `e` twice can give different results (randomness,
// wall-clock). Cost-based reordering changes how many times each body term
// is evaluated per event, which is only sound for pure expressions —
// e.g. gossip's "pick member with max<R>, R := f_rand()" needs one draw
// per joined row, exactly where the rule text puts the assignment.
bool ExprVolatile(const Expr& e) {
  if (e.kind == ExprKind::kCall &&
      (e.name == "f_rand" || e.name == "f_randInt" || e.name == "f_coinFlip" ||
       e.name == "f_now")) {
    return true;
  }
  for (const ExprPtr& a : e.args) {
    if (a != nullptr && ExprVolatile(*a)) {
      return true;
    }
  }
  return false;
}

bool BodyHasVolatileTerm(const RuleAst& rule) {
  for (const BodyTerm& term : rule.body) {
    if (std::holds_alternative<AssignAst>(term)) {
      if (ExprVolatile(*std::get<AssignAst>(term).expr)) {
        return true;
      }
    } else if (std::holds_alternative<ExprPtr>(term)) {
      if (ExprVolatile(*std::get<ExprPtr>(term))) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

// Plans all the rules of one program into a node (friend of P2Node).
// Method-per-concern; the heavy lifting is PlanRuleVariant.
class PlanBuilder {
 public:
  PlanBuilder(const ProgramAst& program, P2Node* node)
      : program_(program), node_(node), graph_(node->graph_) {}

  bool Run(std::string* err) {
    // Watched predicates: the program's watch() clauses plus any requested
    // at node construction (p2run --watch). Rule plans splice head taps for
    // these as they are built, so collect the set first.
    for (const std::string& w : program_.watches) {
      watched_.insert(w);
    }
    for (const std::string& w : node_->watches_) {
      watched_.insert(w);
    }
    if (!CreateTables(err)) {
      return false;
    }
    FindRecursiveTables();
    for (const RuleAst& rule : program_.rules) {
      if (rule.IsFact()) {
        if (!InstallFact(rule, err)) {
          return false;
        }
        continue;
      }
      if (!PlanRule(rule, err)) {
        return false;
      }
    }
    // Arrival-side taps: every watched tuple this node sees locally —
    // stored into its table ("store") or delivered as a stream event
    // ("recv") — is logged, covering tuples that arrive off the wire and
    // were derived by some other node's rules.
    for (const std::string& w : watched_) {
      const char* point = node_->GetTable(w) != nullptr ? "store" : "recv";
      Executor* executor = node_->executor_;
      std::string addr = node_->addr_;
      node_->Subscribe(w, [executor, addr, point, w](const TuplePtr& t) {
        obs::EmitWatch(obs::FormatWatchLine(executor->Now(), addr, point, w, *t));
      });
    }
    node_->plan_explain_ += explain_;
    return true;
  }

 private:
  PelEnv MakePelEnv() {
    return PelEnv{node_->executor_, &node_->rng_, &node_->addr_};
  }

  std::string Gensym(const std::string& base) {
    return base + "#" + std::to_string(gensym_++);
  }

  // Marks every materialized table that can transitively derive itself
  // through rule dependencies (body table -> materialized head, over any
  // rule shape — pure-table, event-driven, or aggregate, since deltas
  // propagate through all of them). Counting excludes such heads: a
  // retraction that re-derives its own support would oscillate.
  void FindRecursiveTables() {
    std::map<std::string, std::set<std::string>> deps;  // body table -> heads
    for (const RuleAst& rule : program_.rules) {
      if (rule.IsFact() || !program_.IsMaterialized(rule.head.name)) {
        continue;
      }
      for (const BodyTerm& term : rule.body) {
        if (!std::holds_alternative<PredicateAst>(term)) {
          continue;
        }
        const PredicateAst& p = std::get<PredicateAst>(term);
        if (program_.IsMaterialized(p.name)) {
          deps[p.name].insert(rule.head.name);
        }
      }
    }
    for (const auto& [start, unused] : deps) {
      (void)unused;
      // DFS: does `start` reach itself?
      std::set<std::string> seen;
      std::vector<std::string> stack{start};
      bool cyclic = false;
      while (!stack.empty() && !cyclic) {
        std::string at = std::move(stack.back());
        stack.pop_back();
        auto it = deps.find(at);
        if (it == deps.end()) {
          continue;
        }
        for (const std::string& next : it->second) {
          if (next == start) {
            cyclic = true;
            break;
          }
          if (seen.insert(next).second) {
            stack.push_back(next);
          }
        }
      }
      if (cyclic) {
        recursive_tables_.insert(start);
      }
    }
  }

  // Infers each relation's arity from its (consistent) use across rule
  // heads and bodies, Datalog-style. Returns 0 for relations never used.
  bool InferArity(const std::string& name, size_t* arity, std::string* err) {
    *arity = 0;
    auto consider = [&](const PredicateAst& p) {
      if (p.name != name) {
        return true;
      }
      if (*arity == 0) {
        *arity = p.args.size();
      } else if (*arity != p.args.size()) {
        *err = "relation '" + name + "' used with inconsistent arity";
        return false;
      }
      return true;
    };
    for (const RuleAst& rule : program_.rules) {
      if (!consider(rule.head)) {
        return false;
      }
      for (const BodyTerm& term : rule.body) {
        if (std::holds_alternative<PredicateAst>(term) &&
            !consider(std::get<PredicateAst>(term))) {
          return false;
        }
      }
    }
    return true;
  }

  bool CreateTables(std::string* err) {
    for (const MaterializeAst& m : program_.materializations) {
      if (node_->tables_.count(m.name) > 0) {
        *err = "table '" + m.name + "' declared twice";
        return false;
      }
      TableSpec spec;
      spec.name = m.name;
      spec.lifetime_s = m.lifetime_s;
      spec.max_size = m.max_size;
      spec.key_positions = m.key_positions;
      if (!InferArity(m.name, &spec.arity, err)) {
        return false;
      }
      auto table = std::make_unique<Table>(spec, node_->executor_);
      Table* raw = table.get();
      node_->AddTable(m.name, std::move(table));
      // Tuples named after a table that arrive as events (from the network
      // or local loop-back) are stored: demux route -> insert element.
      auto* ins = graph_.Add<InsertElement>(Gensym("insert:" + m.name), raw);
      graph_.Connect(node_->demux_, node_->demux_->PortFor(m.name), ins, 0);
    }
    return true;
  }

  bool InstallFact(const RuleAst& rule, std::string* err) {
    Table* table = FindTable(rule.head.name);
    if (table == nullptr) {
      *err = "fact for non-materialized relation '" + rule.head.name + "'";
      return false;
    }
    std::vector<Value> fields;
    for (const ExprPtr& a : rule.head.args) {
      if (a->kind == ExprKind::kConst) {
        fields.push_back(a->value);
      } else if (a->kind == ExprKind::kVar && a->name == rule.head.locspec) {
        fields.push_back(Value::Addr(node_->addr_));
      } else {
        *err = "fact argument must be a constant or the location variable: " +
               RuleToString(rule);
        return false;
      }
    }
    table->Insert(Tuple::Make(rule.head.name, std::move(fields)));
    return true;
  }

  Table* FindTable(const std::string& name) {
    auto it = node_->tables_.find(name);
    return it == node_->tables_.end() ? nullptr : it->second.get();
  }

  // --- Rule planning ---

  // A positive join of the strand being planned, kept for the distinct
  // probe pass that runs once the head is known.
  struct StrandJoin {
    size_t op;                     // the driver's op index
    Table* table;
    std::vector<size_t> key_cols;  // probed columns
    size_t base;                   // frame slot of the row's first column
    size_t arity;
    size_t explain_at;             // where its explain line takes " distinct [...]"
  };

  // One rule variant under construction: its strand (the driver, which
  // holds the body ops, head programs and tail) and its joins.
  struct Chain {
    RuleDriver* driver = nullptr;
    std::vector<StrandJoin> joins = {};
  };

  // The node's router: where every rule head and table aggregate output
  // ends up unless its tail retracts or deletes it.
  HeadFn Router() {
    P2Node* node = node_;
    return [node](const TuplePtr& t) { node->RouteTuple(t); };
  }

  // Lazily creates the per-head-table derivation count store; shared by
  // every counted rule deriving into `head`.
  SupportCounts* GetSupportCounts(Table* head) {
    std::unique_ptr<SupportCounts>& slot = node_->support_counts_[head];
    if (slot == nullptr) {
      slot = std::make_unique<SupportCounts>(head);
    }
    return slot.get();
  }

  // Compiles `expr` against `env` into a standalone program (stack form;
  // the receiving strand or element lowers it to register code when it
  // takes it, so every program in the plan is register-compiled before the
  // first tuple flows).
  bool Compile(const Expr& expr, const VarEnv& env, PelProgram* prog, std::string* err) {
    return CompileExpr(expr, env, prog, err);
  }

  // Emits an equality filter: field `pos` == expr(env).
  bool AppendEqFilter(Chain* chain, size_t pos, const Expr& expr, const VarEnv& env,
                      std::string* err) {
    PelProgram prog;
    prog.Emit(PelOp::kPushField, static_cast<uint32_t>(pos));
    if (!Compile(expr, env, &prog, err)) {
      return false;
    }
    prog.Emit(PelOp::kEq);
    chain->driver->AddFilter(std::move(prog));
    return true;
  }

  // Binds the fields of an event predicate occupying positions
  // [0, arity) and appends equality filters for constants / repeated vars.
  bool BindEvent(const PredicateAst& pred, Chain* chain, VarEnv* env, std::string* err,
                 bool skip_constant_checks) {
    for (size_t i = 0; i < pred.args.size(); ++i) {
      const Expr& a = *pred.args[i];
      if (a.kind == ExprKind::kVar) {
        if (a.name == "_") {
          continue;
        }
        auto it = env->find(a.name);
        if (it == env->end()) {
          (*env)[a.name] = i;
        } else if (!AppendEqFilter(chain, i, a, *env, err)) {
          return false;
        }
      } else if (a.kind == ExprKind::kConst) {
        if (skip_constant_checks) {
          continue;  // periodic: generated fields match by construction
        }
        if (!AppendEqFilter(chain, i, a, *env, err)) {
          return false;
        }
      } else {
        *err = "unsupported event argument: " + ExprToString(a);
        return false;
      }
    }
    return true;
  }

  // Table columns an equality probe over `pred` can use given the bindings
  // in `env`: columns holding an already-bound variable or a constant /
  // bound expression. Mirrors the key set AppendTableTerm builds.
  std::vector<size_t> BoundCols(const PredicateAst& pred, const VarEnv& env) {
    std::vector<size_t> cols;
    for (size_t c = 0; c < pred.args.size(); ++c) {
      const Expr& a = *pred.args[c];
      if (a.kind == ExprKind::kVar) {
        if (a.name != "_" && env.count(a.name) > 0) {
          cols.push_back(c);
        }
      } else {
        cols.push_back(c);
      }
    }
    return cols;
  }

  // True when every non-variable argument of `pred` is computable from the
  // current bindings (a variable argument either probes or binds).
  bool PredArgsBound(const PredicateAst& pred, const VarEnv& env) {
    for (const ExprPtr& a : pred.args) {
      if (a->kind != ExprKind::kVar && !ExprBound(*a, env)) {
        return false;
      }
    }
    return true;
  }

  // Appends a join (or anti-join) against a table predicate. `width` is the
  // current binding-frame width and is updated.
  bool AppendTableTerm(const PredicateAst& pred, Chain* chain, VarEnv* env, size_t* width,
                       std::string* err) {
    Table* table = FindTable(pred.name);
    if (table == nullptr) {
      *err = "predicate '" + pred.name + "' joins a non-materialized relation";
      return false;
    }
    std::vector<JoinKey> keys;
    struct Pending {
      std::string var;
      size_t col;
    };
    std::vector<Pending> new_binds;
    std::vector<std::pair<size_t, size_t>> dup_checks;  // (col, earlier col)
    VarEnv local_new;  // vars first bound within this predicate
    for (size_t c = 0; c < pred.args.size(); ++c) {
      const Expr& a = *pred.args[c];
      if (a.kind == ExprKind::kVar) {
        if (a.name == "_") {
          continue;
        }
        if (env->count(a.name) > 0) {
          PelProgram prog;
          prog.Emit(PelOp::kPushField, static_cast<uint32_t>((*env)[a.name]));
          keys.push_back(JoinKey{c, std::move(prog)});
        } else if (local_new.count(a.name) > 0) {
          dup_checks.emplace_back(c, local_new[a.name]);
        } else {
          local_new[a.name] = c;
          new_binds.push_back(Pending{a.name, c});
        }
      } else {
        // Constant or bound expression: equality key.
        PelProgram prog;
        if (!Compile(a, *env, &prog, err)) {
          return false;
        }
        keys.push_back(JoinKey{c, std::move(prog)});
      }
    }
    std::vector<size_t> key_cols;
    key_cols.reserve(keys.size());
    for (const JoinKey& k : keys) {
      key_cols.push_back(k.table_col);
    }
    if (pred.negated) {
      if (!new_binds.empty()) {
        *err = "negated predicate '" + pred.name + "' binds new variables";
        return false;
      }
      explain_ += pad_ + "antijoin " + pred.name + " on " + ColsToString(key_cols) + "\n";
      chain->driver->AddAntiJoin(table, std::move(keys));
      return true;  // width unchanged
    }
    // The estimate is taken before the join declares its index, as the
    // cost ordering saw it.
    std::string est = EstToString(table->EstimateFanout(key_cols));
    explain_ += pad_ + "join " + pred.name + " on " + ColsToString(key_cols);
    size_t base = *width;
    chain->joins.push_back(StrandJoin{chain->driver->AddJoin(table, std::move(keys)), table,
                                      key_cols, base, pred.args.size(), explain_.size()});
    explain_ += " est=" + est + "\n";
    for (const Pending& nb : new_binds) {
      (*env)[nb.var] = base + nb.col;
    }
    *width = base + pred.args.size();
    // Repeated fresh variables inside the same predicate: post-join check.
    for (const auto& [col, first_col] : dup_checks) {
      PelProgram prog;
      prog.Emit(PelOp::kPushField, static_cast<uint32_t>(base + col));
      prog.Emit(PelOp::kPushField, static_cast<uint32_t>(base + first_col));
      prog.Emit(PelOp::kEq);
      chain->driver->AddFilter(std::move(prog));
    }
    return true;
  }

  bool AppendAssign(const AssignAst& assign, Chain* chain, VarEnv* env, size_t* width,
                    std::string* err) {
    if (env->count(assign.var) > 0) {
      *err = "assignment to already-bound variable '" + assign.var + "'";
      return false;
    }
    PelProgram prog;
    if (!Compile(*assign.expr, *env, &prog, err)) {
      return false;
    }
    explain_ += pad_ + "assign " + assign.var + "\n";
    chain->driver->AddAssign(std::move(prog));
    (*env)[assign.var] = *width;
    *width += 1;
    return true;
  }

  bool AppendFilter(const ExprPtr& e, Chain* chain, const VarEnv& env, std::string* err) {
    PelProgram prog;
    if (!Compile(*e, env, &prog, err)) {
      return false;
    }
    explain_ += pad_ + "filter\n";
    chain->driver->AddFilter(std::move(prog));
    return true;
  }

  bool FindAgg(const PredicateAst& head, AggInfo* info, std::string* err) {
    for (size_t i = 0; i < head.args.size(); ++i) {
      if (head.args[i]->kind != ExprKind::kAgg) {
        continue;
      }
      if (info->present) {
        *err = "multiple aggregates in one head";
        return false;
      }
      info->present = true;
      info->head_position = i;
      info->var = head.args[i]->agg_var;
      if (!AggKindFromName(head.args[i]->name, &info->kind)) {
        *err = "unknown aggregate '" + head.args[i]->name + "'";
        return false;
      }
    }
    return true;
  }

  // Attempts to plan a rule whose body is a single materialized predicate
  // and whose head aggregates over the whole table (the paper's
  // "aggregate element over a table", e.g. Chord N3 / S1). Returns true if
  // the pattern matched (with *planned set), false on hard error.
  bool TryTableAggWatcher(const RuleAst& rule, const AggInfo& agg, bool* planned,
                          std::string* err) {
    *planned = false;
    if (rule.body.size() != 1 || !std::holds_alternative<PredicateAst>(rule.body[0])) {
      return true;
    }
    const PredicateAst& pred = std::get<PredicateAst>(rule.body[0]);
    if (pred.negated || pred.name == "periodic") {
      return true;
    }
    Table* table = FindTable(pred.name);
    if (table == nullptr) {
      return true;  // stream-triggered: regular path
    }
    if (agg.head_position != rule.head.args.size() - 1) {
      *err = "table aggregate must be the last head field: " + RuleToString(rule);
      return false;
    }
    // Map head group variables and the aggregate variable to table columns.
    VarEnv cols;
    for (size_t c = 0; c < pred.args.size(); ++c) {
      const Expr& a = *pred.args[c];
      if (a.kind == ExprKind::kVar && a.name != "_" && cols.count(a.name) == 0) {
        cols[a.name] = c;
      }
    }
    std::vector<size_t> group_cols;
    for (size_t i = 0; i + 1 < rule.head.args.size(); ++i) {
      const Expr& h = *rule.head.args[i];
      if (h.kind != ExprKind::kVar || cols.count(h.name) == 0) {
        *err = "table-aggregate head field must be a body variable: " + RuleToString(rule);
        return false;
      }
      group_cols.push_back(cols[h.name]);
    }
    size_t agg_col = 0;
    if (agg.var != "*") {
      if (cols.count(agg.var) == 0) {
        *err = "aggregate variable '" + agg.var + "' not bound by body";
        return false;
      }
      agg_col = cols[agg.var];
    }
    std::string label = rule.id.empty() ? Gensym("rule") : rule.id;
    explain_ += "rule " + label + ": table-aggregate " + AggKindName(agg.kind) + "(" +
                pred.name + ") group=" + ColsToString(group_cols) + " col=" +
                std::to_string(agg_col) + " -> " + rule.head.name + " (incremental)\n";
    auto* watcher =
        graph_.Add<TableAggWatcher>(Gensym("tableagg:" + rule.head.name), table,
                                    std::move(group_cols), agg.kind, agg_col, rule.head.name);
    HeadFn route = Router();
    if (HeadFn tap = MaybeHeadTap(rule.head.name, label)) {
      route = [tap = std::move(tap), route = std::move(route)](const TuplePtr& t) {
        tap(t);
        route(t);
      };
    }
    watcher->SetRoute(std::move(route));
    watcher->Attach();
    *planned = true;
    return true;
  }

  bool PlanRule(const RuleAst& rule, std::string* err) {
    AggInfo agg;
    if (!FindAgg(rule.head, &agg, err)) {
      return false;
    }
    if (agg.present) {
      bool planned = false;
      if (!TryTableAggWatcher(rule, agg, &planned, err)) {
        return false;
      }
      if (planned) {
        return true;
      }
    }

    // Choose the event predicate: `periodic` wins; else the unique stream
    // predicate; else the body is all-materialized and is delta-triggered.
    int event_idx = -1;
    std::vector<int> table_idxs;  // non-negated materialized body predicates
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (!std::holds_alternative<PredicateAst>(rule.body[i])) {
        continue;
      }
      const PredicateAst& p = std::get<PredicateAst>(rule.body[i]);
      if (p.negated) {
        continue;
      }
      if (p.name == "periodic") {
        event_idx = static_cast<int>(i);
        break;
      }
      if (FindTable(p.name) == nullptr) {
        if (event_idx >= 0) {
          *err = "rule " + rule.id + ": more than one stream predicate in body";
          return false;
        }
        event_idx = static_cast<int>(i);
      } else {
        table_idxs.push_back(static_cast<int>(i));
      }
    }
    std::string base_label = rule.id.empty() ? Gensym("rule") : rule.id;
    if (event_idx >= 0) {
      // Event (stream/periodic) rules keep a single trigger: events are
      // instantaneous, not stored, so there is nothing to re-join when a
      // table changes later.
      const PredicateAst& event = std::get<PredicateAst>(rule.body[event_idx]);
      TriggerKind trig = event.name == "periodic" ? TriggerKind::kPeriodic : TriggerKind::kStream;
      return PlanRuleVariant(rule, agg, event_idx, trig, base_label, /*counted=*/false, err);
    }
    if (table_idxs.empty()) {
      *err = "rule " + rule.id + ": no event predicate in body";
      return false;
    }
    if (agg.present) {
      // Per-event aggregate rules: the fold is tied to a single triggering
      // event, so only the first table predicate triggers.
      return PlanRuleVariant(rule, agg, table_idxs[0], TriggerKind::kDeltaInsert, base_label,
                             /*counted=*/false, err);
    }
    // Support counting: with per-head-row derivation counts a retracted
    // support decrements and deletes only at zero, so every pure-table
    // rule with a materialized head — including projected-support shapes
    // like Chord's pingNode :- succ — gets remove chains. Volatile bodies
    // stay uncounted (re-deriving the retracted head is not reproducible),
    // and so do heads in a table-dependency cycle: counting is only sound
    // for non-recursive strata — a cyclic retract/re-derive (e.g. through
    // an aggregate that feeds its own support table) would oscillate
    // forever. Uncounted heads age out by soft-state expiry.
    bool counted = !rule.delete_head && FindTable(rule.head.name) != nullptr &&
                   !BodyHasVolatileTerm(rule) && recursive_tables_.count(rule.head.name) == 0;
    // Semi-naive: a row arriving in ANY body table can complete the join,
    // so each materialized predicate gets its own insert-delta chain.
    std::unordered_set<std::string> used_labels;
    for (size_t v = 0; v < table_idxs.size(); ++v) {
      const PredicateAst& p = std::get<PredicateAst>(rule.body[table_idxs[v]]);
      std::string label = v == 0 ? base_label : base_label + "+" + p.name;
      while (used_labels.count(label) > 0) {
        label += "'";
      }
      used_labels.insert(label);
      if (!PlanRuleVariant(rule, agg, table_idxs[v], TriggerKind::kDeltaInsert, label, counted,
                           err)) {
        return false;
      }
    }
    // Remove path: a retracted body row un-derives head tuples. Each
    // remove-delta chain re-joins the remaining predicates against current
    // state, projects the head tuple and decrements its support count
    // locally (delete at zero) — retractions propagate as deltas instead of
    // waiting for soft-state expiry.
    if (counted) {
      for (int idx : table_idxs) {
        const PredicateAst& p = std::get<PredicateAst>(rule.body[idx]);
        std::string label = base_label + "-" + p.name;
        while (used_labels.count(label) > 0) {
          label += "'";
        }
        used_labels.insert(label);
        if (!PlanRuleVariant(rule, agg, idx, TriggerKind::kDeltaRemove, label, counted, err)) {
          return false;
        }
      }
    }
    return true;
  }

  // Plans one delta/event variant of a rule: the strand (event binding,
  // body ops, head projection, aggregate fold), its tail (watch tap, head
  // routing or retraction) and its event wiring.
  bool PlanRuleVariant(const RuleAst& rule, const AggInfo& agg, int event_idx,
                       TriggerKind trig, const std::string& label, bool counted,
                       std::string* err) {
    const PredicateAst& event = std::get<PredicateAst>(rule.body[event_idx]);
    bool is_periodic = trig == TriggerKind::kPeriodic;
    switch (trig) {
      case TriggerKind::kPeriodic:
        explain_ += "rule " + label + ": trigger periodic\n";
        break;
      case TriggerKind::kStream:
        explain_ += "rule " + label + ": trigger stream(" + event.name + ")\n";
        break;
      case TriggerKind::kDeltaInsert:
        explain_ += "rule " + label + ": trigger delta-insert(" + event.name + ")\n";
        break;
      case TriggerKind::kDeltaRemove:
        explain_ += "rule " + label + ": trigger delta-remove(" + event.name + ")\n";
        break;
    }

    // 1. Create the rule strand and bind the event.
    auto* driver = graph_.Add<RuleDriver>("rule:" + label, MakePelEnv());
    driver->set_event_arity(event.args.size());
    node_->rule_drivers_.emplace_back(label, driver);
    Chain chain{driver};
    VarEnv env;
    size_t width = event.args.size();
    if (!BindEvent(event, &chain, &env, err, /*skip_constant_checks=*/is_periodic)) {
      return false;
    }

    // 2. Remaining body terms.
    std::vector<const BodyTerm*> remaining;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (static_cast<int>(i) != event_idx) {
        remaining.push_back(&rule.body[i]);
      }
    }
    bool by_cost = !BodyHasVolatileTerm(rule);
    if (!by_cost) {
      explain_ += "    order=source (volatile exprs)\n";
    }
    if (!OrderBody(rule, &remaining, &chain, &env, &width, by_cost, err)) {
      return false;
    }

    // 3 + 4. Head projection and the strand's tail.
    if (!FinishChainTail(rule, agg, event, trig, label, counted, &chain, env, err)) {
      return false;
    }

    // 5. Event source wiring.
    return WireEvent(rule, event, trig, counted, driver, err);
  }

  // Steps 3 + 4 of rule planning: the strand's head projection and
  // aggregate fold, then its tail: watch tap, head routing / retraction.
  bool FinishChainTail(const RuleAst& rule, const AggInfo& agg, const PredicateAst& event,
                       TriggerKind trig, const std::string& label, bool counted, Chain* chain,
                       const VarEnv& env, std::string* err) {
    // 3. Head projection (+ aggregation).
    std::vector<PelProgram> head_programs;
    for (const ExprPtr& a : rule.head.args) {
      PelProgram prog;
      if (a->kind == ExprKind::kAgg) {
        if (a->agg_var == "*") {
          prog.Emit(PelOp::kPushConst, prog.AddConst(Value::Int(1)));
        } else {
          auto it = env.find(a->agg_var);
          if (it == env.end()) {
            *err = "aggregate variable '" + a->agg_var + "' unbound in rule " + rule.id;
            return false;
          }
          prog.Emit(PelOp::kPushField, static_cast<uint32_t>(it->second));
        }
      } else if (!Compile(*a, env, &prog, err)) {
        *err = "rule " + rule.id + ": " + *err;
        return false;
      }
      head_programs.push_back(std::move(prog));
    }
    chain->driver->SetHead(rule.head.name, std::move(head_programs));

    if (agg.present) {
      // Empty-group emission (count<*> over zero matches) requires every
      // group field to be computable from the event alone.
      VarEnv event_env;
      for (size_t i = 0; i < event.args.size(); ++i) {
        const Expr& a = *event.args[i];
        if (a.kind == ExprKind::kVar && a.name != "_" && event_env.count(a.name) == 0) {
          event_env[a.name] = i;
        }
      }
      bool emit_empty = agg.kind == AggKind::kCount;
      std::vector<PelProgram> empty_programs;
      if (emit_empty) {
        for (size_t i = 0; i < rule.head.args.size(); ++i) {
          if (i == agg.head_position) {
            continue;
          }
          PelProgram prog;
          std::string dummy;
          if (!Compile(*rule.head.args[i], event_env, &prog, &dummy)) {
            emit_empty = false;
            empty_programs.clear();
            break;
          }
          empty_programs.push_back(std::move(prog));
        }
      }
      explain_ += pad_ + "aggwrap " + AggKindName(agg.kind) + "\n";
      chain->driver->SetAggregate(agg.kind, agg.head_position, std::move(empty_programs));
      if (agg.kind == AggKind::kMin || agg.kind == AggKind::kMax) {
        MarkDistinctProbes(*chain);
      }
    }

    // 4. The tail. A watched head gets its tap first, so every derivation
    // is logged exactly once with the producing rule variant's label.
    RuleDriver::Tail tail;
    tail.watch = MaybeHeadTap(rule.head.name, label);
    if (trig == TriggerKind::kDeltaRemove) {
      Table* head_table = FindTable(rule.head.name);
      P2_CHECK(counted && head_table != nullptr);  // remove variants are counted
      // Retraction only un-derives rows stored on this node; the tail
      // ignores a remote head, which ages out by soft-state expiry.
      tail.kind = RuleDriver::Tail::Kind::kRetract;
      tail.counts = GetSupportCounts(head_table);
      tail.local_addr = node_->addr_;
      explain_ += pad_ + "project " + rule.head.name + " -> retract-count (local)\n";
    } else if (rule.delete_head) {
      Table* table = FindTable(rule.head.name);
      if (table == nullptr) {
        *err = "delete head on non-materialized relation '" + rule.head.name + "'";
        return false;
      }
      tail.kind = RuleDriver::Tail::Kind::kDelete;
      tail.table = table;
      explain_ += pad_ + "project " + rule.head.name + " -> delete\n";
    } else if (counted && trig == TriggerKind::kDeltaInsert) {
      Table* head_table = FindTable(rule.head.name);
      P2_CHECK(head_table != nullptr);  // counted implies materialized head
      tail.kind = RuleDriver::Tail::Kind::kCountRoute;
      tail.counts = GetSupportCounts(head_table);
      tail.local_addr = node_->addr_;
      tail.route = Router();
      explain_ += pad_ + "project " + rule.head.name + " -> count+route\n";
    } else {
      tail.route = Router();
      explain_ += pad_ + "project " + rule.head.name + " -> route\n";
    }
    chain->driver->SetTail(std::move(tail));
    return true;
  }

  // A min/max strand keeps the first binding with the best value, and
  // every head it builds stays inside the strand until the fire ends. Two
  // rows of a join that agree on every column read after it drive
  // identical pure evaluations, so the second can never beat the first:
  // each such join probes only the first row of each distinct projection
  // onto the columns read. That holds only while nothing after the join is
  // volatile (each row must take its own RNG draw or clock reading), and
  // it saves nothing when the read and probed columns cover the primary
  // key.
  void MarkDistinctProbes(const Chain& chain) {
    for (auto j = chain.joins.rbegin(); j != chain.joins.rend(); ++j) {
      RuleDriver::Reads reads = chain.driver->ReadsAfter(j->op);
      if (reads.is_volatile) {
        continue;
      }
      std::vector<size_t> read;
      for (size_t c = 0; c < j->arity && j->base + c < reads.slots.size(); ++c) {
        if (reads.slots[j->base + c]) {
          read.push_back(c);
        }
      }
      std::vector<size_t> bound = j->key_cols;
      bound.insert(bound.end(), read.begin(), read.end());
      if (j->table->PrimaryKeyCovered(bound)) {
        continue;
      }
      explain_.insert(j->explain_at, " distinct " + ColsToString(read));
      chain.driver->SetDistinct(j->op, std::move(read));
    }
  }

  // Step 5 of rule planning: connects the rule driver to its event source.
  bool WireEvent(const RuleAst& rule, const PredicateAst& event, TriggerKind trig,
                 bool counted, RuleDriver* driver, std::string* err) {
    if (trig == TriggerKind::kPeriodic) {
      double period = 0;
      uint64_t count = 0;
      if (event.args.size() < 3 || event.args[2]->kind != ExprKind::kConst) {
        *err = "rule " + rule.id + ": periodic() needs a literal period";
        return false;
      }
      period = event.args[2]->value.AsDouble();
      if (event.args.size() >= 4) {
        if (event.args[3]->kind != ExprKind::kConst) {
          *err = "rule " + rule.id + ": periodic() repeat count must be literal";
          return false;
        }
        count = static_cast<uint64_t>(event.args[3]->value.AsInt());
      }
      std::vector<Value> extras;
      for (size_t i = 2; i < event.args.size(); ++i) {
        extras.push_back(event.args[i]->value);
      }
      auto* src = graph_.Add<PeriodicSource>(Gensym("periodic"), node_->executor_,
                                             &node_->rng_, node_->addr_, period, count,
                                             /*initial_delay=*/0.0, std::move(extras));
      graph_.Connect(src, 0, driver, 0);
      node_->periodics_.push_back(src);
    } else if (trig == TriggerKind::kDeltaInsert) {
      Table* table = FindTable(event.name);
      P2_CHECK(table != nullptr);
      if (counted) {
        // Counting listener: a genuinely new body row (insert, or replace
        // that changed content) derives NEW supports; a TTL refresh of an
        // identical row re-derives the head — the refresh must propagate —
        // without touching counts. The strand keeps the mode per fire, so
        // re-entrant deltas nest correctly.
        table->AddTypedListener([driver](const TableDelta& d) {
          if (d.kind == TableDelta::Kind::kRemove) {
            return;
          }
          bool fresh = d.kind == TableDelta::Kind::kInsert ||
                       (d.old_tuple != nullptr && !d.old_tuple->SameAs(*d.tuple));
          driver->Fire(d.tuple, /*ttl=*/!fresh);
        });
      } else {
        table->AddDeltaListener([driver](const TuplePtr& t) { driver->Fire(t, /*ttl=*/false); });
      }
    } else if (trig == TriggerKind::kDeltaRemove) {
      Table* table = FindTable(event.name);
      P2_CHECK(table != nullptr && counted);
      // Counting remove listener. Three retraction sources: real removals
      // (delete/eviction) retract-and-delete-at-zero; a replace that changed
      // content retracts the OLD row's derivations (the insert listener,
      // attached earlier, already counted the new ones — inc before dec, so
      // a row passing through the same key never dips to zero transiently);
      // TTL expiry decrements WITHOUT deleting, so counts track live
      // supports exactly while expiry stays non-retracting.
      table->AddTypedListener([driver](const TableDelta& d) {
        if (d.kind == TableDelta::Kind::kRemove) {
          driver->Fire(d.tuple, /*ttl=*/d.cause == TableDelta::Cause::kExpiry);
        } else if (d.kind == TableDelta::Kind::kReplace && d.old_tuple != nullptr &&
                   !d.old_tuple->SameAs(*d.tuple)) {
          driver->Fire(d.old_tuple, /*ttl=*/false);
        }
      });
    } else {
      // Stream event: demux -> (shared per-name dup) -> driver.
      DupElement*& dup = node_->event_dups_[event.name];
      if (dup == nullptr) {
        dup = graph_.Add<DupElement>(Gensym("dup:" + event.name));
        graph_.Connect(node_->demux_, node_->demux_->PortFor(event.name), dup, 0);
      }
      graph_.Connect(dup, static_cast<int>(dup->num_outputs()), driver, 0);
    }
    return true;
  }

  // Orders and appends the remaining body terms. Cheap selective terms
  // (filters, assignments, anti-joins) apply as soon as their variables
  // are bound; positive joins are then chosen greedily by estimated
  // fanout, so the narrowest probe runs first and intermediate results
  // stay small. With `by_cost` false (bodies with volatile expressions)
  // terms keep rule-text order instead: the first processable term wins,
  // joins included.
  bool OrderBody(const RuleAst& rule, std::vector<const BodyTerm*>* remaining, Chain* chain,
                 VarEnv* env, size_t* width, bool by_cost, std::string* err) {
    while (!remaining->empty()) {
      // First processable term in source order; under cost ordering,
      // positive joins wait until nothing cheaper is ready.
      int next = -1;
      for (size_t i = 0; i < remaining->size() && next < 0; ++i) {
        const BodyTerm& term = *(*remaining)[i];
        bool join = std::holds_alternative<PredicateAst>(term) &&
                    !std::get<PredicateAst>(term).negated;
        if (join ? !by_cost : TermReady(term, *env)) {
          next = static_cast<int>(i);
        }
      }
      if (next < 0 && by_cost) {
        next = CheapestJoin(*remaining, *env);
      }
      if (next < 0) {
        *err = "rule " + rule.id + ": cannot order body terms (unbound variables)";
        return false;
      }
      if (!ApplyTerm(*(*remaining)[next], chain, env, width, err)) {
        return false;
      }
      remaining->erase(remaining->begin() + next);
    }
    return true;
  }

  // True when a filter, assignment or anti-join can run under `env`: every
  // variable it reads is bound.
  bool TermReady(const BodyTerm& term, const VarEnv& env) {
    if (std::holds_alternative<PredicateAst>(term)) {
      for (const ExprPtr& a : std::get<PredicateAst>(term).args) {
        if (a->kind == ExprKind::kVar && a->name != "_" && env.count(a->name) == 0) {
          return false;
        }
      }
      return true;
    }
    if (std::holds_alternative<AssignAst>(term)) {
      return ExprBound(*std::get<AssignAst>(term).expr, env);
    }
    return ExprBound(*std::get<ExprPtr>(term), env);
  }

  // Index of the processable positive join with the lowest estimated
  // fanout (ties: source order), or -1 when none can run yet.
  int CheapestJoin(const std::vector<const BodyTerm*>& remaining, const VarEnv& env) {
    int best = -1;
    double best_est = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < remaining.size(); ++i) {
      if (!std::holds_alternative<PredicateAst>(*remaining[i])) {
        continue;
      }
      const PredicateAst& p = std::get<PredicateAst>(*remaining[i]);
      if (p.negated || !PredArgsBound(p, env)) {
        continue;
      }
      Table* table = FindTable(p.name);
      double est = table == nullptr ? std::numeric_limits<double>::max()
                                    : table->EstimateFanout(BoundCols(p, env));
      if (est < best_est) {
        best_est = est;
        best = static_cast<int>(i);
      }
    }
    return best;
  }

  bool ApplyTerm(const BodyTerm& term, Chain* chain, VarEnv* env, size_t* width,
                 std::string* err) {
    if (std::holds_alternative<PredicateAst>(term)) {
      return AppendTableTerm(std::get<PredicateAst>(term), chain, env, width, err);
    }
    if (std::holds_alternative<AssignAst>(term)) {
      return AppendAssign(std::get<AssignAst>(term), chain, env, width, err);
    }
    return AppendFilter(std::get<ExprPtr>(term), chain, *env, err);
  }

  // A head tap for `pred` when it is watched, or an empty function.
  // `label` is the producing rule's chain label, so watch output
  // attributes every tuple to the exact rule variant that derived it.
  HeadFn MaybeHeadTap(const std::string& pred, const std::string& label) {
    if (watched_.count(pred) == 0) {
      return nullptr;
    }
    explain_ += "    watch tap on head " + pred + "\n";
    Executor* executor = node_->executor_;
    std::string addr = node_->addr_;
    return [executor, addr, label](const TuplePtr& t) {
      obs::EmitWatch(obs::FormatWatchLine(executor->Now(), addr, "head", label, *t));
    };
  }

  const ProgramAst& program_;
  P2Node* node_;
  Graph& graph_;
  // Explain indentation for the body lines under each rule.
  const std::string pad_ = "    ";
  // Tables in a rule-dependency cycle: their rules fall back to TTL decay
  // instead of counted retraction (non-recursive strata only).
  std::set<std::string> recursive_tables_;
  std::string explain_;
  std::set<std::string> watched_;
  int gensym_ = 0;
};

bool Planner::Install(const ProgramAst& program, P2Node* node, std::string* err) {
  PlanBuilder builder(program, node);
  return builder.Run(err);
}

}  // namespace p2
