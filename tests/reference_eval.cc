#include "tests/reference_eval.h"

#include <unordered_map>
#include <utility>

#include "src/overlog/compile_expr.h"
#include "src/overlog/localizer.h"
#include "src/overlog/parser.h"
#include "src/pel/vm.h"
#include "src/runtime/logging.h"

namespace p2 {
namespace {

bool Volatile(const Expr& e) {
  if (e.kind == ExprKind::kCall && (e.name == "f_rand" || e.name == "f_randInt" ||
                                    e.name == "f_coinFlip" || e.name == "f_now")) {
    return true;
  }
  for (const ExprPtr& a : e.args) {
    if (a != nullptr && Volatile(*a)) {
      return true;
    }
  }
  return false;
}

// True when every variable an assignment or filter reads is bound.
// Predicates are always ready: they bind.
bool Ready(const BodyTerm& term, const VarEnv& env) {
  if (std::holds_alternative<PredicateAst>(term)) {
    return true;
  }
  if (std::holds_alternative<AssignAst>(term)) {
    return ExprBound(*std::get<AssignAst>(term).expr, env);
  }
  return ExprBound(*std::get<ExprPtr>(term), env);
}

TuplePtr Extend(const TuplePtr& binding, const std::vector<Value>& more) {
  std::vector<Value> fields = binding->fields();
  fields.insert(fields.end(), more.begin(), more.end());
  return Tuple::Make("ref_binding", std::move(fields));
}

}  // namespace

bool ReferenceEvaluator::Load(const std::string& program, const std::string& addr,
                              std::string* err) {
  addr_ = addr;
  ProgramAst ast;
  if (!ParseOverLog(program, &ast, err) || !LocalizeProgram(&ast, err)) {
    return false;
  }
  for (const RuleAst& rule : ast.rules) {
    if (!CompileRule(rule, ast, err)) {
      return false;
    }
  }
  return true;
}

bool ReferenceEvaluator::CompileRule(const RuleAst& rule, const ProgramAst& program,
                                     std::string* err) {
  auto reject = [&](const std::string& why) {
    *err = "outside the reference fragment (" + why + "): " + RuleToString(rule);
    return false;
  };
  if (rule.IsFact() || rule.delete_head) {
    return reject("fact or delete rule");
  }
  Rule out;
  out.head = rule.head.name;
  for (size_t i = 0; i < rule.head.args.size(); ++i) {
    const Expr& a = *rule.head.args[i];
    if (a.kind != ExprKind::kAgg) {
      if (Volatile(a)) {
        return reject("volatile expression");
      }
      continue;
    }
    if (out.agg_field >= 0 || (a.name != "min" && a.name != "max")) {
      return reject("aggregate other than one min or max");
    }
    out.agg_field = static_cast<int>(i);
    out.agg_min = a.name == "min";
  }
  // Source order, except that the event predicate goes first and a term
  // that reads an unbound variable waits for the predicate binding it.
  std::vector<const BodyTerm*> terms;
  for (const BodyTerm& term : rule.body) {
    if (std::holds_alternative<PredicateAst>(term)) {
      const PredicateAst& p = std::get<PredicateAst>(term);
      if (p.negated || p.name == "periodic") {
        return reject("negated or periodic predicate");
      }
      if (!program.IsMaterialized(p.name)) {
        if (!out.event.empty()) {
          return reject("two stream predicates");
        }
        out.event = p.name;
        out.event_arity = p.args.size();
        terms.insert(terms.begin(), &term);
        continue;
      }
    } else if (Volatile(std::holds_alternative<AssignAst>(term)
                            ? *std::get<AssignAst>(term).expr
                            : *std::get<ExprPtr>(term))) {
      return reject("volatile expression");
    }
    terms.push_back(&term);
  }
  if (out.agg_field >= 0 && (!out.event.empty() || rule.body.size() != 1)) {
    return reject("aggregate over anything but one table predicate");
  }

  VarEnv env;
  size_t width = 0;
  while (!terms.empty()) {
    size_t next = 0;
    while (next < terms.size() && !Ready(*terms[next], env)) {
      ++next;
    }
    if (next == terms.size()) {
      return reject("unbound variables");
    }
    const BodyTerm& term = *terms[next];
    terms.erase(terms.begin() + static_cast<long>(next));
    Step step;
    if (std::holds_alternative<AssignAst>(term)) {
      const AssignAst& a = std::get<AssignAst>(term);
      if (env.count(a.var) > 0 || !CompileExpr(*a.expr, env, &step.expr, err)) {
        return reject("bad assignment");
      }
      step.kind = Step::kAssign;
      env[a.var] = width++;
    } else if (std::holds_alternative<ExprPtr>(term)) {
      if (!CompileExpr(*std::get<ExprPtr>(term), env, &step.expr, err)) {
        return false;
      }
      step.kind = Step::kFilter;
    } else {
      const PredicateAst& p = std::get<PredicateAst>(term);
      step.kind = Step::kJoin;
      step.relation = p.name;
      size_t arity = p.args.size();
      step.has_key.assign(arity, false);
      step.key.resize(arity);
      step.same_as.assign(arity, -1);
      VarEnv fresh;  // variables first bound by this predicate -> column
      for (size_t c = 0; c < arity; ++c) {
        const Expr& a = *p.args[c];
        if (a.kind == ExprKind::kVar && a.name == "_") {
          continue;
        }
        if (a.kind == ExprKind::kVar && env.count(a.name) == 0) {
          auto it = fresh.find(a.name);
          if (it == fresh.end()) {
            fresh[a.name] = c;
          } else {
            step.same_as[c] = static_cast<int>(it->second);
          }
          continue;
        }
        step.has_key[c] = true;
        if (!CompileExpr(a, env, &step.key[c], err)) {
          return false;
        }
      }
      for (const auto& [var, col] : fresh) {
        env[var] = width + col;
      }
      width += arity;
    }
    out.steps.push_back(std::move(step));
  }

  for (const ExprPtr& a : rule.head.args) {
    PelProgram prog;
    ExprPtr field = a->kind == ExprKind::kAgg ? Expr::Var(a->agg_var) : a;
    if (!CompileExpr(*field, env, &prog, err)) {
      return false;
    }
    out.head_fields.push_back(std::move(prog));
  }
  (out.event.empty() ? table_rules_ : event_rules_).push_back(std::move(out));
  return true;
}

void ReferenceEvaluator::Enumerate(const Rule& rule, size_t i, const TuplePtr& binding,
                                   const RefDatabase& db, const std::vector<Value>* event,
                                   std::vector<TuplePtr>* out) const {
  if (i == rule.steps.size()) {
    out->push_back(binding);
    return;
  }
  const Step& step = rule.steps[i];
  PelVm vm(PelEnv{nullptr, nullptr, &addr_});
  switch (step.kind) {
    case Step::kAssign:
      Enumerate(rule, i + 1, Extend(binding, {vm.Eval(step.expr, binding.get())}), db, event,
                out);
      return;
    case Step::kFilter:
      if (vm.EvalBool(step.expr, binding.get())) {
        Enumerate(rule, i + 1, binding, db, event, out);
      }
      return;
    case Step::kJoin:
      break;
  }
  std::vector<Value> want(step.has_key.size());
  for (size_t c = 0; c < want.size(); ++c) {
    if (step.has_key[c]) {
      want[c] = vm.Eval(step.key[c], binding.get());
    }
  }
  auto join = [&](const std::vector<Value>& row) {
    if (row.size() != want.size()) {
      return;
    }
    for (size_t c = 0; c < row.size(); ++c) {
      if ((step.has_key[c] && !(row[c] == want[c])) ||
          (step.same_as[c] >= 0 && !(row[c] == row[static_cast<size_t>(step.same_as[c])]))) {
        return;
      }
    }
    Enumerate(rule, i + 1, Extend(binding, row), db, event, out);
  };
  if (step.relation == rule.event) {
    join(*event);
  } else if (auto it = db.find(step.relation); it != db.end()) {
    for (const std::vector<Value>& row : it->second) {
      join(row);
    }
  }
}

std::vector<std::vector<Value>> ReferenceEvaluator::Heads(
    const Rule& rule, const std::vector<TuplePtr>& bindings) const {
  PelVm vm(PelEnv{nullptr, nullptr, &addr_});
  std::vector<std::vector<Value>> rows;
  for (const TuplePtr& b : bindings) {
    std::vector<Value> row;
    for (const PelProgram& prog : rule.head_fields) {
      row.push_back(vm.Eval(prog, b.get()));
    }
    rows.push_back(std::move(row));
  }
  if (rule.agg_field < 0) {
    return rows;
  }
  // Group by every other head field and keep each group's extremum.
  size_t at = static_cast<size_t>(rule.agg_field);
  std::unordered_map<std::vector<Value>, Value, ValueVecHash, ValueVecEq> best;
  for (std::vector<Value>& row : rows) {
    Value v = row[at];
    row.erase(row.begin() + static_cast<long>(at));
    auto [it, fresh] = best.try_emplace(row, v);
    int cmp = Value::Compare(v, it->second);
    if (!fresh && (rule.agg_min ? cmp < 0 : cmp > 0)) {
      it->second = v;
    }
  }
  std::vector<std::vector<Value>> out;
  for (const auto& [key, v] : best) {
    std::vector<Value> row = key;
    row.insert(row.begin() + static_cast<long>(at), v);
    out.push_back(std::move(row));
  }
  return out;
}

RefDatabase ReferenceEvaluator::Fixpoint(const RefDatabase& base) const {
  const Value local = Value::Addr(addr_);
  const TuplePtr empty = Tuple::Make("ref_binding", {});
  RefDatabase db = base;
  for (int round = 0; round < 10000; ++round) {
    // Every derived relation is recomputed from scratch each round, so an
    // aggregate sees the previous round's complete state.
    RefDatabase next = base;
    for (const Rule& rule : table_rules_) {
      std::vector<TuplePtr> bindings;
      Enumerate(rule, 0, empty, db, nullptr, &bindings);
      RefRelation& head = next[rule.head];
      for (std::vector<Value>& row : Heads(rule, bindings)) {
        if (row[0] == local) {
          head.insert(std::move(row));
        }
      }
    }
    if (next == db) {
      return db;
    }
    db = std::move(next);
  }
  P2_FATAL("reference fixpoint did not converge");
}

std::vector<TuplePtr> ReferenceEvaluator::Fire(const Tuple& event, const RefDatabase& db) const {
  std::vector<TuplePtr> out;
  const TuplePtr empty = Tuple::Make("ref_binding", {});
  for (const Rule& rule : event_rules_) {
    if (rule.event != event.name() || rule.event_arity != event.size()) {
      continue;
    }
    std::vector<TuplePtr> bindings;
    Enumerate(rule, 0, empty, db, &event.fields(), &bindings);
    for (std::vector<Value>& row : Heads(rule, bindings)) {
      out.push_back(Tuple::Make(rule.head, std::move(row)));
    }
  }
  return out;
}

}  // namespace p2
