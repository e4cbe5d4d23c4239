#include "src/dataflow/rel_elements.h"

#include <algorithm>
#include <chrono>

#include "src/obs/registry.h"
#include "src/runtime/logging.h"

namespace p2 {

// --- Aggregate arithmetic ---

Value AggInit(AggKind kind, const Value& first) {
  switch (kind) {
    case AggKind::kMin:
    case AggKind::kMax:
      return first;
    case AggKind::kCount:
      return Value::Int(1);
    case AggKind::kSum:
    case AggKind::kAvg:
      return first;
  }
  return first;
}

Value AggStep(AggKind kind, const Value& acc, const Value& next, int64_t count_so_far) {
  (void)count_so_far;
  switch (kind) {
    case AggKind::kMin:
      return Value::Compare(next, acc) < 0 ? next : acc;
    case AggKind::kMax:
      return Value::Compare(next, acc) > 0 ? next : acc;
    case AggKind::kCount:
      return Value::Add(acc, Value::Int(1));
    case AggKind::kSum:
    case AggKind::kAvg:
      return Value::Add(acc, next);
  }
  return acc;
}

Value AggFinal(AggKind kind, const Value& acc, int64_t count) {
  if (kind == AggKind::kAvg && count > 0) {
    return Value::Div(acc, Value::Int(count));
  }
  return acc;
}

// --- InsertElement ---

void InsertElement::Push(int port, const TuplePtr& t) {
  (void)port;
  table_->Insert(t);
}

// --- RuleDriver ---

namespace {

// Only locally addressed heads are counted: a remotely addressed tuple is
// stored (and counted, if at all) by the node it ships to, and retraction
// is local-only to match.
bool AddressedTo(const Tuple& t, const std::string& addr) {
  return t.size() > 0 && t.field(0).type() == ValueType::kAddr && t.field(0).AsAddr() == addr;
}

// True if evaluating `p` twice can give different results: it draws from
// the RNG or reads the clock.
bool IsVolatile(const PelProgram& p) {
  for (const PelInstr& in : p.code()) {
    if (in.op == PelOp::kRand || in.op == PelOp::kRandInt || in.op == PelOp::kCoinFlip ||
        in.op == PelOp::kNow) {
      return true;
    }
  }
  return false;
}

// Marks the frame slots `p` reads; notes whether it is volatile.
void NoteReads(const PelProgram& p, RuleDriver::Reads* reads) {
  for (const PelInstr& in : p.code()) {
    if (in.op == PelOp::kPushField) {
      if (reads->slots.size() <= in.arg) {
        reads->slots.resize(in.arg + 1);
      }
      reads->slots[in.arg] = true;
    }
  }
  reads->is_volatile = reads->is_volatile || IsVolatile(p);
}

}  // namespace

void RuleDriver::AddFilter(PelProgram pred) {
  pred.Lower();  // compile to register form once, at plan time
  Op& op = ops_.emplace_back();
  op.kind = Op::Kind::kFilter;
  op.expr = std::move(pred);
}

void RuleDriver::AddAssign(PelProgram value) {
  value.Lower();
  Op& op = ops_.emplace_back();
  op.kind = Op::Kind::kAssign;
  op.expr = std::move(value);
}

size_t RuleDriver::AddJoin(Table* table, std::vector<JoinKey> keys) {
  AddProbe(Op::Kind::kJoin, table, std::move(keys));
  return ops_.size() - 1;
}

void RuleDriver::AddAntiJoin(Table* table, std::vector<JoinKey> keys) {
  AddProbe(Op::Kind::kAntiJoin, table, std::move(keys));
}

void RuleDriver::AddProbe(Op::Kind kind, Table* table, std::vector<JoinKey> keys) {
  Op& op = ops_.emplace_back();
  op.kind = kind;
  op.table = table;
  for (JoinKey& k : keys) {
    k.expr.Lower();
    op.key_cols.push_back(k.table_col);
    op.key_exprs.push_back(std::move(k.expr));
  }
  if (!op.key_cols.empty()) {
    table->AddIndex(op.key_cols);
  }
}

void RuleDriver::SetHead(const std::string& name, std::vector<PelProgram> fields) {
  for (const PelProgram& p : fields) {
    p.Lower();
  }
  head_schema_ = InternSchema(name);
  head_ = std::move(fields);
}

void RuleDriver::SetAggregate(AggKind kind, size_t position,
                              std::vector<PelProgram> empty_fields) {
  P2_CHECK(position < head_.size());
  for (const PelProgram& p : empty_fields) {
    p.Lower();
  }
  bool head_volatile = false;
  for (const PelProgram& p : head_) {
    head_volatile = head_volatile || IsVolatile(p);
  }
  agg_ = std::make_unique<Aggregate>(
      Aggregate{kind, position, std::move(empty_fields), head_volatile, {}});
}

RuleDriver::Reads RuleDriver::ReadsAfter(size_t op) const {
  Reads reads;
  for (size_t i = op + 1; i < ops_.size(); ++i) {
    NoteReads(ops_[i].expr, &reads);
    for (const PelProgram& k : ops_[i].key_exprs) {
      NoteReads(k, &reads);
    }
  }
  for (const PelProgram& p : head_) {
    NoteReads(p, &reads);
  }
  return reads;
}

void RuleDriver::SetDistinct(size_t op, std::vector<size_t> cols) {
  P2_CHECK(agg_ != nullptr && op < ops_.size() && ops_[op].kind == Op::Kind::kJoin);
  ops_[op].distinct = static_cast<int>(agg_->distinct_cols.size());
  agg_->distinct_cols.push_back(std::move(cols));
}

void RuleDriver::Push(int port, const TuplePtr& t) {
  (void)port;
  Fire(t, /*ttl=*/false);
}

void RuleDriver::Fire(const TuplePtr& t, bool ttl) {
  if (event_arity_ != 0 && t->size() != event_arity_) {
    ++malformed_;
    if (obs_malformed_ != nullptr) {
      obs_malformed_->Inc();
    }
    return;
  }
  ++fires_;
  if (obs_fires_ != nullptr) {
    obs_fires_->Inc();
  }
  // Latency is sampled (every 16th fire) so the steady_clock reads stay off
  // the common path; the histogram is log-scale, so sampling loses little.
  const bool timed = obs_fire_ns_ != nullptr && (fires_ & 0xF) == 0;
  std::chrono::steady_clock::time_point t0;
  if (timed) {
    t0 = std::chrono::steady_clock::now();
  }
  if (depth_ == frames_.size()) {
    frames_.push_back(std::make_unique<Frame>());
    frames_.back()->rows.resize(ops_.size());
  }
  Frame& f = *frames_[depth_++];
  f.ttl = ttl;
  if (f.slots.size() < t->size()) {
    f.slots.resize(t->size());
  }
  std::copy(t->fields().begin(), t->fields().end(), f.slots.begin());
  if (agg_ != nullptr && f.fold == nullptr) {
    f.fold = std::make_unique<Fold>();
  }
  Run(0, f, t->size());
  if (agg_ != nullptr) {
    if (TuplePtr result = TakeFolded(f, t->size())) {
      Emit(result, f);
    }
  }
  --depth_;
  if (timed) {
    obs_fire_ns_->Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }
}

void RuleDriver::EvalKeys(const Op& op, Frame& f, size_t width) {
  f.keys.clear();
  for (const PelProgram& k : op.key_exprs) {
    f.keys.push_back(vm_.Eval(k, f.slots.data(), width));
  }
}

void RuleDriver::Probe(const Op& op, Frame& f, size_t width, std::vector<TuplePtr>* out) {
  EvalKeys(op, f, width);
  if (op.distinct >= 0) {
    op.table->LookupDistinct(op.key_cols, f.keys,
                             agg_->distinct_cols[static_cast<size_t>(op.distinct)], out);
  } else if (op.key_cols.empty()) {
    op.table->Scan(out);
  } else {
    op.table->LookupByCols(op.key_cols, f.keys, out);
  }
}

void RuleDriver::Run(size_t i, Frame& f, size_t width) {
  for (; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    switch (op.kind) {
      case Op::Kind::kFilter:
        if (!vm_.Eval(op.expr, f.slots.data(), width).AsBool()) {
          return;
        }
        break;
      case Op::Kind::kAssign:
        if (f.slots.size() == width) {
          f.slots.emplace_back();
        }
        f.slots[width] = vm_.Eval(op.expr, f.slots.data(), width);
        ++width;
        break;
      case Op::Kind::kAntiJoin: {
        bool any;
        if (op.key_cols.empty()) {
          any = op.table->size() > 0;
        } else {
          EvalKeys(op, f, width);
          any = op.table->HasMatch(op.key_cols, f.keys);
        }
        if (any) {
          return;
        }
        break;
      }
      case Op::Kind::kJoin: {
        // Deeper ops use their own buffers, and a nested fire its own
        // frame, so this snapshot holds still while the loop runs.
        std::vector<TuplePtr>& rows = f.rows[i];
        Probe(op, f, width, &rows);
        for (const TuplePtr& row : rows) {
          if (f.slots.size() < width + row->size()) {
            f.slots.resize(width + row->size());
          }
          std::copy(row->fields().begin(), row->fields().end(), f.slots.begin() + width);
          Run(i + 1, f, width + row->size());
        }
        rows.clear();
        return;
      }
    }
  }
  if (agg_ != nullptr) {
    FoldBinding(f, width);
    return;
  }
  Emit(Tuple::Build(head_schema_, head_.size(),
                    [&](Value* out) {
                      for (size_t k = 0; k < head_.size(); ++k) {
                        out[k] = vm_.Eval(head_[k], f.slots.data(), width);
                      }
                    }),
       f);
}

void RuleDriver::Emit(const TuplePtr& head, const Frame& f) {
  CountOut();
  if (tail_.watch) {
    tail_.watch(head);
  }
  switch (tail_.kind) {
    case Tail::Kind::kRoute:
      break;
    case Tail::Kind::kCountRoute:
      if (!f.ttl && AddressedTo(*head, tail_.local_addr)) {
        tail_.counts->Inc(*head);
      }
      break;
    case Tail::Kind::kRetract:
      if (AddressedTo(*head, tail_.local_addr)) {
        tail_.counts->Dec(*head, /*retract=*/!f.ttl);
      }
      return;
    case Tail::Kind::kDelete:
      tail_.table->DeleteMatching(*head);
      return;
  }
  if (tail_.route) {
    tail_.route(head);
  }
}

void RuleDriver::HeadFields(const Frame& f, size_t width, std::vector<Value>* out) {
  out->resize(head_.size());
  for (size_t k = 0; k < head_.size(); ++k) {
    (*out)[k] = vm_.Eval(head_[k], f.slots.data(), width);
  }
}

void RuleDriver::FoldBinding(Frame& f, size_t width) {
  const Aggregate& agg = *agg_;
  Fold& fold = *f.fold;
  // A pure head is built only when kept; its aggregate field alone decides.
  if (agg.head_volatile) {
    HeadFields(f, width, &fold.candidate);
  }
  Value v = agg.head_volatile ? fold.candidate[agg.position]
                              : vm_.Eval(head_[agg.position], f.slots.data(), width);
  bool keep = fold.count == 0;
  switch (agg.kind) {
    case AggKind::kMin:
      keep = keep || Value::Compare(v, fold.best[agg.position]) < 0;
      break;
    case AggKind::kMax:
      keep = keep || Value::Compare(v, fold.best[agg.position]) > 0;
      break;
    case AggKind::kCount:
    case AggKind::kSum:
    case AggKind::kAvg:
      fold.acc =
          fold.count == 0 ? AggInit(agg.kind, v) : AggStep(agg.kind, fold.acc, v, fold.count);
      break;
  }
  ++fold.count;
  if (keep) {
    if (agg.head_volatile) {
      fold.best.swap(fold.candidate);
    } else {
      HeadFields(f, width, &fold.best);
    }
  }
}

TuplePtr RuleDriver::TakeFolded(Frame& f, size_t event_width) {
  const Aggregate& agg = *agg_;
  Fold& fold = *f.fold;
  if (fold.count == 0) {
    if (agg.empty_fields.empty()) {
      return nullptr;
    }
    // The frame's first `event_width` slots still hold the event.
    return Tuple::Build(head_schema_, head_.size(), [&](Value* out) {
      for (size_t i = 0; i < head_.size(); ++i) {
        if (i == agg.position) {
          out[i] = Value::Int(0);
        } else {
          size_t pi = i < agg.position ? i : i - 1;
          out[i] = vm_.Eval(agg.empty_fields[pi], f.slots.data(), event_width);
        }
      }
    });
  }
  if (agg.kind == AggKind::kCount || agg.kind == AggKind::kSum || agg.kind == AggKind::kAvg) {
    fold.best[agg.position] = AggFinal(agg.kind, fold.acc, fold.count);
  }
  fold.count = 0;
  fold.acc = Value::Null();
  // Moves the fields out and keeps `best`'s buffer for the next fire.
  return Tuple::Build(head_schema_, fold.best.size(), [&](Value* out) {
    std::move(fold.best.begin(), fold.best.end(), out);
  });
}

// --- TableAggWatcher ---

TableAggWatcher::TableAggWatcher(std::string name, Table* table, std::vector<size_t> group_cols,
                                 AggKind kind, size_t agg_col, std::string out_name)
    : Element(std::move(name)),
      table_(table),
      group_cols_(std::move(group_cols)),
      kind_(kind),
      agg_col_(agg_col),
      out_schema_(InternSchema(out_name)) {}

void TableAggWatcher::Attach() {
  // Seed running state from the live rows (Scan purges expired ones first),
  // then subscribe. In practice the planner attaches before any facts are
  // installed, so the table is empty here.
  for (const TuplePtr& row : table_->Scan()) {
    ApplyRow(row, +1);
  }
  table_->AddTypedListener([this](const TableDelta& d) { OnDelta(d); });
}

void TableAggWatcher::OnDelta(const TableDelta& d) {
  pending_.push_back(d);
  if (processing_) {
    return;  // the active invocation drains the queue in arrival order
  }
  processing_ = true;
  while (!pending_.empty()) {
    TableDelta next = std::move(pending_.front());
    pending_.pop_front();
    ProcessDelta(next);
  }
  processing_ = false;
}

void TableAggWatcher::ProcessDelta(const TableDelta& d) {
  switch (d.kind) {
    case TableDelta::Kind::kInsert:
      EmitGroup(ApplyRow(d.tuple, +1));
      break;
    case TableDelta::Kind::kRemove:
      EmitGroup(ApplyRow(d.tuple, -1));
      break;
    case TableDelta::Kind::kReplace: {
      if (d.old_tuple->SameAs(*d.tuple)) {
        return;  // TTL refresh of an identical row: no aggregate change
      }
      std::vector<Value> old_key = ApplyRow(d.old_tuple, -1);
      std::vector<Value> new_key = ApplyRow(d.tuple, +1);
      if (!(old_key == new_key)) {
        EmitGroup(old_key);
      }
      EmitGroup(new_key);
      break;
    }
  }
}

std::vector<Value> TableAggWatcher::ApplyRow(const TuplePtr& row, int sign) {
  std::vector<Value> key = row->KeyOf(group_cols_);
  Value input = agg_col_ < row->size() ? row->field(agg_col_) : Value::Null();
  Group& g = groups_[key];
  g.rows += sign;
  switch (kind_) {
    case AggKind::kCount:
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      if (sign > 0) {
        // A fresh group takes the first value as-is, so the accumulator
        // keeps the input's numeric type (int sums stay int).
        g.sum = g.rows == 1 ? input : Value::Add(g.sum, input);
      } else {
        g.sum = Value::Sub(g.sum, input);
      }
      break;
    case AggKind::kMin:
    case AggKind::kMax: {
      auto it = g.support.try_emplace(input, 0).first;
      it->second += sign;
      if (it->second <= 0) {
        g.support.erase(it);
      }
      break;
    }
  }
  if (g.rows <= 0) {
    groups_.erase(key);
  }
  return key;
}

void TableAggWatcher::EmitGroup(const std::vector<Value>& key) {
  auto git = groups_.find(key);
  if (git == groups_.end()) {
    // Group vanished: for counts, report 0 so downstream thresholds reset;
    // extremal/sum aggregates have no meaningful "empty" output — just
    // forget them so a future row re-emits.
    auto prev = last_.find(key);
    if (prev == last_.end()) {
      return;
    }
    if (kind_ == AggKind::kCount) {
      Emit(key, Value::Int(0));
    }
    last_.erase(prev);
    return;
  }
  const Group& g = git->second;
  Value v;
  switch (kind_) {
    case AggKind::kCount:
      v = Value::Int(g.rows);
      break;
    case AggKind::kSum:
      v = g.sum;
      break;
    case AggKind::kAvg:
      v = Value::Div(g.sum, Value::Int(g.rows));
      break;
    case AggKind::kMin:
      v = g.support.begin()->first;
      break;
    case AggKind::kMax:
      v = g.support.rbegin()->first;
      break;
  }
  auto prev = last_.find(key);
  if (prev != last_.end() && prev->second == v) {
    return;
  }
  last_[key] = v;
  Emit(key, v);
}

void TableAggWatcher::Emit(const std::vector<Value>& key, const Value& v) {
  CountOut();
  if (route_) {
    route_(Tuple::Build(out_schema_, key.size() + 1, [&](Value* out) {
      std::copy(key.begin(), key.end(), out);
      out[key.size()] = v;
    }));
  }
}

}  // namespace p2
