#include "src/table/table.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/obs/registry.h"
#include "src/runtime/logging.h"

namespace p2 {
namespace {

// Value identity: same type and same payload bits, lists element-wise.
// Stricter than operator==, under which Int(1) == Double(1.0) and
// 0.0 == -0.0, although each side drives different evaluations.
bool Identical(const Value& a, const Value& b) {
  if (a.type() != b.type()) {
    return false;
  }
  switch (a.type()) {
    case ValueType::kDouble: {
      double x = a.AsDouble();
      double y = b.AsDouble();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case ValueType::kList: {
      const ValueList& x = a.AsList();
      const ValueList& y = b.AsList();
      if (x.size() != y.size()) {
        return false;
      }
      for (size_t i = 0; i < x.size(); ++i) {
        if (!Identical(x[i], y[i])) {
          return false;
        }
      }
      return true;
    }
    default:
      return a == b;
  }
}

}  // namespace

Table::Table(TableSpec spec, Executor* executor)
    : spec_(std::move(spec)),
      primary_cols_(spec_.key_positions.empty() ? nullptr : &spec_.key_positions),
      executor_(executor) {
  P2_CHECK(executor_ != nullptr);
}

Table::~Table() {
  if (expiry_timer_ != kInvalidTimer) {
    executor_->Cancel(expiry_timer_);
  }
}

void Table::BindObs(obs::Registry* registry, size_t lane) {
  const std::string label = "{table=\"" + spec_.name + "\"}";
  obs_inserts_ = registry->GetCounter(lane, "p2_table_inserts_total" + label);
  obs_replaces_ = registry->GetCounter(lane, "p2_table_replaces_total" + label);
  obs_deletes_ = registry->GetCounter(lane, "p2_table_deletes_total" + label);
  obs_evictions_ = registry->GetCounter(lane, "p2_table_evictions_total" + label);
  obs_expiries_ = registry->GetCounter(lane, "p2_table_expiries_total" + label);
  obs_deltas_ = registry->GetCounter(lane, "p2_table_deltas_total" + label);
  obs_rows_ = registry->GetGauge(lane, "p2_table_rows" + label);
  if (!rows_.empty()) {
    obs_rows_->Add(static_cast<int64_t>(rows_.size()));  // bound mid-life
  }
}

void Table::PurgeExpired() {
  if (!std::isfinite(spec_.lifetime_s)) {
    return;
  }
  double now = executor_->Now();
  while (!rows_.empty() && rows_.front().expires_at <= now) {
    EraseRow(rows_.begin(), /*notify_removal=*/true, TableDelta::Cause::kExpiry);
  }
}

void Table::ArmExpiryTimer() {
  if (!std::isfinite(spec_.lifetime_s)) {
    return;
  }
  if (rows_.empty()) {
    if (expiry_timer_ != kInvalidTimer) {
      executor_->Cancel(expiry_timer_);
      expiry_timer_ = kInvalidTimer;
      expiry_armed_at_ = std::numeric_limits<double>::infinity();
    }
    return;
  }
  double due = rows_.front().expires_at;
  if (expiry_timer_ != kInvalidTimer && due >= expiry_armed_at_) {
    return;  // the armed timer fires no later than needed
  }
  if (expiry_timer_ != kInvalidTimer) {
    executor_->Cancel(expiry_timer_);
  }
  expiry_armed_at_ = due;
  expiry_timer_ = executor_->ScheduleAfter(
      std::max(0.0, due - executor_->Now()), [this]() {
        expiry_timer_ = kInvalidTimer;
        expiry_armed_at_ = std::numeric_limits<double>::infinity();
        PurgeExpired();
        ArmExpiryTimer();
      });
}

void Table::EraseRow(RowList::iterator it, bool notify_removal, TableDelta::Cause cause) {
  TuplePtr gone = it->tuple;
  IndexErase(it);
  primary_.erase(PrimaryKeyOf(*gone));
  rows_.erase(it);
  if (obs_rows_ != nullptr) {
    obs_rows_->Add(-1);
    obs::Counter* by_cause = cause == TableDelta::Cause::kDelete     ? obs_deletes_
                             : cause == TableDelta::Cause::kEviction ? obs_evictions_
                                                                     : obs_expiries_;
    by_cause->Inc();
  }
  if (notify_removal && !typed_listeners_.empty()) {
    if (obs_deltas_ != nullptr) {
      obs_deltas_->Inc();
    }
    TableDelta d{TableDelta::Kind::kRemove, cause, gone, nullptr};
    for (const TypedDeltaFn& fn : typed_listeners_) {
      fn(d);
    }
  }
}

void Table::AddToBucket(SecondaryIndex& idx, const KeyView& key, RowList::iterator it) {
  auto [bucket, fresh] = idx.map.try_emplace(key);
  if (fresh) {
    bucket->second.key_row = it->tuple;
    ++idx.distinct;
  }
  bucket->second.rows.push_back(it);
}

void Table::DropFromBucket(SecondaryIndex& idx, BucketMap::iterator bucket,
                           RowList::iterator it) {
  std::vector<RowList::iterator>& rows = bucket->second.rows;
  rows.erase(std::find(rows.begin(), rows.end(), it));
  if (rows.empty()) {
    idx.map.erase(bucket);
    --idx.distinct;
  }
}

void Table::IndexInsert(RowList::iterator it) {
  for (SecondaryIndex& idx : secondary_) {
    AddToBucket(idx, KeyView(*it->tuple, &idx.cols), it);
  }
}

void Table::IndexErase(RowList::iterator it) {
  for (SecondaryIndex& idx : secondary_) {
    auto bucket = idx.map.find(KeyView(*it->tuple, &idx.cols));
    if (bucket != idx.map.end()) {
      DropFromBucket(idx, bucket, it);
    }
  }
}

void Table::IndexReplace(RowList::iterator it, const TuplePtr& t, bool refresh) {
  TuplePtr old = it->tuple;
  it->tuple = t;
  for (SecondaryIndex& idx : secondary_) {
    KeyView old_key(*old, &idx.cols);
    KeyView key(*t, &idx.cols);
    if (refresh && old_key.hash() == key.hash()) {
      continue;  // an identical refresh keeps its place
    }
    auto bucket = idx.map.find(old_key);
    if (bucket != idx.map.end() && bucket->first == key) {
      // Same bucket: rotate the row to the back, no map traffic.
      std::vector<RowList::iterator>& rows = bucket->second.rows;
      auto pos = std::find(rows.begin(), rows.end(), it);
      std::rotate(pos, pos + 1, rows.end());
      continue;
    }
    if (bucket != idx.map.end()) {
      DropFromBucket(idx, bucket, it);
    }
    AddToBucket(idx, key, it);
  }
}

bool Table::Insert(const TuplePtr& t) {
  P2_CHECK(t != nullptr);
  if (spec_.arity != 0 && t->size() != spec_.arity) {
    P2_LOG(LogLevel::kDebug, "table %s: dropping tuple with arity %zu (want %zu)",
           spec_.name.c_str(), t->size(), spec_.arity);
    return false;
  }
  PurgeExpired();
  double expires = std::isfinite(spec_.lifetime_s)
                       ? executor_->Now() + spec_.lifetime_s
                       : std::numeric_limits<double>::infinity();
  KeyView key = PrimaryKeyOf(*t);
  auto found = primary_.find(key);
  bool changed = true;
  TuplePtr displaced;  // the old row when this insert replaces by key
  if (found != primary_.end()) {
    // Refresh: splice the row to the back (newest) in place. The list node
    // survives, so the primary entry and every secondary-index entry
    // pointing at it stay valid — no hash-map churn on the refresh path.
    RowList::iterator it = found->second;
    changed = !it->tuple->SameAs(*t);
    displaced = it->tuple;
    rows_.splice(rows_.end(), rows_, it);
    // Non-key fields may differ: secondary entries are keyed on them. Even
    // an identical refresh (SameAs) may change a projection's hash, as
    // Int(1) for Double(1.0) does, and then moves buckets.
    IndexReplace(it, t, /*refresh=*/!changed);
    // The displaced tuple may be freed once this insert returns.
    found->first.Rebase(*t);
    it->expires_at = expires;
  } else {
    rows_.push_back(Row{t, expires});
    auto it = std::prev(rows_.end());
    primary_.emplace(key, it);
    IndexInsert(it);
    if (obs_rows_ != nullptr) {
      obs_rows_->Add(1);
    }
    // FIFO eviction beyond capacity.
    while (rows_.size() > spec_.max_size) {
      EraseRow(rows_.begin(), /*notify_removal=*/true, TableDelta::Cause::kEviction);
    }
  }
  if (obs_inserts_ != nullptr) {
    (displaced == nullptr ? obs_inserts_ : obs_replaces_)->Inc();
  }
  ArmExpiryTimer();
  // Listeners fire on every insertion, including TTL refreshes of identical
  // rows. Refresh visibility matters: e.g. Chord's ping-response rule
  // re-inserts successors, which must re-derive pingNode entries before
  // their own soft state expires. Rule sets must avoid self-triggering
  // insertion cycles (the planner's delta events are the only consumers).
  if (!typed_listeners_.empty()) {
    if (obs_deltas_ != nullptr) {
      obs_deltas_->Inc();
    }
    TableDelta d{displaced == nullptr ? TableDelta::Kind::kInsert : TableDelta::Kind::kReplace,
                 TableDelta::Cause::kInsert, t, displaced};
    for (const TypedDeltaFn& fn : typed_listeners_) {
      fn(d);
    }
  }
  return changed;
}

bool Table::DeleteByKey(const std::vector<Value>& key) { return Delete(KeyView(key)); }

bool Table::DeleteMatching(const Tuple& derived) { return Delete(PrimaryKeyOf(derived)); }

bool Table::Delete(const KeyView& key) {
  PurgeExpired();
  auto found = primary_.find(key);
  if (found == primary_.end()) {
    return false;
  }
  EraseRow(found->second, /*notify_removal=*/true, TableDelta::Cause::kDelete);
  return true;
}

void Table::AddIndex(const std::vector<size_t>& cols) {
  if (HasIndex(cols)) {
    return;
  }
  SecondaryIndex& idx = secondary_.emplace_back();
  idx.cols = cols;
  for (auto it = rows_.begin(); it != rows_.end(); ++it) {
    AddToBucket(idx, KeyView(*it->tuple, &idx.cols), it);
  }
}

const Table::SecondaryIndex* Table::FindIndex(const std::vector<size_t>& cols) const {
  for (const SecondaryIndex& idx : secondary_) {
    if (idx.cols == cols) {
      return &idx;
    }
  }
  return nullptr;
}

size_t Table::DistinctKeys(const std::vector<size_t>& cols) const {
  const SecondaryIndex* idx = FindIndex(cols);
  return idx == nullptr ? 0 : idx->distinct;
}

bool Table::PrimaryKeyCovered(const std::vector<size_t>& bound_cols) const {
  // Bound columns covering the primary key pin at most one row. An empty
  // key_positions means "whole tuple is the key": covered only when every
  // column is bound, which we can't know without the arity — treat a
  // declared arity as the column count.
  const std::vector<size_t>& key = spec_.key_positions;
  if (key.empty()) {
    return spec_.arity != 0 && bound_cols.size() >= spec_.arity;
  }
  for (size_t k : key) {
    if (std::find(bound_cols.begin(), bound_cols.end(), k) == bound_cols.end()) {
      return false;
    }
  }
  return true;
}

double Table::EstimateFanout(const std::vector<size_t>& bound_cols) const {
  if (PrimaryKeyCovered(bound_cols)) {
    return 1.0;
  }
  // Live refinement: an existing index over exactly these columns gives the
  // true mean bucket size.
  if (!rows_.empty() && !bound_cols.empty()) {
    size_t distinct = DistinctKeys(bound_cols);
    if (distinct > 0) {
      return static_cast<double>(rows_.size()) / static_cast<double>(distinct);
    }
  }
  double cap = static_cast<double>(std::min(spec_.max_size, kFanoutCap));
  if (bound_cols.empty()) {
    return std::max(cap, static_cast<double>(rows_.size()));
  }
  return std::sqrt(cap);
}

bool Table::HasIndex(const std::vector<size_t>& cols) const {
  return FindIndex(cols) != nullptr;
}

const Table::Bucket* Table::FindBucket(const std::vector<size_t>& cols,
                                       const std::vector<Value>& vals) {
  PurgeExpired();
  const SecondaryIndex* idx = FindIndex(cols);
  P2_CHECK(idx != nullptr);
  auto bucket = idx->map.find(KeyView(vals));
  return bucket == idx->map.end() ? nullptr : &bucket->second;
}

void Table::LookupByCols(const std::vector<size_t>& cols, const std::vector<Value>& vals,
                         std::vector<TuplePtr>* out) {
  out->clear();
  if (const Bucket* bucket = FindBucket(cols, vals)) {
    for (RowList::iterator row : bucket->rows) {
      out->push_back(row->tuple);
    }
  }
}

bool Table::HasMatch(const std::vector<size_t>& cols, const std::vector<Value>& vals) {
  return FindBucket(cols, vals) != nullptr;
}

void Table::LookupDistinct(const std::vector<size_t>& cols, const std::vector<Value>& vals,
                           const std::vector<size_t>& distinct, std::vector<TuplePtr>* out) {
  out->clear();
  const std::vector<RowList::iterator>* bucket = nullptr;
  size_t n;
  if (cols.empty()) {
    PurgeExpired();
    n = rows_.size();
  } else {
    const Bucket* found = FindBucket(cols, vals);
    if (found == nullptr) {
      return;
    }
    bucket = &found->rows;
    n = bucket->size();
  }
  // Open-addressed set of the kept projections, at most half full: each
  // slot holds 1 + the kept row's position in `out`, or 0 when empty.
  int bits = 3;
  while ((size_t{1} << bits) < 2 * n) {
    ++bits;
  }
  const size_t mask = (size_t{1} << bits) - 1;
  std::vector<size_t>& slots = distinct_slots_;
  slots.assign(mask + 1, 0);
  auto keep = [&](const TuplePtr& row) {
    uint64_t h = 0;
    for (size_t c : distinct) {
      h = h * 1099511628211ull + row->field(c).HashValue();
    }
    for (size_t s = (h * 0x9E3779B97F4A7C15ull) >> (64 - bits);; s = (s + 1) & mask) {
      if (slots[s] == 0) {
        out->push_back(row);
        slots[s] = out->size();
        return;
      }
      const Tuple& kept = *(*out)[slots[s] - 1];
      bool same = true;
      for (size_t c : distinct) {
        if (!Identical(kept.field(c), row->field(c))) {
          same = false;
          break;
        }
      }
      if (same) {
        return;
      }
    }
  };
  if (bucket == nullptr) {
    for (const Row& row : rows_) {
      keep(row.tuple);
    }
  } else {
    for (RowList::iterator row : *bucket) {
      keep(row->tuple);
    }
  }
}

std::vector<TuplePtr> Table::Scan() {
  std::vector<TuplePtr> out;
  Scan(&out);
  return out;
}

void Table::Scan(std::vector<TuplePtr>* out) {
  PurgeExpired();
  out->clear();
  out->reserve(rows_.size());
  for (const Row& row : rows_) {
    out->push_back(row.tuple);
  }
}

TuplePtr Table::FindByKey(const std::vector<Value>& key) {
  PurgeExpired();
  auto found = primary_.find(KeyView(key));
  return found == primary_.end() ? nullptr : found->second->tuple;
}

size_t Table::size() {
  PurgeExpired();
  return rows_.size();
}

size_t Table::ApproxBytes() const {
  // Rough per-row accounting: tuple header + per-field Value + index entries.
  size_t bytes = sizeof(Table);
  for (const Row& row : rows_) {
    bytes += sizeof(Row) + sizeof(Tuple) + row.tuple->size() * (sizeof(Value) + 16);
  }
  bytes += primary_.size() * 48;
  for (const SecondaryIndex& idx : secondary_) {
    bytes += idx.map.size() * 48;
  }
  return bytes;
}

}  // namespace p2
