#include "src/table/table.h"

#include <algorithm>
#include <cmath>

#include "src/obs/registry.h"
#include "src/runtime/logging.h"

namespace p2 {

Table::Table(TableSpec spec, Executor* executor) : spec_(std::move(spec)), executor_(executor) {
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

std::vector<Value> Table::PrimaryKeyOf(const Tuple& t) const {
  if (spec_.key_positions.empty()) {
    return t.fields();
  }
  return t.KeyOf(spec_.key_positions);
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

void Table::IndexInsert(RowList::iterator it) {
  for (SecondaryIndex& idx : secondary_) {
    auto [bucket, fresh] = idx.map.try_emplace(it->tuple->KeyOf(idx.cols));
    if (fresh) {
      ++idx.distinct;
    }
    bucket->second.push_back(it);
  }
}

void Table::IndexErase(RowList::iterator it) {
  for (SecondaryIndex& idx : secondary_) {
    auto bucket = idx.map.find(it->tuple->KeyOf(idx.cols));
    if (bucket == idx.map.end()) {
      continue;
    }
    std::vector<RowList::iterator>& rows = bucket->second;
    for (auto i = rows.begin(); i != rows.end(); ++i) {
      if (*i == it) {
        rows.erase(i);
        break;
      }
    }
    if (rows.empty()) {
      idx.map.erase(bucket);
      --idx.distinct;
    }
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
  std::vector<Value> key = PrimaryKeyOf(*t);
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
    if (changed) {
      // Non-key fields may differ: secondary entries are keyed on them.
      IndexErase(it);
      it->tuple = t;
      IndexInsert(it);
    } else {
      it->tuple = t;
    }
    it->expires_at = expires;
  } else {
    rows_.push_back(Row{t, expires});
    auto it = std::prev(rows_.end());
    primary_.emplace(std::move(key), it);
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

bool Table::DeleteByKey(const std::vector<Value>& key) {
  PurgeExpired();
  auto found = primary_.find(key);
  if (found == primary_.end()) {
    return false;
  }
  EraseRow(found->second, /*notify_removal=*/true, TableDelta::Cause::kDelete);
  return true;
}

bool Table::DeleteMatching(const Tuple& derived) {
  return DeleteByKey(PrimaryKeyOf(derived));
}

void Table::AddIndex(const std::vector<size_t>& cols) {
  if (HasIndex(cols)) {
    return;
  }
  SecondaryIndex idx;
  idx.cols = cols;
  for (auto it = rows_.begin(); it != rows_.end(); ++it) {
    idx.map[it->tuple->KeyOf(cols)].push_back(it);
  }
  idx.distinct = idx.map.size();
  secondary_.push_back(std::move(idx));
  // Any scan statistics for this column set are moot now.
  scan_stats_.erase(
      std::remove_if(scan_stats_.begin(), scan_stats_.end(),
                     [&cols](const ScanStat& s) { return s.cols == cols; }),
      scan_stats_.end());
}

size_t Table::DistinctKeys(const std::vector<size_t>& cols) const {
  for (const SecondaryIndex& idx : secondary_) {
    if (idx.cols == cols) {
      return idx.distinct;
    }
  }
  return 0;
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
  for (const SecondaryIndex& idx : secondary_) {
    if (idx.cols == cols) {
      return true;
    }
  }
  return false;
}

std::vector<TuplePtr> Table::LookupByCols(const std::vector<size_t>& cols,
                                          const std::vector<Value>& vals) {
  PurgeExpired();
  std::vector<TuplePtr> out;
  for (const SecondaryIndex& idx : secondary_) {
    if (idx.cols != cols) {
      continue;
    }
    auto bucket = idx.map.find(vals);
    if (bucket == idx.map.end()) {
      return out;
    }
    out.reserve(bucket->second.size());
    for (RowList::iterator row : bucket->second) {
      out.push_back(row->tuple);
    }
    return out;
  }
  // No index: scan, and materialize an index for column sets probed often
  // (repeated scans are the signature of a join the planner could not
  // pre-index, e.g. app-level lookups or late-bound key expressions).
  auto stat = std::find_if(scan_stats_.begin(), scan_stats_.end(),
                           [&cols](const ScanStat& s) { return s.cols == cols; });
  if (stat == scan_stats_.end()) {
    scan_stats_.push_back(ScanStat{cols, 0});
    stat = std::prev(scan_stats_.end());
  }
  if (++stat->scans >= kAutoIndexScans) {
    AddIndex(cols);
    return LookupByCols(cols, vals);
  }
  for (const Row& row : rows_) {
    bool match = true;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] >= row.tuple->size() || row.tuple->field(cols[i]) != vals[i]) {
        match = false;
        break;
      }
    }
    if (match) {
      out.push_back(row.tuple);
    }
  }
  return out;
}

std::vector<TuplePtr> Table::Scan() {
  PurgeExpired();
  std::vector<TuplePtr> out;
  out.reserve(rows_.size());
  for (const Row& row : rows_) {
    out.push_back(row.tuple);
  }
  return out;
}

TuplePtr Table::FindByKey(const std::vector<Value>& key) {
  PurgeExpired();
  auto found = primary_.find(key);
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
