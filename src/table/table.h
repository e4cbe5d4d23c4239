// Soft-state tables (§2.1, §3.2).
//
// A Table stores tuples subject to a lifetime (expiry) and a maximum size,
// with a primary key and optional secondary indices. Insertion replaces the
// row with the same primary key; when the table overflows, the oldest row
// is evicted (FIFO). Expiry is enforced two ways: lazily at the start of
// every public operation (the row list is kept in refresh/insertion order,
// so the sweep works from the front), and eagerly through a single
// executor timer armed for the oldest row's deadline — so removal
// listeners (table aggregates, delta-triggered rules) observe expiry when
// it happens, not when the table is next touched. The timer is O(1) to
// (re)arm on the executor's timer wheel and there is at most one per
// table, so timer pressure does not scale with row count.
//
// All index structures are hash-based over the Values' cached hashes:
// primary lookups, secondary probes and refreshes are O(1) per row.
// LookupByCols auto-materializes a secondary index for any column set it
// is asked to scan for repeatedly.
//
// Tables are node-local; partitioning across nodes is expressed by OverLog
// location specifiers, not by the table layer.
#ifndef P2_TABLE_TABLE_H_
#define P2_TABLE_TABLE_H_

#include <functional>
#include <limits>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/runtime/executor.h"
#include "src/runtime/tuple.h"

namespace p2 {

namespace obs {
class Counter;
class Gauge;
class Registry;
}  // namespace obs

struct TableSpec {
  std::string name;
  // Soft-state lifetime in seconds; infinity() means "never expires".
  double lifetime_s = std::numeric_limits<double>::infinity();
  // Maximum number of rows; oldest evicted beyond this.
  size_t max_size = std::numeric_limits<size_t>::max();
  // 0-based field positions forming the primary key. Empty means "whole
  // tuple is the key".
  std::vector<size_t> key_positions;
  // Expected tuple arity; 0 disables the check. The planner infers this
  // from the relation's use in rules so that malformed tuples arriving off
  // the wire cannot plant short rows that later crash field-indexing
  // operators.
  size_t arity = 0;
};

// One element of a table's typed delta stream. A replacement (insertion
// over an existing primary key, including a TTL refresh of an identical
// row) carries both the new tuple and the row it displaced, so incremental
// consumers — semi-naive rule chains, incremental aggregates — can retract
// the old contribution and add the new one without rescanning the table.
// Removals carry why the row left: rule-driven deletes and capacity
// evictions are real retractions that semi-naive remove chains propagate;
// TTL expiry is the soft-state refresh cycle at work, and derived state
// ages out on its own TTL instead.
struct TableDelta {
  enum class Kind { kInsert, kReplace, kRemove };
  enum class Cause { kInsert, kDelete, kEviction, kExpiry };
  Kind kind;
  Cause cause;         // kRemove: why; kInsert/kReplace: Cause::kInsert
  TuplePtr tuple;      // the inserted / removed row
  TuplePtr old_tuple;  // kReplace only: the row that was displaced
};

class Table {
 public:
  // Listener invoked after every insertion, including TTL refreshes of an
  // identical row (refreshes must propagate so that downstream soft state
  // derived from this table is refreshed too).
  using DeltaFn = std::function<void(const TuplePtr&)>;
  // Listener on the typed delta stream (inserts, replacements with the old
  // row, removals). The planner's semi-naive chains and the incremental
  // aggregate watchers subscribe here. A removal means the row left for
  // good — explicit delete, TTL expiry or FIFO eviction — never a
  // replacement by key (an update, reported as kReplace). Table aggregates
  // need removals to shrink (e.g. Chord's succCount must drop after
  // successor eviction or the eviction rule never re-fires).
  using TypedDeltaFn = std::function<void(const TableDelta&)>;

  Table(TableSpec spec, Executor* executor);
  ~Table();
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return spec_.name; }
  const TableSpec& spec() const { return spec_; }

  // Inserts or replaces by primary key. Returns true iff content changed.
  bool Insert(const TuplePtr& t);

  // Removes the row whose primary key matches `key`. Returns true if a row
  // was removed.
  bool DeleteByKey(const std::vector<Value>& key);
  // Convenience: extracts the key from a derived tuple and deletes.
  bool DeleteMatching(const Tuple& derived);

  // Declares a secondary index over `cols` (0-based). Idempotent.
  void AddIndex(const std::vector<size_t>& cols);
  bool HasIndex(const std::vector<size_t>& cols) const;

  // All rows whose `cols` fields equal `vals`. Uses a secondary index when
  // one exists, otherwise scans — and materializes an index automatically
  // once the same column set has been scanned kAutoIndexScans times.
  // Purges expired rows first.
  std::vector<TuplePtr> LookupByCols(const std::vector<size_t>& cols,
                                     const std::vector<Value>& vals);

  // All live rows, oldest first.
  std::vector<TuplePtr> Scan();

  // Row with exactly this primary key, or nullptr.
  TuplePtr FindByKey(const std::vector<Value>& key);

  size_t size();

  // All listeners — insert-only and typed — share ONE
  // registration-ordered list, so relative firing order between (say) an
  // aggregate watcher and a rule driver is exactly attach order. Plans
  // depend on this: a watcher attached before a rule sees each delta
  // first, so the rule's joins probe the watcher's already-updated output
  // table.

  // Registers a content-change listener (insert deltas, incl. replaces).
  void AddDeltaListener(DeltaFn fn) {
    typed_listeners_.push_back([fn = std::move(fn)](const TableDelta& d) {
      if (d.kind != TableDelta::Kind::kRemove) {
        fn(d.tuple);
      }
    });
  }
  // Registers a typed delta listener (insert / replace-with-old / remove).
  void AddTypedListener(TypedDeltaFn fn) { typed_listeners_.push_back(std::move(fn)); }

  // --- Statistics for the planner's cost model ---

  // Live row count without purging (const; planner-safe).
  size_t row_count() const { return rows_.size(); }
  // Estimated number of rows matching an equality probe over `bound_cols`.
  // Uses live index cardinality when available; otherwise a static prior
  // from the table spec, so plan-time estimates (tables usually empty at
  // plan time) are deterministic:
  //   - bound columns covering the primary key  -> 1 row,
  //   - some bound columns                      -> sqrt(capacity),
  //   - no bound columns (full scan)            -> capacity,
  // where capacity = min(max_size, kFanoutCap).
  double EstimateFanout(const std::vector<size_t>& bound_cols) const;

  // Cap on the static capacity prior (unbounded tables assume this many
  // rows for costing purposes).
  static constexpr size_t kFanoutCap = 1024;

  // Approximate resident bytes (rows + index overhead) for the memory
  // footprint experiment (E9).
  size_t ApproxBytes() const;

  // Purges expired rows now (also runs implicitly before every query and
  // on the expiry timer).
  void PurgeExpired();

  // Binds per-table metric series (inserts/replaces/deletes/evictions/
  // expiries/delta events as counters, live rows as a gauge) labeled
  // table="<name>". Called by P2Node::AddTable when metrics are enabled.
  void BindObs(obs::Registry* registry, size_t lane);

  // Scans of one column set before LookupByCols materializes an index.
  static constexpr int kAutoIndexScans = 3;

 private:
  struct Row {
    TuplePtr tuple;
    double expires_at;
  };
  using RowList = std::list<Row>;
  using KeyMap =
      std::unordered_map<std::vector<Value>, RowList::iterator, ValueVecHash, ValueVecEq>;

  std::vector<Value> PrimaryKeyOf(const Tuple& t) const;
  // True iff an equality probe over `bound_cols` covers the primary key.
  bool PrimaryKeyCovered(const std::vector<size_t>& bound_cols) const;
  // Distinct keys currently held by the index over `cols`, or 0 when no
  // such index exists. Maintained incrementally per index (bucket
  // creation/destruction), so polling is O(#indices), not O(rows).
  size_t DistinctKeys(const std::vector<size_t>& cols) const;
  void EraseRow(RowList::iterator it, bool notify_removal, TableDelta::Cause cause);
  void IndexInsert(RowList::iterator it);
  void IndexErase(RowList::iterator it);
  // Re-arms the single expiry timer for the current oldest row.
  void ArmExpiryTimer();

  TableSpec spec_;
  Executor* executor_;
  RowList rows_;  // insertion/refresh order: front = oldest
  KeyMap primary_;
  struct SecondaryIndex {
    std::vector<size_t> cols;
    // Key -> all matching rows. One bucket per distinct key means a probe
    // pays one hash + one key comparison however many rows match, and the
    // match count is known up front (CHR-style constraint-store indexing).
    std::unordered_map<std::vector<Value>, std::vector<RowList::iterator>, ValueVecHash,
                       ValueVecEq>
        map;
    // Bucket count, maintained incrementally on bucket creation/erase so
    // DistinctKeys never touches the map shape.
    size_t distinct = 0;
  };
  // Flat: tables carry at most a handful of indices, and probing a vector
  // by column-set equality beats a map keyed on stringified signatures.
  std::vector<SecondaryIndex> secondary_;
  // Unindexed column sets seen by LookupByCols, with scan counts.
  struct ScanStat {
    std::vector<size_t> cols;
    int scans = 0;
  };
  std::vector<ScanStat> scan_stats_;
  std::vector<TypedDeltaFn> typed_listeners_;
  TimerId expiry_timer_ = kInvalidTimer;
  double expiry_armed_at_ = std::numeric_limits<double>::infinity();

  // Metric handles (all nullable; bound together by BindObs).
  obs::Counter* obs_inserts_ = nullptr;
  obs::Counter* obs_replaces_ = nullptr;
  obs::Counter* obs_deletes_ = nullptr;
  obs::Counter* obs_evictions_ = nullptr;
  obs::Counter* obs_expiries_ = nullptr;
  obs::Counter* obs_deltas_ = nullptr;  // typed delta events emitted
  obs::Gauge* obs_rows_ = nullptr;
};

}  // namespace p2

#endif  // P2_TABLE_TABLE_H_
