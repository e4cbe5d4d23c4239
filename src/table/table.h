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
// primary lookups, secondary probes and refreshes are O(1) per row. Every
// probe runs on a secondary index its user declared up front (the planner
// declares one per join at plan time). Keys are read in place from the
// rows (KeyView), so no operation builds a key vector, and a probe fills a
// buffer its caller reuses.
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
#include "src/table/key_view.h"

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

  // Sets `*out` to all rows whose `cols` fields equal `vals`, through the
  // index over `cols`, which must exist (AddIndex). Purges expired rows
  // first. `*out` is a snapshot: later writes to the table do not change
  // it. Reusing one buffer across probes keeps probes allocation-free.
  void LookupByCols(const std::vector<size_t>& cols, const std::vector<Value>& vals,
                    std::vector<TuplePtr>* out);

  // True iff LookupByCols would find a row, without copying any.
  bool HasMatch(const std::vector<size_t>& cols, const std::vector<Value>& vals);

  // Sets `*out` to the rows LookupByCols would return, in the same order,
  // keeping only the first row of each distinct projection onto
  // `distinct`: a probe for a reader that never looks past those columns.
  // Projections compare by identity (same type and same bits), not
  // numeric equality, so Int(1) and Double(1.0) stay apart. Scans the
  // index bucket in place and copies only the rows it keeps; an empty
  // `cols` scans the whole table, oldest first. A non-empty `cols` needs
  // an index (AddIndex).
  void LookupDistinct(const std::vector<size_t>& cols, const std::vector<Value>& vals,
                      const std::vector<size_t>& distinct, std::vector<TuplePtr>* out);

  // True iff an equality probe over `bound_cols` covers the primary key,
  // so it matches at most one row.
  bool PrimaryKeyCovered(const std::vector<size_t>& bound_cols) const;

  // All live rows, oldest first.
  std::vector<TuplePtr> Scan();
  // The same, into a buffer the caller reuses.
  void Scan(std::vector<TuplePtr>* out);

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

 private:
  struct Row {
    TuplePtr tuple;
    double expires_at;
  };
  using RowList = std::list<Row>;
  // Primary key -> its row. The key reads the row's current tuple: a
  // replace by key re-points it (KeyView::Rebase) at the new tuple.
  using KeyMap = std::unordered_map<KeyView, RowList::iterator, KeyView::Hasher>;

  // All rows with one secondary-key projection, in insertion order. The
  // bucket's map key reads `key_row`, the row that created the bucket,
  // which the bucket keeps alive for as long as it exists.
  struct Bucket {
    TuplePtr key_row;
    std::vector<RowList::iterator> rows;
  };
  using BucketMap = std::unordered_map<KeyView, Bucket, KeyView::Hasher>;
  struct SecondaryIndex;

  // The primary key of `t`, read in place.
  KeyView PrimaryKeyOf(const Tuple& t) const { return KeyView(t, primary_cols_); }
  // The index over exactly `cols`, or nullptr.
  const SecondaryIndex* FindIndex(const std::vector<size_t>& cols) const;
  // The bucket of the index over `cols` (which must exist) holding `vals`,
  // or nullptr. Purges expired rows first.
  const Bucket* FindBucket(const std::vector<size_t>& cols, const std::vector<Value>& vals);
  // Distinct keys currently held by the index over `cols`, or 0 when no
  // such index exists. Maintained incrementally per index (bucket
  // creation/destruction), so polling is O(#indices), not O(rows).
  size_t DistinctKeys(const std::vector<size_t>& cols) const;
  void EraseRow(RowList::iterator it, bool notify_removal, TableDelta::Cause cause);
  // Deletes the row with primary key `key`, if any.
  bool Delete(const KeyView& key);
  // Appends row `it` to the bucket of `key` in `idx`, creating the bucket
  // (kept alive by the row's tuple) when none holds the key.
  static void AddToBucket(SecondaryIndex& idx, const KeyView& key, RowList::iterator it);
  // Removes row `it` from `bucket`, keeping the other rows' order, and
  // drops the bucket once it is empty.
  static void DropFromBucket(SecondaryIndex& idx, BucketMap::iterator bucket,
                             RowList::iterator it);
  // Adds row `it` at the back of its bucket in every index.
  void IndexInsert(RowList::iterator it);
  // Removes row `it` from every index; `it->tuple` must still be the
  // tuple it was indexed under.
  void IndexErase(RowList::iterator it);
  // Replaces row `it`'s tuple by `t`, which has the same primary key, and
  // moves the row to the back of its bucket in every index: in place when
  // its projection stays in the same bucket, else out of the old bucket
  // and into the new one. A `refresh` (t SameAs the old tuple) moves only
  // where a projection's hash changed.
  void IndexReplace(RowList::iterator it, const TuplePtr& t, bool refresh);
  // Re-arms the single expiry timer for the current oldest row.
  void ArmExpiryTimer();

  TableSpec spec_;
  // The primary-key columns for KeyView: null when the whole tuple is the
  // key.
  const std::vector<size_t>* primary_cols_;
  Executor* executor_;
  RowList rows_;  // insertion/refresh order: front = oldest
  KeyMap primary_;
  struct SecondaryIndex {
    std::vector<size_t> cols;
    // Key -> all matching rows. One bucket per distinct key means a probe
    // pays one hash + one key comparison however many rows match, and the
    // match count is known up front (CHR-style constraint-store indexing).
    BucketMap map;
    // Bucket count, maintained incrementally on bucket creation/erase so
    // DistinctKeys never touches the map shape.
    size_t distinct = 0;
  };
  // Tables carry at most a handful of indices, and probing a sequence by
  // column-set equality beats a map keyed on stringified signatures. A
  // list, because bucket keys point at their index's `cols`, so an index
  // must never move once added; a table without one allocates nothing.
  std::list<SecondaryIndex> secondary_;
  // LookupDistinct's open-addressed set of kept projections, reused.
  std::vector<size_t> distinct_slots_;
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
