// Relational dataflow elements (§3.4): rule strands (selections,
// projections, stream × table equijoins and anti-joins run over one
// binding frame, then the rule's tail: support counting, retraction,
// deletion or routing), table aggregates, and the table insert bridge.
// These are the elements the planner assembles rule variants from; most
// are parameterized by PEL programs.
#ifndef P2_DATAFLOW_REL_ELEMENTS_H_
#define P2_DATAFLOW_REL_ELEMENTS_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/dataflow/element.h"
#include "src/pel/vm.h"
#include "src/table/support_counts.h"
#include "src/table/table.h"

namespace p2 {

// One equality constraint of a probe: table column `table_col` must equal
// the value `expr` computes from the binding frame.
struct JoinKey {
  size_t table_col;
  PelProgram expr;
};

// Where a head tuple leaves the dataflow: P2Node's router (send a remote
// head, store or loop back a local one), or a test's collector.
using HeadFn = std::function<void(const TuplePtr&)>;

// Inserts pushed tuples into a table. Delta propagation happens through
// the table's listeners, so that every writer of the table feeds the same
// delta stream; nothing leaves this element.
class InsertElement : public Element {
 public:
  InsertElement(std::string name, Table* table) : Element(std::move(name)), table_(table) {}
  void Push(int port, const TuplePtr& t) override;

 private:
  Table* table_;
};

enum class AggKind { kMin, kMax, kCount, kSum, kAvg };

// A rule strand: the entry point and the whole body of one planned rule
// variant. The planner appends the body ops in the order it chose — event
// equality filters, stream × table equijoins and anti-joins (§2.5),
// assignments and selections — then the head programs. Each pushed event
// runs the ops depth-first over one binding frame, laid out like the
// concatenated tuple an element-per-operator chain would pass along: the
// event's fields, then each joined row's fields, then each assigned
// value, so compiled PEL field indices address it directly. Only the head
// tuple is built, and the strand applies the rule's tail to it (see
// Tail): an optional watch tap, then routing, counting and routing,
// retraction, or deletion. A strand has no output ports.
//
// A fire of a counted variant carries a mode (Fire's `ttl`): a delta that
// is only a TTL refresh re-derives and routes its heads without counting
// them as new supports, and an expiry decrements supports without
// deleting the head at zero, so soft-state expiry never retracts.
//
// An aggregate strand (§3.4's per-event "AggWrap") folds its bindings
// itself and emits one result when the fire ends. min/max have
// *selection* semantics: the result is the head of the first binding with
// the best aggregate value (this is what makes OverLog patterns like
// Narada's "pick the member with max<R>, R := f_rand()" and Chord's
// "forward to the finger with min<D>" work), and only the first binding
// or a new best builds a head. count/sum/avg accumulate over every
// binding and take the other fields from the first. A volatile head (one
// that draws from the RNG or reads the clock) is built for every binding,
// so draws stay as written. With
// empty-group programs (count<*>), a fire with no binding still emits
// one tuple with aggregate 0, its other fields computed from the event.
//
// The driver counts rule firings and drops events whose width is not the
// rule's event arity (wire data is untrusted — a well-framed tuple with a
// known name but the wrong arity would shift every field index after the
// event).
//
// Re-entrancy: a local head is inserted into its table synchronously, and
// that insert can fire this same strand again before the outer fire ends
// (Chord's CM9 `succ :- succ, pingResp` inserts into the table it probes).
// Each re-entrancy depth reuses its own frame, fold state, probe buffers
// and fire mode included, so once a depth has been reached a fire
// allocates only the heads it builds, and a nested fire never clobbers
// outer bindings or the outer mode; every probe iterates a snapshot in its
// op's buffer, so nested inserts do not change what an outer probe
// visits.
class RuleDriver : public Element {
 public:
  // What the strand does with each head tuple it builds, set at plan time.
  struct Tail {
    enum class Kind {
      kRoute,       // hand the head to `route`
      kCountRoute,  // count a local head as one more support, then route
      kRetract,     // drop one support of a local head; delete it at zero
      kDelete,      // delete the head's row from `table`
    };
    Kind kind = Kind::kRoute;
    HeadFn watch;  // optional tap, run first on every head
    HeadFn route;  // kRoute, kCountRoute; unset drops the head
    // kCountRoute, kRetract: only heads addressed to `local_addr` are
    // counted; a remote head is stored, and ages out, where it ships to.
    SupportCounts* counts = nullptr;
    std::string local_addr;
    Table* table = nullptr;  // kDelete
  };

  RuleDriver(std::string name, PelEnv env) : Element(std::move(name)), vm_(env) {}

  // Body ops, appended in evaluation order. Programs are lowered to
  // register form here, and a probe declares its index at once, so the
  // planner's cost estimates for later terms see it.
  void AddFilter(PelProgram pred);
  void AddAssign(PelProgram value);
  // Returns the join's op index (for SetDistinct).
  size_t AddJoin(Table* table, std::vector<JoinKey> keys);
  // Passes the frame on iff `table` holds no row matching the keys
  // (OverLog "not"); binds nothing.
  void AddAntiJoin(Table* table, std::vector<JoinKey> keys);
  // The head tuple `name`, one program per field over the final frame.
  // Must be set before the first push.
  void SetHead(const std::string& name, std::vector<PelProgram> fields);
  // Makes this an aggregate strand over head field `position`; call after
  // SetHead. `empty_fields` (count<*> only; else empty) computes the other
  // head fields, in order, from the event alone.
  void SetAggregate(AggKind kind, size_t position, std::vector<PelProgram> empty_fields);

  // What the ops after `op` and the head programs take from the frame:
  // the slots their PEL programs read, and whether any of them is volatile
  // (draws from the RNG or reads the clock). The planner derives each
  // join's read set from it.
  struct Reads {
    std::vector<bool> slots;  // indexed by frame slot
    bool is_volatile = false;
  };
  Reads ReadsAfter(size_t op) const;
  // Join `op` visits only the first row, in bucket order, of each distinct
  // projection of its matches onto table columns `cols`
  // (Table::LookupDistinct). Sound only when nothing after the join reads
  // another of its columns and the strand cannot tell a repeated binding
  // from its first occurrence: a min/max fold with nothing volatile after
  // the join. Call after SetAggregate.
  void SetDistinct(size_t op, std::vector<size_t> cols);
  void SetTail(Tail tail) { tail_ = std::move(tail); }

  // Fires the strand on `event`. `ttl` marks a TTL refresh or expiry (see
  // the class comment); it changes only what count and retract tails do.
  void Fire(const TuplePtr& event, bool ttl);
  // A stream or periodic event: Fire(t, false).
  void Push(int port, const TuplePtr& t) override;

  // Events must have exactly `n` fields; 0 (hand-built strands) accepts
  // any width.
  void set_event_arity(size_t n) { event_arity_ = n; }

  // Per-rule metric handles (Graph::ObserveElement): fire count, sampled
  // fire-to-output latency, malformed-input drops. All nullable.
  void set_obs(obs::Counter* fires, obs::LogHistogram* fire_ns, obs::Counter* malformed) {
    obs_fires_ = fires;
    obs_fire_ns_ = fire_ns;
    obs_malformed_ = malformed;
  }

  uint64_t fires() const { return fires_; }
  uint64_t malformed() const { return malformed_; }

 private:
  struct Op {
    enum class Kind { kFilter, kAssign, kJoin, kAntiJoin };
    Kind kind = Kind::kFilter;
    // kJoin in an aggregate strand: the index of its column set in
    // Aggregate::distinct_cols (a LookupDistinct probe), or -1.
    int distinct = -1;
    PelProgram expr;               // kFilter: predicate; kAssign: value
    Table* table = nullptr;        // kJoin / kAntiJoin
    std::vector<size_t> key_cols;  // probed columns (empty: whole table)
    std::vector<PelProgram> key_exprs;  // one per probed column
  };
  // An aggregate strand's settings; null for every other strand.
  struct Aggregate {
    AggKind kind;
    size_t position;                       // the folded head field
    std::vector<PelProgram> empty_fields;  // count<*>: see SetAggregate
    bool head_volatile;
    std::vector<std::vector<size_t>> distinct_cols;  // see Op::distinct
  };
  // One fire's fold: the kept head's fields, the count/sum/avg
  // accumulator, and the bindings seen so far. `candidate` holds a volatile
  // head's fields until the fold decides whether to keep them.
  struct Fold {
    std::vector<Value> best;
    std::vector<Value> candidate;
    Value acc;
    int64_t count = 0;
  };
  // One re-entrancy depth's working state: the binding frame (only a
  // prefix is live; slots past it hold stale values until overwritten),
  // the key values of the probe in flight, each join's row buffer (indexed
  // by op; body ops are all added before the first fire), an aggregate
  // fire's fold, and the fire's mode.
  struct Frame {
    std::vector<Value> slots;
    std::vector<Value> keys;
    std::vector<std::vector<TuplePtr>> rows;
    std::unique_ptr<Fold> fold;  // aggregate strands only
    bool ttl = false;
  };

  void AddProbe(Op::Kind kind, Table* table, std::vector<JoinKey> keys);
  // Evaluates op's key programs over the frame's first `width` slots into
  // `f.keys`.
  void EvalKeys(const Op& op, Frame& f, size_t width);
  // Sets `*out` to a snapshot of the rows of op's table matching its keys
  // over the frame's first `width` slots.
  void Probe(const Op& op, Frame& f, size_t width, std::vector<TuplePtr>* out);
  // Runs ops_[i..] over the frame's first `width` slots, emitting one head
  // tuple per surviving binding (or folding it, in an aggregate strand).
  void Run(size_t i, Frame& f, size_t width);
  // Applies the tail to one head built in frame `f`.
  void Emit(const TuplePtr& head, const Frame& f);
  // Evaluates the head programs over the frame's first `width` slots into
  // `out`, which is resized to the head's arity.
  void HeadFields(const Frame& f, size_t width, std::vector<Value>* out);
  void FoldBinding(Frame& f, size_t width);
  // The fire's aggregate result, or null (no binding, no empty emission).
  // Resets the fold.
  TuplePtr TakeFolded(Frame& f, size_t event_width);

  PelVm vm_;
  std::vector<Op> ops_;
  SchemaId head_schema_ = kInvalidSchema;
  std::vector<PelProgram> head_;
  std::unique_ptr<Aggregate> agg_;
  Tail tail_;
  // Indexed by re-entrancy depth, allocated on first use at each depth;
  // boxed so growing the vector never moves a frame an outer fire is using.
  std::vector<std::unique_ptr<Frame>> frames_;
  size_t depth_ = 0;
  size_t event_arity_ = 0;
  uint64_t fires_ = 0;
  uint64_t malformed_ = 0;
  obs::Counter* obs_fires_ = nullptr;
  obs::LogHistogram* obs_fire_ns_ = nullptr;
  obs::Counter* obs_malformed_ = nullptr;
};

// Maintains an aggregate over a whole table (§3.4 "aggregation elements
// that maintain an up-to-date aggregate on a table and emit it whenever it
// changes"). Groups by `group_cols` of the table's rows and hands tuples
// (group fields..., aggregate) named `out_name` to its route for groups
// whose aggregate changed.
//
// Maintenance is incremental over the table's typed delta stream:
// count/sum/avg update in O(1) per delta; min/max keep a per-group ordered
// support multiset so retracting the current extremum finds its successor
// in O(log n) instead of rescanning the table. A key replacement carries
// the displaced row in the delta, so its contribution is retracted exactly.
class TableAggWatcher : public Element {
 public:
  TableAggWatcher(std::string name, Table* table, std::vector<size_t> group_cols,
                  AggKind kind, size_t agg_col, std::string out_name);

  // Where emitted tuples go (a watch tap, if any, wrapped around the
  // node's router); unset drops them.
  void SetRoute(HeadFn route) { route_ = std::move(route); }

  // Subscribes to the table (inserts AND removals — aggregates must shrink
  // when rows are deleted, evicted or expire). Call once, after SetRoute.
  // Seeds the running state from the table's current rows without
  // emitting; the first report happens on the first post-attach delta.
  void Attach();

 private:
  struct ValueLess {
    bool operator()(const Value& a, const Value& b) const {
      return Value::Compare(a, b) < 0;
    }
  };
  struct Group {
    int64_t rows = 0;
    Value sum;  // kSum/kAvg running accumulator
    // kMin/kMax: aggregate value -> live multiplicity. Ordered so the
    // extremum is begin()/rbegin().
    std::map<Value, int64_t, ValueLess> support;
  };

  void OnDelta(const TableDelta& d);
  void ProcessDelta(const TableDelta& d);
  // Applies one row's contribution (sign = +1 insert / -1 retract) and
  // returns the group key it touched.
  std::vector<Value> ApplyRow(const TuplePtr& row, int sign);
  // Emits the group's aggregate if it changed since last reported; emits
  // (key..., 0) for a vanished count group.
  void EmitGroup(const std::vector<Value>& key);
  // Routes the tuple (key..., v), built in place.
  void Emit(const std::vector<Value>& key, const Value& v);

  Table* table_;
  std::vector<size_t> group_cols_;
  AggKind kind_;
  size_t agg_col_;
  SchemaId out_schema_;
  HeadFn route_;
  // Deltas arriving while one is being processed (e.g. a downstream rule
  // writing back into this table) are queued and drained in order by the
  // active invocation.
  bool processing_ = false;
  std::deque<TableDelta> pending_;
  std::unordered_map<std::vector<Value>, Group, ValueVecHash, ValueVecEq> groups_;
  // Last reported aggregate per group.
  std::unordered_map<std::vector<Value>, Value, ValueVecHash, ValueVecEq> last_;
};

// Accumulates one aggregation step.
Value AggStep(AggKind kind, const Value& acc, const Value& next, int64_t count_so_far);
// Finalizes (only kAvg differs from the accumulator).
Value AggFinal(AggKind kind, const Value& acc, int64_t count);
// Initial accumulator for the first row.
Value AggInit(AggKind kind, const Value& first);

}  // namespace p2

#endif  // P2_DATAFLOW_REL_ELEMENTS_H_
