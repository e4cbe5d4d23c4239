// P2Node: one overlay participant (Figure 1 of the paper).
//
// A node owns the dataflow graph compiled from an OverLog program, the
// soft-state tables, the input queue feeding the demultiplexer, and the
// bridge to the network transport. Applications interact with it by
// installing a program, injecting tuples, and subscribing to named streams.
#ifndef P2_P2_NODE_H_
#define P2_P2_NODE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/dataflow/basic_elements.h"
#include "src/dataflow/graph.h"
#include "src/dataflow/rel_elements.h"
#include "src/net/transport.h"
#include "src/runtime/executor.h"
#include "src/runtime/marshal.h"
#include "src/runtime/random.h"
#include "src/table/table.h"

namespace p2 {

struct P2NodeConfig {
  std::string addr;                 // defaults to transport->local_addr()
  Executor* executor = nullptr;     // required
  Transport* transport = nullptr;   // required
  uint64_t seed = 1;                // per-node RNG stream
  size_t input_queue_capacity = 8192;
  // Metrics registry; null disables all instrumentation (the planner then
  // builds exactly the uninstrumented graph). Lane = executor shard index.
  obs::Registry* metrics = nullptr;
  // Predicates to watch in addition to the program's own watch() clauses;
  // the planner splices tuple-logging taps for these (p2run --watch).
  std::vector<std::string> watches;
  // When > 0, maintain a sysstats(Addr, Metric, Value) table refreshed at
  // this virtual-time period so overlay rules can query their own runtime.
  double sysstats_period_s = 0;
};

struct NodeStats {
  uint64_t tuples_from_net = 0;
  uint64_t tuples_sent = 0;
  uint64_t local_loopbacks = 0;
  uint64_t bad_packets = 0;
};

class P2Node {
 public:
  explicit P2Node(P2NodeConfig config);
  ~P2Node();
  P2Node(const P2Node&) = delete;
  P2Node& operator=(const P2Node&) = delete;

  // Parses, localizes, plans and installs an OverLog program into this
  // node's dataflow graph. Must be called before Start. Returns false and
  // fills *err on parse/plan failure.
  bool Install(const std::string& overlog_text, std::string* err);

  // Begins execution: starts periodic sources and the input queue's drain.
  void Start();
  // Halts periodic sources (the node stops generating traffic; it still
  // reacts to nothing further since the caller usually destroys it next).
  void Stop();

  // Injects a tuple, routed by its location specifier (field 0): local
  // tuples enter the input queue (or their table, if materialized), remote
  // ones are sent. E.g. a DHT "lookup" request or the initial "join".
  void Inject(const TuplePtr& t);

  // Invokes `fn` for every tuple named `name` that this node sees locally:
  // stream events (local or arriving from the network) or, for materialized
  // names, table insertions.
  using TupleFn = std::function<void(const TuplePtr&)>;
  void Subscribe(const std::string& name, TupleFn fn);

  Table* GetTable(const std::string& name);
  const std::string& addr() const { return addr_; }
  Executor* executor() { return executor_; }
  Transport* transport() { return transport_; }
  Rng* rng() { return &rng_; }
  const NodeStats& stats() const { return stats_; }
  const Graph& graph() const { return graph_; }

  // Number of rules installed and per-rule firing counters (E7).
  size_t num_rules() const { return rule_drivers_.size(); }
  std::unordered_map<std::string, uint64_t> RuleFireCounts() const;

  // Human-readable dump of every rule's compiled plan — trigger deltas,
  // join order with fanout estimates, probed indices, head routing.
  // Deterministic for a given program (`p2run --explain` and the
  // golden-plan tests rely on this).
  const std::string& PlanExplain() const { return plan_explain_; }

  // Support-count store for a counted head table (null when none). Tests
  // use this to assert counts track live supports.
  const SupportCounts* SupportCountsFor(const std::string& table) const;

  // Approximate working set: tables + dataflow graph (E9).
  size_t ApproxMemoryBytes() const;

 private:
  friend class Planner;
  friend class PlanBuilder;

  // Registers a table and its SchemaId dispatch slot (planner only).
  void AddTable(const std::string& name, std::unique_ptr<Table> table);
  Table* TableForSchema(SchemaId schema) const {
    return schema < tables_by_schema_.size() ? tables_by_schema_[schema] : nullptr;
  }

  // Delivers a tuple into local processing: watchers, then input queue.
  void DeliverLocal(const TuplePtr& t);
  // Routes a rule-head tuple by its location specifier (field 0): a remote
  // tuple is marshaled and sent, a local table tuple is inserted, a local
  // stream tuple loops back into the input queue. Every rule strand and
  // table aggregate ends here (the planner hands them this as their route).
  void RouteTuple(const TuplePtr& t);
  void OnPacket(const std::string& from, const std::vector<uint8_t>& bytes);
  // Upserts this node's rows in the sysstats table (virtual-time periodic).
  void RefreshSysstats();

  std::string addr_;
  Executor* executor_;
  Transport* transport_;
  Rng rng_;
  NodeStats stats_;
  std::string plan_explain_;
  // Received addresses reuse these reps. Per node, never per thread: Value
  // refcounts are plain integers, and a node's Values stay on its shard.
  AddrCache addr_cache_;

  Graph graph_;
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;  // ownership
  // SchemaId jump tables for the hot routing paths (RouteTuple /
  // DeliverLocal): no string hashing per tuple.
  std::vector<Table*> tables_by_schema_;
  std::vector<std::vector<TupleFn>> watchers_by_schema_;
  InputQueue* input_queue_ = nullptr;
  DemuxByName* demux_ = nullptr;

  std::vector<PeriodicSource*> periodics_;
  std::unordered_map<std::string, DupElement*> event_dups_;
  std::vector<std::pair<std::string, RuleDriver*>> rule_drivers_;
  // Derivation counts per counted head table.
  std::unordered_map<Table*, std::unique_ptr<SupportCounts>> support_counts_;
  bool started_ = false;
  bool installed_ = false;

  // Observability (all dormant when metrics_ is null).
  obs::Registry* metrics_ = nullptr;
  size_t obs_lane_ = 0;
  std::vector<std::string> watches_;  // config watches; planner adds program's
  double sysstats_period_s_ = 0;
  TimerId sysstats_timer_ = kInvalidTimer;
  obs::Counter* obs_tuples_sent_ = nullptr;
  obs::Counter* obs_tuples_from_net_ = nullptr;
  obs::Counter* obs_loopbacks_ = nullptr;
  obs::Counter* obs_bad_packets_ = nullptr;
};

}  // namespace p2

#endif  // P2_P2_NODE_H_
