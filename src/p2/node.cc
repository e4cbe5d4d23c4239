#include "src/p2/node.h"

#include "src/net/wire.h"
#include "src/obs/registry.h"
#include "src/overlog/localizer.h"
#include "src/overlog/parser.h"
#include "src/overlog/planner.h"
#include "src/runtime/logging.h"

namespace p2 {

// Terminal element of every rule chain: routes head tuples by location
// specifier — remote tuples are marshaled and sent, local stream tuples
// loop back into the input queue, local table tuples are inserted.
class P2Node::RouteOutElement : public Element {
 public:
  explicit RouteOutElement(P2Node* node) : Element("route_out"), node_(node) {}
  int Push(int port, const TuplePtr& t, const Callback& cb) override {
    (void)port;
    (void)cb;
    node_->RouteTuple(t);
    return 1;
  }

 private:
  P2Node* node_;
};

P2Node::P2Node(P2NodeConfig config)
    : addr_(config.addr.empty() && config.transport != nullptr
                ? config.transport->local_addr()
                : config.addr),
      executor_(config.executor),
      transport_(config.transport),
      rng_(config.seed),
      metrics_(config.metrics),
      watches_(config.watches),
      sysstats_period_s_(config.sysstats_period_s) {
  P2_CHECK(executor_ != nullptr);
  P2_CHECK(transport_ != nullptr);
  if (metrics_ != nullptr) {
    obs_lane_ = executor_->shard_index();
    graph_.SetObs(metrics_, obs_lane_);
    obs_tuples_sent_ = metrics_->GetCounter(obs_lane_, "p2_node_tuples_sent_total");
    obs_tuples_from_net_ = metrics_->GetCounter(obs_lane_, "p2_node_tuples_from_net_total");
    obs_loopbacks_ = metrics_->GetCounter(obs_lane_, "p2_node_local_loopbacks_total");
    obs_bad_packets_ = metrics_->GetCounter(obs_lane_, "p2_node_bad_packets_total");
  }
  input_queue_ = graph_.Add<QueueElement>("input_queue", config.input_queue_capacity);
  driver_ = graph_.Add<TimedPullPush>("driver", executor_, 0.0);
  demux_ = graph_.Add<DemuxByName>("demux");
  route_out_ = graph_.Add<RouteOutElement>(this);
  graph_.Connect(input_queue_, 0, driver_, 0);
  graph_.Connect(driver_, 0, demux_, 0);
  transport_->SetReceiver(
      [this](const std::string& from, const std::vector<uint8_t>& bytes) {
        OnPacket(from, bytes);
      });
}

P2Node::~P2Node() {
  Stop();
  // Detach from the transport: packets in flight to this address must not
  // reach a destroyed node (churn destroys nodes while datagrams fly).
  transport_->SetReceiver(nullptr);
}

bool P2Node::Install(const std::string& overlog_text, std::string* err) {
  P2_CHECK(!installed_);
  ProgramAst program;
  if (!ParseOverLog(overlog_text, &program, err)) {
    return false;
  }
  if (!LocalizeProgram(&program, err)) {
    return false;
  }
  if (sysstats_period_s_ > 0 && !program.IsMaterialized("sysstats") &&
      GetTable("sysstats") == nullptr) {
    // Not declared by the program: materialize it implicitly *before*
    // planning so rules that join sysstats see a table, not a stream.
    TableSpec spec;
    spec.name = "sysstats";
    spec.key_positions = {0, 1};
    spec.arity = 3;
    AddTable("sysstats", std::make_unique<Table>(spec, executor_));
  }
  if (!Planner::Install(program, this, err)) {
    return false;
  }
  installed_ = true;
  return true;
}

void P2Node::Start() {
  P2_CHECK(installed_);
  if (started_) {
    return;
  }
  started_ = true;
  driver_->Start();
  for (PeriodicSource* src : periodics_) {
    src->Start();
  }
  if (sysstats_period_s_ > 0) {
    RefreshSysstats();
  }
}

void P2Node::Stop() {
  if (!started_) {
    return;
  }
  started_ = false;
  for (PeriodicSource* src : periodics_) {
    src->Stop();
  }
  if (sysstats_timer_ != kInvalidTimer) {
    executor_->Cancel(sysstats_timer_);
    sysstats_timer_ = kInvalidTimer;
  }
}

const SupportCounts* P2Node::SupportCountsFor(const std::string& table) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return nullptr;
  }
  auto found = support_counts_.find(it->second.get());
  return found == support_counts_.end() ? nullptr : found->second.get();
}

void P2Node::RefreshSysstats() {
  Table* table = GetTable("sysstats");
  if (table == nullptr) {
    return;
  }
  // Node-local, virtual-time-deterministic metrics only: the values must
  // not depend on shard count or wall-clock timing, so overlay behavior
  // built on sysstats stays reproducible.
  size_t table_rows = 0;
  for (const auto& [name, t] : tables_) {
    if (name != "sysstats") {
      table_rows += t->row_count();
    }
  }
  uint64_t rule_fires = 0;
  for (const auto& [id, driver] : rule_drivers_) {
    (void)id;
    rule_fires += driver->fires();
  }
  const std::pair<const char*, int64_t> stats[] = {
      {"tuples_sent", static_cast<int64_t>(stats_.tuples_sent)},
      {"tuples_from_net", static_cast<int64_t>(stats_.tuples_from_net)},
      {"local_loopbacks", static_cast<int64_t>(stats_.local_loopbacks)},
      {"rule_fires", static_cast<int64_t>(rule_fires)},
      {"table_rows", static_cast<int64_t>(table_rows)},
      {"memory_bytes", static_cast<int64_t>(ApproxMemoryBytes())},
  };
  for (const auto& [metric, value] : stats) {
    table->Insert(Tuple::Make(
        "sysstats", {Value::Addr(addr_), Value::Str(metric), Value::Int(value)}));
  }
  sysstats_timer_ = executor_->ScheduleAfter(sysstats_period_s_, [this]() {
    sysstats_timer_ = kInvalidTimer;
    if (started_) {
      RefreshSysstats();
    }
  });
}

void P2Node::Inject(const TuplePtr& t) {
  // Injected tuples obey their location specifier like any rule head: a
  // tuple addressed elsewhere is shipped, a local one enters the queue (or
  // its table). Applications therefore address tuples the same way rules
  // do.
  RouteTuple(t);
}

void P2Node::Subscribe(const std::string& name, TupleFn fn) {
  auto it = tables_.find(name);
  if (it != tables_.end()) {
    it->second->AddDeltaListener(std::move(fn));
    return;
  }
  SchemaId schema = InternSchema(name);
  if (watchers_by_schema_.size() <= schema) {
    watchers_by_schema_.resize(schema + 1);
  }
  watchers_by_schema_[schema].push_back(std::move(fn));
}

void P2Node::AddTable(const std::string& name, std::unique_ptr<Table> table) {
  if (metrics_ != nullptr) {
    table->BindObs(metrics_, obs_lane_);
  }
  SchemaId schema = InternSchema(name);
  if (tables_by_schema_.size() <= schema) {
    tables_by_schema_.resize(schema + 1, nullptr);
  }
  tables_by_schema_[schema] = table.get();
  tables_.emplace(name, std::move(table));
}

Table* P2Node::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::unordered_map<std::string, uint64_t> P2Node::RuleFireCounts() const {
  std::unordered_map<std::string, uint64_t> out;
  for (const auto& [id, driver] : rule_drivers_) {
    out[id] += driver->fires();
  }
  return out;
}

size_t P2Node::ApproxMemoryBytes() const {
  size_t bytes = graph_.ApproxBytes();
  for (const auto& [name, table] : tables_) {
    (void)name;
    bytes += table->ApproxBytes();
  }
  return bytes;
}

void P2Node::DeliverLocal(const TuplePtr& t) {
  SchemaId schema = t->schema();
  if (schema < watchers_by_schema_.size()) {
    for (const TupleFn& fn : watchers_by_schema_[schema]) {
      fn(t);
    }
  }
  input_queue_->Push(0, t, nullptr);
}

void P2Node::RouteTuple(const TuplePtr& t) {
  if (t->size() == 0 || t->field(0).type() != ValueType::kAddr) {
    P2_LOG(LogLevel::kWarn, "%s: head tuple without address locspec: %s", addr_.c_str(),
           t->ToString().c_str());
    return;
  }
  const std::string& dest = t->field(0).AsAddr();
  if (dest == addr_) {
    ++stats_.local_loopbacks;
    if (obs_loopbacks_ != nullptr) {
      obs_loopbacks_->Inc();
    }
    if (Table* table = TableForSchema(t->schema())) {
      table->Insert(t);  // Synchronous store + delta propagation.
    } else {
      DeliverLocal(t);
    }
    return;
  }
  std::vector<uint8_t> frame = FrameTuple(*t);
  if (frame.empty()) {
    P2_LOG(LogLevel::kWarn, "%s: dropping unmarshalable tuple %s", addr_.c_str(),
           t->name().c_str());
    return;
  }
  ++stats_.tuples_sent;
  if (obs_tuples_sent_ != nullptr) {
    obs_tuples_sent_->Inc();
  }
  transport_->SendTo(dest, std::move(frame), TrafficClassOf(t->name()));
}

void P2Node::OnPacket(const std::string& from, const std::vector<uint8_t>& bytes) {
  (void)from;
  std::optional<TuplePtr> t = UnframeTuple(bytes, &addr_cache_);
  if (!t.has_value()) {
    ++stats_.bad_packets;
    if (obs_bad_packets_ != nullptr) {
      obs_bad_packets_->Inc();
    }
    return;
  }
  ++stats_.tuples_from_net;
  if (obs_tuples_from_net_ != nullptr) {
    obs_tuples_from_net_->Inc();
  }
  DeliverLocal(*t);
}

}  // namespace p2
