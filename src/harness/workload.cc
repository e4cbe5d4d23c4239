#include "src/harness/workload.h"

#include <algorithm>

#include "src/runtime/logging.h"

namespace p2 {

ChordTestbed::ChordTestbed(TestbedConfig config)
    : config_(config),
      engine_(config.shards),
      network_(&engine_, Topology(config.topology), config.seed ^ 0x5EED),
      rng_(config.seed),
      boot_seed_rng_(config.seed ^ 0xB007) {
  engine_.SetStealing(config.steal);
  network_.set_loss_rate(config.loss_rate);
  if (config.faults.any()) {
    injector_ = std::make_unique<FaultInjector>(config.faults, config.seed ^ 0xFA17ULL);
    network_.SetFaults(injector_.get());
    injector_->BindObs(config.metrics);
  }
  pending_.resize(engine_.num_shards());
  hop_arrivals_.resize(engine_.num_shards());
  if (config.metrics != nullptr) {
    for (size_t s = 0; s < engine_.num_shards(); ++s) {
      wrong_lookup_.push_back(config.metrics->GetCounter(s, "p2_lookup_wrong_total"));
    }
  }
  engine_.SetObs(config.metrics, config.trace);
  channel_pool_.SetLiveSource(
      [this](ReliableChannelStats* total) {
        for (const Slot& s : slots_) {
          if (s.alive && s.channel != nullptr) {
            total->MergeFrom(s.channel->Stats());
          }
        }
      },
      nullptr);
  if (config.metrics != nullptr) {
    config.metrics->AddCollector(
        [this](obs::Snapshot* snap) { channel_pool_.Collect(snap); });
  }
}

ChordTestbed::~ChordTestbed() {
  // Nodes reference channels which reference transports; destroy outermost
  // layers first, slot by slot. (engine_ outlives slots_ by member order,
  // so timer cancellation during teardown still has its wheels.)
  for (Slot& s : slots_) {
    s.p2.reset();
    s.baseline.reset();
    s.channel.reset();
    s.transport.reset();
  }
}

std::string ChordTestbed::NextAddr() { return "n" + std::to_string(addr_counter_++); }

void ChordTestbed::MakeNode(size_t slot, const std::string& landmark) {
  Slot& s = slots_[slot];
  s.addr = NextAddr();
  s.id = Uint160::HashOf(s.addr);
  s.shard = network_.ShardOf(s.topo_index);
  // Drawn from a separate stream so the node-seed sequence rng_ produces is
  // unchanged by the bootstrap machinery (keeps seeded experiments stable).
  s.boot_rng = std::make_unique<Rng>(boot_seed_rng_.NextU64());
  s.transport = network_.MakeTransport(s.addr, s.topo_index);
  Executor* executor = engine_.shard(s.shard);
  if (injector_ != nullptr && injector_->IsSlowNode(slot)) {
    // The wrapper survives churn replacements, so a slow slot's replacement
    // inherits the same dilation (the hash picks slots, not incarnations).
    if (s.dilated == nullptr) {
      s.dilated = std::make_unique<DilatedExecutor>(executor, config_.faults.slow_factor);
    }
    executor = s.dilated.get();
  }
  Transport* endpoint = s.transport.get();
  if (config_.reliable) {
    s.channel = std::make_unique<ReliableChannel>(s.transport.get(), executor,
                                                  config_.reliable_config,
                                                  rng_.NextU64());
    endpoint = s.channel.get();
  }
  if (config_.use_baseline) {
    s.baseline = std::make_unique<BaselineChordNode>(executor, endpoint,
                                                     rng_.NextU64(), config_.baseline,
                                                     landmark);
  } else {
    P2NodeConfig nc;
    nc.addr = s.addr;
    nc.executor = executor;
    nc.transport = endpoint;
    nc.seed = rng_.NextU64();
    nc.metrics = config_.metrics;
    nc.watches = config_.watches;
    nc.sysstats_period_s = config_.sysstats_period_s;
    std::string extra;
    if (injector_ != nullptr && injector_->IsByzantineNode(slot)) {
      extra = ByzantineChordRules();
    }
    s.p2 = std::make_unique<ChordNode>(nc, config_.chord, landmark, extra);
  }
  s.alive = true;
  ++live_count_;
  // Join retries call the provider from the node's shard thread; it reads
  // only the barrier-refreshed snapshot and the slot's private stream.
  auto provider = [this, slot]() { return SnapshotBootstrap(slot); };
  if (config_.use_baseline) {
    s.baseline->SetLandmarkProvider(provider);
  } else {
    s.p2->SetLandmarkProvider(provider);
  }
  snap_live_.push_back(s.addr);
  HookMeasurement(slot);
}

std::string ChordTestbed::SnapshotBootstrap(size_t slot) {
  const std::string& self = slots_[slot].addr;
  Rng* rng = slots_[slot].boot_rng.get();
  auto pick = [&](const std::vector<std::string>& pool) -> std::string {
    if (pool.empty()) {
      return "";
    }
    size_t start = static_cast<size_t>(rng->NextBelow(pool.size()));
    for (size_t k = 0; k < pool.size(); ++k) {
      const std::string& candidate = pool[(start + k) % pool.size()];
      if (candidate != self) {
        return candidate;
      }
    }
    return "";
  };
  std::string chosen = pick(snap_joined_);
  if (chosen.empty()) {
    chosen = pick(snap_live_);
  }
  return chosen;
}

void ChordTestbed::RefreshJoinedSnapshot() {
  snap_joined_.clear();
  for (const Slot& s : slots_) {
    if (!s.alive) {
      continue;
    }
    bool has_succ = config_.use_baseline ? !s.baseline->Successors().empty()
                                         : !s.p2->Successors().empty();
    if (has_succ) {
      snap_joined_.push_back(s.addr);
    }
  }
}

void ChordTestbed::ScheduleBootstrapRefresh() {
  engine_.control()->ScheduleAfter(config_.bootstrap_refresh_s, [this]() {
    RefreshJoinedSnapshot();
    ScheduleBootstrapRefresh();
  });
}

void ChordTestbed::HookMeasurement(size_t slot) {
  Slot& s = slots_[slot];
  size_t shard = s.shard;
  auto on_result = [this, shard](const Uint160& key, const std::string& addr,
                                 const Uint160& ev) {
    OnLookupResult(shard, key, addr, ev);
  };
  if (config_.use_baseline) {
    s.baseline->OnLookupResult([on_result](const BaselineChordNode::LookupResult& r) {
      on_result(r.key, r.successor_addr, r.event_id);
    });
    s.baseline->OnLookupSeen([this, shard](const Uint160& event) {
      hop_arrivals_[shard][event.Low64()].push_back(engine_.shard(shard)->Now());
    });
  } else {
    s.p2->OnLookupResult([on_result](const ChordNode::LookupResult& r) {
      on_result(r.key, r.successor_addr, r.event_id);
    });
    s.p2->node()->Subscribe("lookup", [this, shard](const TuplePtr& t) {
      if (t->size() >= 4 && t->field(3).type() == ValueType::kId) {
        hop_arrivals_[shard][t->field(3).AsId().Low64()].push_back(
            engine_.shard(shard)->Now());
      }
    });
  }
}

void ChordTestbed::BuildAndSettle(double settle_deadline_s) {
  slots_.resize(config_.num_nodes);
  for (size_t i = 0; i < config_.num_nodes; ++i) {
    slots_[i].topo_index = i;
  }
  // The first node forms the ring; the rest join through it, staggered.
  // Joins create nodes and mutate fleet-wide state, so they run as control
  // tasks: at window barriers, on the coordinator thread.
  MakeNode(0, "");
  if (config_.use_baseline) {
    slots_[0].baseline->Start();
  } else {
    slots_[0].p2->Start();
  }
  const std::string landmark = slots_[0].addr;
  for (size_t i = 1; i < config_.num_nodes; ++i) {
    double at = config_.join_stagger_s * static_cast<double>(i);
    engine_.control()->ScheduleAfter(at, [this, i, landmark]() {
      MakeNode(i, landmark);
      if (config_.use_baseline) {
        slots_[i].baseline->Start();
      } else {
        slots_[i].p2->Start();
      }
    });
  }
  if (!refresh_scheduled_) {
    refresh_scheduled_ = true;
    ScheduleBootstrapRefresh();
  }
  RunFor(settle_deadline_s);
}

void ChordTestbed::RunFor(double seconds) { engine_.RunFor(seconds); }

void ChordTestbed::ArmFaults() {
  if (injector_ == nullptr) {
    return;
  }
  injector_->Arm(engine_.Now());
  injector_->ScheduleTransitions(engine_.control());
}

void ChordTestbed::IssueRandomLookup() {
  // Pick a random live node.
  std::vector<size_t> live;
  live.reserve(slots_.size());
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].alive) {
      live.push_back(i);
    }
  }
  if (live.empty()) {
    return;
  }
  size_t slot = live[rng_.NextBelow(live.size())];
  Uint160 key = rng_.NextId();
  Uint160 event;
  if (config_.use_baseline) {
    event = slots_[slot].baseline->Lookup(key);
  } else {
    event = slots_[slot].p2->Lookup(key);
  }
  LookupRecord rec;
  rec.key = key;
  rec.event = event;
  rec.origin = slots_[slot].addr;
  rec.origin_slot = slot;
  rec.issued_at = engine_.Now();
  pending_[slots_[slot].shard][event.Low64()] = lookups_.size();
  lookups_.push_back(rec);
  hops_finalized_ = false;
  if (config_.lookup_retry_s > 0 && config_.lookup_max_retries > 0) {
    ScheduleLookupRetry(lookups_.size() - 1);
  }
}

void ChordTestbed::ScheduleLookupRetry(size_t record_index) {
  // The retry fires on the issuing node's shard: it touches only that
  // record, that node, and slot fields that change at barriers alone.
  size_t slot = lookups_[record_index].origin_slot;
  engine_.shard(slots_[slot].shard)->ScheduleAfter(config_.lookup_retry_s, [this,
                                                                            record_index,
                                                                            slot]() {
    LookupRecord& rec = lookups_[record_index];
    if (rec.completed || rec.retries >= config_.lookup_max_retries) {
      return;
    }
    // Re-issue from the original node if it is still alive (a dead issuer
    // could never receive the answer anyway; a churn replacement reuses the
    // slot but not the address).
    Slot& s = slots_[slot];
    if (!s.alive || s.addr != rec.origin) {
      return;
    }
    ++rec.retries;
    if (config_.use_baseline) {
      s.baseline->RetryLookup(rec.key, rec.event);
    } else {
      s.p2->node()->Inject(Tuple::Make(
          "lookup", {Value::Addr(s.addr), Value::Id(rec.key), Value::Addr(s.addr),
                     Value::Id(rec.event)}));
    }
    ScheduleLookupRetry(record_index);
  });
}

void ChordTestbed::OnLookupResult(size_t shard, const Uint160& key,
                                  const std::string& result_addr, const Uint160& event) {
  auto& pending = pending_[shard];
  auto it = pending.find(event.Low64());
  if (it == pending.end()) {
    return;  // finger-fix or join lookup, not workload
  }
  LookupRecord& rec = lookups_[it->second];
  pending.erase(it);
  if (rec.completed) {
    return;
  }
  rec.completed = true;
  rec.latency_s = engine_.shard(shard)->Now() - rec.issued_at;
  rec.result_addr = result_addr;
  rec.consistent = result_addr == GroundTruthSuccessor(key);
  if (!rec.consistent && shard < wrong_lookup_.size()) {
    wrong_lookup_[shard]->Inc();
  }
}

const std::vector<ChordTestbed::LookupRecord>& ChordTestbed::lookups() {
  if (!hops_finalized_) {
    // Merge the per-shard arrival logs: a lookup hops through nodes on
    // many shards, each of which logged the arrivals it saw. Only
    // arrivals at or before the record's completion count — a retry copy
    // still hopping after the answer landed never did in the single-loop
    // harness either.
    for (LookupRecord& rec : lookups_) {
      if (!rec.completed) {
        continue;  // rec.hops stays 0, as before
      }
      double completed_at = rec.issued_at + rec.latency_s;
      int total = 0;
      uint64_t key = rec.event.Low64();
      for (const auto& arrivals : hop_arrivals_) {
        auto it = arrivals.find(key);
        if (it == arrivals.end()) {
          continue;
        }
        for (double at : it->second) {
          total += at <= completed_at ? 1 : 0;
        }
      }
      // The first arrival is the injection at the requester itself.
      rec.hops = std::max(0, total - 1);
    }
    hops_finalized_ = true;
  }
  return lookups_;
}

void ChordTestbed::ClearLookups() {
  lookups_.clear();
  for (auto& p : pending_) {
    p.clear();
  }
  for (auto& h : hop_arrivals_) {
    h.clear();
  }
  hops_finalized_ = true;
}

std::string ChordTestbed::GroundTruthSuccessor(const Uint160& key) const {
  const Slot* best = nullptr;
  Uint160 best_dist;
  for (const Slot& s : slots_) {
    if (!s.alive) {
      continue;
    }
    Uint160 dist = s.id - key;  // clockwise distance; 0 when id == key
    if (best == nullptr || dist < best_dist) {
      best = &s;
      best_dist = dist;
    }
  }
  return best == nullptr ? "" : best->addr;
}

double ChordTestbed::RingConsistencyFraction() const {
  size_t ok = 0;
  size_t n = 0;
  for (const Slot& s : slots_) {
    if (!s.alive) {
      continue;
    }
    ++n;
    std::optional<std::pair<Uint160, std::string>> best =
        config_.use_baseline ? s.baseline->BestSuccessor() : s.p2->BestSuccessor();
    if (!best.has_value()) {
      continue;
    }
    if (best->second == GroundTruthSuccessor(s.id + Uint160(1))) {
      ++ok;
    }
  }
  return n == 0 ? 0 : static_cast<double>(ok) / static_cast<double>(n);
}

double ChordTestbed::JoinedFraction() const {
  size_t joined = 0;
  size_t n = 0;
  for (const Slot& s : slots_) {
    if (!s.alive) {
      continue;
    }
    ++n;
    bool has = config_.use_baseline ? !s.baseline->Successors().empty()
                                    : !s.p2->Successors().empty();
    if (has) {
      ++joined;
    }
  }
  return n == 0 ? 0 : static_cast<double>(joined) / static_cast<double>(n);
}

uint64_t ChordTestbed::TotalMaintBytesOut() const {
  uint64_t total = dead_maint_bytes_;
  for (const Slot& s : slots_) {
    if (s.alive) {
      total += s.transport->stats().maint_bytes_out;
    }
  }
  return total;
}

uint64_t ChordTestbed::TotalLookupBytesOut() const {
  uint64_t total = dead_lookup_bytes_;
  for (const Slot& s : slots_) {
    if (s.alive) {
      total += s.transport->stats().lookup_bytes_out;
    }
  }
  return total;
}

double ChordTestbed::MeanNodeMemoryBytes() const {
  if (config_.use_baseline) {
    return 0;
  }
  double total = 0;
  size_t n = 0;
  for (const Slot& s : slots_) {
    if (s.alive && s.p2 != nullptr) {
      total += static_cast<double>(s.p2->node()->ApproxMemoryBytes());
      ++n;
    }
  }
  return n == 0 ? 0 : total / static_cast<double>(n);
}

double ChordTestbed::MeanFingerRows() const {
  if (config_.use_baseline) {
    return 0;
  }
  double total = 0;
  size_t live = 0;
  for (const Slot& s : slots_) {
    if (s.alive && s.p2 != nullptr) {
      total += static_cast<double>(s.p2->Fingers().size());
      ++live;
    }
  }
  return live == 0 ? 0 : total / static_cast<double>(live);
}

ReliableChannelStats ChordTestbed::TotalReliableStats() const {
  return channel_pool_.TotalReliable();
}

std::vector<std::string> ChordTestbed::BestSuccessorByNode() {
  std::vector<std::string> out;
  out.reserve(slots_.size());
  for (const Slot& s : slots_) {
    if (!s.alive) {
      out.push_back("");
      continue;
    }
    std::optional<std::pair<Uint160, std::string>> best =
        config_.use_baseline ? s.baseline->BestSuccessor() : s.p2->BestSuccessor();
    out.push_back(best.has_value() ? best->second : "");
  }
  return out;
}

std::vector<uint64_t> ChordTestbed::DeliveredByNode() const {
  std::vector<uint64_t> out;
  out.reserve(slots_.size());
  for (const Slot& s : slots_) {
    out.push_back(s.alive ? s.transport->stats().msgs_in : 0);
  }
  return out;
}

bool ChordTestbed::ReplaceNode(size_t slot) {
  if (live_count_ <= 1 || slot >= slots_.size() || !slots_[slot].alive) {
    return false;
  }
  Slot& s = slots_[slot];
  // Account the dead node's traffic so cumulative totals stay monotone.
  dead_maint_bytes_ += s.transport->stats().maint_bytes_out;
  dead_lookup_bytes_ += s.transport->stats().lookup_bytes_out;
  if (s.channel != nullptr) {
    channel_pool_.Retire(s.channel->Stats());
  }
  s.p2.reset();
  s.baseline.reset();
  s.channel.reset();
  s.transport.reset();
  s.alive = false;
  --live_count_;
  // Prune the dead address from the bootstrap snapshots so join retries
  // stop resolving to it before the next periodic refresh.
  auto prune = [](std::vector<std::string>* v, const std::string& addr) {
    v->erase(std::remove(v->begin(), v->end(), addr), v->end());
  };
  prune(&snap_live_, s.addr);
  prune(&snap_joined_, s.addr);
  // Pick a random live landmark for the replacement.
  std::vector<size_t> live;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].alive) {
      live.push_back(i);
    }
  }
  const std::string landmark = slots_[live[rng_.NextBelow(live.size())]].addr;
  MakeNode(slot, landmark);
  if (config_.use_baseline) {
    s.baseline->Start();
  } else {
    s.p2->Start();
  }
  return true;
}

}  // namespace p2
