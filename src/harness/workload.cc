#include "src/harness/workload.h"

#include <algorithm>
#include <utility>

#include "src/harness/faults.h"
#include "src/runtime/logging.h"

namespace p2 {

namespace {

constexpr int kLookupMaxRetries = 4;
// Cadence of the control-timeline refresh of the bootstrap snapshot the
// per-node landmark providers draw from.
constexpr double kBootstrapRefreshS = 5.0;

}  // namespace

ChordTestbed::ChordTestbed(TestbedConfig config, ScenarioNet* net)
    : config_(std::move(config)),
      net_(net),
      rng_(net->seed()),
      boot_seed_rng_(net->seed() ^ 0xB007) {
  pending_.resize(net->num_shards());
  hop_arrivals_.resize(net->num_shards());
  if (net->metrics() != nullptr) {
    for (size_t s = 0; s < net->num_shards(); ++s) {
      wrong_lookup_.push_back(net->metrics()->GetCounter(s, "p2_lookup_wrong_total"));
    }
  }
}

ChordTestbed::~ChordTestbed() {
  // Nodes go first: their hooks write into the measurement lanes, which
  // are declared after slots_ and so would otherwise be destroyed before
  // them. The endpoints stay with the net.
  for (Slot& s : slots_) {
    s.p2.reset();
    s.baseline.reset();
  }
}

void ChordTestbed::MakeNode(size_t slot, const std::string& landmark) {
  Slot& s = slots_[slot];
  const std::string& addr = net_->addr(slot);
  s.id = Uint160::HashOf(addr);
  // Drawn from a separate stream so the node-seed sequence rng_ produces is
  // unchanged by the bootstrap machinery (keeps seeded experiments stable).
  s.boot_rng = std::make_unique<Rng>(boot_seed_rng_.NextU64());
  Executor* executor = net_->executor(slot);
  Transport* endpoint = net_->transport(slot);
  if (net_->channel(slot) != nullptr) {
    // The net seeds the slot's reliable channel itself, but one draw per
    // reliable slot still precedes the node seed: the node seeds of every
    // seeded reliable experiment are defined by this draw order.
    rng_.NextU64();
  }
  if (config_.use_baseline) {
    s.baseline = std::make_unique<BaselineChordNode>(executor, endpoint,
                                                     rng_.NextU64(), config_.baseline,
                                                     landmark);
  } else {
    P2NodeConfig nc;
    nc.addr = addr;
    nc.executor = executor;
    nc.transport = endpoint;
    nc.seed = rng_.NextU64();
    nc.metrics = net_->metrics();
    nc.watches = config_.watches;
    nc.sysstats_period_s = config_.sysstats_period_s;
    std::string extra;
    if (net_->faults() != nullptr && net_->faults()->IsByzantineNode(slot)) {
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
  snap_live_.push_back(addr);
  HookMeasurement(slot);
}

void ChordTestbed::StartNode(size_t slot) {
  if (config_.use_baseline) {
    slots_[slot].baseline->Start();
  } else {
    slots_[slot].p2->Start();
  }
}

bool ChordTestbed::HasSuccessor(const Slot& s) const {
  return config_.use_baseline ? !s.baseline->Successors().empty()
                              : !s.p2->Successors().empty();
}

std::optional<std::pair<Uint160, std::string>> ChordTestbed::BestSuccessor(
    const Slot& s) const {
  return config_.use_baseline ? s.baseline->BestSuccessor() : s.p2->BestSuccessor();
}

std::string ChordTestbed::SnapshotBootstrap(size_t slot) {
  const std::string& self = net_->addr(slot);
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
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].alive && HasSuccessor(slots_[i])) {
      snap_joined_.push_back(net_->addr(i));
    }
  }
}

void ChordTestbed::ScheduleBootstrapRefresh() {
  net_->control_executor()->ScheduleAfter(kBootstrapRefreshS, [this]() {
    RefreshJoinedSnapshot();
    ScheduleBootstrapRefresh();
  });
}

void ChordTestbed::HookMeasurement(size_t slot) {
  Slot& s = slots_[slot];
  size_t shard = s.shard;
  Executor* clock = net_->shard_executor(slot);
  auto on_result = [this, shard, clock](const Uint160& key, const std::string& addr,
                                        const Uint160& ev) {
    OnLookupResult(shard, clock->Now(), key, addr, ev);
  };
  if (config_.use_baseline) {
    s.baseline->OnLookupResult([on_result](const BaselineChordNode::LookupResult& r) {
      on_result(r.key, r.successor_addr, r.event_id);
    });
    s.baseline->OnLookupSeen([this, shard, clock](const Uint160& event) {
      hop_arrivals_[shard][event.Low64()].push_back(clock->Now());
    });
  } else {
    s.p2->OnLookupResult([on_result](const ChordNode::LookupResult& r) {
      on_result(r.key, r.successor_addr, r.event_id);
    });
    s.p2->node()->Subscribe("lookup", [this, shard, clock](const TuplePtr& t) {
      if (t->size() >= 4 && t->field(3).type() == ValueType::kId) {
        hop_arrivals_[shard][t->field(3).AsId().Low64()].push_back(clock->Now());
      }
    });
  }
}

void ChordTestbed::BuildAndSettle(double settle_deadline_s) {
  slots_.resize(net_->size());
  for (size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].shard = net_->shard_executor(i)->shard_index();
  }
  // The first node forms the ring; the rest join through it, staggered.
  // Joins create nodes and mutate fleet-wide state, so they run as control
  // tasks: at window barriers, on the coordinator thread.
  MakeNode(0, "");
  StartNode(0);
  const std::string landmark = net_->addr(0);
  for (size_t i = 1; i < slots_.size(); ++i) {
    double at = config_.join_stagger_s * static_cast<double>(i);
    net_->control_executor()->ScheduleAfter(at, [this, i, landmark]() {
      MakeNode(i, landmark);
      StartNode(i);
    });
  }
  if (!refresh_scheduled_) {
    refresh_scheduled_ = true;
    ScheduleBootstrapRefresh();
  }
  net_->Run(settle_deadline_s);
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
  rec.origin = net_->addr(slot);
  rec.origin_slot = slot;
  rec.issued_at = net_->Now();
  pending_[slots_[slot].shard][event.Low64()] = lookups_.size();
  lookups_.push_back(rec);
  hops_finalized_ = false;
  ScheduleLookupRetry(lookups_.size() - 1);
}

void ChordTestbed::ScheduleLookupRetry(size_t record_index) {
  // The retry fires on the issuing node's shard loop, undilated even for a
  // slow node: it touches only that record, that node, and slot state that
  // changes at barriers alone.
  size_t slot = lookups_[record_index].origin_slot;
  net_->shard_executor(slot)->ScheduleAfter(kLookupRetryS, [this, record_index, slot]() {
    LookupRecord& rec = lookups_[record_index];
    if (rec.completed || rec.retries >= kLookupMaxRetries) {
      return;
    }
    // Re-issue from the original node if it is still alive (a dead issuer
    // could never receive the answer anyway; a churn replacement reuses the
    // slot but not the address).
    Slot& s = slots_[slot];
    const std::string& addr = net_->addr(slot);
    if (!s.alive || addr != rec.origin) {
      return;
    }
    ++rec.retries;
    if (config_.use_baseline) {
      s.baseline->RetryLookup(rec.key, rec.event);
    } else {
      s.p2->node()->Inject(Tuple::Make("lookup", {Value::Addr(addr), Value::Id(rec.key),
                                                  Value::Addr(addr), Value::Id(rec.event)}));
    }
    ScheduleLookupRetry(record_index);
  });
}

void ChordTestbed::OnLookupResult(size_t shard, double now, const Uint160& key,
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
  rec.latency_s = now - rec.issued_at;
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
  size_t best = slots_.size();
  Uint160 best_dist;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].alive) {
      continue;
    }
    Uint160 dist = slots_[i].id - key;  // clockwise distance; 0 when id == key
    if (best == slots_.size() || dist < best_dist) {
      best = i;
      best_dist = dist;
    }
  }
  return best == slots_.size() ? "" : net_->addr(best);
}

double ChordTestbed::RingConsistencyFraction() const {
  size_t ok = 0;
  size_t n = 0;
  for (const Slot& s : slots_) {
    if (!s.alive) {
      continue;
    }
    ++n;
    std::optional<std::pair<Uint160, std::string>> best = BestSuccessor(s);
    if (best.has_value() && best->second == GroundTruthSuccessor(s.id + Uint160(1))) {
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
    joined += HasSuccessor(s) ? 1 : 0;
  }
  return n == 0 ? 0 : static_cast<double>(joined) / static_cast<double>(n);
}

uint64_t ChordTestbed::TotalMaintBytesOut() const {
  uint64_t total = dead_maint_bytes_;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].alive) {
      total += net_->transport(i)->stats().maint_bytes_out;
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

std::vector<std::string> ChordTestbed::BestSuccessorByNode() {
  std::vector<std::string> out;
  out.reserve(slots_.size());
  for (const Slot& s : slots_) {
    std::optional<std::pair<Uint160, std::string>> best;
    if (s.alive) {
      best = BestSuccessor(s);
    }
    out.push_back(best.has_value() ? best->second : "");
  }
  return out;
}

std::vector<uint64_t> ChordTestbed::DeliveredByNode() const {
  std::vector<uint64_t> out;
  out.reserve(slots_.size());
  for (size_t i = 0; i < slots_.size(); ++i) {
    out.push_back(slots_[i].alive ? net_->transport(i)->stats().msgs_in : 0);
  }
  return out;
}

bool ChordTestbed::ReplaceNode(size_t slot) {
  if (live_count_ <= 1 || slot >= slots_.size() || !slots_[slot].alive) {
    return false;
  }
  Slot& s = slots_[slot];
  const std::string dead = net_->addr(slot);
  // Account the dead node's traffic so cumulative totals stay monotone.
  dead_maint_bytes_ += net_->transport(slot)->stats().maint_bytes_out;
  s.p2.reset();
  s.baseline.reset();
  net_->Kill(slot);
  s.alive = false;
  --live_count_;
  // Prune the dead address from the bootstrap snapshots so join retries
  // stop resolving to it before the next periodic refresh.
  auto prune = [&dead](std::vector<std::string>* v) {
    v->erase(std::remove(v->begin(), v->end(), dead), v->end());
  };
  prune(&snap_live_);
  prune(&snap_joined_);
  // Pick a random live landmark for the replacement.
  std::vector<size_t> live;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].alive) {
      live.push_back(i);
    }
  }
  const std::string landmark = net_->addr(live[rng_.NextBelow(live.size())]);
  net_->Revive(slot, /*fresh_address=*/true);
  if (net_->transport(slot) == nullptr) {
    // A udp socket could not be bound; the slot stays dead.
    P2_LOG(LogLevel::kWarn, "chord replacement for slot %zu has no endpoint", slot);
    return true;
  }
  MakeNode(slot, landmark);
  StartNode(slot);
  return true;
}

}  // namespace p2
