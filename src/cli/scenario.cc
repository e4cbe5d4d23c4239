#include "src/cli/scenario.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

#include "src/harness/churn.h"
#include "src/harness/workload.h"
#include "src/overlays/chord.h"
#include "src/overlays/gossip.h"
#include "src/overlays/narada.h"
#include "src/overlays/pathvector.h"
#include "src/runtime/logging.h"

namespace p2 {

bool ParseOverlayKind(const std::string& name, OverlayKind* out) {
  if (name == "chord") {
    *out = OverlayKind::kChord;
  } else if (name == "gossip") {
    *out = OverlayKind::kGossip;
  } else if (name == "narada") {
    *out = OverlayKind::kNarada;
  } else if (name == "pathvector") {
    *out = OverlayKind::kPathVector;
  } else {
    return false;
  }
  return true;
}

bool ParseBackendKind(const std::string& name, BackendKind* out) {
  if (name == "sim") {
    *out = BackendKind::kSim;
  } else if (name == "udp") {
    *out = BackendKind::kUdp;
  } else {
    return false;
  }
  return true;
}

const char* OverlayKindName(OverlayKind kind) {
  switch (kind) {
    case OverlayKind::kChord:
      return "chord";
    case OverlayKind::kGossip:
      return "gossip";
    case OverlayKind::kNarada:
      return "narada";
    case OverlayKind::kPathVector:
      return "pathvector";
  }
  return "?";
}

const char* BackendKindName(BackendKind kind) {
  return kind == BackendKind::kSim ? "sim" : "udp";
}

// --- ScenarioNet -----------------------------------------------------------

ScenarioNet::ScenarioNet(BackendKind backend, size_t nodes, uint64_t seed,
                         double loss_rate, uint16_t udp_base_port, bool reliable,
                         size_t shards, FaultPlan faults, bool steal)
    : backend_(backend),
      seed_(seed),
      loss_rate_(loss_rate),
      reliable_(reliable),
      fresh_addr_counter_(nodes),
      faults_(std::move(faults)) {
  lossy_.resize(nodes);
  channels_.resize(nodes);
  dilated_.resize(nodes);
  // Live halves of the fleet channel aggregation; Kill() retires the dead.
  pool_.SetLiveSource(
      [this](ReliableChannelStats* total) {
        for (const auto& ch : channels_) {
          if (ch != nullptr) {
            total->MergeFrom(ch->Stats());
          }
        }
      },
      [this](SendFailureCounters* total) {
        for (const auto& t : udp_transports_) {
          if (t != nullptr) {
            total->MergeFrom(t->send_failures());
          }
        }
      });
  if (backend_ == BackendKind::kSim) {
    sim_engine_ = std::make_unique<ShardedSim>(shards);
    sim_engine_->SetStealing(steal);
    sim_net_ = std::make_unique<SimNetwork>(sim_engine_.get(), Topology(TopologyConfig{}),
                                            seed ^ 0x5EED);
    sim_net_->set_loss_rate(loss_rate);
    if (faults_.any()) {
      injector_ = std::make_unique<FaultInjector>(faults_, seed ^ 0xFA17ULL);
      sim_net_->SetFaults(injector_.get());
    }
    for (size_t i = 0; i < nodes; ++i) {
      std::string addr = "n" + std::to_string(i);
      sim_transports_.push_back(sim_net_->MakeTransport(addr, i));
      addrs_.push_back(std::move(addr));
      BuildStack(i);
    }
    return;
  }
  udp_loop_ = std::make_unique<UdpLoop>();
  for (size_t i = 0; i < nodes; ++i) {
    uint32_t wanted = udp_base_port == 0 ? 0 : udp_base_port + static_cast<uint32_t>(i);
    if (wanted > 65535) {
      // base+i would wrap uint16_t and silently bind the wrong port.
      ok_ = false;
      addrs_.push_back("");
      udp_transports_.push_back(nullptr);
      continue;
    }
    auto t = udp_loop_->MakeTransport(static_cast<uint16_t>(wanted));
    if (t == nullptr) {
      ok_ = false;
      addrs_.push_back("");
      udp_transports_.push_back(nullptr);
      continue;
    }
    addrs_.push_back(t->local_addr());
    udp_transports_.push_back(std::move(t));
    BuildStack(i);
  }
}

ScenarioNet::~ScenarioNet() {
  // Channels hold receiver hooks into the base transports; tear the stack
  // down outermost-first.
  channels_.clear();
  lossy_.clear();
}

void ScenarioNet::BuildStack(size_t i) {
  Transport* top = backend_ == BackendKind::kSim
                       ? static_cast<Transport*>(sim_transports_[i].get())
                       : static_cast<Transport*>(udp_transports_[i].get());
  if (top == nullptr) {
    return;
  }
  if (backend_ == BackendKind::kUdp && loss_rate_ > 0) {
    // The sim injects loss in the fabric; UDP endpoints get a deterministic
    // per-endpoint drop filter instead.
    lossy_[i] = std::make_unique<LossyTransport>(
        top, loss_rate_, seed_ ^ (0x1055ULL + 0x9E3779B97F4A7C15ULL * (i + 1)));
    top = lossy_[i].get();
  }
  if (reliable_) {
    // The epoch seed folds in the revive counter so a replacement endpoint
    // reusing an address announces a fresh stream incarnation. The channel
    // belongs to node i, so its timers arm on node i's shard executor.
    channels_[i] = std::make_unique<ReliableChannel>(
        top, executor(i), ReliableConfig{},
        seed_ + 0xC4A271ULL + i + revive_counter_ * 1000003ULL);
  }
}

size_t ScenarioNet::shards() const {
  return sim_engine_ != nullptr ? sim_engine_->num_workers() : 1;
}

size_t ScenarioNet::num_shards() const {
  return sim_engine_ != nullptr ? sim_engine_->num_shards() : 1;
}

Executor* ScenarioNet::shard_executor(size_t i) {
  if (backend_ != BackendKind::kSim) {
    return udp_loop_.get();
  }
  return sim_engine_->shard(sim_net_->ShardOf(i));
}

Executor* ScenarioNet::executor(size_t i) {
  Executor* base = shard_executor(i);
  if (injector_ != nullptr && injector_->IsSlowNode(i)) {
    // One wrapper per slot, reused across churn revivals so the slot stays
    // slow for its whole life regardless of how often it is rebuilt.
    if (dilated_[i] == nullptr) {
      dilated_[i] = std::make_unique<DilatedExecutor>(base, faults_.slow_factor);
    }
    return dilated_[i].get();
  }
  return base;
}

Executor* ScenarioNet::control_executor() {
  return backend_ == BackendKind::kSim ? sim_engine_->control()
                                       : static_cast<Executor*>(udp_loop_.get());
}

Transport* ScenarioNet::transport(size_t i) {
  if (channels_[i] != nullptr) {
    return channels_[i].get();
  }
  if (lossy_[i] != nullptr) {
    return lossy_[i].get();
  }
  return backend_ == BackendKind::kSim
             ? static_cast<Transport*>(sim_transports_[i].get())
             : static_cast<Transport*>(udp_transports_[i].get());
}

void ScenarioNet::Run(double seconds) {
  if (backend_ == BackendKind::kSim) {
    sim_engine_->RunFor(seconds);
  } else {
    udp_loop_->RunFor(seconds);
  }
}

double ScenarioNet::Now() const {
  return backend_ == BackendKind::kSim ? sim_engine_->Now() : udp_loop_->Now();
}

uint64_t ScenarioNet::SimEventsRun() const {
  return sim_engine_ != nullptr ? sim_engine_->events_run() : 0;
}

void ScenarioNet::ArmFaults() {
  if (injector_ == nullptr) {
    return;
  }
  injector_->Arm(sim_engine_->Now());
  injector_->ScheduleTransitions(sim_engine_->control());
}

void ScenarioNet::SetObs(obs::Registry* metrics, obs::TraceLog* trace) {
  metrics_ = metrics;
  if (metrics != nullptr) {
    metrics->AddCollector([this](obs::Snapshot* snap) { pool_.Collect(snap); });
    if (injector_ != nullptr) {
      injector_->BindObs(metrics);
    }
  }
  if (sim_engine_ != nullptr) {
    sim_engine_->SetObs(metrics, trace);
  }
}

void ScenarioNet::Kill(size_t i) {
  if (channels_[i] != nullptr) {
    pool_.Retire(channels_[i]->Stats());
  }
  channels_[i].reset();
  lossy_[i].reset();
  if (backend_ == BackendKind::kSim) {
    sim_transports_[i].reset();
  } else {
    if (udp_transports_[i] != nullptr) {
      pool_.RetireSendFailures(udp_transports_[i]->send_failures());
    }
    udp_transports_[i].reset();
  }
}

void ScenarioNet::Revive(size_t i, bool fresh_address) {
  ++revive_counter_;
  if (backend_ == BackendKind::kSim) {
    P2_CHECK(sim_transports_[i] == nullptr);
    if (fresh_address) {
      addrs_[i] = "n" + std::to_string(fresh_addr_counter_++);
    }
    sim_transports_[i] = sim_net_->MakeTransport(addrs_[i], i);
    BuildStack(i);
    return;
  }
  // UDP: unless a fresh identity was asked for, re-bind the node's original
  // port so the revived endpoint receives at the address its peers already
  // hold. Without this a replacement would get a fresh kernel-assigned port
  // and every datagram addressed to the old endpoint would blackhole.
  P2_CHECK(udp_transports_[i] == nullptr);
  int port = 0;
  if (!fresh_address) {
    size_t colon = addrs_[i].rfind(':');
    P2_CHECK(colon != std::string::npos);
    port = std::atoi(addrs_[i].c_str() + colon + 1);
    P2_CHECK(port > 0 && port <= 65535);
  }
  auto t = udp_loop_->MakeTransport(static_cast<uint16_t>(port));
  if (t == nullptr) {
    // The port can linger in use briefly; the caller sees a dead slot
    // (transport(i) == nullptr) until the next revive attempt, rather than
    // a silently misbound one.
    P2_LOG(LogLevel::kWarn, "udp revive: bind for slot %zu (%s) failed", i,
           addrs_[i].c_str());
    return;
  }
  addrs_[i] = t->local_addr();
  udp_transports_[i] = std::move(t);
  BuildStack(i);
}

ReliableChannelStats ScenarioNet::TotalReliableStats() const {
  return pool_.TotalReliable();
}

SendFailureCounters ScenarioNet::TotalSendFailures() const {
  return pool_.TotalSendFailures();
}

// --- Per-overlay runners ---------------------------------------------------

namespace {

// Observability wiring every per-node runner shares: the fleet registry,
// the watch list and the sysstats refresh period ride the node config.
void WireNodeObs(const ScenarioConfig& config, ScenarioNet* net, P2NodeConfig* nc) {
  nc->metrics = net->metrics();
  nc->watches = config.watches;
  nc->sysstats_period_s = config.sysstats_period_s;
}

// Renders the registry exposition / trace JSON into the report at run end.
void FinishObsReport(const ScenarioConfig& config, obs::Registry* registry,
                     obs::TraceLog* trace, ScenarioReport* report) {
  if (registry != nullptr && config.stats_dump) {
    report->stats_text = registry->PrometheusText();
  }
  if (trace != nullptr) {
    report->trace_json = trace->ToChromeJson();
  }
}

// Appends the reliable-transport summary line when the stack was enabled.
void FinishTransportReport(const ScenarioConfig& config, const ReliableChannelStats& stats,
                           ScenarioReport* report, std::ostringstream* os) {
  report->reliable = config.reliable;
  report->transport_stats = stats;
  if (config.reliable) {
    *os << "transport: " << stats.Summary() << "\n";
  }
}

// Bamboo-style churn (§5.2) over every slot of the net, inert (null) when
// churn is disabled. `replace` destroys and rebuilds nodes across the
// whole fleet, so deaths run on the control timeline (shards parked at a
// barrier).
std::unique_ptr<ChurnDriver> StartChurn(const ScenarioConfig& config, ScenarioNet* net,
                                        std::function<bool(size_t)> replace) {
  if (config.churn_session_mean_s <= 0) {
    return nullptr;
  }
  ChurnConfig churn_cfg;
  churn_cfg.session_mean_s = config.churn_session_mean_s;
  churn_cfg.seed = config.seed ^ 0xC0FFEE;
  auto driver = std::make_unique<ChurnDriver>(net->control_executor(), net->size(),
                                              std::move(replace), churn_cfg);
  driver->Start();
  return driver;
}

// Churn for the gossip/narada/pathvector runners: each death destroys the
// slot's node, revives its endpoint at the same address, and rebuilds a
// replacement.
std::unique_ptr<ChurnDriver> StartFleetChurn(const ScenarioConfig& config, ScenarioNet* net,
                                             std::function<void(size_t)> destroy_node,
                                             std::function<void(size_t, uint64_t)> rebuild_node) {
  auto salt = std::make_shared<uint64_t>(0);
  return StartChurn(config, net,
                    [net, salt, destroy = std::move(destroy_node),
                     rebuild = std::move(rebuild_node)](size_t slot) {
                      destroy(slot);
                      net->Kill(slot);
                      net->Revive(slot);
                      if (net->transport(slot) == nullptr) {
                        // UDP re-bind can transiently fail (port briefly held
                        // elsewhere). Leave the slot dead; the next scheduled
                        // death retries Revive.
                        return true;
                      }
                      rebuild(slot, ++*salt);
                      return true;
                    });
}

// Full-view convergence rule: everything under no churn; 3/4 under churn,
// where recently replaced nodes are still re-learning the membership.
bool FullViewsConverged(size_t full_views, size_t nodes, bool churned) {
  return churned ? full_views * 4 >= nodes * 3 : full_views == nodes;
}

void AppendChurnDetail(const ScenarioConfig& config, const ChurnDriver* churn,
                       ScenarioReport* report, std::ostringstream* os) {
  if (churn == nullptr) {
    return;
  }
  report->churn_deaths = churn->deaths();
  *os << "churn deaths: " << report->churn_deaths << " (mean session "
      << config.churn_session_mean_s << "s)\n";
}

// How a chord run is paced on each backend.
struct ChordPacing {
  double join_stagger_s;  // between consecutive joins
  double settle_tail_s;   // after the last join, before the ring is audited
  // A ring that has not healed by then keeps settling in windows of this
  // length: at most one window per node, and none past ten without progress.
  double extend_step_s;
  double lookup_gap_s;        // between workload lookups
  double min_drain_s;         // after the last lookup, at the least
  double default_duration_s;  // measurement phase without --duration
};

// The simulator runs the fig3 recipe in virtual seconds: the settle tail
// lets every node finish stabilization before measurement starts (a shorter
// one leaves the last joiners' successor lists racing the first lookups,
// which shows up as spurious inconsistency), and the drain outlasts every
// lookup retry.
constexpr ChordPacing kSimChordPacing = {0.25, 300.0, 30.0, 1.0,
                                         ChordTestbed::kLookupTimeoutS + 1.0, 60.0};
// Over UDP the same shape runs in wall-clock seconds, sized for the snappy
// timers below: the tail spans three finger-fix rounds, so a small loopback
// ring has both its successors and its fingers right before the first
// lookup, and the drain leaves room for one lookup retry.
constexpr ChordPacing kUdpChordPacing = {0.05, 6.0, 1.0, 0.1,
                                         ChordTestbed::kLookupRetryS + 1.0, 8.0};

// Chord on either backend rides the evaluation workload: staggered joins,
// lookups with retries audited against the live ground truth, and
// (optionally) Bamboo-style churn whose replacements join as new identities.
ScenarioReport RunChord(const ScenarioConfig& config, ScenarioNet* net) {
  ScenarioReport report;
  report.nodes = config.nodes;
  const bool sim = net->backend() == BackendKind::kSim;
  const ChordPacing& pace = sim ? kSimChordPacing : kUdpChordPacing;

  TestbedConfig cfg;
  cfg.join_stagger_s = pace.join_stagger_s;
  cfg.watches = config.watches;
  cfg.sysstats_period_s = config.sysstats_period_s;
  if (!sim) {
    // Wall-clock timers snappy enough to form a ring within seconds. As in
    // the Appendix-B defaults, a successor outlives one ping round but not
    // one stabilization round, so a dead successor ages out instead of
    // being gossiped back by every stabilization exchange.
    cfg.chord.finger_fix_period_s = 2.0;
    cfg.chord.stabilize_period_s = 1.5;
    cfg.chord.ping_period_s = 0.5;
    cfg.chord.succ_lifetime_s = 1.2;
  } else if (config.nodes > 64) {
    // Scale profile: a freshly built large ring heals its successor
    // pointers about one step per stabilization round, so round length
    // dominates both convergence time and the event count spent on
    // pings/finger-fixing while waiting. The Appendix-B WAN timers stay in
    // place for small fleets (and for the fig3/fig4 harness runs).
    cfg.chord.stabilize_period_s = 3.0;
    cfg.chord.finger_fix_period_s = 6.0;
  }
  ChordTestbed tb(cfg, net);
  tb.BuildAndSettle(cfg.join_stagger_s * static_cast<double>(config.nodes) +
                    pace.settle_tail_s);
  // Concurrent joins leave the young ring with successor pointers that
  // stabilization repairs roughly one position per round — a wave that
  // takes more rounds the bigger the fleet. Keep settling until the ring
  // is consistent; a healing ring improves every window, so a plateau
  // means this configuration (e.g. heavy loss without the reliable stack)
  // has reached whatever consistency it is going to reach.
  const double step = pace.extend_step_s;
  double extend_cap = step * static_cast<double>(config.nodes);
  double extended = 0;
  double best_ring = tb.RingConsistencyFraction();
  double stalled_for = 0;
  // "Progress" must be a healing wave, not noise: at least one node's
  // pointer (or half a percent of the fleet) fixed per window. A lossy
  // best-effort ring creeps slower than that forever — treat it as
  // plateaued rather than running the full cap.
  double min_progress =
      std::max(0.005, 1.0 / static_cast<double>(config.nodes));
  while (best_ring < 0.95 && extended < extend_cap && stalled_for < 10.0 * step) {
    net->Run(step);
    extended += step;
    double ring = tb.RingConsistencyFraction();
    if (ring >= best_ring + min_progress) {
      best_ring = ring;
      stalled_for = 0;
    } else {
      best_ring = std::max(best_ring, ring);
      stalled_for += step;
    }
  }

  // Fault timeline starts now: "--partition 10:30:0" forms 10 virtual
  // seconds into the measurement phase, against a settled ring. Untimed
  // axes (asymmetric loss, corruption, slow nodes, byzantine rules) were
  // live the whole time — they stress join/stabilization too.
  double pre_fault_ring = tb.RingConsistencyFraction();
  net->ArmFaults();
  if (!config.faults.partitions.empty()) {
    // Drive straight through every scheduled window, then probe recovery:
    // virtual seconds from the last heal until ring consistency is back to
    // its pre-partition level. Partitioned minorities drop their severed
    // successors (succ TTL) and re-join through the landmark machinery
    // once the cut heals, so recovery takes real stabilization rounds.
    net->Run(config.faults.LastTransitionS());
    double heal_instant = net->Now();
    double target = std::min(0.95, pre_fault_ring);
    double cap = 180.0 + static_cast<double>(config.nodes);
    while (net->Now() - heal_instant < cap) {
      net->Run(1.0);
      if (tb.RingConsistencyFraction() >= target) {
        report.partition_heal_s = net->Now() - heal_instant;
        break;
      }
    }
  }

  std::unique_ptr<ChurnDriver> churn =
      StartChurn(config, net, [&tb](size_t slot) { return tb.ReplaceNode(slot); });

  double t0 = net->Now();
  // Paced lookups, then a drain window for stragglers and retries.
  for (int i = 0; i < config.lookups; ++i) {
    tb.IssueRandomLookup();
    net->Run(pace.lookup_gap_s);
  }
  double duration = config.duration_s > 0 ? config.duration_s : pace.default_duration_s;
  net->Run(std::max(pace.min_drain_s,
                    duration - pace.lookup_gap_s * static_cast<double>(config.lookups)));
  report.ran_for_s = net->Now() - t0;

  report.lookups_issued = tb.lookups().size();
  for (const ChordTestbed::LookupRecord& rec : tb.lookups()) {
    report.lookups_completed += rec.completed ? 1 : 0;
    report.lookups_consistent += rec.consistent ? 1 : 0;
  }
  report.ring_consistency = tb.RingConsistencyFraction();
  report.wrong_lookup_rate =
      report.lookups_completed == 0
          ? 0
          : static_cast<double>(report.lookups_completed - report.lookups_consistent) /
                static_cast<double>(report.lookups_completed);

  // A static ring must answer everything consistently; under churn we accept
  // the usual evaluation slack (some lookups race dead nodes).
  bool static_ok = report.lookups_completed == report.lookups_issued &&
                   report.ring_consistency >= 0.9 &&
                   report.lookups_consistent * 10 >= report.lookups_completed * 9;
  bool churn_ok = report.lookups_completed * 4 >= report.lookups_issued * 3;
  report.converged = churn ? churn_ok : static_ok;

  std::ostringstream os;
  os << "lookups: " << report.lookups_completed << "/" << report.lookups_issued
     << " completed, " << report.lookups_consistent << " consistent\n"
     << "ring consistency: " << report.ring_consistency << "\n";
  AppendChurnDetail(config, churn.get(), &report, &os);
  if (!config.faults.partitions.empty()) {
    if (report.partition_heal_s >= 0) {
      os << "partition probe: ring recovered " << report.partition_heal_s
         << "s after the last heal\n";
    } else {
      os << "partition probe: ring NOT recovered after the last heal\n";
    }
  }
  if (config.faults.byzantine_fraction > 0) {
    os << "byzantine: " << net->faults()->CountByzantine(config.nodes) << "/"
       << config.nodes << " nodes answer lookups dishonestly, wrong-lookup rate "
       << report.wrong_lookup_rate << "\n";
  }
  FinishTransportReport(config, net->TotalReliableStats(), &report, &os);
  report.detail = os.str();
  return report;
}

ScenarioReport RunGossip(const ScenarioConfig& config, ScenarioNet* net) {
  ScenarioReport report;
  report.nodes = config.nodes;

  GossipConfig gc;
  gc.gossip_period_s = net->backend() == BackendKind::kSim ? 1.0 : 0.5;
  std::vector<std::unique_ptr<GossipNode>> nodes;
  for (size_t i = 0; i < net->size(); ++i) {
    P2NodeConfig nc;
    nc.executor = net->executor(i);
    nc.transport = net->transport(i);
    nc.seed = config.seed + i;
    WireNodeObs(config, net, &nc);
    // Chain seeding: node i only knows node i-1; convergence therefore
    // proves full transitive spread, not just one-hop pushes.
    std::vector<std::string> seeds;
    if (i > 0) {
      seeds.push_back(net->addr(i - 1));
    }
    nodes.push_back(std::make_unique<GossipNode>(nc, gc, seeds));
    nodes.back()->Start();
  }

  // Measurement starts with the fleet: timed fault windows count from here.
  net->ArmFaults();

  // Under churn the dead node's slot is revived at the same address and
  // rejoins through its ring predecessor.
  std::unique_ptr<ChurnDriver> churn = StartFleetChurn(
      config, net,
      [&nodes](size_t slot) {
        if (nodes[slot] != nullptr) {
          nodes[slot]->Stop();
          nodes[slot].reset();
        }
      },
      [&](size_t slot, uint64_t salt) {
        P2NodeConfig nc;
        nc.executor = net->executor(slot);
        nc.transport = net->transport(slot);
        nc.seed = config.seed + 100003 * salt + slot;
        WireNodeObs(config, net, &nc);
        std::vector<std::string> seeds{
            net->addr((slot + net->size() - 1) % net->size())};
        nodes[slot] = std::make_unique<GossipNode>(nc, gc, seeds);
        nodes[slot]->Start();
      });

  double duration = config.duration_s > 0
                        ? config.duration_s
                        : (net->backend() == BackendKind::kSim ? 120.0 : 8.0);
  double t0 = net->Now();
  net->Run(duration);
  report.ran_for_s = net->Now() - t0;

  size_t full_views = 0;
  double view_sum = 0;
  for (auto& n : nodes) {
    if (n == nullptr) {
      continue;  // dead slot (failed udp re-bind): counts as a stale view
    }
    size_t view = n->Members().size();
    view_sum += static_cast<double>(view);
    full_views += view == net->size() ? 1 : 0;
  }
  report.mean_view_size = nodes.empty() ? 0 : view_sum / static_cast<double>(nodes.size());
  report.converged =
      FullViewsConverged(full_views, net->size(), churn != nullptr);

  std::ostringstream os;
  os << "full membership views: " << full_views << "/" << net->size()
     << " (mean view " << report.mean_view_size << ")\n";
  AppendChurnDetail(config, churn.get(), &report, &os);
  FinishTransportReport(config, net->TotalReliableStats(), &report, &os);
  report.detail = os.str();

  for (auto& n : nodes) {
    if (n != nullptr) {
      n->Stop();
    }
  }
  return report;
}

ScenarioReport RunNarada(const ScenarioConfig& config, ScenarioNet* net) {
  ScenarioReport report;
  report.nodes = config.nodes;

  NaradaConfig narada;
  narada.refresh_period_s = 1.0;
  narada.probe_period_s = 0.5;
  narada.dead_after_s = 6.0;
  narada.latency_probe_period_s = 2.0;

  std::vector<std::unique_ptr<NaradaNode>> nodes;
  for (size_t i = 0; i < net->size(); ++i) {
    P2NodeConfig nc;
    nc.executor = net->executor(i);
    nc.transport = net->transport(i);
    nc.seed = config.seed + i;
    WireNodeObs(config, net, &nc);
    // Chain mesh: i <-> i+1; epidemic refresh must spread membership.
    std::vector<std::string> neighbors;
    if (i > 0) {
      neighbors.push_back(net->addr(i - 1));
    }
    if (i + 1 < net->size()) {
      neighbors.push_back(net->addr(i + 1));
    }
    nodes.push_back(std::make_unique<NaradaNode>(nc, narada, neighbors));
    nodes.back()->Start();
  }

  // Measurement starts with the fleet: timed fault windows count from here.
  net->ArmFaults();

  // Under churn the revived slot re-meshes with both chain neighbors.
  std::unique_ptr<ChurnDriver> churn = StartFleetChurn(
      config, net,
      [&nodes](size_t slot) {
        if (nodes[slot] != nullptr) {
          nodes[slot]->Stop();
          nodes[slot].reset();
        }
      },
      [&](size_t slot, uint64_t salt) {
        P2NodeConfig nc;
        nc.executor = net->executor(slot);
        nc.transport = net->transport(slot);
        nc.seed = config.seed + 100003 * salt + slot;
        WireNodeObs(config, net, &nc);
        std::vector<std::string> neighbors{
            net->addr((slot + net->size() - 1) % net->size()),
            net->addr((slot + 1) % net->size())};
        nodes[slot] = std::make_unique<NaradaNode>(nc, narada, neighbors);
        nodes[slot]->Start();
      });

  double duration = config.duration_s > 0
                        ? config.duration_s
                        : (net->backend() == BackendKind::kSim
                               ? 30.0 + 2.0 * static_cast<double>(net->size())
                               : 10.0);
  double t0 = net->Now();
  net->Run(duration);
  report.ran_for_s = net->Now() - t0;

  size_t full_views = 0;
  double view_sum = 0;
  for (auto& n : nodes) {
    if (n == nullptr) {
      continue;  // dead slot: counts as a stale view
    }
    std::vector<NaradaMember> members = n->Members();
    size_t live = 0;
    for (const NaradaMember& m : members) {
      live += m.live ? 1 : 0;
    }
    view_sum += static_cast<double>(members.size());
    full_views += (members.size() >= net->size() && live >= net->size()) ? 1 : 0;
  }
  report.mean_view_size = nodes.empty() ? 0 : view_sum / static_cast<double>(nodes.size());
  report.converged =
      FullViewsConverged(full_views, net->size(), churn != nullptr);

  std::ostringstream os;
  os << "full live views: " << full_views << "/" << net->size() << " (mean view "
     << report.mean_view_size << ")\n";
  AppendChurnDetail(config, churn.get(), &report, &os);
  FinishTransportReport(config, net->TotalReliableStats(), &report, &os);
  report.detail = os.str();

  for (auto& n : nodes) {
    if (n != nullptr) {
      n->Stop();
    }
  }
  return report;
}

ScenarioReport RunPathVector(const ScenarioConfig& config, ScenarioNet* net) {
  ScenarioReport report;
  report.nodes = config.nodes;

  PathVectorConfig pv;
  pv.advertise_period_s = net->backend() == BackendKind::kSim ? 1.0 : 0.5;
  pv.route_lifetime_s = pv.advertise_period_s * 3.5;

  // Bidirectional unit-cost ring: i <-> i+1 (mod n).
  auto links_for = [net](size_t i) {
    std::vector<std::pair<std::string, int64_t>> links;
    if (net->size() > 1) {
      links.emplace_back(net->addr((i + 1) % net->size()), 1);
      links.emplace_back(net->addr((i + net->size() - 1) % net->size()), 1);
    }
    return links;
  };

  std::vector<std::unique_ptr<PathVectorNode>> nodes;
  for (size_t i = 0; i < net->size(); ++i) {
    P2NodeConfig nc;
    nc.executor = net->executor(i);
    nc.transport = net->transport(i);
    nc.seed = config.seed + i;
    WireNodeObs(config, net, &nc);
    nodes.push_back(std::make_unique<PathVectorNode>(nc, pv, links_for(i)));
    nodes.back()->Start();
  }

  // Measurement starts with the fleet: timed fault windows count from here.
  net->ArmFaults();

  // Under churn the dead node's slot is revived at the same address and
  // relinked into the ring. Survivors withdraw every route through (or to)
  // the dead next-hop immediately — path-vector's explicit withdrawal —
  // so the fleet re-converges within advertisement rounds instead of
  // waiting a full route lifetime per wave of staleness.
  std::unique_ptr<ChurnDriver> churn = StartFleetChurn(
      config, net,
      [&nodes, net](size_t slot) {
        if (nodes[slot] == nullptr) {
          return;  // slot already dead (an earlier udp re-bind failed)
        }
        std::string dead = net->addr(slot);
        nodes[slot]->Stop();
        nodes[slot].reset();
        for (auto& n : nodes) {
          if (n != nullptr) {
            n->WithdrawRoutesVia(dead);
          }
        }
      },
      [&](size_t slot, uint64_t salt) {
        P2NodeConfig nc;
        nc.executor = net->executor(slot);
        nc.transport = net->transport(slot);
        nc.seed = config.seed + 100003 * salt + slot;
        WireNodeObs(config, net, &nc);
        nodes[slot] = std::make_unique<PathVectorNode>(nc, pv, links_for(slot));
        nodes[slot]->Start();
      });

  // Path-vector needs ~diameter advertisement rounds to converge.
  double rounds = static_cast<double>(net->size()) / 2.0 + 8.0;
  double duration = config.duration_s > 0 ? config.duration_s
                                          : rounds * pv.advertise_period_s;
  double t0 = net->Now();
  net->Run(duration);
  report.ran_for_s = net->Now() - t0;

  size_t full_tables = 0;
  double routes_sum = 0;
  for (auto& n : nodes) {
    if (n == nullptr) {
      continue;  // dead slot: counts as an empty table
    }
    size_t best = n->BestRoutes().size();
    routes_sum += static_cast<double>(best);
    full_tables += best >= net->size() - 1 ? 1 : 0;
  }
  report.mean_view_size = nodes.empty() ? 0 : routes_sum / static_cast<double>(nodes.size());
  // Under churn, recently replaced nodes are still re-learning routes when
  // the run ends; hold the fleet to the same 3/4 bar as the view overlays.
  report.converged =
      FullViewsConverged(full_tables, net->size(), churn != nullptr);

  std::ostringstream os;
  os << "full routing tables: " << full_tables << "/" << net->size()
     << " (mean best routes " << report.mean_view_size << ")\n";

  // Healing probe (sim only, incompatible with churn's revival cycle):
  // kill one node for good, let only its two ring neighbors react — they
  // drop the link and delete their candidate routes over it, genuine
  // remove deltas through the table API — and measure the virtual time
  // until every live node's best routes match the post-cut ground truth
  // (the ring minus one node is a line; unit costs make truth exact).
  // Distant nodes are NOT told: stale routes must drain through the
  // planner's retraction chains and soft-state expiry, which is exactly
  // what the metric measures.
  if (config.heal_probe && net->backend() == BackendKind::kSim && !churn &&
      net->size() >= 4) {
    size_t n = net->size();
    size_t victim = n / 2;
    std::string dead = net->addr(victim);
    nodes[victim]->Stop();
    nodes[victim].reset();
    net->Kill(victim);
    for (size_t nb : {(victim + 1) % n, (victim + n - 1) % n}) {
      PathVectorNode* neighbor = nodes[nb].get();
      neighbor->RemoveLink(dead);
      Table* route = neighbor->node()->GetTable("route");
      Value hop = Value::Addr(dead);
      for (const TuplePtr& row : route->Scan()) {
        if (row->size() >= 4 && (row->field(1) == hop || row->field(2) == hop)) {
          route->DeleteByKey({row->field(1), row->field(2)});
        }
      }
    }
    // Ground truth: live slots laid out as a line victim+1 .. victim+n-1,
    // distance = |position difference|; the advertisement horizon hides
    // destinations at max_cost or beyond, so those pairs are skipped.
    auto line_pos = [&](size_t slot) { return (slot + n - victim - 1) % n; };
    auto healed = [&]() {
      for (size_t i = 0; i < n; ++i) {
        if (i == victim) {
          continue;
        }
        std::map<std::string, int64_t> best;
        for (const RouteEntry& r : nodes[i]->BestRoutes()) {
          if (r.dst == dead) {
            return false;  // stale route to the dead node
          }
          best[r.dst] = r.cost;
        }
        for (size_t j = 0; j < n; ++j) {
          if (j == victim || j == i) {
            continue;
          }
          int64_t truth = std::llabs(static_cast<int64_t>(line_pos(i)) -
                                     static_cast<int64_t>(line_pos(j)));
          if (truth >= pv.max_cost) {
            continue;  // beyond the horizon: never advertised
          }
          auto it = best.find(net->addr(j));
          if (it == best.end() || it->second != truth) {
            return false;
          }
        }
      }
      return true;
    };
    double kill_time = net->Now();
    double cap = 90.0 + static_cast<double>(n);
    while (net->Now() - kill_time < cap) {
      net->Run(0.25);
      if (healed()) {
        report.healing_s = net->Now() - kill_time;
        break;
      }
    }
    if (report.healing_s >= 0) {
      os << "heal probe: killed " << dead << ", fleet healed in " << report.healing_s
         << "s\n";
    } else {
      os << "heal probe: killed " << dead << ", NOT healed within " << cap << "s\n";
    }
  }

  AppendChurnDetail(config, churn.get(), &report, &os);
  FinishTransportReport(config, net->TotalReliableStats(), &report, &os);
  report.detail = os.str();

  for (auto& n : nodes) {
    if (n != nullptr) {
      n->Stop();
    }
  }
  return report;
}

}  // namespace

ScenarioReport RunScenario(const ScenarioConfig& config) {
  ScenarioReport report;
  if (config.nodes < 2) {
    report.detail = "scenario needs at least 2 nodes\n";
    return report;
  }
  if (config.shards < 1) {
    report.detail = "--shards must be >= 1\n";
    return report;
  }
  if (config.shards > 1 && config.backend != BackendKind::kSim) {
    report.detail = "--shards applies to the simulator backend only (use --sim)\n";
    return report;
  }
  // Fault injection rides the deterministic fabric: the injector hooks
  // SimNetwork's send path and the timed windows hook the shard
  // coordinator's control timeline, neither of which exists under udp.
  if (config.faults.any() && config.backend != BackendKind::kSim) {
    report.detail = "fault injection flags (--loss-asym/--partition/--latency-spike/"
                    "--slow-nodes/--corrupt/--byzantine) need --sim\n";
    return report;
  }
  if (config.faults.byzantine_fraction > 0 && config.overlay != OverlayKind::kChord) {
    report.detail = "--byzantine applies to the chord overlay only\n";
    return report;
  }

  auto wall_start = std::chrono::steady_clock::now();
  // Registry/trace outlive the net (nodes and shard workers write into
  // them until teardown): declare them first so they destruct last.
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<obs::TraceLog> trace;
  ScenarioNet net(config.backend, config.nodes, config.seed, config.loss_rate,
                  config.udp_base_port, config.reliable, config.shards, config.faults,
                  config.steal);
  if (!net.ok()) {
    report.detail = "failed to bring up transports (UDP bind failure?)\n";
    return report;
  }
  if (config.metrics) {
    registry = std::make_unique<obs::Registry>(net.metrics_lanes());
  }
  if (!config.trace_out.empty()) {
    trace = std::make_unique<obs::TraceLog>(net.metrics_lanes());
  }
  net.SetObs(registry.get(), trace.get());
  switch (config.overlay) {
    case OverlayKind::kChord:
      report = RunChord(config, &net);
      break;
    case OverlayKind::kGossip:
      report = RunGossip(config, &net);
      break;
    case OverlayKind::kNarada:
      report = RunNarada(config, &net);
      break;
    case OverlayKind::kPathVector:
      report = RunPathVector(config, &net);
      break;
  }
  report.shards = net.shards();
  report.sim_events = net.SimEventsRun();
  report.send_failures = net.TotalSendFailures();
  report.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  FinishObsReport(config, registry.get(), trace.get(), &report);
  return report;
}

std::string ExplainOverlayPlan(OverlayKind kind) {
  // One planning node plus a peer slot so seed-member/landmark/link
  // arguments have a real address to point at. Tables are empty at plan
  // time, so the fanout estimates come from the static spec priors and the
  // dump is identical on every run.
  ScenarioNet net(BackendKind::kSim, 2, /*seed=*/1);
  P2NodeConfig nc;
  nc.executor = net.executor(0);
  nc.transport = net.transport(0);
  nc.seed = 1;
  switch (kind) {
    case OverlayKind::kChord: {
      ChordNode node(nc, ChordConfig{}, /*landmark_addr=*/"");
      return node.node()->PlanExplain();
    }
    case OverlayKind::kGossip: {
      GossipNode node(nc, GossipConfig{}, {net.addr(1)});
      return node.node()->PlanExplain();
    }
    case OverlayKind::kNarada: {
      NaradaNode node(nc, NaradaConfig{}, {net.addr(1)});
      return node.node()->PlanExplain();
    }
    case OverlayKind::kPathVector: {
      PathVectorNode node(nc, PathVectorConfig{}, {{net.addr(1), 1}});
      return node.node()->PlanExplain();
    }
  }
  return "";
}

}  // namespace p2
