// Shard-count determinism: the whole point of conservative-window
// synchronization plus content-keyed delivery ordering is that sharding is
// a pure performance lever. For a fixed seed, --shards 1, 4 and 8 — with
// work stealing on or off — must produce the same simulation: same
// per-node event sequences, hence same converged routing tables, same
// per-node delivered-datagram counts, and the same fleet-wide event
// totals. Verified for a heavyweight overlay (declarative Chord with loss
// and workload lookups), a lightweight one (gossip membership), and a
// deliberately imbalanced fleet where domains demonstrably migrate
// between workers (p2_shard_steals_total > 0) without changing results.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cli/scenario.h"
#include "src/harness/workload.h"
#include "src/obs/registry.h"
#include "src/overlays/gossip.h"
#include "src/sim/network.h"
#include "src/sim/shard.h"

namespace p2 {
namespace {

struct ChordRunResult {
  std::vector<std::string> successors;
  std::vector<uint64_t> delivered;
  uint64_t events = 0;
  size_t completed = 0;
  size_t consistent = 0;
  std::vector<int> hops;

  bool operator==(const ChordRunResult& o) const {
    return successors == o.successors && delivered == o.delivered &&
           events == o.events && completed == o.completed &&
           consistent == o.consistent && hops == o.hops;
  }
};

ChordRunResult RunChord(size_t shards, bool steal) {
  ScenarioNet net(BackendKind::kSim, 24, /*seed=*/4242, /*loss_rate=*/0.1,
                  /*udp_base_port=*/0, /*reliable=*/false, shards, FaultPlan{}, steal);
  TestbedConfig cfg;
  cfg.chord.finger_fix_period_s = 2.0;
  cfg.chord.stabilize_period_s = 2.5;
  cfg.chord.ping_period_s = 0.8;
  cfg.chord.succ_lifetime_s = 1.7;
  cfg.chord.finger_lifetime_s = 60.0;
  ChordTestbed tb(cfg, &net);
  tb.BuildAndSettle(0.25 * 24 + 90.0);
  for (int i = 0; i < 8; ++i) {
    tb.IssueRandomLookup();
    net.Run(1.0);
  }
  net.Run(25.0);
  ChordRunResult r;
  r.successors = tb.BestSuccessorByNode();
  r.delivered = tb.DeliveredByNode();
  r.events = net.SimEventsRun();
  for (const auto& rec : tb.lookups()) {
    r.completed += rec.completed ? 1 : 0;
    r.consistent += rec.consistent ? 1 : 0;
    r.hops.push_back(rec.hops);
  }
  return r;
}

TEST(ShardDeterminism, ChordIdenticalAcrossShardCountsAndStealModes) {
  ChordRunResult one = RunChord(1, /*steal=*/true);
  ChordRunResult four = RunChord(4, /*steal=*/true);
  // Converged routing tables: every node's best successor matches.
  EXPECT_EQ(one.successors, four.successors);
  // Per-node delivered-event counts match endpoint for endpoint.
  EXPECT_EQ(one.delivered, four.delivered);
  EXPECT_EQ(one.events, four.events);
  EXPECT_EQ(one.completed, four.completed);
  EXPECT_EQ(one.consistent, four.consistent);
  EXPECT_EQ(one.hops, four.hops);
  // Stealing is a pure scheduling decision: turning it off, or running
  // more workers than a 4-way split, changes nothing observable.
  ChordRunResult four_static = RunChord(4, /*steal=*/false);
  EXPECT_TRUE(four == four_static);
  ChordRunResult eight = RunChord(8, /*steal=*/true);
  EXPECT_TRUE(one == eight);
  // And the run did something: a settled 24-ring answers its lookups.
  EXPECT_GE(one.completed, 6u);
}

struct GossipRunResult {
  std::vector<size_t> view_sizes;
  std::vector<uint64_t> delivered;
  uint64_t events = 0;
};

GossipRunResult RunGossipFleet(size_t shards) {
  constexpr size_t kNodes = 16;
  ScenarioNet net(BackendKind::kSim, kNodes, 77, /*loss_rate=*/0.05,
                  /*udp_base_port=*/0, /*reliable=*/false, shards);
  GossipConfig gc;
  gc.gossip_period_s = 1.0;
  std::vector<std::unique_ptr<GossipNode>> nodes;
  for (size_t i = 0; i < kNodes; ++i) {
    P2NodeConfig nc;
    nc.executor = net.executor(i);
    nc.transport = net.transport(i);
    nc.seed = 77 + i;
    std::vector<std::string> seeds;
    if (i > 0) {
      seeds.push_back(net.addr(i - 1));
    }
    nodes.push_back(std::make_unique<GossipNode>(nc, gc, seeds));
    nodes.back()->Start();
  }
  net.Run(90.0);
  GossipRunResult r;
  for (size_t i = 0; i < kNodes; ++i) {
    r.view_sizes.push_back(nodes[i]->Members().size());
    r.delivered.push_back(net.transport(i)->stats().msgs_in);
  }
  r.events = net.SimEventsRun();
  for (auto& n : nodes) {
    n->Stop();
  }
  return r;
}

TEST(ShardDeterminism, GossipIdenticalAcrossShardCounts) {
  GossipRunResult one = RunGossipFleet(1);
  GossipRunResult four = RunGossipFleet(4);
  EXPECT_EQ(one.view_sizes, four.view_sizes);
  EXPECT_EQ(one.delivered, four.delivered);
  EXPECT_EQ(one.events, four.events);
  // The fleet actually converged: full views everywhere.
  for (size_t view : one.view_sizes) {
    EXPECT_EQ(view, 16u);
  }
}

// A deliberately imbalanced fleet: most endpoints — and nearly all the
// traffic — live in topology domain 0, so the shard = id-mod-workers map
// pins almost the whole load on one worker. The balancer must migrate
// domains off it (steals observed via the registry) while the simulation
// stays bit-for-bit identical to the 1-shard and steal-off runs.
struct HotDomainResult {
  std::vector<uint64_t> delivered;
  uint64_t events = 0;
  uint64_t steals = 0;
  uint64_t owner_moves = 0;
};

HotDomainResult RunHotDomainFleet(size_t shards, bool steal) {
  constexpr size_t kDomains = 10;  // stock TopologyConfig
  constexpr size_t kHot = 12;      // endpoints in domain 0
  ShardedSim sim(shards);
  sim.SetStealing(steal);
  SimNetwork net(&sim, Topology(TopologyConfig{}), /*seed=*/99);
  obs::Registry registry(sim.num_shards() + 1);
  sim.SetObs(&registry, nullptr);

  // Hot endpoints at topo indices 0, 10, 20, ... (all domain 0); three
  // cold ones in domains 1..3.
  std::vector<std::unique_ptr<SimTransport>> eps;
  std::vector<size_t> topo;
  for (size_t i = 0; i < kHot; ++i) {
    topo.push_back(i * kDomains);
  }
  topo.push_back(1);
  topo.push_back(2);
  topo.push_back(3);
  for (size_t i = 0; i < topo.size(); ++i) {
    eps.push_back(net.MakeTransport("e" + std::to_string(i), topo[i]));
    eps.back()->SetReceiver([](const std::string&, const std::vector<uint8_t>&) {});
  }

  // Chatty intra-domain-0 ring (every 50ms) plus a slow cold ring, driven
  // by self-rescheduling timers so every window has work to balance. The
  // ticks live here, not in their own closures, so nothing leaks a cycle.
  std::vector<uint8_t> payload{1, 2, 3, 4};
  std::vector<std::unique_ptr<std::function<void()>>> ticks;
  for (size_t i = 0; i < topo.size(); ++i) {
    bool hot = i < kHot;
    size_t next = hot ? (i + 1) % kHot : kHot + (i - kHot + 1) % 3;
    double period = hot ? 0.05 : 1.0;
    Executor* ex = sim.shard(net.ShardOf(topo[i]));
    ticks.push_back(std::make_unique<std::function<void()>>());
    std::function<void()>* tick = ticks.back().get();
    *tick = [&eps, &payload, ex, tick, i, next, period]() {
      eps[i]->SendTo(eps[next]->local_addr(), payload, TrafficClass::kMaintenance);
      ex->ScheduleAfter(period, [tick]() { (*tick)(); });
    };
    ex->ScheduleAfter(period, [tick]() { (*tick)(); });
  }
  sim.RunUntil(60.0);

  HotDomainResult r;
  for (auto& e : eps) {
    r.delivered.push_back(e->stats().msgs_in);
  }
  r.events = sim.events_run();
  obs::Snapshot snap = registry.TakeSnapshot();
  r.steals = snap.counters["p2_shard_steals_total"];
  r.owner_moves = snap.counters["p2_domain_owner_moves_total"];
  return r;
}

TEST(ShardDeterminism, HotDomainMigratesWithoutChangingResults) {
  HotDomainResult one = RunHotDomainFleet(1, /*steal=*/true);
  HotDomainResult stolen = RunHotDomainFleet(4, /*steal=*/true);
  HotDomainResult pinned = RunHotDomainFleet(4, /*steal=*/false);

  // Same simulation in all three schedules.
  EXPECT_EQ(one.delivered, stolen.delivered);
  EXPECT_EQ(one.delivered, pinned.delivered);
  EXPECT_EQ(one.events, stolen.events);
  EXPECT_EQ(one.events, pinned.events);

  // The imbalance actually triggered migration — and only with stealing.
  EXPECT_GT(stolen.steals, 0u);
  EXPECT_GT(stolen.owner_moves, 0u);
  EXPECT_EQ(pinned.steals, 0u);
  EXPECT_EQ(pinned.owner_moves, 0u);
  EXPECT_EQ(one.steals, 0u);  // one worker: nothing to steal from

  // The workload was genuinely lopsided: the hot ring dominates traffic.
  uint64_t hot_msgs = 0;
  uint64_t cold_msgs = 0;
  for (size_t i = 0; i < one.delivered.size(); ++i) {
    (i < 12 ? hot_msgs : cold_msgs) += one.delivered[i];
  }
  EXPECT_GT(hot_msgs, 10 * cold_msgs);
}

}  // namespace
}  // namespace p2
