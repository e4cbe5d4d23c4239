// Failure-injection tests: packet loss, garbage traffic, abrupt node
// destruction with in-flight work, and queue overload.
#include <gtest/gtest.h>

#include "src/net/wire.h"
#include "src/overlays/chord.h"
#include "src/overlays/gossip.h"
#include "src/p2/node.h"
#include "src/sim/network.h"

namespace p2 {
namespace {

ChordConfig FastChord() {
  ChordConfig c;
  c.finger_fix_period_s = 2.0;
  c.stabilize_period_s = 2.5;
  c.ping_period_s = 0.8;
  c.succ_lifetime_s = 1.7;
  c.finger_lifetime_s = 60.0;
  return c;
}

TEST(FailureInjection, ChordRingSurvivesPacketLoss) {
  // 5% loss on every datagram, from the very beginning — joins,
  // stabilization, pings and lookups are all affected.
  SimEventLoop loop;
  SimNetwork net(&loop, Topology(TopologyConfig{}), 31);
  net.set_loss_rate(0.05);
  std::vector<std::unique_ptr<SimTransport>> ts;
  std::vector<std::unique_ptr<ChordNode>> ns;
  Rng rng(31);
  for (size_t i = 0; i < 8; ++i) {
    ts.push_back(net.MakeTransport("n" + std::to_string(i), i));
    P2NodeConfig nc;
    nc.executor = &loop;
    nc.transport = ts[i].get();
    nc.seed = rng.NextU64();
    ns.push_back(std::make_unique<ChordNode>(nc, FastChord(), i == 0 ? "" : "n0"));
    ns[i]->Start();
    loop.RunUntil(loop.Now() + 2.0);
  }
  loop.RunUntil(120.0);
  // Despite losses, everyone joins and holds a live successor (retries,
  // soft-state refresh, and periodic re-derivation provide the healing).
  for (auto& n : ns) {
    EXPECT_FALSE(n->Successors().empty()) << n->addr();
    EXPECT_TRUE(n->BestSuccessor().has_value()) << n->addr();
  }
}

TEST(FailureInjection, GarbageAndMalformedPacketsIgnored) {
  SimEventLoop loop;
  SimNetwork net(&loop, Topology(TopologyConfig{}), 5);
  auto tn = net.MakeTransport("node", 0);
  auto ta = net.MakeTransport("attacker", 1);
  P2NodeConfig nc;
  nc.executor = &loop;
  nc.transport = tn.get();
  nc.seed = 1;
  ChordNode node(nc, FastChord(), "");
  node.Start();
  loop.RunUntil(10.0);
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    std::vector<uint8_t> junk;
    for (uint64_t n = rng.NextBelow(64); n > 0; --n) {
      junk.push_back(static_cast<uint8_t>(rng.NextU64()));
    }
    ta->SendTo("node", std::move(junk), TrafficClass::kMaintenance);
  }
  // Also well-framed tuples with absurd names/arities.
  ta->SendTo("node", FrameTuple(*Tuple::Make("lookup", {})), TrafficClass::kLookup);
  ta->SendTo("node", FrameTuple(*Tuple::Make("nosuchrule", {Value::Int(1)})),
             TrafficClass::kMaintenance);
  loop.RunUntil(30.0);
  // The node is unharmed and still a functioning self-ring.
  ASSERT_TRUE(node.BestSuccessor().has_value());
  EXPECT_EQ(node.BestSuccessor()->second, "node");
  EXPECT_GT(node.node()->stats().bad_packets, 100u);
}

TEST(FailureInjection, DestroyNodeWithTrafficInFlight) {
  // Stress the lifetime discipline: kill nodes at random moments while the
  // network is busy; pending timers/datagrams must not touch freed nodes.
  SimEventLoop loop;
  SimNetwork net(&loop, Topology(TopologyConfig{}), 77);
  std::vector<std::unique_ptr<SimTransport>> ts(6);
  std::vector<std::unique_ptr<ChordNode>> ns(6);
  Rng rng(77);
  for (size_t i = 0; i < 6; ++i) {
    ts[i] = net.MakeTransport("n" + std::to_string(i), i);
    P2NodeConfig nc;
    nc.executor = &loop;
    nc.transport = ts[i].get();
    nc.seed = rng.NextU64();
    ns[i] = std::make_unique<ChordNode>(nc, FastChord(), i == 0 ? "" : "n0");
    ns[i]->Start();
  }
  loop.RunUntil(30.0);
  // Kill three nodes at staggered (non-quiescent) instants.
  loop.ScheduleAfter(0.05, [&]() {
    ns[2].reset();
    ts[2].reset();
  });
  loop.ScheduleAfter(0.07, [&]() {
    ns[4].reset();
    ts[4].reset();
  });
  loop.ScheduleAfter(1.3, [&]() {
    ns[5].reset();
    ts[5].reset();
  });
  loop.RunUntil(90.0);
  // Survivors keep functioning (no crash is the main assertion).
  for (size_t i : {0u, 1u, 3u}) {
    EXPECT_FALSE(ns[i]->Successors().empty()) << "n" << i;
  }
}

TEST(FailureInjection, InputQueueOverloadShedsOldest) {
  SimEventLoop loop;
  SimNetwork net(&loop, Topology(TopologyConfig{}), 3);
  auto t = net.MakeTransport("n0", 0);
  P2NodeConfig nc;
  nc.executor = &loop;
  nc.transport = t.get();
  nc.seed = 1;
  nc.input_queue_capacity = 16;
  P2Node node(nc);
  std::string err;
  ASSERT_TRUE(node.Install("r out@X(X,K) :- ev@X(X,K).", &err)) << err;
  int outs = 0;
  node.Subscribe("out", [&](const TuplePtr&) { ++outs; });
  node.Start();
  // Flood far beyond capacity before the driver gets to run.
  for (int i = 0; i < 1000; ++i) {
    node.Inject(Tuple::Make("ev", {Value::Addr("n0"), Value::Int(i)}));
  }
  loop.RunUntil(5.0);
  // The queue shed load instead of growing unboundedly; survivors flowed.
  EXPECT_GT(outs, 0);
  EXPECT_LT(outs, 1000);
}

TEST(FailureInjection, GossipPartitionsHealOnReconnect) {
  SimEventLoop loop;
  SimNetwork net(&loop, Topology(TopologyConfig{}), 41);
  GossipConfig gc;
  gc.gossip_period_s = 0.5;
  std::vector<std::unique_ptr<SimTransport>> ts;
  std::vector<std::unique_ptr<GossipNode>> ns;
  for (size_t i = 0; i < 4; ++i) {
    ts.push_back(net.MakeTransport("g" + std::to_string(i), i));
    P2NodeConfig nc;
    nc.executor = &loop;
    nc.transport = ts[i].get();
    nc.seed = 10 + i;
    // Two islands: {g0,g1} and {g2,g3}.
    std::vector<std::string> seeds;
    seeds.push_back(i < 2 ? "g0" : "g2");
    ns.push_back(std::make_unique<GossipNode>(nc, gc, seeds));
    ns.back()->Start();
  }
  loop.RunUntil(10.0);
  EXPECT_EQ(ns[0]->Members().size(), 2u);
  EXPECT_EQ(ns[3]->Members().size(), 2u);
  // Bridge the islands with a single fact on one node.
  ns[0]->node()->GetTable("gmember")->Insert(
      Tuple::Make("gmember", {Value::Addr("g0"), Value::Addr("g2")}));
  loop.RunUntil(60.0);
  for (auto& n : ns) {
    EXPECT_EQ(n->Members().size(), 4u) << n->addr();
  }
}

}  // namespace
}  // namespace p2
