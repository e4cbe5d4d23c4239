// Fault-injection layer: every axis — asymmetric loss, healing partitions,
// latency spikes, slow nodes, corruption, byzantine responders — behaves
// as specified at the fabric level, and every axis preserves shard-count
// determinism (the same seed produces identical per-node outcomes at
// --shards 1 and --shards 4).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cli/scenario.h"
#include "src/harness/faults.h"
#include "src/harness/workload.h"
#include "src/net/stack/frame.h"
#include "src/net/wire.h"
#include "src/obs/registry.h"
#include "src/overlays/gossip.h"
#include "src/runtime/tuple.h"
#include "src/sim/event_loop.h"
#include "src/sim/network.h"

namespace p2 {
namespace {

TEST(FaultParsers, AcceptAndReject) {
  AsymLossRule rule;
  EXPECT_TRUE(ParseAsymLossSpec("0:3:0.25", &rule));
  EXPECT_EQ(rule.src_domain, 0u);
  EXPECT_EQ(rule.dst_domain, 3u);
  EXPECT_DOUBLE_EQ(rule.rate, 0.25);
  EXPECT_FALSE(ParseAsymLossSpec("0:3", &rule));
  EXPECT_FALSE(ParseAsymLossSpec("0:3:1.5", &rule));
  EXPECT_FALSE(ParseAsymLossSpec("a:3:0.5", &rule));

  PartitionSpec part;
  EXPECT_TRUE(ParsePartitionSpec("10:30:0", &part));
  EXPECT_DOUBLE_EQ(part.start, 10);
  EXPECT_DOUBLE_EQ(part.duration, 30);
  EXPECT_EQ(part.domains, std::vector<size_t>({0}));
  EXPECT_TRUE(ParsePartitionSpec("0:5:0-2,7", &part));
  EXPECT_EQ(part.domains, std::vector<size_t>({0, 1, 2, 7}));
  EXPECT_FALSE(ParsePartitionSpec("10:0:0", &part));   // zero duration
  EXPECT_FALSE(ParsePartitionSpec("10:30:", &part));   // empty set
  EXPECT_FALSE(ParsePartitionSpec("10:30:2-1", &part));  // inverted range

  LatencySpikeSpec spike;
  EXPECT_TRUE(ParseLatencySpikeSpec("5:20:1:3.5", &spike));
  EXPECT_DOUBLE_EQ(spike.factor, 3.5);
  EXPECT_FALSE(ParseLatencySpikeSpec("5:20:1:0.5", &spike));  // factor < 1
  EXPECT_FALSE(ParseLatencySpikeSpec("5:20:1", &spike));

  double frac = 0, factor = 0;
  EXPECT_TRUE(ParseSlowNodesSpec("0.25:4", &frac, &factor));
  EXPECT_DOUBLE_EQ(frac, 0.25);
  EXPECT_DOUBLE_EQ(factor, 4);
  EXPECT_FALSE(ParseSlowNodesSpec("1.5:4", &frac, &factor));
  EXPECT_FALSE(ParseSlowNodesSpec("0.25:0.5", &frac, &factor));
}

// Every numeric p2run flag goes through these parsers. Each rejected value
// below was once accepted: non-finite durations and rates wedged the run
// until a timeout killed it, and trailing garbage was silently dropped.
TEST(FaultParsers, RejectMalformedAndNonFiniteNumbers) {
  double d = 0.25;
  EXPECT_TRUE(ParseNonNegDouble("0", &d));
  EXPECT_DOUBLE_EQ(d, 0);
  EXPECT_TRUE(ParseNonNegDouble("1e3", &d));
  EXPECT_DOUBLE_EQ(d, 1000);
  // --duration inf, --churn nan, --loss nan, --loss abc, --corrupt nan.
  for (const char* bad : {"inf", "nan", "abc", "-inf", "1e999", "0.5x", "", " 1", "-0.5"}) {
    EXPECT_FALSE(ParseNonNegDouble(bad, &d)) << bad;
  }
  EXPECT_DOUBLE_EQ(d, 1000);  // untouched on failure

  uint64_t n = 0;
  EXPECT_TRUE(ParseNonNegInt("8", 100, &n));
  EXPECT_EQ(n, 8u);
  EXPECT_TRUE(ParseNonNegInt("18446744073709551615", UINT64_MAX, &n));
  EXPECT_EQ(n, UINT64_MAX);
  EXPECT_FALSE(ParseNonNegInt("18446744073709551616", UINT64_MAX, &n));
  // --nodes 8x, --seed abc.
  for (const char* bad : {"8x", "abc", "", "-1", "+1", " 1", "1.0", "101"}) {
    EXPECT_FALSE(ParseNonNegInt(bad, 100, &n)) << bad;
  }
  EXPECT_EQ(n, UINT64_MAX);

  PartitionSpec part;
  EXPECT_FALSE(ParsePartitionSpec("10:inf:0", &part));
  EXPECT_FALSE(ParsePartitionSpec("nan:30:0", &part));
  EXPECT_FALSE(ParsePartitionSpec("10:30:0x", &part));
  double frac = 0, factor = 0;
  EXPECT_FALSE(ParseSlowNodesSpec("0.5:inf", &frac, &factor));
  EXPECT_FALSE(ParseSlowNodesSpec("nan:2", &frac, &factor));
  LatencySpikeSpec spike;
  EXPECT_FALSE(ParseLatencySpikeSpec("10:5:0:inf", &spike));
  EXPECT_FALSE(ParseLatencySpikeSpec("10:inf:0:2", &spike));
  AsymLossRule rule;
  EXPECT_FALSE(ParseAsymLossSpec("0:1:nan", &rule));
  EXPECT_FALSE(ParseAsymLossSpec("0:+1:0.5", &rule));
}

TEST(FaultInjectorTest, PerSlotSelectionsAreDeterministicHashes) {
  FaultPlan plan;
  plan.slow_fraction = 0.5;
  plan.slow_factor = 4;
  plan.byzantine_fraction = 0.5;
  FaultInjector a(plan, 99);
  FaultInjector b(plan, 99);
  size_t slow = 0, byz = 0;
  for (size_t slot = 0; slot < 1000; ++slot) {
    EXPECT_EQ(a.IsSlowNode(slot), b.IsSlowNode(slot));
    EXPECT_EQ(a.IsByzantineNode(slot), b.IsByzantineNode(slot));
    slow += a.IsSlowNode(slot) ? 1 : 0;
    byz += a.IsByzantineNode(slot) ? 1 : 0;
  }
  // A 0.5 fraction over 1000 slots lands near 500 (pure-hash binomial).
  EXPECT_GT(slow, 400u);
  EXPECT_LT(slow, 600u);
  EXPECT_GT(byz, 400u);
  EXPECT_LT(byz, 600u);
  EXPECT_EQ(a.CountByzantine(1000), byz);

  // Degenerate fractions are exact.
  FaultPlan none;
  none.slow_factor = 4;
  FaultInjector zero(none, 99);
  FaultPlan all;
  all.slow_fraction = 1;
  all.slow_factor = 4;
  all.byzantine_fraction = 1;
  FaultInjector one(all, 99);
  for (size_t slot = 0; slot < 64; ++slot) {
    EXPECT_FALSE(zero.IsSlowNode(slot));
    EXPECT_FALSE(zero.IsByzantineNode(slot));
    EXPECT_TRUE(one.IsSlowNode(slot));
    EXPECT_TRUE(one.IsByzantineNode(slot));
  }
}

// Minimal two-endpoint fabric: topo slots 0 and 1 sit in domains 0 and 1
// of the default transit-stub topology.
struct TwoNodeFabric {
  SimEventLoop loop;
  SimNetwork net;
  std::unique_ptr<SimTransport> a;
  std::unique_ptr<SimTransport> b;
  size_t a_got = 0;
  size_t b_got = 0;
  double b_last_arrival = -1;

  explicit TwoNodeFabric(uint64_t seed = 7)
      : net(&loop, Topology(TopologyConfig{}), seed) {
    a = net.MakeTransport("a", 0);
    b = net.MakeTransport("b", 1);
    a->SetReceiver([this](const std::string&, const std::vector<uint8_t>&) { ++a_got; });
    b->SetReceiver([this](const std::string&, const std::vector<uint8_t>&) {
      ++b_got;
      b_last_arrival = loop.Now();
    });
  }
};

std::vector<uint8_t> TestPayload() {
  return FrameTuple(*Tuple::Make("probe", {Value::Addr("a"), Value::Addr("b")}));
}

TEST(FaultInjectorTest, OneWayLossIsActuallyAsymmetric) {
  FaultPlan plan;
  plan.asym_loss.push_back({/*src_domain=*/0, /*dst_domain=*/1, /*rate=*/1.0});
  FaultInjector inj(plan, 3);
  TwoNodeFabric f;
  f.net.SetFaults(&inj);
  for (int i = 0; i < 50; ++i) {
    f.a->SendTo("b", TestPayload(), TrafficClass::kMaintenance);
    f.b->SendTo("a", TestPayload(), TrafficClass::kMaintenance);
  }
  f.loop.RunUntil(10.0);
  EXPECT_EQ(f.b_got, 0u);   // a -> b: every datagram dropped
  EXPECT_EQ(f.a_got, 50u);  // b -> a: untouched
}

TEST(FaultInjectorTest, PartitionHealsAtTheExactVirtualSecond) {
  FaultPlan plan;
  PartitionSpec part;
  part.start = 5;
  part.duration = 10;
  part.domains = {0};
  plan.partitions.push_back(part);
  FaultInjector inj(plan, 3);
  inj.Arm(0.0);
  TwoNodeFabric f;
  f.net.SetFaults(&inj);
  // The window is half-open [5, 15): the send at 4.999 and the send at
  // exactly 15.0 get through, everything in between is cut.
  for (double at : {4.999, 5.0, 9.0, 14.999, 15.0, 16.0}) {
    f.loop.ScheduleAfter(at, [&f]() {
      f.a->SendTo("b", TestPayload(), TrafficClass::kMaintenance);
    });
  }
  f.loop.RunUntil(20.0);
  EXPECT_EQ(f.b_got, 3u);
  EXPECT_TRUE(inj.PartitionActive(5.0));
  EXPECT_FALSE(inj.PartitionActive(15.0));
  EXPECT_TRUE(inj.PartitionSevers(6.0, 0, 1));
  EXPECT_FALSE(inj.PartitionSevers(6.0, 1, 2));  // both outside the group
}

TEST(FaultInjectorTest, LatencySpikeMultipliesDelay) {
  double plain_arrival;
  {
    TwoNodeFabric f;
    f.a->SendTo("b", TestPayload(), TrafficClass::kMaintenance);
    f.loop.RunUntil(5.0);
    ASSERT_EQ(f.b_got, 1u);
    plain_arrival = f.b_last_arrival;
  }
  FaultPlan plan;
  LatencySpikeSpec spike;
  spike.start = 0;
  spike.duration = 100;
  spike.domain = 0;
  spike.factor = 3;
  plan.latency_spikes.push_back(spike);
  FaultInjector inj(plan, 3);
  inj.Arm(0.0);
  TwoNodeFabric f;
  f.net.SetFaults(&inj);
  f.a->SendTo("b", TestPayload(), TrafficClass::kMaintenance);
  f.loop.RunUntil(5.0);
  ASSERT_EQ(f.b_got, 1u);
  EXPECT_NEAR(f.b_last_arrival, 3.0 * plain_arrival, 1e-9);
}

TEST(FaultInjectorTest, CorruptionFuzzNeverCrashesTheParsers) {
  FaultPlan plan;
  plan.corrupt_rate = 1.0;
  FaultInjector inj(plan, 11);
  Rng rng(1234);
  std::vector<uint8_t> tuple_frame = TestPayload();
  // A DATA stack frame wrapping the tuple, plus a bare ACK frame: the
  // corruption path exercises both the strict stack decoder and the plain
  // tuple unframer.
  StackFrame data;
  data.has_data = true;
  data.epoch = 1;
  data.seq = 1;
  std::vector<uint8_t> stack_frame = EncodeStackFrame(data, tuple_frame);
  StackFrame ack;
  ack.has_ack = true;
  ack.ack_epoch = 1;
  ack.cum_ack = 3;
  std::vector<uint8_t> ack_frame = EncodeStackFrame(ack);
  for (int i = 0; i < 10000; ++i) {
    std::vector<uint8_t> bytes;
    switch (i % 3) {
      case 0: bytes = tuple_frame; break;
      case 1: bytes = stack_frame; break;
      default: bytes = ack_frame; break;
    }
    inj.MaybeCorrupt(0.0, /*lane=*/0, &rng, &bytes);
    // The receive chain must classify the damage without crashing: either
    // a clean reject (nullopt) or a structurally valid parse.
    if (LooksLikeStackFrame(bytes)) {
      std::optional<StackFrame> f = DecodeStackFrame(bytes);
      if (f.has_value() && f->has_data) {
        (void)UnframeTuple(f->payload);
      }
    } else {
      (void)UnframeTuple(bytes);
    }
  }
}

TEST(FaultInjectorTest, CorruptionCountersClassifyEveryHit) {
  obs::Registry registry(2);
  FaultPlan plan;
  plan.corrupt_rate = 1.0;
  FaultInjector inj(plan, 11);
  inj.BindObs(&registry);
  TwoNodeFabric f;
  f.net.SetFaults(&inj);
  size_t parse_failures = 0;
  f.b->SetReceiver([&](const std::string&, const std::vector<uint8_t>& bytes) {
    ++f.b_got;
    parse_failures += UnframeTuple(bytes).has_value() ? 0 : 1;
  });
  for (int i = 0; i < 300; ++i) {
    f.a->SendTo("b", TestPayload(), TrafficClass::kMaintenance);
  }
  f.loop.RunUntil(30.0);
  obs::Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.counters["p2_corrupt_injected_total"], 300u);
  // The fabric still delivers damaged datagrams, and the frame checksum
  // plays UDP's role: every bit-flipped frame must fail unmarshal at the
  // receiver (a 32-bit checksum collision is the only escape, and this run
  // is deterministic), so nothing corrupted ever reaches the dataflow.
  EXPECT_EQ(f.b_got, 300u);
  EXPECT_EQ(parse_failures, 300u);
}

TEST(FaultInjectorTest, DilatedExecutorStretchesTimerDelays) {
  SimEventLoop loop;
  DilatedExecutor slow(&loop, 4.0);
  double fired_at = -1;
  slow.ScheduleAfter(1.0, [&]() { fired_at = loop.Now(); });
  loop.RunUntil(10.0);
  EXPECT_NEAR(fired_at, 4.0, 1e-12);
  // Cancellation passes through to the inner loop.
  bool fired = false;
  TimerId id = slow.ScheduleAfter(1.0, [&]() { fired = true; });
  slow.Cancel(id);
  loop.RunUntil(20.0);
  EXPECT_FALSE(fired);
}

TEST(FaultsChord, ByzantineFractionIsDetected) {
  auto run = [](double byzantine) {
    obs::Registry registry(2);
    FaultPlan plan;
    plan.byzantine_fraction = byzantine;
    ScenarioNet net(BackendKind::kSim, 16, /*seed=*/4242, /*loss_rate=*/0,
                    /*udp_base_port=*/0, /*reliable=*/false, /*shards=*/1, plan);
    net.SetObs(&registry, nullptr);
    TestbedConfig cfg;
    cfg.chord.finger_fix_period_s = 2.0;
    cfg.chord.stabilize_period_s = 2.5;
    cfg.chord.ping_period_s = 0.8;
    cfg.chord.succ_lifetime_s = 1.7;
    ChordTestbed tb(cfg, &net);
    tb.BuildAndSettle(0.25 * 16 + 90.0);
    for (int i = 0; i < 20; ++i) {
      tb.IssueRandomLookup();
      net.Run(1.0);
    }
    net.Run(25.0);
    size_t completed = 0, consistent = 0;
    for (const auto& rec : tb.lookups()) {
      completed += rec.completed ? 1 : 0;
      consistent += rec.consistent ? 1 : 0;
    }
    uint64_t wrong_metric =
        registry.TakeSnapshot().counters["p2_lookup_wrong_total"];
    return std::make_tuple(completed, consistent, wrong_metric,
                           net.faults() != nullptr ? net.faults()->CountByzantine(16)
                                                   : 0);
  };

  auto [hc, hcons, hwrong, hbyz] = run(0.0);
  EXPECT_EQ(hbyz, 0u);
  EXPECT_GE(hc, 18u);       // honest settled ring answers its lookups
  EXPECT_EQ(hcons, hc);     // ... all consistently
  EXPECT_EQ(hwrong, 0u);

  auto [bc, bcons, bwrong, bbyz] = run(0.25);
  EXPECT_GT(bbyz, 0u);
  EXPECT_LT(bcons, bc);  // dishonest answers detected against ground truth
  // The metric is exactly the number of completed-but-wrong lookups.
  EXPECT_EQ(bwrong, static_cast<uint64_t>(bc - bcons));
}

// One chord run under a given fault plan, summarized by per-node state.
struct FaultedChordResult {
  std::vector<std::string> successors;
  std::vector<uint64_t> delivered;
  uint64_t events = 0;
  size_t completed = 0;
  size_t consistent = 0;
};

FaultedChordResult RunFaultedChord(const FaultPlan& plan, size_t shards) {
  ScenarioNet net(BackendKind::kSim, 16, /*seed=*/4242, /*loss_rate=*/0,
                  /*udp_base_port=*/0, /*reliable=*/false, shards, plan);
  TestbedConfig cfg;
  cfg.chord.finger_fix_period_s = 2.0;
  cfg.chord.stabilize_period_s = 2.5;
  cfg.chord.ping_period_s = 0.8;
  cfg.chord.succ_lifetime_s = 1.7;
  ChordTestbed tb(cfg, &net);
  tb.BuildAndSettle(0.25 * 16 + 60.0);
  net.ArmFaults();
  for (int i = 0; i < 6; ++i) {
    tb.IssueRandomLookup();
    net.Run(1.0);
  }
  net.Run(40.0);
  FaultedChordResult r;
  r.successors = tb.BestSuccessorByNode();
  r.delivered = tb.DeliveredByNode();
  r.events = net.SimEventsRun();
  for (const auto& rec : tb.lookups()) {
    r.completed += rec.completed ? 1 : 0;
    r.consistent += rec.consistent ? 1 : 0;
  }
  return r;
}

// The determinism pin for every axis: identical per-node outcomes at
// shards 1 and 4 — fault decisions draw only from sender streams and
// shard clocks, so the shard count stays a pure performance lever.
TEST(FaultsDeterminism, EveryAxisIsShardCountInvariant) {
  std::vector<std::pair<std::string, FaultPlan>> axes;
  {
    FaultPlan p;
    p.asym_loss.push_back({0, 1, 0.5});
    axes.emplace_back("asym-loss", p);
  }
  {
    FaultPlan p;
    PartitionSpec part;
    part.start = 5;
    part.duration = 20;
    part.domains = {0};
    p.partitions.push_back(part);
    axes.emplace_back("partition", p);
  }
  {
    FaultPlan p;
    LatencySpikeSpec spike;
    spike.start = 2;
    spike.duration = 30;
    spike.domain = 1;
    spike.factor = 3;
    p.latency_spikes.push_back(spike);
    axes.emplace_back("latency-spike", p);
  }
  {
    FaultPlan p;
    p.slow_fraction = 0.3;
    p.slow_factor = 4;
    axes.emplace_back("slow-nodes", p);
  }
  {
    FaultPlan p;
    p.corrupt_rate = 0.05;
    axes.emplace_back("corrupt", p);
  }
  {
    FaultPlan p;
    p.byzantine_fraction = 0.25;
    axes.emplace_back("byzantine", p);
  }
  for (const auto& [name, plan] : axes) {
    SCOPED_TRACE(name);
    FaultedChordResult one = RunFaultedChord(plan, 1);
    FaultedChordResult four = RunFaultedChord(plan, 4);
    EXPECT_EQ(one.successors, four.successors);
    EXPECT_EQ(one.delivered, four.delivered);
    EXPECT_EQ(one.events, four.events);
    EXPECT_EQ(one.completed, four.completed);
    EXPECT_EQ(one.consistent, four.consistent);
  }
}

// Satellite: ScenarioNet::Kill/Revive under an active partition. The kill
// and the revive+rebuild run on the control timeline at fixed virtual
// times, the partition forms and heals around them, and the whole dance
// must be identical at 1 and 4 shards (the churn-under-faults path that
// previously only had UDP smoke coverage).
struct GossipKillReviveResult {
  std::vector<size_t> views;
  std::vector<uint64_t> delivered;
  uint64_t events = 0;
};

GossipKillReviveResult RunGossipKillReviveUnderPartition(size_t shards) {
  constexpr size_t kNodes = 10;
  constexpr size_t kVictim = 3;
  FaultPlan plan;
  PartitionSpec part;
  part.start = 20;
  part.duration = 20;
  part.domains = {0};
  plan.partitions.push_back(part);
  ScenarioNet net(BackendKind::kSim, kNodes, 77, /*loss_rate=*/0,
                  /*udp_base_port=*/0, /*reliable=*/false, shards, plan);
  // The gossip fleet measures from t=0, so the partition counts from here.
  net.ArmFaults();
  GossipConfig gc;
  gc.gossip_period_s = 1.0;
  std::vector<std::unique_ptr<GossipNode>> nodes;
  auto build = [&](size_t i, uint64_t salt) {
    P2NodeConfig nc;
    nc.executor = net.executor(i);
    nc.transport = net.transport(i);
    nc.seed = 77 + 1000 * salt + i;
    std::vector<std::string> seeds;
    if (i > 0) {
      seeds.push_back(net.addr(i - 1));
    }
    nodes[i] = std::make_unique<GossipNode>(nc, gc, seeds);
    nodes[i]->Start();
  };
  nodes.resize(kNodes);
  for (size_t i = 0; i < kNodes; ++i) {
    build(i, 0);
  }
  // Kill mid-partition-approach, revive while the cut is active: the
  // rebuilt node re-joins through its chain predecessor once it heals.
  net.control_executor()->ScheduleAfter(25.0, [&]() {
    nodes[kVictim]->Stop();
    nodes[kVictim].reset();
    net.Kill(kVictim);
  });
  net.control_executor()->ScheduleAfter(35.0, [&]() {
    net.Revive(kVictim);
    build(kVictim, 1);
  });
  net.Run(120.0);
  GossipKillReviveResult r;
  for (size_t i = 0; i < kNodes; ++i) {
    r.views.push_back(nodes[i]->Members().size());
    r.delivered.push_back(net.transport(i)->stats().msgs_in);
  }
  r.events = net.SimEventsRun();
  for (auto& n : nodes) {
    n->Stop();
  }
  return r;
}

TEST(FaultsDeterminism, KillReviveUnderPartitionIsShardCountInvariant) {
  GossipKillReviveResult one = RunGossipKillReviveUnderPartition(1);
  GossipKillReviveResult four = RunGossipKillReviveUnderPartition(4);
  EXPECT_EQ(one.views, four.views);
  EXPECT_EQ(one.delivered, four.delivered);
  EXPECT_EQ(one.events, four.events);
  // The revived node came back and re-learned the membership.
  EXPECT_EQ(one.views[3], 10u);
}

}  // namespace
}  // namespace p2
