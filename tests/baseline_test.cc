#include <gtest/gtest.h>

#include "src/baseline/chord_baseline.h"
#include "src/harness/workload.h"
#include "src/sim/network.h"

namespace p2 {
namespace {

BaselineChordConfig FastBaseline() {
  BaselineChordConfig c;
  c.stabilize_period_s = 2.0;
  c.finger_fix_period_s = 2.0;
  c.ping_period_s = 2.0;
  c.join_retry_s = 2.0;
  return c;
}

// Frames decode only under tuple names the receiving process has interned,
// and a baseline node installs no program that would intern its protocol's
// names: construction must, or a process that has never sent a bpong
// would drop the first one it receives. This is the binary's first test,
// so no earlier test has built one of these tuples.
TEST(BaselineChord, ConstructionInternsTheProtocolNames) {
  SimEventLoop loop;
  SimNetwork net(&loop, Topology(TopologyConfig{}), 9);
  auto t = net.MakeTransport("b0", 0);
  BaselineChordNode node(&loop, t.get(), 1, FastBaseline(), "");
  for (const char* name :
       {"blookup", "blookupRes", "bstabReq", "bstabResp", "bnotify", "bping", "bpong"}) {
    EXPECT_NE(FindSchema(name), kInvalidSchema) << name;
  }
}

TEST(BaselineChord, SingleNodeSelfRing) {
  SimEventLoop loop;
  SimNetwork net(&loop, Topology(TopologyConfig{}), 9);
  auto t = net.MakeTransport("b0", 0);
  BaselineChordNode node(&loop, t.get(), 1, FastBaseline(), "");
  node.Start();
  loop.RunUntil(5.0);
  auto best = node.BestSuccessor();
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->second, "b0");
  bool answered = false;
  node.OnLookupResult([&](const BaselineChordNode::LookupResult& r) {
    EXPECT_EQ(r.successor_addr, "b0");
    answered = true;
  });
  node.Lookup(Uint160::HashOf("k"));
  loop.RunUntil(7.0);
  EXPECT_TRUE(answered);
}

TEST(BaselineChord, RingFormsViaTestbed) {
  ScenarioNet net(BackendKind::kSim, 8, /*seed=*/4);
  TestbedConfig cfg;
  cfg.use_baseline = true;
  cfg.baseline = FastBaseline();
  cfg.join_stagger_s = 0.5;
  ChordTestbed tb(cfg, &net);
  tb.BuildAndSettle(80.0);
  EXPECT_EQ(tb.JoinedFraction(), 1.0);
  EXPECT_GE(tb.RingConsistencyFraction(), 0.9);
}

TEST(BaselineChord, LookupsResolveConsistently) {
  ScenarioNet net(BackendKind::kSim, 8, /*seed=*/6);
  TestbedConfig cfg;
  cfg.use_baseline = true;
  cfg.baseline = FastBaseline();
  ChordTestbed tb(cfg, &net);
  tb.BuildAndSettle(80.0);
  for (int i = 0; i < 20; ++i) {
    tb.IssueRandomLookup();
    net.Run(1.0);
  }
  net.Run(10.0);
  size_t completed = 0;
  size_t consistent = 0;
  for (const auto& rec : tb.lookups()) {
    if (rec.completed) {
      ++completed;
      consistent += rec.consistent ? 1 : 0;
      EXPECT_LE(rec.hops, 10);
    }
  }
  EXPECT_GE(completed, 18u);
  EXPECT_GE(static_cast<double>(consistent), 0.9 * static_cast<double>(completed));
}

TEST(BaselineChord, DeathDetectedByPings) {
  ScenarioNet net(BackendKind::kSim, 6, /*seed=*/8);
  TestbedConfig cfg;
  cfg.use_baseline = true;
  cfg.baseline = FastBaseline();
  ChordTestbed tb(cfg, &net);
  tb.BuildAndSettle(60.0);
  ASSERT_GE(tb.RingConsistencyFraction(), 0.9);
  tb.ReplaceNode(3);
  net.Run(60.0);
  EXPECT_GE(tb.JoinedFraction(), 0.99);
  EXPECT_GE(tb.RingConsistencyFraction(), 0.8);
}

}  // namespace
}  // namespace p2
