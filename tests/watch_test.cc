// OverLog watch(pred) taps: tuple-level tracing spliced into the dataflow
// (paper §7). The tap output for a small fixed-seed gossip run and for a
// path-vector fleet that loses a link is pinned byte-for-byte against
// tests/goldens/watch_{gossip,pathvector}.txt — virtual time and seeded
// RNG make the line stream deterministic. On a deliberate planner/tap
// change, rerun the test and copy its "actual watch output" dump over the
// golden.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/watch.h"
#include "src/overlays/gossip.h"
#include "src/overlays/pathvector.h"
#include "src/p2/node.h"
#include "src/sim/network.h"

namespace p2 {
namespace {

std::string ReadGolden(const std::string& name) {
  std::string path = std::string(P2_SOURCE_DIR) + "/tests/goldens/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Two gossip nodes, chain-seeded, gmember watched on both. Returns every
// watch line emitted in the first `run_s` virtual seconds.
std::string RunWatchedGossip(double run_s) {
  std::string captured;
  obs::SetWatchSink([&captured](const std::string& line) {
    captured += line;
    captured += '\n';
  });
  {
    SimEventLoop loop;
    SimNetwork net(&loop, Topology(TopologyConfig{}), /*seed=*/7);
    auto t0 = net.MakeTransport("n0", 0);
    auto t1 = net.MakeTransport("n1", 1);
    GossipConfig gc;
    gc.gossip_period_s = 1.0;
    auto make = [&](Transport* t, uint64_t seed,
                    const std::vector<std::string>& seeds) {
      P2NodeConfig nc;
      nc.executor = &loop;
      nc.transport = t;
      nc.seed = seed;
      nc.watches = {"gmember"};
      return std::make_unique<GossipNode>(nc, gc, seeds);
    };
    auto n0 = make(t0.get(), 1, {});
    auto n1 = make(t1.get(), 2, {"n0"});
    n0->Start();
    n1->Start();
    loop.RunUntil(run_s);
    n0->Stop();
    n1->Stop();
  }
  obs::SetWatchSink(nullptr);
  return captured;
}

// Three path-vector routers, r0 -1- r1 -1- r2 plus a direct r0 -5- r2
// link, with bestRoute and bestRouteCost watched on all of them. At t=5
// the r1-r2 link fails in both directions, so the cheap routes through it
// age out. The run covers head taps the gossip run has none of: a table
// aggregate (PV5's bestRouteCost), counted inserts (PV6 and
// PV6+bestRouteCost) and counted retractions (PV6-route and
// PV6-bestRouteCost).
std::string RunWatchedPathVector(double run_s) {
  std::string captured;
  obs::SetWatchSink([&captured](const std::string& line) {
    captured += line;
    captured += '\n';
  });
  {
    SimEventLoop loop;
    SimNetwork net(&loop, Topology(TopologyConfig{}), /*seed=*/7);
    PathVectorConfig pc;
    pc.advertise_period_s = 1.0;
    pc.route_lifetime_s = 3.5;
    const std::vector<std::vector<std::pair<std::string, int64_t>>> links = {
        {{"r1", 1}, {"r2", 5}}, {{"r0", 1}, {"r2", 1}}, {{"r1", 1}, {"r0", 5}}};
    std::vector<std::unique_ptr<SimTransport>> transports;
    std::vector<std::unique_ptr<PathVectorNode>> nodes;
    for (size_t i = 0; i < links.size(); ++i) {
      transports.push_back(net.MakeTransport("r" + std::to_string(i), i));
      P2NodeConfig nc;
      nc.executor = &loop;
      nc.transport = transports.back().get();
      nc.seed = 300 + i;
      nc.watches = {"bestRoute", "bestRouteCost"};
      nodes.push_back(std::make_unique<PathVectorNode>(nc, pc, links[i]));
      nodes.back()->Start();
    }
    loop.RunUntil(5.0);
    nodes[1]->RemoveLink("r2");
    nodes[2]->RemoveLink("r1");
    loop.RunUntil(run_s);
    for (auto& n : nodes) {
      n->Stop();
    }
  }
  obs::SetWatchSink(nullptr);
  return captured;
}

void ExpectGolden(const std::string& actual, const std::string& golden) {
  std::string expected = ReadGolden(golden);
  if (actual != expected) {
    // Dump the actual stream so a deliberate change can be re-pinned
    // without re-deriving it.
    std::fprintf(stderr, "--- actual watch output ---\n%s--- end ---\n", actual.c_str());
  }
  EXPECT_EQ(actual, expected);
}

TEST(WatchTap, GoldenGossipRun) {
  std::string actual = RunWatchedGossip(2.5);
  EXPECT_GT(actual.size(), 0u);
  ExpectGolden(actual, "watch_gossip.txt");
}

TEST(WatchTap, GoldenPathVectorRunTapsAggregatesCountsAndRetractions) {
  std::string actual = RunWatchedPathVector(12.0);
  for (const char* label : {"PV5", "PV6", "PV6+bestRouteCost"}) {
    EXPECT_NE(actual.find(std::string("point=head label=") + label + " "), std::string::npos)
        << label;
  }
  EXPECT_TRUE(actual.find("point=head label=PV6-route ") != std::string::npos ||
              actual.find("point=head label=PV6-bestRouteCost ") != std::string::npos);
  ExpectGolden(actual, "watch_pathvector.txt");
}

TEST(WatchTap, DeterministicAcrossRuns) {
  EXPECT_EQ(RunWatchedGossip(2.5), RunWatchedGossip(2.5));
}

TEST(WatchTap, UnwatchedRunEmitsNothing) {
  std::string captured;
  obs::SetWatchSink([&captured](const std::string& line) {
    captured += line;
    captured += '\n';
  });
  {
    SimEventLoop loop;
    SimNetwork net(&loop, Topology(TopologyConfig{}), /*seed=*/7);
    auto t0 = net.MakeTransport("n0", 0);
    P2NodeConfig nc;
    nc.executor = &loop;
    nc.transport = t0.get();
    nc.seed = 1;
    GossipNode n0(nc, GossipConfig{}, {});
    n0.Start();
    loop.RunUntil(2.0);
    n0.Stop();
  }
  obs::SetWatchSink(nullptr);
  EXPECT_EQ(captured, "");
}

// The program-level `watch(pred).` declaration reaches the same taps as
// the config-level list.
TEST(WatchTap, ProgramWatchDeclarationInstallsTaps) {
  std::string captured;
  obs::SetWatchSink([&captured](const std::string& line) {
    captured += line;
    captured += '\n';
  });
  {
    SimEventLoop loop;
    SimNetwork net(&loop, Topology(TopologyConfig{}), /*seed=*/7);
    auto t0 = net.MakeTransport("n0", 0);
    P2NodeConfig nc;
    nc.executor = &loop;
    nc.transport = t0.get();
    nc.seed = 1;
    P2Node node(nc);
    std::string err;
    ASSERT_TRUE(node.Install("watch(tick).\n"
                             "r1 tick@X(X) :- periodic@X(X, E, 1).",
                             &err))
        << err;
    node.Start();
    loop.RunUntil(2.5);
    node.Stop();
  }
  obs::SetWatchSink(nullptr);
  EXPECT_NE(captured.find("point=head label=r1 tick(n0)"), std::string::npos);
}

}  // namespace
}  // namespace p2
