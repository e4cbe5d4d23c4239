// Smoke tests for the p2run scenario layer: one per overlay on the
// deterministic sim backend, small populations, asserting convergence —
// exactly what `p2run --overlay <x> --nodes <n> --sim` checks, minus the
// process boundary.
#include "src/cli/scenario.h"

#include <gtest/gtest.h>

namespace p2 {
namespace {

TEST(ScenarioParse, Names) {
  OverlayKind overlay;
  EXPECT_TRUE(ParseOverlayKind("chord", &overlay));
  EXPECT_EQ(overlay, OverlayKind::kChord);
  EXPECT_TRUE(ParseOverlayKind("pathvector", &overlay));
  EXPECT_EQ(overlay, OverlayKind::kPathVector);
  EXPECT_FALSE(ParseOverlayKind("kademlia", &overlay));
  BackendKind backend;
  EXPECT_TRUE(ParseBackendKind("udp", &backend));
  EXPECT_EQ(backend, BackendKind::kUdp);
  EXPECT_FALSE(ParseBackendKind("tcp", &backend));
  EXPECT_STREQ(OverlayKindName(OverlayKind::kNarada), "narada");
  EXPECT_STREQ(BackendKindName(BackendKind::kSim), "sim");
}

TEST(ScenarioSmoke, ChordSimLookupsConverge) {
  ScenarioConfig cfg;
  cfg.overlay = OverlayKind::kChord;
  cfg.backend = BackendKind::kSim;
  cfg.nodes = 16;
  cfg.seed = 1;
  cfg.lookups = 10;
  ScenarioReport report = RunScenario(cfg);
  EXPECT_TRUE(report.converged) << report.detail;
  EXPECT_EQ(report.lookups_completed, report.lookups_issued);
  EXPECT_GE(report.ring_consistency, 0.9);
  EXPECT_EQ(report.sim_events, 95539u);
}

TEST(ScenarioSmoke, ChordSimChurnStaysAvailable) {
  ScenarioConfig cfg;
  cfg.overlay = OverlayKind::kChord;
  cfg.backend = BackendKind::kSim;
  cfg.nodes = 12;
  cfg.seed = 3;
  cfg.lookups = 10;
  cfg.churn_session_mean_s = 480;
  cfg.duration_s = 90;
  ScenarioReport report = RunScenario(cfg);
  EXPECT_TRUE(report.converged) << report.detail;
  EXPECT_EQ(report.sim_events, 78217u);
}

// Pins the paths where a churned chord slot meets the fault and transport
// machinery: fresh-address replacements (20 deaths), the reliable-channel
// seed draws, and lookup retries on dilated slow nodes — at one shard and
// at four.
TEST(ScenarioSmoke, ChordSimChurnOnSlowReliableLossyFleetIsPinned) {
  ScenarioConfig cfg;
  cfg.overlay = OverlayKind::kChord;
  cfg.backend = BackendKind::kSim;
  cfg.nodes = 16;
  cfg.seed = 7;
  cfg.lookups = 10;
  cfg.churn_session_mean_s = 120;
  cfg.duration_s = 120;
  cfg.loss_rate = 0.1;
  cfg.reliable = true;
  cfg.faults.slow_fraction = 0.25;
  cfg.faults.slow_factor = 1.5;
  for (size_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    cfg.shards = shards;
    ScenarioReport report = RunScenario(cfg);
    EXPECT_TRUE(report.converged) << report.detail;
    EXPECT_EQ(report.churn_deaths, 20u);
    EXPECT_EQ(report.sim_events, 139125u);
  }
}

// Chord over real loopback sockets runs the same workload as on the
// simulator: staggered joins, a settle, then lookups audited against the
// live ground truth.
TEST(ScenarioSmoke, ChordUdpLookupsConverge) {
  ScenarioConfig cfg;
  cfg.overlay = OverlayKind::kChord;
  cfg.backend = BackendKind::kUdp;
  cfg.nodes = 6;
  cfg.seed = 2;
  cfg.lookups = 10;
  ScenarioReport report = RunScenario(cfg);
  EXPECT_TRUE(report.converged) << report.detail;
  EXPECT_EQ(report.lookups_completed, report.lookups_issued);
  EXPECT_GE(report.ring_consistency, 0.9);
}

TEST(ScenarioSmoke, GossipSimMembershipConverges) {
  ScenarioConfig cfg;
  cfg.overlay = OverlayKind::kGossip;
  cfg.backend = BackendKind::kSim;
  cfg.nodes = 10;
  cfg.seed = 2;
  ScenarioReport report = RunScenario(cfg);
  EXPECT_TRUE(report.converged) << report.detail;
  EXPECT_DOUBLE_EQ(report.mean_view_size, 10.0);
  EXPECT_EQ(report.sim_events, 26847u);
}

TEST(ScenarioSmoke, NaradaSimMeshConverges) {
  ScenarioConfig cfg;
  cfg.overlay = OverlayKind::kNarada;
  cfg.backend = BackendKind::kSim;
  cfg.nodes = 6;
  cfg.seed = 5;
  ScenarioReport report = RunScenario(cfg);
  EXPECT_TRUE(report.converged) << report.detail;
  EXPECT_EQ(report.sim_events, 11338u);
}

TEST(ScenarioSmoke, PathVectorSimRoutesConverge) {
  ScenarioConfig cfg;
  cfg.overlay = OverlayKind::kPathVector;
  cfg.backend = BackendKind::kSim;
  cfg.nodes = 8;
  cfg.seed = 4;
  ScenarioReport report = RunScenario(cfg);
  EXPECT_TRUE(report.converged) << report.detail;
  EXPECT_DOUBLE_EQ(report.mean_view_size, 7.0);
  EXPECT_EQ(report.sim_events, 2264u);
}

TEST(ScenarioSmoke, DeterministicAcrossRuns) {
  // Same config, same virtual-time outcome: the sim backend must be exactly
  // reproducible (this is what makes p2run usable for regression checks).
  ScenarioConfig cfg;
  cfg.overlay = OverlayKind::kChord;
  cfg.backend = BackendKind::kSim;
  cfg.nodes = 8;
  cfg.seed = 9;
  cfg.lookups = 5;
  ScenarioReport a = RunScenario(cfg);
  ScenarioReport b = RunScenario(cfg);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.lookups_completed, b.lookups_completed);
  EXPECT_EQ(a.lookups_consistent, b.lookups_consistent);
  EXPECT_DOUBLE_EQ(a.ring_consistency, b.ring_consistency);
  EXPECT_DOUBLE_EQ(a.ran_for_s, b.ran_for_s);
}

TEST(ScenarioConfigErrors, Rejected) {
  ScenarioConfig cfg;
  cfg.nodes = 1;
  EXPECT_FALSE(RunScenario(cfg).converged);
}

TEST(ScenarioChurn, PathVectorSimChurnWithdrawsAndReconverges) {
  // A dead next-hop's routes are withdrawn on kill, so the fleet re-learns
  // paths through the revived replacement within advertisement rounds.
  ScenarioConfig cfg;
  cfg.overlay = OverlayKind::kPathVector;
  cfg.backend = BackendKind::kSim;
  cfg.nodes = 8;
  cfg.seed = 1;
  cfg.churn_session_mean_s = 60;
  cfg.duration_s = 120;
  ScenarioReport report = RunScenario(cfg);
  EXPECT_TRUE(report.converged) << report.detail;
  EXPECT_GT(report.churn_deaths, 0u);
}

TEST(ScenarioNetSmoke, UdpReviveRebindsOriginalPort) {
  // The deterministic core of udp churn support: after Kill + Revive the
  // endpoint is bound to its original port, so datagrams addressed to the
  // address peers already hold still arrive.
  ScenarioNet net(BackendKind::kUdp, 2, 1);
  ASSERT_TRUE(net.ok());
  std::string addr1 = net.addr(1);
  net.Kill(1);
  EXPECT_EQ(net.transport(1), nullptr);
  net.Revive(1);
  ASSERT_NE(net.transport(1), nullptr);
  EXPECT_EQ(net.transport(1)->local_addr(), addr1);
  bool received = false;
  net.transport(1)->SetReceiver(
      [&received](const std::string&, const std::vector<uint8_t>&) { received = true; });
  net.transport(0)->SendTo(addr1, {0xAB, 0xCD}, TrafficClass::kMaintenance);
  net.Run(0.3);
  EXPECT_TRUE(received);
}

TEST(ScenarioChurn, GossipUdpChurnRevivesAndReconverges) {
  // End-to-end wall-clock flavor of the same property: the fleet keeps (or
  // regains) full membership views across kill/revive cycles. Session mean
  // and duration are sized so zero deaths is a <0.1% outcome.
  ScenarioConfig cfg;
  cfg.overlay = OverlayKind::kGossip;
  cfg.backend = BackendKind::kUdp;
  cfg.nodes = 4;
  cfg.seed = 3;
  cfg.churn_session_mean_s = 5;
  cfg.duration_s = 9;
  ScenarioReport report = RunScenario(cfg);
  EXPECT_TRUE(report.converged) << report.detail;
  EXPECT_GT(report.churn_deaths, 0u);
}

TEST(ScenarioChurn, ChordUdpChurnReplacesNodesAndStaysAvailable) {
  // Each death replaces the node under a fresh kernel-picked port, so with
  // a new Chord id. The death times are seeded draws; at this seed four of
  // them land inside the 9-second measurement phase.
  ScenarioConfig cfg;
  cfg.overlay = OverlayKind::kChord;
  cfg.backend = BackendKind::kUdp;
  cfg.nodes = 4;
  cfg.seed = 3;
  cfg.churn_session_mean_s = 5;
  cfg.duration_s = 9;
  ScenarioReport report = RunScenario(cfg);
  EXPECT_TRUE(report.converged) << report.detail;
  EXPECT_GT(report.churn_deaths, 0u);
}

TEST(ScenarioChurn, GossipSimChurnStaysAvailable) {
  ScenarioConfig cfg;
  cfg.overlay = OverlayKind::kGossip;
  cfg.backend = BackendKind::kSim;
  cfg.nodes = 8;
  cfg.seed = 2;
  cfg.churn_session_mean_s = 300;
  cfg.duration_s = 120;
  ScenarioReport report = RunScenario(cfg);
  EXPECT_TRUE(report.converged) << report.detail;
}

TEST(ScenarioChurn, NaradaSimChurnStaysAvailable) {
  ScenarioConfig cfg;
  cfg.overlay = OverlayKind::kNarada;
  cfg.backend = BackendKind::kSim;
  cfg.nodes = 6;
  cfg.seed = 5;
  cfg.churn_session_mean_s = 300;
  cfg.duration_s = 60;
  ScenarioReport report = RunScenario(cfg);
  EXPECT_TRUE(report.converged) << report.detail;
}

// The tentpole acceptance scenario: with 20% datagram loss, chord lookups
// converge when the reliable stack is on and demonstrably degrade when it
// is off (the sim is deterministic, so both outcomes are stable).
TEST(ScenarioReliable, ChordSimWithLossConvergesOnlyWithReliableStack) {
  ScenarioConfig cfg;
  cfg.overlay = OverlayKind::kChord;
  cfg.backend = BackendKind::kSim;
  cfg.nodes = 16;
  cfg.seed = 1;
  cfg.lookups = 10;
  cfg.loss_rate = 0.2;

  cfg.reliable = true;
  ScenarioReport with_stack = RunScenario(cfg);
  EXPECT_TRUE(with_stack.converged) << with_stack.detail;
  EXPECT_TRUE(with_stack.reliable);
  EXPECT_GT(with_stack.transport_stats.retransmits, 0u);
  EXPECT_GT(with_stack.transport_stats.rtt_samples, 0u);
  EXPECT_GT(with_stack.transport_stats.MeanCwnd(), 0.0);
  EXPECT_EQ(with_stack.sim_events, 144861u);

  cfg.reliable = false;
  ScenarioReport without_stack = RunScenario(cfg);
  EXPECT_EQ(without_stack.transport_stats.retransmits, 0u);
  // Degradation: strictly worse lookup consistency or outright failure.
  bool degraded = !without_stack.converged ||
                  without_stack.lookups_consistent < with_stack.lookups_consistent;
  EXPECT_TRUE(degraded) << "plain UDP at 20% loss should degrade\n"
                        << without_stack.detail;
}

TEST(ScenarioReliable, GossipChurnWithReliableStackStaysHealthy) {
  // Churn replacements reuse addresses; continuing peers must renumber
  // their streams (stream_resets > 0) instead of blackholing — expired
  // frames and queue drops stay near zero.
  ScenarioConfig cfg;
  cfg.overlay = OverlayKind::kGossip;
  cfg.backend = BackendKind::kSim;
  cfg.nodes = 8;
  cfg.seed = 1;
  cfg.churn_session_mean_s = 100;
  cfg.duration_s = 300;
  cfg.reliable = true;
  ScenarioReport report = RunScenario(cfg);
  EXPECT_TRUE(report.converged) << report.detail;
  EXPECT_GT(report.churn_deaths, 0u);
  EXPECT_GT(report.transport_stats.stream_resets, 0u);
  EXPECT_EQ(report.transport_stats.queue_drops, 0u) << report.detail;
  EXPECT_LT(report.transport_stats.expired, 20u) << report.detail;
}

TEST(ScenarioReliable, GossipSimReliableConverges) {
  ScenarioConfig cfg;
  cfg.overlay = OverlayKind::kGossip;
  cfg.backend = BackendKind::kSim;
  cfg.nodes = 8;
  cfg.seed = 2;
  cfg.loss_rate = 0.2;
  cfg.reliable = true;
  ScenarioReport report = RunScenario(cfg);
  EXPECT_TRUE(report.converged) << report.detail;
  EXPECT_GT(report.transport_stats.data_frames_sent, 0u);
  EXPECT_GT(report.transport_stats.retransmits, 0u);
}

TEST(ScenarioNetSmoke, SimFleetBasics) {
  ScenarioNet net(BackendKind::kSim, 3, 1);
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(net.size(), 3u);
  EXPECT_EQ(net.addr(0), "n0");
  EXPECT_NE(net.sim_network(), nullptr);
  std::string got;
  net.transport(1)->SetReceiver(
      [&](const std::string& from, const std::vector<uint8_t>&) { got = from; });
  net.transport(0)->SendTo(net.addr(1), {42}, false);
  net.Run(1.0);
  EXPECT_EQ(got, "n0");
  // Killed endpoints silently eat traffic, like a crashed node.
  net.Kill(1);
  net.transport(0)->SendTo("n1", {42}, false);
  net.Run(1.0);
}

TEST(ScenarioNetSmoke, FreshReviveTakesTheNextUnusedAddress) {
  // Chord churn replacements come back as new identities at the same
  // topology slot; the old address stays dead.
  ScenarioNet net(BackendKind::kSim, 3, 1);
  net.Kill(1);
  net.Revive(1, /*fresh_address=*/true);
  EXPECT_EQ(net.addr(1), "n3");
  net.Kill(2);
  net.Revive(2, /*fresh_address=*/true);
  EXPECT_EQ(net.addr(2), "n4");
  std::string got;
  net.transport(1)->SetReceiver(
      [&](const std::string& from, const std::vector<uint8_t>&) { got += from; });
  net.transport(0)->SendTo("n1", {42}, false);
  net.transport(0)->SendTo("n3", {42}, false);
  net.Run(1.0);
  EXPECT_EQ(got, "n0");
}

}  // namespace
}  // namespace p2
