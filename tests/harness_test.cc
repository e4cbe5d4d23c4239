#include <gtest/gtest.h>

#include "src/harness/churn.h"
#include "src/harness/metrics.h"
#include "src/harness/workload.h"

namespace p2 {
namespace {

TEST(Cdf, QuantilesAndFractions) {
  Cdf cdf;
  for (int i = 1; i <= 100; ++i) {
    cdf.Add(static_cast<double>(i));
  }
  EXPECT_EQ(cdf.count(), 100u);
  EXPECT_DOUBLE_EQ(cdf.Mean(), 50.5);
  EXPECT_NEAR(cdf.Quantile(0.5), 50.5, 1.0);
  EXPECT_NEAR(cdf.Quantile(0.95), 95.0, 1.5);
  EXPECT_DOUBLE_EQ(cdf.FractionBelow(50.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.FractionBelow(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.FractionBelow(1000.0), 1.0);
  auto pts = cdf.Points(5);
  ASSERT_EQ(pts.size(), 5u);
  EXPECT_DOUBLE_EQ(pts.front().second, 0.0);
  EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
  EXPECT_LE(pts.front().first, pts.back().first);
}

TEST(Cdf, EmptyIsSafe) {
  Cdf cdf;
  EXPECT_EQ(cdf.Quantile(0.5), 0.0);
  EXPECT_EQ(cdf.FractionBelow(1.0), 0.0);
  EXPECT_TRUE(cdf.Points(3).empty());
}

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0, 10, 10);
  h.Add(0.5);
  h.Add(1.5);
  h.Add(1.7);
  h.Add(-5);   // clamps to first bucket
  h.Add(100);  // clamps to last bucket
  EXPECT_EQ(h.total(), 5u);
  auto freqs = h.Frequencies();
  ASSERT_EQ(freqs.size(), 10u);
  EXPECT_DOUBLE_EQ(freqs[0].second, 0.4);  // 0.5 and -5
  EXPECT_DOUBLE_EQ(freqs[1].second, 0.4);  // 1.5, 1.7
  EXPECT_DOUBLE_EQ(freqs[9].second, 0.2);  // 100
  double sum = 0;
  for (auto& [edge, f] : freqs) {
    sum += f;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(RateSampler, ComputesWindowedRates) {
  RateSampler s;
  EXPECT_EQ(s.Sample(0.0, 0.0), 0.0);  // priming
  EXPECT_DOUBLE_EQ(s.Sample(10.0, 500.0), 50.0);
  EXPECT_DOUBLE_EQ(s.Sample(20.0, 500.0), 0.0);
}

TEST(FormatRow, PadsCells) {
  std::string row = FormatRow({"a", "bb"}, 4);
  EXPECT_EQ(row, "a   bb  ");
}

TEST(Testbed, GroundTruthSuccessorIsClockwiseFirst) {
  ScenarioNet net(BackendKind::kSim, 6, /*seed=*/11);
  TestbedConfig cfg;
  cfg.chord.finger_fix_period_s = 2.0;
  cfg.chord.stabilize_period_s = 2.0;
  cfg.chord.ping_period_s = 2.0;
  ChordTestbed tb(cfg, &net);
  tb.BuildAndSettle(40.0);
  // The ground-truth successor of (node id + 1) is the next node on the
  // ring; verify antisymmetry: every node is the ground truth of the key
  // just past its predecessor.
  for (size_t i = 0; i < 6; ++i) {
    Uint160 id = Uint160::HashOf("n" + std::to_string(i));
    EXPECT_EQ(tb.GroundTruthSuccessor(id), "n" + std::to_string(i));
  }
}

TEST(Testbed, ChurnDriverKeepsPopulationConstant) {
  ScenarioNet net(BackendKind::kSim, 6, /*seed=*/13);
  TestbedConfig cfg;
  cfg.chord.finger_fix_period_s = 2.0;
  cfg.chord.stabilize_period_s = 2.0;
  cfg.chord.ping_period_s = 2.0;
  ChordTestbed tb(cfg, &net);
  tb.BuildAndSettle(40.0);
  ChurnConfig cc;
  cc.session_mean_s = 30.0;  // aggressive: several deaths in 2 minutes
  cc.seed = 99;
  ChurnDriver churn(net.control_executor(), 6,
                    [&tb](size_t slot) { return tb.ReplaceNode(slot); }, cc);
  churn.Start();
  net.Run(120.0);
  EXPECT_EQ(tb.num_live(), 6u);
  EXPECT_GT(churn.deaths(), 5u);
  // Bandwidth accounting stays monotone across deaths.
  uint64_t bytes1 = tb.TotalMaintBytesOut();
  net.Run(10.0);
  EXPECT_GE(tb.TotalMaintBytesOut(), bytes1);
}

}  // namespace
}  // namespace p2
