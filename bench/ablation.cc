// Ablation benchmarks for design choices DESIGN.md calls out.
//
// A. Eager vs naive finger fixing. The paper presents both a naive
//    fix-finger loop (§4, rules F1-F3) and the optimized Appendix-B rules
//    where one lookup result eagerly populates every later finger it covers
//    (F4-F9). We measure finger-table completeness over time, lookup hops,
//    and the bandwidth the eager variant saves.
//
// B. Timer tuning. §1 positions P2 against "fine-grained timer tuning ...
//    of mature, efficient but painstaking overlay implementations": a
//    single knob trades maintenance bandwidth for failure-recovery speed.
//    We sweep the ping/stabilize/TTL family and measure both sides.
//
// Usage: ablation [--quick]
#include <cstdio>
#include <cstring>

#include "src/harness/churn.h"
#include "src/harness/metrics.h"
#include "src/harness/workload.h"

namespace p2 {
namespace {

ChordConfig ScaledTimers(double ping_s) {
  ChordConfig c;
  c.ping_period_s = ping_s;
  c.succ_lifetime_s = 2.1 * ping_s;
  c.stabilize_period_s = 3.0 * ping_s;
  c.finger_fix_period_s = 2.0 * ping_s;
  c.finger_lifetime_s = 36.0 * ping_s;
  return c;
}

void RunFingerAblation(size_t n, int lookups) {
  std::printf("--- Ablation A: eager (Appendix B) vs naive (§4) finger fixing ---\n");
  std::printf("%s\n", FormatRow({"variant", "fingers@60s", "fingers@300s", "mean hops",
                                 "maintB/s"},
                                13)
                          .c_str());
  for (bool eager : {true, false}) {
    ScenarioNet net(BackendKind::kSim, n, /*seed=*/99);
    TestbedConfig cfg;
    cfg.join_stagger_s = 1.0;
    cfg.chord = ScaledTimers(2.0);
    cfg.chord.eager_fingers = eager;
    ChordTestbed tb(cfg, &net);
    tb.BuildAndSettle(1.0 * static_cast<double>(n) + 60.0);
    net.Run(60.0);
    double fingers_60 = tb.MeanFingerRows();
    uint64_t maint0 = tb.TotalMaintBytesOut();
    net.Run(240.0);
    double fingers_300 = tb.MeanFingerRows();
    double bw = static_cast<double>(tb.TotalMaintBytesOut() - maint0) / 240.0 /
                static_cast<double>(tb.num_live());
    for (int i = 0; i < lookups; ++i) {
      tb.IssueRandomLookup();
      net.Run(0.5);
    }
    net.Run(20.0);
    Cdf hops;
    for (const auto& rec : tb.lookups()) {
      if (rec.completed) {
        hops.Add(static_cast<double>(rec.hops));
      }
    }
    char f60[32];
    char f300[32];
    char hop[32];
    char bws[32];
    std::snprintf(f60, sizeof(f60), "%.1f", fingers_60);
    std::snprintf(f300, sizeof(f300), "%.1f", fingers_300);
    std::snprintf(hop, sizeof(hop), "%.2f", hops.Mean());
    std::snprintf(bws, sizeof(bws), "%.1f", bw);
    std::printf("%s\n",
                FormatRow({eager ? "eager" : "naive", f60, f300, hop, bws}, 13).c_str());
  }
  std::printf("expected: eager fills ~160 finger rows within a couple of fix periods;\n"
              "naive advances one index per period (160 periods per sweep).\n\n");
}

void RunTimerAblation(size_t n, double churn_s) {
  std::printf("--- Ablation B: the timer-tuning tradeoff (§1) ---\n");
  std::printf("%s\n", FormatRow({"ping (s)", "maintB/s/node", "consistency", "complete%"},
                                14)
                          .c_str());
  for (double ping : {1.0, 2.5, 5.0, 10.0}) {
    ScenarioNet net(BackendKind::kSim, n, /*seed=*/7);
    TestbedConfig cfg;
    cfg.join_stagger_s = 1.0;
    cfg.chord = ScaledTimers(ping);
    ChordTestbed tb(cfg, &net);
    tb.BuildAndSettle(1.0 * static_cast<double>(n) + 12.0 * ping + 60.0);
    ChurnConfig cc;
    cc.session_mean_s = 16 * 60.0;
    cc.seed = 5;
    ChurnDriver churn(net.control_executor(), n,
                      [&tb](size_t slot) { return tb.ReplaceNode(slot); }, cc);
    churn.Start();
    uint64_t maint0 = tb.TotalMaintBytesOut();
    double t0 = net.Now();
    for (int i = 0; i < static_cast<int>(churn_s); ++i) {
      tb.IssueRandomLookup();
      net.Run(1.0);
    }
    net.Run(30.0);
    double bw = static_cast<double>(tb.TotalMaintBytesOut() - maint0) / (net.Now() - t0) /
                static_cast<double>(tb.num_live());
    size_t completed = 0;
    size_t consistent = 0;
    for (const auto& rec : tb.lookups()) {
      if (rec.completed) {
        ++completed;
        consistent += rec.consistent ? 1 : 0;
      }
    }
    char pg[32];
    char bws[32];
    char cons[32];
    char comp[32];
    std::snprintf(pg, sizeof(pg), "%.1f", ping);
    std::snprintf(bws, sizeof(bws), "%.1f", bw);
    std::snprintf(cons, sizeof(cons), "%.3f",
                  completed == 0 ? 0.0
                                 : static_cast<double>(consistent) /
                                       static_cast<double>(completed));
    std::snprintf(comp, sizeof(comp), "%.1f",
                  tb.lookups().empty() ? 0.0
                                       : 100.0 * static_cast<double>(completed) /
                                             static_cast<double>(tb.lookups().size()));
    std::printf("%s\n", FormatRow({pg, bws, cons, comp}, 14).c_str());
  }
  std::printf("expected: faster timers buy consistency under churn with linearly more\n"
              "maintenance bandwidth — the tuning curve hand-coded overlays sit on.\n");
}

int Main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }
  std::printf("=== Ablations: design choices in the Chord specification ===\n\n");
  RunFingerAblation(quick ? 16 : 40, quick ? 40 : 120);
  RunTimerAblation(quick ? 16 : 40, quick ? 120.0 : 480.0);
  return 0;
}

}  // namespace
}  // namespace p2

int main(int argc, char** argv) { return p2::Main(argc, argv); }
