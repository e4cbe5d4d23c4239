// Figure 4 reproduction (E4, E5, E6): a 400-node Chord overlay under
// varying degrees of membership churn, following the Bamboo methodology the
// paper cites — exponential session times with means {8, 16, 32, 64, 128}
// minutes, constant population (a dead node is immediately replaced by a
// fresh joiner), 20 minutes of churn.
//
//   (i)   maintenance bandwidth (bytes/s per node) during the churn phase
//   (ii)  CDF of per-window lookup consistency fractions
//   (iii) CDF of lookup latency under churn
//
// Usage: fig4_churn [--quick]
#include <cstdio>
#include <cstring>

#include "src/harness/churn.h"
#include "src/harness/metrics.h"
#include "src/harness/workload.h"

namespace p2 {
namespace {

struct Fig4Result {
  double session_min = 0;
  double maint_bw_per_node = 0;
  Cdf window_consistency;  // one sample per measurement window
  Cdf latency;
  size_t issued = 0;
  size_t completed = 0;
  size_t consistent = 0;
  uint64_t deaths = 0;
};

Fig4Result RunOne(size_t n, double session_min, double churn_s, uint64_t seed) {
  ScenarioNet net(BackendKind::kSim, n, seed);
  TestbedConfig cfg;
  cfg.join_stagger_s = 3.0;
  ChordTestbed tb(cfg, &net);
  tb.BuildAndSettle(3.0 * static_cast<double>(n) + 300.0);

  ChurnConfig cc;
  cc.session_mean_s = session_min * 60.0;
  cc.seed = seed ^ 0xC0FFEE;
  ChurnDriver churn(net.control_executor(), n,
                    [&tb](size_t slot) { return tb.ReplaceNode(slot); }, cc);
  churn.Start();

  Fig4Result r;
  r.session_min = session_min;
  uint64_t maint0 = tb.TotalMaintBytesOut();
  double t0 = net.Now();

  // One lookup per second; consistency audited per 60-second window.
  const double window_s = 60.0;
  double elapsed = 0;
  size_t lookups_before_window = 0;
  while (elapsed < churn_s) {
    double chunk = std::min(window_s, churn_s - elapsed);
    for (int i = 0; i < static_cast<int>(chunk); ++i) {
      tb.IssueRandomLookup();
      net.Run(1.0);
    }
    elapsed += chunk;
    // Window accounting: look at lookups issued in this window that have
    // already completed.
    size_t window_completed = 0;
    size_t window_consistent = 0;
    for (size_t i = lookups_before_window; i < tb.lookups().size(); ++i) {
      const auto& rec = tb.lookups()[i];
      if (rec.completed) {
        ++window_completed;
        window_consistent += rec.consistent ? 1 : 0;
      }
    }
    if (window_completed > 0) {
      r.window_consistency.Add(static_cast<double>(window_consistent) /
                               static_cast<double>(window_completed));
    } else {
      r.window_consistency.Add(0.0);
    }
    lookups_before_window = tb.lookups().size();
  }
  net.Run(30.0);  // drain stragglers

  r.maint_bw_per_node = static_cast<double>(tb.TotalMaintBytesOut() - maint0) /
                        (net.Now() - t0) / static_cast<double>(tb.num_live());
  r.deaths = churn.deaths();
  for (const auto& rec : tb.lookups()) {
    ++r.issued;
    if (rec.completed) {
      ++r.completed;
      r.consistent += rec.consistent ? 1 : 0;
      r.latency.Add(rec.latency_s);
    }
  }
  return r;
}

int Main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }
  size_t n = quick ? 60 : 400;
  double churn_s = quick ? 300.0 : 1200.0;
  std::vector<double> sessions_min =
      quick ? std::vector<double>{2, 8, 32} : std::vector<double>{8, 16, 32, 64, 128};

  std::printf("=== Figure 4: %zu-node Chord under churn (P2/OverLog) ===\n", n);
  std::printf("churn: exponential sessions, constant population, %.0f min of churn\n\n",
              churn_s / 60.0);

  std::vector<Fig4Result> results;
  for (double s : sessions_min) {
    std::fprintf(stderr, "[fig4] running session mean %.0f min...\n", s);
    results.push_back(RunOne(n, s, churn_s, 1234 + static_cast<uint64_t>(s)));
  }

  std::printf("--- Fig 4(i): maintenance bandwidth under churn ---\n");
  std::printf("%s\n",
              FormatRow({"session min", "maint B/s/node", "deaths", "completed%"}).c_str());
  for (const Fig4Result& r : results) {
    char bw[32];
    char comp[32];
    std::snprintf(bw, sizeof(bw), "%.1f", r.maint_bw_per_node);
    std::snprintf(comp, sizeof(comp), "%.1f",
                  r.issued == 0 ? 0.0
                                : 100.0 * static_cast<double>(r.completed) /
                                      static_cast<double>(r.issued));
    std::printf("%s\n", FormatRow({std::to_string(static_cast<int>(r.session_min)), bw,
                                   std::to_string(r.deaths), comp})
                            .c_str());
  }

  std::printf("\n--- Fig 4(ii): lookup consistency under churn ---\n");
  std::printf("%s\n",
              FormatRow({"session min", "overall", "p10 window", "p50 window", "p90 window"})
                  .c_str());
  for (const Fig4Result& r : results) {
    char overall[32];
    char p10[32];
    char p50[32];
    char p90[32];
    std::snprintf(overall, sizeof(overall), "%.3f",
                  r.completed == 0 ? 0.0
                                   : static_cast<double>(r.consistent) /
                                         static_cast<double>(r.completed));
    std::snprintf(p10, sizeof(p10), "%.3f", r.window_consistency.Quantile(0.10));
    std::snprintf(p50, sizeof(p50), "%.3f", r.window_consistency.Quantile(0.50));
    std::snprintf(p90, sizeof(p90), "%.3f", r.window_consistency.Quantile(0.90));
    std::printf("%s\n", FormatRow({std::to_string(static_cast<int>(r.session_min)), overall,
                                   p10, p50, p90})
                            .c_str());
  }

  std::printf("\n--- Fig 4(iii): lookup latency under churn (seconds) ---\n");
  std::printf("%s\n",
              FormatRow({"session min", "p50", "p90", "p96", "frac<4s"}).c_str());
  for (const Fig4Result& r : results) {
    char p50[32];
    char p90[32];
    char p96[32];
    char f4[32];
    std::snprintf(p50, sizeof(p50), "%.3f", r.latency.Quantile(0.5));
    std::snprintf(p90, sizeof(p90), "%.3f", r.latency.Quantile(0.9));
    std::snprintf(p96, sizeof(p96), "%.3f", r.latency.Quantile(0.96));
    std::snprintf(f4, sizeof(f4), "%.3f", r.latency.FractionBelow(4.0));
    std::printf("%s\n", FormatRow({std::to_string(static_cast<int>(r.session_min)), p50, p90,
                                   p96, f4})
                            .c_str());
  }
  std::printf(
      "\npaper shape check: BW rises as sessions shorten; >=97%% consistency at\n"
      ">=64 min sessions, collapsing under high churn (8-16 min); latency\n"
      "degrades as churn increases.\n");
  return 0;
}

}  // namespace
}  // namespace p2

int main(int argc, char** argv) { return p2::Main(argc, argv); }
