// Figure 3 reproduction (E1, E2, E3 in DESIGN.md): performance of static
// Chord networks of different sizes.
//
//   (i)   hop-count distribution for uniform lookups, N in {100, 300, 500}
//   (ii)  per-node maintenance bandwidth while idling, N in {100..500}
//   (iii) cumulative distribution of lookup latency
//
// Setup mirrors §5: transit-stub topology (10 domains, 100 ms inter-domain,
// 2 ms intra-domain), full Appendix-B Chord with paper timer defaults, and
// a uniform workload of lookups against a static membership.
//
// Usage: fig3_static [--quick]   (--quick shrinks populations for CI runs)
#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/harness/metrics.h"
#include "src/harness/workload.h"

namespace p2 {
namespace {

struct Fig3Result {
  size_t n = 0;
  Histogram hops{0, 16, 16};
  Cdf latency;
  double maint_bw_per_node = 0;  // bytes/s
  double ring_consistency = 0;
  double mean_mem_bytes = 0;
};

Fig3Result RunOne(size_t n, int lookups, uint64_t seed) {
  ScenarioNet net(BackendKind::kSim, n, seed);
  TestbedConfig cfg;
  cfg.join_stagger_s = 3.0;
  ChordTestbed tb(cfg, &net);
  // Joins staggered, then time for rings and fingers to converge.
  double settle = 3.0 * static_cast<double>(n) + 300.0;
  tb.BuildAndSettle(settle);

  Fig3Result r;
  r.n = n;
  r.ring_consistency = tb.RingConsistencyFraction();

  // Maintenance bandwidth measured over an idle window (no lookups yet).
  uint64_t maint0 = tb.TotalMaintBytesOut();
  double window = 120.0;
  net.Run(window);
  r.maint_bw_per_node = static_cast<double>(tb.TotalMaintBytesOut() - maint0) / window /
                        static_cast<double>(tb.num_live());
  r.mean_mem_bytes = tb.MeanNodeMemoryBytes();

  // Uniform lookup workload.
  for (int i = 0; i < lookups; ++i) {
    tb.IssueRandomLookup();
    net.Run(0.25);
  }
  net.Run(30.0);
  for (const auto& rec : tb.lookups()) {
    if (rec.completed) {
      r.hops.Add(static_cast<double>(rec.hops));
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
  std::vector<size_t> sizes = quick ? std::vector<size_t>{20, 40, 60}
                                    : std::vector<size_t>{100, 200, 300, 400, 500};
  std::vector<size_t> cdf_sizes = quick ? sizes : std::vector<size_t>{100, 300, 500};
  int lookups = quick ? 120 : 400;

  std::printf("=== Figure 3: static Chord networks (P2/OverLog) ===\n");
  std::printf("topology: 10 transit domains, 100ms inter / 2ms intra, 100/10 Mbps\n");
  std::printf("timers: fix=10s stabilize=15s ping=5s (paper defaults)\n\n");

  std::vector<Fig3Result> results;
  for (size_t n : sizes) {
    std::fprintf(stderr, "[fig3] running N=%zu...\n", n);
    results.push_back(RunOne(n, lookups, 42 + n));
  }

  std::printf("--- Fig 3(ii): maintenance bandwidth vs population ---\n");
  std::printf("%s\n", FormatRow({"N", "maint B/s/node", "ring consist.", "mem/node kB"}).c_str());
  for (const Fig3Result& r : results) {
    char bw[32];
    char rc[32];
    char mem[32];
    std::snprintf(bw, sizeof(bw), "%.1f", r.maint_bw_per_node);
    std::snprintf(rc, sizeof(rc), "%.3f", r.ring_consistency);
    std::snprintf(mem, sizeof(mem), "%.0f", r.mean_mem_bytes / 1024.0);
    std::printf("%s\n", FormatRow({std::to_string(r.n), bw, rc, mem}).c_str());
  }

  std::printf("\n--- Fig 3(i): hop-count frequency distribution ---\n");
  {
    std::vector<std::string> header = {"hops"};
    for (const Fig3Result& r : results) {
      bool is_cdf_size = false;
      for (size_t s : cdf_sizes) {
        is_cdf_size |= r.n == s;
      }
      if (is_cdf_size) {
        header.push_back("N=" + std::to_string(r.n));
      }
    }
    std::printf("%s\n", FormatRow(header, 10).c_str());
    for (int h = 0; h < 14; ++h) {
      std::vector<std::string> row = {std::to_string(h)};
      for (const Fig3Result& r : results) {
        bool is_cdf_size = false;
        for (size_t s : cdf_sizes) {
          is_cdf_size |= r.n == s;
        }
        if (!is_cdf_size) {
          continue;
        }
        char cell[32];
        std::snprintf(cell, sizeof(cell), "%.3f", r.hops.Frequencies()[h].second);
        row.push_back(cell);
      }
      std::printf("%s\n", FormatRow(row, 10).c_str());
    }
    for (const Fig3Result& r : results) {
      std::printf("N=%zu: mean hops %.2f (log2(N)/2 = %.2f), completed lookups %zu\n", r.n,
                  r.hops.Mean(), 0.5 * std::log2(static_cast<double>(r.n)),
                  r.hops.total());
    }
  }

  std::printf("\n--- Fig 3(iii): lookup latency CDF (seconds) ---\n");
  std::printf("%s\n", FormatRow({"quantile", "N=100", "N=300", "N=500"}, 10).c_str());
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.96, 0.99}) {
    std::vector<std::string> row;
    char qs[16];
    std::snprintf(qs, sizeof(qs), "p%02.0f", q * 100);
    row.push_back(qs);
    for (const Fig3Result& r : results) {
      bool is_cdf_size = false;
      for (size_t s : cdf_sizes) {
        is_cdf_size |= r.n == s;
      }
      if (!is_cdf_size) {
        continue;
      }
      char cell[32];
      std::snprintf(cell, sizeof(cell), "%.3f", r.latency.Quantile(q));
      row.push_back(cell);
    }
    std::printf("%s\n", FormatRow(row, 10).c_str());
  }
  for (const Fig3Result& r : results) {
    bool is_cdf_size = false;
    for (size_t s : cdf_sizes) {
      is_cdf_size |= r.n == s;
    }
    if (is_cdf_size) {
      std::printf("N=%zu: fraction of lookups completing within 6s = %.3f\n", r.n,
                  r.latency.FractionBelow(6.0));
    }
  }
  std::printf("\npaper shape check: mean hops ~ log2(N)/2; BW low hundreds of B/s,\n"
              "mildly increasing with N; at N=500 ~96%% of lookups < 6 s.\n");
  return 0;
}

}  // namespace
}  // namespace p2

int main(int argc, char** argv) { return p2::Main(argc, argv); }
