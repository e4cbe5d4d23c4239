// scale_sweep: the runtime-spine scaling gate.
//
// Runs simulated Chord at increasing fleet sizes — by default 64, 256 and
// 1024 nodes, with and without the reliable transport stack at 20%
// datagram loss — and reports, per run: convergence, virtual seconds
// simulated, simulator events executed, wall-clock seconds, and events/sec
// (the spine throughput number the interned-schema / hashed-index /
// timer-wheel work is gated on).
//
// Exit status: 0 iff every run that is *expected* to converge did. With
// loss > 0 the plain (non-reliable) runs are expected to degrade — they
// are reported for contrast but do not fail the sweep; with --loss 0 both
// flavors must converge. CI runs `scale_sweep --nodes 256` as a Release
// perf smoke: it fails on non-convergence and prints events/sec for trend
// tracking.
//
// With --json PATH the sweep additionally writes one machine-readable
// record per run (overlay, nodes, reliable, loss, convergence, events,
// events/sec, host_cores, speedup_vs_1shard, lookup consistency) — the
// perf-trajectory artifact CI uploads as BENCH_scale.json so throughput
// regressions are diffable across PRs instead of anecdotal. host_cores
// and speedup_vs_1shard (vs the same cell at --shards 1 earlier in the
// sweep; -1 when no baseline ran) make multi-shard numbers interpretable
// across 1-core dev containers and multi-core CI runners.
//
// The sweep also carries a shard dimension: --shards 1,8 runs every
// (nodes, reliable) cell once per shard count, reporting events/sec per
// cell, so the share-nothing sharding lever is diffable the same way the
// spine optimizations are. A fixed seed produces identical event counts at
// every shard count (conservative-window determinism) — the sweep prints
// the event total so a mismatch is immediately visible.
//
// --overlay accepts a comma list. chord cells report lookup consistency;
// pathvector cells run the post-convergence heal probe (kill the middle
// node, virtual seconds until every live node has dropped its stale
// routes and re-learned true distances) and report it as healing_s —
// the soft-state repair latency support counting is meant to shrink.
//
// Every requested (overlay, nodes, mode, shards) cell must land in the
// JSON: the sweep counts rows against the requested grid and fails
// otherwise, so a silently-skipped shard count can't produce a stale
// artifact that still looks complete.
//
// Fault probes: --partition START:DUR:DOMAINS (repeatable) schedules a
// healing partition in every cell and the JSON gains partition_heal_s —
// virtual seconds from the heal until chord's ring re-converged (cells
// expected to converge are additionally gated on the ring recovering).
// --byzantine FRAC compiles that fraction of chord nodes as dishonest
// responders; those cells are detection probes, reported via
// wrong_lookup_rate and never convergence-gated.
//
//   scale_sweep [--overlay chord,pathvector] [--nodes 64,256,1024]
//               [--shards 1] [--loss 0.2] [--lookups 20] [--seed 1]
//               [--mode both|reliable|plain] [--partition S:D:G]
//               [--byzantine F] [--json PATH]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/cli/scenario.h"

namespace {

std::vector<size_t> ParseSizeList(const char* arg, long min_value) {
  std::vector<size_t> out;
  std::string s(arg);
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) {
      comma = s.size();
    }
    long n = std::strtol(s.substr(pos, comma - pos).c_str(), nullptr, 10);
    if (n >= min_value) {
      out.push_back(static_cast<size_t>(n));
    }
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<p2::OverlayKind> overlays{p2::OverlayKind::kChord};
  std::vector<size_t> node_counts{64, 256, 1024};
  std::vector<size_t> shard_counts{1};
  double loss = 0.2;
  int lookups = 20;
  uint64_t seed = 1;
  bool run_plain = true;
  bool run_reliable = true;
  p2::FaultPlan faults;
  const char* json_path = nullptr;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto need = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--overlay") == 0) {
      overlays.clear();
      std::string s(need("--overlay"));
      size_t pos = 0;
      while (pos <= s.size()) {
        size_t comma = s.find(',', pos);
        if (comma == std::string::npos) {
          comma = s.size();
        }
        std::string name = s.substr(pos, comma - pos);
        p2::OverlayKind kind;
        if (!name.empty()) {
          if (!p2::ParseOverlayKind(name, &kind)) {
            std::fprintf(stderr, "unknown overlay %s\n", name.c_str());
            return 2;
          }
          overlays.push_back(kind);
        }
        pos = comma + 1;
      }
    } else if (std::strcmp(arg, "--nodes") == 0) {
      node_counts = ParseSizeList(need("--nodes"), /*min_value=*/2);
    } else if (std::strcmp(arg, "--shards") == 0) {
      shard_counts = ParseSizeList(need("--shards"), /*min_value=*/1);
    } else if (std::strcmp(arg, "--loss") == 0) {
      loss = std::atof(need("--loss"));
    } else if (std::strcmp(arg, "--lookups") == 0) {
      lookups = std::atoi(need("--lookups"));
    } else if (std::strcmp(arg, "--seed") == 0) {
      seed = std::strtoull(need("--seed"), nullptr, 10);
    } else if (std::strcmp(arg, "--mode") == 0) {
      const char* mode = need("--mode");
      run_plain = std::strcmp(mode, "reliable") != 0;
      run_reliable = std::strcmp(mode, "plain") != 0;
    } else if (std::strcmp(arg, "--partition") == 0) {
      p2::PartitionSpec part;
      if (!p2::ParsePartitionSpec(need("--partition"), &part)) {
        std::fprintf(stderr, "--partition expects START:DUR:DOMAINS\n");
        return 2;
      }
      faults.partitions.push_back(part);
    } else if (std::strcmp(arg, "--byzantine") == 0) {
      faults.byzantine_fraction = std::atof(need("--byzantine"));
      if (faults.byzantine_fraction < 0 || faults.byzantine_fraction > 1) {
        std::fprintf(stderr, "--byzantine must be in [0, 1]\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--json") == 0) {
      json_path = need("--json");
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg);
      return 2;
    }
  }
  if (node_counts.empty()) {
    std::fprintf(stderr, "--nodes parsed to an empty list\n");
    return 2;
  }
  if (shard_counts.empty()) {
    std::fprintf(stderr, "--shards parsed to an empty list\n");
    return 2;
  }
  if (overlays.empty()) {
    std::fprintf(stderr, "--overlay parsed to an empty list\n");
    return 2;
  }

  std::printf("# scale sweep: loss=%.2f lookups=%d seed=%llu\n", loss, lookups,
              static_cast<unsigned long long>(seed));
  if (faults.byzantine_fraction > 0 &&
      (overlays.size() != 1 || overlays[0] != p2::OverlayKind::kChord)) {
    std::fprintf(stderr, "--byzantine probes need --overlay chord\n");
    return 2;
  }
  std::printf("%10s %7s %7s %9s %10s %9s %12s %8s %12s %7s %8s %9s %6s %s\n", "overlay",
              "nodes", "shards", "reliable", "converged", "virt_s", "events", "wall_s",
              "events/sec", "spdup", "heal_s", "part_heal", "wrong", "lookups");

  // Every row records the host's core count and its speedup over the same
  // cell at --shards 1, so the perf trajectory is interpretable across
  // 1-core dev containers and multi-core CI runners. -1 = no 1-shard
  // baseline ran earlier in this sweep.
  unsigned host_cores = std::thread::hardware_concurrency();
  std::map<std::tuple<p2::OverlayKind, size_t, int>, double> evps_1shard;

  bool gated_ok = true;
  std::string json = "[\n";
  size_t json_rows = 0;
  size_t cells_requested = 0;
  for (p2::OverlayKind overlay : overlays) {
    for (size_t n : node_counts) {
      for (int reliable = 0; reliable <= 1; ++reliable) {
        if ((reliable == 0 && !run_plain) || (reliable == 1 && !run_reliable)) {
          continue;
        }
        for (size_t shards : shard_counts) {
          ++cells_requested;
          p2::ScenarioConfig cfg;
          cfg.overlay = overlay;
          cfg.backend = p2::BackendKind::kSim;
          cfg.nodes = n;
          cfg.seed = seed;
          cfg.shards = shards;
          cfg.lookups = lookups;
          cfg.loss_rate = loss;
          cfg.reliable = reliable == 1;
          cfg.heal_probe = overlay == p2::OverlayKind::kPathVector;
          cfg.faults = faults;
          if (overlay != p2::OverlayKind::kChord) {
            cfg.faults.byzantine_fraction = 0;  // chord-only probe
          }
          p2::ScenarioReport report = p2::RunScenario(cfg);

          double evps = report.wall_s > 0
                            ? static_cast<double>(report.sim_events) / report.wall_s
                            : 0;
          auto cell_key = std::make_tuple(overlay, n, reliable);
          if (shards == 1) {
            evps_1shard[cell_key] = evps;
          }
          auto base = evps_1shard.find(cell_key);
          double speedup = 1.0;
          if (shards != 1) {
            speedup = (base != evps_1shard.end() && base->second > 0)
                          ? evps / base->second
                          : -1.0;
          }
          std::printf("%10s %7zu %7zu %9s %10s %9.0f %12llu %8.1f %12.0f %7.2f %8.2f "
                      "%9.2f %6.3f %zu/%zu\n",
                      p2::OverlayKindName(overlay), n, report.shards,
                      reliable ? "on" : "off", report.converged ? "yes" : "NO",
                      report.ran_for_s,
                      static_cast<unsigned long long>(report.sim_events), report.wall_s,
                      evps, speedup, report.healing_s, report.partition_heal_s,
                      report.wrong_lookup_rate, report.lookups_consistent,
                      report.lookups_issued);
          std::fflush(stdout);

          if (json_path != nullptr) {
            char row[768];
            std::snprintf(row, sizeof(row),
                          "  {\"overlay\": \"%s\", \"nodes\": %zu, \"shards\": %zu, "
                          "\"reliable\": %s, "
                          "\"loss\": %.3f, \"seed\": %llu, \"converged\": %s, "
                          "\"virtual_s\": %.1f, \"events\": %llu, \"wall_s\": %.2f, "
                          "\"events_per_sec\": %.0f, \"host_cores\": %u, "
                          "\"speedup_vs_1shard\": %.2f, \"healing_s\": %.2f, "
                          "\"partition_heal_s\": %.2f, \"wrong_lookup_rate\": %.4f, "
                          "\"byzantine\": %.3f, "
                          "\"lookups_issued\": %zu, \"lookups_consistent\": %zu}",
                          p2::OverlayKindName(overlay), n, report.shards,
                          reliable ? "true" : "false", loss,
                          static_cast<unsigned long long>(seed),
                          report.converged ? "true" : "false", report.ran_for_s,
                          static_cast<unsigned long long>(report.sim_events),
                          report.wall_s, evps, host_cores, speedup, report.healing_s,
                          report.partition_heal_s, report.wrong_lookup_rate,
                          cfg.faults.byzantine_fraction, report.lookups_issued,
                          report.lookups_consistent);
            if (json_rows > 0) {
              json += ",\n";
            }
            ++json_rows;
            json += row;
          }

          // Byzantine cells are detection probes: the wrong-answer rate is
          // the product, so dishonest answers failing the consistency gate
          // must not fail the sweep.
          bool expected_to_converge =
              (reliable == 1 || loss == 0) && cfg.faults.byzantine_fraction == 0;
          if (expected_to_converge && !report.converged) {
            gated_ok = false;
          }
          // A partitioned chord cell that is expected to converge must also
          // demonstrate the heal: the ring back at strength after the cut.
          if (expected_to_converge && overlay == p2::OverlayKind::kChord &&
              !cfg.faults.partitions.empty() && report.partition_heal_s < 0) {
            gated_ok = false;
          }
        }
      }
    }
  }
  if (json_path != nullptr && json_rows != cells_requested) {
    std::fprintf(stderr, "JSON incomplete: %zu rows for %zu requested cells\n",
                 json_rows, cells_requested);
    gated_ok = false;
  }
  if (json_path != nullptr) {
    json += "\n]\n";
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 2;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  std::printf(gated_ok ? "SWEEP OK\n" : "SWEEP FAILED\n");
  return gated_ok ? 0 : 1;
}
