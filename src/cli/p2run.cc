// p2run: the unified scenario driver.
//
// One command wires the whole P2 pipeline — OverLog program, planner,
// dataflow graph, network backend — for any bundled overlay:
//
//   p2run --overlay chord --nodes 16 --sim
//   p2run --overlay chord --nodes 64 --sim --churn 480 --duration 300
//   p2run --overlay gossip --nodes 8 --udp
//   p2run --overlay pathvector --nodes 10 --sim --seed 7
//
// Exit status 0 iff the overlay converged (see src/cli/scenario.h for the
// per-overlay convergence criteria), which makes p2run usable directly as
// a smoke test in scripts and CI.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "src/cli/scenario.h"
#include "src/runtime/logging.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --overlay <chord|gossip|narada|pathvector>   overlay to run (default chord)\n"
      "  --nodes <n>          number of nodes (default 8)\n"
      "  --sim                deterministic virtual-time simulator (default)\n"
      "  --udp                real UDP sockets on 127.0.0.1, one process\n"
      "  --churn <mean_s>     exponential mean session time, any overlay on\n"
      "                       either backend; a dead node is replaced at once\n"
      "                       (chord: as a new node id; the others: at the\n"
      "                       same address)\n"
      "  --duration <s>       measurement phase length (default per overlay)\n"
      "  --lookups <n>        chord: lookups to issue (default 20)\n"
      "  --loss <p>           datagram loss probability (default 0; sim drops in\n"
      "                       the fabric, udp via per-endpoint drop filter)\n"
      "  --reliable           layer the reliable transport stack (ACK/retry,\n"
      "                       RTT estimation, AIMD cwnd, bounded send queues)\n"
      "                       over every endpoint\n"
      "  --shards <n>         sim: worker threads executing the simulator's\n"
      "                       share-nothing shards (one per topology domain\n"
      "                       when > 1); same seed => identical per-node event\n"
      "                       order at any shard count (default 1)\n"
      "  --steal <on|off>     sim: work stealing — re-assign whole shards to\n"
      "                       workers at window barriers from the completed\n"
      "                       window's per-shard event counts (default on;\n"
      "                       results are bit-for-bit identical either way)\n"
      "  --port <base>        udp: first port to bind (default: kernel picks)\n"
      "  --seed <n>           RNG seed (default 1)\n"
      "  --heal-probe         pathvector --sim: kill one node mid-run, only its\n"
      "                       neighbors react, and report the virtual seconds\n"
      "                       until every live node's routes match ground truth\n"
      "  --loss-asym <S:D:R>  sim: one-way loss — datagrams from domain S to\n"
      "                       domain D drop with probability R, the reverse\n"
      "                       direction untouched (repeatable)\n"
      "  --partition <S:D:G>  sim: full cut between domain group G (e.g. 0,\n"
      "                       0-4, 0,3,7) and the rest, forming S seconds into\n"
      "                       measurement and healing D seconds later; chord\n"
      "                       reports how long the ring takes to re-converge\n"
      "                       (repeatable)\n"
      "  --latency-spike <S:D:DOM:F>  sim: multiply the latency of datagrams\n"
      "                       to/from domain DOM by F (>= 1) during the window\n"
      "                       [S, S+D) of measurement time (repeatable)\n"
      "  --slow-nodes <F:X>   sim: each node is slow with probability F\n"
      "                       (deterministic per-slot choice); a slow node's\n"
      "                       timers run X times slower\n"
      "  --corrupt <rate>     sim: flip 1-3 random bytes of a datagram with\n"
      "                       this probability; the wire parsers must reject\n"
      "                       the damage (p2_corrupt_* counters) without crash\n"
      "  --byzantine <frac>   sim chord: this fraction of nodes answers every\n"
      "                       lookup with itself as successor; the report's\n"
      "                       wrong-lookup rate is the detection metric\n"
      "  --explain            print the overlay's compiled rule plans (triggers,\n"
      "                       join order, fanout estimates, indices) and exit\n"
      "  --watch <p1,p2,..>   tap the named predicates: log every tuple that\n"
      "                       reaches a rule head or arrives at a node, with\n"
      "                       virtual timestamp, node address and rule label\n"
      "  --trace-out <file>   write a Chrome trace_event JSON timeline of shard\n"
      "                       windows, barrier waits and control actions\n"
      "                       (chrome://tracing / Perfetto)\n"
      "  --stats-dump         print the Prometheus text exposition of every\n"
      "                       runtime metric at exit\n"
      "  --sysstats <s>       refresh each node's sysstats system table at this\n"
      "                       period so overlay rules can query their own runtime\n"
      "  --no-metrics         disable the metrics registry entirely (the\n"
      "                       uninstrumented path, for A/B overhead runs)\n"
      "  --verbose            info-level runtime logging\n",
      argv0);
}

bool NeedValue(int argc, char** argv, int i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "%s requires a value\n", argv[i]);
    return false;
  }
  return true;
}

// Consumes the value of the flag at argv[*i] as a finite number in
// [0, hi] — [0, hi) when `hi_open` — or reports why not.
bool DoubleFlag(int argc, char** argv, int* i, double hi, bool hi_open, double* out) {
  const char* flag = argv[*i];
  if (!NeedValue(argc, argv, *i)) {
    return false;
  }
  const char* text = argv[++*i];
  double v;
  if (!p2::ParseNonNegDouble(text, &v) || v > hi || (hi_open && v == hi)) {
    if (std::isinf(hi)) {
      std::fprintf(stderr, "%s must be a finite number >= 0, got %s\n", flag, text);
    } else {
      std::fprintf(stderr, "%s must be in [0, %g%c, got %s\n", flag, hi, hi_open ? ')' : ']',
                   text);
    }
    return false;
  }
  *out = v;
  return true;
}

// Consumes the value of the flag at argv[*i] as a base-10 integer in
// [lo, hi], or reports why not.
bool IntFlag(int argc, char** argv, int* i, uint64_t lo, uint64_t hi, uint64_t* out) {
  const char* flag = argv[*i];
  if (!NeedValue(argc, argv, *i)) {
    return false;
  }
  const char* text = argv[++*i];
  uint64_t v;
  if (!p2::ParseNonNegInt(text, hi, &v) || v < lo) {
    std::fprintf(stderr, "%s must be an integer in [%llu, %llu], got %s\n", flag,
                 static_cast<unsigned long long>(lo), static_cast<unsigned long long>(hi),
                 text);
    return false;
  }
  *out = v;
  return true;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

int main(int argc, char** argv) {
  p2::ScenarioConfig config;
  bool explain = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      Usage(argv[0]);
      return 0;
    } else if (std::strcmp(arg, "--overlay") == 0) {
      if (!NeedValue(argc, argv, i) || !p2::ParseOverlayKind(argv[++i], &config.overlay)) {
        std::fprintf(stderr, "unknown overlay; expected chord|gossip|narada|pathvector\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--nodes") == 0) {
      uint64_t n;
      if (!IntFlag(argc, argv, &i, 2, 1000000, &n)) {
        return 2;
      }
      config.nodes = static_cast<size_t>(n);
    } else if (std::strcmp(arg, "--sim") == 0) {
      config.backend = p2::BackendKind::kSim;
    } else if (std::strcmp(arg, "--udp") == 0) {
      config.backend = p2::BackendKind::kUdp;
    } else if (std::strcmp(arg, "--backend") == 0) {
      if (!NeedValue(argc, argv, i) || !p2::ParseBackendKind(argv[++i], &config.backend)) {
        std::fprintf(stderr, "unknown backend; expected sim|udp\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--churn") == 0) {
      if (!DoubleFlag(argc, argv, &i, kInf, false, &config.churn_session_mean_s)) {
        return 2;
      }
    } else if (std::strcmp(arg, "--duration") == 0) {
      if (!DoubleFlag(argc, argv, &i, kInf, false, &config.duration_s)) {
        return 2;
      }
    } else if (std::strcmp(arg, "--lookups") == 0) {
      uint64_t n;
      if (!IntFlag(argc, argv, &i, 0, 1000000, &n)) {
        return 2;
      }
      config.lookups = static_cast<int>(n);
    } else if (std::strcmp(arg, "--loss") == 0) {
      if (!DoubleFlag(argc, argv, &i, 1, true, &config.loss_rate)) {
        return 2;
      }
    } else if (std::strcmp(arg, "--reliable") == 0) {
      config.reliable = true;
    } else if (std::strcmp(arg, "--shards") == 0) {
      uint64_t shards;
      if (!IntFlag(argc, argv, &i, 1, 1024, &shards)) {
        return 2;
      }
      config.shards = static_cast<size_t>(shards);
    } else if (std::strcmp(arg, "--port") == 0) {
      uint64_t port;
      if (!IntFlag(argc, argv, &i, 1, 65535, &port)) {
        return 2;
      }
      config.udp_base_port = static_cast<uint16_t>(port);
    } else if (std::strcmp(arg, "--seed") == 0) {
      if (!IntFlag(argc, argv, &i, 0, std::numeric_limits<uint64_t>::max(), &config.seed)) {
        return 2;
      }
    } else if (std::strcmp(arg, "--steal") == 0) {
      if (!NeedValue(argc, argv, i)) {
        return 2;
      }
      const char* v = argv[++i];
      if (std::strcmp(v, "on") == 0) {
        config.steal = true;
      } else if (std::strcmp(v, "off") == 0) {
        config.steal = false;
      } else {
        std::fprintf(stderr, "--steal expects on|off, got %s\n", v);
        return 2;
      }
    } else if (std::strcmp(arg, "--heal-probe") == 0) {
      config.heal_probe = true;
    } else if (std::strcmp(arg, "--loss-asym") == 0) {
      if (!NeedValue(argc, argv, i)) {
        return 2;
      }
      p2::AsymLossRule rule;
      if (!p2::ParseAsymLossSpec(argv[++i], &rule)) {
        std::fprintf(stderr, "--loss-asym expects SRC:DST:RATE (rate in [0,1]), got %s\n",
                     argv[i]);
        return 2;
      }
      config.faults.asym_loss.push_back(rule);
    } else if (std::strcmp(arg, "--partition") == 0) {
      if (!NeedValue(argc, argv, i)) {
        return 2;
      }
      p2::PartitionSpec part;
      if (!p2::ParsePartitionSpec(argv[++i], &part)) {
        std::fprintf(stderr,
                     "--partition expects START:DUR:DOMAINS (e.g. 10:30:0 or 0:60:0-4), "
                     "got %s\n",
                     argv[i]);
        return 2;
      }
      config.faults.partitions.push_back(part);
    } else if (std::strcmp(arg, "--latency-spike") == 0) {
      if (!NeedValue(argc, argv, i)) {
        return 2;
      }
      p2::LatencySpikeSpec spike;
      if (!p2::ParseLatencySpikeSpec(argv[++i], &spike)) {
        std::fprintf(stderr,
                     "--latency-spike expects START:DUR:DOMAIN:FACTOR (factor >= 1), "
                     "got %s\n",
                     argv[i]);
        return 2;
      }
      config.faults.latency_spikes.push_back(spike);
    } else if (std::strcmp(arg, "--slow-nodes") == 0) {
      if (!NeedValue(argc, argv, i)) {
        return 2;
      }
      if (!p2::ParseSlowNodesSpec(argv[++i], &config.faults.slow_fraction,
                                  &config.faults.slow_factor)) {
        std::fprintf(stderr,
                     "--slow-nodes expects FRAC:FACTOR (frac in [0,1], factor >= 1), "
                     "got %s\n",
                     argv[i]);
        return 2;
      }
    } else if (std::strcmp(arg, "--corrupt") == 0) {
      if (!DoubleFlag(argc, argv, &i, 1, true, &config.faults.corrupt_rate)) {
        return 2;
      }
    } else if (std::strcmp(arg, "--byzantine") == 0) {
      if (!DoubleFlag(argc, argv, &i, 1, false, &config.faults.byzantine_fraction)) {
        return 2;
      }
    } else if (std::strcmp(arg, "--explain") == 0) {
      explain = true;
    } else if (std::strcmp(arg, "--watch") == 0) {
      if (!NeedValue(argc, argv, i)) {
        return 2;
      }
      // Comma-separated predicate names; repeated flags accumulate.
      std::string list = argv[++i];
      size_t start = 0;
      while (start <= list.size()) {
        size_t comma = list.find(',', start);
        size_t end = comma == std::string::npos ? list.size() : comma;
        if (end > start) {
          config.watches.push_back(list.substr(start, end - start));
        }
        if (comma == std::string::npos) {
          break;
        }
        start = comma + 1;
      }
    } else if (std::strcmp(arg, "--trace-out") == 0) {
      if (!NeedValue(argc, argv, i)) {
        return 2;
      }
      config.trace_out = argv[++i];
    } else if (std::strcmp(arg, "--stats-dump") == 0) {
      config.stats_dump = true;
    } else if (std::strcmp(arg, "--sysstats") == 0) {
      if (!DoubleFlag(argc, argv, &i, kInf, false, &config.sysstats_period_s)) {
        return 2;
      }
    } else if (std::strcmp(arg, "--no-metrics") == 0) {
      config.metrics = false;
    } else if (std::strcmp(arg, "--verbose") == 0) {
      config.verbose = true;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg);
      Usage(argv[0]);
      return 2;
    }
  }
  if (config.verbose) {
    p2::SetLogLevel(p2::LogLevel::kInfo);
  }
  if (config.stats_dump && !config.metrics) {
    std::fprintf(stderr, "--stats-dump needs the metrics registry; drop --no-metrics\n");
    return 2;
  }

  if (explain) {
    std::fputs(p2::ExplainOverlayPlan(config.overlay).c_str(), stdout);
    return 0;
  }

  std::printf("p2run: overlay=%s nodes=%zu backend=%s seed=%llu",
              p2::OverlayKindName(config.overlay), config.nodes,
              p2::BackendKindName(config.backend),
              static_cast<unsigned long long>(config.seed));
  if (config.churn_session_mean_s > 0) {
    std::printf(" churn=%.0fs", config.churn_session_mean_s);
  }
  if (config.loss_rate > 0) {
    std::printf(" loss=%.2f", config.loss_rate);
  }
  if (config.reliable) {
    std::printf(" reliable=on");
  }
  if (config.shards > 1) {
    std::printf(" shards=%zu%s", config.shards, config.steal ? "" : " steal=off");
  }
  if (!config.faults.asym_loss.empty()) {
    std::printf(" loss-asym=%zu", config.faults.asym_loss.size());
  }
  if (!config.faults.partitions.empty()) {
    std::printf(" partitions=%zu", config.faults.partitions.size());
  }
  if (!config.faults.latency_spikes.empty()) {
    std::printf(" spikes=%zu", config.faults.latency_spikes.size());
  }
  if (config.faults.slow_fraction > 0) {
    std::printf(" slow=%.2f:%.1fx", config.faults.slow_fraction,
                config.faults.slow_factor);
  }
  if (config.faults.corrupt_rate > 0) {
    std::printf(" corrupt=%.3f", config.faults.corrupt_rate);
  }
  if (config.faults.byzantine_fraction > 0) {
    std::printf(" byzantine=%.2f", config.faults.byzantine_fraction);
  }
  std::printf("\n");
  std::fflush(stdout);

  p2::ScenarioReport report = p2::RunScenario(config);

  std::printf("ran for %.1f %s seconds (seed=%llu)\n%s", report.ran_for_s,
              config.backend == p2::BackendKind::kSim ? "virtual" : "wall-clock",
              static_cast<unsigned long long>(config.seed), report.detail.c_str());
  if (report.send_failures.total() > 0) {
    std::printf("udp send failures: %llu (oversize %llu, transient %llu, short %llu, "
                "other %llu)\n",
                static_cast<unsigned long long>(report.send_failures.total()),
                static_cast<unsigned long long>(report.send_failures.oversize),
                static_cast<unsigned long long>(report.send_failures.transient),
                static_cast<unsigned long long>(report.send_failures.short_writes),
                static_cast<unsigned long long>(report.send_failures.other));
  }
  if (report.sim_events > 0 && report.wall_s > 0) {
    std::printf("sim: %llu events in %.1fs wall (%.0f events/sec, %zu shard%s)\n",
                static_cast<unsigned long long>(report.sim_events), report.wall_s,
                static_cast<double>(report.sim_events) / report.wall_s, report.shards,
                report.shards == 1 ? "" : "s");
  }
  if (!config.trace_out.empty()) {
    std::FILE* f = std::fopen(config.trace_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", config.trace_out.c_str());
      return 2;
    }
    std::fwrite(report.trace_json.data(), 1, report.trace_json.size(), f);
    std::fclose(f);
    std::printf("trace: %s (%zu bytes)\n", config.trace_out.c_str(),
                report.trace_json.size());
  }
  if (config.stats_dump) {
    std::printf("--- metrics ---\n%s", report.stats_text.c_str());
  }
  std::printf(report.converged ? "CONVERGED\n" : "DID NOT CONVERGE\n");
  return report.converged ? 0 : 1;
}
