// Specification-size and footprint reproduction (E7, E9).
//
// The paper's headline numbers: a Narada-style mesh in 16 rules, full Chord
// in 47 rules (§1), and a full-Chord working set of roughly 800 kB (§1).
// This harness parses each bundled overlay, counts rules/tables/watches,
// compiles one node per overlay and reports the resulting dataflow size and
// resident memory estimate, plus per-rule firing counts after a short run
// (the paper's "multi-resolution introspection" claim, §7).
#include <cstdio>

#include "src/overlays/chord.h"
#include "src/overlays/gossip.h"
#include "src/overlays/narada.h"
#include "src/overlog/parser.h"
#include "src/harness/metrics.h"
#include "src/harness/workload.h"
#include "src/sim/network.h"

namespace p2 {
namespace {

struct SpecStats {
  std::string name;
  size_t rules = 0;
  size_t facts = 0;
  size_t tables = 0;
  size_t watches = 0;
  size_t source_lines = 0;
  size_t elements = 0;
  size_t edges = 0;
};

size_t CountLines(const std::string& text) {
  size_t lines = 0;
  bool nonblank = false;
  for (char c : text) {
    if (c == '\n') {
      lines += nonblank ? 1 : 0;
      nonblank = false;
    } else if (!isspace(static_cast<unsigned char>(c))) {
      nonblank = true;
    }
  }
  return lines + (nonblank ? 1 : 0);
}

SpecStats Analyze(const std::string& name, const std::string& program_text) {
  SpecStats s;
  s.name = name;
  s.source_lines = CountLines(program_text);
  ProgramAst ast;
  std::string err;
  if (!ParseOverLog(program_text, &ast, &err)) {
    std::fprintf(stderr, "parse error in %s: %s\n", name.c_str(), err.c_str());
    return s;
  }
  for (const RuleAst& r : ast.rules) {
    if (r.IsFact()) {
      ++s.facts;
    } else {
      ++s.rules;
    }
  }
  s.tables = ast.materializations.size();
  s.watches = ast.watches.size();

  // Compile into a throwaway node to measure the generated dataflow.
  SimEventLoop loop;
  SimNetwork net(&loop, Topology(TopologyConfig{}), 1);
  auto transport = net.MakeTransport("spec", 0);
  P2NodeConfig nc;
  nc.executor = &loop;
  nc.transport = transport.get();
  nc.seed = 1;
  P2Node node(nc);
  if (node.Install(program_text, &err)) {
    s.elements = node.graph().num_elements();
    s.edges = node.graph().num_edges();
  } else {
    std::fprintf(stderr, "plan error in %s: %s\n", name.c_str(), err.c_str());
  }
  return s;
}

int Main() {
  std::printf("=== E7: specification size (rules / tables / compiled dataflow) ===\n");
  std::printf("%s\n", FormatRow({"overlay", "rules", "facts", "tables", "lines", "elements",
                                 "edges"},
                                10)
                          .c_str());
  ChordConfig chord_cfg;
  NaradaConfig narada_cfg;
  GossipConfig gossip_cfg;
  for (const SpecStats& s :
       {Analyze("chord", ChordProgramText(chord_cfg)),
        Analyze("narada", NaradaProgramText(narada_cfg)),
        Analyze("gossip", GossipProgramText(gossip_cfg))}) {
    std::printf("%s\n", FormatRow({s.name, std::to_string(s.rules), std::to_string(s.facts),
                                   std::to_string(s.tables), std::to_string(s.source_lines),
                                   std::to_string(s.elements), std::to_string(s.edges)},
                                  10)
                            .c_str());
  }
  std::printf("paper: Chord = 47 rules, Narada mesh = 16 rules; MIT Chord ~ thousands of\n"
              "lines of C++, MACEDON Chord > 320 statements.\n\n");

  std::printf("=== E9: per-node working set, running full Chord (8-node ring) ===\n");
  ScenarioNet fleet(BackendKind::kSim, 8, /*seed=*/5);
  ChordTestbed tb(TestbedConfig{}, &fleet);
  tb.BuildAndSettle(120.0);
  fleet.Run(120.0);
  std::printf("mean approx working set per node: %.0f kB (paper: ~800 kB incl. C++ heap)\n\n",
              tb.MeanNodeMemoryBytes() / 1024.0);

  std::printf("=== E7b: per-rule firing counts (introspection, one node, 120 s) ===\n");
  {
    SimEventLoop loop;
    SimNetwork net(&loop, Topology(TopologyConfig{}), 2);
    auto transport = net.MakeTransport("n0", 0);
    P2NodeConfig nc;
    nc.executor = &loop;
    nc.transport = transport.get();
    nc.seed = 2;
    ChordNode node(nc, chord_cfg, "");
    node.Start();
    loop.RunUntil(120.0);
    auto counts = node.node()->RuleFireCounts();
    std::vector<std::pair<std::string, uint64_t>> sorted(counts.begin(), counts.end());
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [rule, fires] : sorted) {
      if (fires > 0) {
        std::printf("  %-6s %8llu fires\n", rule.c_str(),
                    static_cast<unsigned long long>(fires));
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace p2

int main() { return p2::Main(); }
