// Scenario configuration layer behind the `p2run` driver.
//
// A scenario is one reproducible overlay deployment: an overlay kind
// (chord/gossip/narada/pathvector), a node count, an optional churn
// profile, and a backend — the deterministic virtual-time simulator or
// real UDP sockets on the loopback. RunScenario wires the whole pipeline
// (overlog -> planner -> dataflow -> net) for the chosen overlay, runs it,
// and reports whether the overlay converged plus per-overlay metrics.
//
// The examples/ binaries are thin wrappers over this layer: they build
// their fleets through ScenarioNet and add only their demo-specific rules
// or narration on top.
#ifndef P2_CLI_SCENARIO_H_
#define P2_CLI_SCENARIO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/harness/faults.h"
#include "src/harness/metrics.h"
#include "src/net/stack/lossy.h"
#include "src/obs/channel_stats.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/net/stack/reliable_channel.h"
#include "src/net/transport.h"
#include "src/net/udp_loop.h"
#include "src/runtime/executor.h"
#include "src/sim/network.h"
#include "src/sim/shard.h"

namespace p2 {

enum class OverlayKind { kChord, kGossip, kNarada, kPathVector };
enum class BackendKind { kSim, kUdp };

// "chord" / "gossip" / "narada" / "pathvector"; false on unknown names.
bool ParseOverlayKind(const std::string& name, OverlayKind* out);
// "sim" / "udp"; false on unknown names.
bool ParseBackendKind(const std::string& name, BackendKind* out);
const char* OverlayKindName(OverlayKind kind);
const char* BackendKindName(BackendKind kind);

struct ScenarioConfig {
  OverlayKind overlay = OverlayKind::kChord;
  BackendKind backend = BackendKind::kSim;
  size_t nodes = 8;
  uint64_t seed = 1;
  // Measurement phase length in seconds (virtual for --sim, wall-clock for
  // --udp). 0 picks an overlay/backend-specific default.
  double duration_s = 0;
  // Mean exponential node session time in seconds; 0 disables churn.
  // Every overlay churns on both backends (Bamboo methodology: dead nodes
  // are replaced immediately, population stays constant). A chord
  // replacement joins under a fresh address, so with a new Chord id; the
  // other overlays revive the dead node's address.
  double churn_session_mean_s = 0;
  // Chord only: number of lookups issued during the measurement phase.
  int lookups = 20;
  // Probability that any datagram is dropped. The sim backend drops in the
  // fabric; the udp backend drops outgoing datagrams at each endpoint
  // through a deterministic LossyTransport filter.
  double loss_rate = 0;
  // Layer a ReliableChannel (ACK/retry, RTT estimation, AIMD congestion
  // control, bounded send queues) over every endpoint.
  bool reliable = false;
  // Sim backend only: number of worker threads executing the simulator's
  // share-nothing shards (one per topology domain when > 1). 1 =
  // single-threaded. A fixed seed produces identical per-node event
  // orders at any shard count.
  size_t shards = 1;
  // Sim backend only: work stealing — re-assign whole shards to workers
  // at window barriers from the completed window's per-shard event
  // counts. Bit-for-bit identical results either way (p2run --steal).
  bool steal = true;
  // Udp backend only: first port to bind (node i gets base+i); 0 lets the
  // kernel pick free ports.
  uint16_t udp_base_port = 0;
  // PathVector sim only: kill one transit node mid-measurement and report
  // how many virtual seconds the fleet takes to heal — every live node's
  // routes matching post-failure ground truth (p2run --heal-probe).
  bool heal_probe = false;
  bool verbose = false;
  // --- Observability ---
  // Metrics registry on/off; --no-metrics gives the fully uninstrumented
  // build path for A/B overhead measurement.
  bool metrics = true;
  // Predicates to tap tuple-by-tuple (p2run --watch pred1,pred2).
  std::vector<std::string> watches;
  // Non-empty: record shard windows/barriers/control actions and return
  // Chrome trace_event JSON in the report (p2run writes it to this path).
  std::string trace_out;
  // Produce the Prometheus text exposition in the report at exit.
  bool stats_dump = false;
  // When > 0, every node maintains a sysstats table at this period.
  double sysstats_period_s = 0;
  // --- Fault injection (sim backend only) ---
  // Asymmetric loss, healing partitions, latency spikes, slow nodes,
  // corruption, byzantine chord responders (p2run --loss-asym --partition
  // --latency-spike --slow-nodes --corrupt --byzantine). Timed windows
  // (partitions, spikes) are armed at measurement start: for chord that is
  // the end of the settle phase, for the other overlays t=0.
  FaultPlan faults;
};

struct ScenarioReport {
  bool converged = false;
  size_t nodes = 0;
  size_t shards = 1;     // simulator shards the run used (1 for --udp)
  double ran_for_s = 0;  // measurement phase actually driven
  // Simulator-backend throughput accounting (zero for --udp): events
  // executed over the whole scenario and the wall-clock seconds spent
  // driving them. bench/scale_sweep derives events/sec from these.
  uint64_t sim_events = 0;
  double wall_s = 0;
  // Chord metrics.
  size_t lookups_issued = 0;
  size_t lookups_completed = 0;
  size_t lookups_consistent = 0;
  double ring_consistency = 0;  // fraction of nodes agreeing with ground truth
  uint64_t churn_deaths = 0;
  // Gossip/Narada: mean membership view size; PathVector: mean number of
  // best routes per node.
  double mean_view_size = 0;
  // PathVector heal probe: virtual seconds from the kill until every live
  // node's best routes match the post-failure ground truth (stale routes
  // through the dead node withdrawn, detours settled). -1 when the probe
  // did not run or did not converge within its cap.
  double healing_s = -1;
  // Partition probe (chord sim with config.faults.partitions): virtual
  // seconds from the last scheduled heal until ring consistency recovered
  // to its pre-partition level (capped at 0.95). -1 when no partition ran
  // or the ring did not recover within the cap.
  double partition_heal_s = -1;
  // Chord: completed-but-wrong lookup fraction against the live ground
  // truth — the byzantine detection metric (0 when nothing completed).
  double wrong_lookup_rate = 0;
  // Reliable-transport counters summed over the fleet (all-zero unless the
  // scenario ran with reliable = true).
  bool reliable = false;
  ReliableChannelStats transport_stats;
  // Udp backend: ::sendto failures, explicitly merged across endpoints.
  SendFailureCounters send_failures;
  // Human-readable per-overlay summary (multi-line, ready to print).
  std::string detail;
  // Prometheus text exposition (config.metrics && config.stats_dump).
  std::string stats_text;
  // Chrome trace_event JSON (when config.trace_out is set); the caller
  // writes it to the requested path.
  std::string trace_json;
};

// Runs one scenario to completion. Deterministic for the sim backend given
// a fixed config (virtual time, seeded RNG); best-effort timing for udp.
ScenarioReport RunScenario(const ScenarioConfig& config);

// Compiled-plan dump for one overlay's bundled program: builds a single
// node on the simulator backend and returns its P2Node::PlanExplain() —
// per-rule triggers, join order with fanout estimates, probed indices,
// counted heads and head routing. Deterministic for a given overlay
// (`p2run --explain` and the golden-plan tests print exactly this; tables
// are empty at plan time, so every estimate is a static spec prior).
std::string ExplainOverlayPlan(OverlayKind kind);

// ScenarioNet: the backend-owning node fabric that RunScenario, the
// evaluation benches (through ChordTestbed) and the examples build fleets
// on. Owns the executors — a (possibly sharded) virtual-time ShardedSim
// over the transit-stub SimNetwork, or a poll()-based UdpLoop — plus one
// endpoint per node slot, addressed "n0".."nK" (sim) or "127.0.0.1:port"
// (udp), each with its optional loss filter and reliable channel; the
// fault injector and slow-node executors; and kill/revive.
class ScenarioNet {
 public:
  ScenarioNet(BackendKind backend, size_t nodes, uint64_t seed,
              double loss_rate = 0, uint16_t udp_base_port = 0,
              bool reliable = false, size_t shards = 1, FaultPlan faults = FaultPlan{},
              bool steal = true);
  ~ScenarioNet();
  ScenarioNet(const ScenarioNet&) = delete;
  ScenarioNet& operator=(const ScenarioNet&) = delete;

  // False if any endpoint failed to come up (UDP bind failure).
  bool ok() const { return ok_; }

  BackendKind backend() const { return backend_; }
  uint64_t seed() const { return seed_; }
  size_t size() const { return addrs_.size(); }
  // Worker threads driving the fleet (what --shards requested, capped by
  // the shard count; 1 for udp).
  size_t shards() const;
  // Simulator shards: one per topology domain with more than one worker,
  // else 1 (1 for udp). Per-shard measurement lanes key off this.
  size_t num_shards() const;
  // Registry/trace lanes a fleet on this net needs: one per shard plus the
  // coordinator (2 for udp: the loop plus a merge lane).
  size_t metrics_lanes() const { return num_shards() + 1; }
  // The executor node i must run on (its shard's loop under sim, the one
  // UdpLoop under udp). Everything a node owns — its timers, its reliable
  // channel — must be scheduled here. When the fault plan marks slot i
  // slow, this is the slot's dilating wrapper (same shard underneath).
  Executor* executor(size_t i);
  // Node i's shard loop without slow-node dilation (the UdpLoop under
  // udp): harness timers that keep real cadence, such as lookup retries.
  Executor* shard_executor(size_t i);
  // The fleet-control executor: churn drivers and other cross-node actions
  // schedule here so they run with every shard parked (the sharded engine's
  // control timeline; the UdpLoop under udp).
  Executor* control_executor();
  Transport* transport(size_t i);
  const std::string& addr(size_t i) const { return addrs_[i]; }

  // Advances the fleet by `seconds`: virtual time under sim (deterministic),
  // wall-clock under udp.
  void Run(double seconds);
  double Now() const;

  // Simulator events executed so far (0 for the udp backend).
  uint64_t SimEventsRun() const;

  // Fixes the fault plan's time base at the current time and schedules its
  // partition/spike transitions on the control timeline, so
  // "--partition 10:30:0" forms 10 seconds after this call. Runners call
  // it once, when their measurement starts; no-op without a fault plan.
  void ArmFaults();

  // Simulates a crash of endpoint i: its socket/registration goes away and
  // datagrams addressed to it vanish. Destroy the node using the transport
  // first.
  void Kill(size_t i);

  // Recreates a killed endpoint at the same topology slot (churn
  // replacement). By default it keeps its address: under udp the original
  // port is re-bound, so peers keep addressing the revived node at the
  // address they already know. With `fresh_address` the endpoint comes
  // back as a new identity instead: the next unused "n<k>" under sim, a
  // kernel-picked port under udp.
  void Revive(size_t i, bool fresh_address = false);

  // Non-null only when the fleet runs with reliable = true.
  ReliableChannel* channel(size_t i) { return channels_.empty() ? nullptr : channels_[i].get(); }
  // Summed reliable-transport counters (live endpoints + churned-out ones).
  ReliableChannelStats TotalReliableStats() const;
  // Merged ::sendto failure counters (udp backend; all-zero under sim).
  SendFailureCounters TotalSendFailures() const;
  // Observability for the whole fleet (either may be null; both must
  // outlive the net's runs): the registry the fleet's nodes report into,
  // which also receives the fault counters and the fleet channel totals,
  // and the trace of shard windows. Set before building nodes; churn
  // rebuilds read metrics() back. The channel totals are collected from
  // this net, so snapshot the registry only while the net lives.
  void SetObs(obs::Registry* metrics, obs::TraceLog* trace);
  obs::Registry* metrics() { return metrics_; }

  // Non-null when the fleet runs with a non-empty fault plan (sim only).
  FaultInjector* faults() { return injector_.get(); }

  // Non-null only for the sim backend (loss injection, delivery counters).
  SimNetwork* sim_network() { return sim_net_.get(); }
  // Non-null only for the sim backend (events_run, shard access).
  ShardedSim* sim_engine() { return sim_engine_.get(); }

 private:
  // Builds the per-endpoint decorator stack (loss filter, reliable channel)
  // over the freshly created base transport for slot i.
  void BuildStack(size_t i);

  BackendKind backend_;
  bool ok_ = true;
  uint64_t seed_;
  double loss_rate_;
  bool reliable_;
  uint64_t revive_counter_ = 0;
  uint64_t fresh_addr_counter_ = 0;  // "n<k>" addresses handed out under sim
  FaultPlan faults_;
  // Declared before the engines: shard threads consult the injector via
  // SimNetwork until they park for the last time.
  std::unique_ptr<FaultInjector> injector_;
  // Per-slot timer-dilation wrappers for slow nodes (null when not slow).
  std::vector<std::unique_ptr<DilatedExecutor>> dilated_;
  std::vector<std::string> addrs_;
  obs::ChannelStatsPool pool_;
  obs::Registry* metrics_ = nullptr;
  // Sim backend.
  std::unique_ptr<ShardedSim> sim_engine_;
  std::unique_ptr<SimNetwork> sim_net_;
  std::vector<std::unique_ptr<SimTransport>> sim_transports_;
  // Udp backend.
  std::unique_ptr<UdpLoop> udp_loop_;
  std::vector<std::unique_ptr<UdpTransport>> udp_transports_;
  // Optional decorators, outermost last (indexes parallel the transports).
  std::vector<std::unique_ptr<LossyTransport>> lossy_;
  std::vector<std::unique_ptr<ReliableChannel>> channels_;
};

}  // namespace p2

#endif  // P2_CLI_SCENARIO_H_
