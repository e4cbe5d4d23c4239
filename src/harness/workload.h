// ChordTestbed: the chord workload of the paper's evaluation (§5).
//
// Runs one Chord participant (declarative P2 Chord or the hand-coded
// baseline) on every slot of a caller's ScenarioNet, staggers their joins,
// issues uniform lookup workloads, and measures what the paper's
// evaluation measures: hop counts, lookup latency, lookup consistency
// against a live ground truth, and per-node maintenance bandwidth. The net
// owns the fabric underneath on either backend — engine, network, fault
// injector, transport stacks, kill and revive — so the same workload runs
// on the transit-stub simulator and over UDP.
//
// Fleet-level actions — staggered joins, churn replacement, bootstrap-
// snapshot refresh — run on the net's control executor, which under the
// sharded simulator runs while every shard is parked; measurement hooks
// that fire on shard threads (lookup completions, hop counting) write only
// per-shard state that is merged on the coordinator when read.
#ifndef P2_HARNESS_WORKLOAD_H_
#define P2_HARNESS_WORKLOAD_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/baseline/chord_baseline.h"
#include "src/cli/scenario.h"
#include "src/overlays/chord.h"

namespace p2 {

struct TestbedConfig {
  bool use_baseline = false;  // false: P2 OverLog Chord; true: hand-coded
  ChordConfig chord;
  BaselineChordConfig baseline;
  double join_stagger_s = 0.25;  // delay between consecutive joins
  // Passed through to every P2 node the testbed builds.
  std::vector<std::string> watches;
  double sysstats_period_s = 0;
};

class ChordTestbed {
 public:
  struct LookupRecord {
    Uint160 key;
    Uint160 event;
    std::string origin;   // issuing node's address
    size_t origin_slot = 0;
    double issued_at = 0;
    bool completed = false;
    double latency_s = 0;
    int hops = 0;
    int retries = 0;
    bool consistent = false;
    std::string result_addr;
  };

  // How long a workload lookup may go unanswered, retries included;
  // runners size their drain windows by it.
  static constexpr double kLookupTimeoutS = 20.0;
  // Workload-level lookup retries (standard DHT-evaluation methodology:
  // re-issue unanswered lookups until the timeout).
  static constexpr double kLookupRetryS = 4.0;

  // One chord node per slot of `net`, seeded from the net's seed. The net
  // must outlive the testbed; set its metrics registry before this runs.
  ChordTestbed(TestbedConfig config, ScenarioNet* net);
  ~ChordTestbed();

  // Creates all nodes with staggered joins, then runs the net until
  // `settle_deadline_s` has elapsed.
  void BuildAndSettle(double settle_deadline_s);

  // Issues one lookup for a uniformly random key from a random live node.
  void IssueRandomLookup();
  // Lookup history with hop counts finalized (merged across shards).
  // Coordinator thread only, between runs.
  const std::vector<LookupRecord>& lookups();
  // Drops lookup history (e.g. after warm-up).
  void ClearLookups();

  // The live node whose identifier is the clockwise successor of `key`
  // (ground truth for consistency checking).
  std::string GroundTruthSuccessor(const Uint160& key) const;

  // Fraction of live nodes whose best successor matches ground truth.
  double RingConsistencyFraction() const;
  // Fraction of live nodes with at least one successor (joined).
  double JoinedFraction() const;

  size_t num_live() const { return live_count_; }
  // Sum of maintenance bytes sent by live and churned-out nodes.
  uint64_t TotalMaintBytesOut() const;
  // Mean approximate working set of live P2 nodes (bytes); 0 for baseline.
  double MeanNodeMemoryBytes() const;
  // Mean number of resolved finger-table rows per live P2 node (0 for the
  // baseline flavor; used by the finger-fixing ablation).
  double MeanFingerRows() const;

  // Per-slot state snapshots for the shard-determinism harness: the best
  // successor address (empty if none) and datagrams delivered to the
  // slot's current endpoint, indexed by slot.
  std::vector<std::string> BestSuccessorByNode();
  std::vector<uint64_t> DeliveredByNode() const;

  // Churn replacement: kills the node in `slot` (endpoint gone; peers see
  // silence) and immediately replaces it with a fresh node at the next
  // unused address, so with a new Chord id, that joins through a random
  // live landmark. Returns false if the slot was the only live node. Runs
  // on the net's control executor (ChurnDriver) or between runs.
  bool ReplaceNode(size_t slot);

 private:
  struct Slot {
    Uint160 id;
    size_t shard = 0;
    std::unique_ptr<Rng> boot_rng;  // landmark-provider stream (shard thread)
    std::unique_ptr<ChordNode> p2;
    std::unique_ptr<BaselineChordNode> baseline;
    bool alive = false;
  };

  void MakeNode(size_t slot, const std::string& landmark);
  void StartNode(size_t slot);
  void HookMeasurement(size_t slot);
  void ScheduleLookupRetry(size_t record_index);
  // Landmark re-resolution for join retries. Runs on the caller's shard
  // thread: draws from the slot's own RNG stream over the bootstrap
  // snapshot (refreshed only at control barriers), so it is both race-free
  // and shard-count-invariant.
  std::string SnapshotBootstrap(size_t slot);
  // Control timeline: re-scans which live nodes have joined the ring.
  void RefreshJoinedSnapshot();
  void ScheduleBootstrapRefresh();
  void OnLookupResult(size_t shard, double now, const Uint160& key,
                      const std::string& result_addr, const Uint160& event);
  bool HasSuccessor(const Slot& s) const;
  std::optional<std::pair<Uint160, std::string>> BestSuccessor(const Slot& s) const;

  TestbedConfig config_;
  ScenarioNet* net_;
  // Per-shard p2_lookup_wrong_total handles (byzantine detection metric);
  // empty without a registry.
  std::vector<obs::Counter*> wrong_lookup_;
  Rng rng_;
  Rng boot_seed_rng_;  // seeds per-slot landmark-provider streams
  std::vector<Slot> slots_;
  size_t live_count_ = 0;
  uint64_t dead_maint_bytes_ = 0;
  bool refresh_scheduled_ = false;

  // Bootstrap snapshot: written by control tasks at barriers, read by
  // landmark providers on shard threads.
  std::vector<std::string> snap_joined_;
  std::vector<std::string> snap_live_;

  std::vector<LookupRecord> lookups_;
  bool hops_finalized_ = true;
  // Per-shard measurement lanes: each map is written only by its shard's
  // thread (hooks) or by the coordinator while shards are parked.
  // event id low64 -> record index (issued from a node on that shard).
  std::vector<std::unordered_map<uint64_t, size_t>> pending_;
  // event id low64 -> times the lookup tuple arrived at nodes on that
  // shard. Arrival *times* (not bare counts) so the merge can reproduce
  // the single-loop semantics exactly: a record's hop count is the number
  // of arrivals at or before its completion, which freezes the figure
  // against straggling retry copies that keep hopping afterwards.
  std::vector<std::unordered_map<uint64_t, std::vector<double>>> hop_arrivals_;
};

}  // namespace p2

#endif  // P2_HARNESS_WORKLOAD_H_
