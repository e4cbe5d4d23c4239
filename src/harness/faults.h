// Composable fault injection for the scenario harness.
//
// A FaultPlan describes adversity beyond uniform i.i.d. loss: one-way loss
// between domain pairs, partitions that form and heal at scheduled virtual
// times, per-domain latency spikes, slow nodes (a per-node dilation factor
// on every timer delay), random byte corruption upstream of the wire
// parsers, and a byzantine fraction of chord responders. The FaultInjector
// evaluates the plan on the simulator's send path.
//
// Determinism contract (the same one SimNetwork documents): every random
// decision draws from the *sender's* per-endpoint RNG stream, and every
// timed decision is a pure function of the sender shard's virtual clock —
// so a fixed seed yields identical per-node event sequences at any
// --shards count. Timed windows are half-open [start, start+duration): a
// datagram sent at exactly the heal instant is delivered. Partition and
// spike transitions are additionally scheduled on the shard coordinator's
// control timeline (every shard parked) for logging and the
// p2_fault_partition_active gauge, so the timeline of the run and the
// timeline of the fault plan cannot drift apart.
#ifndef P2_HARNESS_FAULTS_H_
#define P2_HARNESS_FAULTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/registry.h"
#include "src/runtime/executor.h"
#include "src/runtime/random.h"

namespace p2 {

// One-way loss: datagrams from src_domain to dst_domain drop with `rate`;
// the reverse direction is untouched. Flag syntax "SRC:DST:RATE".
struct AsymLossRule {
  size_t src_domain = 0;
  size_t dst_domain = 0;
  double rate = 0;
};

// Full cut between `domains` and the rest of the topology (both
// directions) for virtual time [start, start+duration), then heals.
// Traffic within the group, and within the complement, is untouched.
// Flag syntax "START:DUR:DOMAINS" where DOMAINS is e.g. "0", "0-4", "0,3,7".
struct PartitionSpec {
  double start = 0;
  double duration = 0;
  std::vector<size_t> domains;

  bool Contains(size_t domain) const;
};

// Latency multiplier on any datagram to or from `domain` during
// [start, start+duration). Factor >= 1 so the sharded simulator's
// conservative cross-domain window stays valid. Flag syntax
// "START:DUR:DOMAIN:FACTOR".
struct LatencySpikeSpec {
  double start = 0;
  double duration = 0;
  size_t domain = 0;
  double factor = 1;
};

struct FaultPlan {
  std::vector<AsymLossRule> asym_loss;
  std::vector<PartitionSpec> partitions;
  std::vector<LatencySpikeSpec> latency_spikes;
  // Each node slot is slow with probability slow_fraction (deterministic
  // per-slot hash); a slow node's timer delays are multiplied by
  // slow_factor (>= 1). Flag syntax "FRAC:FACTOR".
  double slow_fraction = 0;
  double slow_factor = 1;
  // Probability any datagram gets 1-3 random byte flips before delivery.
  double corrupt_rate = 0;
  // Fraction of chord nodes compiled with the byzantine responder rule
  // (they answer every lookup they see with themselves as successor).
  double byzantine_fraction = 0;

  bool any() const;
  // True when the plan has time-scheduled windows (partitions / spikes)
  // that need Arm() to fix their time base.
  bool timed() const { return !partitions.empty() || !latency_spikes.empty(); }
  // Latest transition instant (relative to the arm base): the virtual time
  // by which every partition has healed and every spike has passed.
  double LastTransitionS() const;
};

// Numeric flag parsers; false (with untouched *out) unless the whole string
// is one number. Doubles must be finite and >= 0 ("nan", "inf", "0.5x" and
// "" are rejected); integers are base-10 digits only, at most `max`.
bool ParseNonNegDouble(const std::string& s, double* out);
bool ParseNonNegInt(const std::string& s, uint64_t max, uint64_t* out);

// Flag-string parsers; false (with untouched *out) on malformed specs.
bool ParseAsymLossSpec(const std::string& spec, AsymLossRule* out);
bool ParsePartitionSpec(const std::string& spec, PartitionSpec* out);
bool ParseLatencySpikeSpec(const std::string& spec, LatencySpikeSpec* out);
// "FRAC:FACTOR", FRAC in [0,1], FACTOR >= 1.
bool ParseSlowNodesSpec(const std::string& spec, double* fraction, double* factor);

// Evaluates a FaultPlan on the simulator send path. Thread contract
// matches SimNetwork: BindObs/Arm run on the coordinator with shards
// parked; DropOnSend/MaybeCorrupt/LatencyFactor run on the sender's shard
// thread and touch only that shard's counter lane and the sender's RNG.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, uint64_t seed);

  // Creates per-lane fault counters (lane = sender shard; the last lane
  // belongs to the coordinator). Null registry keeps counting off.
  void BindObs(obs::Registry* registry);

  // Fixes the time base for the plan's timed windows: a partition with
  // start=10 forms at virtual time base+10. Until Arm() runs, partitions
  // and spikes are inactive (untimed axes — asymmetric loss, corruption —
  // are live from the first send). ScenarioNet::ArmFaults arms when a
  // runner's measurement starts (for chord, after settle), so partition
  // schedules are relative to measurement start.
  void Arm(double base_time);
  bool armed() const { return armed_; }
  double base_time() const { return base_time_; }

  // Schedules a one-shot control-timeline task at every partition/spike
  // transition after the arm base: logs the transition and maintains the
  // p2_fault_partition_active gauge. Call after Arm().
  void ScheduleTransitions(Executor* control);

  // True => drop the datagram (asymmetric loss, then partitions). RNG is
  // drawn once per matching asymmetric rule, never for partitions, so the
  // sender's stream consumption is a pure function of its own sends.
  bool DropOnSend(double now, size_t src_domain, size_t dst_domain, size_t lane,
                  Rng* rng);

  // With probability corrupt_rate, flips 1-3 random bytes of `bytes` in
  // place and classifies the damage: p2_corrupt_dropped_total counts
  // corrupted datagrams the bounds-checked wire parsers will reject,
  // p2_corrupt_passed_total those that still parse (garbage field values —
  // the receiver's type checks are their last line of defense).
  void MaybeCorrupt(double now, size_t lane, Rng* rng, std::vector<uint8_t>* bytes);

  // Product of the factors of every spike active at `now` that touches
  // either endpoint's domain (>= 1).
  double LatencyFactor(double now, size_t src_domain, size_t dst_domain, size_t lane);

  // True when any partition window is active at `now`.
  bool PartitionActive(double now) const;
  // True when an active partition puts the two domains on opposite sides.
  bool PartitionSevers(double now, size_t domain_a, size_t domain_b) const;

  // Deterministic per-slot selections: a pure hash of (seed, slot), so the
  // same slots are picked at any shard count and across revivals.
  bool IsSlowNode(size_t slot) const;
  bool IsByzantineNode(size_t slot) const;
  size_t CountByzantine(size_t num_slots) const;

  const FaultPlan& plan() const { return plan_; }

 private:
  FaultPlan plan_;
  uint64_t seed_;
  bool armed_ = false;
  double base_time_ = 0;
  obs::Gauge* partition_gauge_ = nullptr;  // coordinator lane
  // Per-lane counter handles (empty until BindObs with a registry).
  std::vector<obs::Counter*> asym_dropped_;
  std::vector<obs::Counter*> partition_dropped_;
  std::vector<obs::Counter*> spike_delayed_;
  std::vector<obs::Counter*> corrupt_injected_;
  std::vector<obs::Counter*> corrupt_dropped_;
  std::vector<obs::Counter*> corrupt_passed_;
};

// Executor decorator for slow nodes: every ScheduleAfter delay is
// multiplied by `factor`, dilating the node's virtual time (timers,
// retransmits, periodics) without touching its shard affinity.
class DilatedExecutor : public Executor {
 public:
  DilatedExecutor(Executor* inner, double factor) : inner_(inner), factor_(factor) {}

  double Now() const override { return inner_->Now(); }
  size_t shard_index() const override { return inner_->shard_index(); }
  TimerId ScheduleAfter(double delay, Task task) override {
    return inner_->ScheduleAfter(delay * factor_, std::move(task));
  }
  void Cancel(TimerId id) override { inner_->Cancel(id); }

  double factor() const { return factor_; }

 private:
  Executor* inner_;
  double factor_;
};

// OverLog rule appended to a byzantine chord node's program: it answers
// every lookup it sees — its own finger fixes included — with itself as
// the successor, racing the honest L1-L3 chain. The node still runs the
// full maintenance program, so the attack corrupts answers (and, through
// eager finger rules, other nodes' fingers) rather than its own liveness.
std::string ByzantineChordRules();

}  // namespace p2

#endif  // P2_HARNESS_FAULTS_H_
