// Simulated datagram network over the transit-stub topology.
//
// The fabric spans every shard of a ShardedSim. When the engine runs more
// than one worker the fabric reshapes it to one shard per topology domain
// (the unit a worker owns) and pins each endpoint to its domain's shard,
// so two endpoints on different shards are always in different domains
// and every cross-shard datagram experiences at least the inter-domain
// latency — the conservative synchronization window the coordinator
// advances by. A cross-shard datagram is staged in the sending shard's
// outbox and reaches the destination's mailbox when the sender's window
// ends.
//
// Determinism is independent of the shard count:
//  - loss draws from a per-endpoint RNG stream, so the coin
//    flips a node's sends consume depend only on that node's own history,
//    never on how other nodes' events interleave globally;
//  - every datagram carries a (send-time, source-ordinal, sequence) key
//    and destinations execute deliveries in key order, so equal-time
//    arrivals tie-break identically whether the sender was co-resident or
//    three shards away.
#ifndef P2_SIM_NETWORK_H_
#define P2_SIM_NETWORK_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/net/transport.h"
#include "src/runtime/random.h"
#include "src/sim/event_loop.h"
#include "src/sim/shard.h"
#include "src/sim/topology.h"

namespace p2 {

class FaultInjector;
class SimTransport;

// The shared fabric: owns the address registry and delivers datagrams with
// topology-derived latency (+ optional loss). Endpoints are
// SimTransport objects created via MakeTransport.
//
// Every address gets a dense id the first time an endpoint binds it, and
// keeps it for the fabric's life. A datagram carries its sender's and
// destination's ids, and delivery finds the destination by indexing a
// vector with the id: whichever endpoint holds the address when the
// datagram lands receives it, so an endpoint revived at its old address
// still receives datagrams sent to it before the restart.
//
// Threading contract: MakeTransport / Unregister / set_loss_rate run on
// the coordinator thread (between runs or from control-timeline tasks)
// while every shard is parked; sends and deliveries run on shard threads
// and touch only registry reads, the sending endpoint's own RNG/sequence
// state, and the destination shard's delivery lane.
class SimNetwork {
 public:
  // Sharded fabric. When the engine has more than one worker this
  // reconfigures it to one shard per topology domain (ConfigureLoops — so
  // it must run before any endpoints or events exist) and tightens the
  // sync window to the topology's minimum cross-domain latency.
  SimNetwork(ShardedSim* engine, Topology topology, uint64_t seed);

  // Single-loop fabric (unit tests, single-threaded harnesses): the whole
  // fleet lives on `loop` as one shard.
  SimNetwork(SimEventLoop* loop, Topology topology, uint64_t seed);

  // Creates an endpoint bound to `addr`, placed at `topo_index` in the
  // topology (which also fixes its shard). Addresses must be unique among
  // live endpoints.
  std::unique_ptr<SimTransport> MakeTransport(const std::string& addr, size_t topo_index);

  // Probability that any datagram is silently dropped (default 0).
  void set_loss_rate(double p) { loss_rate_ = p; }

  // Optional fault injector (asymmetric loss, partitions, latency spikes,
  // corruption) consulted on every send. Not owned; must outlive the runs.
  // Set on the coordinator thread while shards are parked. The injector's
  // decisions draw only from the sender's RNG stream and shard clock, so
  // the fabric's shard-count determinism is preserved.
  void SetFaults(FaultInjector* faults) { faults_ = faults; }

  // Fabric-wide delivered-message counter: an explicit merge of the
  // per-shard counters (each written only by its own shard's thread).
  uint64_t delivered() const;

  size_t num_shards() const { return loops_.size(); }
  // The shard owning topology slot `topo_index`.
  size_t ShardOf(size_t topo_index) const;
  // The executor driving shard `i`.
  SimEventLoop* shard_loop(size_t i) { return loops_[i]; }

  const Topology& topology() const { return topology_; }

 private:
  friend class SimTransport;

  struct Endpoint {
    SimTransport* transport = nullptr;  // null while no endpoint holds the address
    size_t topo_index = 0;
    size_t shard = 0;
  };

  void Init();
  // Simulates a node crash: datagrams to `t`'s address vanish until an
  // endpoint binds it again. Called by the transport destructor.
  void Unregister(const SimTransport* t);
  void Send(SimTransport* from, const std::string& to, std::vector<uint8_t> bytes);
  void Deliver(size_t shard, const SimDelivery& d);

  Topology topology_;
  Rng rng_;  // seeds per-endpoint streams, in registration order
  double loss_rate_ = 0.0;
  FaultInjector* faults_ = nullptr;
  uint64_t next_ordinal_ = 1;
  std::vector<SimEventLoop*> loops_;
  std::vector<uint64_t> delivered_by_shard_;
  std::unordered_map<std::string, uint32_t> addr_ids_;
  std::vector<std::string> addr_names_;  // indexed by address id
  std::vector<Endpoint> endpoints_;      // indexed by address id
};

class SimTransport : public Transport {
 public:
  ~SimTransport() override;

  const std::string& local_addr() const override { return addr_; }
  void SendTo(const std::string& to, std::vector<uint8_t> bytes,
              TrafficClass cls) override;
  void SetReceiver(ReceiveFn fn) override { receiver_ = std::move(fn); }
  const TrafficStats& stats() const override { return stats_; }

  size_t topo_index() const { return topo_index_; }
  size_t shard() const { return shard_; }

 private:
  friend class SimNetwork;
  SimTransport(SimNetwork* net, std::string addr, uint32_t addr_id, size_t topo_index,
               size_t shard, uint64_t ordinal, uint64_t rng_seed)
      : net_(net),
        addr_(std::move(addr)),
        addr_id_(addr_id),
        topo_index_(topo_index),
        shard_(shard),
        ordinal_(ordinal),
        rng_(rng_seed) {}

  void Deliver(const std::string& from, const std::vector<uint8_t>& bytes);

  SimNetwork* net_;
  std::string addr_;
  uint32_t addr_id_;
  size_t topo_index_;
  size_t shard_;
  uint64_t ordinal_;  // unique per endpoint incarnation: the delivery key
  uint64_t send_seq_ = 0;
  Rng rng_;  // this endpoint's private loss (and fault) stream
  ReceiveFn receiver_;
  TrafficStats stats_;
};

}  // namespace p2

#endif  // P2_SIM_NETWORK_H_
