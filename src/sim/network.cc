#include "src/sim/network.h"

#include "src/harness/faults.h"
#include "src/runtime/logging.h"

namespace p2 {

SimNetwork::SimNetwork(ShardedSim* engine, Topology topology, uint64_t seed)
    : topology_(topology), rng_(seed) {
  if (engine->num_workers() > 1) {
    // One shard per domain: domains are the unit a worker owns, and
    // windows stay bounded by the minimum cross-domain latency.
    engine->ConfigureLoops(topology_.config().num_domains);
    engine->set_sync_window(topology_.MinCrossDomainLatency());
  }
  for (size_t i = 0; i < engine->num_shards(); ++i) {
    loops_.push_back(engine->shard(i));
  }
  Init();
}

SimNetwork::SimNetwork(SimEventLoop* loop, Topology topology, uint64_t seed)
    : topology_(topology), rng_(seed) {
  loops_.push_back(loop);
  Init();
}

void SimNetwork::Init() {
  delivered_by_shard_.assign(loops_.size(), 0);
  for (size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->SetDeliverFn(
        [this, i](const SimDelivery& d) { Deliver(i, d); });
  }
}

size_t SimNetwork::ShardOf(size_t topo_index) const {
  return loops_.size() == 1 ? 0 : topology_.DomainOf(topo_index) % loops_.size();
}

std::unique_ptr<SimTransport> SimNetwork::MakeTransport(const std::string& addr,
                                                        size_t topo_index) {
  auto [id, fresh] = addr_ids_.try_emplace(addr, static_cast<uint32_t>(addr_names_.size()));
  if (fresh) {
    addr_names_.push_back(addr);
    endpoints_.emplace_back();
  }
  Endpoint& e = endpoints_[id->second];
  P2_CHECK(e.transport == nullptr);
  size_t shard = ShardOf(topo_index);
  // Ordinal and RNG seed are drawn in registration order, which the
  // coordinator drives deterministically — so an endpoint incarnation gets
  // the same identity and loss stream at any shard count.
  auto t = std::unique_ptr<SimTransport>(new SimTransport(
      this, addr, id->second, topo_index, shard, next_ordinal_++, rng_.NextU64()));
  e = Endpoint{t.get(), topo_index, shard};
  return t;
}

void SimNetwork::Unregister(const SimTransport* t) {
  Endpoint& e = endpoints_[t->addr_id_];
  if (e.transport == t) {
    e.transport = nullptr;
  }
}

uint64_t SimNetwork::delivered() const {
  uint64_t total = 0;
  for (uint64_t d : delivered_by_shard_) {
    total += d;
  }
  return total;
}

void SimNetwork::Send(SimTransport* from, const std::string& to,
                      std::vector<uint8_t> bytes) {
  if (loss_rate_ > 0 && from->rng_.CoinFlip(loss_rate_)) {
    return;
  }
  auto id = addr_ids_.find(to);
  if (id == addr_ids_.end() || endpoints_[id->second].transport == nullptr) {
    return;  // Destination dead or never existed: datagram vanishes.
  }
  const Endpoint& dest = endpoints_[id->second];
  size_t src = from->topo_index_;
  size_t dst = dest.topo_index;
  double now = loops_[from->shard_]->Now();
  if (faults_ != nullptr) {
    // Fault decisions use the sender's own RNG stream and shard clock, so
    // they are as shard-count-invariant as the loss draws above.
    size_t sd = topology_.DomainOf(src);
    size_t dd = topology_.DomainOf(dst);
    if (faults_->DropOnSend(now, sd, dd, from->shard_, &from->rng_)) {
      return;
    }
    faults_->MaybeCorrupt(now, from->shard_, &from->rng_, &bytes);
  }
  double latency = topology_.LatencyBetween(src, dst) +
                   topology_.SerializationDelay(src, dst, bytes.size() + kUdpIpHeaderBytes);
  if (faults_ != nullptr) {
    // Spike factors are >= 1 (parser-enforced), so a spiked cross-shard
    // datagram still lands at or after the conservative sync window.
    latency *= faults_->LatencyFactor(now, topology_.DomainOf(src),
                                      topology_.DomainOf(dst), from->shard_);
  }
  SimDelivery d;
  d.at = now + latency;
  d.src = from->ordinal_;
  d.seq = from->send_seq_++;
  d.from = from->addr_id_;
  d.to = id->second;
  d.bytes = std::move(bytes);

  SimEventLoop* dst_loop = loops_[dest.shard];
  SimEventLoop* running = SimEventLoop::Current();
  if (running == dst_loop || running == nullptr) {
    // Same shard, or the coordinator thread with every shard parked.
    dst_loop->EnqueueLocal(std::move(d));
    return;
  }
  // Cross-shard: stage into the sending shard's local outbox. The owning
  // worker flushes the whole batch into the destination mailbox at the
  // window boundary — one lock round-trip per (source, destination,
  // window) instead of per datagram. Delivery order is unaffected:
  // destinations execute in (at, src, seq) heap order.
  running->StageRemote(dest.shard, std::move(d));
}

void SimNetwork::Deliver(size_t shard, const SimDelivery& d) {
  SimTransport* dest = endpoints_[d.to].transport;
  if (dest == nullptr) {
    return;  // Died in flight.
  }
  ++delivered_by_shard_[shard];
  dest->Deliver(addr_names_[d.from], d.bytes);
}

SimTransport::~SimTransport() { net_->Unregister(this); }

void SimTransport::SendTo(const std::string& to, std::vector<uint8_t> bytes,
                          TrafficClass cls) {
  stats_.CountOut(bytes.size() + kUdpIpHeaderBytes, cls);
  net_->Send(this, to, std::move(bytes));
}

void SimTransport::Deliver(const std::string& from, const std::vector<uint8_t>& bytes) {
  stats_.bytes_in += bytes.size() + kUdpIpHeaderBytes;
  stats_.msgs_in += 1;
  if (receiver_) {
    receiver_(from, bytes);
  }
}

}  // namespace p2
