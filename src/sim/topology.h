// Transit-stub network topology modelling the paper's Emulab setup (§5):
// 10 domain routers, stub nodes equally divided among domains,
// inter-domain latency 100 ms, intra-domain latency 2 ms, inter-domain
// router capacity 100 Mb/s, stub node capacity 10 Mb/s.
#ifndef P2_SIM_TOPOLOGY_H_
#define P2_SIM_TOPOLOGY_H_

#include <cstddef>
#include <cstdint>

namespace p2 {

struct TopologyConfig {
  size_t num_domains = 10;
  double intra_domain_latency_s = 0.002;  // stub <-> its domain router
  double inter_domain_latency_s = 0.100;  // router <-> router
  double stub_capacity_bps = 10e6;        // 10 Mb/s access links
  double router_capacity_bps = 100e6;     // 100 Mb/s inter-domain links
};

// Maps simulator node indices onto the transit-stub graph and answers
// end-to-end latency / bottleneck-capacity queries. Node i belongs to
// domain (i mod num_domains), matching the paper's equal division.
class Topology {
 public:
  explicit Topology(TopologyConfig config) : config_(config) {}

  size_t DomainOf(size_t node_index) const { return node_index % config_.num_domains; }

  // One-way propagation latency between two endpoints (seconds).
  // Same node: 0. Same domain: 2 * intra (stub->router->stub).
  // Cross domain: intra + inter + intra.
  double LatencyBetween(size_t a, size_t b) const;

  // Serialization delay for `bytes` across the path's links (seconds).
  double SerializationDelay(size_t a, size_t b, size_t bytes) const;

  // Smallest possible end-to-end latency between two nodes in *different*
  // domains: intra + inter + intra. The sharded simulator partitions nodes so that distinct shards
  // never share a domain, making this the conservative-synchronization
  // window: any cross-shard datagram sent at time t arrives at or after
  // t + MinCrossDomainLatency().
  double MinCrossDomainLatency() const;

  const TopologyConfig& config() const { return config_; }

 private:
  TopologyConfig config_;
};

}  // namespace p2

#endif  // P2_SIM_TOPOLOGY_H_
