#include "src/sim/topology.h"

namespace p2 {

double Topology::LatencyBetween(size_t a, size_t b) const {
  if (a == b) {
    return 0.0;
  }
  if (DomainOf(a) == DomainOf(b)) {
    return 2.0 * config_.intra_domain_latency_s;
  }
  return 2.0 * config_.intra_domain_latency_s + config_.inter_domain_latency_s;
}

double Topology::MinCrossDomainLatency() const {
  return 2.0 * config_.intra_domain_latency_s + config_.inter_domain_latency_s;
}

double Topology::SerializationDelay(size_t a, size_t b, size_t bytes) const {
  if (a == b) {
    return 0.0;
  }
  double bits = static_cast<double>(bytes) * 8.0;
  double delay = 2.0 * bits / config_.stub_capacity_bps;  // both access links
  if (DomainOf(a) != DomainOf(b)) {
    delay += bits / config_.router_capacity_bps;
  }
  return delay;
}

}  // namespace p2
