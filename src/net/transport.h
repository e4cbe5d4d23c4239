// Datagram transport abstraction.
//
// A P2 node's network stack bottoms out in a Transport: an unreliable,
// unordered datagram channel addressed by string addresses. Two
// implementations exist: SimTransport (virtual-time simulator, used by the
// benchmarks) and UdpTransport (real sockets, used by the multi-process
// examples). Decorators in src/net/stack/ (ReliableChannel, LossyTransport)
// are also Transports, so the whole stack composes like the paper's staged
// dataflow pipelines.
#ifndef P2_NET_TRANSPORT_H_
#define P2_NET_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace p2 {

// Classifies a send for the evaluation's bandwidth accounting. The paper
// separates "lookup" traffic (lookup/lookupResults tuples) from
// "maintenance" traffic; the reliable transport stack adds two classes of
// its own so its overhead never pollutes the paper's figures:
// retransmissions and pure control frames (ACKs).
enum class TrafficClass {
  kMaintenance,
  kLookup,
  kRetransmit,
  kControl,
};

// Cumulative traffic counters for one endpoint, split by traffic class.
// bytes_out/bytes_in cover everything that reached (or arrived from) the
// wire; the *_bytes_out fields split bytes_out by TrafficClass.
struct TrafficStats {
  uint64_t bytes_out = 0;
  uint64_t msgs_out = 0;
  uint64_t bytes_in = 0;
  uint64_t msgs_in = 0;
  uint64_t maint_bytes_out = 0;
  uint64_t lookup_bytes_out = 0;
  uint64_t retx_bytes_out = 0;     // retransmitted frames (reliable stack)
  uint64_t control_bytes_out = 0;  // pure ACK frames (reliable stack)

  // Accounts one outgoing datagram of `wire_bytes` under `cls`.
  void CountOut(size_t wire_bytes, TrafficClass cls) {
    bytes_out += wire_bytes;
    msgs_out += 1;
    switch (cls) {
      case TrafficClass::kMaintenance:
        maint_bytes_out += wire_bytes;
        break;
      case TrafficClass::kLookup:
        lookup_bytes_out += wire_bytes;
        break;
      case TrafficClass::kRetransmit:
        retx_bytes_out += wire_bytes;
        break;
      case TrafficClass::kControl:
        control_bytes_out += wire_bytes;
        break;
    }
  }
};

class Transport {
 public:
  using ReceiveFn =
      std::function<void(const std::string& from, const std::vector<uint8_t>& bytes)>;

  virtual ~Transport() = default;

  virtual const std::string& local_addr() const = 0;

  // Sends a datagram accounted under `cls`. Delivery is best-effort.
  virtual void SendTo(const std::string& to, std::vector<uint8_t> bytes,
                      TrafficClass cls) = 0;

  virtual void SetReceiver(ReceiveFn fn) = 0;

  virtual const TrafficStats& stats() const = 0;
};

// Estimated per-datagram UDP/IP header overhead counted toward bandwidth
// symmetrically on both the send and the receive side.
inline constexpr size_t kUdpIpHeaderBytes = 28;

}  // namespace p2

#endif  // P2_NET_TRANSPORT_H_
