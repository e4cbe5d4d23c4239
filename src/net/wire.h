// Wire format helpers for P2 datagrams.
//
// Each datagram carries exactly one tuple, framed with a magic/version
// prefix so malformed or foreign packets are rejected cheaply. The traffic
// classifier below implements the evaluation's split between lookup traffic
// and maintenance traffic (§5.1).
#ifndef P2_NET_WIRE_H_
#define P2_NET_WIRE_H_

#include <optional>
#include <string>
#include <vector>

#include "src/net/transport.h"
#include "src/runtime/tuple.h"

namespace p2 {

// FNV-1a over the frame body. Plays the role of the UDP/Ethernet checksum
// the simulated wire does not have: random bit corruption must be detected
// and dropped at unmarshal, never decoded into a plausible tuple. (The
// byzantine fault axis covers adversarial well-formed data; this guards
// against *accidental* damage only, so a non-cryptographic hash is enough.)
inline uint32_t WireChecksum(const uint8_t* data, size_t n) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ data[i]) * 16777619u;
  }
  return h;
}

// Serializes `t` into a framed datagram payload:
//   u8  magic    0xD2
//   u8  version  0x02
//   u32 checksum WireChecksum of the marshaled tuple bytes
//   [marshaled tuple]
std::vector<uint8_t> FrameTuple(const Tuple& t);

// Parses a framed datagram; nullopt on bad magic/truncation/checksum
// (untrusted).
std::optional<TuplePtr> UnframeTuple(const std::vector<uint8_t>& bytes);

// The wire size a tuple would occupy, including the UDP/IP header estimate
// (used by benchmarks without actually sending).
size_t WireSizeOf(const Tuple& t);

// kLookup for tuples belonging to the DHT lookup request/response plane;
// all other tuple names count as overlay maintenance traffic.
TrafficClass TrafficClassOf(const std::string& tuple_name);

}  // namespace p2

#endif  // P2_NET_WIRE_H_
