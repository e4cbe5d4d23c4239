// Wire format helpers for P2 datagrams.
//
// Each datagram carries exactly one tuple, framed with a magic/version
// prefix so malformed or foreign packets are rejected cheaply. The traffic
// classifier below implements the evaluation's split between lookup traffic
// and maintenance traffic (§5.1).
//
// Framing is one pass: FrameTuple sizes the datagram exactly (header plus
// MarshaledSize), marshals the tuple straight into it and seals the
// checksum in place. The reliable stack's frames (src/net/stack/frame.h)
// share the header shape — magic, version, then a checksum over every
// byte after it — and seal the same way.
#ifndef P2_NET_WIRE_H_
#define P2_NET_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/net/transport.h"
#include "src/runtime/tuple.h"

namespace p2 {

class AddrCache;

inline constexpr uint8_t kTupleMagic = 0xD2;
inline constexpr uint8_t kTupleVersion = 0x03;

// Both frame formats: u8 magic, u8 version, u32 checksum, then the bytes
// the checksum covers.
inline constexpr size_t kFrameChecksumOffset = 2;
inline constexpr size_t kFrameBodyOffset = kFrameChecksumOffset + 4;

// Plays the role of the UDP/Ethernet checksum the simulated wire does not
// have: random bit corruption must be detected and dropped at unmarshal,
// never decoded into a plausible tuple. (The byzantine fault axis covers
// adversarial well-formed data; this guards against *accidental* damage
// only, so a non-cryptographic hash is enough.)
//
// Definition: a 64-bit state seeded with the length absorbs the input as
// little-endian 8-byte words — the last one zero-padded — each through
//   h = rotl64(h + w * P2, 31) * P1
// (P1, P2 are xxHash64's first two primes), is finalized by
//   h ^= h >> 33; h *= P2; h ^= h >> 29
// and folds to 32 bits as (h ^ h >> 32). Each step is a bijection of the
// state, so two inputs that differ in one word always differ before the
// fold.
uint32_t WireChecksum(const uint8_t* data, size_t n);

// Writes WireChecksum of everything past the header into the checksum
// field of a complete frame (either format).
void SealFrame(std::vector<uint8_t>* frame);
// Does a frame of either format carry the checksum of its body? False for
// frames shorter than the header.
bool FrameSealIntact(const std::vector<uint8_t>& frame);

// Serializes `t` into a framed datagram payload:
//   u8  magic    0xD2
//   u8  version  0x03
//   u32 checksum WireChecksum of the marshaled tuple bytes
//   [marshaled tuple]
// Empty for a tuple MarshalTuple rejects (callers drop the datagram).
// `name` is t.name(), for a caller that needs the name too.
std::vector<uint8_t> FrameTuple(const Tuple& t, std::string_view name);
inline std::vector<uint8_t> FrameTuple(const Tuple& t) { return FrameTuple(t, t.name()); }

// Parses a framed datagram; nullopt on bad magic/version, truncation, a
// checksum mismatch or a tuple name this process never interned (all
// untrusted input). Received addresses come from `addrs` when given.
std::optional<TuplePtr> UnframeTuple(const std::vector<uint8_t>& bytes,
                                     AddrCache* addrs = nullptr);

// kLookup for tuples belonging to the DHT lookup request/response plane;
// all other tuple names count as overlay maintenance traffic.
TrafficClass TrafficClassOf(const std::string& tuple_name);

}  // namespace p2

#endif  // P2_NET_WIRE_H_
