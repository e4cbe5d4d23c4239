// Frame header for the reliable transport stack.
//
// The stack multiplexes DATA and ACK frames over the existing datagram
// format: a reliable frame is a fixed 23-byte header followed (for DATA)
// by an opaque payload — normally a 0xD2-framed tuple (src/net/wire.h).
// The leading magic byte 0xD5 distinguishes stack frames from plain tuple
// datagrams, which lets a reliable endpoint keep accepting traffic from
// best-effort peers (the reverse needs the stack on both ends: a plain
// endpoint cannot parse 0xD5 frames). All parsing is bounds-checked: wire
// input is untrusted.
//
// Layout (little-endian, fixed width):
//   u8  magic      0xD5
//   u8  version    0x03
//   u32 checksum   WireChecksum over everything after this field
//   u8  flags      bit0 = carries data, bit1 = carries ack
//   u32 epoch      sender's channel incarnation (data stream id)
//   u32 seq        data sequence number; 0 when no data
//   u32 ack_epoch  incarnation of the peer stream being acked; 0 when none
//   u32 cum_ack    highest contiguously received seq of that stream
//   u32 sack_bits  selective acks: bit i => seq cum_ack+1+i also received
//   [payload]      only when bit0 set
//
// The checksum stands in for the UDP checksum the simulated wire lacks:
// a frame damaged by the corruption fault axis must fail DecodeStackFrame
// rather than resurface as plausible protocol state. The header shape and
// its sealing are shared with tuple frames (SealFrame in src/net/wire.h);
// encoding sizes the datagram exactly and writes it in one pass.
//
// DATA frames piggyback the current ACK state of the reverse direction
// (both flag bits set) so steady bidirectional traffic needs no pure ACKs.
#ifndef P2_NET_STACK_FRAME_H_
#define P2_NET_STACK_FRAME_H_

#include <cstdint>
#include <optional>
#include <vector>

namespace p2 {

inline constexpr uint8_t kStackMagic = 0xD5;
inline constexpr uint8_t kStackVersion = 0x03;
inline constexpr uint8_t kStackFlagData = 0x01;
inline constexpr uint8_t kStackFlagAck = 0x02;
inline constexpr size_t kStackHeaderBytes = 3 + 6 * 4;

struct StackFrame {
  bool has_data = false;
  bool has_ack = false;
  uint32_t epoch = 0;
  uint32_t seq = 0;
  uint32_t ack_epoch = 0;
  uint32_t cum_ack = 0;
  uint32_t sack_bits = 0;
  std::vector<uint8_t> payload;
};

// Serializes `f` into a datagram. Payload bytes are appended only when
// has_data is set.
std::vector<uint8_t> EncodeStackFrame(const StackFrame& f);

// As above, but the DATA payload comes from `payload` rather than
// f.payload — the send hot path appends it straight into the datagram
// instead of copying it into a StackFrame first.
std::vector<uint8_t> EncodeStackFrame(const StackFrame& f,
                                      const std::vector<uint8_t>& payload);

// Strict parse: nullopt on bad magic/version, unknown flag bits, a frame
// with neither data nor ack, truncation, or a dataless frame with trailing
// bytes.
std::optional<StackFrame> DecodeStackFrame(const std::vector<uint8_t>& bytes);

// Cheap dispatch test: does this datagram start like a stack frame?
bool LooksLikeStackFrame(const std::vector<uint8_t>& bytes);

}  // namespace p2

#endif  // P2_NET_STACK_FRAME_H_
