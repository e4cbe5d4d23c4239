#include "src/net/stack/frame.h"

#include "src/net/wire.h"
#include "src/runtime/marshal.h"

namespace p2 {

std::vector<uint8_t> EncodeStackFrame(const StackFrame& f) {
  return EncodeStackFrame(f, f.payload);
}

std::vector<uint8_t> EncodeStackFrame(const StackFrame& f,
                                      const std::vector<uint8_t>& payload) {
  size_t body = f.has_data ? payload.size() : 0;
  ByteWriter w(kStackHeaderBytes + body);
  w.PutU8(kStackMagic);
  w.PutU8(kStackVersion);
  w.PutU32(0);  // checksum, sealed below
  uint8_t flags = 0;
  if (f.has_data) {
    flags |= kStackFlagData;
  }
  if (f.has_ack) {
    flags |= kStackFlagAck;
  }
  w.PutU8(flags);
  w.PutU32(f.epoch);
  w.PutU32(f.seq);
  w.PutU32(f.ack_epoch);
  w.PutU32(f.cum_ack);
  w.PutU32(f.sack_bits);
  w.PutBytes(payload.data(), body);
  std::vector<uint8_t> bytes = w.Take();
  SealFrame(&bytes);
  return bytes;
}

std::optional<StackFrame> DecodeStackFrame(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < kFrameBodyOffset || bytes[0] != kStackMagic ||
      bytes[1] != kStackVersion || !FrameSealIntact(bytes)) {
    return std::nullopt;
  }
  ByteReader r(bytes.data() + kFrameBodyOffset, bytes.size() - kFrameBodyOffset);
  uint8_t flags;
  StackFrame f;
  if (!r.GetU8(&flags) || (flags & ~(kStackFlagData | kStackFlagAck)) != 0 || flags == 0) {
    return std::nullopt;
  }
  f.has_data = (flags & kStackFlagData) != 0;
  f.has_ack = (flags & kStackFlagAck) != 0;
  if (!r.GetU32(&f.epoch) || !r.GetU32(&f.seq) || !r.GetU32(&f.ack_epoch) ||
      !r.GetU32(&f.cum_ack) || !r.GetU32(&f.sack_bits)) {
    return std::nullopt;
  }
  if (f.has_data) {
    f.payload.assign(bytes.begin() + kStackHeaderBytes, bytes.end());
  } else if (r.remaining() != 0) {
    return std::nullopt;  // trailing garbage on a pure ACK
  }
  return f;
}

bool LooksLikeStackFrame(const std::vector<uint8_t>& bytes) {
  return !bytes.empty() && bytes[0] == kStackMagic;
}

}  // namespace p2
