#include "src/net/wire.h"

#include <cstring>

#include "src/net/transport.h"
#include "src/runtime/marshal.h"

namespace p2 {

namespace {

constexpr uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;

uint64_t ChecksumRound(uint64_t h, uint64_t w) {
  h += w * kP2;
  h = (h << 31) | (h >> 33);
  return h * kP1;
}

}  // namespace

uint32_t WireChecksum(const uint8_t* data, size_t n) {
  uint64_t h = 0x27D4EB2F165667C5ull + n;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, data + i, 8);
    h = ChecksumRound(h, LittleEndian(w));
  }
  if (i < n) {
    uint64_t w = 0;
    for (size_t k = 0; i + k < n; ++k) {
      w |= static_cast<uint64_t>(data[i + k]) << (8 * k);
    }
    h = ChecksumRound(h, w);
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  return static_cast<uint32_t>(h ^ (h >> 32));
}

void SealFrame(std::vector<uint8_t>* frame) {
  uint32_t sum = LittleEndian(
      WireChecksum(frame->data() + kFrameBodyOffset, frame->size() - kFrameBodyOffset));
  std::memcpy(frame->data() + kFrameChecksumOffset, &sum, sizeof(sum));
}

bool FrameSealIntact(const std::vector<uint8_t>& frame) {
  if (frame.size() < kFrameBodyOffset) {
    return false;
  }
  uint32_t stored;
  std::memcpy(&stored, frame.data() + kFrameChecksumOffset, sizeof(stored));
  return LittleEndian(stored) ==
         WireChecksum(frame.data() + kFrameBodyOffset, frame.size() - kFrameBodyOffset);
}

std::vector<uint8_t> FrameTuple(const Tuple& t) {
  ByteWriter w(kFrameBodyOffset + MarshaledSize(t));
  w.PutU8(kTupleMagic);
  w.PutU8(kTupleVersion);
  w.PutU32(0);  // checksum, sealed below
  if (!MarshalTuple(t, &w)) {
    return {};  // oversize tuple: callers drop the datagram
  }
  std::vector<uint8_t> bytes = w.Take();
  SealFrame(&bytes);
  return bytes;
}

std::optional<TuplePtr> UnframeTuple(const std::vector<uint8_t>& bytes, AddrCache* addrs) {
  if (bytes.size() < kFrameBodyOffset || bytes[0] != kTupleMagic ||
      bytes[1] != kTupleVersion || !FrameSealIntact(bytes)) {
    return std::nullopt;
  }
  ByteReader r(bytes.data() + kFrameBodyOffset, bytes.size() - kFrameBodyOffset);
  return UnmarshalTuple(&r, addrs);
}

TrafficClass TrafficClassOf(const std::string& tuple_name) {
  bool lookup = tuple_name == "lookup" || tuple_name == "lookupResults" ||
                tuple_name == "blookup" || tuple_name == "blookupRes";
  return lookup ? TrafficClass::kLookup : TrafficClass::kMaintenance;
}

}  // namespace p2
