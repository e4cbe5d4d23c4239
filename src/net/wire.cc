#include "src/net/wire.h"

#include "src/net/transport.h"
#include "src/runtime/marshal.h"

namespace p2 {

std::vector<uint8_t> FrameTuple(const Tuple& t) {
  ByteWriter body;
  if (!MarshalTuple(t, &body)) {
    return {};  // oversize tuple: callers drop the datagram
  }
  ByteWriter w;
  w.PutU8(0xD2);  // magic
  w.PutU8(0x02);  // version
  w.PutU32(WireChecksum(body.buffer().data(), body.size()));
  w.PutBytes(body.buffer().data(), body.size());
  return w.Take();
}

std::optional<TuplePtr> UnframeTuple(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  uint8_t magic;
  uint8_t version;
  uint32_t checksum;
  if (!r.GetU8(&magic) || !r.GetU8(&version) || !r.GetU32(&checksum) ||
      magic != 0xD2 || version != 0x02) {
    return std::nullopt;
  }
  if (checksum != WireChecksum(bytes.data() + (bytes.size() - r.remaining()),
                               r.remaining())) {
    return std::nullopt;
  }
  return UnmarshalTuple(&r);
}

size_t WireSizeOf(const Tuple& t) {
  return FrameTuple(t).size() + kUdpIpHeaderBytes;
}

TrafficClass TrafficClassOf(const std::string& tuple_name) {
  bool lookup = tuple_name == "lookup" || tuple_name == "lookupResults" ||
                tuple_name == "blookup" || tuple_name == "blookupRes";
  return lookup ? TrafficClass::kLookup : TrafficClass::kMaintenance;
}

}  // namespace p2
