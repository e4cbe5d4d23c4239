// Byte-level (un)marshaling of Values and Tuples.
//
// P2's network stack serializes real bytes onto the wire; the evaluation's
// bandwidth figures are byte counts of these marshaled buffers. Encoding:
// little-endian fixed-width integers, length-prefixed strings, one type tag
// byte per value.
//
// Encoding is one pass into one buffer: MarshaledSize gives a tuple's exact
// byte count up front, a ByteWriter built with that capacity never regrows,
// and every fixed-width field is stored with a single copy.
#ifndef P2_RUNTIME_MARSHAL_H_
#define P2_RUNTIME_MARSHAL_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <string_view>
#include <vector>

#include "src/runtime/tuple.h"
#include "src/runtime/value.h"

namespace p2 {

// Converts between host order and the wire's little-endian order (the
// conversion is its own inverse).
template <typename T>
inline T LittleEndian(T v) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  if constexpr (sizeof(T) == 2) {
    return __builtin_bswap16(v);
  } else if constexpr (sizeof(T) == 4) {
    return __builtin_bswap32(v);
  } else if constexpr (sizeof(T) == 8) {
    return __builtin_bswap64(v);
  }
#endif
  return v;
}

// Appends little-endian fields to a buffer. A writer constructed with the
// exact number of bytes it will receive (see MarshaledSize) makes one
// allocation and never regrows. Without a size, or with a short one, it
// grows by doubling: a miscounted size costs a reallocation, never a write
// past the buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(size_t capacity) : buf_(capacity) {}

  void PutU8(uint8_t v) { Put(&v, 1); }
  void PutU16(uint16_t v) { PutLE(v); }
  void PutU32(uint32_t v) { PutLE(v); }
  void PutU64(uint64_t v) { PutLE(v); }
  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutLE(bits);
  }
  void PutBytes(const void* data, size_t n) {
    if (n > 0) {
      Put(data, n);
    }
  }
  void PutString(std::string_view s) {  // u32 length prefix
    PutU32(static_cast<uint32_t>(s.size()));
    PutBytes(s.data(), s.size());
  }

  // The bytes written so far.
  const uint8_t* data() const { return buf_.data(); }
  size_t size() const { return size_; }
  std::vector<uint8_t> Take() {
    buf_.resize(size_);
    size_ = 0;
    return std::move(buf_);
  }

 private:
  template <typename T>
  void PutLE(T v) {
    v = LittleEndian(v);
    Put(&v, sizeof(v));
  }
  void Put(const void* p, size_t n) {
    if (buf_.size() - size_ < n) {
      Grow(n);
    }
    std::memcpy(buf_.data() + size_, p, n);
    size_ += n;
  }
  void Grow(size_t n);

  std::vector<uint8_t> buf_;  // size() is the capacity; [0, size_) is written
  size_t size_ = 0;
};

class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t n) : data_(data), size_(n) {}
  explicit ByteReader(const std::vector<uint8_t>& buf) : data_(buf.data()), size_(buf.size()) {}

  bool GetU8(uint8_t* v) { return GetLE(v); }
  bool GetU16(uint16_t* v) { return GetLE(v); }
  bool GetU32(uint32_t* v) { return GetLE(v); }
  bool GetU64(uint64_t* v) { return GetLE(v); }
  bool GetDouble(double* v);
  // A u32-length-prefixed string, as a view into the reader's buffer.
  bool GetString(std::string_view* s);

  size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ >= size_; }

 private:
  template <typename T>
  bool GetLE(T* v) {
    if (remaining() < sizeof(T)) {
      return false;
    }
    std::memcpy(v, data_ + pos_, sizeof(T));
    *v = LittleEndian(*v);
    pos_ += sizeof(T);
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// A small direct-mapped cache of Addr values for the decoder: a received
// address equal to the one in its slot reuses that slot's shared rep
// instead of allocating a new one. Value reps carry plain (non-atomic)
// refcounts, so a cache belongs to one owner whose Values never leave its
// thread — P2Node keeps one per node. Never share one across threads.
class AddrCache {
 public:
  // The Addr value spelled `addr`; a miss builds it and takes the slot.
  Value Get(std::string_view addr);

 private:
  static constexpr size_t kSlots = 64;
  Value slots_[kSlots];
};

// Value codec. Returns false from Unmarshal on malformed input (never
// aborts: wire data is untrusted). Nesting deeper than 32 lists is
// rejected — unbounded recursion on attacker bytes would exhaust the stack.
// Addresses come from `addrs` when one is given.
size_t MarshaledSize(const Value& v);
void MarshalValue(const Value& v, ByteWriter* w);
bool UnmarshalValue(ByteReader* r, Value* out, AddrCache* addrs = nullptr);

// Tuple codec: name + field count (u16) + fields. Returns false — writing
// nothing — for tuples whose field count does not fit the u16 wire field
// (> 65535): truncating the count would silently corrupt the stream.
// MarshaledSize(t) is the exact byte count MarshalTuple writes.
size_t MarshaledSize(const Tuple& t);
bool MarshalTuple(const Tuple& t, ByteWriter* w);
// Rejects a tuple whose name was never interned in this process (see
// FindSchema): names are program vocabulary, fixed when a program is
// installed, and a peer must not grow the process-wide atom table.
std::optional<TuplePtr> UnmarshalTuple(ByteReader* r, AddrCache* addrs = nullptr);

// Convenience round-trips. MarshalTupleToBytes returns an empty buffer for
// unmarshalable (oversize) tuples.
std::vector<uint8_t> MarshalTupleToBytes(const Tuple& t);
std::optional<TuplePtr> UnmarshalTupleFromBytes(const std::vector<uint8_t>& bytes);

}  // namespace p2

#endif  // P2_RUNTIME_MARSHAL_H_
