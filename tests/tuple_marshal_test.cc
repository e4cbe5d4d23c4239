#include <gtest/gtest.h>

#include "src/net/transport.h"
#include "src/net/wire.h"
#include "src/runtime/marshal.h"
#include "src/runtime/tuple.h"

namespace p2 {
namespace {

TuplePtr SampleTuple() {
  return Tuple::Make("lookup", {Value::Addr("n3"), Value::Id(Uint160::HashOf("key")),
                                Value::Addr("n1"), Value::Id(Uint160(77)),
                                Value::Double(1.25), Value::Str("s"), Value::Int(-9),
                                Value::Bool(true), Value::Null(),
                                Value::List({Value::Int(1), Value::Str("x")})});
}

TEST(Tuple, FieldAccessAndLocspec) {
  TuplePtr t = SampleTuple();
  EXPECT_EQ(t->name(), "lookup");
  EXPECT_EQ(t->size(), 10u);
  EXPECT_EQ(t->locspec().AsAddr(), "n3");
  EXPECT_EQ(t->field(6).AsInt(), -9);
}

TEST(Tuple, KeyOfProjectsPositions) {
  TuplePtr t = Tuple::Make("r", {Value::Int(10), Value::Int(20), Value::Int(30)});
  std::vector<Value> key = t->KeyOf({2, 0});
  ASSERT_EQ(key.size(), 2u);
  EXPECT_EQ(key[0].AsInt(), 30);
  EXPECT_EQ(key[1].AsInt(), 10);
  // Out-of-range positions become null rather than crashing.
  EXPECT_TRUE(t->KeyOf({5})[0].is_null());
}

TEST(Tuple, SameAs) {
  TuplePtr a = Tuple::Make("r", {Value::Int(1)});
  TuplePtr b = Tuple::Make("r", {Value::Int(1)});
  TuplePtr c = Tuple::Make("r", {Value::Int(2)});
  TuplePtr d = Tuple::Make("s", {Value::Int(1)});
  EXPECT_TRUE(a->SameAs(*b));
  EXPECT_FALSE(a->SameAs(*c));
  EXPECT_FALSE(a->SameAs(*d));
}

TEST(Marshal, ValueRoundTripAllTypes) {
  TuplePtr t = SampleTuple();
  for (const Value& v : t->fields()) {
    ByteWriter w;
    MarshalValue(v, &w);
    ByteReader r(w.buffer());
    Value out;
    ASSERT_TRUE(UnmarshalValue(&r, &out));
    EXPECT_EQ(out, v);
    EXPECT_EQ(out.type(), v.type());
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(Marshal, TupleRoundTrip) {
  TuplePtr t = SampleTuple();
  std::vector<uint8_t> bytes = MarshalTupleToBytes(*t);
  std::optional<TuplePtr> back = UnmarshalTupleFromBytes(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE((*back)->SameAs(*t));
}

TEST(Marshal, TruncatedInputFailsCleanly) {
  std::vector<uint8_t> bytes = MarshalTupleToBytes(*SampleTuple());
  for (size_t cut = 0; cut < bytes.size(); cut += 3) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(UnmarshalTupleFromBytes(prefix).has_value()) << "cut=" << cut;
  }
}

TEST(Marshal, GarbageTagFails) {
  std::vector<uint8_t> bytes = {0xFF, 0x00, 0x01};
  ByteReader r(bytes);
  Value v;
  EXPECT_FALSE(UnmarshalValue(&r, &v));
}

TEST(Wire, FrameRoundTrip) {
  TuplePtr t = SampleTuple();
  std::vector<uint8_t> framed = FrameTuple(*t);
  std::optional<TuplePtr> back = UnframeTuple(framed);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE((*back)->SameAs(*t));
}

TEST(Wire, BadMagicRejected) {
  std::vector<uint8_t> framed = FrameTuple(*SampleTuple());
  framed[0] ^= 0x01;
  EXPECT_FALSE(UnframeTuple(framed).has_value());
  framed[0] ^= 0x01;
  framed[1] = 0x7F;  // wrong version
  EXPECT_FALSE(UnframeTuple(framed).has_value());
}

TEST(Wire, WireSizeIncludesHeaders) {
  TuplePtr t = Tuple::Make("x", {Value::Int(1)});
  EXPECT_EQ(WireSizeOf(*t), FrameTuple(*t).size() + kUdpIpHeaderBytes);
}

TEST(Wire, LookupTrafficClassifier) {
  EXPECT_EQ(TrafficClassOf("lookup"), TrafficClass::kLookup);
  EXPECT_EQ(TrafficClassOf("lookupResults"), TrafficClass::kLookup);
  EXPECT_EQ(TrafficClassOf("blookup"), TrafficClass::kLookup);
  EXPECT_EQ(TrafficClassOf("stabilize"), TrafficClass::kMaintenance);
  EXPECT_EQ(TrafficClassOf("pingReq"), TrafficClass::kMaintenance);
}

TEST(ByteIo, PrimitivesRoundTrip) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU16(0x1234);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutDouble(-2.5);
  w.PutString("hello");
  ByteReader r(w.buffer());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  double d;
  std::string s;
  ASSERT_TRUE(r.GetU8(&u8));
  ASSERT_TRUE(r.GetU16(&u16));
  ASSERT_TRUE(r.GetU32(&u32));
  ASSERT_TRUE(r.GetU64(&u64));
  ASSERT_TRUE(r.GetDouble(&d));
  ASSERT_TRUE(r.GetString(&s));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0x1234);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(d, -2.5);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(Marshal, OversizeTupleRejected) {
  // The wire field count is a u16: 65536 fields must be rejected outright,
  // not silently truncated to 0.
  std::vector<Value> fields(65536, Value::Int(1));
  Tuple big("big", std::move(fields));
  ByteWriter w;
  EXPECT_FALSE(MarshalTuple(big, &w));
  EXPECT_EQ(w.size(), 0u);
  EXPECT_TRUE(MarshalTupleToBytes(big).empty());
  EXPECT_TRUE(FrameTuple(big).empty());

  std::vector<Value> max_fields(65535, Value::Int(1));
  Tuple at_limit("max", std::move(max_fields));
  std::optional<TuplePtr> back = UnmarshalTupleFromBytes(MarshalTupleToBytes(at_limit));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ((*back)->size(), 65535u);
}

TEST(Marshal, HugeClaimedLengthsRejectedBeforeAllocation) {
  // A string claiming 4 GB of payload with 2 bytes behind it.
  std::vector<uint8_t> bytes = {0xFF, 0xFF, 0xFF, 0xFF, 0x41, 0x42};
  ByteReader r(bytes);
  std::string s;
  EXPECT_FALSE(r.GetString(&s));

  // A list claiming 2^19 elements backed by nothing.
  std::vector<uint8_t> list_bytes = {7 /* kList tag */, 0x00, 0x00, 0x08, 0x00};
  ByteReader lr(list_bytes);
  Value v;
  EXPECT_FALSE(UnmarshalValue(&lr, &v));

  // A tuple header claiming 60000 fields backed by nothing.
  ByteWriter w;
  w.PutString("t");
  w.PutU16(60000);
  ByteReader tr(w.buffer());
  EXPECT_FALSE(UnmarshalTuple(&tr).has_value());
}

TEST(Marshal, NestingDepthBounded) {
  // Moderate nesting survives the round trip...
  Value v = Value::Int(7);
  for (int i = 0; i < 16; ++i) {
    v = Value::List({v});
  }
  ByteWriter w;
  MarshalValue(v, &w);
  ByteReader r(w.buffer());
  Value out;
  ASSERT_TRUE(UnmarshalValue(&r, &out));
  EXPECT_EQ(out, v);

  // ...but a datagram that is nothing but nested list tags (5 bytes per
  // level, ~13k levels in a max-size UDP payload) must be rejected instead
  // of recursing the stack away.
  std::vector<uint8_t> bomb;
  for (int i = 0; i < 13000; ++i) {
    bomb.push_back(7);  // kList
    bomb.push_back(1);  // one element
    bomb.push_back(0);
    bomb.push_back(0);
    bomb.push_back(0);
  }
  bomb.push_back(0);  // innermost: kNull
  ByteReader br(bomb);
  Value bv;
  EXPECT_FALSE(UnmarshalValue(&br, &bv));
}

TEST(Marshal, UnknownValueTagsRejected) {
  // Every tag beyond the last defined ValueType must fail explicitly.
  for (int tag = 8; tag < 256; ++tag) {
    std::vector<uint8_t> bytes = {static_cast<uint8_t>(tag), 0x01, 0x02, 0x03};
    ByteReader r(bytes);
    Value v;
    EXPECT_FALSE(UnmarshalValue(&r, &v)) << "tag=" << tag;
  }
}

// Fuzz-style robustness: UnmarshalTupleFromBytes must never crash, hang, or
// over-read on truncated, bit-flipped, or fully random buffers — wire data
// is untrusted. Seeded xorshift keeps the case set reproducible.
TEST(Marshal, FuzzedBuffersFailCleanly) {
  uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };

  // Purely random buffers of many sizes.
  for (int round = 0; round < 2000; ++round) {
    std::vector<uint8_t> buf(next() % 64);
    for (uint8_t& b : buf) {
      b = static_cast<uint8_t>(next());
    }
    UnmarshalTupleFromBytes(buf);  // must simply not blow up
  }

  // Valid buffers with a single mutation: truncation + one byte corrupted.
  std::vector<uint8_t> valid = MarshalTupleToBytes(*SampleTuple());
  for (int round = 0; round < 2000; ++round) {
    std::vector<uint8_t> buf(valid.begin(),
                             valid.begin() + static_cast<long>(next() % (valid.size() + 1)));
    if (!buf.empty()) {
      buf[next() % buf.size()] ^= static_cast<uint8_t>(1u << (next() % 8));
    }
    std::optional<TuplePtr> t = UnmarshalTupleFromBytes(buf);
    if (t.has_value()) {
      // Decoding may still succeed (the flip hit a value payload); whatever
      // comes back must be a usable tuple.
      (*t)->ToString();
    }
  }
}

}  // namespace
}  // namespace p2
