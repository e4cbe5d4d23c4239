#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <string_view>
#include <vector>

#include "src/net/transport.h"
#include "src/net/wire.h"
#include "src/runtime/marshal.h"
#include "src/runtime/schema.h"
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

TEST(TuplePtr, CopyMoveAndSelfAssignment) {
  TuplePtr a = Tuple::Make("r", {Value::Int(1)});
  const Tuple* raw = a.get();
  EXPECT_EQ(a.use_count(), 1u);
  TuplePtr b = a;  // copy shares the block
  EXPECT_EQ(b.get(), raw);
  EXPECT_EQ(a.use_count(), 2u);
  TuplePtr c = std::move(b);  // move transfers, leaving null
  EXPECT_EQ(b, nullptr);
  EXPECT_EQ(c.get(), raw);
  EXPECT_EQ(a.use_count(), 2u);
  TuplePtr& c_ref = c;
  c = c_ref;  // self copy-assignment keeps the tuple alive
  EXPECT_EQ(c.get(), raw);
  EXPECT_EQ(c->field(0).AsInt(), 1);
  EXPECT_EQ(a.use_count(), 2u);
  c = std::move(c_ref);  // self move-assignment leaves it intact too
  EXPECT_EQ(c.get(), raw);
  EXPECT_EQ(a.use_count(), 2u);
  TuplePtr d = Tuple::Make("r", {Value::Int(2)});
  d = a;  // copy-assign over a live tuple releases the old one
  EXPECT_EQ(d.get(), raw);
  EXPECT_EQ(a.use_count(), 3u);
  d.reset();
  EXPECT_EQ(d, nullptr);
  EXPECT_EQ(a.use_count(), 2u);
  // A raw pointer to a live tuple can be re-owned (handles are intrusive).
  TuplePtr e(raw);
  EXPECT_EQ(a.use_count(), 3u);
  e.swap(d);
  EXPECT_EQ(e, nullptr);
  EXPECT_EQ(d.get(), raw);
}

TEST(TuplePtr, NullComparisons) {
  TuplePtr null;
  TuplePtr also_null = nullptr;
  EXPECT_TRUE(null == nullptr);
  EXPECT_TRUE(nullptr == null);
  EXPECT_FALSE(null != nullptr);
  EXPECT_FALSE(static_cast<bool>(null));
  EXPECT_EQ(null, also_null);
  EXPECT_EQ(null.use_count(), 0u);
  EXPECT_EQ(null.get(), nullptr);
  TuplePtr t = Tuple::Make("r", {});
  EXPECT_TRUE(t != nullptr);
  EXPECT_TRUE(nullptr != t);
  EXPECT_TRUE(static_cast<bool>(t));
  EXPECT_NE(t, null);
  // Equality is identity, not content.
  EXPECT_NE(t, Tuple::Make("r", {}));
  t = nullptr;
  EXPECT_EQ(t, null);
}

TEST(Tuple, BuildFillsFieldsInPlace) {
  SchemaId schema = InternSchema("built");
  TuplePtr t = Tuple::Build(schema, 3, [](Value* f) {
    EXPECT_TRUE(f[0].is_null() && f[1].is_null() && f[2].is_null());  // start Null
    f[0] = Value::Addr("n1");
    f[2] = Value::Str("tail");
  });
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->name(), "built");
  EXPECT_EQ(t->schema(), schema);
  ASSERT_EQ(t->size(), 3u);
  EXPECT_EQ(t->field(0).AsAddr(), "n1");
  EXPECT_TRUE(t->field(1).is_null());
  EXPECT_EQ(t->fields()[2].AsStr(), "tail");
  EXPECT_TRUE(t->SameAs(*Tuple::Make("built", {Value::Addr("n1"), Value::Null(),
                                               Value::Str("tail")})));
  // A fill may abandon the tuple.
  EXPECT_EQ(Tuple::Build(schema, 2, [](Value* f) {
              f[0] = Value::Str("dropped");
              return false;
            }),
            nullptr);
  TuplePtr empty = Tuple::Build(schema, 0, [](Value*) { return true; });
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(empty->size(), 0u);
  EXPECT_EQ(empty->fields().begin(), empty->fields().end());
}

// A frame whose third field is cut short: the decoder has already built
// the first two (a heap-backed Str among them) into the tuple when it
// fails. The ASan build's leak check catches a partial tuple that is not
// freed; alloc_test checks the same path balances every allocation.
TEST(Marshal, UnmarshalFailingMidFrameReturnsNothing) {
  TuplePtr t = Tuple::Make("lookup", {Value::Str("partly built"), Value::Addr("n1"),
                                      Value::Str("cut")});
  std::vector<uint8_t> bytes = MarshalTupleToBytes(*t);
  bytes.resize(bytes.size() - 2);
  EXPECT_FALSE(UnmarshalTupleFromBytes(bytes).has_value());
  AddrCache addrs;
  ByteReader r(bytes);
  EXPECT_FALSE(UnmarshalTuple(&r, &addrs).has_value());
}

TEST(Marshal, ValueRoundTripAllTypes) {
  TuplePtr t = SampleTuple();
  for (const Value& v : t->fields()) {
    ByteWriter w(MarshaledSize(v));
    MarshalValue(v, &w);
    EXPECT_EQ(w.size(), MarshaledSize(v));
    ByteReader r(w.data(), w.size());
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

std::vector<uint8_t> FromHex(const std::string& hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 3) {
    out.push_back(static_cast<uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// One tuple carrying every Value type, for the golden below.
TuplePtr GoldenTuple() {
  return Tuple::Make(
      "golden",
      {Value::Null(), Value::Bool(true), Value::Int(-2), Value::Double(1.5), Value::Str("s"),
       Value::Id(Uint160(0x0A0B0C0D, 0x1112131415161718ull, 0x2122232425262728ull)),
       Value::Addr("n1"), Value::List({Value::Int(7), Value::Addr("n2")})});
}

// The exact bytes on the wire. Everything after the 6-byte header is the
// marshaled tuple (name, u16 count, tagged little-endian values); the
// version byte and the checksum are the only bytes a checksum or format
// change may move.
TEST(Wire, GoldenTupleFrameBytes) {
  const std::vector<uint8_t> golden = FromHex(
      "d2 03 33 c3 d1 4e 06 00 00 00 67 6f 6c 64 65 6e 08 00 00 01 01 02 fe ff ff ff ff ff "
      "ff ff 03 00 00 00 00 00 00 f8 3f 04 01 00 00 00 73 05 28 27 26 25 24 23 22 21 18 17 "
      "16 15 14 13 12 11 0d 0c 0b 0a 06 02 00 00 00 6e 31 07 02 00 00 00 02 07 00 00 00 00 "
      "00 00 00 06 02 00 00 00 6e 32 ");
  TuplePtr t = GoldenTuple();
  EXPECT_EQ(FrameTuple(*t), golden);
  EXPECT_EQ(MarshaledSize(*t) + kFrameBodyOffset, golden.size());
  std::optional<TuplePtr> back = UnframeTuple(golden);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE((*back)->SameAs(*t));
}

TEST(Wire, AnyDamagedByteSinksTheFrame) {
  const std::vector<uint8_t> good = FrameTuple(*GoldenTuple());
  for (size_t pos = 0; pos < good.size(); ++pos) {
    for (int mask = 1; mask < 256; ++mask) {
      std::vector<uint8_t> bad = good;
      bad[pos] ^= static_cast<uint8_t>(mask);
      EXPECT_FALSE(UnframeTuple(bad).has_value()) << "byte " << pos << " ^ " << mask;
    }
  }
}

TEST(Wire, ChecksumReadsWholeWordsAndTheTail) {
  // Lengths straddling the 8-byte word size: every one must see a change
  // in its last byte and in its length.
  std::vector<uint8_t> bytes(40);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 37);
  }
  for (size_t n = 1; n <= bytes.size(); ++n) {
    uint32_t sum = WireChecksum(bytes.data(), n);
    EXPECT_NE(sum, WireChecksum(bytes.data(), n - 1)) << n;
    std::vector<uint8_t> last(bytes.begin(), bytes.begin() + static_cast<long>(n));
    last.back() ^= 0x80;
    EXPECT_NE(sum, WireChecksum(last.data(), n)) << n;
  }
}

// Tuple names are program vocabulary: a frame naming a predicate this
// process never interned is refused, and the atom table does not grow.
TEST(Wire, UninternedTupleNameRejected) {
  const std::string name = "never_interned_" + std::string(200, 'q');
  ByteWriter w;
  w.PutU8(kTupleMagic);
  w.PutU8(kTupleVersion);
  w.PutU32(0);
  w.PutString(name);
  w.PutU16(1);
  MarshalValue(Value::Addr("n1"), &w);
  std::vector<uint8_t> frame = w.Take();
  SealFrame(&frame);
  size_t before = SchemaCount();
  EXPECT_FALSE(UnframeTuple(frame).has_value());
  EXPECT_EQ(SchemaCount(), before);
  EXPECT_EQ(FindSchema(name), kInvalidSchema);
}

// SchemaName reads published names without the atom table's lock, so
// readers run while other threads intern enough names to allocate several
// new segments of the id -> name map.
TEST(Schema, NamesReadLockFreeWhileOthersIntern) {
  constexpr int kPerInterner = 400;
  std::vector<std::vector<SchemaId>> interned(2);
  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([w, &interned] {
      for (int i = 0; i < kPerInterner; ++i) {
        interned[w].push_back(
            InternSchema("schema_stress_" + std::to_string(w) + "_" + std::to_string(i)));
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&done, &bad] {
      for (uint64_t i = 0; !done.load(); ++i) {
        SchemaId id = static_cast<SchemaId>((i * 7919) % SchemaCount());
        if (FindSchema(SchemaName(id)) != id) {
          bad.fetch_add(1);
        }
      }
    });
  }
  threads[0].join();
  threads[1].join();
  done.store(true);
  threads[2].join();
  threads[3].join();
  EXPECT_EQ(bad.load(), 0);
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < kPerInterner; ++i) {
      EXPECT_EQ(SchemaName(interned[w][static_cast<size_t>(i)]),
                "schema_stress_" + std::to_string(w) + "_" + std::to_string(i));
    }
  }
  for (SchemaId id = 0; id < SchemaCount(); ++id) {
    ASSERT_EQ(FindSchema(SchemaName(id)), id);
  }
}

TEST(AddrCache, ReusesRepsAndEvictsCorrectly) {
  AddrCache cache;
  Value a = cache.Get("n1");
  Value b = cache.Get("n1");
  EXPECT_EQ(a.AsAddr(), "n1");
  EXPECT_EQ(&a.AsAddr(), &b.AsAddr());  // one shared rep
  // Cached values are indistinguishable from freshly built ones.
  Value fresh = Value::Addr("n1");
  EXPECT_EQ(a, fresh);
  EXPECT_EQ(a.HashValue(), fresh.HashValue());
  EXPECT_EQ(Value::Compare(a, fresh), 0);
  // Far more distinct addresses than slots: every lookup still answers
  // with its own spelling, through evictions and refills.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 1000; ++i) {
      std::string addr = "10.0.0." + std::to_string(i) + ":9000";
      Value v = cache.Get(addr);
      ASSERT_EQ(v.type(), ValueType::kAddr);
      EXPECT_EQ(v.AsAddr(), addr);
      EXPECT_EQ(v, Value::Addr(addr));
    }
  }
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
  EXPECT_EQ(w.size(), 1u + 2 + 4 + 8 + 8 + 4 + 5);
  ByteReader r(w.data(), w.size());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  double d;
  std::string_view s;
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
  TuplePtr big = Tuple::Make("big", std::move(fields));
  ByteWriter w;
  EXPECT_FALSE(MarshalTuple(*big, &w));
  EXPECT_EQ(w.size(), 0u);
  EXPECT_TRUE(MarshalTupleToBytes(*big).empty());
  EXPECT_TRUE(FrameTuple(*big).empty());

  std::vector<Value> max_fields(65535, Value::Int(1));
  TuplePtr at_limit = Tuple::Make("max", std::move(max_fields));
  std::optional<TuplePtr> back = UnmarshalTupleFromBytes(MarshalTupleToBytes(*at_limit));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ((*back)->size(), 65535u);
}

TEST(Marshal, HugeClaimedLengthsRejectedBeforeAllocation) {
  // A string claiming 4 GB of payload with 2 bytes behind it.
  std::vector<uint8_t> bytes = {0xFF, 0xFF, 0xFF, 0xFF, 0x41, 0x42};
  ByteReader r(bytes);
  std::string_view s;
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
  ByteReader tr(w.data(), w.size());
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
  ByteReader r(w.data(), w.size());
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
