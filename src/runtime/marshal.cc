#include "src/runtime/marshal.h"

#include <algorithm>
#include <functional>
#include <string>

namespace p2 {

void ByteWriter::Grow(size_t n) {
  buf_.resize(std::max({buf_.size() * 2, size_ + n, size_t{64}}));
}

bool ByteReader::GetDouble(double* v) {
  uint64_t bits;
  if (!GetU64(&bits)) {
    return false;
  }
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

bool ByteReader::GetString(std::string_view* s) {
  uint32_t n;
  // Cap the claimed length against the bytes actually remaining: a
  // malicious 4 GB length must not reach an allocation or a read.
  if (!GetU32(&n) || n > remaining()) {
    return false;
  }
  *s = std::string_view(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return true;
}

Value AddrCache::Get(std::string_view addr) {
  Value& slot = slots_[std::hash<std::string_view>()(addr) % kSlots];
  if (slot.type() != ValueType::kAddr || slot.AsAddr() != addr) {
    slot = Value::Addr(std::string(addr));
  }
  return slot;
}

size_t MarshaledSize(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 1;
    case ValueType::kBool:
      return 1 + 1;
    case ValueType::kInt:
    case ValueType::kDouble:
      return 1 + 8;
    case ValueType::kStr:
      return 1 + 4 + v.AsStr().size();
    case ValueType::kId:
      return 1 + 8 + 8 + 4;
    case ValueType::kAddr:
      return 1 + 4 + v.AsAddr().size();
    case ValueType::kList: {
      size_t n = 1 + 4;
      for (const Value& item : v.AsList()) {
        n += MarshaledSize(item);
      }
      return n;
    }
  }
  return 1;
}

void MarshalValue(const Value& v, ByteWriter* w) {
  w->PutU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      w->PutU8(v.AsBool() ? 1 : 0);
      break;
    case ValueType::kInt:
      w->PutU64(static_cast<uint64_t>(v.AsInt()));
      break;
    case ValueType::kDouble:
      w->PutDouble(v.AsDouble());
      break;
    case ValueType::kStr:
      w->PutString(v.AsStr());
      break;
    case ValueType::kId: {
      const auto& limbs = v.AsId().limbs();
      w->PutU64(limbs[0]);
      w->PutU64(limbs[1]);
      w->PutU32(static_cast<uint32_t>(limbs[2]));
      break;
    }
    case ValueType::kAddr:
      w->PutString(v.AsAddr());
      break;
    case ValueType::kList: {
      const ValueList& items = v.AsList();
      w->PutU32(static_cast<uint32_t>(items.size()));
      for (const Value& item : items) {
        MarshalValue(item, w);
      }
      break;
    }
  }
}

namespace {

// Lists nest values recursively; wire input is untrusted, so bound the
// depth — a 64 KB datagram of nested list tags would otherwise drive the
// decoder tens of thousands of frames deep and overflow the stack.
constexpr int kMaxUnmarshalDepth = 32;

bool UnmarshalValueAtDepth(ByteReader* r, Value* out, AddrCache* addrs, int depth) {
  if (depth > kMaxUnmarshalDepth) {
    return false;
  }
  uint8_t tag;
  if (!r->GetU8(&tag)) {
    return false;
  }
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      *out = Value::Null();
      return true;
    case ValueType::kBool: {
      uint8_t b;
      if (!r->GetU8(&b)) {
        return false;
      }
      *out = Value::Bool(b != 0);
      return true;
    }
    case ValueType::kInt: {
      uint64_t i;
      if (!r->GetU64(&i)) {
        return false;
      }
      *out = Value::Int(static_cast<int64_t>(i));
      return true;
    }
    case ValueType::kDouble: {
      double d;
      if (!r->GetDouble(&d)) {
        return false;
      }
      *out = Value::Double(d);
      return true;
    }
    case ValueType::kStr: {
      std::string_view s;
      if (!r->GetString(&s)) {
        return false;
      }
      *out = Value::Str(std::string(s));
      return true;
    }
    case ValueType::kId: {
      uint64_t low;
      uint64_t mid;
      uint32_t hi;
      if (!r->GetU64(&low) || !r->GetU64(&mid) || !r->GetU32(&hi)) {
        return false;
      }
      *out = Value::Id(Uint160(hi, mid, low));
      return true;
    }
    case ValueType::kAddr: {
      std::string_view s;
      if (!r->GetString(&s)) {
        return false;
      }
      *out = addrs != nullptr ? addrs->Get(s) : Value::Addr(std::string(s));
      return true;
    }
    case ValueType::kList: {
      uint32_t n;
      // Every marshaled value is at least one tag byte, so a count beyond
      // the remaining buffer is malformed — reject it before reserve.
      if (!r->GetU32(&n) || n > 1u << 20 || n > r->remaining()) {
        return false;
      }
      ValueList items;
      items.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        Value v;
        if (!UnmarshalValueAtDepth(r, &v, addrs, depth + 1)) {
          return false;
        }
        items.push_back(std::move(v));
      }
      *out = Value::List(std::move(items));
      return true;
    }
    default:
      // Unknown type tag: wire data is untrusted, reject explicitly rather
      // than relying on falling out of the switch.
      return false;
  }
}

}  // namespace

bool UnmarshalValue(ByteReader* r, Value* out, AddrCache* addrs) {
  return UnmarshalValueAtDepth(r, out, addrs, 0);
}

size_t MarshaledSize(const Tuple& t, std::string_view name) {
  size_t n = 4 + name.size() + 2;
  for (const Value& v : t.fields()) {
    n += MarshaledSize(v);
  }
  return n;
}

bool MarshalTuple(const Tuple& t, std::string_view name, ByteWriter* w) {
  if (t.size() > 0xFFFF) {
    // The wire field count is a u16; a silent static_cast would corrupt the
    // stream (the receiver would stop short and misparse the rest).
    return false;
  }
  w->PutString(name);
  w->PutU16(static_cast<uint16_t>(t.size()));
  for (const Value& v : t.fields()) {
    MarshalValue(v, w);
  }
  return true;
}

std::optional<TuplePtr> UnmarshalTuple(ByteReader* r, AddrCache* addrs) {
  std::string_view name;
  uint16_t n;
  if (!r->GetString(&name) || !r->GetU16(&n) || n > r->remaining()) {
    return std::nullopt;
  }
  SchemaId schema = FindSchema(name);
  if (schema == kInvalidSchema) {
    return std::nullopt;
  }
  // Decodes straight into the tuple; a malformed field frees it.
  TuplePtr t = Tuple::Build(schema, n, [&](Value* fields) {
    for (uint16_t i = 0; i < n; ++i) {
      if (!UnmarshalValue(r, &fields[i], addrs)) {
        return false;
      }
    }
    return true;
  });
  if (t == nullptr) {
    return std::nullopt;
  }
  return t;
}

std::vector<uint8_t> MarshalTupleToBytes(const Tuple& t) {
  ByteWriter w(MarshaledSize(t));
  if (!MarshalTuple(t, &w)) {
    return {};
  }
  return w.Take();
}

std::optional<TuplePtr> UnmarshalTupleFromBytes(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  return UnmarshalTuple(&r);
}

}  // namespace p2
