#include "src/runtime/value.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "src/runtime/logging.h"

namespace p2 {

// Heap payload reps. All are born with refs == 1 (owned by the Value that
// created them) and carry their content hash, computed exactly once.
struct Value::StrRep : Value::Rep {
  explicit StrRep(std::string str)
      : Rep(1, std::hash<std::string>()(str)), s(std::move(str)) {}
  std::string s;
};

struct Value::IdRep : Value::Rep {
  explicit IdRep(const Uint160& v) : Rep(1, v.HashValue()), id(v) {}
  Uint160 id;
};

struct Value::ListRep : Value::Rep {
  explicit ListRep(ValueList list) : Rep(1, 0), items(std::move(list)) {
    size_t h = 0x51ED270Bu;
    for (const Value& v : items) {
      h = h * 1099511628211ull + v.HashValue();
    }
    hash = h;
  }
  ValueList items;
};

namespace {

// Coerces a numeric-ish value to an Id for ring arithmetic.
Uint160 ToId(const Value& v) {
  if (v.type() == ValueType::kId) {
    return v.AsId();
  }
  return Uint160(static_cast<uint64_t>(v.AsInt()));
}

bool IsNumeric(ValueType t) {
  return t == ValueType::kBool || t == ValueType::kInt || t == ValueType::kDouble;
}

// Integer arithmetic wraps mod 2^64, explicitly: PEL is a ring language and
// its integer ops must be total (and sanitizer-clean) on every input, so the
// computation runs in unsigned space where wraparound is defined.
int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) + static_cast<uint64_t>(b));
}
int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) - static_cast<uint64_t>(b));
}
int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) * static_cast<uint64_t>(b));
}

// IdRep recycling: ring arithmetic produces a fresh Id per result (Chord's
// distance computation "K - B - 1" runs on every lookup hop), and IdRep is
// fixed-size, so dead reps go through a freelist instead of the allocator.
// The pool is thread-local: each simulator shard thread recycles its own
// reps (shards share no Values, so a rep is always allocated and freed on
// the thread that owns its node — and even a rep that migrates with a
// control-thread handoff just lands in the freeing thread's pool, since
// pool entries are untyped fixed-size blocks). The main thread's pool is
// leaked on purpose (recreated lazily if touched again) so Values held by
// static-storage objects can release safely during exit; worker threads
// call DrainThreadIdRepPool before exiting so their pools don't leak.
constexpr size_t kIdRepPoolMax = 8192;

std::vector<void*>*& IdRepPoolSlot() {
  thread_local std::vector<void*>* pool = nullptr;
  return pool;
}

std::vector<void*>& IdRepPool() {
  std::vector<void*>*& slot = IdRepPoolSlot();
  if (slot == nullptr) {
    slot = new std::vector<void*>();
  }
  return *slot;
}

}  // namespace

void DrainThreadIdRepPool() {
  std::vector<void*>*& slot = IdRepPoolSlot();
  if (slot == nullptr) {
    return;
  }
  for (void* block : *slot) {
    ::operator delete(block);
  }
  delete slot;
  slot = nullptr;
}

const Value::StrRep* Value::str_rep() const {
  return static_cast<const StrRep*>(u_.rep);
}
const Value::IdRep* Value::id_rep() const {
  return static_cast<const IdRep*>(u_.rep);
}
const Value::ListRep* Value::list_rep() const {
  return static_cast<const ListRep*>(u_.rep);
}

void Value::Destroy() {
  switch (tag_) {
    case ValueType::kStr:
    case ValueType::kAddr:
      delete str_rep();
      break;
    case ValueType::kId: {
      const IdRep* r = id_rep();
      r->~IdRep();
      std::vector<void*>& pool = IdRepPool();
      if (pool.size() < kIdRepPoolMax) {
        pool.push_back(const_cast<IdRep*>(r));
      } else {
        ::operator delete(const_cast<IdRep*>(r));
      }
      break;
    }
    case ValueType::kList:
      delete list_rep();
      break;
    default:
      break;
  }
}

Value Value::Str(std::string s) {
  Value v(ValueType::kStr);
  v.u_.rep = new StrRep(std::move(s));
  return v;
}

Value Value::Id(const Uint160& id) {
  Value v(ValueType::kId);
  std::vector<void*>& pool = IdRepPool();
  void* mem;
  if (!pool.empty()) {
    mem = pool.back();
    pool.pop_back();
  } else {
    mem = ::operator new(sizeof(IdRep));
  }
  v.u_.rep = new (mem) IdRep(id);
  return v;
}

Value Value::Addr(std::string a) {
  Value v(ValueType::kAddr);
  v.u_.rep = new StrRep(std::move(a));
  return v;
}

Value Value::List(ValueList items) {
  Value v(ValueType::kList);
  v.u_.rep = new ListRep(std::move(items));
  return v;
}

bool Value::AsBool() const {
  switch (tag_) {
    case ValueType::kBool:
      return u_.b;
    case ValueType::kInt:
      return u_.i != 0;
    case ValueType::kDouble:
      return u_.d != 0.0;
    default:
      P2_FATAL("Value::AsBool on %s", ToString().c_str());
  }
}

int64_t Value::AsInt() const {
  switch (tag_) {
    case ValueType::kBool:
      return u_.b ? 1 : 0;
    case ValueType::kInt:
      return u_.i;
    case ValueType::kDouble: {
      // Saturating conversion: a double outside int64 range (or NaN) must
      // not hit the UB cast — PEL coercions are total.
      double d = u_.d;
      if (std::isnan(d)) {
        return 0;
      }
      if (d >= 9223372036854775808.0) {
        return INT64_MAX;
      }
      if (d <= -9223372036854775808.0) {
        return INT64_MIN;
      }
      return static_cast<int64_t>(d);
    }
    default:
      P2_FATAL("Value::AsInt on %s", ToString().c_str());
  }
}

double Value::AsDouble() const {
  switch (tag_) {
    case ValueType::kBool:
      return u_.b ? 1.0 : 0.0;
    case ValueType::kInt:
      return static_cast<double>(u_.i);
    case ValueType::kDouble:
      return u_.d;
    default:
      P2_FATAL("Value::AsDouble on %s", ToString().c_str());
  }
}

const std::string& Value::AsStr() const {
  if (tag_ != ValueType::kStr) {
    P2_FATAL("Value::AsStr on %s", ToString().c_str());
  }
  return str_rep()->s;
}

const Uint160& Value::AsId() const {
  if (tag_ != ValueType::kId) {
    P2_FATAL("Value::AsId on %s", ToString().c_str());
  }
  return id_rep()->id;
}

const std::string& Value::AsAddr() const {
  if (tag_ != ValueType::kAddr) {
    P2_FATAL("Value::AsAddr on %s", ToString().c_str());
  }
  return str_rep()->s;
}

const ValueList& Value::AsList() const {
  if (tag_ != ValueType::kList) {
    P2_FATAL("Value::AsList on %s", ToString().c_str());
  }
  return list_rep()->items;
}

// Total order over doubles: NaN compares equal to itself and after every
// number. IEEE semantics (NaN != NaN, all comparisons false) would break
// strict weak ordering in tuple containers and let the fixpoint loop derive
// the "same" NaN tuple as new forever — and a bit-flipped frame from the
// corruption fault can smuggle a NaN into any double field.
static int CompareDoubleTotal(double x, double y) {
  bool nx = std::isnan(x);
  bool ny = std::isnan(y);
  if (nx || ny) {
    return nx == ny ? 0 : (nx ? 1 : -1);
  }
  return x == y ? 0 : (x < y ? -1 : 1);
}

int Value::Compare(const Value& a, const Value& b) {
  ValueType ta = a.tag_;
  ValueType tb = b.tag_;
  // Cross-type numeric comparison.
  if (IsNumeric(ta) && IsNumeric(tb) && ta != tb) {
    return CompareDoubleTotal(a.AsDouble(), b.AsDouble());
  }
  if (ta != tb) {
    return static_cast<int>(ta) < static_cast<int>(tb) ? -1 : 1;
  }
  switch (ta) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool: {
      bool x = a.u_.b;
      bool y = b.u_.b;
      return x == y ? 0 : (x < y ? -1 : 1);
    }
    case ValueType::kInt: {
      int64_t x = a.u_.i;
      int64_t y = b.u_.i;
      return x == y ? 0 : (x < y ? -1 : 1);
    }
    case ValueType::kDouble:
      return CompareDoubleTotal(a.u_.d, b.u_.d);
    case ValueType::kStr:
    case ValueType::kAddr:
      return a.str_rep()->s.compare(b.str_rep()->s);
    case ValueType::kId: {
      const Uint160& x = a.AsId();
      const Uint160& y = b.AsId();
      return x == y ? 0 : (x < y ? -1 : 1);
    }
    case ValueType::kList: {
      const ValueList& x = a.AsList();
      const ValueList& y = b.AsList();
      size_t n = std::min(x.size(), y.size());
      for (size_t i = 0; i < n; ++i) {
        int c = Compare(x[i], y[i]);
        if (c != 0) {
          return c;
        }
      }
      return x.size() == y.size() ? 0 : (x.size() < y.size() ? -1 : 1);
    }
  }
  P2_FATAL("unreachable value type");
}

Value Value::Add(const Value& a, const Value& b) {
  if (a.tag_ == ValueType::kId || b.tag_ == ValueType::kId) {
    return Id(ToId(a) + ToId(b));
  }
  if (a.tag_ == ValueType::kDouble || b.tag_ == ValueType::kDouble) {
    return Double(a.AsDouble() + b.AsDouble());
  }
  if (a.tag_ == ValueType::kStr && b.tag_ == ValueType::kStr) {
    return Str(a.AsStr() + b.AsStr());
  }
  return Int(WrapAdd(a.AsInt(), b.AsInt()));
}

Value Value::Sub(const Value& a, const Value& b) {
  if (a.tag_ == ValueType::kId || b.tag_ == ValueType::kId) {
    return Id(ToId(a) - ToId(b));
  }
  if (a.tag_ == ValueType::kDouble || b.tag_ == ValueType::kDouble) {
    return Double(a.AsDouble() - b.AsDouble());
  }
  return Int(WrapSub(a.AsInt(), b.AsInt()));
}

Value Value::Mul(const Value& a, const Value& b) {
  if (a.tag_ == ValueType::kDouble || b.tag_ == ValueType::kDouble) {
    return Double(a.AsDouble() * b.AsDouble());
  }
  return Int(WrapMul(a.AsInt(), b.AsInt()));
}

Value Value::Div(const Value& a, const Value& b) {
  if (a.tag_ == ValueType::kDouble || b.tag_ == ValueType::kDouble) {
    double d = b.AsDouble();
    return Double(d == 0.0 ? 0.0 : a.AsDouble() / d);
  }
  int64_t d = b.AsInt();
  if (d == 0) {
    return Int(0);
  }
  int64_t n = a.AsInt();
  if (d == -1) {
    return Int(WrapSub(0, n));  // INT64_MIN / -1 overflows; wrap like Sub
  }
  return Int(n / d);
}

Value Value::Mod(const Value& a, const Value& b) {
  int64_t d = b.AsInt();
  if (d == 0 || d == -1) {
    return Int(0);  // n % -1 == 0, but INT64_MIN % -1 traps in hardware
  }
  return Int(a.AsInt() % d);
}

Value Value::Shl(const Value& a, const Value& b) {
  int64_t n = b.AsInt();
  if (n < 0) {
    n = 0;
  }
  return Id(ToId(a) << static_cast<unsigned>(n));
}

size_t Value::HashValue() const {
  switch (tag_) {
    case ValueType::kNull:
      return 0x9E3779B9u;
    case ValueType::kBool:
      return u_.b ? 0x1234567u : 0x7654321u;
    case ValueType::kInt:
      return std::hash<int64_t>()(u_.i);
    case ValueType::kDouble:
      // All NaN payloads are Compare-equal, so they must share one hash.
      return std::isnan(u_.d) ? 0x7FF8DEADu : std::hash<double>()(u_.d);
    case ValueType::kStr:
    case ValueType::kId:
    case ValueType::kList:
      return u_.rep->hash;
    case ValueType::kAddr:
      return u_.rep->hash ^ 0xA5A5A5A5u;
  }
  return 0;
}

bool Value::operator==(const Value& o) const {
  ValueType t = tag_;
  if (t != o.tag_) {
    // Only numeric types compare equal across types.
    return IsNumeric(t) && IsNumeric(o.tag_) &&
           CompareDoubleTotal(AsDouble(), o.AsDouble()) == 0;
  }
  switch (t) {
    case ValueType::kNull:
      return true;
    case ValueType::kBool:
      return u_.b == o.u_.b;
    case ValueType::kInt:
      return u_.i == o.u_.i;
    case ValueType::kDouble:
      return CompareDoubleTotal(u_.d, o.u_.d) == 0;
    case ValueType::kStr:
    case ValueType::kAddr: {
      const StrRep* a = str_rep();
      const StrRep* b = o.str_rep();
      return a == b || (a->hash == b->hash && a->s == b->s);
    }
    case ValueType::kId: {
      const IdRep* a = id_rep();
      const IdRep* b = o.id_rep();
      return a == b || (a->hash == b->hash && a->id == b->id);
    }
    case ValueType::kList: {
      const ListRep* a = list_rep();
      const ListRep* b = o.list_rep();
      if (a == b) {
        return true;
      }
      // No hash short-circuit here: cross-type numeric equality (Int(1) ==
      // Double(1.0)) means Compare-equal lists can hash differently.
      if (a->items.size() != b->items.size()) {
        return false;
      }
      for (size_t i = 0; i < a->items.size(); ++i) {
        if (a->items[i] != b->items[i]) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

std::string Value::ToString() const {
  switch (tag_) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return u_.b ? "true" : "false";
    case ValueType::kInt:
      return std::to_string(u_.i);
    case ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", u_.d);
      return buf;
    }
    case ValueType::kStr:
      return "\"" + AsStr() + "\"";
    case ValueType::kId:
      return "0x" + AsId().ToHex();
    case ValueType::kAddr:
      return AsAddr();
    case ValueType::kList: {
      std::string out = "[";
      bool first = true;
      for (const Value& v : AsList()) {
        if (!first) {
          out += ", ";
        }
        first = false;
        out += v.ToString();
      }
      return out + "]";
    }
  }
  return "?";
}

size_t ValueVecHash::operator()(const std::vector<Value>& vs) const {
  size_t h = kValueVecHashSeed;
  for (const Value& v : vs) {
    h = ValueVecHashStep(h, v);
  }
  return h;
}

bool ValueVecEq::operator()(const std::vector<Value>& a, const std::vector<Value>& b) const {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace p2
