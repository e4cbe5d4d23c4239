// The P2 concrete type system.
//
// A Value is the unit of information passed around the system (§3.1 of the
// paper): strings, integers, doubles, timestamps, 160-bit identifiers,
// network addresses, and lists. Values are immutable; heavyweight payloads
// (strings, identifiers, lists) are shared via reference counting so copies
// are cheap.
//
// Representation: a hand-rolled 16-byte tagged union — one byte of tag plus
// an 8-byte payload word. Scalars (null/bool/int/double) live inline and
// copy with two word stores, no branches on dispatch tables; Str/Addr/Id/
// List hold a pointer to an intrusively refcounted rep that also caches the
// payload's hash, so table probes cost a load instead of a traversal. The
// refcount is a plain integer, not an atomic: every Value is confined to
// one simulator shard (shards share nothing — cross-shard tuples travel as
// marshaled bytes), so a rep is only ever touched by the thread that owns
// its node, or handed off whole across a shard barrier.
#ifndef P2_RUNTIME_VALUE_H_
#define P2_RUNTIME_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/runtime/uint160.h"

namespace p2 {

enum class ValueType : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt = 2,     // int64
  kDouble = 3,  // also used for timestamps (seconds)
  kStr = 4,
  kId = 5,    // 160-bit ring identifier
  kAddr = 6,  // network address ("host:port" or simulator node name)
  kList = 7,
};

class Value;
using ValueList = std::vector<Value>;

class Value {
 public:
  Value() : tag_(ValueType::kNull) { u_.i = 0; }
  Value(const Value& o) : u_(o.u_), tag_(o.tag_) {
    if (IsHeap(tag_)) {
      ++u_.rep->refs;
    }
  }
  Value(Value&& o) noexcept : u_(o.u_), tag_(o.tag_) {
    o.tag_ = ValueType::kNull;
    o.u_.i = 0;
  }
  Value& operator=(const Value& o) {
    // Read the source into locals and retain its rep BEFORE Release(): `o`
    // may be *this, or live inside this value's own list payload, which
    // Release() can free.
    Payload u = o.u_;
    ValueType t = o.tag_;
    if (IsHeap(t)) {
      ++u.rep->refs;
    }
    Release();
    u_ = u;
    tag_ = t;
    return *this;
  }
  Value& operator=(Value&& o) noexcept {
    if (this != &o) {
      Release();
      tag_ = o.tag_;
      u_ = o.u_;
      o.tag_ = ValueType::kNull;
      o.u_.i = 0;
    }
    return *this;
  }
  ~Value() { Release(); }

  static Value Null() { return Value(); }
  static Value Bool(bool b) {
    Value v(ValueType::kBool);
    v.u_.b = b;
    return v;
  }
  static Value Int(int64_t i) {
    Value v(ValueType::kInt);
    v.u_.i = i;
    return v;
  }
  static Value Double(double d) {
    Value v(ValueType::kDouble);
    v.u_.d = d;
    return v;
  }
  static Value Str(std::string s);
  static Value Id(const Uint160& id);
  static Value Addr(std::string a);
  static Value List(ValueList items);

  ValueType type() const { return tag_; }
  bool is_null() const { return tag_ == ValueType::kNull; }

  // Typed accessors. Numeric accessors coerce between bool/int/double;
  // everything else requires an exact type match and aborts otherwise
  // (programming error — planner-generated code always type-checks first).
  bool AsBool() const;
  int64_t AsInt() const;
  double AsDouble() const;
  const std::string& AsStr() const;
  const Uint160& AsId() const;
  const std::string& AsAddr() const;
  const ValueList& AsList() const;

  // Total order over all values: by type rank, then within type; int and
  // double compare numerically against each other. Returns <0, 0, >0.
  static int Compare(const Value& a, const Value& b);
  // Equality short-circuits on type, then shared-payload identity and the
  // cached hash, before falling back to content comparison. Agrees with
  // Compare(a, b) == 0 on every input.
  bool operator==(const Value& o) const;
  bool operator!=(const Value& o) const { return !(*this == o); }
  bool operator<(const Value& o) const { return Compare(*this, o) < 0; }
  bool operator<=(const Value& o) const { return Compare(*this, o) <= 0; }
  bool operator>(const Value& o) const { return Compare(*this, o) > 0; }
  bool operator>=(const Value& o) const { return Compare(*this, o) >= 0; }

  // Arithmetic with P2 coercion rules:
  //  - if either operand is an Id, compute mod 2^160 on the ring;
  //  - else if either is a double, compute in double;
  //  - else integer arithmetic, wrapping mod 2^64 (totality: PEL programs
  //    run on wire data, so no input may trap — division guards the
  //    INT64_MIN/-1 corner and double→int conversion saturates).
  // Shl ("<<") always yields an Id: its sole use in OverLog programs is
  // constructing ring offsets (1 << I), which must not truncate at 64 bits.
  static Value Add(const Value& a, const Value& b);
  static Value Sub(const Value& a, const Value& b);
  static Value Mul(const Value& a, const Value& b);
  static Value Div(const Value& a, const Value& b);
  static Value Mod(const Value& a, const Value& b);
  static Value Shl(const Value& a, const Value& b);

  // O(1): scalar hashes are computed inline; Str/Addr/Id/List hashes are
  // computed once at construction and cached in the shared rep.
  size_t HashValue() const;
  std::string ToString() const;

 private:
  // Intrusive refcount header shared by all heap payloads. The hash lives
  // here so every probe of a shared value is a single load.
  struct Rep {
    mutable uint32_t refs;
    size_t hash;
    Rep(uint32_t r, size_t h) : refs(r), hash(h) {}
  };
  struct StrRep;   // Str and Addr payloads
  struct IdRep;    // Uint160 payload (20 bytes — too big to inline)
  struct ListRep;  // ValueList payload

  union Payload {
    bool b;
    int64_t i;
    double d;
    const Rep* rep;
  };

  explicit Value(ValueType t) : tag_(t) { u_.i = 0; }

  static bool IsHeap(ValueType t) {
    return static_cast<uint8_t>(t) >= static_cast<uint8_t>(ValueType::kStr);
  }
  void Release() {
    if (IsHeap(tag_) && --u_.rep->refs == 0) {
      Destroy();
    }
  }
  void Destroy();  // deletes u_.rep through its concrete type

  const StrRep* str_rep() const;
  const IdRep* id_rep() const;
  const ListRep* list_rep() const;

  Payload u_;
  ValueType tag_;
};

static_assert(sizeof(Value) == 16, "Value must stay a 16-byte tagged union");

// Frees the calling thread's IdRep recycling pool. Simulator worker
// threads call this before exiting so per-thread pools don't outlive their
// thread as leaks; the pool is recreated lazily if the thread allocates
// another Id afterwards. The main thread never needs to call it.
void DrainThreadIdRepPool();

// ValueVecHash's fold, one element at a time: a key read in place from a
// row (src/table's KeyView) hashes exactly like the vector it stands for.
inline constexpr size_t kValueVecHashSeed = 0xCBF29CE4u;
inline size_t ValueVecHashStep(size_t h, const Value& v) {
  return h * 1099511628211ull + v.HashValue();
}

// Hash functor for use in unordered containers keyed by Value vectors.
struct ValueVecHash {
  size_t operator()(const std::vector<Value>& vs) const;
};
struct ValueVecEq {
  bool operator()(const std::vector<Value>& a, const std::vector<Value>& b) const;
};

}  // namespace p2

#endif  // P2_RUNTIME_VALUE_H_
