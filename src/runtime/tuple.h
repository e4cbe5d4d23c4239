// Tuples: the unit of dataflow in P2.
//
// A tuple is an immutable named vector of Values. Tuples are created once
// and then shared by reference between dataflow elements (§3.3: "tuples in
// P2 are completely immutable once they are created ... reference-counted
// and passed between P2 elements by reference").
//
// The tuple name is interned into a SchemaId at construction: all dispatch
// (demux routing, table/watcher lookup, identity checks) compares small
// integers.
//
// Representation: one heap block per tuple — a 16-byte header (refcount,
// schema, arity) followed by the fields inline — so a tuple costs one
// allocation and a field read is one load from the header. Tuples are only
// ever made on the heap, by Make (from a vector) or Build (in place); a
// TuplePtr is an intrusive handle on the block.
//
// Shard confinement: the refcount is a plain integer, not an atomic, for
// the same reason Value reps' are. Every tuple belongs to one simulator
// shard: it is built and released by the thread that owns its node, and
// crosses between nodes only as marshaled bytes. A tuple built on the
// control timeline (a workload's injected lookups, say) is built while
// every shard is parked and handed to one node whole; the control thread
// keeps no handle on it. Never let two threads hold handles on one tuple
// at the same time.
#ifndef P2_RUNTIME_TUPLE_H_
#define P2_RUNTIME_TUPLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/runtime/schema.h"
#include "src/runtime/value.h"

namespace p2 {

class Tuple;

// An owning handle on a tuple: the subset of std::shared_ptr<const Tuple>
// the runtime uses (copy, move, get, *, ->, bool, null comparisons),
// without the control block or atomic counts. See the file comment for
// its threading contract.
class TuplePtr {
 public:
  TuplePtr() noexcept = default;
  TuplePtr(std::nullptr_t) noexcept {}  // implicit, as shared_ptr's is
  // Takes a further reference on a live tuple (handles are intrusive, so
  // any `const Tuple&` can be re-owned).
  explicit TuplePtr(const Tuple* t) noexcept;
  TuplePtr(const TuplePtr& o) noexcept : TuplePtr(o.t_) {}
  TuplePtr(TuplePtr&& o) noexcept : t_(o.t_) { o.t_ = nullptr; }
  TuplePtr& operator=(const TuplePtr& o) noexcept {
    TuplePtr(o).swap(*this);  // safe under self-assignment
    return *this;
  }
  TuplePtr& operator=(TuplePtr&& o) noexcept {
    TuplePtr(std::move(o)).swap(*this);
    return *this;
  }
  ~TuplePtr() { reset(); }

  const Tuple* get() const noexcept { return t_; }
  const Tuple& operator*() const noexcept { return *t_; }
  const Tuple* operator->() const noexcept { return t_; }
  explicit operator bool() const noexcept { return t_ != nullptr; }
  void reset() noexcept;
  void swap(TuplePtr& o) noexcept { std::swap(t_, o.t_); }
  // Handles sharing the tuple (0 for null). Test/debug surface.
  uint32_t use_count() const noexcept;

  friend bool operator==(const TuplePtr& a, const TuplePtr& b) { return a.t_ == b.t_; }
  friend bool operator!=(const TuplePtr& a, const TuplePtr& b) { return a.t_ != b.t_; }
  friend bool operator==(const TuplePtr& a, std::nullptr_t) { return a.t_ == nullptr; }
  friend bool operator!=(const TuplePtr& a, std::nullptr_t) { return a.t_ != nullptr; }
  friend bool operator==(std::nullptr_t, const TuplePtr& b) { return b.t_ == nullptr; }
  friend bool operator!=(std::nullptr_t, const TuplePtr& b) { return b.t_ != nullptr; }

 private:
  friend class Tuple;
  struct Adopt {};
  TuplePtr(const Tuple* t, Adopt) noexcept : t_(t) {}  // takes over a reference

  const Tuple* t_ = nullptr;
};

// A read-only view of a tuple's fields (C++17 has no std::span).
class FieldSpan {
 public:
  FieldSpan(const Value* data, size_t size) : data_(data), size_(size) {}
  const Value* begin() const { return data_; }
  const Value* end() const { return data_ + size_; }
  const Value* data() const { return data_; }
  size_t size() const { return size_; }
  const Value& operator[](size_t i) const { return data_[i]; }
  std::vector<Value> ToVector() const { return std::vector<Value>(begin(), end()); }

 private:
  const Value* data_;
  size_t size_;
};

class alignas(Value) Tuple {
 public:
  Tuple(const Tuple&) = delete;
  Tuple& operator=(const Tuple&) = delete;

  static TuplePtr Make(std::string_view name, std::vector<Value> fields) {
    return Make(InternSchema(name), std::move(fields));
  }
  // Moves the values into a new tuple; `fields`' buffer is not kept.
  static TuplePtr Make(SchemaId schema, std::vector<Value> fields) {
    return Build(schema, fields.size(), [&](Value* out) {
      std::move(fields.begin(), fields.end(), out);
    });
  }

  // Builds a tuple of `n` fields in place, with no intermediate vector:
  // `fill(Value* fields)` writes the fields, which all start Null. A fill
  // that returns bool may return false to abandon the tuple; Build then
  // frees the block, with whatever fields were written, and returns null.
  template <typename Fill>
  static TuplePtr Build(SchemaId schema, size_t n, Fill&& fill);

  SchemaId schema() const { return schema_; }
  const std::string& name() const { return SchemaName(schema_); }
  size_t size() const { return size_; }
  const Value& field(size_t i) const { return data()[i]; }
  FieldSpan fields() const { return FieldSpan(data(), size_); }

  // By OverLog convention the first field of every tuple carries the
  // location specifier (the address the tuple lives at / is destined for).
  const Value& locspec() const { return data()[0]; }

  // Projects the key columns (0-based positions) out of this tuple; a
  // position past the arity projects Null.
  std::vector<Value> KeyOf(const std::vector<size_t>& positions) const;

  // Content equality; short-circuits on identity, schema and arity.
  bool SameAs(const Tuple& o) const;

  std::string ToString() const;

 private:
  friend class TuplePtr;

  Tuple(SchemaId schema, uint32_t n) : schema_(schema), size_(n) {}
  ~Tuple() = default;

  const Value* data() const { return reinterpret_cast<const Value*>(this + 1); }
  Value* mutable_data() { return reinterpret_cast<Value*>(this + 1); }
  // A block holding the header and `n` Null fields, born with the one
  // reference that Build's handle adopts.
  static Tuple* Allocate(SchemaId schema, size_t n);
  // Destroys the fields and frees the block.
  static void Free(const Tuple* t);

  mutable uint32_t refs_ = 0;
  SchemaId schema_;
  uint32_t size_;
};

static_assert(sizeof(Tuple) % alignof(Value) == 0, "fields follow the header aligned");

template <typename Fill>
TuplePtr Tuple::Build(SchemaId schema, size_t n, Fill&& fill) {
  Tuple* t = Allocate(schema, n);
  TuplePtr owner(t, TuplePtr::Adopt{});  // frees the block if `fill` fails
  if constexpr (std::is_same_v<decltype(fill(t->mutable_data())), bool>) {
    if (!fill(t->mutable_data())) {
      return nullptr;
    }
  } else {
    fill(t->mutable_data());
  }
  return owner;
}

inline TuplePtr::TuplePtr(const Tuple* t) noexcept : t_(t) {
  if (t_ != nullptr) {
    ++t_->refs_;
  }
}

inline void TuplePtr::reset() noexcept {
  if (t_ != nullptr && --t_->refs_ == 0) {
    Tuple::Free(t_);
  }
  t_ = nullptr;
}

inline uint32_t TuplePtr::use_count() const noexcept { return t_ == nullptr ? 0 : t_->refs_; }

}  // namespace p2

#endif  // P2_RUNTIME_TUPLE_H_
