#include "src/runtime/tuple.h"

#include <new>

#include "src/runtime/logging.h"

namespace p2 {

Tuple* Tuple::Allocate(SchemaId schema, size_t n) {
  P2_CHECK(n <= UINT32_MAX);
  void* block = ::operator new(sizeof(Tuple) + n * sizeof(Value));
  Tuple* t = new (block) Tuple(schema, static_cast<uint32_t>(n));
  t->refs_ = 1;
  Value* fields = t->mutable_data();
  for (size_t i = 0; i < n; ++i) {
    new (fields + i) Value();
  }
  return t;
}

void Tuple::Free(const Tuple* t) {
  Tuple* mut = const_cast<Tuple*>(t);
  Value* fields = mut->mutable_data();
  for (size_t i = 0; i < mut->size_; ++i) {
    fields[i].~Value();
  }
  mut->~Tuple();
  ::operator delete(mut);
}

std::vector<Value> Tuple::KeyOf(const std::vector<size_t>& positions) const {
  std::vector<Value> key;
  key.reserve(positions.size());
  for (size_t p : positions) {
    key.push_back(p < size_ ? field(p) : Value::Null());
  }
  return key;
}

bool Tuple::SameAs(const Tuple& o) const {
  if (this == &o) {
    return true;
  }
  // No hash short-circuit: cross-type numeric equality (Int(1) ==
  // Double(1.0)) means equal tuples can hash differently, and a refresh
  // spuriously flagged as "changed" would churn the table indices.
  if (schema_ != o.schema_ || size_ != o.size_) {
    return false;
  }
  for (size_t i = 0; i < size_; ++i) {
    if (field(i) != o.field(i)) {
      return false;
    }
  }
  return true;
}

std::string Tuple::ToString() const {
  std::string out = name() + "(";
  for (size_t i = 0; i < size_; ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += field(i).ToString();
  }
  return out + ")";
}

}  // namespace p2
