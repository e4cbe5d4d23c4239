#include "src/runtime/tuple.h"

namespace p2 {

std::vector<Value> Tuple::KeyOf(const std::vector<size_t>& positions) const {
  std::vector<Value> key;
  key.reserve(positions.size());
  for (size_t p : positions) {
    key.push_back(p < fields_.size() ? fields_[p] : Value::Null());
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
  if (schema_ != o.schema_ || fields_.size() != o.fields_.size()) {
    return false;
  }
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i] != o.fields_[i]) {
      return false;
    }
  }
  return true;
}

std::string Tuple::ToString() const {
  std::string out = name() + "(";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += fields_[i].ToString();
  }
  return out + ")";
}

}  // namespace p2
