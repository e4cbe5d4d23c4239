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
#ifndef P2_RUNTIME_TUPLE_H_
#define P2_RUNTIME_TUPLE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/runtime/schema.h"
#include "src/runtime/value.h"

namespace p2 {

class Tuple;
using TuplePtr = std::shared_ptr<const Tuple>;

class Tuple {
 public:
  Tuple(std::string_view name, std::vector<Value> fields)
      : Tuple(InternSchema(name), std::move(fields)) {}
  Tuple(SchemaId schema, std::vector<Value> fields)
      : schema_(schema), fields_(std::move(fields)) {}

  static TuplePtr Make(std::string_view name, std::vector<Value> fields) {
    return std::make_shared<const Tuple>(name, std::move(fields));
  }
  static TuplePtr Make(SchemaId schema, std::vector<Value> fields) {
    return std::make_shared<const Tuple>(schema, std::move(fields));
  }

  SchemaId schema() const { return schema_; }
  const std::string& name() const { return SchemaName(schema_); }
  size_t size() const { return fields_.size(); }
  const Value& field(size_t i) const { return fields_[i]; }
  const std::vector<Value>& fields() const { return fields_; }

  // By OverLog convention the first field of every tuple carries the
  // location specifier (the address the tuple lives at / is destined for).
  const Value& locspec() const { return fields_[0]; }

  // Projects the key columns (0-based positions) out of this tuple.
  std::vector<Value> KeyOf(const std::vector<size_t>& positions) const;

  // Content equality; short-circuits on identity, schema and arity.
  bool SameAs(const Tuple& o) const;

  std::string ToString() const;

 private:
  SchemaId schema_;
  std::vector<Value> fields_;
};

}  // namespace p2

#endif  // P2_RUNTIME_TUPLE_H_
