// Table keys read in place (constraint-store indexing without materialised
// keys, in the sense of Sneyers et al.'s CHR survey).
//
// A KeyView is either a row's projection onto key columns, read from the
// row's own fields, or a probe's values in column order. It hashes exactly
// like ValueVecHash over the vector it stands for and compares like
// ValueVecEq, hash first, so an index keyed on KeyViews finds exactly the
// rows a vector-keyed index would — without building a key vector on
// insert, replace, erase or probe.
//
// A view does not own what it reads. A view stored as a map key must read
// a row that outlives the entry: the entry holds that row's TuplePtr, or
// re-points the view (Rebase) at a row with an equal projection before
// the old row goes.
#ifndef P2_TABLE_KEY_VIEW_H_
#define P2_TABLE_KEY_VIEW_H_

#include <cstddef>
#include <vector>

#include "src/runtime/tuple.h"
#include "src/runtime/value.h"

namespace p2 {

class KeyView {
 public:
  // The projection of `row` onto `cols`, or the whole row when `cols` is
  // null. A column past the row's arity reads Null, as in Tuple::KeyOf.
  // `*cols` must outlive the view.
  KeyView(const Tuple& row, const std::vector<size_t>* cols)
      : fields_(row.fields().data()),
        width_(row.size()),
        cols_(cols == nullptr ? nullptr : cols->data()),
        size_(cols == nullptr ? row.size() : cols->size()) {
    Hash();
  }
  // Probe values, in key-column order.
  explicit KeyView(const std::vector<Value>& vals)
      : fields_(vals.data()), width_(vals.size()), cols_(nullptr), size_(vals.size()) {
    Hash();
  }

  size_t hash() const { return hash_; }
  const Value& operator[](size_t i) const {
    size_t c = cols_ == nullptr ? i : cols_[i];
    return c < width_ ? fields_[c] : Null();
  }

  // ValueVecEq on the projected vectors, after comparing hashes.
  bool operator==(const KeyView& o) const {
    if (hash_ != o.hash_ || size_ != o.size_) {
      return false;
    }
    for (size_t i = 0; i < size_; ++i) {
      if ((*this)[i] != o[i]) {
        return false;
      }
    }
    return true;
  }

  // Reads the same columns of `row` from now on; the key's hash stays as
  // it was. `row`'s projection must equal this key's (as on a replace by
  // primary key), so lookups are unaffected.
  void Rebase(const Tuple& row) const {
    fields_ = row.fields().data();
    width_ = row.size();
  }

  struct Hasher {
    size_t operator()(const KeyView& k) const noexcept { return k.hash_; }
  };

 private:
  static const Value& Null() {
    static const Value null;
    return null;
  }
  void Hash() {
    size_t h = kValueVecHashSeed;
    for (size_t i = 0; i < size_; ++i) {
      h = ValueVecHashStep(h, (*this)[i]);
    }
    hash_ = h;
  }

  // Mutable for Rebase: a map key is const, but what it reads may move to
  // an equal row.
  mutable const Value* fields_;
  mutable size_t width_;
  const size_t* cols_;  // null: key element i is field i
  size_t size_;
  size_t hash_ = 0;
};

}  // namespace p2

#endif  // P2_TABLE_KEY_VIEW_H_
