// Per-head-row derivation counts for the counting planner (the classic
// counting algorithm from the incremental-datalog literature).
//
// Every counted rule chain that derives a row into a head table increments
// the count for that row's primary key; every counted remove chain
// decrements it. The head row is deleted only when its count reaches zero,
// so a row with several live supports — e.g. Chord's pingNode derived from
// multiple succ entries — survives the retraction of any one of them.
// Counts are keyed by head primary key, shared across every rule deriving
// the same head, exactly like the table's own replace-by-key semantics.
//
// TTL expiry of a *support* decrements in "non-retracting" mode: the count
// stays exact (a later re-insert of the support re-increments from the
// true value) but expiry never deletes the head row — derived soft state
// ages out on its own TTL, preserving the planner's expiry contract.
// Removal of the head row itself (any cause) drops the count entry.
//
// Keys are read in place (KeyView): an entry keeps the head tuple it was
// first counted for, and its key reads that tuple's key columns, so
// neither Inc nor Dec builds a key vector.
#ifndef P2_TABLE_SUPPORT_COUNTS_H_
#define P2_TABLE_SUPPORT_COUNTS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/runtime/tuple.h"
#include "src/table/key_view.h"

namespace p2 {

class Table;

class SupportCounts {
 public:
  // Registers a cleanup listener on `head`: any removal of a head row
  // erases its count entry, so counts can never outlive rows.
  explicit SupportCounts(Table* head);

  SupportCounts(const SupportCounts&) = delete;
  SupportCounts& operator=(const SupportCounts&) = delete;

  // A counted derivation of `head_row` happened. A new entry keeps a
  // handle on `head_row`.
  void Inc(const Tuple& head_row);

  // A counted derivation of `head_row` was retracted. Decrements; when
  // `retract` is true and the count reaches zero, deletes the head row.
  // With `retract` false (support expiry) the count still drops — keeping
  // it equal to the number of live supports — but the row is left to age
  // out by TTL.
  void Dec(const Tuple& head_row, bool retract);

  // Current count for a row's key (0 when untracked). Test/debug surface.
  uint64_t Count(const Tuple& head_row) const;
  size_t entries() const { return counts_.size(); }

 private:
  struct Entry {
    TuplePtr key_row;  // what the entry's key reads
    uint64_t count = 0;
  };

  KeyView KeyOf(const Tuple& t) const { return KeyView(t, key_cols_); }

  Table* head_;
  const std::vector<size_t>* key_cols_;  // the head's key; null: whole tuple
  std::unordered_map<KeyView, Entry, KeyView::Hasher> counts_;
};

}  // namespace p2

#endif  // P2_TABLE_SUPPORT_COUNTS_H_
