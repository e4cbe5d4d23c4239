#include "src/table/support_counts.h"

#include "src/table/table.h"

namespace p2 {

SupportCounts::SupportCounts(Table* head)
    : head_(head),
      key_cols_(head->spec().key_positions.empty() ? nullptr : &head->spec().key_positions) {
  // Erase the count whenever the row leaves the table — counted deletes
  // (already erased below), rule deletes, evictions and head-row expiry
  // all reset the row's derivation history along with the row.
  head_->AddTypedListener([this](const TableDelta& d) {
    if (d.kind == TableDelta::Kind::kRemove) {
      counts_.erase(KeyOf(*d.tuple));
    }
  });
}

void SupportCounts::Inc(const Tuple& head_row) {
  auto [it, fresh] = counts_.try_emplace(KeyOf(head_row));
  if (fresh) {
    it->second.key_row = TuplePtr(&head_row);
  }
  ++it->second.count;
}

void SupportCounts::Dec(const Tuple& head_row, bool retract) {
  auto it = counts_.find(KeyOf(head_row));
  if (it == counts_.end()) {
    // Untracked: the row predates counting (e.g. arrived off the wire) or
    // already aged out. Nothing to retract; soft state decays by TTL.
    return;
  }
  if (it->second.count > 1) {
    --it->second.count;
    return;
  }
  // Last support gone. Erase the entry first: DeleteMatching re-enters the
  // cleanup listener, which would otherwise look the key up again.
  counts_.erase(it);
  if (retract) {
    head_->DeleteMatching(head_row);
  }
}

uint64_t SupportCounts::Count(const Tuple& head_row) const {
  auto it = counts_.find(KeyOf(head_row));
  return it == counts_.end() ? 0 : it->second.count;
}

}  // namespace p2
