#include "src/runtime/schema.h"

#include <atomic>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "src/runtime/logging.h"

namespace p2 {
namespace {

// id -> spelling is published in segments of doubling size, so a reader
// finds any id in two loads without a lock: segment s holds the
// kFirstSegment << s ids from kFirstSegment * (2^s - 1) on. 27 segments
// cover every 32-bit id; a segment is allocated once and never moves.
constexpr size_t kFirstSegment = 64;
constexpr size_t kSegments = 27;

using NameSlot = std::atomic<const std::string*>;

// The segment holding `id`, and its slot there.
size_t SegmentOf(SchemaId id, size_t* offset) {
  const uint64_t group = id / kFirstSegment + 1;  // in [2^s, 2^(s+1))
  const size_t s = static_cast<size_t>(63 - __builtin_clzll(group));
  *offset = id - kFirstSegment * ((size_t{1} << s) - 1);
  return s;
}

struct AtomTable {
  // Guards `names` and `ids`. Shard threads only ever hit the shared
  // (FindSchema, intern fast path) or lock-free (SchemaName, SchemaCount)
  // paths in steady state, since every schema is interned at plan/install
  // time on the coordinator thread; the exclusive lock is taken only on a
  // first-sight intern.
  std::shared_mutex mu;
  // deque: references to stored names stay stable as the table grows.
  std::deque<std::string> names;
  // Keys view into `names`, so each spelling is stored exactly once.
  std::unordered_map<std::string_view, SchemaId> ids;
  // Lock-free id -> name: an interner stores the spelling, then publishes
  // its address (release); a reader's acquire load sees the whole string.
  std::atomic<NameSlot*> segments[kSegments] = {};
  std::atomic<size_t> count{0};
};

AtomTable& Atoms() {
  static AtomTable* table = new AtomTable();  // leaked: process lifetime
  return *table;
}

}  // namespace

SchemaId InternSchema(std::string_view name) {
  AtomTable& t = Atoms();
  {
    std::shared_lock<std::shared_mutex> lock(t.mu);
    auto it = t.ids.find(name);
    if (it != t.ids.end()) {
      return it->second;
    }
  }
  std::unique_lock<std::shared_mutex> lock(t.mu);
  auto it = t.ids.find(name);  // raced with another interner?
  if (it != t.ids.end()) {
    return it->second;
  }
  P2_CHECK(t.names.size() < kInvalidSchema);
  SchemaId id = static_cast<SchemaId>(t.names.size());
  t.names.emplace_back(name);
  t.ids.emplace(std::string_view(t.names.back()), id);
  size_t offset;
  size_t s = SegmentOf(id, &offset);
  NameSlot* segment = t.segments[s].load(std::memory_order_relaxed);  // writers hold mu
  if (segment == nullptr) {
    segment = new NameSlot[kFirstSegment << s]();  // leaked with the table
    t.segments[s].store(segment, std::memory_order_release);
  }
  segment[offset].store(&t.names.back(), std::memory_order_release);
  t.count.store(t.names.size(), std::memory_order_release);
  return id;
}

SchemaId FindSchema(std::string_view name) {
  AtomTable& t = Atoms();
  std::shared_lock<std::shared_mutex> lock(t.mu);
  auto it = t.ids.find(name);
  return it == t.ids.end() ? kInvalidSchema : it->second;
}

const std::string& SchemaName(SchemaId id) {
  AtomTable& t = Atoms();
  size_t offset;
  size_t s = SegmentOf(id, &offset);
  const NameSlot* segment = s < kSegments ? t.segments[s].load(std::memory_order_acquire)
                                          : nullptr;
  const std::string* name =
      segment == nullptr ? nullptr : segment[offset].load(std::memory_order_acquire);
  P2_CHECK(name != nullptr);
  return *name;
}

size_t SchemaCount() {
  return Atoms().count.load(std::memory_order_acquire);
}

}  // namespace p2
