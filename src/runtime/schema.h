// Global schema (tuple-name) interning.
//
// Every tuple name — "lookup", "succ", "finger", ... — is interned once
// into a small dense integer SchemaId. All hot-path dispatch (demux jump
// tables, node-level table/watcher routing, tuple identity checks) works on
// SchemaIds; the string survives only at the edges (parser, wire format,
// logging). This is the rule-engine "constraint store indexing" move: name
// dispatch becomes an array index instead of a string hash + compare.
//
// The atom table is process-global and append-only: ids are dense
// (0..SchemaCount()-1), never reused, and the returned name references are
// stable for the process lifetime. Unlike per-node runtime state (which is
// confined to one simulator shard), the atom table is shared by every
// shard thread. Because names only append, id -> name (SchemaName, on
// every datagram a node sends) reads published pointers without a lock;
// name -> id lookups take a shared lock (the steady state — all names are
// interned at plan time), and interning a new spelling takes the
// exclusive lock.
#ifndef P2_RUNTIME_SCHEMA_H_
#define P2_RUNTIME_SCHEMA_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace p2 {

using SchemaId = uint32_t;
inline constexpr SchemaId kInvalidSchema = 0xFFFFFFFFu;

// Returns the id for `name`, creating one on first sight.
SchemaId InternSchema(std::string_view name);

// Returns the id for `name` or kInvalidSchema if it was never interned.
// Never allocates: suitable for probing with untrusted names.
SchemaId FindSchema(std::string_view name);

// The interned spelling of `id`. `id` must come from InternSchema.
const std::string& SchemaName(SchemaId id);

// Number of distinct names interned so far (ids are 0..count-1). Dispatch
// tables sized by this value stay valid as new names only append.
size_t SchemaCount();

}  // namespace p2

#endif  // P2_RUNTIME_SCHEMA_H_
