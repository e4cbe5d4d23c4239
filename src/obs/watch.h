// OverLog `watch(pred)` support (paper §7: tuple-level tracing as a
// language feature, not a debugger bolted on).
//
// The planner puts a tap at every place that produces a watched predicate
// (the tail of each rule strand deriving it, table-aggregate outputs) and
// subscribes to its arrivals, so each tuple is logged with the node's
// virtual timestamp, its address, the tap point and the producing rule's
// chain label. Output goes through one process-wide sink: stderr by
// default, redirectable for golden tests and the CLI.
#ifndef P2_OBS_WATCH_H_
#define P2_OBS_WATCH_H_

#include <functional>
#include <string>

#include "src/runtime/tuple.h"

namespace p2 {
namespace obs {

using WatchSinkFn = std::function<void(const std::string& line)>;

// Replaces the process-wide watch sink; an empty function restores the
// stderr default. Single-threaded setup only (tests, CLI startup).
void SetWatchSink(WatchSinkFn fn);

// Sends one already-formatted line to the active sink.
void EmitWatch(const std::string& line);

// "watch t=<vt> node=<addr> point=<point> label=<label> <tuple>" — virtual
// time, so the line stream is deterministic for a fixed seed.
std::string FormatWatchLine(double vt, const std::string& node, const char* point,
                            const std::string& label, const Tuple& t);

}  // namespace obs
}  // namespace p2

#endif  // P2_OBS_WATCH_H_
