// ChannelStatsPool: one aggregation path for reliable-channel and
// send-failure counters across a fleet, including channels whose nodes have
// already been killed or churned out.
//
// The pool owns the retired totals and takes a callback that folds in
// whatever is currently live, so "total fleet stats" is one call — and the
// same totals export into a metrics Registry snapshot as counters.
// ScenarioNet keeps one per fleet.
#ifndef P2_OBS_CHANNEL_STATS_H_
#define P2_OBS_CHANNEL_STATS_H_

#include <functional>
#include <mutex>

#include "src/harness/metrics.h"
#include "src/obs/registry.h"

namespace p2 {
namespace obs {

class ChannelStatsPool {
 public:
  // Folds a dying channel's final counters into the retired totals. Call
  // exactly once per channel, before destroying it.
  void Retire(const ReliableChannelStats& stats);
  void RetireSendFailures(const SendFailureCounters& failures);

  // The live-side halves of the totals: callbacks that MergeFrom every
  // currently-alive channel into the passed accumulator. Replaceable as the
  // owning harness's population structure changes.
  using LiveReliableFn = std::function<void(ReliableChannelStats*)>;
  using LiveFailuresFn = std::function<void(SendFailureCounters*)>;
  void SetLiveSource(LiveReliableFn reliable, LiveFailuresFn failures);

  // Retired + live, at this instant.
  ReliableChannelStats TotalReliable() const;
  SendFailureCounters TotalSendFailures() const;

  // Exports the totals into a snapshot as p2_channel_* / p2_send_fail_*
  // counters. Shaped as a Registry::Collector:
  //   registry.AddCollector([pool](Snapshot* s) { pool->Collect(s); });
  void Collect(Snapshot* snap) const;

 private:
  mutable std::mutex mu_;
  ReliableChannelStats retired_;
  SendFailureCounters retired_failures_;
  LiveReliableFn live_reliable_;
  LiveFailuresFn live_failures_;
};

}  // namespace obs
}  // namespace p2

#endif  // P2_OBS_CHANNEL_STATS_H_
