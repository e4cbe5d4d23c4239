#include "src/obs/channel_stats.h"

namespace p2 {
namespace obs {

void ChannelStatsPool::Retire(const ReliableChannelStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  retired_.MergeFrom(stats);
}

void ChannelStatsPool::RetireSendFailures(const SendFailureCounters& failures) {
  std::lock_guard<std::mutex> lock(mu_);
  retired_failures_.MergeFrom(failures);
}

void ChannelStatsPool::SetLiveSource(LiveReliableFn reliable, LiveFailuresFn failures) {
  std::lock_guard<std::mutex> lock(mu_);
  live_reliable_ = std::move(reliable);
  live_failures_ = std::move(failures);
}

ReliableChannelStats ChannelStatsPool::TotalReliable() const {
  ReliableChannelStats total;
  LiveReliableFn live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    total = retired_;
    live = live_reliable_;
  }
  if (live) {
    live(&total);
  }
  return total;
}

SendFailureCounters ChannelStatsPool::TotalSendFailures() const {
  SendFailureCounters total;
  LiveFailuresFn live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    total = retired_failures_;
    live = live_failures_;
  }
  if (live) {
    live(&total);
  }
  return total;
}

void ChannelStatsPool::Collect(Snapshot* snap) const {
  ReliableChannelStats r = TotalReliable();
  SendFailureCounters f = TotalSendFailures();
  auto& c = snap->counters;
  c["p2_channel_data_frames_sent_total"] += r.data_frames_sent;
  c["p2_channel_retransmits_total"] += r.retransmits;
  c["p2_channel_retransmit_bytes_total"] += r.retransmit_bytes;
  c["p2_channel_timeouts_total"] += r.timeouts;
  c["p2_channel_fast_retransmits_total"] += r.fast_retransmits;
  c["p2_channel_acks_sent_total"] += r.acks_sent;
  c["p2_channel_acks_received_total"] += r.acks_received;
  c["p2_channel_duplicates_received_total"] += r.duplicates_received;
  c["p2_channel_queue_drops_total"] += r.queue_drops;
  c["p2_channel_expired_total"] += r.expired;
  c["p2_channel_reorder_drops_total"] += r.reorder_drops;
  c["p2_channel_stream_resets_total"] += r.stream_resets;
  c["p2_channel_bad_frames_total"] += r.bad_frames;
  c["p2_send_fail_oversize_total"] += f.oversize;
  c["p2_send_fail_transient_total"] += f.transient;
  c["p2_send_fail_other_total"] += f.other;
  c["p2_send_fail_short_writes_total"] += f.short_writes;
  // High watermark is a max, not a sum — export as a gauge (max across
  // collectors would need per-key semantics; one pool per snapshot in
  // practice, so assignment is correct here).
  int64_t hwm = static_cast<int64_t>(r.queue_high_watermark);
  int64_t& slot = snap->gauges["p2_channel_queue_high_watermark"];
  if (hwm > slot) {
    slot = hwm;
  }
}

}  // namespace obs
}  // namespace p2
