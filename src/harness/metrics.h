// Measurement utilities for the evaluation harness: empirical CDFs,
// bucketed histograms, and windowed bandwidth sampling.
#ifndef P2_HARNESS_METRICS_H_
#define P2_HARNESS_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace p2 {

// Collects samples and answers distribution queries (Figures 3(iii),
// 4(ii), 4(iii) are CDFs of this kind).
class Cdf {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t count() const { return values_.size(); }
  double Mean() const;
  // q in [0,1]; empty CDF returns 0.
  double Quantile(double q) const;
  // Fraction of samples <= x.
  double FractionBelow(double x) const;
  // `points` evenly spaced (value, cumulative fraction) pairs for printing.
  std::vector<std::pair<double, double>> Points(size_t points) const;

 private:
  void Sort() const;
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

// Fixed-width bucket histogram (Figure 3(i) hop-count frequencies).
class Histogram {
 public:
  Histogram(double lo, double hi, size_t buckets);
  void Add(double v);
  size_t total() const { return total_; }
  double Mean() const { return total_ == 0 ? 0 : sum_ / static_cast<double>(total_); }
  // (bucket lower edge, frequency) pairs; frequencies sum to 1.
  std::vector<std::pair<double, double>> Frequencies() const;

 private:
  double lo_;
  double width_;
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
  double sum_ = 0;
};

// Differencing sampler for cumulative byte counters: feed absolute totals,
// get per-window rates.
class RateSampler {
 public:
  // Returns bytes/second since the previous sample (0 on the first call).
  double Sample(double now_s, double cumulative_bytes);

 private:
  bool primed_ = false;
  double last_t_ = 0;
  double last_v_ = 0;
};

// Datagram send-failure counters, fed by the UDP transport's ::sendto
// result checking. Failed sends never reach the wire, so they are counted
// here instead of in TrafficStats' bandwidth figures.
// Each instance is written by exactly one endpoint on one event-loop
// thread; fleet-level totals are produced by an explicit MergeFrom pass,
// never by sharing a counter between writers.
struct SendFailureCounters {
  uint64_t oversize = 0;      // EMSGSIZE: datagram too large for the stack
  uint64_t transient = 0;     // EAGAIN/EWOULDBLOCK/ENOBUFS/EINTR/ECONNREFUSED
  uint64_t other = 0;         // unexpected errno values
  uint64_t short_writes = 0;  // kernel accepted fewer bytes than the datagram
  uint64_t total() const { return oversize + transient + other + short_writes; }
  void MergeFrom(const SendFailureCounters& o) {
    oversize += o.oversize;
    transient += o.transient;
    other += o.other;
    short_writes += o.short_writes;
  }
};

// Cumulative counters for one ReliableChannel (src/net/stack/), summed
// over its per-destination state. Mergeable so the harness can aggregate a
// whole fleet (including channels of already-churned-out nodes).
struct ReliableChannelStats {
  uint64_t data_frames_sent = 0;     // first transmissions
  uint64_t retransmits = 0;          // RTO + fast retransmissions
  uint64_t retransmit_bytes = 0;     // payload bytes retransmitted
  uint64_t timeouts = 0;             // RTO expirations
  uint64_t fast_retransmits = 0;     // dup-ACK-triggered resends
  uint64_t acks_sent = 0;            // pure ACK frames (piggybacks excluded)
  uint64_t acks_received = 0;        // frames carrying ack information
  uint64_t duplicates_received = 0;  // already-seen DATA frames
  uint64_t queue_drops = 0;          // bounded send-queue overflow
  uint64_t queue_high_watermark = 0; // max across per-destination queues
  uint64_t expired = 0;              // frames dropped after max_retries
  uint64_t reorder_drops = 0;        // receive reorder window overflow
  uint64_t stream_resets = 0;        // send-stream renumbers (peer restarts)
  uint64_t bad_frames = 0;           // malformed stack frames dropped
  uint64_t rtt_samples = 0;
  // Sums over destinations with at least one state update; read them
  // through MeanSrttS/MeanCwnd.
  double srtt_sum_s = 0;
  uint64_t srtt_count = 0;
  double cwnd_sum = 0;
  uint64_t cwnd_count = 0;

  double MeanSrttS() const {
    return srtt_count == 0 ? 0 : srtt_sum_s / static_cast<double>(srtt_count);
  }
  double MeanCwnd() const {
    return cwnd_count == 0 ? 0 : cwnd_sum / static_cast<double>(cwnd_count);
  }
  void MergeFrom(const ReliableChannelStats& o);
  // One-line human-readable rendering for scenario summaries.
  std::string Summary() const;
};

// Renders a fixed-width ASCII table row (benchmark output helper).
std::string FormatRow(const std::vector<std::string>& cells, size_t width = 14);

}  // namespace p2

#endif  // P2_HARNESS_METRICS_H_
