#include "src/harness/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace p2 {

void Cdf::Sort() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Cdf::Mean() const {
  if (values_.empty()) {
    return 0;
  }
  double s = 0;
  for (double v : values_) {
    s += v;
  }
  return s / static_cast<double>(values_.size());
}

double Cdf::Quantile(double q) const {
  if (values_.empty()) {
    return 0;
  }
  Sort();
  // Clamp q into [0,1]: q < 0 would turn into a huge size_t below and q > 1
  // would index past the end. A single sample is every quantile of itself.
  if (!(q > 0)) {
    return values_.front();
  }
  if (q >= 1) {
    return values_.back();
  }
  double pos = q * static_cast<double>(values_.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values_.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values_[lo] * (1 - frac) + values_[hi] * frac;
}

double Cdf::FractionBelow(double x) const {
  if (values_.empty()) {
    return 0;
  }
  Sort();
  auto it = std::upper_bound(values_.begin(), values_.end(), x);
  return static_cast<double>(it - values_.begin()) / static_cast<double>(values_.size());
}

std::vector<std::pair<double, double>> Cdf::Points(size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (values_.empty() || points == 0) {
    return out;
  }
  Sort();
  for (size_t i = 0; i < points; ++i) {
    double q = static_cast<double>(i) / static_cast<double>(points - 1 == 0 ? 1 : points - 1);
    out.emplace_back(Quantile(q), q);
  }
  return out;
}

Histogram::Histogram(double lo, double hi, size_t buckets)
    // Degenerate shapes must not poison Add: zero buckets would divide by
    // zero here and underflow counts_.size()-1 there, and hi <= lo would
    // make every pos NaN or negative. Clamp to one bucket of unit width.
    : lo_(lo),
      width_(hi > lo && buckets > 0 ? (hi - lo) / static_cast<double>(buckets) : 1.0),
      counts_(buckets > 0 ? buckets : 1, 0) {}

void Histogram::Add(double v) {
  double pos = (v - lo_) / width_;
  size_t b;
  if (!(pos >= 0)) {
    b = 0;  // below range — or NaN, which every comparison rejects
  } else if (pos >= static_cast<double>(counts_.size())) {
    b = counts_.size() - 1;  // above range: clamp into the last bucket
  } else {
    b = static_cast<size_t>(pos);
  }
  counts_[b] += 1;
  total_ += 1;
  sum_ += v;
}

std::vector<std::pair<double, double>> Histogram::Frequencies() const {
  std::vector<std::pair<double, double>> out;
  for (size_t i = 0; i < counts_.size(); ++i) {
    double freq = total_ == 0 ? 0
                              : static_cast<double>(counts_[i]) / static_cast<double>(total_);
    out.emplace_back(lo_ + width_ * static_cast<double>(i), freq);
  }
  return out;
}

double RateSampler::Sample(double now_s, double cumulative_bytes) {
  if (!primed_) {
    primed_ = true;
    last_t_ = now_s;
    last_v_ = cumulative_bytes;
    return 0;
  }
  double dt = now_s - last_t_;
  double dv = cumulative_bytes - last_v_;
  last_t_ = now_s;
  last_v_ = cumulative_bytes;
  return dt <= 0 ? 0 : dv / dt;
}

void ReliableChannelStats::MergeFrom(const ReliableChannelStats& o) {
  data_frames_sent += o.data_frames_sent;
  retransmits += o.retransmits;
  retransmit_bytes += o.retransmit_bytes;
  timeouts += o.timeouts;
  fast_retransmits += o.fast_retransmits;
  acks_sent += o.acks_sent;
  acks_received += o.acks_received;
  duplicates_received += o.duplicates_received;
  queue_drops += o.queue_drops;
  queue_high_watermark = std::max(queue_high_watermark, o.queue_high_watermark);
  expired += o.expired;
  reorder_drops += o.reorder_drops;
  stream_resets += o.stream_resets;
  bad_frames += o.bad_frames;
  rtt_samples += o.rtt_samples;
  srtt_sum_s += o.srtt_sum_s;
  srtt_count += o.srtt_count;
  cwnd_sum += o.cwnd_sum;
  cwnd_count += o.cwnd_count;
}

std::string ReliableChannelStats::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "data %llu retx %llu (timeouts %llu, fast %llu) srtt %.0fms "
                "cwnd %.1f qdrops %llu qmax %llu expired %llu dups %llu "
                "resets %llu",
                static_cast<unsigned long long>(data_frames_sent),
                static_cast<unsigned long long>(retransmits),
                static_cast<unsigned long long>(timeouts),
                static_cast<unsigned long long>(fast_retransmits),
                MeanSrttS() * 1000.0, MeanCwnd(),
                static_cast<unsigned long long>(queue_drops),
                static_cast<unsigned long long>(queue_high_watermark),
                static_cast<unsigned long long>(expired),
                static_cast<unsigned long long>(duplicates_received),
                static_cast<unsigned long long>(stream_resets));
  return buf;
}

std::string FormatRow(const std::vector<std::string>& cells, size_t width) {
  std::string out;
  for (const std::string& c : cells) {
    std::string cell = c;
    if (cell.size() < width) {
      cell.append(width - cell.size(), ' ');
    }
    out += cell;
  }
  return out;
}

}  // namespace p2
