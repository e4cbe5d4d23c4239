#include "src/harness/faults.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "src/net/stack/frame.h"
#include "src/net/wire.h"
#include "src/runtime/logging.h"

namespace p2 {

namespace {

// splitmix64 finalizer: per-slot selection must be a pure hash, not a
// stream, so slot k's fate is independent of how many slots exist.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

bool HashSelect(uint64_t seed, uint64_t salt, size_t slot, double fraction) {
  if (fraction <= 0) {
    return false;
  }
  if (fraction >= 1) {
    return true;
  }
  uint64_t h = Mix64(seed ^ salt ^ (static_cast<uint64_t>(slot) + 1) * 0xD6E8FEB86659FD93ULL);
  return static_cast<double>(h) / 18446744073709551616.0 < fraction;
}

// Splits "a:b:c" on ':'. Returns false when the field count mismatches.
bool SplitColon(const std::string& spec, size_t want, std::vector<std::string>* out) {
  out->clear();
  size_t start = 0;
  while (start <= spec.size()) {
    size_t colon = spec.find(':', start);
    size_t end = colon == std::string::npos ? spec.size() : colon;
    out->push_back(spec.substr(start, end - start));
    if (colon == std::string::npos) {
      break;
    }
    start = colon + 1;
  }
  return out->size() == want;
}

bool ParseDomainIndex(const std::string& s, size_t* out) {
  uint64_t v;
  if (!ParseNonNegInt(s, 4096, &v)) {
    return false;
  }
  *out = static_cast<size_t>(v);
  return true;
}

// Domain set: comma list of indices or inclusive ranges, e.g. "0-2,5".
bool ParseDomainSet(const std::string& s, std::vector<size_t>* out) {
  out->clear();
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    size_t end = comma == std::string::npos ? s.size() : comma;
    std::string item = s.substr(start, end - start);
    size_t dash = item.find('-');
    if (dash == std::string::npos) {
      size_t d;
      if (!ParseDomainIndex(item, &d)) {
        return false;
      }
      out->push_back(d);
    } else {
      size_t lo, hi;
      if (!ParseDomainIndex(item.substr(0, dash), &lo) ||
          !ParseDomainIndex(item.substr(dash + 1), &hi) || hi < lo) {
        return false;
      }
      for (size_t d = lo; d <= hi; ++d) {
        out->push_back(d);
      }
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  return !out->empty();
}

// Does the (possibly corrupted) datagram still survive the receive-side
// parse chain? Mirrors P2Node::OnPacket / ReliableChannel: 0xD5 frames go
// through the strict stack decoder (and their DATA payload through the
// tuple unframer); everything else is parsed as a plain framed tuple.
bool StillParses(const std::vector<uint8_t>& bytes) {
  if (LooksLikeStackFrame(bytes)) {
    std::optional<StackFrame> f = DecodeStackFrame(bytes);
    if (!f.has_value()) {
      return false;
    }
    if (!f->has_data) {
      return true;  // pure ACK: header fields damaged but well-formed
    }
    return UnframeTuple(f->payload).has_value();
  }
  return UnframeTuple(bytes).has_value();
}

}  // namespace

bool ParseNonNegDouble(const std::string& s, double* out) {
  // strtod alone would skip leading blanks and accept "nan" and "inf".
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (*end != '\0' || !std::isfinite(v) || v < 0) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseNonNegInt(const std::string& s, uint64_t max, uint64_t* out) {
  // strtoull alone would skip leading blanks and wrap a leading '-'.
  if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE || v > max) {
    return false;
  }
  *out = v;
  return true;
}

bool PartitionSpec::Contains(size_t domain) const {
  return std::find(domains.begin(), domains.end(), domain) != domains.end();
}

bool FaultPlan::any() const {
  return !asym_loss.empty() || !partitions.empty() || !latency_spikes.empty() ||
         (slow_fraction > 0 && slow_factor > 1) || corrupt_rate > 0 ||
         byzantine_fraction > 0;
}

double FaultPlan::LastTransitionS() const {
  double last = 0;
  for (const PartitionSpec& p : partitions) {
    last = std::max(last, p.start + p.duration);
  }
  for (const LatencySpikeSpec& s : latency_spikes) {
    last = std::max(last, s.start + s.duration);
  }
  return last;
}

bool ParseAsymLossSpec(const std::string& spec, AsymLossRule* out) {
  std::vector<std::string> f;
  AsymLossRule r;
  if (!SplitColon(spec, 3, &f) || !ParseDomainIndex(f[0], &r.src_domain) ||
      !ParseDomainIndex(f[1], &r.dst_domain) || !ParseNonNegDouble(f[2], &r.rate) ||
      r.rate > 1) {
    return false;
  }
  *out = r;
  return true;
}

bool ParsePartitionSpec(const std::string& spec, PartitionSpec* out) {
  std::vector<std::string> f;
  PartitionSpec p;
  if (!SplitColon(spec, 3, &f) || !ParseNonNegDouble(f[0], &p.start) ||
      !ParseNonNegDouble(f[1], &p.duration) || p.duration <= 0 ||
      !ParseDomainSet(f[2], &p.domains)) {
    return false;
  }
  *out = p;
  return true;
}

bool ParseLatencySpikeSpec(const std::string& spec, LatencySpikeSpec* out) {
  std::vector<std::string> f;
  LatencySpikeSpec s;
  if (!SplitColon(spec, 4, &f) || !ParseNonNegDouble(f[0], &s.start) ||
      !ParseNonNegDouble(f[1], &s.duration) || s.duration <= 0 ||
      !ParseDomainIndex(f[2], &s.domain) || !ParseNonNegDouble(f[3], &s.factor) ||
      s.factor < 1) {
    return false;
  }
  *out = s;
  return true;
}

bool ParseSlowNodesSpec(const std::string& spec, double* fraction, double* factor) {
  std::vector<std::string> f;
  double frac, fac;
  if (!SplitColon(spec, 2, &f) || !ParseNonNegDouble(f[0], &frac) || frac > 1 ||
      !ParseNonNegDouble(f[1], &fac) || fac < 1) {
    return false;
  }
  *fraction = frac;
  *factor = fac;
  return true;
}

FaultInjector::FaultInjector(FaultPlan plan, uint64_t seed)
    : plan_(std::move(plan)), seed_(seed) {}

void FaultInjector::BindObs(obs::Registry* registry) {
  if (registry == nullptr) {
    return;
  }
  size_t lanes = registry->lanes();
  for (size_t lane = 0; lane < lanes; ++lane) {
    asym_dropped_.push_back(registry->GetCounter(lane, "p2_fault_asym_dropped_total"));
    partition_dropped_.push_back(
        registry->GetCounter(lane, "p2_fault_partition_dropped_total"));
    spike_delayed_.push_back(registry->GetCounter(lane, "p2_fault_spike_delayed_total"));
    corrupt_injected_.push_back(registry->GetCounter(lane, "p2_corrupt_injected_total"));
    corrupt_dropped_.push_back(registry->GetCounter(lane, "p2_corrupt_dropped_total"));
    corrupt_passed_.push_back(registry->GetCounter(lane, "p2_corrupt_passed_total"));
  }
  partition_gauge_ = registry->GetGauge(lanes - 1, "p2_fault_partition_active");
}

void FaultInjector::Arm(double base_time) {
  armed_ = true;
  base_time_ = base_time;
}

void FaultInjector::ScheduleTransitions(Executor* control) {
  if (!armed_ || control == nullptr) {
    return;
  }
  for (const PartitionSpec& p : plan_.partitions) {
    control->ScheduleAfter(p.start, [this, p]() {
      P2_LOG(LogLevel::kInfo, "fault: partition of %zu domain(s) formed (heals in %.1fs)",
             p.domains.size(), p.duration);
      if (partition_gauge_ != nullptr) {
        partition_gauge_->Add(1);
      }
    });
    control->ScheduleAfter(p.start + p.duration, [this]() {
      P2_LOG(LogLevel::kInfo, "fault: partition healed");
      if (partition_gauge_ != nullptr) {
        partition_gauge_->Add(-1);
      }
    });
  }
  for (const LatencySpikeSpec& s : plan_.latency_spikes) {
    control->ScheduleAfter(s.start, [s]() {
      P2_LOG(LogLevel::kInfo, "fault: latency spike x%.1f on domain %zu for %.1fs",
             s.factor, s.domain, s.duration);
    });
  }
}

bool FaultInjector::PartitionActive(double now) const {
  if (!armed_) {
    return false;
  }
  double t = now - base_time_;
  for (const PartitionSpec& p : plan_.partitions) {
    if (t >= p.start && t < p.start + p.duration) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::PartitionSevers(double now, size_t domain_a, size_t domain_b) const {
  if (!armed_) {
    return false;
  }
  double t = now - base_time_;
  for (const PartitionSpec& p : plan_.partitions) {
    if (t >= p.start && t < p.start + p.duration &&
        p.Contains(domain_a) != p.Contains(domain_b)) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::DropOnSend(double now, size_t src_domain, size_t dst_domain,
                               size_t lane, Rng* rng) {
  // Asymmetric loss first: the coin flip happens for every matching rule
  // regardless of the partition state, so the sender's RNG consumption
  // never depends on the (time-deterministic) partition windows.
  bool drop = false;
  for (const AsymLossRule& r : plan_.asym_loss) {
    if (r.src_domain == src_domain && r.dst_domain == dst_domain &&
        rng->CoinFlip(r.rate)) {
      drop = true;
    }
  }
  if (drop) {
    if (lane < asym_dropped_.size()) {
      asym_dropped_[lane]->Inc();
    }
    return true;
  }
  if (PartitionSevers(now, src_domain, dst_domain)) {
    if (lane < partition_dropped_.size()) {
      partition_dropped_[lane]->Inc();
    }
    return true;
  }
  return false;
}

void FaultInjector::MaybeCorrupt(double now, size_t lane, Rng* rng,
                                 std::vector<uint8_t>* bytes) {
  (void)now;
  if (plan_.corrupt_rate <= 0 || bytes->empty() || !rng->CoinFlip(plan_.corrupt_rate)) {
    return;
  }
  size_t flips = 1 + static_cast<size_t>(rng->NextBelow(3));
  for (size_t i = 0; i < flips; ++i) {
    size_t pos = static_cast<size_t>(rng->NextBelow(bytes->size()));
    uint8_t bit = static_cast<uint8_t>(1u << rng->NextBelow(8));
    (*bytes)[pos] ^= bit;
  }
  if (lane < corrupt_injected_.size()) {
    corrupt_injected_[lane]->Inc();
    if (StillParses(*bytes)) {
      corrupt_passed_[lane]->Inc();
    } else {
      corrupt_dropped_[lane]->Inc();
    }
  }
}

double FaultInjector::LatencyFactor(double now, size_t src_domain, size_t dst_domain,
                                    size_t lane) {
  if (!armed_ || plan_.latency_spikes.empty()) {
    return 1.0;
  }
  double t = now - base_time_;
  double factor = 1.0;
  for (const LatencySpikeSpec& s : plan_.latency_spikes) {
    if (t >= s.start && t < s.start + s.duration &&
        (s.domain == src_domain || s.domain == dst_domain)) {
      factor *= s.factor;
    }
  }
  if (factor > 1.0 && lane < spike_delayed_.size()) {
    spike_delayed_[lane]->Inc();
  }
  return factor;
}

bool FaultInjector::IsSlowNode(size_t slot) const {
  return plan_.slow_factor > 1 &&
         HashSelect(seed_, /*salt=*/0x510BULL, slot, plan_.slow_fraction);
}

bool FaultInjector::IsByzantineNode(size_t slot) const {
  return HashSelect(seed_, /*salt=*/0xBAD0ULL, slot, plan_.byzantine_fraction);
}

size_t FaultInjector::CountByzantine(size_t num_slots) const {
  size_t n = 0;
  for (size_t i = 0; i < num_slots; ++i) {
    n += IsByzantineNode(i) ? 1 : 0;
  }
  return n;
}

std::string ByzantineChordRules() {
  // Shape-matches L1 minus the ownership check: the node claims every key.
  return "BYZ1 lookupResults@R(R,K,N,NI,E) :- node@NI(NI,N), lookup@NI(NI,K,R,E).\n";
}

}  // namespace p2
