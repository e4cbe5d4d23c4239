#include "src/dataflow/basic_elements.h"

#include <algorithm>

#include "src/obs/registry.h"
#include "src/runtime/logging.h"

namespace p2 {

// --- InputQueue ---

InputQueue::~InputQueue() {
  if (timer_ != kInvalidTimer) {
    executor_->Cancel(timer_);
  }
}

void InputQueue::Push(int port, const TuplePtr& t) {
  P2_CHECK(port == 0);
  if (q_.size() >= capacity_) {
    ++dropped_;
    if (obs_dropped_ != nullptr) {
      obs_dropped_->Inc();
    }
    q_.pop_front();  // Shed oldest under overload; overlays are soft state.
  }
  q_.push_back(t);
  if (parked_) {
    parked_ = false;
    Arm();
  }
}

void InputQueue::Start() { Arm(); }

void InputQueue::Arm() {
  if (timer_ != kInvalidTimer) {
    return;
  }
  timer_ = executor_->ScheduleAfter(0.0, [this]() {
    timer_ = kInvalidTimer;
    Drain();
  });
}

void InputQueue::Drain() {
  batch_.clear();
  while (batch_.size() < kBatch && !q_.empty()) {
    batch_.push_back(std::move(q_.front()));
    q_.pop_front();
  }
  // Park before pushing: a tuple looped back while the batch runs then
  // schedules the next drain.
  const bool full = batch_.size() == kBatch;
  parked_ = !full;
  if (!batch_.empty()) {
    PushOutMany(0, batch_);
    batch_.clear();
  }
  if (full) {
    Arm();
  }
}

// --- DemuxByName ---

int DemuxByName::PortFor(const std::string& tuple_name) {
  SchemaId schema = InternSchema(tuple_name);
  if (schema >= routes_.size()) {
    routes_.resize(schema + 1, -1);
  }
  if (routes_[schema] >= 0) {
    return routes_[schema];
  }
  int port = next_port_++;
  routes_[schema] = port;
  return port;
}

void DemuxByName::Push(int port, const TuplePtr& t) {
  P2_CHECK(port == 0);
  int out = RouteFor(t->schema());
  if (out >= 0) {
    PushOut(out, t);
    return;
  }
  if (default_port_ >= 0) {
    PushOut(default_port_, t);
    return;
  }
  ++unroutable_;
  if (obs_unroutable_ != nullptr) {
    obs_unroutable_->Inc();
  }
}

void DemuxByName::PushMany(int port, const std::vector<TuplePtr>& ts) {
  P2_CHECK(port == 0);
  if (batch_buckets_.size() < static_cast<size_t>(next_port_)) {
    batch_buckets_.resize(next_port_);
  }
  for (const TuplePtr& t : ts) {
    int out = RouteFor(t->schema());
    if (out < 0) {
      if (default_port_ < 0) {
        ++unroutable_;
        if (obs_unroutable_ != nullptr) {
          obs_unroutable_->Inc();
        }
        continue;
      }
      out = default_port_;
      if (batch_buckets_.size() <= static_cast<size_t>(out)) {
        batch_buckets_.resize(out + 1);
      }
    }
    batch_buckets_[out].push_back(t);
  }
  for (size_t p = 0; p < batch_buckets_.size(); ++p) {
    std::vector<TuplePtr>& bucket = batch_buckets_[p];
    if (bucket.empty()) {
      continue;
    }
    if (bucket.size() == 1) {
      PushOut(static_cast<int>(p), bucket[0]);
    } else {
      PushOutMany(static_cast<int>(p), bucket);
    }
    bucket.clear();
  }
}

// --- DupElement ---

void DupElement::Push(int port, const TuplePtr& t) {
  P2_CHECK(port == 0);
  for (size_t i = 0; i < num_outputs(); ++i) {
    PushOut(static_cast<int>(i), t);
  }
}

void DupElement::PushMany(int port, const std::vector<TuplePtr>& ts) {
  P2_CHECK(port == 0);
  for (size_t i = 0; i < num_outputs(); ++i) {
    PushOutMany(static_cast<int>(i), ts);
  }
}

// --- CallbackSink ---

void CallbackSink::Push(int port, const TuplePtr& t) {
  (void)port;
  fn_(t);
}

// --- PeriodicSource ---

PeriodicSource::PeriodicSource(std::string name, Executor* executor, Rng* rng,
                               std::string local_addr, double period, uint64_t count,
                               double initial_delay, std::vector<Value> extras)
    : Element(std::move(name)),
      executor_(executor),
      rng_(rng),
      local_addr_(Value::Addr(std::move(local_addr))),
      schema_(InternSchema("periodic")),
      period_(period),
      count_(count),
      initial_delay_(initial_delay),
      extras_(std::move(extras)) {}

PeriodicSource::~PeriodicSource() { Stop(); }

void PeriodicSource::Start() {
  // A small random phase avoids the synchronized-timer artifacts the paper
  // notes mature implementations tune by hand.
  double jitter = period_ > 0 ? rng_->NextDouble() * period_ * 0.1 : 0.0;
  timer_ = executor_->ScheduleAfter(initial_delay_ + jitter, [this]() { Fire(); });
}

void PeriodicSource::Stop() {
  if (timer_ != kInvalidTimer) {
    executor_->Cancel(timer_);
    timer_ = kInvalidTimer;
  }
}

void PeriodicSource::Fire() {
  timer_ = kInvalidTimer;
  ++fired_;
  PushOut(0, Tuple::Build(schema_, 2 + extras_.size(), [&](Value* out) {
    out[0] = local_addr_;
    out[1] = Value::Id(rng_->NextId());  // unique event identifier E
    std::copy(extras_.begin(), extras_.end(), out + 2);
  }));
  if (count_ == 0 || fired_ < count_) {
    timer_ = executor_->ScheduleAfter(period_ > 0 ? period_ : 0.0, [this]() { Fire(); });
  }
}

}  // namespace p2
