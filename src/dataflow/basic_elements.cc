#include "src/dataflow/basic_elements.h"

#include "src/obs/registry.h"
#include "src/runtime/logging.h"

namespace p2 {

// --- QueueElement ---

int QueueElement::Push(int port, const TuplePtr& t, const Callback& cb) {
  P2_CHECK(port == 0);
  // The tuple is always accepted (a rejected push would force upstream
  // state rollback, §3.3); the return value only signals congestion.
  if (q_.size() >= capacity_) {
    ++dropped_;
    if (obs_dropped_ != nullptr) {
      obs_dropped_->Inc();
    }
    q_.pop_front();  // Shed oldest under overload; overlays are soft state.
  }
  q_.push_back(t);
  if (blocked_puller_) {
    Callback cb2 = std::move(blocked_puller_);
    blocked_puller_ = nullptr;
    cb2();
  }
  if (q_.size() >= capacity_) {
    blocked_pusher_ = cb;
    return 0;
  }
  return 1;
}

TuplePtr QueueElement::Pull(int port, const Callback& cb) {
  P2_CHECK(port == 0);
  if (q_.empty()) {
    blocked_puller_ = cb;
    return nullptr;
  }
  TuplePtr t = q_.front();
  q_.pop_front();
  if (blocked_pusher_) {
    Callback cb2 = std::move(blocked_pusher_);
    blocked_pusher_ = nullptr;
    cb2();
  }
  return t;
}

// --- TimedPullPush ---

TimedPullPush::~TimedPullPush() {
  if (timer_ != kInvalidTimer) {
    executor_->Cancel(timer_);
  }
}

void TimedPullPush::Start() { Arm(period_); }

void TimedPullPush::Arm(double delay) {
  if (armed_) {
    return;
  }
  armed_ = true;
  timer_ = executor_->ScheduleAfter(delay, [this]() {
    armed_ = false;
    timer_ = kInvalidTimer;
    RunOnce();
  });
}

void TimedPullPush::RunOnce() {
  if (period_ > 0) {
    // Fixed-rate mode: move at most one tuple per period.
    TuplePtr t = PullIn(0, [this]() { Arm(period_); });
    if (t != nullptr) {
      PushOut(0, t);
      Arm(period_);
    }
    return;
  }
  // Continuous mode: drain a bounded batch, then yield to the loop so one
  // busy flow cannot starve timers. The batch goes downstream through one
  // PushMany so the demultiplexer can partition it per strand instead of
  // re-dispatching tuple by tuple.
  constexpr int kBatch = 64;
  batch_.clear();
  bool blocked = false;
  for (int i = 0; i < kBatch; ++i) {
    TuplePtr t = PullIn(0, [this]() { Arm(0); });
    if (t == nullptr) {
      blocked = true;  // Pull callback re-arms us once data returns.
      break;
    }
    batch_.push_back(std::move(t));
  }
  if (!batch_.empty()) {
    int ok = PushOutMany(0, batch_, [this]() { Arm(0); });
    batch_.clear();
    if (ok == 0) {
      return;  // Downstream congested; push callback re-arms us.
    }
  }
  if (!blocked) {
    Arm(0);
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

int DemuxByName::Push(int port, const TuplePtr& t, const Callback& cb) {
  P2_CHECK(port == 0);
  int out = RouteFor(t->schema());
  if (out >= 0) {
    return PushOut(out, t, cb);
  }
  if (default_port_ >= 0) {
    return PushOut(default_port_, t, cb);
  }
  ++unroutable_;
  if (obs_unroutable_ != nullptr) {
    obs_unroutable_->Inc();
  }
  return 1;
}

int DemuxByName::PushMany(int port, const std::vector<TuplePtr>& ts, const Callback& cb) {
  P2_CHECK(port == 0);
  if (batch_buckets_.size() < static_cast<size_t>(next_port_)) {
    batch_buckets_.resize(next_port_);
  }
  int signal = 1;
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
    switch (bucket.size()) {
      case 1:
        signal &= PushOut(static_cast<int>(p), bucket[0], cb);
        break;
      default:
        signal &= PushOutMany(static_cast<int>(p), bucket, cb);
        break;
    }
    bucket.clear();
  }
  return signal;
}

// --- DupElement ---

int DupElement::Push(int port, const TuplePtr& t, const Callback& cb) {
  P2_CHECK(port == 0);
  (void)cb;
  int signal = 1;
  for (size_t i = 0; i < num_outputs(); ++i) {
    signal &= PushOut(static_cast<int>(i), t);
  }
  return signal;
}

int DupElement::PushMany(int port, const std::vector<TuplePtr>& ts, const Callback& cb) {
  P2_CHECK(port == 0);
  (void)cb;
  int signal = 1;
  for (size_t i = 0; i < num_outputs(); ++i) {
    signal &= PushOutMany(static_cast<int>(i), ts);
  }
  return signal;
}

// --- CallbackSink ---

int CallbackSink::Push(int port, const TuplePtr& t, const Callback& cb) {
  (void)port;
  (void)cb;
  fn_(t);
  return 1;
}

// --- PeriodicSource ---

PeriodicSource::PeriodicSource(std::string name, Executor* executor, Rng* rng,
                               std::string local_addr, double period, uint64_t count,
                               double initial_delay, std::vector<Value> extras)
    : Element(std::move(name)),
      executor_(executor),
      rng_(rng),
      local_addr_(std::move(local_addr)),
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
  std::vector<Value> fields;
  fields.push_back(Value::Addr(local_addr_));
  fields.push_back(Value::Id(rng_->NextId()));  // unique event identifier E
  fields.insert(fields.end(), extras_.begin(), extras_.end());
  PushOut(0, Tuple::Make("periodic", std::move(fields)));
  if (count_ == 0 || fired_ < count_) {
    timer_ = executor_->ScheduleAfter(period_ > 0 ? period_ : 0.0, [this]() { Fire(); });
  }
}

}  // namespace p2
