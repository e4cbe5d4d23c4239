// General-purpose "glue" elements (§3.4): queues, (de)multiplexers,
// duplicators, schedulers, sources and sinks.
#ifndef P2_DATAFLOW_BASIC_ELEMENTS_H_
#define P2_DATAFLOW_BASIC_ELEMENTS_H_

#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/dataflow/element.h"
#include "src/runtime/executor.h"
#include "src/runtime/random.h"

namespace p2 {

// Bounded FIFO queue: push input (port 0), pull output (port 0). Blocks on
// both sides with callback signaling per the paper's design.
class QueueElement : public Element {
 public:
  QueueElement(std::string name, size_t capacity)
      : Element(std::move(name)), capacity_(capacity) {}

  int Push(int port, const TuplePtr& t, const Callback& cb) override;
  TuplePtr Pull(int port, const Callback& cb) override;

  size_t size() const { return q_.size(); }
  uint64_t dropped() const { return dropped_; }
  void set_obs_dropped(obs::Counter* c) { obs_dropped_ = c; }

 private:
  size_t capacity_;
  std::deque<TuplePtr> q_;
  Callback blocked_pusher_;
  Callback blocked_puller_;
  uint64_t dropped_ = 0;
  obs::Counter* obs_dropped_ = nullptr;
};

// Active scheduler: pulls its input and pushes downstream, `period` seconds
// apart (0 = drain continuously whenever tuples are available, via deferred
// tasks so handlers stay run-to-completion).
class TimedPullPush : public Element {
 public:
  TimedPullPush(std::string name, Executor* executor, double period)
      : Element(std::move(name)), executor_(executor), period_(period) {}
  ~TimedPullPush() override;

  // Begins scheduling. Must be called once after wiring.
  void Start();

 private:
  void RunOnce();
  void Arm(double delay);

  Executor* executor_;
  double period_;
  bool armed_ = false;
  TimerId timer_ = kInvalidTimer;
  std::vector<TuplePtr> batch_;  // continuous-mode drain buffer, reused
};

// Routes tuples to an output port chosen by tuple name. Dispatch is a
// SchemaId jump table (a flat vector indexed by the tuple's interned
// schema), not a string lookup. Unmatched tuples go to the default port if
// one was set, else are counted and dropped.
class DemuxByName : public Element {
 public:
  explicit DemuxByName(std::string name) : Element(std::move(name)) {}

  // Returns the output port allocated for `tuple_name` (idempotent).
  int PortFor(const std::string& tuple_name);
  void SetDefaultPort(int port) { default_port_ = port; }

  int Push(int port, const TuplePtr& t, const Callback& cb) override;
  // Batched dispatch: partitions the batch by output port, then forwards
  // one sub-batch per port so downstream fan-out strands amortize
  // signaling overhead.
  int PushMany(int port, const std::vector<TuplePtr>& ts, const Callback& cb) override;

  uint64_t unroutable() const { return unroutable_; }
  void set_obs_unroutable(obs::Counter* c) { obs_unroutable_ = c; }

 private:
  // Jump table indexed by SchemaId; -1 = no route.
  int RouteFor(SchemaId schema) const {
    return schema < routes_.size() ? routes_[schema] : -1;
  }

  std::vector<int> routes_;
  int next_port_ = 0;
  int default_port_ = -1;
  uint64_t unroutable_ = 0;
  obs::Counter* obs_unroutable_ = nullptr;
  // Per-port partition buffers reused across PushMany calls.
  std::vector<std::vector<TuplePtr>> batch_buckets_;
};

// Duplicates each input tuple to every connected output port.
class DupElement : public Element {
 public:
  explicit DupElement(std::string name) : Element(std::move(name)) {}
  int Push(int port, const TuplePtr& t, const Callback& cb) override;
  int PushMany(int port, const std::vector<TuplePtr>& ts, const Callback& cb) override;
};

// Terminal sink invoking a C++ callback (used for watch directives, app
// subscriptions, and tests).
class CallbackSink : public Element {
 public:
  using TupleFn = std::function<void(const TuplePtr&)>;
  CallbackSink(std::string name, TupleFn fn) : Element(std::move(name)), fn_(std::move(fn)) {}
  int Push(int port, const TuplePtr& t, const Callback& cb) override;

 private:
  TupleFn fn_;
};

// Swallows everything (explicit drop).
class DiscardElement : public Element {
 public:
  explicit DiscardElement(std::string name) : Element(std::move(name)) {}
  int Push(int, const TuplePtr&, const Callback&) override { return 1; }
};

// Emits `periodic(<local addr>, <unique id>, extras...)` every `period`
// seconds, `count` times (0 = forever), with an initial delay. Implements
// the OverLog `periodic` built-in term; `extras` carries the literal
// arguments beyond the event id (period, repeat count) so the emitted
// tuple's arity matches the rule body's predicate.
class PeriodicSource : public Element {
 public:
  PeriodicSource(std::string name, Executor* executor, Rng* rng, std::string local_addr,
                 double period, uint64_t count, double initial_delay,
                 std::vector<Value> extras);
  ~PeriodicSource() override;

  void Start();
  void Stop();

 private:
  void Fire();

  Executor* executor_;
  Rng* rng_;
  std::string local_addr_;
  double period_;
  uint64_t count_;  // 0 = unbounded
  double initial_delay_;
  std::vector<Value> extras_;
  uint64_t fired_ = 0;
  TimerId timer_ = kInvalidTimer;
};

}  // namespace p2

#endif  // P2_DATAFLOW_BASIC_ELEMENTS_H_
