// General-purpose "glue" elements (§3.4): the input queue, the
// demultiplexer, duplicators, periodic sources and sinks.
#ifndef P2_DATAFLOW_BASIC_ELEMENTS_H_
#define P2_DATAFLOW_BASIC_ELEMENTS_H_

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/dataflow/element.h"
#include "src/runtime/executor.h"
#include "src/runtime/random.h"

namespace p2 {

// The node's input queue (§3.3): a bounded FIFO that drains itself into
// output 0 on the executor. Each drain is one deferred task that moves up
// to kBatch tuples downstream through one PushMany, so the demultiplexer
// can partition the batch per strand, and then yields, so one busy flow
// cannot starve timers. A full batch schedules the next drain at once; a
// drain that empties the queue before filling its batch parks, and the
// next push schedules the next drain. A push is always accepted: when the
// queue is full the oldest tuple is shed (overlays are soft state, and a
// refused push would force the pusher to roll back, §3.3).
class InputQueue : public Element {
 public:
  static constexpr size_t kBatch = 64;

  InputQueue(std::string name, Executor* executor, size_t capacity)
      : Element(std::move(name)), executor_(executor), capacity_(capacity) {}
  ~InputQueue() override;

  void Push(int port, const TuplePtr& t) override;
  // Schedules the first drain. Call once after wiring.
  void Start();

  size_t size() const { return q_.size(); }
  uint64_t dropped() const { return dropped_; }
  void set_obs_dropped(obs::Counter* c) { obs_dropped_ = c; }

 private:
  void Arm();
  void Drain();

  Executor* executor_;
  size_t capacity_;
  std::deque<TuplePtr> q_;
  // The last drain emptied the queue: the next push schedules a drain.
  bool parked_ = false;
  TimerId timer_ = kInvalidTimer;  // the scheduled drain, if any
  std::vector<TuplePtr> batch_;    // drain buffer, reused
  uint64_t dropped_ = 0;
  obs::Counter* obs_dropped_ = nullptr;
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

  void Push(int port, const TuplePtr& t) override;
  // Batched dispatch: partitions the batch by output port, then forwards
  // one sub-batch per port so downstream fan-out strands amortize
  // per-tuple dispatch.
  void PushMany(int port, const std::vector<TuplePtr>& ts) override;

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
  void Push(int port, const TuplePtr& t) override;
  void PushMany(int port, const std::vector<TuplePtr>& ts) override;
};

// Terminal sink invoking a C++ callback (used for watch directives, app
// subscriptions, and tests).
class CallbackSink : public Element {
 public:
  using TupleFn = std::function<void(const TuplePtr&)>;
  CallbackSink(std::string name, TupleFn fn) : Element(std::move(name)), fn_(std::move(fn)) {}
  void Push(int port, const TuplePtr& t) override;

 private:
  TupleFn fn_;
};

// Swallows everything (explicit drop).
class DiscardElement : public Element {
 public:
  explicit DiscardElement(std::string name) : Element(std::move(name)) {}
  void Push(int, const TuplePtr&) override {}
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
  Value local_addr_;  // shared by every tuple this source emits
  SchemaId schema_;   // "periodic"
  double period_;
  uint64_t count_;  // 0 = unbounded
  double initial_delay_;
  std::vector<Value> extras_;
  uint64_t fired_ = 0;
  TimerId timer_ = kInvalidTimer;
};

}  // namespace p2

#endif  // P2_DATAFLOW_BASIC_ELEMENTS_H_
