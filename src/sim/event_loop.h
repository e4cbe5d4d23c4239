// Discrete-event simulation loop with virtual time: the per-shard loop of
// the (optionally multi-threaded) simulator.
//
// The loop runs two event lanes:
//
//  - the timer wheel: everything scheduled through the Executor interface
//    (protocol timers, deferred work). Fires in (deadline, FIFO) order.
//  - the delivery lane: simulated datagrams, as already-marshaled bytes.
//    Fires in (deadline, source, sequence) order — a total order derived
//    from the *content* of the message stream, never from scheduling
//    accidents, so a fleet partitioned across N shards delivers each
//    node's datagrams in exactly the order the single-shard run would.
//    The heap orders 32-byte (at, src, seq, slot) keys; each payload sits
//    still in a slot of a slab until it is delivered, and freed slots are
//    reused, so a sift never moves addresses or bytes.
//
// At equal timestamps timers fire before deliveries. Cross-shard senders
// stage datagrams into per-destination outboxes local to the sending loop,
// and the sending worker flushes each outbox as one batch at the end of
// the window — one mailbox lock round-trip per (source, destination,
// window) instead of per datagram. The mailbox is a mutex-guarded vector
// with no bound: everything staged in a window is due no earlier than the
// next one, so it has to be held somewhere until then. The owner folds the
// mailbox into the delivery heap at the start of its next window;
// conservative-window synchronization (see src/sim/shard.h) guarantees a
// message is always flushed before its shard's clock reaches its delivery
// time, and the content-keyed heap order makes mailbox *arrival* order
// irrelevant.
#ifndef P2_SIM_EVENT_LOOP_H_
#define P2_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <mutex>
#include <queue>
#include <string>
#include <vector>

#include "src/runtime/executor.h"
#include "src/runtime/timer_wheel.h"

namespace p2 {

namespace obs {
class LogHistogram;
class Registry;
}  // namespace obs

// One simulated datagram in flight. `src` is the sending endpoint's unique
// incarnation ordinal and `seq` its per-endpoint send counter, which makes
// (at, src, seq) a deterministic total order over all deliveries.
struct SimDelivery {
  double at = 0;
  uint64_t src = 0;
  uint64_t seq = 0;
  // Sender and destination addresses, as the network's dense address ids.
  uint32_t from = 0;
  uint32_t to = 0;
  std::vector<uint8_t> bytes;
};

// A virtual-time Executor. Time advances instantaneously to the next
// scheduled event; handlers run to completion. Timer events live on a
// hierarchical timer wheel, so schedule and cancel are O(1) regardless of
// how many are pending.
class SimEventLoop : public Executor {
 public:
  // Handles a due datagram (the simulated network's delivery upcall).
  using DeliverFn = std::function<void(const SimDelivery&)>;

  SimEventLoop() = default;
  SimEventLoop(const SimEventLoop&) = delete;
  SimEventLoop& operator=(const SimEventLoop&) = delete;

  double Now() const override { return now_; }
  TimerId ScheduleAfter(double delay, Task task) override;
  void Cancel(TimerId id) override;
  size_t shard_index() const override { return shard_index_; }

  // Runs events until the queue drains or `deadline` (virtual seconds) is
  // reached; time is left at `deadline` (or the last event time if later).
  // Events at exactly `deadline` do run.
  void RunUntil(double deadline);

  // Runs until both lanes are completely empty. Only safe for programs
  // without self-perpetuating timers.
  void RunAll();

  // Folds the mailbox into the delivery heap, runs every event with time <
  // `end` (<= `end` when `inclusive`), then advances the clock to `end`.
  // The sharded coordinator drives windows through this; RunUntil is the
  // single-loop convenience over it.
  void RunWindow(double end, bool inclusive);

  // --- Delivery lane -------------------------------------------------------

  void SetDeliverFn(DeliverFn fn) { deliver_ = std::move(fn); }

  // Queues a datagram from this loop's own thread — or from the
  // coordinator/main thread while every shard is parked at a barrier.
  void EnqueueLocal(SimDelivery d);

  // Stages a datagram bound for peer shard `dst` in this loop's outbox;
  // the window's end flushes it. Only the thread currently running this
  // loop may call it.
  void StageRemote(size_t dst, SimDelivery d) { outbox_[dst].push_back(std::move(d)); }

  // Binds the mailbox-depth histogram (sampled at every non-empty fold)
  // into this shard's registry lane. Called by ShardedSim::SetObs.
  void BindObs(obs::Registry* registry);

  // The loop currently executing events on this thread; null on the
  // coordinator/main thread. The simulated network uses it to route sends
  // (local heap push vs. cross-shard staging).
  static SimEventLoop* Current();

  // Number of events executed so far — timer fires plus deliveries.
  uint64_t events_run() const { return events_run_; }
  size_t pending() const;
  // Payload slots the delivery lane has allocated: the most deliveries it
  // ever held at once, since a delivered payload's slot is reused.
  size_t delivery_slots() const { return slab_.size(); }

 private:
  friend class ShardedSim;

  // A pending delivery's order key and the slab slot of its payload.
  struct DeliveryKey {
    double at;
    uint64_t src;
    uint64_t seq;
    uint32_t slot;
  };
  static_assert(sizeof(DeliveryKey) == 32, "delivery heap keys stay 32 bytes");
  struct DeliveryAfter {
    bool operator()(const DeliveryKey& a, const DeliveryKey& b) const {
      if (a.at != b.at) {
        return a.at > b.at;
      }
      if (a.src != b.src) {
        return a.src > b.src;
      }
      return a.seq > b.seq;
    }
  };

  // Wires this loop to its peer set (index-aligned with shard ids). Called
  // by ShardedSim whenever the loop set is (re)built.
  void SetPeers(std::vector<SimEventLoop*> peers);
  // Appends every non-empty outbox to its destination's mailbox, one lock
  // round-trip per destination. Called by the worker that ran this loop,
  // right after its window.
  void FlushOutbox();
  // Folds the mailbox into the delivery heap (start of every window).
  void DrainMailbox();

  double now_ = 0.0;
  uint64_t events_run_ = 0;
  size_t shard_index_ = 0;  // set by ShardedSim
  TimerWheel wheel_;
  DeliverFn deliver_;
  std::priority_queue<DeliveryKey, std::vector<DeliveryKey>, DeliveryAfter> keys_;
  std::vector<SimDelivery> slab_;     // payloads, indexed by DeliveryKey::slot
  std::vector<uint32_t> free_slots_;  // slab slots whose payload was delivered

  std::mutex mailbox_mu_;
  std::vector<SimDelivery> mailbox_;

  // Staging outboxes, touched only by the thread running this loop.
  std::vector<SimEventLoop*> peers_;
  std::vector<std::vector<SimDelivery>> outbox_;  // indexed by shard id

  obs::LogHistogram* obs_mailbox_depth_ = nullptr;
};

}  // namespace p2

#endif  // P2_SIM_EVENT_LOOP_H_
