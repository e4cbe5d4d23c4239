// ShardedSim: share-nothing multi-threaded discrete-event simulation.
//
// The schedulable unit is a *shard*: one self-contained event loop (timer
// wheel, delivery heap, cross-shard mailbox, staging outboxes) owning a
// partition of the fleet. Shards share no mutable runtime state: a tuple
// crossing shards travels as already-marshaled bytes (src/net/wire.*),
// exactly as it would cross a real network.
//
// With one worker there is exactly one shard and everything runs inline on
// the calling thread. With N > 1 requested workers the simulated network
// reconfigures the engine to one shard per topology domain
// (ConfigureLoops) and min(N, shards) worker threads execute them.
// Ownership is fixed when the workers start: with K workers, worker w runs
// shards w, w+K, w+2K, ... for the engine's whole life. Topology::DomainOf puts slot i in
// domain i mod the domain count, so in a fleet of consecutive slots the
// domains, and with them the workers, carry near-equal load.
//
// Time advances under conservative window synchronization. The simulated
// topology places shard boundaries only between domains, so any
// cross-shard datagram experiences at least W =
// Topology::MinCrossDomainLatency() of latency. The coordinator therefore
// advances all shards in lockstep windows of at most W virtual seconds:
// during a window workers run their shards in parallel and may only stage
// work for other shards at or beyond the next barrier; staged batches are
// flushed into destination mailboxes at the end of each shard's window and
// folded by the owner at the start of the next. Because deliveries are
// executed in the content-derived (time, source, sequence) order — not
// mailbox-arrival order — a fixed seed produces identical per-node event
// sequences at any --shards count.
//
// The coordinator doubles as worker 0 (no idle coordinator thread) and
// also owns the *control timeline*: an executor whose tasks run on the
// coordinator thread at window barriers, while every other worker is
// parked. Harness-level actions that touch cross-shard state — staggered
// joins, churn kills/replacements, bootstrap-snapshot refreshes — schedule
// here. A pending control task shrinks the next window so the task still
// fires at its exact virtual time (windows only ever shrink; they never
// stretch a control deadline to the next multiple of W).
#ifndef P2_SIM_SHARD_H_
#define P2_SIM_SHARD_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/runtime/executor.h"
#include "src/runtime/timer_wheel.h"
#include "src/sim/event_loop.h"

namespace p2 {

namespace obs {
class Gauge;
class LogHistogram;
class Registry;
class TraceLog;
}  // namespace obs

class ShardedSim {
 public:
  // `num_shards` is the requested worker count (>= 1). The constructor
  // starts with one loop per requested worker so a standalone engine can
  // be driven directly; a simulated network reshapes that to one loop per
  // topology domain via ConfigureLoops. The synchronization window
  // defaults to +infinity (pure timer workloads need no barriers) and is
  // tightened by the simulated network via set_sync_window.
  explicit ShardedSim(size_t num_shards);
  ~ShardedSim();
  ShardedSim(const ShardedSim&) = delete;
  ShardedSim& operator=(const ShardedSim&) = delete;

  // Shards (= event loops). Registry lanes, trace tids and endpoint
  // placement key off this count.
  size_t num_shards() const { return loops_.size(); }
  SimEventLoop* shard(size_t i) { return loops_[i].get(); }

  // Worker threads that execute the shards: min(requested, num_shards).
  size_t num_workers() const {
    return std::min(requested_workers_, loops_.size());
  }

  // Rebuilds the shard set (the simulated network calls this before any
  // endpoints or events exist, to get one shard per topology domain). Only
  // legal while every shard is pristine and no worker has started.
  void ConfigureLoops(size_t n);

  // The control timeline (see file comment). Safe to call Now /
  // ScheduleAfter / Cancel from the coordinator thread between runs or
  // from control tasks themselves; never from worker threads.
  Executor* control() { return &control_; }

  // Barrier time: every shard's clock equals this between runs.
  double Now() const { return now_; }

  // Drives all shards (and the control timeline) to `deadline`. Events at
  // exactly `deadline` run; control tasks at a time t always run before
  // shard events at t. Blocks the calling thread until the barrier at
  // `deadline` is reached.
  void RunUntil(double deadline);
  void RunFor(double seconds) { RunUntil(now_ + seconds); }

  // Tightens the conservative window (keeps the minimum of all calls).
  void set_sync_window(double w);
  double sync_window() const { return window_; }

  // Events executed across all shards plus control tasks run. The total is
  // shard-count-invariant for a fixed seed — a useful determinism check.
  uint64_t events_run() const;

  // Enables shard instrumentation: per-worker barrier-wait histograms
  // (lane = worker index), per-shard mailbox-depth sampling (lane = shard
  // index), the window imbalance gauge on the coordinator lane
  // (num_shards; multi-worker runs only), and — when `trace` is non-null —
  // window / barrier / control events into the trace log (tid = worker,
  // control on lane num_shards). Either may be null. Call before the first
  // RunUntil.
  void SetObs(obs::Registry* registry, obs::TraceLog* trace);

 private:
  class ControlTimeline : public Executor {
   public:
    explicit ControlTimeline(ShardedSim* owner) : owner_(owner) {}
    double Now() const override { return owner_->now_; }
    TimerId ScheduleAfter(double delay, Task task) override {
      if (delay < 0) {
        delay = 0;
      }
      return wheel_.Schedule(owner_->now_ + delay, std::move(task));
    }
    void Cancel(TimerId id) override {
      if (id != kInvalidTimer) {
        wheel_.Cancel(id);
      }
    }

   private:
    friend class ShardedSim;
    ShardedSim* owner_;
    TimerWheel wheel_;
  };

  void WirePeers();
  void EnsureWorkers();
  void WorkerMain(size_t worker);
  // Runs one window on every shard, worker threads in parallel with the
  // coordinator, then waits for every worker to park, so control tasks
  // and the next window's mailbox folds never race a running shard.
  void RunShardsWindow(double end, bool inclusive);
  // Runs and flushes the shards `worker` owns. Shared by worker threads
  // and the coordinator acting as worker 0. Sets `*window_end` (when
  // non-null) right after the flushes, for barrier-wait attribution.
  void RunOwned(size_t worker, double end, bool inclusive,
                std::chrono::steady_clock::time_point* window_end);
  // Worker-side spin-then-park until the epoch moves; false on stop.
  bool AwaitEpoch(uint64_t seen);
  // Updates the imbalance gauge from the completed window's per-shard
  // event counts. Coordinator-only, every worker parked.
  void ObserveImbalance();
  // Pops and runs every control task due at or before now_.
  void RunDueControl();

  double now_ = 0.0;
  double window_;
  uint64_t control_events_run_ = 0;
  size_t requested_workers_;
  std::vector<std::unique_ptr<SimEventLoop>> loops_;
  ControlTimeline control_;

  // Worker coordination (idle with a single worker). Workers
  // 1..num_workers()-1 are threads; the coordinator is worker 0.
  std::vector<std::thread> workers_;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<size_t> parked_{0};  // worker threads done with this window
  std::atomic<bool> stop_{false};
  // Pre-park spin budget, set once by EnsureWorkers before the workers
  // spawn: a fixed ~100us when every worker can have its own core, zero on
  // an oversubscribed host (where spinning only takes the runnable peer's
  // quantum).
  int spin_iters_ = 0;
  double target_ = 0;  // published before the epoch release-increment
  bool inclusive_ = false;
  std::mutex mu_;
  std::condition_variable cv_work_;  // workers park here between windows
  std::condition_variable cv_done_;  // coordinator parks here for the workers
  size_t sleepers_ = 0;              // workers asleep on cv_work_ (guarded by mu_)

  // Observability (all null unless SetObs was called).
  obs::Registry* obs_registry_ = nullptr;
  obs::TraceLog* trace_ = nullptr;
  std::vector<obs::LogHistogram*> barrier_wait_;  // one per worker
  obs::Gauge* obs_imbalance_ = nullptr;
  int64_t imbalance_last_ = 0;
  std::vector<uint64_t> last_events_;  // per-shard events_run at last barrier
  // Coordinator barrier analog: gap between its window ends (control tasks
  // plus the wait for the other workers). Meaningful, and nonzero, at any
  // worker count.
  bool have_last_window_end_ = false;
  std::chrono::steady_clock::time_point last_window_end_;
};

}  // namespace p2

#endif  // P2_SIM_SHARD_H_
