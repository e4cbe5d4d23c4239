#include "src/sim/shard.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/runtime/logging.h"
#include "src/runtime/value.h"

namespace p2 {

namespace {

uint64_t ElapsedNs(std::chrono::steady_clock::time_point from,
                   std::chrono::steady_clock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

// Spin budget before parking on a condvar (and before the coordinator
// parks waiting for the workers). Windows are typically sub-millisecond of
// wall time, so ~100us of spinning catches the common case without
// burning a core for long. Spinning only pays when every worker has its
// own core: on an oversubscribed host a non-yielding spin just delays the
// runnable peer by a scheduler quantum per handoff, so the budget drops
// to zero there and threads park immediately.
constexpr int kSpinIters = 2500;

int SpinBudget(size_t active_workers) {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) {
    hw = 1;
  }
  return active_workers <= hw ? kSpinIters : 0;
}

}  // namespace

ShardedSim::ShardedSim(size_t num_shards)
    : window_(std::numeric_limits<double>::infinity()), control_(this) {
  if (num_shards < 1) {
    num_shards = 1;
  }
  requested_workers_ = num_shards;
  loops_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    auto loop = std::make_unique<SimEventLoop>();
    loop->shard_index_ = i;
    loops_.push_back(std::move(loop));
  }
  WirePeers();
}

ShardedSim::~ShardedSim() {
  stop_.store(true, std::memory_order_relaxed);
  { std::lock_guard<std::mutex> lock(mu_); }
  cv_work_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void ShardedSim::WirePeers() {
  std::vector<SimEventLoop*> peers;
  peers.reserve(loops_.size());
  for (auto& l : loops_) {
    peers.push_back(l.get());
  }
  for (auto& l : loops_) {
    l->SetPeers(peers);
  }
}

void ShardedSim::ConfigureLoops(size_t n) {
  if (n < 1) {
    n = 1;
  }
  P2_CHECK(workers_.empty());
  for (auto& l : loops_) {
    // Reshaping discards loops, so nothing may live on them yet.
    P2_CHECK(l->events_run() == 0 && l->pending() == 0 && l->Now() == 0.0);
  }
  loops_.clear();
  loops_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto loop = std::make_unique<SimEventLoop>();
    loop->shard_index_ = i;
    loops_.push_back(std::move(loop));
  }
  WirePeers();
}

void ShardedSim::SetObs(obs::Registry* registry, obs::TraceLog* trace) {
  obs_registry_ = registry;
  trace_ = trace;
  barrier_wait_.clear();
  obs_imbalance_ = nullptr;
  if (registry != nullptr) {
    for (size_t w = 0; w < num_workers(); ++w) {
      barrier_wait_.push_back(registry->GetHistogram(
          w, "p2_shard_barrier_wait_ns{shard=\"" + std::to_string(w) + "\"}"));
    }
    for (auto& l : loops_) {
      l->BindObs(registry);
    }
    obs_imbalance_ = registry->GetGauge(loops_.size(), "p2_shard_window_imbalance_pct");
  }
}

void ShardedSim::set_sync_window(double w) {
  P2_CHECK(w > 0);
  window_ = std::min(window_, w);
}

uint64_t ShardedSim::events_run() const {
  uint64_t total = control_events_run_;
  for (const auto& s : loops_) {
    total += s->events_run();
  }
  return total;
}

void ShardedSim::EnsureWorkers() {
  const size_t active = num_workers();
  if (active <= 1 || !workers_.empty()) {
    return;
  }
  // Fixed for the engine's life and set before any worker spawns: live
  // workers read it in AwaitEpoch without synchronization.
  spin_iters_ = SpinBudget(active);
  last_events_.assign(loops_.size(), 0);
  workers_.reserve(active - 1);
  for (size_t w = 1; w < active; ++w) {
    workers_.emplace_back([this, w]() { WorkerMain(w); });
  }
}

bool ShardedSim::AwaitEpoch(uint64_t seen) {
  for (int i = 0; i < spin_iters_; ++i) {
    if (stop_.load(std::memory_order_relaxed)) {
      return false;
    }
    if (epoch_.load(std::memory_order_acquire) != seen) {
      return true;
    }
    CpuRelax();
  }
  std::unique_lock<std::mutex> lock(mu_);
  ++sleepers_;
  cv_work_.wait(lock, [&]() {
    return stop_.load(std::memory_order_relaxed) ||
           epoch_.load(std::memory_order_acquire) != seen;
  });
  --sleepers_;
  return !stop_.load(std::memory_order_relaxed);
}

void ShardedSim::RunOwned(size_t worker, double end, bool inclusive,
                          std::chrono::steady_clock::time_point* window_end) {
  const size_t active = num_workers();
  const bool instrumented = obs_registry_ != nullptr || trace_ != nullptr;
  double ts0 = trace_ != nullptr ? trace_->NowUs() : 0;
  double vt_begin = now_;
  uint64_t ev0 = 0;
  if (instrumented) {
    for (size_t l = worker; l < loops_.size(); l += active) {
      ev0 += loops_[l]->events_run();
    }
  }
  for (size_t l = worker; l < loops_.size(); l += active) {
    loops_[l]->RunWindow(end, inclusive);
    loops_[l]->FlushOutbox();
  }
  if (instrumented) {
    uint64_t ev1 = 0;
    for (size_t l = worker; l < loops_.size(); l += active) {
      ev1 += loops_[l]->events_run();
    }
    if (window_end != nullptr) {
      *window_end = std::chrono::steady_clock::now();
    }
    if (trace_ != nullptr) {
      trace_->Add(worker, obs::TraceEvent{"window", ts0, trace_->NowUs() - ts0,
                                          vt_begin, end, ev1 - ev0});
    }
  }
}

void ShardedSim::WorkerMain(size_t worker) {
  uint64_t seen = 0;
  // Barrier wait = wall time from this worker finishing its window's work
  // (run + flush) to the coordinator waking it for the next one (park +
  // coordinator overhead).
  bool have_window_end = false;
  std::chrono::steady_clock::time_point window_end_tp;
  const bool instrumented = obs_registry_ != nullptr || trace_ != nullptr;
  for (;;) {
    if (!AwaitEpoch(seen)) {
      // Recycled Id blocks parked in this thread's pool would otherwise
      // outlive the thread as a leak.
      DrainThreadIdRepPool();
      return;
    }
    seen = epoch_.load(std::memory_order_acquire);
    if (instrumented && have_window_end) {
      uint64_t wait_ns = ElapsedNs(window_end_tp, std::chrono::steady_clock::now());
      if (!barrier_wait_.empty()) {
        barrier_wait_[worker]->Observe(wait_ns);
      }
      if (trace_ != nullptr) {
        double vt = now_;
        double dur_us = static_cast<double>(wait_ns) / 1000.0;
        trace_->Add(worker, obs::TraceEvent{"barrier", trace_->NowUs() - dur_us,
                                            dur_us, vt, vt, 0});
      }
    }
    RunOwned(worker, target_, inclusive_, instrumented ? &window_end_tp : nullptr);
    have_window_end = instrumented;
    parked_.fetch_add(1, std::memory_order_acq_rel);
    // Lock-then-notify: the coordinator holds mu_ from its predicate check
    // until it sleeps, so this cannot slip into that gap and get lost.
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_done_.notify_all();
  }
}

void ShardedSim::ObserveImbalance() {
  const size_t active = num_workers();
  std::vector<uint64_t> load(active, 0);
  uint64_t total = 0;
  for (size_t l = 0; l < loops_.size(); ++l) {
    uint64_t now_events = loops_[l]->events_run();
    uint64_t cost = now_events - last_events_[l];
    last_events_[l] = now_events;
    load[l % active] += cost;
    total += cost;
  }
  if (total == 0) {
    return;  // First window, or an idle one: nothing to report.
  }
  uint64_t max_load = *std::max_element(load.begin(), load.end());
  // Gauge semantics are add-a-delta; hold the last window's value.
  int64_t pct = static_cast<int64_t>(max_load * active * 100 / total);
  obs_imbalance_->Add(pct - imbalance_last_);
  imbalance_last_ = pct;
}

void ShardedSim::RunShardsWindow(double end, bool inclusive) {
  const size_t active = num_workers();
  const bool instrumented = obs_registry_ != nullptr || trace_ != nullptr;
  if (active > 1 && obs_imbalance_ != nullptr) {
    ObserveImbalance();
  }
  if (instrumented && have_last_window_end_) {
    uint64_t wait_ns = ElapsedNs(last_window_end_, std::chrono::steady_clock::now());
    if (!barrier_wait_.empty()) {
      barrier_wait_[0]->Observe(wait_ns);
    }
    if (trace_ != nullptr) {
      double dur_us = static_cast<double>(wait_ns) / 1000.0;
      trace_->Add(0, obs::TraceEvent{"barrier", trace_->NowUs() - dur_us, dur_us,
                                     now_, now_, 0});
    }
  }
  // Every worker thread is parked here: the release/acquire chain through
  // parked_ (their last window) and epoch_ (this publish) orders all shard
  // state between windows.
  parked_.store(0, std::memory_order_relaxed);
  target_ = end;
  inclusive_ = inclusive;
  epoch_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sleepers_ > 0) {
      cv_work_.notify_all();
    }
  }
  // The coordinator is worker 0: it runs its own share of shards instead
  // of idling (and oversubscribing a core) while the others work.
  RunOwned(0, end, inclusive, instrumented ? &last_window_end_ : nullptr);
  have_last_window_end_ = instrumented;
  // Wait for every worker thread to finish its window before touching any
  // shard state (control tasks, the next window's mailbox folds).
  int spin = 0;
  while (parked_.load(std::memory_order_acquire) != active - 1) {
    if (++spin < spin_iters_) {
      CpuRelax();
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&]() {
      return parked_.load(std::memory_order_acquire) == active - 1;
    });
    break;
  }
}

void ShardedSim::RunDueControl() {
  double at;
  Task task;
  uint64_t ran = 0;
  double ts0 = trace_ != nullptr ? trace_->NowUs() : 0;
  while (control_.wheel_.PopDue(now_, &at, &task)) {
    ++control_events_run_;
    ++ran;
    task();
  }
  if (trace_ != nullptr && ran > 0) {
    // Coordinator actions get the lane past the shards' (tid = num_shards).
    trace_->Add(loops_.size(),
                obs::TraceEvent{"control", ts0, trace_->NowUs() - ts0, now_, now_, ran});
  }
}

void ShardedSim::RunUntil(double deadline) {
  if (deadline < now_) {
    return;
  }
  EnsureWorkers();
  for (;;) {
    // Control tasks due at the barrier run first — before shard events at
    // the same instant — on the coordinator thread, with every worker
    // parked. They may schedule more control work or touch any shard.
    RunDueControl();
    if (now_ >= deadline) {
      break;
    }
    double end = std::min(now_ + window_, deadline);
    double hint = control_.wheel_.NextDueHint();
    if (hint > now_ && hint < end) {
      end = hint;  // shrink the window so the control task fires on time
    }
    RunShardsWindow(end, /*inclusive=*/false);
    now_ = end;
  }
  // Events at exactly `deadline` run in a final inclusive pass, after any
  // control task scheduled for `deadline`.
  RunShardsWindow(deadline, /*inclusive=*/true);
}

}  // namespace p2
