#include "src/sim/shard.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>

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
// parks waiting for stragglers). Windows are typically sub-millisecond of
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

// Straggler-phase pacing: stay polite while peers finish their windows.
// When oversubscribed, skip the relax phase and hand the core over at
// once — the peer we are waiting on needs it.
void StragglerPause(uint32_t* attempt, bool oversubscribed) {
  uint32_t a = (*attempt)++;
  if (oversubscribed) {
    a += 64;
  }
  if (a < 64) {
    CpuRelax();
    return;
  }
  if (a < 128) {
    std::this_thread::yield();
    return;
  }
  uint32_t shift = std::min<uint32_t>(a - 128, 6);
  std::this_thread::sleep_for(std::chrono::microseconds(1u << shift));
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
  owner_.clear();
  plan_.clear();
  last_events_.clear();
  window_cost_.clear();
}

void ShardedSim::SetObs(obs::Registry* registry, obs::TraceLog* trace) {
  obs_registry_ = registry;
  trace_ = trace;
  barrier_wait_.clear();
  obs_steals_ = nullptr;
  obs_owner_moves_ = nullptr;
  obs_imbalance_ = nullptr;
  if (registry != nullptr) {
    for (size_t w = 0; w < num_workers(); ++w) {
      barrier_wait_.push_back(registry->GetHistogram(
          w, "p2_shard_barrier_wait_ns{shard=\"" + std::to_string(w) + "\"}"));
    }
    for (auto& l : loops_) {
      l->BindObs(registry);
    }
    const size_t coord = loops_.size();
    obs_steals_ = registry->GetCounter(coord, "p2_shard_steals_total");
    obs_owner_moves_ = registry->GetCounter(coord, "p2_domain_owner_moves_total");
    obs_imbalance_ = registry->GetGauge(coord, "p2_shard_window_imbalance_pct");
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
  if (plan_.empty()) {
    owner_.resize(loops_.size());
    for (size_t l = 0; l < loops_.size(); ++l) {
      owner_[l] = l % active;
    }
    plan_.assign(active, {});
    for (size_t l = 0; l < loops_.size(); ++l) {
      plan_[owner_[l]].push_back(l);
    }
    last_events_.assign(loops_.size(), 0);
    window_cost_.assign(loops_.size(), 0);
    // Fixed for the engine's life and set before any worker spawns: live
    // workers read it in AwaitEpoch without synchronization.
    spin_iters_ = SpinBudget(active);
  }
  if (active <= 1 || !workers_.empty()) {
    return;
  }
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

void ShardedSim::RunPlanned(size_t worker, double end, bool inclusive,
                            std::vector<SimEventLoop*>& mine,
                            std::chrono::steady_clock::time_point* window_end) {
  const size_t active = num_workers();
  mine.clear();
  for (size_t l : plan_[worker]) {
    mine.push_back(loops_[l].get());
  }
  // A flush blocked on a full peer mailbox drains every loop we own, which
  // is what makes cyclic backpressure between workers deadlock-free.
  SimEventLoop::BindWorkerLoops(mine.data(), mine.size());
  const bool instrumented = obs_registry_ != nullptr || trace_ != nullptr;
  double ts0 = trace_ != nullptr ? trace_->NowUs() : 0;
  double vt_begin = now_;
  uint64_t ev0 = 0;
  if (instrumented) {
    for (SimEventLoop* l : mine) {
      ev0 += l->events_run();
    }
  }
  for (SimEventLoop* l : mine) {
    l->RunWindow(end, inclusive);
    l->FlushOutbox();
  }
  if (instrumented) {
    uint64_t ev1 = 0;
    for (SimEventLoop* l : mine) {
      ev1 += l->events_run();
    }
    if (window_end != nullptr) {
      *window_end = std::chrono::steady_clock::now();
    }
    if (trace_ != nullptr) {
      trace_->Add(worker, obs::TraceEvent{"window", ts0, trace_->NowUs() - ts0,
                                          vt_begin, end, ev1 - ev0});
    }
  }
  done_.fetch_add(1, std::memory_order_acq_rel);
  // Straggler phase: peers still inside this window may flood our bounded
  // mailboxes; keep folding them (owner-thread-only by design) so their
  // blocked flushes make progress instead of deadlocking the barrier.
  // Once every worker is done no one sends until the next epoch, so the
  // next window's entry drain picks up the remainder.
  uint32_t attempt = 0;
  const bool oversub = spin_iters_ == 0;
  while (done_.load(std::memory_order_acquire) < active) {
    for (SimEventLoop* l : mine) {
      l->DrainMailbox();
    }
    StragglerPause(&attempt, oversub);
  }
  SimEventLoop::BindWorkerLoops(nullptr, 0);
}

void ShardedSim::WorkerMain(size_t worker) {
  uint64_t seen = 0;
  std::vector<SimEventLoop*> mine;
  // Barrier wait = wall time from this worker finishing its window's work
  // (run + flush) to the coordinator waking it for the next one
  // (straggler drain + park + coordinator overhead).
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
    RunPlanned(worker, target_, inclusive_, mine,
               instrumented ? &window_end_tp : nullptr);
    have_window_end = instrumented;
    parked_.fetch_add(1, std::memory_order_acq_rel);
    // Lock-then-notify: the coordinator holds mu_ from its predicate check
    // until it sleeps, so this cannot slip into that gap and get lost.
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_done_.notify_all();
  }
}

void ShardedSim::Rebalance() {
  const size_t active = num_workers();
  const size_t n = loops_.size();
  uint64_t total = 0;
  for (size_t l = 0; l < n; ++l) {
    uint64_t now_events = loops_[l]->events_run();
    window_cost_[l] = now_events - last_events_[l];
    last_events_[l] = now_events;
    total += window_cost_[l];
  }
  if (total == 0) {
    return;  // First window, or an idle one: nothing to learn from.
  }
  std::vector<uint64_t> load(active, 0);
  for (size_t l = 0; l < n; ++l) {
    load[owner_[l]] += window_cost_[l];
  }
  uint64_t max_load = *std::max_element(load.begin(), load.end());
  if (obs_imbalance_ != nullptr) {
    // Gauge semantics are add-a-delta; hold the last window's value.
    int64_t pct = static_cast<int64_t>(max_load * active * 100 / total);
    obs_imbalance_->Add(pct - imbalance_last_);
    imbalance_last_ = pct;
  }
  if (!stealing_) {
    return;
  }
  // Hysteresis: replan only when the worst worker carried > 1.2x the
  // perfectly balanced share, so a settled plan is not churned by noise.
  if (max_load * active * 10 <= total * 12) {
    return;
  }
  // LPT over the completed window's costs: heaviest shard first onto the
  // least-loaded worker, ties keeping the current owner (then the lowest
  // worker id). Inputs are virtual-time state only, so the plan — like the
  // events it schedules — is a pure function of the seed.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (window_cost_[a] != window_cost_[b]) {
      return window_cost_[a] > window_cost_[b];
    }
    return a < b;
  });
  std::vector<uint64_t> new_load(active, 0);
  std::vector<size_t> new_owner(n, 0);
  for (size_t l : order) {
    size_t best = 0;
    for (size_t w = 1; w < active; ++w) {
      if (new_load[w] < new_load[best]) {
        best = w;
      }
    }
    if (new_load[owner_[l]] == new_load[best]) {
      best = owner_[l];
    }
    new_owner[l] = best;
    new_load[best] += window_cost_[l];
  }
  uint64_t moves = 0;
  uint64_t steals = 0;
  for (size_t l = 0; l < n; ++l) {
    if (new_owner[l] != owner_[l]) {
      ++moves;
      if (load[new_owner[l]] < load[owner_[l]]) {
        ++steals;  // The gaining worker was the less-loaded one: a steal.
      }
    }
  }
  if (moves == 0) {
    return;
  }
  owner_ = std::move(new_owner);
  for (auto& p : plan_) {
    p.clear();
  }
  for (size_t l = 0; l < n; ++l) {
    plan_[owner_[l]].push_back(l);
  }
  if (obs_owner_moves_ != nullptr) {
    obs_owner_moves_->Inc(moves);
  }
  if (obs_steals_ != nullptr && steals > 0) {
    obs_steals_->Inc(steals);
  }
}

void ShardedSim::RunShardsWindow(double end, bool inclusive) {
  const bool instrumented = obs_registry_ != nullptr || trace_ != nullptr;
  if (num_workers() == 1) {
    // Single worker: one shard, no barriers. The "barrier wait" is the
    // coordinator's gap between window ends — control tasks plus loop
    // overhead — so the metric is meaningful (and nonzero) at any count.
    if (instrumented && have_last_window_end_) {
      uint64_t wait_ns = ElapsedNs(last_window_end_, std::chrono::steady_clock::now());
      if (!barrier_wait_.empty()) {
        barrier_wait_[0]->Observe(wait_ns);
      }
      if (trace_ != nullptr) {
        double vt = loops_[0]->Now();
        double dur_us = static_cast<double>(wait_ns) / 1000.0;
        trace_->Add(0, obs::TraceEvent{"barrier", trace_->NowUs() - dur_us, dur_us,
                                       vt, vt, 0});
      }
    }
    double vt_begin = loops_[0]->Now();
    uint64_t ev0 = loops_[0]->events_run();
    double ts0 = trace_ != nullptr ? trace_->NowUs() : 0;
    loops_[0]->RunWindow(end, inclusive);
    if (instrumented) {
      last_window_end_ = std::chrono::steady_clock::now();
      have_last_window_end_ = true;
      if (trace_ != nullptr) {
        trace_->Add(0, obs::TraceEvent{"window", ts0, trace_->NowUs() - ts0, vt_begin,
                                       end, loops_[0]->events_run() - ev0});
      }
    }
    return;
  }
  const size_t active = num_workers();
  // Every worker is parked here, so ownership transfer is safe: the
  // release/acquire chain through parked_ (their last window) and epoch_
  // (this publish) orders all shard state for any new owner.
  Rebalance();
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
  done_.store(0, std::memory_order_relaxed);
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
  RunPlanned(0, end, inclusive, coord_mine_,
             instrumented ? &last_window_end_ : nullptr);
  have_last_window_end_ = instrumented;
  // Wait for every worker thread to clear its straggler phase before
  // touching any shard state (control tasks, rebalance, mailbox folds): a
  // straggler's relief-drain may still fold mailboxes until then.
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
