#include "src/sim/event_loop.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "src/obs/registry.h"

namespace p2 {

namespace {
thread_local SimEventLoop* tls_running_loop = nullptr;
}  // namespace

SimEventLoop* SimEventLoop::Current() { return tls_running_loop; }

TimerId SimEventLoop::ScheduleAfter(double delay, Task task) {
  if (delay < 0) {
    delay = 0;
  }
  return wheel_.Schedule(now_ + delay, std::move(task));
}

void SimEventLoop::Cancel(TimerId id) {
  if (id != kInvalidTimer) {
    wheel_.Cancel(id);
  }
}

void SimEventLoop::EnqueueLocal(SimDelivery d) { msgs_.push(std::move(d)); }

void SimEventLoop::SetPeers(std::vector<SimEventLoop*> peers) {
  peers_ = std::move(peers);
  outbox_.assign(peers_.size(), {});
}

void SimEventLoop::FlushOutbox() {
  for (size_t dst = 0; dst < outbox_.size(); ++dst) {
    std::vector<SimDelivery>& batch = outbox_[dst];
    if (batch.empty()) {
      continue;
    }
    SimEventLoop* peer = peers_[dst];
    {
      std::lock_guard<std::mutex> lock(peer->mailbox_mu_);
      peer->mailbox_.insert(peer->mailbox_.end(), std::make_move_iterator(batch.begin()),
                            std::make_move_iterator(batch.end()));
    }
    batch.clear();
  }
}

void SimEventLoop::BindObs(obs::Registry* registry) {
  obs_mailbox_depth_ = registry->GetHistogram(
      shard_index_,
      "p2_shard_mailbox_depth{shard=\"" + std::to_string(shard_index_) + "\"}");
}

void SimEventLoop::DrainMailbox() {
  std::vector<SimDelivery> drained;
  {
    std::lock_guard<std::mutex> lock(mailbox_mu_);
    drained.swap(mailbox_);
  }
  if (obs_mailbox_depth_ != nullptr && !drained.empty()) {
    obs_mailbox_depth_->Observe(drained.size());
  }
  for (SimDelivery& d : drained) {
    msgs_.push(std::move(d));
  }
}

size_t SimEventLoop::pending() const { return wheel_.size() + msgs_.size(); }

void SimEventLoop::RunWindow(double end, bool inclusive) {
  // Fold what peers flushed to us during the previous window. Conservative
  // sync guarantees none of it is due before this window starts, and only
  // the owning thread ever folds, so the heap stays single-writer.
  DrainMailbox();
  // Strict "< end" on doubles: everything <= nextafter(end, -inf).
  double cap = inclusive
                   ? end
                   : std::nextafter(end, -std::numeric_limits<double>::infinity());
  SimEventLoop* prev = tls_running_loop;
  tls_running_loop = this;
  double at;
  Task task;
  for (;;) {
    // Timers before deliveries at equal instants (a fixed rule, so the
    // interleaving never depends on which shard hosts the sender).
    double msg_at =
        msgs_.empty() ? std::numeric_limits<double>::infinity() : msgs_.top().at;
    if (wheel_.PopDue(std::min(cap, msg_at), &at, &task)) {
      now_ = std::max(now_, at);
      ++events_run_;
      task();
      continue;
    }
    if (!msgs_.empty() && msg_at <= cap) {
      SimDelivery d = std::move(const_cast<SimDelivery&>(msgs_.top()));
      msgs_.pop();
      now_ = std::max(now_, d.at);
      ++events_run_;
      if (deliver_) {
        deliver_(d);
      }
      continue;
    }
    break;
  }
  tls_running_loop = prev;
  if (std::isfinite(end) && now_ < end) {
    now_ = end;
  }
}

void SimEventLoop::RunUntil(double deadline) { RunWindow(deadline, /*inclusive=*/true); }

void SimEventLoop::RunAll() {
  RunWindow(std::numeric_limits<double>::infinity(), /*inclusive=*/true);
}

}  // namespace p2
