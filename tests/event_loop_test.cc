#include "src/sim/event_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "src/runtime/random.h"
#include "src/sim/shard.h"

namespace p2 {
namespace {

TEST(SimEventLoop, RunsEventsInTimestampOrder) {
  SimEventLoop loop;
  std::vector<int> order;
  loop.ScheduleAfter(3.0, [&]() { order.push_back(3); });
  loop.ScheduleAfter(1.0, [&]() { order.push_back(1); });
  loop.ScheduleAfter(2.0, [&]() { order.push_back(2); });
  loop.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.Now(), 3.0);
}

TEST(SimEventLoop, FifoAmongEqualTimestamps) {
  SimEventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.ScheduleAfter(1.0, [&, i]() { order.push_back(i); });
  }
  loop.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SimEventLoop, TimeAdvancesToEventTime) {
  SimEventLoop loop;
  double seen = -1;
  loop.ScheduleAfter(5.5, [&]() { seen = loop.Now(); });
  loop.RunAll();
  EXPECT_EQ(seen, 5.5);
}

TEST(SimEventLoop, NestedSchedulingFromHandler) {
  SimEventLoop loop;
  std::vector<double> times;
  loop.ScheduleAfter(1.0, [&]() {
    times.push_back(loop.Now());
    loop.ScheduleAfter(2.0, [&]() { times.push_back(loop.Now()); });
  });
  loop.RunAll();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], 1.0);
  EXPECT_EQ(times[1], 3.0);
}

TEST(SimEventLoop, CancelPreventsExecution) {
  SimEventLoop loop;
  bool ran = false;
  TimerId id = loop.ScheduleAfter(1.0, [&]() { ran = true; });
  loop.Cancel(id);
  loop.RunAll();
  EXPECT_FALSE(ran);
  // Cancelling an invalid or already-fired id is a no-op.
  loop.Cancel(kInvalidTimer);
  loop.Cancel(9999);
}

TEST(SimEventLoop, RunUntilStopsAtDeadline) {
  SimEventLoop loop;
  std::vector<int> order;
  loop.ScheduleAfter(1.0, [&]() { order.push_back(1); });
  loop.ScheduleAfter(2.0, [&]() { order.push_back(2); });
  loop.ScheduleAfter(5.0, [&]() { order.push_back(5); });
  loop.RunUntil(2.0);  // events at exactly the deadline run
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.Now(), 2.0);
  loop.RunUntil(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 5}));
  EXPECT_EQ(loop.Now(), 10.0);  // time advances to the deadline
}

TEST(SimEventLoop, NegativeDelayClampsToNow) {
  SimEventLoop loop;
  loop.RunUntil(4.0);
  double seen = -1;
  loop.ScheduleAfter(-3.0, [&]() { seen = loop.Now(); });
  loop.RunAll();
  EXPECT_EQ(seen, 4.0);
}

TEST(SimEventLoop, SelfPerpetuatingTimerBoundedByRunUntil) {
  SimEventLoop loop;
  int ticks = 0;
  std::function<void()> tick = [&]() {
    ++ticks;
    loop.ScheduleAfter(1.0, tick);
  };
  loop.ScheduleAfter(1.0, tick);
  loop.RunUntil(10.0);
  EXPECT_EQ(ticks, 10);
  EXPECT_EQ(loop.events_run(), 10u);
}

TEST(SimEventLoop, PendingCountExcludesCancelled) {
  SimEventLoop loop;
  TimerId a = loop.ScheduleAfter(1.0, []() {});
  loop.ScheduleAfter(2.0, []() {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.Cancel(a);
  EXPECT_EQ(loop.pending(), 1u);
}

// --- Delivery lane: (at, src, seq) order against a reference sort --------

using Key = std::tuple<double, uint64_t, uint64_t>;

class DeliveryLaneProperty : public ::testing::TestWithParam<uint64_t> {};

// Random deliveries on one loop: few distinct instants, so many sources
// tie on `at`; enqueued out of order; a third of the deliveries send again
// from inside their upcall. Every delivery must run in the order a
// reference sort of all keys gives, and the slab must never hold more
// slots than deliveries were ever pending at once.
TEST_P(DeliveryLaneProperty, RunsInReferenceOrderAndReusesSlots) {
  Rng rng(GetParam());
  SimEventLoop loop;
  std::vector<uint64_t> next_seq(8, 0);
  std::vector<Key> sent;
  std::vector<Key> ran;
  size_t pending = 0;
  size_t peak = 0;
  auto send = [&](double at) {
    SimDelivery d;
    d.at = at;
    d.src = rng.NextBelow(next_seq.size());
    d.seq = next_seq[d.src]++;
    d.from = "s" + std::to_string(d.src);
    d.bytes.assign(1 + rng.NextBelow(64), static_cast<uint8_t>(d.seq));
    sent.emplace_back(d.at, d.src, d.seq);
    peak = std::max(peak, ++pending);
    loop.EnqueueLocal(std::move(d));
  };
  loop.SetDeliverFn([&](const SimDelivery& d) {
    --pending;
    ran.emplace_back(d.at, d.src, d.seq);
    EXPECT_EQ(d.from, "s" + std::to_string(d.src));
    EXPECT_EQ(d.bytes.back(), static_cast<uint8_t>(d.seq));
    EXPECT_EQ(loop.Now(), d.at);
    if (rng.CoinFlip(0.33)) {
      send(loop.Now() + 0.25 * static_cast<double>(1 + rng.NextBelow(8)));
    }
  });
  for (int round = 0; round < 3; ++round) {
    double base = loop.Now() + 1.0;  // after everything already run
    for (int i = 0; i < 500; ++i) {
      send(base + 0.25 * static_cast<double>(rng.NextBelow(40)));
    }
    loop.RunAll();
    EXPECT_EQ(pending, 0u);
    EXPECT_EQ(loop.delivery_slots(), peak);
  }
  std::vector<Key> reference = sent;
  std::sort(reference.begin(), reference.end());
  EXPECT_EQ(ran, reference);
  EXPECT_EQ(loop.events_run(), sent.size());
}

// Deliveries staged on shard 0 reach shard 1 through its mailbox, folded
// at window starts, and interleave with shard 1's own sends (some made
// inside delivery upcalls): shard 1 still runs them in reference order.
TEST_P(DeliveryLaneProperty, MailboxFoldsKeepReferenceOrder) {
  ShardedSim sim(2);
  sim.set_sync_window(1.0);
  SimEventLoop* sender = sim.shard(0);
  SimEventLoop* receiver = sim.shard(1);
  Rng rng0(GetParam() ^ 0xA);
  Rng rng1(GetParam() ^ 0xB);
  uint64_t remote_seq = 0;  // source 1: shard 0's staged sends
  uint64_t local_seq = 0;   // source 2: shard 1's own sends
  std::vector<Key> remote_sent;
  std::vector<Key> local_sent;
  std::vector<Key> ran;
  auto local_send = [&](double at) {
    SimDelivery d;
    d.at = at;
    d.src = 2;
    d.seq = local_seq++;
    local_sent.emplace_back(d.at, d.src, d.seq);
    receiver->EnqueueLocal(std::move(d));
  };
  receiver->SetDeliverFn([&](const SimDelivery& d) {
    ran.emplace_back(d.at, d.src, d.seq);
    if (rng1.CoinFlip(0.3)) {
      local_send(receiver->Now() + 0.5 * static_cast<double>(rng1.NextBelow(4) + 1));
    }
  });
  // Shard 0 stages a burst every 0.5 s; each lands at least one sync
  // window later, with instants that tie across both sources.
  std::function<void()> burst = [&]() {
    for (uint64_t n = 1 + rng0.NextBelow(6); n > 0; --n) {
      SimDelivery d;
      d.at = sender->Now() + 1.0 + 0.5 * static_cast<double>(rng0.NextBelow(4));
      d.src = 1;
      d.seq = remote_seq++;
      remote_sent.emplace_back(d.at, d.src, d.seq);
      sender->StageRemote(1, std::move(d));
    }
    sender->ScheduleAfter(0.5, burst);
  };
  sender->ScheduleAfter(0.5, burst);
  std::function<void()> tick = [&]() {
    local_send(receiver->Now() + 0.5 * static_cast<double>(rng1.NextBelow(3) + 1));
    receiver->ScheduleAfter(0.5, tick);
  };
  receiver->ScheduleAfter(0.25, tick);
  sim.RunUntil(40.2);
  // Everything due by the deadline ran, in key order.
  std::vector<Key> reference;
  for (const std::vector<Key>* v : {&remote_sent, &local_sent}) {
    for (const Key& k : *v) {
      if (std::get<0>(k) <= 40.2) {
        reference.push_back(k);
      }
    }
  }
  std::sort(reference.begin(), reference.end());
  EXPECT_EQ(ran, reference);
  EXPECT_GT(remote_sent.size(), 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeliveryLaneProperty, ::testing::Values(1u, 7u, 1001u));

}  // namespace
}  // namespace p2
