// ShardedSim engine mechanics: the deterministic delivery lane, the
// conservative-window coordinator, the control timeline, and the
// cross-shard mailbox.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/sim/event_loop.h"
#include "src/sim/network.h"
#include "src/sim/shard.h"
#include "src/sim/topology.h"

namespace p2 {
namespace {

// Deliveries carry address ids; a test names each message by an id into
// this table.
std::vector<std::string>& Tags() {
  static std::vector<std::string> tags;
  return tags;
}

SimDelivery Msg(double at, uint64_t src, uint64_t seq, const std::string& tag) {
  SimDelivery d;
  d.at = at;
  d.src = src;
  d.seq = seq;
  d.from = static_cast<uint32_t>(Tags().size());
  Tags().push_back(tag);
  return d;
}

TEST(DeliveryLane, OrdersByTimeSourceSequence) {
  SimEventLoop loop;
  std::vector<std::string> order;
  loop.SetDeliverFn([&](const SimDelivery& d) { order.push_back(Tags()[d.from]); });
  // Enqueued out of order on purpose: pop order must follow the key, not
  // insertion.
  loop.EnqueueLocal(Msg(2.0, 1, 0, "t2-s1"));
  loop.EnqueueLocal(Msg(1.0, 9, 5, "t1-s9"));
  loop.EnqueueLocal(Msg(1.0, 2, 7, "t1-s2-q7"));
  loop.EnqueueLocal(Msg(1.0, 2, 3, "t1-s2-q3"));
  loop.RunAll();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], "t1-s2-q3");
  EXPECT_EQ(order[1], "t1-s2-q7");
  EXPECT_EQ(order[2], "t1-s9");
  EXPECT_EQ(order[3], "t2-s1");
  EXPECT_DOUBLE_EQ(loop.Now(), 2.0);
  EXPECT_EQ(loop.events_run(), 4u);
}

TEST(DeliveryLane, TimersFireBeforeDeliveriesAtTheSameInstant) {
  SimEventLoop loop;
  std::vector<std::string> order;
  loop.SetDeliverFn([&](const SimDelivery& d) { order.push_back(Tags()[d.from]); });
  loop.EnqueueLocal(Msg(1.0, 0, 0, "delivery"));
  loop.ScheduleAfter(1.0, [&]() { order.push_back("timer"); });
  loop.RunAll();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "timer");
  EXPECT_EQ(order[1], "delivery");
}

TEST(DeliveryLane, WindowExcludesItsEndUnlessInclusive) {
  SimEventLoop loop;
  int fired = 0;
  loop.ScheduleAfter(1.0, [&]() { ++fired; });
  loop.RunWindow(1.0, /*inclusive=*/false);
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(loop.Now(), 1.0);
  loop.RunWindow(1.0, /*inclusive=*/true);
  EXPECT_EQ(fired, 1);
}

TEST(ShardedSim, ShardsKnowTheirIndex) {
  ShardedSim sim(3);
  EXPECT_EQ(sim.num_shards(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sim.shard(i)->shard_index(), i);
  }
}

TEST(ShardedSim, TimersRunAcrossWindowsAndAtTheDeadline) {
  ShardedSim sim(2);
  sim.set_sync_window(0.25);
  std::vector<double> fired;
  sim.shard(0)->ScheduleAfter(0.1, [&]() { fired.push_back(0.1); });
  sim.shard(0)->ScheduleAfter(1.0, [&]() { fired.push_back(1.0); });  // == deadline
  sim.RunUntil(1.0);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(sim.Now(), 1.0);
  // Timers scheduled between runs continue from the barrier.
  sim.shard(1)->ScheduleAfter(0.5, [&]() { fired.push_back(1.5); });
  sim.RunUntil(2.0);
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_DOUBLE_EQ(fired[2], 1.5);
}

TEST(ShardedSim, ControlTasksFireAtExactTimesBeforeShardEvents) {
  ShardedSim sim(2);
  sim.set_sync_window(0.4);  // 1.25 is not a window multiple
  std::vector<std::string> order;
  sim.control()->ScheduleAfter(1.25, [&]() {
    order.push_back("control@" + std::to_string(sim.Now()));
  });
  sim.shard(0)->ScheduleAfter(1.25, [&]() { order.push_back("shard"); });
  sim.RunUntil(2.0);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "control@1.250000");  // exact, not quantized to 0.4
  EXPECT_EQ(order[1], "shard");             // same instant: control first
}

TEST(ShardedSim, ControlTimelineCancelWorks) {
  ShardedSim sim(1);
  int fired = 0;
  TimerId id = sim.control()->ScheduleAfter(0.5, [&]() { ++fired; });
  sim.control()->Cancel(id);
  sim.RunUntil(1.0);
  EXPECT_EQ(fired, 0);
}

// Two endpoints in different domains land on different shards; a datagram
// between them crosses via the mailbox and arrives after the topology
// latency — never earlier than the conservative window.
TEST(ShardedNetwork, CrossShardDatagramRespectsLatency) {
  ShardedSim sim(2);
  SimNetwork net(&sim, Topology(TopologyConfig{}), 7);
  auto a = net.MakeTransport("a", 0);  // domain 0 -> shard 0
  auto b = net.MakeTransport("b", 1);  // domain 1 -> shard 1
  ASSERT_NE(a->shard(), b->shard());
  double arrived_at = -1;
  std::string from;
  b->SetReceiver([&](const std::string& f, const std::vector<uint8_t>&) {
    arrived_at = sim.shard(1)->Now();
    from = f;
  });
  // Send from a's shard thread via a timer on a's executor.
  sim.shard(0)->ScheduleAfter(0.0, [&]() {
    a->SendTo("b", std::vector<uint8_t>{1, 2, 3}, TrafficClass::kMaintenance);
  });
  sim.RunUntil(1.0);
  EXPECT_EQ(from, "a");
  ASSERT_GE(arrived_at, net.topology().MinCrossDomainLatency());
  EXPECT_LT(arrived_at, 0.2);
  EXPECT_EQ(net.delivered(), 1u);
}

// Flood both directions inside one window: each shard's whole batch is
// flushed into the other's mailbox at the barrier and folded at the next
// window, so every datagram arrives.
TEST(ShardedNetwork, CrossShardFloodInOneWindowDeliversEverything) {
  constexpr int kMsgs = 500;
  ShardedSim sim(2);
  SimNetwork net(&sim, Topology(TopologyConfig{}), 11);
  auto a = net.MakeTransport("a", 0);
  auto b = net.MakeTransport("b", 1);
  int got_a = 0;
  int got_b = 0;
  a->SetReceiver([&](const std::string&, const std::vector<uint8_t>&) { ++got_a; });
  b->SetReceiver([&](const std::string&, const std::vector<uint8_t>&) { ++got_b; });
  sim.shard(0)->ScheduleAfter(0.0, [&]() {
    for (int i = 0; i < kMsgs; ++i) {
      a->SendTo("b", std::vector<uint8_t>{42}, TrafficClass::kMaintenance);
    }
  });
  sim.shard(1)->ScheduleAfter(0.0, [&]() {
    for (int i = 0; i < kMsgs; ++i) {
      b->SendTo("a", std::vector<uint8_t>{43}, TrafficClass::kMaintenance);
    }
  });
  sim.RunUntil(2.0);
  EXPECT_EQ(got_a, kMsgs);
  EXPECT_EQ(got_b, kMsgs);
}

// A ping-pong fleet spanning every domain must execute the identical event
// total (and per-endpoint delivery counts) at any shard count.
TEST(ShardedNetwork, EventTotalsAreShardCountInvariant) {
  constexpr size_t kEndpoints = 6;
  constexpr int kRounds = 40;
  auto run = [&](size_t shards, std::vector<uint64_t>* delivered) -> uint64_t {
    ShardedSim sim(shards);
    SimNetwork net(&sim, Topology(TopologyConfig{}), 99);
    std::vector<std::unique_ptr<SimTransport>> eps;
    for (size_t i = 0; i < kEndpoints; ++i) {
      eps.push_back(net.MakeTransport("e" + std::to_string(i), i));
    }
    for (size_t i = 0; i < kEndpoints; ++i) {
      SimTransport* self = eps[i].get();
      std::string next = "e" + std::to_string((i + 1) % kEndpoints);
      self->SetReceiver([self, next](const std::string&,
                                     const std::vector<uint8_t>& bytes) {
        if (bytes[0] > 0) {
          std::vector<uint8_t> fwd = bytes;
          --fwd[0];
          self->SendTo(next, std::move(fwd), TrafficClass::kMaintenance);
        }
      });
    }
    sim.shard(0)->ScheduleAfter(0.0, [&]() {
      eps[0]->SendTo("e1", std::vector<uint8_t>{kRounds}, TrafficClass::kLookup);
    });
    sim.RunUntil(60.0);
    for (size_t i = 0; i < kEndpoints; ++i) {
      delivered->push_back(eps[i]->stats().msgs_in);
    }
    return sim.events_run();
  };
  std::vector<uint64_t> d1;
  std::vector<uint64_t> d4;
  uint64_t e1 = run(1, &d1);
  uint64_t e4 = run(4, &d4);
  EXPECT_EQ(e1, e4);
  EXPECT_EQ(d1, d4);
  uint64_t total = 0;
  for (uint64_t d : d1) {
    total += d;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kRounds) + 1);
}

}  // namespace
}  // namespace p2
