#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/sim/network.h"

namespace p2 {
namespace {

TEST(Topology, IntraDomainLatency) {
  Topology topo(TopologyConfig{});
  // Nodes 0 and 10 share domain 0 (i mod 10).
  EXPECT_DOUBLE_EQ(topo.LatencyBetween(0, 10), 0.004);
  EXPECT_DOUBLE_EQ(topo.LatencyBetween(0, 0), 0.0);
}

TEST(Topology, InterDomainLatency) {
  Topology topo(TopologyConfig{});
  // Nodes 0 and 1 are in different domains: 2ms + 100ms + 2ms.
  EXPECT_DOUBLE_EQ(topo.LatencyBetween(0, 1), 0.104);
  EXPECT_DOUBLE_EQ(topo.LatencyBetween(1, 0), 0.104);
}

TEST(Topology, SerializationDelayScalesWithSize) {
  Topology topo(TopologyConfig{});
  // 1000 bytes over two 10 Mb/s access links = 2 * 8000/10e6 = 1.6 ms,
  // plus 8000/100e6 = 0.08 ms on the inter-domain link.
  double intra = topo.SerializationDelay(0, 10, 1000);
  double inter = topo.SerializationDelay(0, 1, 1000);
  EXPECT_NEAR(intra, 0.0016, 1e-9);
  EXPECT_NEAR(inter, 0.00168, 1e-9);
  EXPECT_DOUBLE_EQ(topo.SerializationDelay(3, 3, 1000), 0.0);
}

class SimNetworkTest : public ::testing::Test {
 protected:
  SimNetworkTest() : net_(&loop_, Topology(TopologyConfig{}), 1) {}
  SimEventLoop loop_;
  SimNetwork net_;
};

TEST_F(SimNetworkTest, DeliversWithTopologyLatency) {
  auto a = net_.MakeTransport("a", 0);
  auto b = net_.MakeTransport("b", 1);  // different domain
  double delivered_at = -1;
  b->SetReceiver([&](const std::string& from, const std::vector<uint8_t>& bytes) {
    EXPECT_EQ(from, "a");
    EXPECT_EQ(bytes.size(), 3u);
    delivered_at = loop_.Now();
  });
  a->SendTo("b", {1, 2, 3}, TrafficClass::kMaintenance);
  loop_.RunAll();
  // 104 ms propagation + serialization of 3+28 bytes.
  EXPECT_GT(delivered_at, 0.104);
  EXPECT_LT(delivered_at, 0.106);
}

TEST_F(SimNetworkTest, CountsBytesWithHeaderOverhead) {
  auto a = net_.MakeTransport("a", 0);
  auto b = net_.MakeTransport("b", 1);
  a->SendTo("b", std::vector<uint8_t>(100, 0), TrafficClass::kMaintenance);
  a->SendTo("b", std::vector<uint8_t>(50, 0), TrafficClass::kLookup);
  loop_.RunAll();
  EXPECT_EQ(a->stats().msgs_out, 2u);
  EXPECT_EQ(a->stats().bytes_out, 100u + 50u + 2 * kUdpIpHeaderBytes);
  EXPECT_EQ(a->stats().maint_bytes_out, 100u + kUdpIpHeaderBytes);
  EXPECT_EQ(a->stats().lookup_bytes_out, 50u + kUdpIpHeaderBytes);
  EXPECT_EQ(b->stats().msgs_in, 2u);
  EXPECT_EQ(b->stats().bytes_in, a->stats().bytes_out);
}

TEST_F(SimNetworkTest, SendToDeadNodeVanishes) {
  auto a = net_.MakeTransport("a", 0);
  {
    auto b = net_.MakeTransport("b", 1);
    b->SetReceiver([](const std::string&, const std::vector<uint8_t>&) {
      FAIL() << "delivered to dead node";
    });
  }  // b destroyed: unregistered
  a->SendTo("b", {1}, TrafficClass::kMaintenance);
  loop_.RunAll();
  EXPECT_EQ(net_.delivered(), 0u);
  // Sender still counted the attempt (it cannot know).
  EXPECT_EQ(a->stats().msgs_out, 1u);
}

TEST_F(SimNetworkTest, NodeDyingInFlightDropsPacket) {
  auto a = net_.MakeTransport("a", 0);
  auto b = net_.MakeTransport("b", 1);
  int got = 0;
  b->SetReceiver([&](const std::string&, const std::vector<uint8_t>&) { ++got; });
  a->SendTo("b", {1}, TrafficClass::kMaintenance);
  loop_.ScheduleAfter(0.01, [&]() { b.reset(); });  // dies before 104ms delivery
  loop_.RunAll();
  EXPECT_EQ(got, 0);
}

TEST_F(SimNetworkTest, LossRateDropsApproximately) {
  auto a = net_.MakeTransport("a", 0);
  auto b = net_.MakeTransport("b", 10);  // same domain: fast
  int got = 0;
  b->SetReceiver([&](const std::string&, const std::vector<uint8_t>&) { ++got; });
  net_.set_loss_rate(0.5);
  for (int i = 0; i < 1000; ++i) {
    a->SendTo("b", {1}, TrafficClass::kMaintenance);
  }
  loop_.RunAll();
  EXPECT_GT(got, 400);
  EXPECT_LT(got, 600);
}

TEST_F(SimNetworkTest, AddressReuseAfterDeath) {
  auto a = net_.MakeTransport("a", 0);
  a.reset();
  auto a2 = net_.MakeTransport("a", 5);
  EXPECT_EQ(a2->local_addr(), "a");
}

// Datagrams find their destination by address when they land, not when
// they are sent: an endpoint restarted at the same address receives what
// was in flight to its predecessor, with the sender's address intact.
TEST_F(SimNetworkTest, RestartAtSameAddressReceivesInFlightDatagrams) {
  auto a = net_.MakeTransport("a", 0);
  auto b = net_.MakeTransport("b", 1);
  std::vector<std::string> got;
  b->SetReceiver([&](const std::string&, const std::vector<uint8_t>&) { got.push_back("old"); });
  a->SendTo("b", {1}, TrafficClass::kMaintenance);
  a->SendTo("b", {2}, TrafficClass::kMaintenance);
  loop_.ScheduleAfter(0.01, [&]() {
    b.reset();
    b = net_.MakeTransport("b", 1);
    b->SetReceiver([&](const std::string& from, const std::vector<uint8_t>& bytes) {
      got.push_back(from + ":" + std::to_string(bytes[0]));
    });
  });
  loop_.RunAll();
  EXPECT_EQ(got, (std::vector<std::string>{"a:1", "a:2"}));
  EXPECT_EQ(net_.delivered(), 2u);
}

// Many addresses, bound, killed and re-bound in any order: each datagram
// reaches the endpoint holding its destination address when it lands,
// and names its sender by the address the sender was bound to.
TEST_F(SimNetworkTest, AddressIdsResolveAcrossManyRebinds) {
  std::vector<std::unique_ptr<SimTransport>> nodes;
  std::vector<std::vector<std::string>> got(8);
  auto bind = [&](size_t i) {
    nodes[i] = net_.MakeTransport("n" + std::to_string(i), i);
    nodes[i]->SetReceiver([&got, i](const std::string& from, const std::vector<uint8_t>&) {
      got[i].push_back(from);
    });
  };
  nodes.resize(8);
  for (size_t i = 0; i < 8; ++i) {
    bind(7 - i);
  }
  nodes[3].reset();  // dead: sends to n3 vanish
  for (size_t i = 0; i < 8; ++i) {
    if (nodes[i] != nullptr) {
      nodes[i]->SendTo("n" + std::to_string((i + 1) % 8), {0}, TrafficClass::kMaintenance);
      nodes[i]->SendTo("nowhere", {0}, TrafficClass::kMaintenance);
    }
  }
  loop_.RunAll();
  for (size_t i = 0; i < 8; ++i) {
    std::vector<std::string> want;
    if (i != 3 && i != 4) {  // n3 is dead and sent nothing to n4
      want.push_back("n" + std::to_string((i + 7) % 8));
    }
    EXPECT_EQ(got[i], want) << "n" << i;
  }
  bind(3);  // back at its old address
  nodes[2]->SendTo("n3", {0}, TrafficClass::kMaintenance);
  loop_.RunAll();
  EXPECT_EQ(got[3], (std::vector<std::string>{"n2"}));
}

}  // namespace
}  // namespace p2
