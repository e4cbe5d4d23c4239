#include "src/net/udp_loop.h"

#include <gtest/gtest.h>

#include "src/p2/node.h"

namespace p2 {
namespace {

TEST(UdpLoop, TimersFireInOrder) {
  UdpLoop loop;
  std::vector<int> order;
  loop.ScheduleAfter(0.02, [&]() { order.push_back(2); });
  loop.ScheduleAfter(0.01, [&]() { order.push_back(1); });
  TimerId cancelled = loop.ScheduleAfter(0.015, [&]() { order.push_back(99); });
  loop.Cancel(cancelled);
  loop.RunFor(0.1);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(UdpLoop, DatagramRoundTrip) {
  UdpLoop loop;
  auto a = loop.MakeTransport(0);
  auto b = loop.MakeTransport(0);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a->local_addr(), b->local_addr());
  std::vector<uint8_t> got;
  std::string got_from;
  b->SetReceiver([&](const std::string& from, const std::vector<uint8_t>& bytes) {
    got = bytes;
    got_from = from;
    loop.Stop();
  });
  a->SendTo(b->local_addr(), {1, 2, 3, 4}, TrafficClass::kMaintenance);
  loop.RunFor(2.0);
  EXPECT_EQ(got, (std::vector<uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(got_from, a->local_addr());
  EXPECT_EQ(a->stats().msgs_out, 1u);
  EXPECT_EQ(b->stats().msgs_in, 1u);
}

TEST(UdpLoop, BandwidthAccountingIsSymmetric) {
  // kUdpIpHeaderBytes must be counted identically on the send and receive
  // side, so a lossless exchange reports bytes_in == bytes_out.
  UdpLoop loop;
  auto a = loop.MakeTransport(0);
  auto b = loop.MakeTransport(0);
  int got = 0;
  b->SetReceiver([&](const std::string&, const std::vector<uint8_t>&) {
    if (++got == 3) {
      loop.Stop();
    }
  });
  a->SendTo(b->local_addr(), {1, 2, 3}, TrafficClass::kLookup);
  a->SendTo(b->local_addr(), std::vector<uint8_t>(100, 7), TrafficClass::kMaintenance);
  a->SendTo(b->local_addr(), std::vector<uint8_t>(9, 1), TrafficClass::kRetransmit);
  loop.RunFor(2.0);
  ASSERT_EQ(got, 3);
  EXPECT_EQ(b->stats().bytes_in, a->stats().bytes_out);
  EXPECT_EQ(b->stats().msgs_in, a->stats().msgs_out);
  // The per-class split adds up to the total.
  EXPECT_EQ(a->stats().lookup_bytes_out + a->stats().maint_bytes_out +
                a->stats().retx_bytes_out + a->stats().control_bytes_out,
            a->stats().bytes_out);
  EXPECT_EQ(a->stats().retx_bytes_out, 9u + kUdpIpHeaderBytes);
}

TEST(UdpLoop, BadDestinationIsDroppedGracefully) {
  UdpLoop loop;
  auto a = loop.MakeTransport(0);
  a->SendTo("not-an-address", {1}, TrafficClass::kMaintenance);
  a->SendTo("127.0.0.1:0", {1}, TrafficClass::kMaintenance);
  loop.RunFor(0.05);  // nothing should crash
}

TEST(UdpLoop, OversizeDatagramCountedNotSent) {
  UdpLoop loop;
  auto a = loop.MakeTransport(0);
  auto b = loop.MakeTransport(0);
  // 256 KiB exceeds the 64 KiB UDP datagram limit: the kernel refuses with
  // EMSGSIZE. The failure must be counted, and must stay out of the
  // evaluation's bandwidth figures (nothing reached the wire).
  std::vector<uint8_t> huge(256 * 1024, 0x5A);
  a->SendTo(b->local_addr(), std::move(huge), TrafficClass::kMaintenance);
  EXPECT_EQ(a->send_failures().oversize, 1u);
  EXPECT_EQ(a->send_failures().total(), 1u);
  EXPECT_EQ(a->stats().msgs_out, 0u);
  EXPECT_EQ(a->stats().bytes_out, 0u);
  // A normal datagram afterwards goes through and is accounted.
  a->SendTo(b->local_addr(), {1, 2, 3}, TrafficClass::kMaintenance);
  EXPECT_EQ(a->stats().msgs_out, 1u);
  EXPECT_EQ(a->send_failures().total(), 1u);
}

// The same P2 node code that runs under the simulator runs over real
// sockets: a two-node OverLog ping-pong through the kernel's UDP stack.
TEST(UdpLoop, P2NodesOverRealSockets) {
  UdpLoop loop;
  auto ta = loop.MakeTransport(0);
  auto tb = loop.MakeTransport(0);
  const std::string program =
      "p1 pong@Y(Y,X) :- ping@X(X,Y).\n"
      "p2 ack@X(X,Y) :- pong@Y(Y,X).\n";
  P2NodeConfig ca;
  ca.executor = &loop;
  ca.transport = ta.get();
  ca.seed = 1;
  P2NodeConfig cb;
  cb.executor = &loop;
  cb.transport = tb.get();
  cb.seed = 2;
  P2Node na(ca);
  P2Node nb(cb);
  std::string err;
  ASSERT_TRUE(na.Install(program, &err)) << err;
  ASSERT_TRUE(nb.Install(program, &err)) << err;
  na.Start();
  nb.Start();
  int acks = 0;
  na.Subscribe("ack", [&](const TuplePtr&) {
    ++acks;
    loop.Stop();
  });
  na.Inject(Tuple::Make(
      "ping", {Value::Addr(ta->local_addr()), Value::Addr(tb->local_addr())}));
  loop.RunFor(3.0);
  EXPECT_EQ(acks, 1);
}

}  // namespace
}  // namespace p2
