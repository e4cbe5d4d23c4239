// Reliable transport stack: frame codec bounds checking, bounded send
// queue, AIMD window dynamics, and ReliableChannel end-to-end behavior
// over the deterministic simulator (loss recovery, exactly-once delivery,
// epoch restarts, retry expiry, queue backpressure, interop passthrough).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/net/stack/aimd.h"
#include "src/net/stack/frame.h"
#include "src/net/wire.h"
#include "src/net/stack/reliable_channel.h"
#include "src/net/stack/send_queue.h"
#include "src/sim/event_loop.h"
#include "src/sim/network.h"

namespace p2 {
namespace {

// --- Frame codec -----------------------------------------------------------

TEST(StackFrame, DataWithPiggybackRoundTrips) {
  StackFrame f;
  f.has_data = true;
  f.has_ack = true;
  f.epoch = 0xDEADBEEF;
  f.seq = 42;
  f.ack_epoch = 0xCAFEF00D;
  f.cum_ack = 17;
  f.sack_bits = 0b1011;
  f.payload = {1, 2, 3, 4, 5};
  std::vector<uint8_t> bytes = EncodeStackFrame(f);
  EXPECT_EQ(bytes.size(), kStackHeaderBytes + 5);
  EXPECT_TRUE(LooksLikeStackFrame(bytes));

  std::optional<StackFrame> d = DecodeStackFrame(bytes);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->has_data);
  EXPECT_TRUE(d->has_ack);
  EXPECT_EQ(d->epoch, 0xDEADBEEFu);
  EXPECT_EQ(d->seq, 42u);
  EXPECT_EQ(d->ack_epoch, 0xCAFEF00Du);
  EXPECT_EQ(d->cum_ack, 17u);
  EXPECT_EQ(d->sack_bits, 0b1011u);
  EXPECT_EQ(d->payload, f.payload);
}

TEST(StackFrame, PureAckRoundTrips) {
  StackFrame f;
  f.has_ack = true;
  f.epoch = 7;
  f.ack_epoch = 9;
  f.cum_ack = 100;
  std::vector<uint8_t> bytes = EncodeStackFrame(f);
  EXPECT_EQ(bytes.size(), kStackHeaderBytes);
  std::optional<StackFrame> d = DecodeStackFrame(bytes);
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->has_data);
  EXPECT_TRUE(d->has_ack);
  EXPECT_TRUE(d->payload.empty());
}

TEST(StackFrame, EmptyPayloadDataFrame) {
  StackFrame f;
  f.has_data = true;
  f.epoch = 1;
  f.seq = 1;
  std::optional<StackFrame> d = DecodeStackFrame(EncodeStackFrame(f));
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->has_data);
  EXPECT_TRUE(d->payload.empty());
}

std::vector<uint8_t> FromHex(const std::string& hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 3) {
    out.push_back(static_cast<uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

StackFrame GoldenDataAck() {
  StackFrame f;
  f.has_data = true;
  f.has_ack = true;
  f.epoch = 0x01020304;
  f.seq = 5;
  f.ack_epoch = 0x0A0B0C0D;
  f.cum_ack = 17;
  f.sack_bits = 0x80000001;
  f.payload = {0xD2, 0xEE, 0x01};
  return f;
}

StackFrame GoldenPureAck() {
  StackFrame f;
  f.has_ack = true;
  f.epoch = 9;
  f.ack_epoch = 3;
  f.cum_ack = 2;
  f.sack_bits = 0x6;
  return f;
}

// The exact bytes on the wire: magic, version, checksum, flags, five
// little-endian u32 counters, then the payload of a DATA frame.
TEST(StackFrame, GoldenBytes) {
  EXPECT_EQ(EncodeStackFrame(GoldenDataAck()),
            FromHex("d5 03 fd 44 cb 9f 03 04 03 02 01 05 00 00 00 0d 0c 0b 0a 11 00 00 00 "
                    "01 00 00 80 d2 ee 01 "));
  EXPECT_EQ(EncodeStackFrame(GoldenPureAck()),
            FromHex("d5 03 00 5c e6 59 02 09 00 00 00 00 00 00 00 03 00 00 00 02 00 00 00 "
                    "06 00 00 00 "));
}

TEST(StackFrame, AnyDamagedByteSinksTheFrame) {
  for (const StackFrame& f : {GoldenDataAck(), GoldenPureAck()}) {
    const std::vector<uint8_t> good = EncodeStackFrame(f);
    ASSERT_TRUE(DecodeStackFrame(good).has_value());
    for (size_t pos = 0; pos < good.size(); ++pos) {
      for (int mask = 1; mask < 256; ++mask) {
        std::vector<uint8_t> bad = good;
        bad[pos] ^= static_cast<uint8_t>(mask);
        EXPECT_FALSE(DecodeStackFrame(bad).has_value()) << "byte " << pos << " ^ " << mask;
      }
    }
  }
}

TEST(StackFrame, MalformedInputRejected) {
  StackFrame f;
  f.has_data = true;
  f.has_ack = true;
  f.epoch = 1;
  f.seq = 1;
  f.payload = {9, 9};
  std::vector<uint8_t> good = EncodeStackFrame(f);

  // Truncations at every prefix length of the header must be rejected.
  for (size_t n = 0; n < kStackHeaderBytes; ++n) {
    std::vector<uint8_t> cut(good.begin(), good.begin() + n);
    EXPECT_FALSE(DecodeStackFrame(cut).has_value()) << "prefix " << n;
  }

  std::vector<uint8_t> bad_magic = good;
  bad_magic[0] = 0xD2;
  EXPECT_FALSE(DecodeStackFrame(bad_magic).has_value());

  std::vector<uint8_t> bad_version = good;
  bad_version[1] = 0x7F;
  EXPECT_FALSE(DecodeStackFrame(bad_version).has_value());

  // A damaged checksum alone must sink the frame.
  std::vector<uint8_t> bad_checksum = good;
  bad_checksum[2] ^= 0xFF;
  EXPECT_FALSE(DecodeStackFrame(bad_checksum).has_value());

  std::vector<uint8_t> unknown_flags = good;
  unknown_flags[6] = 0x80 | unknown_flags[6];
  SealFrame(&unknown_flags);
  EXPECT_FALSE(DecodeStackFrame(unknown_flags).has_value());

  std::vector<uint8_t> no_flags = good;
  no_flags[6] = 0;
  SealFrame(&no_flags);
  EXPECT_FALSE(DecodeStackFrame(no_flags).has_value());

  // A pure ACK with trailing bytes is garbage, not a payload.
  StackFrame ack;
  ack.has_ack = true;
  std::vector<uint8_t> trailing = EncodeStackFrame(ack);
  trailing.push_back(0x55);
  SealFrame(&trailing);
  EXPECT_FALSE(DecodeStackFrame(trailing).has_value());

  EXPECT_FALSE(DecodeStackFrame({}).has_value());
  EXPECT_FALSE(LooksLikeStackFrame({}));
  EXPECT_FALSE(LooksLikeStackFrame({0xD2, 0x01}));
}

// --- SendQueue -------------------------------------------------------------

TEST(SendQueue, FifoWithBoundAndDropCounters) {
  SendQueue q(2);
  EXPECT_TRUE(q.Push({{1}, TrafficClass::kLookup}));
  EXPECT_TRUE(q.Push({{2}, TrafficClass::kMaintenance}));
  EXPECT_FALSE(q.Push({{3}, TrafficClass::kMaintenance}));  // overflow
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.high_watermark(), 2u);

  auto a = q.Pop();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->payload, std::vector<uint8_t>{1});
  EXPECT_EQ(a->cls, TrafficClass::kLookup);
  auto b = q.Pop();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->payload, std::vector<uint8_t>{2});
  EXPECT_FALSE(q.Pop().has_value());
  // Draining frees capacity again.
  EXPECT_TRUE(q.Push({{4}, TrafficClass::kMaintenance}));
  EXPECT_EQ(q.high_watermark(), 2u);
}

// --- AIMD ------------------------------------------------------------------

TEST(Aimd, AdditiveIncreaseMultiplicativeDecrease) {
  AimdConfig cfg;
  cfg.initial_window = 4.0;
  AimdWindow w(cfg);
  EXPECT_EQ(w.Allowance(), 4u);
  w.OnAck();
  EXPECT_NEAR(w.window(), 4.25, 1e-9);
  w.OnLoss();
  EXPECT_NEAR(w.window(), 2.125, 1e-9);
  EXPECT_EQ(w.losses(), 1u);
}

TEST(Aimd, WindowStaysWithinBounds) {
  AimdConfig cfg;
  cfg.initial_window = 2.0;
  cfg.min_window = 1.0;
  cfg.max_window = 8.0;
  AimdWindow w(cfg);
  for (int i = 0; i < 1000; ++i) {
    w.OnAck();
  }
  EXPECT_DOUBLE_EQ(w.window(), 8.0);
  for (int i = 0; i < 50; ++i) {
    w.OnLoss();
  }
  EXPECT_DOUBLE_EQ(w.window(), 1.0);
  EXPECT_GE(w.Allowance(), 1u);
}

// --- ReliableChannel over the simulator ------------------------------------

class ReliableChannelTest : public ::testing::Test {
 protected:
  ReliableChannelTest() : net_(&loop_, Topology(TopologyConfig{}), 42) {}

  void MakeEndpoints(ReliableConfig cfg = ReliableConfig{}) {
    ta_ = net_.MakeTransport("a", 0);
    tb_ = net_.MakeTransport("b", 1);
    ca_ = std::make_unique<ReliableChannel>(ta_.get(), &loop_, cfg, 1);
    cb_ = std::make_unique<ReliableChannel>(tb_.get(), &loop_, cfg, 2);
    cb_->SetReceiver([this](const std::string& from, const std::vector<uint8_t>& bytes) {
      (void)from;
      received_.push_back(bytes);
    });
  }

  SimEventLoop loop_;
  SimNetwork net_;
  std::unique_ptr<SimTransport> ta_, tb_;
  std::unique_ptr<ReliableChannel> ca_, cb_;
  std::vector<std::vector<uint8_t>> received_;
};

TEST_F(ReliableChannelTest, LosslessDeliveryWithAcks) {
  MakeEndpoints();
  ca_->SendTo("b", {10, 20, 30}, TrafficClass::kLookup);
  loop_.RunUntil(5.0);
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0], (std::vector<uint8_t>{10, 20, 30}));

  ReliableChannelStats sa = ca_->Stats();
  EXPECT_EQ(sa.data_frames_sent, 1u);
  EXPECT_EQ(sa.retransmits, 0u);
  EXPECT_EQ(sa.acks_received, 1u);
  EXPECT_EQ(sa.rtt_samples, 1u);
  EXPECT_GT(sa.MeanSrttS(), 0.0);
  EXPECT_GT(sa.MeanCwnd(), 0.0);
  EXPECT_EQ(cb_->Stats().acks_sent, 1u);

  // Wire accounting: first transmission under the caller's class, the pure
  // ACK from b under control; nothing retransmitted.
  EXPECT_GT(ta_->stats().lookup_bytes_out, 0u);
  EXPECT_EQ(ta_->stats().retx_bytes_out, 0u);
  EXPECT_GT(tb_->stats().control_bytes_out, 0u);
}

TEST_F(ReliableChannelTest, TwentyPercentLossDeliversEverythingExactlyOnce) {
  net_.set_loss_rate(0.2);
  MakeEndpoints();
  constexpr int kPayloads = 100;
  for (int i = 0; i < kPayloads; ++i) {
    loop_.ScheduleAfter(0.05 * i, [this, i]() {
      ca_->SendTo("b", {static_cast<uint8_t>(i)}, TrafficClass::kMaintenance);
    });
  }
  loop_.RunUntil(0.05 * kPayloads + 120.0);

  ASSERT_EQ(received_.size(), static_cast<size_t>(kPayloads));
  std::set<uint8_t> unique;
  for (const auto& p : received_) {
    ASSERT_EQ(p.size(), 1u);
    unique.insert(p[0]);
  }
  EXPECT_EQ(unique.size(), static_cast<size_t>(kPayloads));  // no dup delivery

  ReliableChannelStats sa = ca_->Stats();
  EXPECT_GT(sa.retransmits, 0u);
  EXPECT_GT(sa.timeouts, 0u);
  EXPECT_GT(sa.rtt_samples, 0u);
  EXPECT_GT(ta_->stats().retx_bytes_out, 0u);
  EXPECT_EQ(sa.expired, 0u);  // nothing should give up at this loss rate
}

TEST_F(ReliableChannelTest, WindowOverflowGoesToQueueThenDrops) {
  ReliableConfig cfg;
  cfg.send_queue_capacity = 4;
  MakeEndpoints(cfg);
  // Initial AIMD allowance is 4 in-flight; 4 more queue; the rest drop.
  for (int i = 0; i < 12; ++i) {
    ca_->SendTo("b", {static_cast<uint8_t>(i)}, TrafficClass::kMaintenance);
  }
  ReliableChannelStats sa = ca_->Stats();
  EXPECT_EQ(sa.queue_drops, 4u);
  EXPECT_EQ(sa.queue_high_watermark, 4u);

  // ACKs open the window and drain the queue: the 8 admitted frames land.
  loop_.RunUntil(30.0);
  EXPECT_EQ(received_.size(), 8u);
  EXPECT_EQ(ca_->Stats().queue_drops, 4u);
}

TEST_F(ReliableChannelTest, FramesToDeadPeerExpireAfterMaxRetries) {
  ReliableConfig cfg;
  cfg.max_retries = 3;
  cfg.rtt.initial_rto_s = 0.5;
  cfg.rtt.max_rto_s = 1.0;
  MakeEndpoints(cfg);
  ca_->SendTo("nowhere", {1}, TrafficClass::kMaintenance);
  loop_.RunUntil(60.0);
  ReliableChannelStats sa = ca_->Stats();
  EXPECT_EQ(sa.expired, 1u);
  EXPECT_EQ(sa.retransmits, 3u);
  EXPECT_GT(sa.timeouts, 0u);
}

TEST_F(ReliableChannelTest, PlainDatagramsPassThroughToReceiver) {
  MakeEndpoints();
  // A best-effort peer (no stack) sends a raw datagram to b.
  auto tc = net_.MakeTransport("c", 2);
  tc->SendTo("b", {0xD2, 0x01, 0x99}, TrafficClass::kMaintenance);
  loop_.RunUntil(2.0);
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0], (std::vector<uint8_t>{0xD2, 0x01, 0x99}));
  // No reliability state materialized for the raw sender.
  EXPECT_EQ(cb_->Stats().acks_sent, 0u);
}

TEST_F(ReliableChannelTest, MalformedStackFramesAreCountedAndDropped) {
  MakeEndpoints();
  // A sealed DATA frame from c, then one payload byte flipped in transit:
  // the checksum no longer matches, so b must drop it without delivering
  // or acking anything.
  auto tc = net_.MakeTransport("c", 2);
  StackFrame f;
  f.has_data = true;
  f.epoch = 5;
  f.seq = 1;
  f.payload = {7, 8, 9};
  std::vector<uint8_t> damaged = EncodeStackFrame(f);
  damaged[kStackHeaderBytes + 1] ^= 0x01;
  tc->SendTo("b", damaged, TrafficClass::kMaintenance);
  loop_.RunUntil(2.0);
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(cb_->Stats().bad_frames, 1u);
  EXPECT_EQ(cb_->Stats().acks_sent, 0u);
  EXPECT_EQ(tb_->stats().msgs_out, 0u);

  // A well-formed frame claiming seq 0, which no sender ever assigns, is
  // the other malformed case.
  f.seq = 0;
  tc->SendTo("b", EncodeStackFrame(f), TrafficClass::kMaintenance);
  loop_.RunUntil(4.0);
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(cb_->Stats().bad_frames, 2u);
  EXPECT_EQ(tb_->stats().msgs_out, 0u);
}

TEST_F(ReliableChannelTest, EpochRestartIsNotMistakenForDuplicates) {
  MakeEndpoints();
  ca_->SendTo("b", {1}, TrafficClass::kMaintenance);
  ca_->SendTo("b", {2}, TrafficClass::kMaintenance);
  loop_.RunUntil(5.0);
  ASSERT_EQ(received_.size(), 2u);

  // Endpoint a restarts: same address, fresh channel incarnation whose
  // sequence space starts over at 1.
  ca_.reset();
  ta_.reset();
  ta_ = net_.MakeTransport("a", 0);
  ca_ = std::make_unique<ReliableChannel>(ta_.get(), &loop_, ReliableConfig{}, 99);
  ca_->SendTo("b", {3}, TrafficClass::kMaintenance);
  ca_->SendTo("b", {4}, TrafficClass::kMaintenance);
  loop_.RunUntil(10.0);
  ASSERT_EQ(received_.size(), 4u);
  EXPECT_EQ(received_[2], (std::vector<uint8_t>{3}));
  EXPECT_EQ(received_[3], (std::vector<uint8_t>{4}));
  EXPECT_EQ(cb_->Stats().duplicates_received, 0u);
}

TEST_F(ReliableChannelTest, ExpiredFrameDoesNotPinReceiverCumAck) {
  ReliableConfig cfg;
  cfg.max_retries = 2;
  cfg.rtt.initial_rto_s = 0.5;
  cfg.rtt.max_rto_s = 1.0;
  MakeEndpoints(cfg);
  // Establish a stream well past the 32-entry SACK window.
  for (int i = 0; i < 40; ++i) {
    loop_.ScheduleAfter(0.05 * i, [this, i]() {
      ca_->SendTo("b", {static_cast<uint8_t>(i)}, TrafficClass::kMaintenance);
    });
  }
  loop_.RunUntil(20.0);
  ASSERT_EQ(received_.size(), 40u);

  // A total outage long enough for one frame to exhaust its retries. The
  // receiver stays alive, so abandoning the sequence number must not leave
  // a permanent hole below its cumulative ack.
  net_.set_loss_rate(1.0);
  ca_->SendTo("b", {200}, TrafficClass::kMaintenance);
  loop_.RunUntil(35.0);
  EXPECT_EQ(ca_->Stats().expired, 1u);
  EXPECT_GE(ca_->Stats().stream_resets, 1u);

  // Connectivity recovers: post-outage sends deliver and are acked.
  net_.set_loss_rate(0.0);
  for (int i = 0; i < 5; ++i) {
    ca_->SendTo("b", {static_cast<uint8_t>(210 + i)}, TrafficClass::kMaintenance);
  }
  loop_.RunUntil(60.0);
  ASSERT_EQ(received_.size(), 45u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(received_[40 + i], (std::vector<uint8_t>{static_cast<uint8_t>(210 + i)}));
  }
  EXPECT_EQ(ca_->Stats().expired, 1u);  // nothing further gave up
}

TEST_F(ReliableChannelTest, ReceiverRestartTriggersStreamResetNotBlackhole) {
  MakeEndpoints();
  // Push the stream well past the 32-entry SACK window so a fresh receiver
  // cannot selectively ack continuing sequence numbers.
  for (int i = 0; i < 50; ++i) {
    loop_.ScheduleAfter(0.05 * i, [this, i]() {
      ca_->SendTo("b", {static_cast<uint8_t>(i)}, TrafficClass::kMaintenance);
    });
  }
  loop_.RunUntil(20.0);
  ASSERT_EQ(received_.size(), 50u);

  // b restarts at the same address (churn replacement): empty receive
  // state, while a continues its old numbering.
  cb_.reset();
  tb_.reset();
  tb_ = net_.MakeTransport("b", 1);
  cb_ = std::make_unique<ReliableChannel>(tb_.get(), &loop_, ReliableConfig{}, 77);
  std::vector<std::vector<uint8_t>> received2;
  cb_->SetReceiver([&](const std::string&, const std::vector<uint8_t>& bytes) {
    received2.push_back(bytes);
  });
  for (int i = 0; i < 10; ++i) {
    ca_->SendTo("b", {static_cast<uint8_t>(100 + i)}, TrafficClass::kMaintenance);
  }
  loop_.RunUntil(60.0);

  // Every post-restart payload arrives (the cum-ACK regression makes a
  // renumber its stream). The restart boundary may redeliver in-flight
  // frames once — at-least-once across incarnations, never a blackhole.
  std::set<uint8_t> unique;
  for (const auto& p : received2) {
    ASSERT_EQ(p.size(), 1u);
    unique.insert(p[0]);
  }
  EXPECT_EQ(unique.size(), 10u);
  EXPECT_LE(received2.size(), 20u);
  ReliableChannelStats sa = ca_->Stats();
  EXPECT_EQ(sa.stream_resets, 1u);
  EXPECT_EQ(sa.expired, 0u);
  // The new incarnation's ACK state converged: nothing left in flight, so
  // a further send goes straight through.
  received2.clear();
  ca_->SendTo("b", {0xFF}, TrafficClass::kMaintenance);
  loop_.RunUntil(65.0);
  ASSERT_EQ(received2.size(), 1u);
  EXPECT_EQ(ca_->Stats().stream_resets, 1u);
}

TEST_F(ReliableChannelTest, RequestResponseTrafficPiggybacksAcks) {
  MakeEndpoints();
  // b answers every request immediately, inside the receive handler — the
  // response frame must carry the ACK, replacing the delayed pure ACK.
  cb_->SetReceiver([this](const std::string& from, const std::vector<uint8_t>& bytes) {
    received_.push_back(bytes);
    cb_->SendTo(from, {0xAA}, TrafficClass::kMaintenance);
  });
  std::vector<std::vector<uint8_t>> responses;
  ca_->SetReceiver([&](const std::string&, const std::vector<uint8_t>& bytes) {
    responses.push_back(bytes);
  });
  for (int round = 0; round < 20; ++round) {
    loop_.ScheduleAfter(0.5 * round, [this, round]() {
      ca_->SendTo("b", {static_cast<uint8_t>(round)}, TrafficClass::kLookup);
    });
  }
  loop_.RunUntil(30.0);
  EXPECT_EQ(received_.size(), 20u);
  EXPECT_EQ(responses.size(), 20u);
  // b never needed a pure ACK frame; a (whose reverse direction is idle
  // when the response lands) acked them with delayed pure ACKs.
  EXPECT_EQ(cb_->Stats().acks_sent, 0u);
  EXPECT_GE(ca_->Stats().acks_received, 20u);
  EXPECT_EQ(tb_->stats().control_bytes_out, 0u);
  EXPECT_GT(ta_->stats().control_bytes_out, 0u);
}

}  // namespace
}  // namespace p2
