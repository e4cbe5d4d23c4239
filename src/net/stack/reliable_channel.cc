#include "src/net/stack/reliable_channel.h"

#include <algorithm>

#include "src/net/stack/frame.h"

namespace p2 {

ReliableChannel::ReliableChannel(Transport* inner, Executor* executor,
                                 ReliableConfig config, uint64_t seed)
    : inner_(inner), executor_(executor), config_(config), rng_(seed) {
  epoch_ = NextStreamId();
  inner_->SetReceiver([this](const std::string& from, const std::vector<uint8_t>& bytes) {
    OnDatagram(from, bytes);
  });
}

uint32_t ReliableChannel::NextStreamId() {
  uint32_t id = static_cast<uint32_t>(rng_.NextU64());
  return id == 0 ? 1 : id;
}

ReliableChannel::~ReliableChannel() {
  for (auto& [addr, peer] : peers_) {
    (void)addr;
    executor_->Cancel(peer.retx_timer);
    executor_->Cancel(peer.ack_timer);
  }
  // The inner transport may outlive this channel; its receiver must not
  // call back into a destroyed object.
  inner_->SetReceiver(ReceiveFn());
}

ReliableChannel::Peer& ReliableChannel::GetPeer(const std::string& addr) {
  auto it = peers_.find(addr);
  if (it == peers_.end()) {
    it = peers_.emplace(addr, Peer(addr, config_)).first;
    it->second.send_stream = NextStreamId();
  }
  return it->second;
}

void ReliableChannel::SendTo(const std::string& to, std::vector<uint8_t> bytes,
                             TrafficClass cls) {
  Peer& peer = GetPeer(to);
  if (peer.in_flight.size() >= peer.cwnd.Allowance()) {
    peer.queue.Push(SendQueue::Item{std::move(bytes), cls});
    return;
  }
  double now = executor_->Now();
  uint32_t seq = peer.next_seq++;
  auto [it, inserted] =
      peer.in_flight.emplace(seq, InFlight{std::move(bytes), cls, now, now, 0});
  (void)inserted;
  TransmitData(peer, seq, it->second, cls);
  ArmRetxTimer(peer);
}

void ReliableChannel::TransmitData(Peer& peer, uint32_t seq, InFlight& frame,
                                   TrafficClass cls) {
  StackFrame f;
  f.has_data = true;
  f.epoch = peer.send_stream;
  f.seq = seq;
  FillAckState(peer, &f.has_ack, &f.ack_epoch, &f.cum_ack, &f.sack_bits);
  frame.last_sent_at = executor_->Now();
  if (cls == TrafficClass::kRetransmit) {
    ++peer.counters.retransmits;
    peer.counters.retransmit_bytes += frame.payload.size();
    peer.last_retx_at = frame.last_sent_at;
  } else {
    ++peer.counters.data_frames_sent;
  }
  inner_->SendTo(peer.addr, EncodeStackFrame(f, frame.payload), cls);
}

void ReliableChannel::DrainQueue(Peer& peer) {
  double now = executor_->Now();
  while (peer.in_flight.size() < peer.cwnd.Allowance()) {
    std::optional<SendQueue::Item> item = peer.queue.Pop();
    if (!item.has_value()) {
      break;
    }
    uint32_t seq = peer.next_seq++;
    TrafficClass cls = item->cls;
    auto [it, inserted] =
        peer.in_flight.emplace(seq, InFlight{std::move(item->payload), cls, now, now, 0});
    (void)inserted;
    TransmitData(peer, seq, it->second, cls);
  }
  ArmRetxTimer(peer);
}

void ReliableChannel::ArmRetxTimer(Peer& peer) {
  if (peer.retx_timer != kInvalidTimer || peer.in_flight.empty()) {
    return;
  }
  double due = peer.in_flight.begin()->second.last_sent_at + peer.rtt.Rto();
  double delay = std::max(0.0, due - executor_->Now());
  Peer* p = &peer;
  peer.retx_timer = executor_->ScheduleAfter(delay, [this, p]() { OnRetxTimeout(*p); });
}

void ReliableChannel::OnRetxTimeout(Peer& peer) {
  peer.retx_timer = kInvalidTimer;
  if (peer.in_flight.empty()) {
    return;
  }
  auto oldest = peer.in_flight.begin();
  double due = oldest->second.last_sent_at + peer.rtt.Rto();
  double now = executor_->Now();
  if (due > now + 1e-9) {
    // Stale wakeup: an ACK advanced the window since this timer was armed.
    ArmRetxTimer(peer);
    return;
  }
  ++peer.counters.timeouts;
  peer.rtt.Backoff();
  peer.cwnd.OnLoss();
  if (oldest->second.retries >= config_.max_retries) {
    ++peer.counters.expired;
    peer.in_flight.erase(oldest);
    // Abandoning a sequence number would pin a live receiver's cumulative
    // ack forever (the hole can never fill, and the 32-bit SACK window
    // eventually slides past every new frame). Renumber the stream so the
    // remaining frames start over from 1; retry budgets carry over, so
    // frames to a genuinely dead peer still drain and expire.
    ResetSendStream(peer);
    return;
  }
  ++oldest->second.retries;
  TransmitData(peer, oldest->first, oldest->second, TrafficClass::kRetransmit);
  DrainQueue(peer);
  ArmRetxTimer(peer);
}

void ReliableChannel::OnDatagram(const std::string& from, const std::vector<uint8_t>& bytes) {
  if (!LooksLikeStackFrame(bytes)) {
    // Best-effort peer: hand the raw datagram straight up.
    if (receiver_) {
      receiver_(from, bytes);
    }
    return;
  }
  std::optional<StackFrame> f = DecodeStackFrame(bytes);
  if (!f.has_value()) {
    ++bad_frames_;  // malformed stack frame: drop
    return;
  }
  Peer& peer = GetPeer(from);
  if (f->has_ack) {
    HandleAckInfo(peer, f->ack_epoch, f->cum_ack, f->sack_bits);
  }
  if (f->has_data) {
    StackFrameView view{f->epoch, f->seq, &f->payload};
    HandleData(peer, view);
  }
}

void ReliableChannel::HandleAckInfo(Peer& peer, uint32_t ack_epoch, uint32_t cum_ack,
                                    uint32_t sack_bits) {
  if (ack_epoch != peer.send_stream) {
    return;  // stale: acks a previous stream incarnation
  }
  if (cum_ack < peer.last_cum_seen) {
    // A receiver's cumulative ACK never regresses within one incarnation.
    // A single regression can be a stale reordered ack; a second in a row
    // means the peer restarted (churn replacement reusing the address)
    // with no receive state for our numbering: start a fresh stream.
    if (++peer.regressed_acks >= 2) {
      peer.regressed_acks = 0;
      ResetSendStream(peer);
    }
    return;
  }
  peer.regressed_acks = 0;
  ++peer.counters.acks_received;
  double now = executor_->Now();
  // Highest sequence this ack proves received (cumulative or selective):
  // frames below it that remain in flight were skipped over, i.e. nacked.
  uint32_t highest_acked = cum_ack;
  for (uint32_t i = 0; i < 32; ++i) {
    if ((sack_bits & (1u << i)) != 0) {
      highest_acked = cum_ack + 1 + i;
    }
  }
  // Karn's rule, extended: a sample is unambiguous only if the frame was
  // never retransmitted AND was sent after the last retransmission to this
  // peer — ACK state regenerated by a retransmitted frame may describe a
  // reception that happened arbitrarily long ago.
  bool have_sample = false;
  double sample = 0;
  uint32_t sample_seq = 0;
  auto consider_sample = [&](uint32_t seq, const InFlight& frame) {
    if (frame.retries == 0 && frame.first_sent_at >= peer.last_retx_at &&
        seq >= sample_seq) {
      have_sample = true;
      sample = now - frame.first_sent_at;
      sample_seq = seq;
    }
  };
  bool progress = false;
  while (!peer.in_flight.empty() && peer.in_flight.begin()->first <= cum_ack) {
    auto it = peer.in_flight.begin();
    consider_sample(it->first, it->second);
    peer.in_flight.erase(it);
    peer.cwnd.OnAck();
    progress = true;
  }
  for (uint32_t i = 0; i < 32; ++i) {
    if ((sack_bits & (1u << i)) == 0) {
      continue;
    }
    uint32_t seq = cum_ack + 1 + i;
    auto it = peer.in_flight.find(seq);
    if (it == peer.in_flight.end()) {
      continue;
    }
    consider_sample(seq, it->second);
    peer.in_flight.erase(it);
    peer.cwnd.OnAck();
    progress = true;
  }
  if (have_sample) {
    peer.rtt.AddSample(sample);
    ++peer.counters.rtt_samples;
  } else if (progress) {
    peer.rtt.ResetBackoff();
  }
  // SACK-driven fast retransmit: every frame the peer skipped over twice
  // is presumed lost and resent now, without waiting for the RTO. One loss
  // signal per ack event, however many holes it fills.
  bool loss_signalled = false;
  for (auto& [seq, frame] : peer.in_flight) {
    if (seq >= highest_acked) {
      break;  // ordered map: nothing further was skipped
    }
    if (++frame.nacks < 2 || frame.retries >= config_.max_retries) {
      continue;
    }
    frame.nacks = 0;
    ++frame.retries;
    if (!loss_signalled) {
      loss_signalled = true;
      peer.cwnd.OnLoss();
    }
    ++peer.counters.fast_retransmits;
    TransmitData(peer, seq, frame, TrafficClass::kRetransmit);
  }
  peer.last_cum_seen = cum_ack;
  DrainQueue(peer);
}

void ReliableChannel::ResetSendStream(Peer& peer) {
  ++peer.counters.stream_resets;
  peer.send_stream = NextStreamId();
  peer.last_cum_seen = 0;
  peer.regressed_acks = 0;
  double now = executor_->Now();
  // Unacked in-flight frames (in send order) go ahead of queued ones; all
  // of them renumber from 1 under the new stream id. The receiver sees the
  // id change and resets its receive state for us, so the new numbering is
  // unambiguous. Retry counts survive the renumbering: already-sent frames
  // stay Karn-ambiguous (>= 1) and keep their consumed budget, so a dead
  // destination cannot be retried forever through repeated resets.
  struct Pending {
    std::vector<uint8_t> payload;
    TrafficClass cls;
    int retries;
  };
  std::vector<Pending> pending;
  pending.reserve(peer.in_flight.size() + peer.queue.size());
  for (auto& [seq, frame] : peer.in_flight) {
    (void)seq;
    pending.push_back(
        Pending{std::move(frame.payload), frame.cls, std::max(1, frame.retries)});
  }
  peer.in_flight.clear();
  while (std::optional<SendQueue::Item> item = peer.queue.Pop()) {
    pending.push_back(Pending{std::move(item->payload), item->cls, 0});
  }
  peer.next_seq = 1;
  for (Pending& item : pending) {
    if (peer.in_flight.size() < peer.cwnd.Allowance()) {
      uint32_t seq = peer.next_seq++;
      auto [it, inserted] = peer.in_flight.emplace(
          seq, InFlight{std::move(item.payload), item.cls, now, now, item.retries});
      (void)inserted;
      TransmitData(peer, seq, it->second,
                   item.retries > 0 ? TrafficClass::kRetransmit : item.cls);
    } else {
      peer.queue.Push(SendQueue::Item{std::move(item.payload), item.cls});
    }
  }
  ArmRetxTimer(peer);
}

void ReliableChannel::HandleData(Peer& peer, const StackFrameView& data) {
  if (data.seq == 0) {
    ++bad_frames_;  // seq 0 is never assigned
    return;
  }
  if (!peer.recv_epoch_known || peer.recv_epoch != data.epoch) {
    // New incarnation of the sender (restart/churn replacement reusing the
    // address): its sequence space starts over.
    peer.recv_epoch_known = true;
    peer.recv_epoch = data.epoch;
    peer.cum_recv = 0;
    peer.recv_ahead.clear();
  }
  bool duplicate =
      data.seq <= peer.cum_recv || peer.recv_ahead.count(data.seq) > 0;
  if (duplicate) {
    // Our ACK was lost; re-ack so the sender stops retransmitting.
    ++peer.counters.duplicates_received;
    ScheduleAck(peer);
    return;
  }
  if (peer.recv_ahead.size() >= config_.reorder_window) {
    // Unbounded out-of-order state would let a hostile sender grow memory
    // forever; drop (no ack) and let the retransmit close the gap first.
    ++peer.counters.reorder_drops;
    return;
  }
  peer.recv_ahead.insert(data.seq);
  while (!peer.recv_ahead.empty() &&
         *peer.recv_ahead.begin() == peer.cum_recv + 1) {
    peer.recv_ahead.erase(peer.recv_ahead.begin());
    ++peer.cum_recv;
  }
  ScheduleAck(peer);
  if (receiver_) {
    receiver_(peer.addr, *data.payload);
  }
}

void ReliableChannel::ScheduleAck(Peer& peer) {
  if (peer.ack_timer != kInvalidTimer) {
    return;
  }
  Peer* p = &peer;
  peer.ack_timer = executor_->ScheduleAfter(config_.ack_delay_s, [this, p]() {
    p->ack_timer = kInvalidTimer;
    SendPureAck(*p);
  });
}

void ReliableChannel::SendPureAck(Peer& peer) {
  StackFrame f;
  f.epoch = epoch_;
  FillAckState(peer, &f.has_ack, &f.ack_epoch, &f.cum_ack, &f.sack_bits);
  if (!f.has_ack) {
    return;  // nothing ever received from this peer
  }
  ++peer.counters.acks_sent;
  inner_->SendTo(peer.addr, EncodeStackFrame(f), TrafficClass::kControl);
}

void ReliableChannel::FillAckState(Peer& peer, bool* has_ack, uint32_t* ack_epoch,
                                   uint32_t* cum_ack, uint32_t* sack_bits) {
  *has_ack = peer.recv_epoch_known;
  *ack_epoch = 0;
  *cum_ack = 0;
  *sack_bits = 0;
  if (!peer.recv_epoch_known) {
    return;
  }
  *ack_epoch = peer.recv_epoch;
  *cum_ack = peer.cum_recv;
  for (uint32_t seq : peer.recv_ahead) {
    if (seq > peer.cum_recv && seq <= peer.cum_recv + 32) {
      *sack_bits |= 1u << (seq - peer.cum_recv - 1);
    }
  }
  // This frame carries the ack state; a pending delayed ACK is redundant.
  if (peer.ack_timer != kInvalidTimer) {
    executor_->Cancel(peer.ack_timer);
    peer.ack_timer = kInvalidTimer;
  }
}

ReliableChannelStats ReliableChannel::Stats() const {
  ReliableChannelStats out;
  for (const auto& [addr, peer] : peers_) {
    (void)addr;
    ReliableChannelStats s = peer.counters;
    s.queue_drops = peer.queue.drops();
    s.queue_high_watermark = peer.queue.high_watermark();
    if (peer.next_seq > 1) {  // only destinations we actually sent to
      s.cwnd_sum = peer.cwnd.window();
      s.cwnd_count = 1;
      if (peer.rtt.has_sample()) {
        s.srtt_sum_s = peer.rtt.srtt_s();
        s.srtt_count = 1;
      }
    }
    out.MergeFrom(s);
  }
  out.bad_frames = bad_frames_;
  return out;
}

}  // namespace p2
