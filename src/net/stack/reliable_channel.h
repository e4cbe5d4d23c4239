// ReliableChannel: reliable delivery layered over any datagram Transport.
//
// The paper's insight applies to the transport too: retries, acks and
// congestion control are composable stages between the overlay rules and
// the raw socket. ReliableChannel is such a stage stack, itself a
// Transport, so it drops transparently between a P2 node and either
// backend (SimTransport or UdpTransport):
//
//   overlay tuples --> [SendQueue] -> [AIMD window] -> [RetryTx] -> inner
//   inner datagrams --> [AckRx / dedup] --> receiver (+ ACK piggyback)
//
// Per destination it keeps: a bounded SendQueue (backpressure + drop
// counters), an AIMD congestion window bounding frames in flight, a
// Jacobson/Karels RTT estimator driving the retransmit timer (Karn's rule:
// retransmitted frames never produce samples), and cumulative + selective
// ACK receive state. DATA frames piggyback ACKs of the reverse direction;
// a short delayed-ACK timer covers one-way flows. Delivery is exactly-once
// per frame within a stream incarnation but unordered, matching what the
// overlays already tolerate from plain UDP. Endpoint restarts (churn
// replacements reusing an address) are detected on both sides — stream-id
// changes reset receive state, cumulative-ACK regressions renumber the
// send stream — so a restart can redeliver frames that were in flight
// across the boundary, but never blackholes the connection.
//
// Frames that exhaust max_retries are dropped (counted as expired): the
// overlays' soft-state refresh makes indefinite retransmission to a dead
// peer pointless. Datagrams that do not parse as stack frames (e.g. from a
// best-effort peer) pass through to the receiver untouched.
#ifndef P2_NET_STACK_RELIABLE_CHANNEL_H_
#define P2_NET_STACK_RELIABLE_CHANNEL_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/harness/metrics.h"
#include "src/net/stack/aimd.h"
#include "src/net/stack/rtt.h"
#include "src/net/stack/send_queue.h"
#include "src/net/transport.h"
#include "src/runtime/executor.h"
#include "src/runtime/random.h"

namespace p2 {

struct ReliableConfig {
  size_t send_queue_capacity = 256;  // frames queued past the window, per dest
  int max_retries = 10;              // per frame; beyond -> expired
  double ack_delay_s = 0.02;         // pure-ACK flush delay
  size_t reorder_window = 1024;      // out-of-order seqs tracked per peer
  RttConfig rtt;
  AimdConfig aimd;
};

class ReliableChannel : public Transport {
 public:
  // `inner` and `executor` must outlive the channel. `seed` derives the
  // channel's epoch, which lets peers distinguish a restarted endpoint
  // reusing an address from a continuation of the old stream.
  ReliableChannel(Transport* inner, Executor* executor,
                  ReliableConfig config = ReliableConfig{}, uint64_t seed = 1);
  ~ReliableChannel() override;
  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  const std::string& local_addr() const override { return inner_->local_addr(); }

  void SendTo(const std::string& to, std::vector<uint8_t> bytes,
              TrafficClass cls) override;

  void SetReceiver(ReceiveFn fn) override { receiver_ = std::move(fn); }

  // Wire-level counters come from the inner transport, which sees every
  // frame this channel emits (first transmissions under the caller's
  // class, retransmits under kRetransmit, pure ACKs under kControl).
  const TrafficStats& stats() const override { return inner_->stats(); }

  // Reliability counters summed over all destinations.
  ReliableChannelStats Stats() const;

  uint32_t epoch() const { return epoch_; }

 private:
  struct InFlight {
    std::vector<uint8_t> payload;
    TrafficClass cls = TrafficClass::kMaintenance;
    double first_sent_at = 0;
    double last_sent_at = 0;
    int retries = 0;  // > 0 also means "RTT sample is ambiguous" (Karn)
    int nacks = 0;    // acks seen that acknowledged a later seq but not this
  };

  struct Peer {
    Peer(std::string address, const ReliableConfig& config)
        : addr(std::move(address)),
          queue(config.send_queue_capacity),
          cwnd(config.aimd),
          rtt(config.rtt) {}

    // The peer's transport address: frames to it go here.
    std::string addr;

    // --- send direction ---
    // Stream incarnation carried in our DATA frames to this peer; regenerated
    // by ResetSendStream when the peer demonstrably lost its receive state.
    uint32_t send_stream = 0;
    uint32_t next_seq = 1;
    uint32_t last_cum_seen = 0;
    // Consecutive acks whose cumulative value regressed below
    // last_cum_seen. One can be a stale reordered ack; two in a row means
    // the receiver restarted with empty state (its cum is pinned low and
    // every further ack regresses).
    int regressed_acks = 0;
    std::map<uint32_t, InFlight> in_flight;  // ordered: oldest = begin()
    SendQueue queue;
    AimdWindow cwnd;
    RttEstimator rtt;
    TimerId retx_timer = kInvalidTimer;
    // Time of the most recent retransmission to this peer. ACK information
    // regenerated after a retransmission may describe receptions that
    // happened long before, so frames sent earlier than this are Karn-
    // ambiguous for RTT sampling even if they themselves were never resent.
    double last_retx_at = -1;

    // --- receive direction ---
    bool recv_epoch_known = false;
    uint32_t recv_epoch = 0;
    uint32_t cum_recv = 0;           // highest contiguously received seq
    std::set<uint32_t> recv_ahead;   // received above cum_recv
    TimerId ack_timer = kInvalidTimer;

    // --- counters ---
    ReliableChannelStats counters;
  };

  // Minimal view of a decoded frame's data fields (avoids including
  // frame.h here; filled from a decoded StackFrame in the .cc).
  struct StackFrameView {
    uint32_t epoch;
    uint32_t seq;
    const std::vector<uint8_t>* payload;
  };

  // The peer at `addr`, created on first use. Peers are never erased
  // before the channel dies (whose destructor cancels their timers), and
  // map nodes do not move, so timers may hold a Peer*.
  Peer& GetPeer(const std::string& addr);
  uint32_t NextStreamId();
  // Starts a fresh stream incarnation to `peer`: new stream id, sequences
  // renumbered from 1, all unacked frames resent. Triggered when the
  // peer's cumulative ACK moves backwards — impossible within one receiver
  // incarnation, so the peer must have restarted (churn replacement
  // reusing the address) and lost its receive state for our old numbering.
  void ResetSendStream(Peer& peer);
  void OnDatagram(const std::string& from, const std::vector<uint8_t>& bytes);
  void HandleAckInfo(Peer& peer, uint32_t ack_epoch, uint32_t cum_ack, uint32_t sack_bits);
  void HandleData(Peer& peer, const StackFrameView& data);
  // Admits queued frames up to the congestion window.
  void DrainQueue(Peer& peer);
  void TransmitData(Peer& peer, uint32_t seq, InFlight& frame, TrafficClass cls);
  void ArmRetxTimer(Peer& peer);
  void OnRetxTimeout(Peer& peer);
  void ScheduleAck(Peer& peer);
  void SendPureAck(Peer& peer);
  // Fills the piggyback/ack fields for a frame headed to `peer` and
  // cancels any pending delayed-ACK timer (the frame carries the ack).
  void FillAckState(Peer& peer, bool* has_ack, uint32_t* ack_epoch,
                    uint32_t* cum_ack, uint32_t* sack_bits);

  Transport* inner_;
  Executor* executor_;
  ReliableConfig config_;
  Rng rng_;  // stream-id generation
  uint32_t epoch_;
  ReceiveFn receiver_;
  std::unordered_map<std::string, Peer> peers_;
  // Stack frames dropped as malformed: a failed decode (before any peer
  // state exists for the sender) or a DATA frame carrying seq 0.
  uint64_t bad_frames_ = 0;
};

}  // namespace p2

#endif  // P2_NET_STACK_RELIABLE_CHANNEL_H_
