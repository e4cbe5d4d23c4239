// Deterministic datagram loss injection for any Transport.
//
// The simulator injects loss in the fabric (SimNetwork::set_loss_rate);
// the UDP backend has no fabric to inject into, so `--loss` wraps each
// endpoint in a LossyTransport that drops outgoing datagrams with the
// configured probability. Drops are drawn from a seeded Rng, so a given
// (seed, send sequence) is reproducible.
#ifndef P2_NET_STACK_LOSSY_H_
#define P2_NET_STACK_LOSSY_H_

#include <string>
#include <vector>

#include "src/net/transport.h"
#include "src/runtime/random.h"

namespace p2 {

class LossyTransport : public Transport {
 public:
  LossyTransport(Transport* inner, double loss_rate, uint64_t seed)
      : inner_(inner), loss_rate_(loss_rate), rng_(seed) {}

  const std::string& local_addr() const override { return inner_->local_addr(); }

  void SendTo(const std::string& to, std::vector<uint8_t> bytes,
              TrafficClass cls) override {
    if (loss_rate_ > 0 && rng_.CoinFlip(loss_rate_)) {
      ++dropped_;
      return;
    }
    inner_->SendTo(to, std::move(bytes), cls);
  }

  void SetReceiver(ReceiveFn fn) override { inner_->SetReceiver(std::move(fn)); }
  const TrafficStats& stats() const override { return inner_->stats(); }

  uint64_t dropped() const { return dropped_; }

 private:
  Transport* inner_;
  double loss_rate_;
  Rng rng_;
  uint64_t dropped_ = 0;
};

}  // namespace p2

#endif  // P2_NET_STACK_LOSSY_H_
