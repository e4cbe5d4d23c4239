// Real-socket event loop: a poll()-based, single-threaded,
// run-to-completion Executor plus a UDP Transport.
//
// This is the stand-in for the paper's libasync runtime: the same P2 node
// code that runs under the simulator runs here against wall-clock time and
// real datagrams, enabling true multi-process local deployment (see
// examples/two_process_udp.cc).
#ifndef P2_NET_UDP_LOOP_H_
#define P2_NET_UDP_LOOP_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/harness/metrics.h"
#include "src/net/transport.h"
#include "src/runtime/executor.h"
#include "src/runtime/timer_wheel.h"

namespace p2 {

class UdpTransport;

class UdpLoop : public Executor {
 public:
  UdpLoop();
  ~UdpLoop() override;

  double Now() const override;
  TimerId ScheduleAfter(double delay, Task task) override;
  void Cancel(TimerId id) override;

  // Creates a transport bound to 127.0.0.1:`port` (0 = kernel-assigned).
  // Returns nullptr on bind failure.
  std::unique_ptr<UdpTransport> MakeTransport(uint16_t port);

  // Runs the loop for `seconds` of wall-clock time (poll + timers).
  void RunFor(double seconds);
  // Requests RunFor to return at the next iteration.
  void Stop() { stopping_ = true; }

 private:
  friend class UdpTransport;
  void RegisterFd(int fd, UdpTransport* t);
  void UnregisterFd(int fd);
  void PollOnce(double max_wait_s);
  void RunDueTimers();

  double t0_;
  bool stopping_ = false;
  TimerWheel timers_;  // O(1) schedule/cancel, (deadline, FIFO) firing order
  std::unordered_map<int, UdpTransport*> fds_;
};

class UdpTransport : public Transport {
 public:
  ~UdpTransport() override;

  const std::string& local_addr() const override { return addr_; }
  void SendTo(const std::string& to, std::vector<uint8_t> bytes,
              TrafficClass cls) override;
  void SetReceiver(ReceiveFn fn) override { receiver_ = std::move(fn); }
  const TrafficStats& stats() const override { return stats_; }
  // ::sendto failures observed on this socket (not counted in stats()).
  const SendFailureCounters& send_failures() const { return send_failures_; }

 private:
  friend class UdpLoop;
  UdpTransport(UdpLoop* loop, int fd, std::string addr)
      : loop_(loop), fd_(fd), addr_(std::move(addr)) {}
  void OnReadable();

  UdpLoop* loop_;
  int fd_;
  std::string addr_;
  ReceiveFn receiver_;
  TrafficStats stats_;
  SendFailureCounters send_failures_;
};

}  // namespace p2

#endif  // P2_NET_UDP_LOOP_H_
