// Churn driver (§5.2), following the Bamboo methodology the paper cites:
// node session times are exponentially distributed around a configured
// mean; when a session ends the node is destroyed and immediately replaced
// by a fresh node, keeping the population constant.
//
// The driver churns any fleet of fixed node slots: the caller supplies the
// executor deaths are scheduled on, the slot count and the function that
// kills and replaces one slot's node.
#ifndef P2_HARNESS_CHURN_H_
#define P2_HARNESS_CHURN_H_

#include <cstdint>
#include <functional>
#include <utility>

#include "src/runtime/executor.h"
#include "src/runtime/random.h"

namespace p2 {

struct ChurnConfig {
  double session_mean_s = 3840;  // 64 minutes
  uint64_t seed = 7;
};

class ChurnDriver {
 public:
  // `replace(slot)` kills the node in `slot` and replaces it with a fresh
  // one; it returns false if the slot could not be churned (e.g. it holds
  // the last live node).
  ChurnDriver(Executor* executor, size_t slots, std::function<bool(size_t)> replace,
              ChurnConfig config)
      : executor_(executor),
        slots_(slots),
        replace_(std::move(replace)),
        config_(config),
        rng_(config.seed) {}

  // Schedules an exponential death time for every slot. Replacement nodes
  // get their own death scheduled automatically, so churn continues until
  // the executor stops running.
  void Start();

  uint64_t deaths() const { return deaths_; }

 private:
  void ScheduleDeath(size_t slot);

  Executor* executor_;
  size_t slots_;
  std::function<bool(size_t)> replace_;
  ChurnConfig config_;
  Rng rng_;
  uint64_t deaths_ = 0;
};

}  // namespace p2

#endif  // P2_HARNESS_CHURN_H_
