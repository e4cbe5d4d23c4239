#include "src/harness/churn.h"

namespace p2 {

void ChurnDriver::Start() {
  for (size_t i = 0; i < slots_; ++i) {
    ScheduleDeath(i);
  }
}

void ChurnDriver::ScheduleDeath(size_t slot) {
  double lifetime = rng_.NextExponential(config_.session_mean_s);
  executor_->ScheduleAfter(lifetime, [this, slot]() {
    if (replace_(slot)) {
      ++deaths_;
    }
    ScheduleDeath(slot);
  });
}

}  // namespace p2
