#include "src/dataflow/element.h"

#include "src/obs/registry.h"
#include "src/runtime/logging.h"

namespace p2 {

void Element::Push(int port, const TuplePtr& t) {
  (void)port;
  (void)t;
  P2_FATAL("element '%s' has no push input", name_.c_str());
}

void Element::PushMany(int port, const std::vector<TuplePtr>& ts) {
  for (const TuplePtr& t : ts) {
    Push(port, t);
  }
}

void Element::BindOutput(int out_port, Element* dst, int dst_port) {
  if (outputs_.size() <= static_cast<size_t>(out_port)) {
    outputs_.resize(out_port + 1);
  }
  outputs_[out_port] = PortRef{dst, dst_port};
}

void Element::PushOut(int out_port, const TuplePtr& t) {
  CountOut();
  if (static_cast<size_t>(out_port) >= outputs_.size() ||
      outputs_[out_port].element == nullptr) {
    return;  // Unconnected output: drop.
  }
  PortRef& ref = outputs_[out_port];
  ref.element->Push(ref.port, t);
}

void Element::PushOutMany(int out_port, const std::vector<TuplePtr>& ts) {
  if (obs_out_ != nullptr) {
    obs_out_->Inc(ts.size());
  }
  if (static_cast<size_t>(out_port) >= outputs_.size() ||
      outputs_[out_port].element == nullptr) {
    return;  // Unconnected output: drop.
  }
  PortRef& ref = outputs_[out_port];
  ref.element->PushMany(ref.port, ts);
}

void Element::CountOut() {
  if (obs_out_ != nullptr) {
    obs_out_->Inc();
  }
}

}  // namespace p2
