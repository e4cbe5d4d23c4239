// Dataflow elements (§2.4, §3.3).
//
// P2 executes compiled OverLog as a graph of elements in the style of the
// Click modular router, except that edges carry reference-counted immutable
// tuples rather than packets. Handoff between elements is either push
// (source invokes destination) or pull (destination invokes source), chosen
// at graph-construction time. Inside one rule the paper's per-operator
// elements are fused: a rule strand (RuleDriver) runs the rule's joins,
// selections and assignments over one binding frame, so only event and
// head tuples cross element edges.
//
// Signaling follows the paper's design: a push returns 1 when further
// pushes are welcome and 0 when the destination is congested, in which case
// the callback passed with the push is invoked once it is acceptable to
// push again. A pull returns nullptr when no tuple is available, and the
// callback is invoked when one may be. Push deliveries themselves always
// succeed (the tuple is accepted even when 0 is returned).
#ifndef P2_DATAFLOW_ELEMENT_H_
#define P2_DATAFLOW_ELEMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/runtime/tuple.h"

namespace p2 {

namespace obs {
class Counter;
class LogHistogram;
}  // namespace obs

class Element {
 public:
  using Callback = std::function<void()>;

  explicit Element(std::string name) : name_(std::move(name)) {}
  virtual ~Element() = default;
  Element(const Element&) = delete;
  Element& operator=(const Element&) = delete;

  const std::string& name() const { return name_; }

  // Receives `t` on input `port`. Default: fatal (element has no push
  // inputs). Returns 1 = keep pushing, 0 = wait for cb.
  virtual int Push(int port, const TuplePtr& t, const Callback& cb);

  // Batched push: receives `ts` in order on input `port`. Elements that can
  // amortize per-tuple dispatch (demux partitioning, fan-out duplication)
  // override this; the default delivers tuple-by-tuple. Returns the AND of
  // the per-tuple signals (0 = congested, wait for cb — the tuples are
  // still accepted, matching Push semantics).
  virtual int PushMany(int port, const std::vector<TuplePtr>& ts, const Callback& cb);

  // Produces a tuple from output `port`, or nullptr if blocked (cb will be
  // invoked when a retry may succeed). Default: fatal.
  virtual TuplePtr Pull(int port, const Callback& cb);

  // --- Wiring (performed by Graph) ---
  struct PortRef {
    Element* element = nullptr;
    int port = 0;
  };
  void BindOutput(int out_port, Element* dst, int dst_port);
  void BindInput(int in_port, Element* src, int src_port);

  size_t num_outputs() const { return outputs_.size(); }
  size_t num_inputs() const { return inputs_.size(); }

  // Output-side tuple counter (per element kind), bound by
  // Graph::ObserveElement when metrics are enabled; PushOut/PushOutMany
  // bump it. Null (the default) costs one predictable branch.
  void set_obs_out(obs::Counter* c) { obs_out_ = c; }

 protected:
  // Forwards downstream from `out_port`; returns the destination's signal,
  // or 1 if the port is unconnected (tuple is dropped).
  int PushOut(int out_port, const TuplePtr& t, const Callback& cb = nullptr);
  // Batched forward; one virtual dispatch for the whole vector.
  int PushOutMany(int out_port, const std::vector<TuplePtr>& ts,
                  const Callback& cb = nullptr);
  // Pulls from the upstream bound to input `in_port`.
  TuplePtr PullIn(int in_port, const Callback& cb = nullptr);

  std::vector<PortRef> outputs_;
  std::vector<PortRef> inputs_;

 private:
  std::string name_;
  obs::Counter* obs_out_ = nullptr;
};

}  // namespace p2

#endif  // P2_DATAFLOW_ELEMENT_H_
