// Dataflow elements (§2.4, §3.3).
//
// P2 executes compiled OverLog as a graph of elements in the style of the
// Click modular router, except that edges carry reference-counted immutable
// tuples rather than packets. Every edge is a one-way push: the source
// invokes the destination, which always accepts the tuple. The paper's
// pull handoff, its "congested" push result and its wake-up callbacks are
// not built, because nothing here ever needs them: the one queue in a
// node, its input queue (InputQueue), sheds its oldest tuple when full
// (overlays are soft state) and drains itself on the executor. Inside one
// rule the paper's per-operator elements are fused: a rule strand
// (RuleDriver) runs the rule's joins, selections and assignments over one
// binding frame and applies the rule's tail (counting, retraction,
// deletion, routing) itself, so only event tuples cross element edges.
#ifndef P2_DATAFLOW_ELEMENT_H_
#define P2_DATAFLOW_ELEMENT_H_

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
  explicit Element(std::string name) : name_(std::move(name)) {}
  virtual ~Element() = default;
  Element(const Element&) = delete;
  Element& operator=(const Element&) = delete;

  const std::string& name() const { return name_; }

  // Receives `t` on input `port`. Default: fatal (element has no inputs).
  virtual void Push(int port, const TuplePtr& t);

  // Batched push: receives `ts` in order on input `port`. Elements that can
  // amortize per-tuple dispatch (demux partitioning, fan-out duplication)
  // override this; the default delivers tuple-by-tuple.
  virtual void PushMany(int port, const std::vector<TuplePtr>& ts);

  // --- Wiring (performed by Graph) ---
  struct PortRef {
    Element* element = nullptr;
    int port = 0;
  };
  void BindOutput(int out_port, Element* dst, int dst_port);

  size_t num_outputs() const { return outputs_.size(); }

  // Output-side tuple counter (per element kind), bound by
  // Graph::ObserveElement when metrics are enabled; PushOut/PushOutMany
  // and CountOut bump it. Null (the default) costs one predictable branch.
  void set_obs_out(obs::Counter* c) { obs_out_ = c; }

 protected:
  // Forwards downstream from `out_port`; an unconnected port drops.
  void PushOut(int out_port, const TuplePtr& t);
  // Batched forward; one virtual dispatch for the whole vector.
  void PushOutMany(int out_port, const std::vector<TuplePtr>& ts);
  // Counts one tuple emitted other than through a port (a strand's head).
  void CountOut();

  std::vector<PortRef> outputs_;

 private:
  std::string name_;
  obs::Counter* obs_out_ = nullptr;
};

}  // namespace p2

#endif  // P2_DATAFLOW_ELEMENT_H_
