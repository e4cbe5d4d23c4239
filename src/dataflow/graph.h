// Graph: owner of a dataflow element network.
#ifndef P2_DATAFLOW_GRAPH_H_
#define P2_DATAFLOW_GRAPH_H_

#include <memory>
#include <string>
#include <vector>

#include "src/dataflow/element.h"

namespace p2 {

namespace obs {
class Registry;
}  // namespace obs

// Owns elements and records the edges between their ports. The planner
// builds one Graph per P2 node.
class Graph {
 public:
  Graph() = default;
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  // Enables instrumentation: every element added after this call (Add is
  // the single construction chokepoint) gets its output counter and, for
  // kinds with internal drop/fire state, kind-specific series bound into
  // `registry` on `lane`. Call before the planner runs.
  void SetObs(obs::Registry* registry, size_t lane);

  // Takes ownership; returns a non-owning handle for wiring.
  template <typename T, typename... Args>
  T* Add(Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = owned.get();
    elements_.push_back(std::move(owned));
    if (obs_registry_ != nullptr) {
      ObserveElement(raw);
    }
    return raw;
  }

  // Connects src.out_port -> dst.in_port: src pushes into dst.
  void Connect(Element* src, int out_port, Element* dst, int in_port);

  size_t num_elements() const { return elements_.size(); }
  size_t num_edges() const { return num_edges_; }

  // Rough residency of the element network (E9 memory accounting).
  size_t ApproxBytes() const;

  // Element names, in creation order (for the spec_size experiment and
  // debugging dumps).
  std::vector<std::string> ElementNames() const;

  // Human-readable dump of the element graph, one edge per line
  // ("src.port -> dst.port") — the paper's §7 introspection support.
  std::string Dump() const;

 private:
  struct Edge {
    Element* src;
    int src_port;
    Element* dst;
    int dst_port;
  };

  // Binds metric handles onto a freshly-added element (out-of-line so the
  // templated Add stays free of registry details).
  void ObserveElement(Element* e);

  std::vector<std::unique_ptr<Element>> elements_;
  std::vector<Edge> edges_;
  size_t num_edges_ = 0;
  obs::Registry* obs_registry_ = nullptr;
  size_t obs_lane_ = 0;
};

}  // namespace p2

#endif  // P2_DATAFLOW_GRAPH_H_
