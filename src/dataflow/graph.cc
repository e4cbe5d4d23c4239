#include "src/dataflow/graph.h"

#include "src/dataflow/basic_elements.h"
#include "src/dataflow/rel_elements.h"
#include "src/obs/registry.h"

namespace p2 {

void Graph::Connect(Element* src, int out_port, Element* dst, int in_port) {
  src->BindOutput(out_port, dst, in_port);
  edges_.push_back(Edge{src, out_port, dst, in_port});
  ++num_edges_;
}

void Graph::SetObs(obs::Registry* registry, size_t lane) {
  obs_registry_ = registry;
  obs_lane_ = lane;
}

namespace {

// Element names are "<kind>:<detail>" or "<kind>#<n>"; the kind prefix is
// the metric label, so all joins (say) across all rules and nodes on a lane
// share one series.
std::string KindOf(const std::string& name) {
  size_t end = name.find_first_of(":#");
  return end == std::string::npos ? name : name.substr(0, end);
}

}  // namespace

void Graph::ObserveElement(Element* e) {
  const std::string kind = KindOf(e->name());
  e->set_obs_out(obs_registry_->GetCounter(
      obs_lane_, "p2_element_out_total{kind=\"" + kind + "\"}"));
  if (auto* q = dynamic_cast<InputQueue*>(e)) {
    q->set_obs_dropped(obs_registry_->GetCounter(
        obs_lane_, "p2_queue_dropped_total{kind=\"" + kind + "\"}"));
  } else if (auto* d = dynamic_cast<DemuxByName*>(e)) {
    d->set_obs_unroutable(obs_registry_->GetCounter(
        obs_lane_, "p2_demux_unroutable_total{kind=\"" + kind + "\"}"));
  } else if (auto* r = dynamic_cast<RuleDriver*>(e)) {
    // "rule:<label>" where <label> is the planner's base+pred chain label.
    std::string label = e->name();
    size_t colon = label.find(':');
    if (colon != std::string::npos) {
      label = label.substr(colon + 1);
    }
    r->set_obs(obs_registry_->GetCounter(obs_lane_,
                                         "p2_rule_fires_total{rule=\"" + label + "\"}"),
               obs_registry_->GetHistogram(obs_lane_,
                                           "p2_rule_fire_ns{rule=\"" + label + "\"}"),
               obs_registry_->GetCounter(
                   obs_lane_, "p2_rule_malformed_total{rule=\"" + label + "\"}"));
  }
}

std::string Graph::Dump() const {
  std::string out;
  for (const auto& el : elements_) {
    out += "element " + el->name() + "\n";
  }
  for (const Edge& e : edges_) {
    out += e.src->name() + "." + std::to_string(e.src_port) + " -> " + e.dst->name() + "." +
           std::to_string(e.dst_port) + "\n";
  }
  return out;
}

size_t Graph::ApproxBytes() const {
  size_t bytes = sizeof(Graph);
  for (const auto& el : elements_) {
    bytes += sizeof(Element) + el->name().size() +
             el->num_outputs() * sizeof(Element::PortRef) + 64;
  }
  return bytes;
}

std::vector<std::string> Graph::ElementNames() const {
  std::vector<std::string> names;
  names.reserve(elements_.size());
  for (const auto& el : elements_) {
    names.push_back(el->name());
  }
  return names;
}

}  // namespace p2
