#include "inject/injector.hpp"

#include <algorithm>
#include <string_view>

#include "telemetry/metrics.hpp"
#include "util/expect.hpp"

namespace ibvs::inject {

namespace {

telemetry::Counter& event_counter(std::string_view event) {
  return telemetry::Registry::global().counter(
      "ibvs_inject_events_total", {{"event", std::string(event)}},
      "Fault-injection events applied, by kind");
}

}  // namespace

FaultInjector::FaultInjector(Fabric& fabric, std::uint64_t seed)
    : fabric_(fabric), seed_(seed), rng_(seed), dead_(fabric.size(), false) {}

void FaultInjector::attach_transport(fabric::SmpTransport* transport) {
  if (transport == nullptr) return;
  if (std::find(transports_.begin(), transports_.end(), transport) ==
      transports_.end()) {
    transports_.push_back(transport);
  }
}

void FaultInjector::set_link_fault(NodeId node, PortNum port,
                                   const LinkFault& fault) {
  link_faults_[key(node, port)] = fault;
  // Mirror onto the far end so either direction of the cable sees it.
  if (const auto far = fabric_.peer(node, port)) {
    link_faults_[key(far->first, far->second)] = fault;
  }
}

void FaultInjector::clear_link_fault(NodeId node, PortNum port) {
  link_faults_.erase(key(node, port));
  if (const auto far = fabric_.peer(node, port)) {
    link_faults_.erase(key(far->first, far->second));
  }
}

const LinkFault& FaultInjector::fault_for(NodeId from, PortNum from_port,
                                          NodeId to,
                                          PortNum to_port) const noexcept {
  if (auto it = link_faults_.find(key(from, from_port));
      it != link_faults_.end()) {
    return it->second;
  }
  if (auto it = link_faults_.find(key(to, to_port));
      it != link_faults_.end()) {
    return it->second;
  }
  return global_fault_;
}

bool FaultInjector::drop_on_link(NodeId from, PortNum from_port, NodeId to,
                                 PortNum to_port) {
  const LinkFault& f = fault_for(from, from_port, to, to_port);
  if (f.drop_probability <= 0.0) return false;
  if (rng_.uniform() >= f.drop_probability) return false;
  ++events_.drops;
  return true;
}

double FaultInjector::jitter_us(NodeId from, PortNum from_port, NodeId to,
                                PortNum to_port) {
  const LinkFault& f = fault_for(from, from_port, to, to_port);
  if (f.jitter_max_us <= 0.0) return 0.0;
  return rng_.uniform() * f.jitter_max_us;
}

bool FaultInjector::cut_link(NodeId node, PortNum port) {
  const auto far = fabric_.peer(node, port);
  if (!far) return false;
  Cable cable{node, port, far->first, far->second};
  // Fabric::disconnect ticks LinkDowned on both ports.
  fabric_.disconnect(node, port);
  severed_.push_back(cable);
  ++events_.cuts;
  note_structural_event("link_cut");
  return true;
}

bool FaultInjector::restore_link(NodeId node, PortNum port) {
  const auto it = std::find_if(
      severed_.begin(), severed_.end(), [&](const Cable& c) {
        return (c.a == node && c.a_port == port) ||
               (c.b == node && c.b_port == port);
      });
  if (it == severed_.end()) return false;
  const Cable cable = *it;
  if (fabric_.node(cable.a).ports[cable.a_port].connected() ||
      fabric_.node(cable.b).ports[cable.b_port].connected()) {
    return false;  // an end was re-cabled in the meantime
  }
  severed_.erase(it);
  fabric_.connect(cable.a, cable.a_port, cable.b, cable.b_port);
  fabric_.node(cable.a).ports[cable.a_port].counters
      .add_link_error_recovery();
  fabric_.node(cable.b).ports[cable.b_port].counters
      .add_link_error_recovery();
  ++events_.restores;
  note_structural_event("link_restore");
  return true;
}

bool FaultInjector::flap_link(NodeId node, PortNum port) {
  if (!cut_link(node, port)) return false;
  IBVS_REQUIRE(restore_link(node, port), "flap could not restore its cut");
  ++events_.flaps;
  event_counter("link_flap").inc();
  return true;
}

std::size_t FaultInjector::kill_node(NodeId node) {
  IBVS_REQUIRE(node < fabric_.size(), "kill_node: node out of range");
  std::size_t cut = 0;
  const Node& n = fabric_.node(node);
  for (PortNum p = 1; p <= n.num_ports(); ++p) {
    if (n.ports[p].connected() && cut_link(node, p)) ++cut;
  }
  if (dead_.size() < fabric_.size()) dead_.resize(fabric_.size(), false);
  dead_[node] = true;
  ++events_.kills;
  note_structural_event("node_kill");
  return cut;
}

std::size_t FaultInjector::revive_node(NodeId node) {
  IBVS_REQUIRE(node < fabric_.size(), "revive_node: node out of range");
  std::size_t restored = 0;
  // Walk a snapshot: restore_link mutates severed_.
  std::vector<Cable> mine;
  for (const Cable& c : severed_) {
    if (c.a == node || c.b == node) mine.push_back(c);
  }
  for (const Cable& c : mine) {
    const PortNum port = c.a == node ? c.a_port : c.b_port;
    if (restore_link(node, port)) ++restored;
  }
  if (node < dead_.size()) dead_[node] = false;
  ++events_.revivals;
  note_structural_event("node_revive");
  return restored;
}

bool FaultInjector::is_dead(NodeId node) const noexcept {
  return node < dead_.size() && dead_[node];
}

void FaultInjector::invalidate_transports() {
  for (fabric::SmpTransport* t : transports_) t->invalidate_topology();
}

void FaultInjector::note_structural_event(const char* label) {
  event_counter(label).inc();
  invalidate_transports();
}

}  // namespace ibvs::inject
