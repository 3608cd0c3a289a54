#include "ib/fabric.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace ibvs {

NodeId Fabric::add_switch(std::string_view name, std::size_t num_ports,
                          SwitchFlavor flavor) {
  IBVS_REQUIRE(num_ports >= 1 && num_ports <= 254,
               "switch port count must be in [1, 254]");
  Node n;
  n.kind = NodeKind::kSwitch;
  n.flavor = flavor;
  n.name = std::string(name);
  n.guid = allocate_guid();
  n.ports.resize(num_ports + 1);
  nodes_.push_back(std::move(n));
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId Fabric::add_ca(std::string_view name, std::size_t num_ports,
                      CaRole role) {
  IBVS_REQUIRE(num_ports >= 1 && num_ports <= 254,
               "CA port count must be in [1, 254]");
  Node n;
  n.kind = NodeKind::kCa;
  n.role = role;
  n.name = std::string(name);
  n.guid = allocate_guid();
  n.ports.resize(num_ports + 1);
  nodes_.push_back(std::move(n));
  return static_cast<NodeId>(nodes_.size() - 1);
}

void Fabric::connect(NodeId a, PortNum port_a, NodeId b, PortNum port_b) {
  IBVS_REQUIRE(a != b, "cannot cable a node to itself");
  Node& na = node(a);
  Node& nb = node(b);
  IBVS_REQUIRE(port_a >= 1 && port_a <= na.num_ports(),
               "port A out of range");
  IBVS_REQUIRE(port_b >= 1 && port_b <= nb.num_ports(),
               "port B out of range");
  IBVS_REQUIRE(!na.ports[port_a].connected(), "port A already cabled");
  IBVS_REQUIRE(!nb.ports[port_b].connected(), "port B already cabled");
  na.ports[port_a].peer = b;
  na.ports[port_a].peer_port = port_b;
  nb.ports[port_b].peer = a;
  nb.ports[port_b].peer_port = port_a;
}

void Fabric::disconnect(NodeId id, PortNum port) {
  Node& n = node(id);
  IBVS_REQUIRE(port >= 1 && port <= n.num_ports(), "port out of range");
  Port& p = n.ports[port];
  IBVS_REQUIRE(p.connected(), "port not cabled");
  Node& peer_node = node(p.peer);
  Port& q = peer_node.ports[p.peer_port];
  q.peer = kInvalidNode;
  q.peer_port = 0;
  p.peer = kInvalidNode;
  p.peer_port = 0;
  // Both ends see the link go down (LinkDownedCounter).
  p.counters.add_link_downed();
  q.counters.add_link_downed();
}

std::vector<CableSpec> Fabric::cables_of(NodeId id) const {
  const Node& n = node(id);
  std::vector<CableSpec> result;
  for (PortNum p = 1; p <= n.num_ports(); ++p) {
    const Port& port = n.ports[p];
    if (!port.connected()) continue;
    result.push_back(CableSpec{id, p, port.peer, port.peer_port});
  }
  return result;
}

std::vector<CableSpec> Fabric::sever_all(NodeId id) {
  std::vector<CableSpec> cables = cables_of(id);
  for (const CableSpec& c : cables) disconnect(c.a, c.port_a);
  return cables;
}

std::optional<PortNum> Fabric::free_port(NodeId id) const {
  const Node& n = node(id);
  for (PortNum p = 1; p <= n.num_ports(); ++p) {
    if (!n.ports[p].connected()) return p;
  }
  return std::nullopt;
}

const Node& Fabric::node(NodeId id) const {
  IBVS_REQUIRE(id < nodes_.size(), "node id out of range");
  return nodes_[id];
}

Node& Fabric::node(NodeId id) {
  IBVS_REQUIRE(id < nodes_.size(), "node id out of range");
  return nodes_[id];
}

std::vector<NodeId> Fabric::switch_ids(bool physical_only) const {
  std::vector<NodeId> result;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (!n.is_switch()) continue;
    if (physical_only && n.flavor != SwitchFlavor::kPhysical) continue;
    result.push_back(id);
  }
  return result;
}

std::vector<NodeId> Fabric::ca_ids() const {
  std::vector<NodeId> result;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].is_ca()) result.push_back(id);
  }
  return result;
}

std::size_t Fabric::num_switches(bool physical_only) const {
  return static_cast<std::size_t>(std::count_if(
      nodes_.begin(), nodes_.end(), [&](const Node& n) {
        return n.is_switch() &&
               (!physical_only || n.flavor == SwitchFlavor::kPhysical);
      }));
}

std::size_t Fabric::num_cas() const {
  return static_cast<std::size_t>(std::count_if(
      nodes_.begin(), nodes_.end(),
      [](const Node& n) { return n.is_ca(); }));
}

void Fabric::set_lid(NodeId id, PortNum port, Lid lid) {
  Node& n = node(id);
  IBVS_REQUIRE(port < n.ports.size(), "port out of range");
  IBVS_REQUIRE(!n.is_switch() || port == 0,
               "switch LIDs live on the management port 0");
  n.ports[port].lid = lid;
}

void Fabric::set_lmc(NodeId id, PortNum port, std::uint8_t lmc) {
  Node& n = node(id);
  IBVS_REQUIRE(port < n.ports.size(), "port out of range");
  IBVS_REQUIRE(lmc <= 7, "LMC is a 3-bit field");
  Port& p = n.ports[port];
  IBVS_REQUIRE(!p.lid.valid() || (p.lid.value() & ((1u << lmc) - 1)) == 0,
               "base LID must be 2^lmc aligned");
  p.lmc = lmc;
}

std::optional<std::pair<NodeId, PortNum>> Fabric::peer(NodeId id,
                                                       PortNum port) const {
  const Node& n = node(id);
  if (port < 1 || port > n.num_ports()) return std::nullopt;
  const Port& p = n.ports[port];
  if (!p.connected()) return std::nullopt;
  return std::make_pair(p.peer, p.peer_port);
}

std::optional<PortNum> Fabric::vswitch_uplink(NodeId vswitch) const {
  const Node& n = node(vswitch);
  IBVS_REQUIRE(n.is_vswitch(), "not a vSwitch");
  for (PortNum p = 1; p <= n.num_ports(); ++p) {
    const Port& port = n.ports[p];
    if (port.connected() && node(port.peer).is_switch()) return p;
  }
  return std::nullopt;
}

std::optional<std::pair<NodeId, PortNum>> Fabric::physical_attachment(
    NodeId ca, PortNum port) const {
  const Node& n = node(ca);
  IBVS_REQUIRE(n.is_ca(), "physical_attachment expects a CA endpoint");
  auto hop = peer(ca, port);
  // Walk through at most one vSwitch layer (nested vSwitches do not exist in
  // the architecture, but a bounded loop keeps this robust).
  for (int depth = 0; depth < 4 && hop; ++depth) {
    const Node& via = node(hop->first);
    if (via.is_physical_switch()) return hop;
    if (via.is_vswitch()) {
      auto up = vswitch_uplink(hop->first);
      if (!up) return std::nullopt;
      hop = peer(hop->first, *up);
      continue;
    }
    return std::nullopt;  // CA cabled to a CA: not attached to the network
  }
  return hop && node(hop->first).is_physical_switch() ? hop : std::nullopt;
}

std::optional<NodeId> Fabric::find_ca_by_guid(Guid guid) const {
  if (!guid.valid()) return std::nullopt;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (!n.is_ca()) continue;
    // Alias first: a vGUID on a VF shadows nothing (alias values are
    // allocated from the same sequential pool as manufacturer GUIDs).
    if (n.alias_guid == guid || n.guid == guid) return id;
  }
  return std::nullopt;
}

void Fabric::validate() const {
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    IBVS_ENSURE(!n.ports.empty(), "node without port array: " + n.name);
    for (PortNum p = 1; p <= n.num_ports(); ++p) {
      const Port& port = n.ports[p];
      if (!port.connected()) continue;
      IBVS_ENSURE(port.peer < nodes_.size(),
                  "dangling cable from " + n.name);
      const Node& peer_node = nodes_[port.peer];
      IBVS_ENSURE(port.peer_port >= 1 &&
                      port.peer_port <= peer_node.num_ports(),
                  "peer port out of range from " + n.name);
      const Port& back = peer_node.ports[port.peer_port];
      IBVS_ENSURE(back.peer == id && back.peer_port == p,
                  "asymmetric cable between " + n.name + " and " +
                      peer_node.name);
    }
  }
}

}  // namespace ibvs
