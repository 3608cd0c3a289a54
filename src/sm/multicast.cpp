#include "sm/multicast.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace ibvs::sm {

Lid McGroupManager::create_group(Guid mgid) {
  IBVS_REQUIRE(next_mlid_ <= kLastMulticastLid,
               "multicast LID space exhausted");
  const Lid mlid{next_mlid_++};
  McGroup group;
  group.mlid = mlid;
  group.mgid = mgid;
  groups_.emplace(mlid.value(), group);
  return mlid;
}

const McGroup& McGroupManager::group(Lid mlid) const {
  const auto it = groups_.find(mlid.value());
  IBVS_REQUIRE(it != groups_.end(), "unknown multicast group");
  return it->second;
}

void McGroupManager::join(Lid mlid, Lid member_lid) {
  auto it = groups_.find(mlid.value());
  IBVS_REQUIRE(it != groups_.end(), "unknown multicast group");
  IBVS_REQUIRE(sm_.lids().assigned(member_lid),
               "member LID is not assigned");
  it->second.members.insert(member_lid);
  recompute_tree(it->second);
}

void McGroupManager::leave(Lid mlid, Lid member_lid) {
  auto it = groups_.find(mlid.value());
  IBVS_REQUIRE(it != groups_.end(), "unknown multicast group");
  IBVS_REQUIRE(it->second.members.erase(member_lid) == 1,
               "not a member of the group");
  recompute_tree(it->second);
}

void McGroupManager::refresh_after_move(Lid member_lid) {
  for (auto& [mlid, group] : groups_) {
    if (group.members.count(member_lid) != 0) recompute_tree(group);
  }
}

void McGroupManager::recompute_all() {
  for (auto& [mlid, group] : groups_) recompute_tree(group);
}

void McGroupManager::recompute_tree(McGroup& group) {
  const Fabric& fabric = sm_.fabric();
  const LidMap& lids = sm_.lids();

  // Member attachment points: (switch NodeId) -> delivery ports there.
  std::unordered_map<NodeId, std::vector<PortNum>> delivery;
  std::vector<NodeId> member_switches;
  for (const Lid member : group.members) {
    const auto attach = lids.attachment(fabric, member);
    if (!attach) continue;  // member fell off the network: skip
    if (delivery.find(attach->first) == delivery.end()) {
      member_switches.push_back(attach->first);
    }
    delivery[attach->first].push_back(attach->second);
  }

  // Erase the group's old masks from the master everywhere.
  for (auto& [node, mft] : master_) mft.set(group.mlid, PortMask{});
  if (member_switches.empty()) return;

  // BFS tree from the first member switch over the physical switch graph;
  // keep only the union of root->member paths (prune idle branches).
  std::unordered_map<NodeId, std::pair<NodeId, PortNum>> parent;  // child->(parent, parent's port to child)
  std::vector<NodeId> order;
  const NodeId root = member_switches.front();
  parent.emplace(root, std::make_pair(kInvalidNode, PortNum{0}));
  order.push_back(root);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const NodeId u = order[head];
    const Node& n = fabric.node(u);
    for (PortNum p = 1; p <= n.num_ports(); ++p) {
      const Port& port = n.ports[p];
      if (!port.connected()) continue;
      if (!fabric.node(port.peer).is_physical_switch()) continue;
      if (parent.find(port.peer) != parent.end()) continue;
      parent.emplace(port.peer, std::make_pair(u, p));
      order.push_back(port.peer);
    }
  }

  // Tree masks: walk each member switch up to the root, marking both link
  // directions on the way.
  std::unordered_map<NodeId, PortMask> masks;
  for (const NodeId member_switch : member_switches) {
    auto it = parent.find(member_switch);
    IBVS_ENSURE(it != parent.end(),
                "multicast member switch unreachable from the tree root");
    NodeId x = member_switch;
    while (x != root) {
      const auto [up, up_port] = parent.at(x);
      // up forwards down to x via up_port; x forwards up via the reverse.
      masks[up].set(up_port);
      const auto peer = fabric.peer(up, up_port);
      IBVS_ENSURE(peer.has_value(), "tree edge lost its cable");
      masks[x].set(peer->second);
      x = up;
    }
  }
  // Delivery ports at member switches.
  for (const auto& [node, ports] : delivery) {
    for (const PortNum p : ports) masks[node].set(p);
  }
  for (const auto& [node, mask] : masks) {
    master_[node].set(group.mlid, mask);
  }
}

McDistribution McGroupManager::distribute(SmpRouting routing) {
  McDistribution report;
  auto& transport = sm_.transport();
  const std::vector<NodeId> switches = sm_.fabric().switch_ids();
  // Switches without a master entry diff against an empty table instead of
  // default-inserting one.
  static const Mft kEmptyMft;
  transport.begin_batch();
  for (const NodeId sw : switches) {
    const auto it = master_.find(sw);
    const Mft& master = it != master_.end() ? it->second : kEmptyMft;
    Node& node = sm_.fabric().node(sw);
    const auto diff =
        master.diff_blocks(node.mft, static_cast<PortNum>(node.num_ports()));
    if (diff.empty()) continue;
    ++report.switches_touched;
    for (const auto& [block, position] : diff) {
      transport.send_mft_slice(sw, block, position, routing);
      ++report.smps;
    }
    // The hardware adopts the master's state for this switch.
    node.mft = master;
  }
  report.time_us = transport.end_batch();
  return report;
}

}  // namespace ibvs::sm
