#include "sm/delta_txn.hpp"

#include "util/expect.hpp"

namespace ibvs::sm {

ApplyResult apply_deltas(SubnetManager& sm,
                         const std::vector<LftDelta>& planned,
                         std::vector<LftDelta>& applied, SmpRouting routing,
                         bool require_reachable,
                         std::uint64_t abort_after_smps,
                         std::uint64_t sent_before) {
  const auto& result = sm.routing_result();
  auto& transport = sm.transport();
  ApplyResult out;
  transport.begin_batch();
  std::size_t i = 0;
  while (i < planned.size()) {
    const NodeId sw = planned[i].switch_node;
    const routing::SwitchIdx s = result.graph.dense(sw);
    IBVS_ENSURE(s != routing::kNoSwitch, "planned delta for unknown switch");
    if (require_reachable && !transport.hops_to(sw)) {
      out.stop = ApplyStop::kUnreachable;
      out.at = sw;
      break;
    }
    for (; i < planned.size() && planned[i].switch_node == sw; ++i) {
      const Lid lid = planned[i].lid;
      applied.push_back(
          {sw, lid, result.lfts[s].get(lid), planned[i].new_port});
      sm.update_master_entry(s, lid, planned[i].new_port);
    }
    out.cost.smps += sm.push_dirty_blocks(s, routing);
    ++out.switches;
    if (sent_before + out.cost.smps >= abort_after_smps) {
      out.stop = ApplyStop::kAborted;
      out.at = sw;
      break;
    }
  }
  out.cost.time_us = transport.end_batch();
  return out;
}

std::vector<routing::SwitchIdx> replay_master(
    SubnetManager& sm, const std::vector<LftDelta>& deltas, bool forward) {
  const auto& graph = sm.routing_result().graph;
  std::vector<routing::SwitchIdx> touched;
  std::vector<bool> marked(graph.num_switches(), false);
  const auto replay = [&](const LftDelta& d) {
    const routing::SwitchIdx s = graph.dense(d.switch_node);
    if (s == routing::kNoSwitch) return;
    sm.update_master_entry(s, d.lid, forward ? d.new_port : d.old_port);
    if (!marked[s]) {
      marked[s] = true;
      touched.push_back(s);
    }
  };
  if (forward) {
    for (const LftDelta& d : deltas) replay(d);
  } else {
    for (auto it = deltas.rbegin(); it != deltas.rend(); ++it) replay(*it);
  }
  return touched;
}

SmpCost revert_deltas(SubnetManager& sm, const std::vector<LftDelta>& applied,
                      SmpRouting routing, bool skip_unreachable,
                      NodeId silent) {
  const std::vector<routing::SwitchIdx> touched =
      replay_master(sm, applied, /*forward=*/false);
  const auto& graph = sm.routing_result().graph;
  auto& transport = sm.transport();
  SmpCost cost;
  transport.begin_batch();
  for (const routing::SwitchIdx s : touched) {
    const NodeId sw = graph.switches[s];
    if (sw == silent || (skip_unreachable && !transport.hops_to(sw))) {
      continue;
    }
    cost.smps += sm.push_dirty_blocks(s, routing);
  }
  cost.time_us = transport.end_batch();
  return cost;
}

void place_addresses(SubnetManager& sm, const MigrationPayload& m,
                     bool at_destination) {
  Fabric& fabric = sm.fabric();
  // The VM's LID goes with the VM; the second LID (the destination VF's
  // own, or the swap peer's) takes the other VF.
  const NodeId vm_vf = at_destination ? m.dst_vf : m.src_vf;
  const NodeId other_vf = at_destination ? m.src_vf : m.dst_vf;
  if (sm.lids().owner(m.vm_lid).node != vm_vf) {
    sm.lids().move(fabric, m.vm_lid, vm_vf, 1);
  }
  if (m.swapped_lid.valid() &&
      sm.lids().owner(m.swapped_lid).node != other_vf) {
    sm.lids().move(fabric, m.swapped_lid, other_vf, 1);
  }
  fabric.node(vm_vf).alias_guid = m.vguid;
  fabric.node(other_vf).alias_guid =
      m.swap_pair ? m.peer_vguid : kInvalidGuid;
}

SmpCost undo_addresses(SubnetManager& sm, const MigrationPayload& m,
                       SmpRouting routing) {
  place_addresses(sm, m, /*at_destination=*/false);
  auto& transport = sm.transport();
  SmpCost cost;
  transport.begin_batch();
  transport.send_vf_lid_assign(m.src_pf, m.src_vf_slot, m.vm_lid, routing);
  transport.send_vf_lid_assign(
      m.dst_pf, m.dst_vf_slot,
      m.swapped_lid.valid() ? m.swapped_lid : kInvalidLid, routing);
  transport.send_guid_info(m.src_pf, m.src_vf_slot, m.vguid, routing);
  cost.smps = 3;
  if (m.swap_pair) {
    // The peer's vGUID moved too; restore it to the destination VF.
    transport.send_guid_info(m.dst_pf, m.dst_vf_slot, m.peer_vguid, routing);
    cost.smps += 1;
  }
  cost.time_us = transport.end_batch();
  return cost;
}

SmpCost undo_cabling(SubnetManager& sm, const TopologyPayload& t) {
  Fabric& fabric = sm.fabric();
  auto& transport = sm.transport();
  const bool added =
      t.op == TopologyOp::kAttachSwitch || t.op == TopologyOp::kAddLink;
  for (const CableSpec& c : t.cables) {
    if (added) {
      const auto peer = fabric.peer(c.a, c.port_a);
      if (peer && peer->first == c.b && peer->second == c.port_b) {
        fabric.disconnect(c.a, c.port_a);
      }
    } else if (!fabric.peer(c.a, c.port_a) && !fabric.peer(c.b, c.port_b)) {
      fabric.connect(c.a, c.port_a, c.b, c.port_b);
    }
  }
  transport.invalidate_topology();

  SmpCost cost;
  if (t.op == TopologyOp::kAttachSwitch) {
    // Whatever LID the subject holds goes, not only the journaled one: a
    // standby's takeover sweep can address a freshly cabled subject before
    // the record journals its LID.
    for (const Lid lid : {t.subject_lid, fabric.node(t.subject).lid()}) {
      if (lid.valid() && sm.lids().assigned(lid) &&
          sm.lids().owner(lid).node == t.subject) {
        sm.lids().release(fabric, lid);
      }
    }
  } else if (t.op == TopologyOp::kDetachSwitch && t.subject_lid.valid() &&
             !sm.lids().assigned(t.subject_lid)) {
    // Directed-route PortInfo: the re-plugged switch's LID is not
    // installed anywhere yet.
    sm.lids().assign(fabric, t.subject, 0, t.subject_lid);
    transport.begin_batch();
    transport.send_port_info_set(t.subject, 0, SmpRouting::kDirected);
    cost.smps = 1;
    cost.time_us = transport.end_batch();
  }
  return cost;
}

}  // namespace ibvs::sm
