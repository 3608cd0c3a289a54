#include "sm/topology_txn.hpp"

#include <algorithm>
#include <unordered_set>

#include "core/skyline.hpp"
#include "sm/delta_txn.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/expect.hpp"
#include "util/log.hpp"

namespace ibvs::sm {

namespace {

struct TopologyMetrics {
  telemetry::Counter& begun;
  telemetry::Counter& committed;
  telemetry::Counter& rolled_back;
  telemetry::Histogram& delta_smps;

  static TopologyMetrics& get() {
    auto& reg = telemetry::Registry::global();
    static TopologyMetrics m{
        reg.counter("ibvs_topology_txns_total", {},
                    "Topology delta transactions begun"),
        reg.counter("ibvs_topology_commits_total", {},
                    "Topology delta transactions committed"),
        reg.counter("ibvs_topology_rollbacks_total", {},
                    "Topology delta transactions rolled back"),
        reg.histogram("ibvs_topology_delta_smps", {}, {},
                      "LFT + addressing SMPs per committed topology delta"),
    };
    return m;
  }
};

constexpr std::uint8_t kUnreachableHops = 0xFF;

/// Redistribution rounds bounding the reroute verify and the rollback
/// settle.
constexpr std::size_t kSettleRounds = 64;

/// Appends the minimal (skyline) repair of `lid`'s column — BFS toward the
/// LID's attachment — to `planned`, leaving out `skip` (a severed switch
/// that cannot be programmed). Returns false when the LID has no routable
/// attachment: an orphaned endpoint, or one attached at `skip`.
bool plan_repair(const SubnetManager& sm,
                 const std::vector<std::uint8_t>& hops, Lid lid,
                 routing::SwitchIdx skip, std::vector<LftDelta>& planned) {
  const auto& routing = sm.routing_result();
  const auto& g = routing.graph;
  const auto att = sm.lids().attachment(sm.fabric(), lid);
  if (!att) return false;
  const routing::SwitchIdx t = g.dense(att->first);
  if (t == routing::kNoSwitch || t == skip) return false;
  core::EntryDelta delta;
  delta.old_entry.resize(g.num_switches());
  for (routing::SwitchIdx s = 0; s < g.num_switches(); ++s) {
    delta.old_entry[s] = routing.lfts[s].get(lid);
  }
  delta.new_entry = repair_route_column(g, hops, t, att->second);
  for (const routing::SwitchIdx s :
       core::minimal_update_set(g, delta, t, att->second)) {
    if (s == skip) continue;
    planned.push_back(
        {g.switches[s], lid, delta.old_entry[s], delta.new_entry[s]});
  }
  return true;
}

}  // namespace

/// First out-edge port of `s` on a shortest path toward `t` (adjacency
/// order, the same deterministic tie-break the BFS-based engines use).
PortNum repair_port_toward(const routing::SwitchGraph& g,
                           const std::vector<std::uint8_t>& hops,
                           routing::SwitchIdx s, routing::SwitchIdx t) {
  const std::size_t n = g.num_switches();
  const std::uint8_t h = hops[static_cast<std::size_t>(s) * n + t];
  if (h == kUnreachableHops || h == 0) return kDropPort;
  const auto [begin, end] = g.out(s);
  for (const auto* e = begin; e != end; ++e) {
    if (hops[static_cast<std::size_t>(e->to) * n + t] + 1 == h) {
      return e->out_port;
    }
  }
  return kDropPort;
}

/// Full forwarding column for a LID delivered at (t, delivery_port):
/// entry[s] is the egress port of switch s, kDropPort when s cannot reach t.
std::vector<PortNum> repair_route_column(const routing::SwitchGraph& g,
                                         const std::vector<std::uint8_t>& hops,
                                         routing::SwitchIdx t,
                                         PortNum delivery_port) {
  std::vector<PortNum> column(g.num_switches(), kDropPort);
  for (routing::SwitchIdx s = 0; s < g.num_switches(); ++s) {
    column[s] = s == t ? delivery_port : repair_port_toward(g, hops, s, t);
  }
  return column;
}

const char* to_string(TopologyErrc code) {
  switch (code) {
    case TopologyErrc::kNotASwitch:
      return "not a physical switch";
    case TopologyErrc::kAlreadyCabled:
      return "switch still cabled";
    case TopologyErrc::kNotCabled:
      return "no such cable";
    case TopologyErrc::kBadCable:
      return "invalid cable endpoints";
    case TopologyErrc::kNotDrained:
      return "switch still hosts endpoints";
    case TopologyErrc::kWouldSeverSm:
      return "delta would sever the SM";
    case TopologyErrc::kRerouteFailed:
      return "no connectivity-sufficient repair";
    case TopologyErrc::kInterrupted:
      return "reconfiguration batch interrupted";
  }
  return "?";
}

const char* to_string(TopologyTxnState state) {
  switch (state) {
    case TopologyTxnState::kPrepared:
      return "prepared";
    case TopologyTxnState::kMutated:
      return "mutated";
    case TopologyTxnState::kRerouted:
      return "rerouted";
    case TopologyTxnState::kCommitted:
      return "committed";
    case TopologyTxnState::kRolledBack:
      return "rolled-back";
  }
  return "?";
}

TopologyTxn TopologyTxnManager::open(TopologyPayload payload) {
  TopologyTxn txn;
  txn.op = payload.op;
  txn.subject = payload.subject;
  txn.subject_lid = payload.subject_lid;
  txn.cables = payload.cables;
  txn.id = journal_.begin(std::move(payload));
  TopologyMetrics::get().begun.inc();
  return txn;
}

TopologyTxn TopologyTxnManager::begin_attach_switch(
    NodeId sw, std::vector<CableSpec> cables) {
  IBVS_REQUIRE(sm_.has_routing(), "sweep the subnet before topology deltas");
  const Fabric& fabric = sm_.fabric();
  if (sw >= fabric.size() || !fabric.node(sw).is_physical_switch()) {
    throw TopologyError(TopologyErrc::kNotASwitch,
                        "attach subject is not a physical switch");
  }
  if (!fabric.cables_of(sw).empty()) {
    throw TopologyError(TopologyErrc::kAlreadyCabled,
                        fabric.node(sw).name +
                            " still has cables plugged; attach wants a "
                            "fresh (or fully severed) switch");
  }
  if (cables.empty()) {
    throw TopologyError(TopologyErrc::kBadCable,
                        "attach needs at least one cable");
  }
  std::unordered_set<std::uint64_t> used;  // (node << 8 | port) both ends
  for (const CableSpec& c : cables) {
    const bool ends_ok =
        c.a == sw && c.b < fabric.size() && c.b != sw &&
        fabric.node(c.b).is_physical_switch() && c.port_a >= 1 &&
        c.port_a <= fabric.node(c.a).num_ports() && c.port_b >= 1 &&
        c.port_b <= fabric.node(c.b).num_ports();
    if (!ends_ok || fabric.peer(c.a, c.port_a) || fabric.peer(c.b, c.port_b) ||
        !used.insert((std::uint64_t{c.a} << 8) | c.port_a).second ||
        !used.insert((std::uint64_t{c.b} << 8) | c.port_b).second) {
      throw TopologyError(TopologyErrc::kBadCable,
                          "attach cable endpoints must be free switch ports "
                          "with the subject on the A side");
    }
  }
  TopologyPayload payload;
  payload.op = TopologyOp::kAttachSwitch;
  payload.subject = sw;
  payload.cables = std::move(cables);
  return open(std::move(payload));
}

TopologyTxn TopologyTxnManager::begin_detach_switch(
    NodeId sw, bool allow_orphan_endpoints) {
  IBVS_REQUIRE(sm_.has_routing(), "sweep the subnet before topology deltas");
  const Fabric& fabric = sm_.fabric();
  if (sw >= fabric.size() || !fabric.node(sw).is_physical_switch()) {
    throw TopologyError(TopologyErrc::kNotASwitch,
                        "detach subject is not a physical switch");
  }
  std::vector<CableSpec> cables = fabric.cables_of(sw);
  if (cables.empty()) {
    throw TopologyError(TopologyErrc::kNotCabled,
                        fabric.node(sw).name + " has no cables to sever");
  }
  const NodeId sm_host = sm_.transport().sm_node();
  const auto sm_attach = fabric.node(sm_host).is_ca()
                             ? fabric.physical_attachment(sm_host)
                             : std::nullopt;
  if (sm_host == sw || (sm_attach && sm_attach->first == sw)) {
    throw TopologyError(TopologyErrc::kWouldSeverSm,
                        "detaching " + fabric.node(sw).name +
                            " would cut the SM off its own subnet");
  }
  // Drain-first policy: endpoint LIDs still attaching through the subject
  // block the detach unless the caller explicitly accepts orphaning them
  // (the cloud layer evacuates resident VMs first, then passes the flag for
  // the empty PF LIDs that remain).
  if (!allow_orphan_endpoints) {
    for (const Lid lid : sm_.lids().assigned_lids()) {
      const LidMap::Owner owner = sm_.lids().owner(lid);
      if (owner.node == sw) continue;  // the subject's own management LID
      const auto att = sm_.lids().attachment(fabric, lid);
      if (att && att->first == sw) {
        throw TopologyError(
            TopologyErrc::kNotDrained,
            fabric.node(sw).name + " still hosts lid " +
                std::to_string(lid.value()) + " (" +
                fabric.node(owner.node).name + "); drain first");
      }
    }
  }
  TopologyPayload payload;
  payload.op = TopologyOp::kDetachSwitch;
  payload.subject = sw;
  payload.subject_lid = fabric.node(sw).lid();
  payload.cables = std::move(cables);
  TopologyTxn txn = open(std::move(payload));
  txn.allow_orphan_endpoints = allow_orphan_endpoints;
  return txn;
}

TopologyTxn TopologyTxnManager::begin_add_link(CableSpec cable) {
  IBVS_REQUIRE(sm_.has_routing(), "sweep the subnet before topology deltas");
  const Fabric& fabric = sm_.fabric();
  const bool ends_ok =
      cable.a < fabric.size() && cable.b < fabric.size() &&
      cable.a != cable.b && fabric.node(cable.a).is_physical_switch() &&
      fabric.node(cable.b).is_physical_switch() && cable.port_a >= 1 &&
      cable.port_a <= fabric.node(cable.a).num_ports() && cable.port_b >= 1 &&
      cable.port_b <= fabric.node(cable.b).num_ports();
  if (!ends_ok || fabric.peer(cable.a, cable.port_a) ||
      fabric.peer(cable.b, cable.port_b)) {
    throw TopologyError(TopologyErrc::kBadCable,
                        "add_link wants two free ports on two distinct "
                        "physical switches");
  }
  TopologyPayload payload;
  payload.op = TopologyOp::kAddLink;
  payload.cables = {cable};
  return open(std::move(payload));
}

TopologyTxn TopologyTxnManager::begin_remove_link(NodeId node, PortNum port) {
  IBVS_REQUIRE(sm_.has_routing(), "sweep the subnet before topology deltas");
  const Fabric& fabric = sm_.fabric();
  if (node >= fabric.size() || !fabric.node(node).is_physical_switch()) {
    throw TopologyError(TopologyErrc::kNotASwitch,
                        "remove_link subject is not a physical switch");
  }
  const auto peer = fabric.peer(node, port);
  if (!peer) {
    throw TopologyError(TopologyErrc::kNotCabled,
                        fabric.node(node).name + "/p" +
                            std::to_string(unsigned{port}) +
                            " has no cable");
  }
  if (!fabric.node(peer->first).is_physical_switch()) {
    throw TopologyError(TopologyErrc::kBadCable,
                        "remove_link only removes inter-switch cables "
                        "(unplugging an endpoint is a detach concern)");
  }
  TopologyPayload payload;
  payload.op = TopologyOp::kRemoveLink;
  payload.cables = {CableSpec{node, port, peer->first, peer->second}};
  return open(std::move(payload));
}

void TopologyTxnManager::txn_mutate(TopologyTxn& txn) {
  IBVS_REQUIRE(txn.state == TopologyTxnState::kPrepared,
               "transaction already mutated");
  Fabric& fabric = sm_.fabric();
  // Write-ahead: the journal learns the mutation is starting before the
  // first plug/unplug, so a crash inside this loop still recovers.
  journal_.record_started(txn.id);
  const bool adds = txn.op == TopologyOp::kAttachSwitch ||
                    txn.op == TopologyOp::kAddLink;
  for (const CableSpec& c : txn.cables) {
    if (adds) {
      fabric.connect(c.a, c.port_a, c.b, c.port_b);
    } else {
      fabric.disconnect(c.a, c.port_a);
    }
  }
  sm_.transport().invalidate_topology();
  txn.state = TopologyTxnState::kMutated;
}

void TopologyTxnManager::plan_attach(TopologyTxn& txn,
                                     std::vector<LftDelta>& planned) const {
  const auto& routing = sm_.routing_result();
  const auto& g = routing.graph;
  const routing::SwitchIdx me = g.dense(txn.subject);
  IBVS_ENSURE(me != routing::kNoSwitch, "attach subject missing from graph");
  const auto& hops = sm_.hop_matrix();
  // 1) Every other switch learns the route toward the new switch's LID.
  for (routing::SwitchIdx s = 0; s < g.num_switches(); ++s) {
    if (s == me) continue;
    const PortNum old_port = routing.lfts[s].get(txn.subject_lid);
    const PortNum new_port = repair_port_toward(g, hops, s, me);
    if (old_port != new_port) {
      planned.push_back({g.switches[s], txn.subject_lid, old_port, new_port});
    }
  }
  // 2) The new switch's own table: one entry per routable LID (its master
  // was born empty in adopt_topology_change).
  for (const auto& target : g.targets) {
    const PortNum new_port = target.sw == me
                                 ? target.port
                                 : repair_port_toward(g, hops, me, target.sw);
    const PortNum old_port = routing.lfts[me].get(target.lid);
    if (old_port != new_port) {
      planned.push_back({txn.subject, target.lid, old_port, new_port});
    }
  }
}

void TopologyTxnManager::plan_detach(TopologyTxn& txn,
                                     std::vector<LftDelta>& planned) const {
  const auto& routing = sm_.routing_result();
  const auto& g = routing.graph;
  const routing::SwitchIdx me = g.dense(txn.subject);
  IBVS_ENSURE(me != routing::kNoSwitch, "detach subject missing from graph");
  const auto& hops = sm_.hop_matrix();

  // A route transits the subject iff some ex-neighbor forwards out of the
  // port its severed cable used to occupy; the recorded cable list is the
  // only place that wiring still exists.
  std::vector<Lid> affected;
  for (const Lid lid : sm_.lids().assigned_lids()) {
    if (lid == txn.subject_lid) continue;  // handled by the cleanup below
    for (const CableSpec& c : txn.cables) {
      const routing::SwitchIdx nb = g.dense(c.b);
      if (nb == routing::kNoSwitch) continue;
      if (routing.lfts[nb].get(lid) == c.port_b) {
        affected.push_back(lid);
        break;
      }
    }
  }
  txn.stats.lids_rerouted = affected.size();

  for (const Lid lid : affected) plan_repair(sm_, hops, lid, me, planned);

  // Scrub the released management LID everywhere so a later reassignment of
  // the same value cannot inherit routes into the severed switch.
  if (txn.subject_lid.valid()) {
    for (routing::SwitchIdx s = 0; s < g.num_switches(); ++s) {
      if (s == me) continue;
      const PortNum old_port = routing.lfts[s].get(txn.subject_lid);
      if (old_port != kDropPort) {
        planned.push_back({g.switches[s], txn.subject_lid, old_port,
                           kDropPort});
      }
    }
    ++txn.stats.lids_rerouted;
  }
}

void TopologyTxnManager::plan_remove_link(
    TopologyTxn& txn, std::vector<LftDelta>& planned) const {
  const auto& routing = sm_.routing_result();
  const auto& g = routing.graph;
  const CableSpec& cable = txn.cables.front();
  const routing::SwitchIdx sa = g.dense(cable.a);
  const routing::SwitchIdx sb = g.dense(cable.b);
  IBVS_ENSURE(sa != routing::kNoSwitch && sb != routing::kNoSwitch,
              "removed link endpoints missing from graph");
  const auto& hops = sm_.hop_matrix();

  for (const Lid lid : sm_.lids().assigned_lids()) {
    const bool uses_link = routing.lfts[sa].get(lid) == cable.port_a ||
                           routing.lfts[sb].get(lid) == cable.port_b;
    if (uses_link &&
        plan_repair(sm_, hops, lid, routing::kNoSwitch, planned)) {
      ++txn.stats.lids_rerouted;
    }
  }
}

void TopologyTxnManager::txn_reroute(TopologyTxn& txn,
                                     const TopologyApplyOptions& opts) {
  IBVS_REQUIRE(txn.state == TopologyTxnState::kMutated,
               "mutate the topology before rerouting");
  auto span = telemetry::Tracer::global().span(
      "topology.reroute", {{"op", std::string(to_string(txn.op))}});
  const std::uint64_t hop_rows_before = sm_.hop_rows_searched();
  Fabric& fabric = sm_.fabric();
  auto& transport = sm_.transport();
  // Adopt the mutated structure without a routing run: dense indices are
  // append-stable, new switches get empty master tables, and the transport
  // forgets its cached paths.
  sm_.adopt_topology_change();

  std::vector<LftDelta> planned;
  if (txn.op == TopologyOp::kAttachSwitch) {
    if (!transport.hops_to(txn.subject)) {
      throw TopologyError(TopologyErrc::kRerouteFailed,
                          fabric.node(txn.subject).name +
                              " unreachable after attach cabling");
    }
    // Address the new switch. The LID value reaches the journal before the
    // PortInfo SMP leaves the SM.
    const Lid lid = sm_.lids().assign_next(fabric, txn.subject, 0);
    journal_.record_topology_lid(txn.id, lid);
    txn.subject_lid = lid;
    sm_.refresh_targets();
    transport.begin_batch();
    transport.send_port_info_set(txn.subject, 0, SmpRouting::kDirected);
    txn.stats.addressing_smps += 1;
    txn.stats.apply_time_us += transport.end_batch();
  } else if (txn.op == TopologyOp::kDetachSwitch ||
             txn.op == TopologyOp::kRemoveLink) {
    // A severed component always contains an ex-neighbor of the cut, so
    // checking the recorded cable ends proves nobody else was disconnected.
    // (Skyline tolerates legitimately-dark switches, so without this guard
    // a bridge removal would *commit* with unreachable LIDs.)
    for (const CableSpec& c : txn.cables) {
      for (const NodeId end : {c.a, c.b}) {
        if (end == txn.subject) continue;
        if (fabric.node(end).is_physical_switch() && !transport.hops_to(end)) {
          throw TopologyError(TopologyErrc::kRerouteFailed,
                              fabric.node(end).name +
                                  " severed from the SM: the removed "
                                  "cabling was a bridge");
        }
      }
    }
    if (txn.op == TopologyOp::kDetachSwitch && txn.subject_lid.valid() &&
        sm_.lids().owner(txn.subject_lid).node == txn.subject) {
      // Released but reserved until the record is terminal: the plan
      // scrubs this LID, so no new owner may take it meanwhile.
      sm_.lids().release(fabric, txn.subject_lid);
      sm_.lids().reserve(txn.subject_lid);
      sm_.refresh_targets();
    }
  }

  try {
    switch (txn.op) {
      case TopologyOp::kAttachSwitch:
        plan_attach(txn, planned);
        txn.stats.lids_rerouted = 1 + sm_.routing_result().graph.targets.size();
        break;
      case TopologyOp::kDetachSwitch:
        plan_detach(txn, planned);
        break;
      case TopologyOp::kRemoveLink:
        plan_remove_link(txn, planned);
        break;
      case TopologyOp::kAddLink:
        // Pure capacity: connectivity needs no repair, the delta set stays
        // empty and the journal rolls an in-flight add_link back (unplug).
        break;
    }
  } catch (const TopologyError&) {
    throw;
  } catch (const std::logic_error& err) {
    // minimal_update_set could not certify delivery — e.g. the removed
    // link was a bridge. The caller rolls back.
    throw TopologyError(TopologyErrc::kRerouteFailed, err.what());
  }

  txn.stats.switches_total = sm_.routing_result().graph.num_switches();
  if (!planned.empty()) {
    // Group by switch so the apply pass prices one dirty-block push per
    // switch. Keys (switch, lid) are unique, so reordering is safe.
    const auto& graph = sm_.routing_result().graph;
    std::stable_sort(planned.begin(), planned.end(),
                     [&graph](const LftDelta& x, const LftDelta& y) {
                       return graph.dense(x.switch_node) <
                              graph.dense(y.switch_node);
                     });
    // Write-ahead: the full planned delta set reaches the journal before
    // the first LFT SMP goes out.
    journal_.record_deltas(txn.id, planned);
    const ApplyResult applied = apply_deltas(
        sm_, planned, txn.applied, SmpRouting::kDirected,
        /*require_reachable=*/true, opts.abort_after_smps,
        txn.stats.lft_smps + txn.stats.addressing_smps);
    txn.stats.lft_smps += applied.cost.smps;
    txn.stats.apply_time_us += applied.cost.time_us;
    txn.stats.switches_updated += applied.switches;
    if (applied.stop == ApplyStop::kUnreachable) {
      throw TopologyError(TopologyErrc::kRerouteFailed,
                          fabric.node(applied.at).name +
                              " unreachable during topology delta");
    }
    if (applied.stop == ApplyStop::kAborted) {
      throw TopologyError(TopologyErrc::kInterrupted,
                          "topology delta batch cut short");
    }
  }

  // Verify: diff-redistribution until a zero-send round proves every
  // reachable switch holds exactly the master tables.
  txn.stats.verify = sm_.redistribute(kSettleRounds, SmpRouting::kDirected);
  if (!txn.stats.verify.converged) {
    throw TopologyError(TopologyErrc::kRerouteFailed,
                        "delta redistribution did not converge");
  }
  txn.state = TopologyTxnState::kRerouted;
  span.set_attr("lft_smps", std::to_string(txn.stats.lft_smps));
  span.set_attr("switches_updated",
                std::to_string(txn.stats.switches_updated));
  span.set_attr("hop_rows_searched",
                std::to_string(sm_.hop_rows_searched() - hop_rows_before));
}

void TopologyTxnManager::txn_commit(TopologyTxn& txn) {
  IBVS_REQUIRE(txn.state == TopologyTxnState::kRerouted,
               "reroute before committing");
  sm_.lids().unreserve(txn.subject_lid);  // a detach's scrub is installed
  journal_.commit(txn.id);
  txn.state = TopologyTxnState::kCommitted;
  auto& metrics = TopologyMetrics::get();
  metrics.committed.inc();
  metrics.delta_smps.observe(static_cast<double>(
      txn.stats.lft_smps + txn.stats.addressing_smps +
      txn.stats.verify.smps));
  IBVS_INFO("topology") << to_string(txn.op) << " committed: "
                        << txn.stats.switches_updated << "/"
                        << txn.stats.switches_total << " switches, "
                        << txn.stats.lft_smps << " LFT SMPs";
}

void TopologyTxnManager::txn_rollback(TopologyTxn& txn) {
  const JournalRecord* record = journal_.find(txn.id);
  IBVS_REQUIRE(!txn.terminal() && record != nullptr,
               "transaction already terminal");
  const TopologyPayload& delta = *record->topology();

  // Inverse deltas newest-first restore the exact pre-transaction master
  // bytes. The attach subject is about to be unplugged again: restore its
  // master entries but waste no SMPs programming it.
  const SmpCost lfts = revert_deltas(
      sm_, txn.applied, SmpRouting::kDirected, /*skip_unreachable=*/true,
      delta.op == TopologyOp::kAttachSwitch ? delta.subject : kInvalidNode);
  txn.rollback_smps += lfts.smps;
  txn.rollback_time_us += lfts.time_us;

  // Un-mutate the cabling and restore the subject's addressing (reverse
  // chronological order: the mutation happened before the apply).
  if (record->started) {
    const SmpCost addressing = undo_cabling(sm_, delta);
    txn.rollback_smps += addressing.smps;
    txn.rollback_time_us += addressing.time_us;
    sm_.adopt_topology_change();
  }

  // Settle any master/installed disagreement left by aborted pushes (and
  // give a re-plugged subject its cold resync) — still PCt-free.
  const auto settle = sm_.redistribute(kSettleRounds, SmpRouting::kDirected);
  txn.rollback_smps += settle.smps;
  txn.rollback_time_us += settle.time_us;

  journal_.roll_back(txn.id);
  txn.state = TopologyTxnState::kRolledBack;
  TopologyMetrics::get().rolled_back.inc();
  IBVS_INFO("topology") << to_string(txn.op) << " rolled back: "
                        << txn.rollback_smps << " SMPs to undo";
}

void TopologyTxnManager::run(TopologyTxn& txn,
                             const TopologyApplyOptions& opts) {
  try {
    txn_mutate(txn);
    txn_reroute(txn, opts);
    txn_commit(txn);
  } catch (...) {
    if (!txn.terminal()) {
      try {
        txn_rollback(txn);
      } catch (...) {
        // Rollback failures leave the journal record in flight; the next
        // recover() resolves it. The original error still propagates.
      }
    }
    throw;
  }
}

TopologyTxn TopologyTxnManager::attach_switch(NodeId sw,
                                              std::vector<CableSpec> cables,
                                              const TopologyApplyOptions& opts) {
  TopologyTxn txn = begin_attach_switch(sw, std::move(cables));
  run(txn, opts);
  return txn;
}

TopologyTxn TopologyTxnManager::detach_switch(NodeId sw,
                                              bool allow_orphan_endpoints,
                                              const TopologyApplyOptions& opts) {
  TopologyTxn txn = begin_detach_switch(sw, allow_orphan_endpoints);
  run(txn, opts);
  return txn;
}

TopologyTxn TopologyTxnManager::add_link(CableSpec cable,
                                         const TopologyApplyOptions& opts) {
  TopologyTxn txn = begin_add_link(cable);
  run(txn, opts);
  return txn;
}

TopologyTxn TopologyTxnManager::remove_link(NodeId node, PortNum port,
                                            const TopologyApplyOptions& opts) {
  TopologyTxn txn = begin_remove_link(node, port);
  run(txn, opts);
  return txn;
}

}  // namespace ibvs::sm
