#include "sm/subnet_manager.hpp"

#include <algorithm>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/expect.hpp"
#include "util/log.hpp"

namespace ibvs::sm {

namespace {

/// Sweep-phase counters, resolved once per process.
struct SweepMetrics {
  telemetry::Counter& sweeps;
  telemetry::Counter& discoveries;
  telemetry::Counter& lids_assigned;
  telemetry::Counter& route_computations;
  telemetry::Counter& blocks_sent;
  telemetry::Counter& blocks_skipped;
  telemetry::Gauge& last_pct_seconds;
  telemetry::Gauge& last_lftdt_us;
  telemetry::Counter& cold_resyncs;
  telemetry::Counter& topology_adoptions;

  static SweepMetrics& get() {
    auto& reg = telemetry::Registry::global();
    static SweepMetrics m{
        reg.counter("ibvs_sm_sweeps_total", {}, "Full sweeps run"),
        reg.counter("ibvs_sm_discoveries_total", {},
                    "Directed-route discovery passes"),
        reg.counter("ibvs_sm_lids_assigned_total", {},
                    "LIDs newly assigned by the SM"),
        reg.counter("ibvs_sm_route_computations_total", {},
                    "Routing-engine runs (the PCt the paper eliminates)"),
        reg.counter("ibvs_sm_lft_blocks_sent_total", {},
                    "LFT blocks distributed because they differed"),
        reg.counter("ibvs_sm_lft_blocks_skipped_total", {},
                    "LFT blocks skipped because the switch was up to date"),
        reg.gauge("ibvs_sm_last_pct_seconds", {},
                  "Path-computation time of the last routing run"),
        reg.gauge("ibvs_sm_last_lftdt_us", {},
                  "Batch makespan of the last LFT distribution"),
        reg.counter("ibvs_sm_cold_resyncs_total", {},
                    "Full-LFT resyncs of switches restored after an outage"),
        reg.counter("ibvs_sm_topology_adoptions_total", {},
                    "Structural fabric changes adopted without a PCt"),
    };
    return m;
  }
};

/// A switch without a cable is outside the subnet (an attach subject
/// before its cabling, a switch a detach severed): a sweep assigns it no
/// LID. One that already holds a LID (a killed switch) keeps it: adopting
/// it reserves the LID for the switch's return.
bool cabled(const Node& n) {
  for (PortNum p = 1; p <= n.num_ports(); ++p) {
    if (n.ports[p].connected()) return true;
  }
  return false;
}

}  // namespace

SubnetManager::SubnetManager(Fabric& fabric, NodeId sm_host,
                             std::unique_ptr<routing::RoutingEngine> engine,
                             fabric::TimingModel timing)
    : fabric_(fabric),
      transport_(fabric, sm_host, timing),
      engine_(std::move(engine)) {
  IBVS_REQUIRE(engine_ != nullptr, "a routing engine is required");
}

void SubnetManager::set_engine(
    std::unique_ptr<routing::RoutingEngine> engine) {
  IBVS_REQUIRE(engine != nullptr, "a routing engine is required");
  engine_ = std::move(engine);
  invalidate_routes();
}

void SubnetManager::invalidate_routes() {
  written_.assign(routing_.lfts.size(), true);
  hop_matrix_.reset();
}

const std::vector<std::uint8_t>& SubnetManager::hop_matrix() {
  IBVS_REQUIRE(routing_ready_, "no master tables yet");
  // The changed cells accumulate until the next routing run reads them.
  hop_matrix_.update(routing_.graph);
  return hop_matrix_.hops;
}

DiscoveryReport SubnetManager::discover() {
  DiscoveryReport report;
  auto span = telemetry::Tracer::global().span("sm.discovery");
  SweepMetrics::get().discoveries.inc();
  const std::uint64_t smps_before = transport_.counters().total;
  // Directed-route BFS from the SM host: each node costs one Get(NodeInfo)
  // (plus Get(SwitchInfo) for switches), each connected port one
  // Get(PortInfo). Hop counts follow the BFS depth, as directed routes do.
  std::vector<std::uint32_t> depth(fabric_.size(), ~0u);
  std::vector<NodeId> queue;
  const NodeId start = transport_.sm_node();
  depth[start] = 0;
  queue.push_back(start);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    const Node& n = fabric_.node(u);
    ++report.nodes_found;
    if (n.is_switch()) {
      ++report.switches_found;
    } else {
      ++report.cas_found;
    }
    transport_.send_discovery_get(u, SmpAttribute::kNodeInfo, depth[u]);
    if (n.is_switch()) {
      transport_.send_discovery_get(u, SmpAttribute::kSwitchInfo, depth[u]);
    }
    const bool forwards = n.is_switch() || u == start;
    for (PortNum p = 1; p <= n.num_ports(); ++p) {
      const Port& port = n.ports[p];
      if (!port.connected()) continue;
      transport_.send_discovery_get(u, SmpAttribute::kPortInfo, depth[u]);
      if (forwards && depth[port.peer] == ~0u) {
        depth[port.peer] = depth[u] + 1;
        queue.push_back(port.peer);
      }
    }
  }
  report.smps = transport_.counters().total - smps_before;
  span.set_attr("nodes", std::to_string(report.nodes_found));
  span.set_attr("smps", std::to_string(report.smps));
  return report;
}

Lid SubnetManager::assign_lid(NodeId node, PortNum port) {
  const Lid lid = lids_.assign_next(fabric_, node, port);
  transport_.send_port_info_set(node, port);
  return lid;
}

std::size_t SubnetManager::adopt_lids() {
  std::size_t adopted = 0;
  const auto adopt = [&](NodeId id, PortNum port) {
    const Lid base = fabric_.node(id).ports[port].lid;
    if (!base.valid()) return;
    const std::uint32_t width = 1u << fabric_.node(id).ports[port].lmc;
    for (std::uint32_t v = base.value(); v < base.value() + width; ++v) {
      const Lid lid{static_cast<std::uint16_t>(v)};
      if (!lids_.assigned(lid)) {
        lids_.assign(fabric_, id, port, lid);
        ++adopted;
      }
    }
    // assign() mirrors each LID into the port; restore the block's base.
    fabric_.set_lid(id, port, base);
  };
  // CAs first so a shared PF/vSwitch LID is owned by the PF endpoint.
  for (NodeId id = 0; id < fabric_.size(); ++id) {
    const Node& n = fabric_.node(id);
    if (!n.is_ca()) continue;
    for (PortNum p = 1; p <= n.num_ports(); ++p) adopt(id, p);
  }
  for (NodeId id = 0; id < fabric_.size(); ++id) {
    if (fabric_.node(id).is_physical_switch()) adopt(id, 0);
  }
  return adopted;
}

std::size_t SubnetManager::assign_lids() {
  auto span = telemetry::Tracer::global().span("sm.lid_assignment");
  adopt_lids();
  std::size_t assigned = 0;
  for (NodeId id = 0; id < fabric_.size(); ++id) {
    const Node& n = fabric_.node(id);
    if (n.is_physical_switch()) {
      if (!n.lid().valid() && cabled(n)) {
        assign_lid(id, 0);
        ++assigned;
      }
    } else if (n.is_ca() && n.role != CaRole::kVf) {
      // Plain hosts and PFs get LIDs here; VF addressing is policy —
      // prepopulated vs dynamic — and owned by the vSwitch layer.
      for (PortNum p = 1; p <= n.num_ports(); ++p) {
        if (n.ports[p].connected() && !n.ports[p].lid.valid()) {
          assign_lid(id, p);
          ++assigned;
        }
      }
    }
  }
  // vSwitches mirror their PF's LID (no LidMap entry, no LFT target).
  for (NodeId id = 0; id < fabric_.size(); ++id) {
    const Node& n = fabric_.node(id);
    if (!n.is_vswitch()) continue;
    for (PortNum p = 1; p <= n.num_ports(); ++p) {
      const Port& port = n.ports[p];
      if (!port.connected()) continue;
      const Node& peer = fabric_.node(port.peer);
      if (peer.is_ca() && peer.role == CaRole::kPf) {
        fabric_.set_lid(id, 0, peer.lid());
        break;
      }
    }
  }
  SweepMetrics::get().lids_assigned.inc(assigned);
  span.set_attr("assigned", std::to_string(assigned));
  return assigned;
}

const routing::RoutingResult& SubnetManager::compute_routes() {
  auto span = telemetry::Tracer::global().span(
      "sm.path_computation", {{"engine", std::string(engine_->name())}});
  try {
    engine_->recompute(fabric_, lids_, routing_, written_, hop_matrix_);
  } catch (...) {
    // A run cut short may leave some tables rewritten and others not.
    invalidate_routes();
    throw;
  }
  written_.assign(routing_.lfts.size(), false);
  hop_matrix_.clear_changes();
  routing_ready_ = true;
  auto& metrics = SweepMetrics::get();
  metrics.route_computations.inc();
  metrics.last_pct_seconds.set(routing_.compute_seconds);
  span.set_attr("switches_rerouted",
                std::to_string(routing_.switches_rerouted));
  span.set_attr("hop_rows_searched",
                std::to_string(routing_.hop_rows_searched));
  span.set_attr("targets_searched",
                std::to_string(routing_.targets_searched));
  span.set_attr("targets_walked", std::to_string(routing_.targets_walked));
  return routing_;
}

DistributionReport SubnetManager::distribution_round(SmpRouting routing) {
  const auto& g = routing_.graph;
  DistributionReport report;
  std::vector<std::uint32_t> blocks;  // one switch's sends, reused
  transport_.begin_batch();
  for (routing::SwitchIdx s = 0; s < g.num_switches(); ++s) {
    const NodeId sw = g.switches[s];
    // A severed switch cannot be programmed: diffing it would charge the
    // round for SMPs that can never be delivered. It is remembered instead;
    // the first round that sees it reachable again sends a cold full-table
    // resync (after an outage the installed LFT cannot be trusted on real
    // hardware — the simulation preserves it, but the SM must not rely on
    // that) and drops it from the set, so the next round diffs it normally
    // and convergence still means a zero-send round.
    if (!transport_.hops_to(sw)) {
      cold_pending_.insert(sw);
      continue;
    }
    bool cold = false;
    if (auto it = cold_pending_.find(sw); it != cold_pending_.end()) {
      cold = true;
      cold_pending_.erase(it);
      SweepMetrics::get().cold_resyncs.inc();
    }
    Lft& master = routing_.lfts[s];
    blocks.clear();
    if (cold) {
      // Restored after an outage: resend every master block, matching or
      // not — content equality with a switch that just came back proves
      // nothing about what its hardware actually holds.
      for (std::size_t b = 0; b < master.block_count(); ++b) {
        blocks.push_back(static_cast<std::uint32_t>(b));
      }
    } else {
      master.for_each_diff_block(fabric_.node(sw).lft, [&](std::size_t b) {
        // Blocks beyond the master's capacity have no payload to send; they
        // stay whatever the switch holds.
        if (b < master.block_count()) {
          blocks.push_back(static_cast<std::uint32_t>(b));
        }
      });
    }
    // Sends start after the scan: each delivered block rewrites the
    // installed table the diff is reading.
    for (const std::uint32_t b : blocks) {
      transport_.send_lft_block(sw, b, master.block(b), routing);
    }
    // Every block that differed from the master (every block, when cold)
    // is sent: no push is pending. Dirty marks left by a master-only
    // replay, or by a revert that skipped this switch, would only resend
    // blocks the switch already holds.
    master.clear_dirty();
    report.smps += blocks.size();
    report.blocks_skipped += master.block_count() - blocks.size();
    if (!blocks.empty()) ++report.switches_touched;
  }
  report.time_us = transport_.end_batch();
  return report;
}

DistributionReport SubnetManager::distribute_lfts(SmpRouting routing) {
  IBVS_REQUIRE(routing_ready_, "compute_routes() must run first");
  auto span = telemetry::Tracer::global().span("sm.lft_distribution");
  const DistributionReport report = distribution_round(routing);
  auto& metrics = SweepMetrics::get();
  metrics.blocks_sent.inc(report.smps);
  metrics.blocks_skipped.inc(report.blocks_skipped);
  metrics.last_lftdt_us.set(report.time_us);
  span.set_attr("blocks_sent", std::to_string(report.smps));
  span.set_attr("blocks_skipped", std::to_string(report.blocks_skipped));
  span.set_attr("switches_touched",
                std::to_string(report.switches_touched));
  return report;
}

SubnetManager::ReconvergeReport SubnetManager::redistribute(
    std::size_t max_rounds, SmpRouting routing) {
  IBVS_REQUIRE(routing_ready_, "compute_routes() must run first");
  ReconvergeReport report;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    ++report.rounds;
    const DistributionReport sent = distribution_round(routing);
    report.time_us += sent.time_us;
    report.smps += sent.smps;
    if (sent.smps == 0) {
      report.converged = true;
      break;
    }
  }
  SweepMetrics::get().blocks_sent.inc(report.smps);
  return report;
}

SubnetManager::ReconvergeReport SubnetManager::reconverge(
    std::size_t max_rounds, SmpRouting routing) {
  auto span = telemetry::Tracer::global().span("sm.reconverge");
  compute_routes();
  const ReconvergeReport report = redistribute(max_rounds, routing);
  span.set_attr("rounds", std::to_string(report.rounds));
  span.set_attr("smps", std::to_string(report.smps));
  span.set_attr("converged", report.converged ? "true" : "false");
  return report;
}

SweepReport SubnetManager::full_sweep() {
  auto span = telemetry::Tracer::global().span("sm.sweep");
  SweepMetrics::get().sweeps.inc();
  SweepReport report;
  report.discovery = discover();
  report.lids_assigned = assign_lids();
  compute_routes();
  report.path_computation_seconds = routing_.compute_seconds;
  report.distribution = distribute_lfts();
  span.set_attr("reconfig_time_us",
                std::to_string(report.reconfiguration_time_us()));
  IBVS_INFO("sm") << "sweep done: " << report.discovery.nodes_found
                  << " nodes, " << report.lids_assigned << " LIDs, "
                  << report.distribution.smps << " LFT SMPs, PCt="
                  << report.path_computation_seconds * 1e3 << " ms";
  return report;
}

void SubnetManager::flag_degraded_port(NodeId node, PortNum port,
                                       std::string_view reason) {
  IBVS_REQUIRE(node < fabric_.size(), "flagged node out of range");
  for (FlaggedPort& f : degraded_ports_) {
    if (f.node == node && f.port == port) {
      f.reason = std::string(reason);
      return;
    }
  }
  static telemetry::Counter& flagged = telemetry::Registry::global().counter(
      "ibvs_sm_degraded_ports_flagged_total", {},
      "Distinct ports the health layer reported to the SM");
  flagged.inc();
  degraded_ports_.push_back({node, port, std::string(reason)});
  IBVS_WARN("sm") << "degraded link flagged: " << fabric_.node(node).name
                  << "/p" << static_cast<unsigned>(port) << " (" << reason
                  << ")";
}

void SubnetManager::update_master_entry(routing::SwitchIdx sw, Lid lid,
                                        PortNum port) {
  IBVS_REQUIRE(routing_ready_, "no master tables yet");
  IBVS_REQUIRE(sw < routing_.lfts.size(), "switch index out of range");
  routing_.lfts[sw].set(lid, port);
  written_[sw] = true;
}

void SubnetManager::refresh_targets() {
  IBVS_REQUIRE(routing_ready_, "no master tables yet");
  routing_.graph.rebuild_targets(fabric_, lids_);
}

void SubnetManager::adopt_topology_change() {
  IBVS_REQUIRE(routing_ready_, "no master tables yet");
  routing_.graph = routing::SwitchGraph::build(fabric_, lids_);
  // Physical switches are enumerated in NodeId order and nodes are never
  // removed, so every pre-existing switch keeps its dense index; newly
  // added switches append at the tail and get empty master tables (every
  // entry kDropPort) for the topology transaction to fill in.
  while (routing_.lfts.size() < routing_.graph.num_switches()) {
    routing_.lfts.emplace_back(lids_.top_lid());
  }
  written_.resize(routing_.lfts.size(), true);
  transport_.invalidate_topology();
  SweepMetrics::get().topology_adoptions.inc();
}

std::uint64_t SubnetManager::push_dirty_blocks(routing::SwitchIdx sw,
                                               SmpRouting routing) {
  IBVS_REQUIRE(routing_ready_, "no master tables yet");
  Lft& master = routing_.lfts[sw];
  const NodeId node = routing_.graph.switches[sw];
  std::uint64_t sent = 0;
  master.for_each_dirty_block([&](std::size_t b) {
    transport_.send_lft_block(node, static_cast<std::uint32_t>(b),
                              master.block(b), routing);
    ++sent;
  });
  master.clear_dirty();
  return sent;
}

}  // namespace ibvs::sm
