#include "inject/chaos.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "cloud/planner.hpp"
#include "sm/topology_txn.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/expect.hpp"

namespace ibvs::inject {

namespace {

// FNV-1a, the digest two same-seed runs must agree on.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fold(std::uint64_t& h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
}

void fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
}

struct CableRef {
  NodeId a = kInvalidNode;
  PortNum a_port = 0;
  NodeId b = kInvalidNode;
  PortNum b_port = 0;
};

/// Nodes reachable from `start` over cables, optionally pretending one
/// cable is cut or one node is gone.
std::vector<bool> reachable_set(const Fabric& fabric, NodeId start,
                                const CableRef* skip_cable,
                                NodeId skip_node) {
  std::vector<bool> seen(fabric.size(), false);
  if (start == skip_node) return seen;
  std::vector<NodeId> queue{start};
  seen[start] = true;
  while (!queue.empty()) {
    const NodeId u = queue.back();
    queue.pop_back();
    const Node& n = fabric.node(u);
    for (PortNum p = 1; p <= n.num_ports(); ++p) {
      const Port& port = n.ports[p];
      if (!port.connected()) continue;
      if (skip_cable != nullptr &&
          ((u == skip_cable->a && p == skip_cable->a_port) ||
           (u == skip_cable->b && p == skip_cable->b_port))) {
        continue;
      }
      const NodeId v = port.peer;
      if (v == skip_node || seen[v]) continue;
      seen[v] = true;
      queue.push_back(v);
    }
  }
  return seen;
}

/// Safety filter: removing the cable (or the whole node) must not cost any
/// *other* currently-reachable node its connectivity to the SM.
bool safe_to_remove(const Fabric& fabric, NodeId sm_node,
                    const CableRef* cable, NodeId node) {
  const auto before = reachable_set(fabric, sm_node, nullptr, kInvalidNode);
  const auto after = reachable_set(fabric, sm_node, cable, node);
  for (NodeId id = 0; id < fabric.size(); ++id) {
    if (id == node) continue;
    if (before[id] && !after[id]) return false;
  }
  return true;
}

/// Switch-to-switch cables, each counted once, in (NodeId, port) order.
std::vector<CableRef> inter_switch_cables(const Fabric& fabric) {
  std::vector<CableRef> out;
  for (NodeId id = 0; id < fabric.size(); ++id) {
    const Node& n = fabric.node(id);
    if (!n.is_physical_switch()) continue;
    for (PortNum p = 1; p <= n.num_ports(); ++p) {
      const Port& port = n.ports[p];
      if (!port.connected()) continue;
      if (!fabric.node(port.peer).is_physical_switch()) continue;
      if (port.peer < id) continue;  // the lower end enumerates the cable
      out.push_back({id, p, port.peer, port.peer_port});
    }
  }
  return out;
}

std::string cable_name(const Fabric& fabric, const CableRef& c) {
  return fabric.node(c.a).name + ":" + std::to_string(c.a_port) + "<->" +
         fabric.node(c.b).name + ":" + std::to_string(c.b_port);
}

enum class EventKind {
  kLinkCut,
  kLinkRestore,
  kLinkFlap,
  kSwitchKill,
  kSwitchRevive,
  kMigrate,
  kAttachSwitch,
  kDetachSwitch,
};

const char* kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kLinkCut:
      return "link_cut";
    case EventKind::kLinkRestore:
      return "link_restore";
    case EventKind::kLinkFlap:
      return "link_flap";
    case EventKind::kSwitchKill:
      return "switch_kill";
    case EventKind::kSwitchRevive:
      return "switch_revive";
    case EventKind::kMigrate:
      return "migrate";
    case EventKind::kAttachSwitch:
      return "attach_switch";
    case EventKind::kDetachSwitch:
      return "detach_switch";
  }
  return "?";
}

struct ChaosMetrics {
  telemetry::Counter& steps;
  telemetry::Counter& violations;
  telemetry::Counter& recovery_smps;

  static ChaosMetrics& get() {
    auto& reg = telemetry::Registry::global();
    static ChaosMetrics m{
        reg.counter("ibvs_chaos_steps_total", {}, "Chaos steps executed"),
        reg.counter("ibvs_chaos_violations_total", {},
                    "FabricChecker violations observed after recoveries"),
        reg.counter("ibvs_chaos_recovery_smps_total", {},
                    "LFT SMPs spent re-converging after chaos events"),
    };
    return m;
  }
};

}  // namespace

std::string to_string(const ChaosReport& report) {
  std::ostringstream os;
  os << "chaos seed=" << report.seed << " steps=" << report.steps << "\n";
  os << std::left << std::setw(4) << "#" << std::setw(18) << "event"
     << std::setw(34) << "detail" << std::right << std::setw(7) << "rounds"
     << std::setw(7) << "smps" << std::setw(9) << "retries" << std::setw(9)
     << "timeouts" << std::setw(12) << "time_us" << std::setw(6) << "viol"
     << "\n";
  for (std::size_t i = 0; i < report.events.size(); ++i) {
    const ChaosEvent& e = report.events[i];
    os << std::left << std::setw(4) << i << std::setw(18) << e.kind
       << std::setw(34) << e.detail << std::right << std::setw(7) << e.rounds
       << std::setw(7) << e.smps << std::setw(9) << e.retries << std::setw(9)
       << e.timeouts << std::setw(12) << std::fixed << std::setprecision(1)
       << e.time_us << std::setw(6) << e.violations << "\n";
  }
  if (report.evacuation_moves + report.evacuation_batches > 0) {
    os << "evacuation: hyp" << report.evacuation_hypervisor << " moves="
       << report.evacuation_moves << " swaps=" << report.evacuation_swaps
       << " batches=" << report.evacuation_batches
       << " replans=" << report.evacuation_replans
       << " complete=" << (report.evacuation_complete ? "yes" : "no") << "\n";
  }
  os << "totals: smps=" << report.reconverge_smps
     << " retries=" << report.reconverge_retries
     << " timeouts=" << report.reconverge_timeouts
     << " undeliverable=" << report.undeliverable << " time_us=" << std::fixed
     << std::setprecision(1) << report.reconverge_time_us
     << " violations=" << report.checker_violations
     << " converged=" << (report.all_converged ? "yes" : "no") << std::hex
     << " digest=0x" << report.digest << std::dec << "\n";
  if (report.migration_commits + report.migration_rollbacks > 0) {
    os << "migration txns: committed=" << report.migration_commits
       << " rolled_back=" << report.migration_rollbacks << "\n";
  }
  if (report.topology_commits + report.topology_rollbacks > 0) {
    os << "topology txns: committed=" << report.topology_commits
       << " rolled_back=" << report.topology_rollbacks << "\n";
  }
  return os.str();
}

namespace {

/// Live switches whose death leaves every other node reachable from the SM.
std::vector<NodeId> killable_switches(const Fabric& fabric,
                                      const FaultInjector& injector,
                                      NodeId sm_node) {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < fabric.size(); ++id) {
    if (!fabric.node(id).is_physical_switch()) continue;
    if (injector.is_dead(id)) continue;
    if (!safe_to_remove(fabric, sm_node, nullptr, id)) continue;
    out.push_back(id);
  }
  return out;
}

/// What follows every applied event: the SM's reconvergence loop, priced
/// on the simulated clock under whatever MAD faults are active, then every
/// invariant checked on the installed fabric. The event and its cost fold
/// into the report and its digest.
void recover_and_check(core::VSwitchFabric& vsf, const FabricChecker& checker,
                       ChaosReport& report, ChaosEvent event) {
  sm::SubnetManager& sm = vsf.subnet_manager();
  const fabric::SmpTransport& transport = sm.transport();
  const SmpCounters before = transport.counters();
  const auto recovery = sm.reconverge();
  const SmpCounters after = transport.counters();
  event.rounds = recovery.rounds;
  event.smps = recovery.smps;
  event.time_us = recovery.time_us;
  event.retries = after.retries - before.retries;
  event.timeouts = after.timeouts - before.timeouts;
  report.undeliverable += after.undeliverable - before.undeliverable;
  if (!recovery.converged) report.all_converged = false;

  const CheckReport checked = checker.check(&vsf);
  event.violations = checked.violations.size();

  report.reconverge_rounds += event.rounds;
  report.reconverge_smps += event.smps;
  report.reconverge_retries += event.retries;
  report.reconverge_timeouts += event.timeouts;
  report.reconverge_time_us += event.time_us;
  report.checker_violations += event.violations;
  ChaosMetrics::get().violations.inc(event.violations);
  ChaosMetrics::get().recovery_smps.inc(event.smps);

  fold(report.digest, event.kind);
  fold(report.digest, event.detail);
  fold(report.digest, event.smps);
  fold(report.digest, static_cast<std::uint64_t>(event.violations));
  report.events.push_back(std::move(event));
}

/// The kEvacuation scenario: drain one hypervisor through the fleet
/// planner while a switch dies mid-plan. Every batch boundary reconverges
/// and checker-verifies; the digest folds the same (kind, detail, smps,
/// violations) stream as the steady-state harness, so two same-seed runs
/// must agree bit for bit.
ChaosReport run_evacuation_chaos(cloud::CloudOrchestrator& cloud,
                                 FaultInjector& injector,
                                 const ChaosConfig& config) {
  core::VSwitchFabric& vsf = cloud.fabric();
  sm::SubnetManager& sm = vsf.subnet_manager();
  Fabric& fabric = sm.fabric();
  IBVS_REQUIRE(sm.has_routing(), "boot the fabric before running chaos");

  auto span = telemetry::Tracer::global().span(
      "chaos.evacuation", {{"seed", std::to_string(config.seed)}});

  fabric::SmpTransport& transport = sm.transport();
  injector.attach_transport(&transport);
  fabric::LinkFaultModel* const previous_model = transport.fault_model();
  transport.set_fault_model(&injector);
  injector.set_global_fault(config.mad_faults);

  SplitMix64 rng(config.seed);
  const FabricChecker checker(sm);
  const NodeId sm_node = transport.sm_node();

  ChaosReport report;
  report.seed = config.seed;
  report.digest = kFnvOffset;

  // The host to drain: the fullest one (lowest index on ties — the loop
  // only replaces on strictly-more VMs).
  const auto& hyps = vsf.hypervisors();
  std::size_t target = 0;
  std::size_t most_used = 0;
  for (std::size_t h = 0; h < hyps.size(); ++h) {
    const std::size_t used = hyps[h].vfs.size() - vsf.free_vf_count(h);
    if (used > most_used) {
      most_used = used;
      target = h;
    }
  }
  report.evacuation_hypervisor = target;

  const auto recover_step = [&](ChaosEvent event) {
    recover_and_check(vsf, checker, report, std::move(event));
    ++report.steps;
  };

  cloud::MigrationPlanner::Options planner_options;
  planner_options.mode = core::ReconfigMode::kMinimal;
  cloud::MigrationPlanner planner(cloud, planner_options);
  cloud::FleetGoal goal;
  goal.kind = cloud::FleetGoalKind::kEvacuateHypervisor;
  goal.hypervisor = target;
  const auto plan = planner.plan(goal);

  {
    // Planning sends nothing, but the plan shape is part of the digest.
    ChaosEvent event;
    event.kind = "plan";
    event.detail = "hyp" + std::to_string(target) + ": " +
                   std::to_string(plan.total_moves()) + " moves in " +
                   std::to_string(plan.batches.size()) + " batches";
    fold(report.digest, event.kind);
    fold(report.digest, event.detail);
    ++report.steps;
    report.events.push_back(std::move(event));
  }

  // One seeded draw decides which batch the switch dies in front of; the
  // victim itself is drawn when the moment arrives, against live state.
  const std::size_t kill_before = !plan.batches.empty()
                                      ? rng.below(plan.batches.size())
                                      : static_cast<std::size_t>(-1);
  NodeId killed = kInvalidNode;

  cloud::ExecutorPolicy policy;
  policy.txn.backoff_base_s = 0.0;  // simulated clock only
  policy.on_batch_start = [&](std::size_t index,
                              const cloud::MigrationBatch&) {
    if (index != kill_before || killed != kInvalidNode) return;
    const auto candidates = killable_switches(fabric, injector, sm_node);
    if (candidates.empty()) return;
    killed = candidates[rng.below(candidates.size())];
    ChaosEvent event;
    event.kind = "switch_kill";
    event.detail =
        fabric.node(killed).name + " before batch " + std::to_string(index);
    injector.kill_node(killed);
    ++report.structural_events;
    recover_step(std::move(event));
  };
  policy.on_batch_end = [&](std::size_t index, const cloud::MigrationBatch&,
                            const cloud::BatchExecution& be) {
    ++report.evacuation_batches;
    report.migration_commits += be.committed;
    report.migration_rollbacks += be.rolled_back;
    report.migrations += be.committed + be.rolled_back + be.failed;
    ChaosEvent event;
    event.kind = "batch";
    event.detail = "b" + std::to_string(index) + ": " +
                   std::to_string(be.committed) + " committed, " +
                   std::to_string(be.rolled_back) + " rolled back, " +
                   std::to_string(be.skipped) + " skipped";
    recover_step(std::move(event));
  };

  cloud::PlanExecutor executor(cloud);
  // Execute in the mode the planner predicted with.
  const core::MigrationOptions move_options{
      .mode = core::ReconfigMode::kMinimal};
  const auto exec = executor.execute(planner, plan, move_options, policy);
  report.evacuation_moves += exec.committed;
  report.evacuation_swaps += exec.swaps_committed;
  report.evacuation_replans += exec.replans;

  if (killed != kInvalidNode) {
    ChaosEvent event;
    event.kind = "switch_revive";
    event.detail = fabric.node(killed).name;
    injector.revive_node(killed);
    ++report.structural_events;
    recover_step(std::move(event));
  }

  // The dead switch may have stranded VMs on the target host; with every
  // switch back, one more planned pass must finish the drain.
  const auto residual = [&]() {
    std::size_t n = 0;
    for (const std::uint32_t id : vsf.active_vm_ids()) {
      if (vsf.vm({id}).hypervisor == target) ++n;
    }
    return n;
  };
  if (residual() > 0) {
    const auto retry_plan = planner.plan(goal);
    const auto retry =
        executor.execute(planner, retry_plan, move_options, policy);
    report.evacuation_moves += retry.committed;
    report.evacuation_swaps += retry.swaps_committed;
    report.evacuation_replans += retry.replans;
  }
  report.evacuation_complete = residual() == 0;
  fold(report.digest, std::string_view(report.evacuation_complete
                                           ? "complete"
                                           : "incomplete"));

  transport.set_fault_model(previous_model);
  span.set_attr("moves", std::to_string(report.evacuation_moves));
  span.set_attr("violations", std::to_string(report.checker_violations));
  return report;
}

}  // namespace

ChaosReport run_chaos(cloud::CloudOrchestrator& cloud,
                      FaultInjector& injector, const ChaosConfig& config) {
  if (config.scenario == ChaosScenario::kEvacuation) {
    return run_evacuation_chaos(cloud, injector, config);
  }
  core::VSwitchFabric& vsf = cloud.fabric();
  sm::SubnetManager& sm = vsf.subnet_manager();
  Fabric& fabric = sm.fabric();
  IBVS_REQUIRE(sm.has_routing(), "boot the fabric before running chaos");

  auto span = telemetry::Tracer::global().span(
      "chaos.run", {{"seed", std::to_string(config.seed)},
                    {"steps", std::to_string(config.steps)}});

  fabric::SmpTransport& transport = sm.transport();
  injector.attach_transport(&transport);
  fabric::LinkFaultModel* const previous_model = transport.fault_model();
  transport.set_fault_model(&injector);
  injector.set_global_fault(config.mad_faults);

  SplitMix64 rng(config.seed);
  const FabricChecker checker(sm);

  ChaosReport report;
  report.seed = config.seed;
  report.digest = kFnvOffset;

  const struct {
    EventKind kind;
    unsigned weight;
  } kinds[] = {
      {EventKind::kLinkCut, config.weight_link_cut},
      {EventKind::kLinkRestore, config.weight_link_restore},
      {EventKind::kLinkFlap, config.weight_link_flap},
      {EventKind::kSwitchKill, config.weight_switch_kill},
      {EventKind::kSwitchRevive, config.weight_switch_revive},
      {EventKind::kMigrate, config.weight_migrate},
      {EventKind::kAttachSwitch, config.weight_attach_switch},
      {EventKind::kDetachSwitch, config.weight_detach_switch},
  };
  unsigned total_weight = 0;
  for (const auto& k : kinds) total_weight += k.weight;
  IBVS_REQUIRE(total_weight > 0, "every chaos event weight is zero");

  const NodeId sm_node = transport.sm_node();

  // Topology-delta plumbing (only exercised when the corresponding weights
  // are non-zero — default configs never construct a transaction).
  sm::TopologyTxnManager topo(sm, vsf.journal());

  /// Switches a detach transaction would accept: alive, cabled, endpoint-
  /// free (no assigned LID attaches through them), not hosting the SM, and
  /// removable without cutting any currently-reachable node off.
  const auto detach_candidates = [&]() {
    std::vector<NodeId> out;
    const auto sm_attach = fabric.node(sm_node).is_ca()
                               ? fabric.physical_attachment(sm_node)
                               : std::nullopt;
    for (NodeId id = 0; id < fabric.size(); ++id) {
      if (!fabric.node(id).is_physical_switch()) continue;
      if (injector.is_dead(id)) continue;
      if (id == sm_node || (sm_attach && sm_attach->first == id)) continue;
      if (fabric.cables_of(id).empty()) continue;
      if (!safe_to_remove(fabric, sm_node, nullptr, id)) continue;
      bool hosts_endpoint = false;
      for (const Lid lid : sm.lids().assigned_lids()) {
        if (sm.lids().owner(lid).node == id) continue;
        const auto att = sm.lids().attachment(fabric, lid);
        if (att && att->first == id) {
          hosts_endpoint = true;
          break;
        }
      }
      if (!hosts_endpoint) out.push_back(id);
    }
    return out;
  };

  for (std::size_t step = 0; step < config.steps; ++step) {
    ++report.steps;
    ChaosMetrics::get().steps.inc();

    // 1. Pick the event kind (one RNG draw, weight-proportional).
    EventKind kind = EventKind::kMigrate;
    std::uint64_t roll = rng.below(total_weight);
    for (const auto& k : kinds) {
      if (roll < k.weight) {
        kind = k.kind;
        break;
      }
      roll -= k.weight;
    }

    // 2. Enumerate candidates and apply. Empty candidate sets record a
    // skip (still part of the digest: the RNG draw happened).
    ChaosEvent event;
    event.kind = kind_name(kind);
    bool applied = false;
    bool structural = false;

    switch (kind) {
      case EventKind::kLinkCut: {
        std::vector<CableRef> candidates;
        for (const CableRef& c : inter_switch_cables(fabric)) {
          if (safe_to_remove(fabric, sm_node, &c, kInvalidNode)) {
            candidates.push_back(c);
          }
        }
        if (!candidates.empty()) {
          const CableRef c = candidates[rng.below(candidates.size())];
          event.detail = cable_name(fabric, c);
          injector.cut_link(c.a, c.a_port);
          applied = structural = true;
        }
        break;
      }
      case EventKind::kLinkRestore: {
        std::vector<FaultInjector::Cable> candidates;
        for (const auto& c : injector.severed()) {
          if (injector.is_dead(c.a) || injector.is_dead(c.b)) continue;
          candidates.push_back(c);
        }
        if (!candidates.empty()) {
          const auto c = candidates[rng.below(candidates.size())];
          event.detail = cable_name(fabric, {c.a, c.a_port, c.b, c.b_port});
          injector.restore_link(c.a, c.a_port);
          applied = structural = true;
        }
        break;
      }
      case EventKind::kLinkFlap: {
        const auto cables = inter_switch_cables(fabric);
        if (!cables.empty()) {
          const CableRef c = cables[rng.below(cables.size())];
          event.detail = cable_name(fabric, c);
          injector.flap_link(c.a, c.a_port);
          applied = structural = true;
        }
        break;
      }
      case EventKind::kSwitchKill: {
        const auto candidates = killable_switches(fabric, injector, sm_node);
        if (!candidates.empty()) {
          const NodeId id = candidates[rng.below(candidates.size())];
          event.detail = fabric.node(id).name;
          injector.kill_node(id);
          applied = structural = true;
        }
        break;
      }
      case EventKind::kSwitchRevive: {
        std::vector<NodeId> candidates;
        for (NodeId id = 0; id < fabric.size(); ++id) {
          if (injector.is_dead(id)) candidates.push_back(id);
        }
        if (!candidates.empty()) {
          const NodeId id = candidates[rng.below(candidates.size())];
          event.detail = fabric.node(id).name;
          injector.revive_node(id);
          applied = structural = true;
        }
        break;
      }
      case EventKind::kMigrate: {
        // A uniformly drawn active VM, then a uniformly drawn destination
        // with a free VF that is physically attached and SM-reachable: one
        // draw each, and none for the destination when the VM has none.
        std::vector<std::uint32_t> vms = vsf.active_vm_ids();
        std::sort(vms.begin(), vms.end());
        if (vms.empty()) break;
        const core::VmHandle vm{vms[rng.below(vms.size())]};
        const std::size_t src = vsf.vm(vm).hypervisor;
        std::vector<std::size_t> dsts;
        for (std::size_t h = 0; h < vsf.hypervisors().size(); ++h) {
          if (h == src || !vsf.free_vf_on(h)) continue;
          const NodeId pf = vsf.hypervisors()[h].pf;
          if (!fabric.physical_attachment(pf)) continue;
          if (!transport.hops_to(pf)) continue;
          dsts.push_back(h);
        }
        if (dsts.empty()) break;
        const std::size_t dst = dsts[rng.below(dsts.size())];
        event.detail = "vm" + std::to_string(vm.id) + " hyp" +
                       std::to_string(src) + "->hyp" + std::to_string(dst);
        cloud.migrate(vm, dst);
        ++report.migrations;
        applied = true;
        break;
      }
      case EventKind::kAttachSwitch: {
        // Expand the fabric live: a brand-new 4-port switch cabled to one
        // or two live, reachable peers with a free port (a second draw when
        // a second peer exists) through a journaled transaction — minimal
        // re-route, no full sweep.
        std::vector<NodeId> peers;
        for (NodeId id = 0; id < fabric.size(); ++id) {
          if (!fabric.node(id).is_physical_switch()) continue;
          if (injector.is_dead(id)) continue;
          if (!fabric.free_port(id)) continue;
          if (!transport.hops_to(id)) continue;
          peers.push_back(id);
        }
        if (peers.empty()) break;
        const NodeId p1 = peers[rng.below(peers.size())];
        std::erase(peers, p1);
        const NodeId sw = fabric.add_switch(
            "chaos-sw" + std::to_string(fabric.size()), 4);
        std::vector<CableSpec> cables{{sw, 1, p1, *fabric.free_port(p1)}};
        if (!peers.empty()) {
          const NodeId p2 = peers[rng.below(peers.size())];
          cables.push_back({sw, 2, p2, *fabric.free_port(p2)});
        }
        event.detail = fabric.node(sw).name;
        try {
          const auto txn = topo.attach_switch(sw, cables);
          event.detail += " +" + std::to_string(txn.stats.lft_smps) + "smp";
          ++report.topology_commits;
        } catch (const sm::TopologyError& err) {
          event.detail += std::string(" failed: ") + to_string(err.code());
          ++report.topology_rollbacks;
        }
        applied = structural = true;
        break;
      }
      case EventKind::kDetachSwitch: {
        const auto candidates = detach_candidates();
        if (!candidates.empty()) {
          const NodeId id = candidates[rng.below(candidates.size())];
          event.detail = fabric.node(id).name;
          try {
            const auto txn = topo.detach_switch(id);
            event.detail += " -" + std::to_string(txn.stats.lft_smps) + "smp";
            ++report.topology_commits;
          } catch (const sm::TopologyError& err) {
            event.detail += std::string(" failed: ") + to_string(err.code());
            ++report.topology_rollbacks;
          }
          applied = structural = true;
        }
        break;
      }
    }

    if (!applied) {
      event.kind = std::string("skip:") + kind_name(kind);
      ++report.skipped;
      fold(report.digest, event.kind);
      report.events.push_back(std::move(event));
      continue;
    }
    if (structural) ++report.structural_events;

    // 3-4. Recover, then verify every invariant on the installed fabric.
    recover_and_check(vsf, checker, report, std::move(event));
  }

  transport.set_fault_model(previous_model);
  span.set_attr("smps", std::to_string(report.reconverge_smps));
  span.set_attr("violations", std::to_string(report.checker_violations));
  return report;
}

ChaosReport run_chaos(core::VSwitchFabric& fabric, std::uint64_t seed,
                      std::size_t steps) {
  if (!fabric.subnet_manager().has_routing()) fabric.boot();
  cloud::CloudOrchestrator cloud(fabric, cloud::Placement::kSpread);
  if (fabric.active_vms() == 0) {
    cloud.launch_vms(fabric.hypervisors().size());
  }
  FaultInjector injector(fabric.subnet_manager().fabric(), seed);
  ChaosConfig config;
  config.seed = seed;
  config.steps = steps;
  config.mad_faults.drop_probability = 0.02;
  return run_chaos(cloud, injector, config);
}

}  // namespace ibvs::inject
