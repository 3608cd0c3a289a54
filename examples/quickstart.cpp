// Quickstart: build a virtualized IB subnet, boot it, start VMs, and
// live-migrate one — watching the reconfiguration happen.
//
//   $ ./examples/quickstart
//   $ ./examples/quickstart --metrics   # also dump the telemetry registry
//   $ ./examples/quickstart --health    # PerfMgr sweep + fabric health report
//   $ ./examples/quickstart --chaos     # seeded fault injection + recovery
//
// This walks the library's main concepts in ~80 lines:
//   Fabric + topology builders  -> the physical subnet
//   attach_hypervisors          -> SR-IOV vSwitch hypervisors (§IV-B)
//   SubnetManager               -> OpenSM-like sweep (discovery, LIDs,
//                                  routing, LFT distribution)
//   VSwitchFabric               -> VM lifecycle + §V-C reconfiguration
//   trace_unicast               -> observing the data path end to end
//   telemetry::Registry         -> Prometheus-style counters every layer
//                                  updates as a side effect of the above
#include <cstdio>
#include <cstring>

#include "core/virtualizer.hpp"
#include "core/vswitch.hpp"
#include "fabric/trace.hpp"
#include "inject/chaos.hpp"
#include "perf/health.hpp"
#include "perf/perf_mgr.hpp"
#include "sm/subnet_manager.hpp"
#include "telemetry/metrics.hpp"
#include "topology/fat_tree.hpp"

using namespace ibvs;

int main(int argc, char** argv) {
  bool show_metrics = false;
  bool show_health = false;
  bool run_chaos = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) show_metrics = true;
    if (std::strcmp(argv[i], "--health") == 0) show_health = true;
    if (std::strcmp(argv[i], "--chaos") == 0) run_chaos = true;
  }
  // 1. A small 2-level fat-tree: 4 leaves x 2 spines, 3 host slots each.
  Fabric fabric;
  const auto built = topology::build_two_level_fat_tree(
      fabric, topology::TwoLevelParams{.num_leaves = 4,
                                       .num_spines = 2,
                                       .hosts_per_leaf = 3,
                                       .radix = 12});

  // 2. Eight hypervisors, each an SR-IOV HCA in vSwitch mode with 4 VFs.
  const auto hyps = core::attach_hypervisors(fabric, built.host_slots,
                                             /*num_vfs=*/4, /*count=*/8);

  // 3. A dedicated subnet-manager node on the remaining slot.
  const NodeId sm_node = fabric.add_ca("sm-node");
  fabric.connect(sm_node, 1, built.host_slots[8].leaf,
                 built.host_slots[8].port);
  fabric.validate();

  // 4. The subnet manager, using the fat-tree routing engine.
  sm::SubnetManager smgr(fabric, sm_node,
                         routing::make_engine(routing::EngineKind::kFatTree));

  // 5. The vSwitch layer with prepopulated LIDs (§V-A).
  core::VSwitchFabric cloud(smgr, hyps, core::LidScheme::kPrepopulated);
  const auto boot = cloud.boot();
  std::printf("booted: %zu nodes discovered, %zu LIDs, %llu LFT SMPs, "
              "PCt=%.3f ms\n",
              boot.discovery.nodes_found, smgr.lids().count(),
              static_cast<unsigned long long>(boot.distribution.smps),
              boot.path_computation_seconds * 1e3);

  // 6. Start two VMs on hypervisor 0.
  const auto vm1 = cloud.create_vm(0);
  const auto vm2 = cloud.create_vm(0);
  std::printf("vm1 lid=%u vm2 lid=%u (no reconfiguration needed: %llu LFT "
              "SMPs)\n",
              vm1.lid.value(), vm2.lid.value(),
              static_cast<unsigned long long>(vm1.lft_smps + vm2.lft_smps));

  // 7. vm2 talks to vm1.
  auto trace = fabric::trace_unicast(fabric, cloud.vm_node(vm2.vm), vm1.lid);
  std::printf("vm2 -> vm1: %s in %zu hops\n",
              fabric::to_string(trace.status).c_str(), trace.hops);

  // 8. Live-migrate vm1 to hypervisor 7 (a different leaf). Its LID and
  //    vGUID travel along; the subnet is reconfigured by swapping two LFT
  //    entries on the switches that need it.
  const auto migration = cloud.migrate_vm(vm1.vm, 7);
  std::printf(
      "migrated vm1: updated %zu of %zu switches with %llu LFT SMPs "
      "(plus %llu hypervisor SMPs) in %.1f us\n",
      migration.reconfig.switches_updated, migration.reconfig.switches_total,
      static_cast<unsigned long long>(migration.reconfig.lft_smps),
      static_cast<unsigned long long>(
          migration.reconfig.hypervisor_lid_smps +
          migration.reconfig.guid_smps),
      migration.reconfig.lft_time_us);
  std::printf("vm1 kept lid=%u (swapped VF lid %u moved back)\n",
              cloud.vm(vm1.vm).lid.value(), migration.swapped_lid.value());

  // 9. vm2 reconnects without any address rediscovery.
  trace = fabric::trace_unicast(fabric, cloud.vm_node(vm2.vm), vm1.lid);
  std::printf("vm2 -> vm1 after migration: %s in %zu hops\n",
              fabric::to_string(trace.status).c_str(), trace.hops);

  // 10. --health: the PerfMgr polls every port's PMA counters (more MAD
  //     traffic, visible in the telemetry), and the health monitor turns
  //     the per-sweep deltas into an ibdiagnet-style verdict. A degrading
  //     cable is injected so the report has something to find.
  bool health_ok = true;
  if (show_health) {
    perf::PerfMgr pmgr(smgr);
    perf::HealthMonitor monitor;
    pmgr.sweep();  // baseline: the next sweep reports per-interval deltas
    fabric.node(hyps[0].leaf)
        .ports[hyps[0].leaf_port]
        .counters.add_symbol_errors(12);  // the injected bad link
    const auto health = monitor.analyze(pmgr.sweep());
    std::printf("\n%s", perf::render_fabric_health(health, fabric).c_str());
    perf::apply_to_sm(smgr, health);
    std::printf("sm flagged %zu degraded port(s)\n",
                smgr.degraded_ports().size());
    health_ok = !health.findings.empty() && !smgr.degraded_ports().empty();
  }

  // 11. --chaos: a fresh subnet takes seeded abuse — link cuts, flaps, a
  //     switch death, live migrations — with a lossy MAD plane (2% drops
  //     force the transport's retry/backoff machinery). After every event
  //     the SM re-converges and the FabricChecker proves the fabric is
  //     back in a consistent state. Min-hop routing: unlike the fat-tree
  //     engine it survives arbitrarily degraded topologies.
  bool chaos_ok = true;
  if (run_chaos) {
    Fabric chaos_fabric;
    const auto chaos_built = topology::build_two_level_fat_tree(
        chaos_fabric, topology::TwoLevelParams{.num_leaves = 4,
                                               .num_spines = 2,
                                               .hosts_per_leaf = 3,
                                               .radix = 12});
    const auto chaos_hyps = core::attach_hypervisors(
        chaos_fabric, chaos_built.host_slots, /*num_vfs=*/2, /*count=*/8);
    const NodeId chaos_sm = chaos_fabric.add_ca("sm-node");
    chaos_fabric.connect(chaos_sm, 1, chaos_built.host_slots[8].leaf,
                         chaos_built.host_slots[8].port);
    sm::SubnetManager chaos_smgr(
        chaos_fabric, chaos_sm,
        routing::make_engine(routing::EngineKind::kMinHop));
    core::VSwitchFabric chaos_cloud(chaos_smgr, chaos_hyps,
                                    core::LidScheme::kDynamic);
    const auto report = inject::run_chaos(chaos_cloud, /*seed=*/5,
                                          /*steps=*/16);
    std::printf("\n--- chaos (seed=5, 2%% MAD drop probability) ---\n%s",
                inject::to_string(report).c_str());
    chaos_ok = report.checker_violations == 0 && report.all_converged;
    std::printf("chaos verdict: %s\n",
                chaos_ok ? "fabric recovered after every event"
                         : "INVARIANT VIOLATIONS");
  }

  // 12. Everything above also updated the process-wide telemetry registry:
  //     SMPs by {attribute, method, routing}, sweep phases, reconfig kinds.
  if (show_metrics) {
    std::printf("\n--- telemetry (Prometheus exposition) ---\n%s",
                telemetry::Registry::global().prometheus_text().c_str());
  }
  return trace.delivered() && health_ok && chaos_ok ? 0 : 1;
}
