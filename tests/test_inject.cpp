// Fault injection: the injector's determinism and structural events, the
// reliable-MAD retry machinery it exercises, the FabricChecker invariant
// suite, SM failover under a half-distributed batch, and the chaos
// harness's seed-reproducibility.
#include <gtest/gtest.h>

#include <algorithm>

#include "cloud/orchestrator.hpp"
#include "inject/chaos.hpp"
#include "inject/checker.hpp"
#include "inject/injector.hpp"
#include "perf/perf_mgr.hpp"
#include "sm/election.hpp"
#include "telemetry/metrics.hpp"
#include "tests/helpers.hpp"

namespace ibvs {
namespace {

/// First switch-to-switch cable of the fabric, in (NodeId, port) order.
std::pair<NodeId, PortNum> first_inter_switch_cable(const Fabric& fabric) {
  for (NodeId id = 0; id < fabric.size(); ++id) {
    const Node& n = fabric.node(id);
    if (!n.is_physical_switch()) continue;
    for (PortNum p = 1; p <= n.num_ports(); ++p) {
      if (n.ports[p].connected() &&
          fabric.node(n.ports[p].peer).is_physical_switch()) {
        return {id, p};
      }
    }
  }
  ADD_FAILURE() << "no inter-switch cable";
  return {kInvalidNode, 0};
}

TEST(Injector, SameSeedSameDecisions) {
  auto s1 = test::PhysicalSubnet::small_fat_tree();
  auto s2 = test::PhysicalSubnet::small_fat_tree();
  inject::FaultInjector a(s1.fabric, 42);
  inject::FaultInjector b(s2.fabric, 42);
  a.set_global_fault({.drop_probability = 0.3, .jitter_max_us = 5.0});
  b.set_global_fault({.drop_probability = 0.3, .jitter_max_us = 5.0});
  const auto [sw, port] = first_inter_switch_cable(s1.fabric);
  const NodeId peer = s1.fabric.node(sw).ports[port].peer;
  const PortNum peer_port = s1.fabric.node(sw).ports[port].peer_port;
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.drop_on_link(sw, port, peer, peer_port),
              b.drop_on_link(sw, port, peer, peer_port));
    EXPECT_DOUBLE_EQ(a.jitter_us(sw, port, peer, peer_port),
                     b.jitter_us(sw, port, peer, peer_port));
  }
  EXPECT_GT(a.events().drops, 0u);
  EXPECT_EQ(a.events().drops, b.events().drops);
}

TEST(Injector, PerLinkFaultOverridesGlobal) {
  auto s = test::PhysicalSubnet::small_fat_tree();
  inject::FaultInjector inj(s.fabric, 7);
  inj.set_global_fault({.drop_probability = 0.0});
  const auto [sw, port] = first_inter_switch_cable(s.fabric);
  const NodeId peer = s.fabric.node(sw).ports[port].peer;
  const PortNum peer_port = s.fabric.node(sw).ports[port].peer_port;
  inj.set_link_fault(sw, port, {.drop_probability = 1.0});
  // Both directions of the cable drop; an unrelated link does not.
  EXPECT_TRUE(inj.drop_on_link(sw, port, peer, peer_port));
  EXPECT_TRUE(inj.drop_on_link(peer, peer_port, sw, port));
  EXPECT_FALSE(inj.drop_on_link(s.hosts[0], 1, sw, 1));
  inj.clear_link_fault(sw, port);
  EXPECT_FALSE(inj.drop_on_link(sw, port, peer, peer_port));
}

TEST(Injector, CutTicksLinkDownedRestoreTicksRecovery) {
  auto s = test::PhysicalSubnet::small_fat_tree();
  inject::FaultInjector inj(s.fabric, 1);
  const auto [sw, port] = first_inter_switch_cable(s.fabric);
  const NodeId peer = s.fabric.node(sw).ports[port].peer;
  const PortNum peer_port = s.fabric.node(sw).ports[port].peer_port;

  ASSERT_TRUE(inj.cut_link(sw, port));
  EXPECT_FALSE(s.fabric.node(sw).ports[port].connected());
  EXPECT_FALSE(s.fabric.node(peer).ports[peer_port].connected());
  EXPECT_EQ(s.fabric.node(sw).ports[port].counters.link_downed, 1);
  EXPECT_EQ(s.fabric.node(peer).ports[peer_port].counters.link_downed, 1);
  EXPECT_EQ(inj.severed().size(), 1u);
  EXPECT_FALSE(inj.cut_link(sw, port));  // already severed: no-op

  ASSERT_TRUE(inj.restore_link(sw, port));
  EXPECT_TRUE(s.fabric.node(sw).ports[port].connected());
  EXPECT_EQ(s.fabric.node(sw).ports[port].peer, peer);
  EXPECT_EQ(s.fabric.node(sw).ports[port].counters.link_error_recovery, 1);
  EXPECT_EQ(
      s.fabric.node(peer).ports[peer_port].counters.link_error_recovery, 1);
  EXPECT_TRUE(inj.severed().empty());

  ASSERT_TRUE(inj.flap_link(sw, port));
  EXPECT_TRUE(s.fabric.node(sw).ports[port].connected());
  EXPECT_EQ(s.fabric.node(sw).ports[port].counters.link_downed, 2);
  EXPECT_EQ(s.fabric.node(sw).ports[port].counters.link_error_recovery, 2);
  EXPECT_EQ(inj.events().cuts, 2u);
  EXPECT_EQ(inj.events().restores, 2u);
  EXPECT_EQ(inj.events().flaps, 1u);
}

TEST(Injector, KillAndReviveNodeRestoresExactCabling) {
  auto s = test::PhysicalSubnet::small_fat_tree();
  const NodeId spine = s.built.spines[0];
  std::vector<std::pair<PortNum, NodeId>> cabling;
  for (PortNum p = 1; p <= s.fabric.node(spine).num_ports(); ++p) {
    if (s.fabric.node(spine).ports[p].connected()) {
      cabling.emplace_back(p, s.fabric.node(spine).ports[p].peer);
    }
  }
  ASSERT_FALSE(cabling.empty());

  inject::FaultInjector inj(s.fabric, 1);
  EXPECT_EQ(inj.kill_node(spine), cabling.size());
  EXPECT_TRUE(inj.is_dead(spine));
  for (const auto& [p, peer] : cabling) {
    EXPECT_FALSE(s.fabric.node(spine).ports[p].connected());
  }

  EXPECT_EQ(inj.revive_node(spine), cabling.size());
  EXPECT_FALSE(inj.is_dead(spine));
  for (const auto& [p, peer] : cabling) {
    EXPECT_EQ(s.fabric.node(spine).ports[p].peer, peer);
  }
  s.fabric.validate();  // the cabling is exactly what it was
}

TEST(ReliableMad, LossyLinkForcesRetriesWithBackoffPricing) {
  auto s = test::PhysicalSubnet::small_fat_tree();
  s.sm->full_sweep();
  auto& transport = s.sm->transport();
  inject::FaultInjector inj(s.fabric, 3);
  transport.set_fault_model(&inj);
  inj.set_global_fault({.drop_probability = 1.0});

  const NodeId spine = s.built.spines[0];
  std::vector<PortNum> block(kLftBlockSize, kDropPort);
  const SmpCounters before = transport.counters();
  transport.begin_batch();
  const auto outcome = transport.send_lft_block(spine, 0, block);
  const double elapsed = transport.end_batch();
  const SmpCounters after = transport.counters();

  // Every attempt (the original + max_mad_retries resends) timed out.
  EXPECT_FALSE(outcome.delivered);
  EXPECT_EQ(outcome.attempts, 1u + transport.timing().max_mad_retries);
  EXPECT_EQ(outcome.timeouts, outcome.attempts);
  EXPECT_EQ(after.retries - before.retries, transport.timing().max_mad_retries);
  EXPECT_EQ(after.timeouts - before.timeouts, outcome.attempts);
  EXPECT_EQ(after.undeliverable - before.undeliverable, 1u);
  // The batch clock priced every response timeout, exponentially backed off.
  double priced = 0.0;
  for (std::uint32_t a = 0; a < outcome.attempts; ++a) {
    priced += transport.timing().retry_timeout_us(a);
  }
  EXPECT_GE(elapsed, priced);
  transport.set_fault_model(nullptr);
}

TEST(ReliableMad, CleanLinkDeliversFirstAttempt) {
  auto s = test::PhysicalSubnet::small_fat_tree();
  s.sm->full_sweep();
  inject::FaultInjector inj(s.fabric, 3);
  s.sm->transport().set_fault_model(&inj);  // all probabilities zero
  std::vector<PortNum> block(kLftBlockSize, kDropPort);
  const auto outcome =
      s.sm->transport().send_lft_block(s.built.spines[0], 0, block);
  EXPECT_TRUE(outcome.delivered);
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(outcome.timeouts, 0u);
  s.sm->transport().set_fault_model(nullptr);
}

TEST(ReliableMad, DropsTickSymbolErrorsWherePerfMgrSeesThem) {
  auto s = test::PhysicalSubnet::small_fat_tree();
  s.sm->full_sweep();
  perf::PerfMgr pmgr(*s.sm);
  pmgr.sweep();  // baseline

  auto& transport = s.sm->transport();
  inject::FaultInjector inj(s.fabric, 5);
  transport.set_fault_model(&inj);
  inj.set_global_fault({.drop_probability = 1.0});
  std::vector<PortNum> block(kLftBlockSize, kDropPort);
  transport.send_lft_block(s.built.spines[0], 0, block);
  transport.set_fault_model(nullptr);
  inj.set_global_fault({});

  const auto sweep = pmgr.sweep();
  std::uint64_t symbol_errors = 0;
  for (const auto& d : sweep.deltas) symbol_errors += d.symbol_errors;
  EXPECT_GT(symbol_errors, 0u) << "injected MAD loss must be visible to the "
                                  "PerfMgr as symbol-error movement";
}

TEST(ReliableMad, CutLinkShowsAsLinkDownedInSweepDelta) {
  auto s = test::PhysicalSubnet::small_fat_tree();
  s.sm->full_sweep();
  perf::PerfMgr pmgr(*s.sm);
  pmgr.sweep();  // baseline

  inject::FaultInjector inj(s.fabric, 5);
  inj.attach_transport(&s.sm->transport());
  const auto [sw, port] = first_inter_switch_cable(s.fabric);
  ASSERT_TRUE(inj.cut_link(sw, port));
  ASSERT_TRUE(inj.restore_link(sw, port));  // so the PMA can poll the port

  const auto sweep = pmgr.sweep();
  const auto* delta = sweep.find(sw, port);
  ASSERT_NE(delta, nullptr);
  EXPECT_EQ(delta->link_downed, 1u);
  EXPECT_EQ(delta->link_error_recovery, 1u);
}

TEST(Checker, CleanAfterBoot) {
  auto s = test::VirtualSubnet::small(core::LidScheme::kDynamic);
  s.vsf->boot();
  for (std::size_t h = 0; h < s.hyps.size(); ++h) s.vsf->create_vm(h);
  const inject::FabricChecker checker(*s.sm);
  const auto report = checker.check(s.vsf.get());
  EXPECT_TRUE(report.clean()) << report.violations.front();
  EXPECT_GT(report.lids_checked, 0u);
  EXPECT_GT(report.paths_traced, 0u);
}

TEST(Checker, DetectsCorruptedLftEntry) {
  auto s = test::VirtualSubnet::small(core::LidScheme::kDynamic);
  s.vsf->boot();
  const auto vm = s.vsf->create_vm(0);
  // Point the VM's leaf entry at the wrong port: both the LidMap
  // consistency check and the reachability trace must notice.
  const NodeId leaf = s.hyps[0].leaf;
  s.fabric.node(leaf).lft.set(vm.lid, kDropPort);
  const inject::FabricChecker checker(*s.sm);
  const auto report = checker.check(s.vsf.get());
  EXPECT_FALSE(report.clean());
}

TEST(Checker, DetectsDuplicateLid) {
  auto s = test::PhysicalSubnet::small_fat_tree();
  s.sm->full_sweep();
  const Lid stolen = s.fabric.node(s.hosts[1]).ports[1].lid;
  s.fabric.set_lid(s.hosts[2], 1, stolen);
  const inject::FabricChecker checker(*s.sm);
  const auto report = checker.check();
  EXPECT_FALSE(report.clean());
  EXPECT_NE(report.violations.front().find("duplicate LID"),
            std::string::npos);
}

TEST(Checker, SkipsDetachedLidsInsteadOfFlaggingThem) {
  auto s = test::VirtualSubnet::small(core::LidScheme::kDynamic);
  s.vsf->boot();
  inject::FaultInjector inj(s.fabric, 1);
  inj.attach_transport(&s.sm->transport());
  // Kill a spine: its own LID goes legitimately dark.
  inj.kill_node(s.built.spines[0]);
  s.sm->reconverge();
  const inject::FabricChecker checker(*s.sm);
  const auto report = checker.check(s.vsf.get());
  EXPECT_TRUE(report.clean()) << report.violations.front();
  EXPECT_GT(report.lids_skipped_detached, 0u);
}

// The ISSUE's failover satellite: the master dies *mid-batch* — routes
// recomputed after a cut, half the LFT blocks distributed — and a standby
// adopts the subnet and re-converges it to a checker-clean state.
TEST(Failover, MasterDiesMidBatchStandbyReconverges) {
  auto s = test::PhysicalSubnet::small_fat_tree();
  const auto factory = [] {
    return routing::make_engine(routing::EngineKind::kMinHop);
  };
  sm::SmElection election(s.fabric, factory);
  const std::size_t master_idx = election.add_candidate(s.hosts[0], 10);
  election.add_candidate(s.hosts[7], 5);
  auto first = election.elect();
  ASSERT_EQ(first.master, master_idx);
  election.master_sweep();

  // A link dies; the master recomputes routes and begins distributing the
  // repair batch, but crashes after landing only the first dirty block.
  inject::FaultInjector inj(s.fabric, 9);
  sm::SubnetManager* master = election.master_sm();
  inj.attach_transport(&master->transport());
  const auto [sw, port] = first_inter_switch_cable(s.fabric);
  ASSERT_TRUE(inj.cut_link(sw, port));
  master->compute_routes();
  const auto& routing = master->routing_result();
  bool sent_one = false;
  for (routing::SwitchIdx sidx = 0;
       sidx < routing.graph.num_switches() && !sent_one; ++sidx) {
    const NodeId node = routing.graph.switches[sidx];
    if (!master->transport().hops_to(node)) continue;
    const Lft& want = routing.lfts[sidx];
    const Lft& have = s.fabric.node(node).lft;
    for (std::size_t b = 0; b < want.block_count(); ++b) {
      if (!want.block_differs(have, b)) continue;
      master->transport().send_lft_block(node, static_cast<std::uint32_t>(b),
                                         want.block(b));
      sent_one = true;
      break;
    }
  }
  ASSERT_TRUE(sent_one) << "the cut must leave at least one dirty block";

  // The master dies with the batch half-landed. A standby poll notices,
  // takes over (adopting LIDs), and re-converges the hybrid state.
  election.fail_candidate(master_idx);
  const auto takeover = election.poll();
  ASSERT_TRUE(takeover.master.has_value());
  ASSERT_NE(*takeover.master, master_idx);
  sm::SubnetManager* standby = election.master_sm();
  ASSERT_NE(standby, master);
  const auto recovery = standby->reconverge();
  EXPECT_TRUE(recovery.converged);

  const inject::FabricChecker checker(*standby);
  const auto report = checker.check();
  EXPECT_TRUE(report.clean()) << report.violations.front();
}

TEST(ColdResync, RevivedSwitchGetsFullTableResync) {
  // A switch that vanished and came back may have rebooted with stale or
  // empty hardware tables the SM cannot see. The sweep must not trust the
  // last-known installed copy: the first reconverge that reaches the
  // revived switch resends its entire master table, then returns to
  // diff-only pushes.
  auto s = test::VirtualSubnet::small(core::LidScheme::kDynamic);
  s.vsf->boot();
  inject::FaultInjector injector(s.fabric, 5);
  injector.attach_transport(&s.sm->transport());
  const NodeId spine = s.built.spines[0];

  injector.kill_node(spine);
  const auto down = s.sm->reconverge();
  EXPECT_TRUE(down.converged);
  EXPECT_EQ(s.sm->cold_resyncs_pending(), 1u)
      << "the unreachable spine must be marked for a cold resync";

  injector.revive_node(spine);
  const auto up = s.sm->reconverge();
  EXPECT_TRUE(up.converged);
  EXPECT_EQ(s.sm->cold_resyncs_pending(), 0u);
  // Full-table resend: every block of the revived switch went out even
  // though its installed bytes still matched the master copy.
  EXPECT_GE(up.smps, s.sm->lids().min_lft_blocks());

  // Steady state again: nothing further to send, and the checker is clean.
  EXPECT_EQ(s.sm->reconverge().smps, 0u);
  const inject::FabricChecker checker(*s.sm);
  EXPECT_TRUE(checker.check(s.vsf.get()).clean());
}

TEST(Chaos, SameSeedSameDigest) {
  auto run = [](std::uint64_t seed) {
    auto s = test::VirtualSubnet::small(core::LidScheme::kDynamic);
    return inject::run_chaos(*s.vsf, seed, 10);
  };
  const auto a = run(21);
  const auto b = run(21);
  const auto c = run(22);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.reconverge_smps, b.reconverge_smps);
  EXPECT_EQ(a.reconverge_time_us, b.reconverge_time_us);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].detail, b.events[i].detail);
  }
  EXPECT_NE(a.digest, c.digest);
}

TEST(Chaos, LegacySeedDigestPinned) {
  // The topology-delta kinds default to weight 0 and zero-weight kinds
  // draw nothing from the RNG, so enabling the features must not perturb
  // existing seeds. This digest was captured before the topology-delta
  // events existed; it must stay bit-stable.
  // (Switch kill/revive are disabled because the cold-resync fix
  // legitimately changed the SMP counts of seeds that revive switches.)
  auto s = test::VirtualSubnet::small(core::LidScheme::kDynamic);
  s.vsf->boot();
  cloud::CloudOrchestrator cloud(*s.vsf, cloud::Placement::kSpread);
  cloud.launch_vms(s.hyps.size());
  inject::FaultInjector injector(s.fabric, 1234);
  inject::ChaosConfig config;
  config.seed = 1234;
  config.steps = 16;
  config.weight_switch_kill = 0;
  config.weight_switch_revive = 0;
  config.mad_faults.drop_probability = 0.02;
  const auto report = inject::run_chaos(cloud, injector, config);
  EXPECT_EQ(report.checker_violations, 0u);
  EXPECT_EQ(report.digest, 0xe59d38836bfc691eULL);
}

TEST(Chaos, RecoversWithZeroViolationsAcrossSeeds) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    auto s = test::VirtualSubnet::small(core::LidScheme::kDynamic);
    const auto report = inject::run_chaos(*s.vsf, seed, 12);
    EXPECT_EQ(report.checker_violations, 0u) << "seed " << seed;
    EXPECT_TRUE(report.all_converged) << "seed " << seed;
    EXPECT_GT(report.structural_events + report.migrations, 0u);
  }
}

TEST(Chaos, LossyMadPlaneStillConverges) {
  auto s = test::VirtualSubnet::small(core::LidScheme::kDynamic);
  cloud::CloudOrchestrator cloud(*s.vsf, cloud::Placement::kSpread);
  s.vsf->boot();
  cloud.launch_vms(s.hyps.size());
  inject::FaultInjector injector(s.fabric, 6);
  inject::ChaosConfig config;
  config.seed = 6;
  config.steps = 10;
  config.mad_faults.drop_probability = 0.25;
  const auto report = inject::run_chaos(cloud, injector, config);
  EXPECT_EQ(report.checker_violations, 0u);
  EXPECT_TRUE(report.all_converged);
  EXPECT_GT(report.reconverge_retries, 0u)
      << "a 25% MAD drop rate must force resends";
}

TEST(Chaos, ExportsTelemetry) {
  auto s = test::VirtualSubnet::small(core::LidScheme::kDynamic);
  auto& registry = telemetry::Registry::global();
  const auto steps_before =
      registry.counter_family_total("ibvs_chaos_steps_total");
  const auto events_before =
      registry.counter_family_total("ibvs_inject_events_total");
  const auto report = inject::run_chaos(*s.vsf, 13, 8);
  EXPECT_EQ(registry.counter_family_total("ibvs_chaos_steps_total"),
            steps_before + report.steps);
  EXPECT_GE(registry.counter_family_total("ibvs_inject_events_total"),
            events_before + report.structural_events);
}

}  // namespace
}  // namespace ibvs
