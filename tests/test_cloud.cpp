#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cloud/orchestrator.hpp"
#include "fabric/trace.hpp"
#include "tests/helpers.hpp"

namespace ibvs {
namespace {

using cloud::CloudOrchestrator;
using cloud::Placement;

struct CloudTest : ::testing::Test {
  test::VirtualSubnet s =
      test::VirtualSubnet::small(core::LidScheme::kDynamic);

  void SetUp() override { s.vsf->boot(); }
};

TEST_F(CloudTest, FirstFitPacks) {
  CloudOrchestrator orch(*s.vsf, Placement::kFirstFit);
  const auto vms = orch.launch_vms(5);
  // 4 VFs per hypervisor: the first four land on hyp 0, the fifth on hyp 1.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(s.vsf->vm(vms[i]).hypervisor, 0u);
  }
  EXPECT_EQ(s.vsf->vm(vms[4]).hypervisor, 1u);
}

TEST_F(CloudTest, RoundRobinCycles) {
  CloudOrchestrator orch(*s.vsf, Placement::kRoundRobin);
  const auto vms = orch.launch_vms(8);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(s.vsf->vm(vms[i]).hypervisor, i % 8);
  }
}

TEST_F(CloudTest, SpreadBalances) {
  CloudOrchestrator orch(*s.vsf, Placement::kSpread);
  orch.launch_vms(16);
  // 16 VMs over 8 hypervisors: exactly two each.
  std::map<std::size_t, int> per_hyp;
  for (auto id : s.vsf->active_vm_ids()) {
    ++per_hyp[s.vsf->vm(core::VmHandle{id}).hypervisor];
  }
  for (const auto& [h, count] : per_hyp) EXPECT_EQ(count, 2);
}

TEST_F(CloudTest, LaunchBeyondCapacityThrows) {
  CloudOrchestrator orch(*s.vsf, Placement::kFirstFit);
  orch.launch_vms(32);  // 8 hyps x 4 VFs
  EXPECT_THROW(orch.launch_vms(1), std::invalid_argument);
}

TEST_F(CloudTest, MigrationFlowTimeline) {
  cloud::FlowTiming timing;
  timing.detach_vf_s = 0.4;
  timing.attach_vf_s = 0.6;
  timing.vm_memory_gb = 4.0;
  timing.memory_copy_gbps = 8.0;
  CloudOrchestrator orch(*s.vsf, Placement::kFirstFit, timing);
  const auto vms = orch.launch_vms(1);
  const auto report = orch.migrate(vms[0], 5);
  EXPECT_DOUBLE_EQ(report.detach_s, 0.4);
  EXPECT_DOUBLE_EQ(report.attach_s, 0.6);
  EXPECT_DOUBLE_EQ(report.copy_s, 4.0);  // 4 GB at 8 Gbps = 4 s
  EXPECT_GT(report.reconfig_s, 0.0);
  EXPECT_LT(report.reconfig_s, 0.01);  // SMPs are microseconds, not seconds
  EXPECT_NEAR(report.total_s(), report.detach_s + report.copy_s +
                  report.signal_s + report.reconfig_s + report.attach_s,
              1e-12);
  EXPECT_EQ(s.vsf->vm(vms[0]).hypervisor, 5u);
}

TEST_F(CloudTest, PredictedSetMatchesExecutedDeterministicSet) {
  CloudOrchestrator orch(*s.vsf, Placement::kFirstFit);
  const auto vms = orch.launch_vms(1);
  const auto predicted = orch.predict_update_set(vms[0], 6).update_set;
  const auto report = orch.migrate(vms[0], 6);
  EXPECT_EQ(predicted.size(), report.network.reconfig.switches_updated);
}

TEST_F(CloudTest, ParallelPlanKeepsRoundsDisjoint) {
  CloudOrchestrator orch(*s.vsf, Placement::kRoundRobin);
  const auto vms = orch.launch_vms(4);
  // Hypervisors 0-2 share leaf 0, 3-5 leaf 1: two intra-leaf moves on
  // different leaves (disjoint under minimal reconfiguration) plus one
  // cross-leaf move.
  std::vector<cloud::MigrationRequest> requests{
      {vms[0], 1},  // leaf 0 -> leaf 0
      {vms[3], 4},  // leaf 1 -> leaf 1
      {vms[2], 7},  // leaf 0 -> leaf 2 (wide)
  };
  const auto mode = core::ReconfigMode::kMinimal;
  const auto plan = orch.plan_parallel(requests, mode);
  // Validate disjointness within every round.
  for (const auto& round : plan.rounds) {
    std::set<routing::SwitchIdx> seen;
    for (const auto& request : round) {
      for (auto sw : orch.predict_update_set(request.vm,
                                             request.dst_hypervisor, mode)
                         .update_set) {
        EXPECT_TRUE(seen.insert(sw).second)
            << "switch " << sw << " shared within a round";
      }
    }
  }
  // The two intra-leaf migrations must share a round.
  ASSERT_FALSE(plan.rounds.empty());
  EXPECT_LT(plan.num_rounds(), requests.size());
}

TEST_F(CloudTest, ExecutePlanIsFasterThanSerial) {
  CloudOrchestrator orch(*s.vsf, Placement::kRoundRobin);
  const auto vms = orch.launch_vms(4);
  std::vector<cloud::MigrationRequest> requests{
      {vms[0], 1},  // intra leaf 0
      {vms[3], 4},  // intra leaf 1
  };
  core::MigrationOptions minimal;
  minimal.mode = core::ReconfigMode::kMinimal;
  const auto plan = orch.plan_parallel(requests, minimal.mode);
  ASSERT_EQ(plan.num_rounds(), 1u);
  const auto exec = orch.execute(plan, minimal);
  EXPECT_EQ(exec.reports.size(), 2u);
  EXPECT_LT(exec.elapsed_s, exec.serial_s);
  // All VMs still reachable.
  for (auto id : s.vsf->active_vm_ids()) {
    EXPECT_TRUE(fabric::all_reach(s.fabric, s.pf_nodes(),
                                  s.vsf->vm(core::VmHandle{id}).lid));
  }
}

TEST_F(CloudTest, IntraLeafMigrationsOnDistinctLeavesShareARound) {
  // §VI-D: as many concurrent migrations as there are leaf switches.
  CloudOrchestrator orch(*s.vsf, Placement::kRoundRobin);
  const auto vms = orch.launch_vms(8);  // one per hypervisor, 2 per leaf
  core::MigrationOptions minimal;
  minimal.mode = core::ReconfigMode::kMinimal;
  // Three intra-leaf migrations on three distinct leaves: hypervisors 0-2
  // share leaf 0, 3-5 leaf 1, 6-7 leaf 2.
  std::vector<cloud::MigrationRequest> requests{
      {vms[0], 1},
      {vms[3], 4},
      {vms[6], 7},
  };
  const auto plan = orch.plan_parallel(requests, minimal.mode);
  EXPECT_EQ(plan.num_rounds(), 1u);
  const auto exec = orch.execute(plan, minimal);
  EXPECT_EQ(exec.reports.size(), 3u);
  for (const auto& report : exec.reports) {
    EXPECT_TRUE(report.network.intra_leaf);
    EXPECT_EQ(report.network.reconfig.switches_updated, 1u);
  }
}

// ---------------------------------------------------------------------------
// Predictions are pinned to execution: for every destination, both schemes
// and both modes, the predicted update set is exactly the set of switches
// the transaction writes.

/// Sorted distinct switches a transaction wrote.
std::vector<routing::SwitchIdx> applied_switches(
    const test::VirtualSubnet& s, const core::MigrationTxn& txn) {
  const auto& graph = s.sm->routing_result().graph;
  std::set<routing::SwitchIdx> touched;
  for (const auto& d : txn.applied) touched.insert(graph.dense(d.switch_node));
  return {touched.begin(), touched.end()};
}

void expect_predictions_match(test::VirtualSubnet s, const char* topology) {
  s.vsf->boot();
  CloudOrchestrator orch(*s.vsf, Placement::kFirstFit);
  std::vector<core::VmHandle> on_host;
  for (std::size_t h = 0; h < s.hyps.size(); ++h) {
    on_host.push_back(s.create_on(h));
  }
  const core::VmHandle vm = on_host[0];
  for (const auto mode :
       {core::ReconfigMode::kDeterministic, core::ReconfigMode::kMinimal}) {
    const core::MigrationOptions options{.mode = mode};
    for (std::size_t dst = 1; dst < s.hyps.size(); ++dst) {
      SCOPED_TRACE(::testing::Message()
                   << topology << " " << core::to_string(s.vsf->scheme())
                   << (mode == core::ReconfigMode::kMinimal ? " minimal"
                                                            : " deterministic")
                   << " dst " << dst);
      const auto predicted = orch.predict_update_set(vm, dst, mode).update_set;
      auto txn = s.vsf->begin_migration(vm, dst, options);
      s.vsf->txn_move_addresses(txn);
      s.vsf->txn_apply_lfts(txn);
      EXPECT_EQ(predicted, applied_switches(s, txn)) << "migration";
      s.vsf->txn_rollback(txn);

      const auto predicted_swap =
          orch.predict_swap_update_set(vm, on_host[dst], mode).update_set;
      auto swap = s.vsf->begin_swap(vm, on_host[dst], options);
      s.vsf->txn_move_addresses(swap);
      s.vsf->txn_apply_lfts(swap);
      EXPECT_EQ(predicted_swap, applied_switches(s, swap)) << "swap";
      s.vsf->txn_rollback(swap);
    }
  }
}

TEST(PredictedUpdateSet, EqualsTheAppliedSwitchesForEveryMove) {
  for (const auto scheme :
       {core::LidScheme::kPrepopulated, core::LidScheme::kDynamic}) {
    expect_predictions_match(test::VirtualSubnet::small(scheme), "small");
    expect_predictions_match(
        test::VirtualSubnet::ring(scheme, 8, 8, 2, routing::EngineKind::kMinHop),
        "ring");
  }
}

}  // namespace
}  // namespace ibvs
