// Fleet migration planner: goal decomposition, conflict-aware batching,
// destination-swap transactions and plan execution under faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "cloud/planner.hpp"
#include "inject/checker.hpp"
#include "inject/injector.hpp"
#include "tests/helpers.hpp"
#include "util/thread_pool.hpp"

namespace ibvs {
namespace {

using test::VirtualSubnet;

core::MigrationOptions minimal() {
  return {.mode = core::ReconfigMode::kMinimal};
}

/// Host 0 filled to capacity, one VM on every other host.
std::vector<core::VmHandle> populate_for_evacuation(VirtualSubnet& s,
                                                    std::size_t vfs) {
  std::vector<core::VmHandle> vms;
  for (std::size_t i = 0; i < vfs; ++i) vms.push_back(s.create_on(0));
  for (std::size_t h = 1; h < s.hyps.size(); ++h) {
    vms.push_back(s.create_on(h));
  }
  return vms;
}

std::size_t vms_on(const core::VSwitchFabric& vsf, std::size_t hyp) {
  std::size_t n = 0;
  for (const std::uint32_t id : vsf.active_vm_ids()) {
    if (vsf.vm({id}).hypervisor == hyp) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Planning properties.

TEST(Planner, EvacuationDrainsTheHostInOnePlan) {
  auto s = VirtualSubnet::small(core::LidScheme::kDynamic, 8, 4);
  s.vsf->boot();
  populate_for_evacuation(s, 4);
  cloud::CloudOrchestrator cloud(*s.vsf, cloud::Placement::kSpread);
  cloud::MigrationPlanner planner(cloud, {.mode =
                                              core::ReconfigMode::kMinimal});
  cloud::FleetGoal goal;
  goal.kind = cloud::FleetGoalKind::kEvacuateHypervisor;
  goal.hypervisor = 0;
  const auto plan = planner.plan(goal);

  EXPECT_EQ(plan.total_moves(), 4u);
  EXPECT_EQ(plan.swap_moves(), 0u);  // evacuations never park a peer here
  std::set<std::uint32_t> moved;
  for (const auto& batch : plan.batches) {
    for (const auto& move : batch.moves) {
      EXPECT_EQ(move.src_hypervisor, 0u);
      EXPECT_NE(move.dst_hypervisor, 0u);
      EXPECT_FALSE(move.is_swap());
      EXPECT_GT(move.predicted_smps, 0u);
      EXPECT_FALSE(move.update_keys.empty());
      EXPECT_TRUE(moved.insert(move.vm.id).second) << "VM planned twice";
    }
  }
}

TEST(Planner, BatchesArePairwiseConflictFree) {
  for (const bool uncoordinated : {false, true}) {
    auto s = VirtualSubnet::small(core::LidScheme::kDynamic, 8, 4);
    s.vsf->boot();
    populate_for_evacuation(s, 4);
    cloud::CloudOrchestrator cloud(*s.vsf, cloud::Placement::kSpread);
    cloud::MigrationPlanner planner(
        cloud, {.mode = core::ReconfigMode::kMinimal,
                .uncoordinated = uncoordinated});
    cloud::FleetGoal goal;
    goal.kind = cloud::FleetGoalKind::kEvacuateHypervisor;
    goal.hypervisor = 0;
    const auto plan = planner.plan(goal);
    ASSERT_GT(plan.total_moves(), 0u);
    for (const auto& batch : plan.batches) {
      for (std::size_t i = 0; i < batch.moves.size(); ++i) {
        for (std::size_t j = i + 1; j < batch.moves.size(); ++j) {
          EXPECT_FALSE(planner.conflicts(batch.moves[i], batch.moves[j]))
              << "uncoordinated=" << uncoordinated;
        }
      }
    }
  }
}

TEST(Planner, UncoordinatedRegimeIsStrictlyStricter) {
  // Everything the coordinated predicate rejects, the uncoordinated one
  // must reject too; and shared write units conflict only when
  // uncoordinated.
  cloud::PlannedMove a;
  a.vm = {1};
  a.src_hypervisor = 0;
  a.dst_hypervisor = 1;
  a.update_keys = {10, 20};
  cloud::PlannedMove b;
  b.vm = {2};
  b.src_hypervisor = 2;
  b.dst_hypervisor = 3;
  b.update_keys = {20, 30};  // shares unit 20 with a
  EXPECT_FALSE(cloud::MigrationPlanner::conflict(a, b, false));
  EXPECT_TRUE(cloud::MigrationPlanner::conflict(a, b, true));

  // Endpoint conflicts hold in both regimes.
  cloud::PlannedMove c = b;
  c.update_keys = {40};
  c.dst_hypervisor = a.dst_hypervisor;  // same destination host
  EXPECT_TRUE(cloud::MigrationPlanner::conflict(a, c, false));
  EXPECT_TRUE(cloud::MigrationPlanner::conflict(a, c, true));

  // Slot chaining: one move's destination is another's source.
  cloud::PlannedMove d = b;
  d.update_keys = {40};
  d.src_hypervisor = a.dst_hypervisor;
  d.dst_hypervisor = 4;
  EXPECT_TRUE(cloud::MigrationPlanner::conflict(a, d, false));

  // A swap receives at BOTH endpoints: a plain copy out of either of the
  // swap's hosts conflicts with it.
  cloud::PlannedMove sw;
  sw.vm = {5};
  sw.swap_with = {6};
  sw.src_hypervisor = 2;
  sw.dst_hypervisor = 3;
  sw.update_keys = {50};
  cloud::PlannedMove out;
  out.vm = {7};
  out.src_hypervisor = 2;  // leaving the swap's source host
  out.dst_hypervisor = 5;
  out.update_keys = {60};
  EXPECT_TRUE(cloud::MigrationPlanner::conflict(sw, out, false));

  // Two plain copies out of the same host do NOT conflict — that is what
  // lets an evacuation drain in one batch.
  cloud::PlannedMove e1;
  e1.vm = {8};
  e1.src_hypervisor = 0;
  e1.dst_hypervisor = 1;
  e1.update_keys = {70};
  cloud::PlannedMove e2;
  e2.vm = {9};
  e2.src_hypervisor = 0;
  e2.dst_hypervisor = 2;
  e2.update_keys = {80};
  EXPECT_FALSE(cloud::MigrationPlanner::conflict(e1, e2, false));
  EXPECT_FALSE(cloud::MigrationPlanner::conflict(e1, e2, true));
}

TEST(Planner, PlanIsByteIdenticalAcrossThreadCounts) {
  const auto plan_once = [](std::size_t threads) {
    ThreadPool::set_global_threads(threads);
    auto s = VirtualSubnet::small(core::LidScheme::kDynamic, 8, 4);
    s.vsf->boot();
    populate_for_evacuation(s, 4);
    cloud::CloudOrchestrator cloud(*s.vsf, cloud::Placement::kSpread);
    cloud::MigrationPlanner planner(
        cloud, {.mode = core::ReconfigMode::kMinimal});
    cloud::FleetGoal goal;
    goal.kind = cloud::FleetGoalKind::kEvacuateHypervisor;
    goal.hypervisor = 0;
    return cloud::to_string(planner.plan(goal));
  };
  const std::string single = plan_once(1);
  const std::string pooled = plan_once(4);
  ThreadPool::set_global_threads(0);  // restore the default
  EXPECT_EQ(single, pooled);
}

TEST(Planner, RebalanceWithoutCongestionMapIsRejected) {
  auto s = VirtualSubnet::small(core::LidScheme::kDynamic, 8, 4);
  s.vsf->boot();
  s.create_on(0);
  cloud::CloudOrchestrator cloud(*s.vsf, cloud::Placement::kSpread);
  cloud::MigrationPlanner planner(cloud);
  cloud::FleetGoal goal;
  goal.kind = cloud::FleetGoalKind::kRebalanceCongestion;
  EXPECT_THROW((void)planner.plan(goal), std::invalid_argument);
}

TEST(Planner, EvacuationHypervisorOutOfRangeIsRejected) {
  auto s = VirtualSubnet::small(core::LidScheme::kDynamic, 8, 4);
  s.vsf->boot();
  cloud::CloudOrchestrator cloud(*s.vsf, cloud::Placement::kSpread);
  cloud::MigrationPlanner planner(cloud);
  cloud::FleetGoal goal;
  goal.kind = cloud::FleetGoalKind::kEvacuateHypervisor;
  goal.hypervisor = 99;
  EXPECT_THROW((void)planner.plan(goal), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Destination ranking (orchestrator side of the planner's choices).

TEST(Planner, RankDestinationsTieBreaksByPfNodeId) {
  auto s = VirtualSubnet::small(core::LidScheme::kDynamic, 8, 4);
  s.vsf->boot();
  const auto vm = s.create_on(0);
  cloud::CloudOrchestrator cloud(*s.vsf, cloud::Placement::kSpread);
  const auto ranked = cloud.rank_destinations(vm);
  ASSERT_EQ(ranked.size(), s.hyps.size() - 1);  // src excluded, all free
  // No congestion map: every score 0, so the order IS the PF NodeId order.
  for (std::size_t i = 0; i + 1 < ranked.size(); ++i) {
    EXPECT_EQ(ranked[i].second, 0u);
    EXPECT_LT(s.hyps[ranked[i].first].pf, s.hyps[ranked[i + 1].first].pf)
        << "tie-break must be strictly increasing PF NodeId";
  }
  // Full hosts disappear from the ranking.
  const std::size_t full = ranked.front().first;
  while (s.vsf->free_vf_count(full) > 0) s.create_on(full);
  const auto reranked = cloud.rank_destinations(vm);
  EXPECT_EQ(reranked.size(), ranked.size() - 1);
  for (const auto& [h, score] : reranked) EXPECT_NE(h, full);
}

// ---------------------------------------------------------------------------
// Free-VF bookkeeping under churn (the planner's capacity oracle).

TEST(Planner, FreeVfCountersSurviveChurn) {
  auto s = VirtualSubnet::small(core::LidScheme::kDynamic, 6, 3);
  s.vsf->boot();
  cloud::CloudOrchestrator cloud(*s.vsf, cloud::Placement::kSpread);
  const auto audit = [&] {
    for (std::size_t h = 0; h < s.hyps.size(); ++h) {
      const std::size_t expected = 3 - vms_on(*s.vsf, h);
      EXPECT_EQ(s.vsf->free_vf_count(h), expected) << "host " << h;
      EXPECT_EQ(s.vsf->free_vf_on(h).has_value(), expected > 0);
    }
  };
  std::vector<core::VmHandle> vms;
  for (std::size_t h = 0; h < 3; ++h) {
    vms.push_back(s.create_on(h));
    vms.push_back(s.create_on(h));
  }
  audit();
  (void)cloud.migrate_txn(vms[0], 4, minimal());
  audit();
  s.vsf->destroy_vm(vms[1]);
  audit();
  (void)cloud.swap_txn(vms[2], vms[4], minimal());
  audit();
  vms.push_back(s.create_on(0));
  audit();
}

// ---------------------------------------------------------------------------
// Destination-swap transactions.

class SwapTxn : public ::testing::TestWithParam<core::LidScheme> {};

TEST_P(SwapTxn, CommitTradesSlotsAndKeepsGuids) {
  auto s = VirtualSubnet::small(GetParam(), 6, 2);
  s.vsf->boot();
  // Both hosts full: a swap is the only move that needs no free VF.
  const auto a = s.create_on(0);
  s.create_on(0);
  const auto b = s.create_on(1);
  s.create_on(1);
  const Guid guid_a = s.vsf->vm(a).vguid;
  const Guid guid_b = s.vsf->vm(b).vguid;
  cloud::CloudOrchestrator cloud(*s.vsf, cloud::Placement::kFirstFit);
  const auto report = cloud.swap_txn(a, b, minimal());
  ASSERT_EQ(report.outcome, cloud::TxnOutcome::kCommitted) << report.error;
  EXPECT_EQ(s.vsf->vm(a).hypervisor, 1u);
  EXPECT_EQ(s.vsf->vm(b).hypervisor, 0u);
  EXPECT_EQ(s.vsf->vm(a).vguid, guid_a);  // the vGUID travels with the VM
  EXPECT_EQ(s.vsf->vm(b).vguid, guid_b);
  const inject::FabricChecker checker(*s.sm);
  EXPECT_TRUE(checker.check(s.vsf.get()).violations.empty());
}

TEST_P(SwapTxn, MidSwapFaultRollsBothBack) {
  auto s = VirtualSubnet::small(GetParam(), 6, 2);
  s.vsf->boot();
  const auto a = s.create_on(0);
  s.create_on(0);
  const auto b = s.create_on(1);
  s.create_on(1);
  const Guid guid_a = s.vsf->vm(a).vguid;
  const Guid guid_b = s.vsf->vm(b).vguid;
  cloud::CloudOrchestrator cloud(*s.vsf, cloud::Placement::kFirstFit);
  inject::FaultInjector injector(s.fabric, 3);
  cloud::TxnPolicy policy;
  policy.max_attempts = 1;
  bool killed = false;
  policy.on_step = [&](core::TxnState state, const core::MigrationTxn&) {
    if (killed || state != core::TxnState::kCopied) return;
    injector.kill_node(s.hyps[1].vswitch);
    killed = true;
  };
  const auto report = cloud.swap_txn(a, b, minimal(), policy);
  EXPECT_TRUE(killed);
  ASSERT_EQ(report.outcome, cloud::TxnOutcome::kRolledBack);
  EXPECT_EQ(s.vsf->vm(a).hypervisor, 0u);
  EXPECT_EQ(s.vsf->vm(b).hypervisor, 1u);
  EXPECT_EQ(s.vsf->vm(a).vguid, guid_a);
  EXPECT_EQ(s.vsf->vm(b).vguid, guid_b);
  injector.revive_node(s.hyps[1].vswitch);
  (void)s.sm->reconverge();
  const inject::FabricChecker checker(*s.sm);
  EXPECT_TRUE(checker.check(s.vsf.get()).violations.empty());
}

INSTANTIATE_TEST_SUITE_P(BothSchemes, SwapTxn,
                         ::testing::Values(core::LidScheme::kPrepopulated,
                                           core::LidScheme::kDynamic));

// ---------------------------------------------------------------------------
// Plan execution.

TEST(PlanExecutor, EvacuationEmptiesTheHostWithZeroViolations) {
  for (const auto scheme :
       {core::LidScheme::kPrepopulated, core::LidScheme::kDynamic}) {
    auto s = VirtualSubnet::small(scheme, 8, 4);
    s.vsf->boot();
    populate_for_evacuation(s, 4);
    cloud::CloudOrchestrator cloud(*s.vsf, cloud::Placement::kSpread);
    cloud::MigrationPlanner planner(
        cloud, {.mode = core::ReconfigMode::kMinimal});
    cloud::FleetGoal goal;
    goal.kind = cloud::FleetGoalKind::kEvacuateHypervisor;
    goal.hypervisor = 0;
    const auto plan = planner.plan(goal);
    cloud::PlanExecutor executor(cloud);
    const auto exec = executor.execute(planner, plan, minimal());
    EXPECT_EQ(exec.committed, 4u);
    EXPECT_EQ(exec.rolled_back + exec.failed + exec.skipped, 0u);
    EXPECT_EQ(vms_on(*s.vsf, 0), 0u);
    // Batches overlap wall phases: the makespan beats the serial cost
    // whenever any batch holds more than one move.
    EXPECT_LE(exec.makespan_s, exec.serial_s);
    const inject::FabricChecker checker(*s.sm);
    EXPECT_TRUE(checker.check(s.vsf.get()).violations.empty());
  }
}

TEST(PlanExecutor, ConsolidationPacksTheTenant) {
  auto s = VirtualSubnet::small(core::LidScheme::kDynamic, 8, 4);
  s.vsf->boot();
  std::vector<core::VmHandle> tenant;
  for (std::size_t h = 0; h < 6; ++h) tenant.push_back(s.create_on(h));
  cloud::CloudOrchestrator cloud(*s.vsf, cloud::Placement::kSpread);
  cloud::MigrationPlanner planner(cloud,
                                  {.mode = core::ReconfigMode::kMinimal});
  cloud::FleetGoal goal;
  goal.kind = cloud::FleetGoalKind::kConsolidateVms;
  goal.vms = tenant;
  const auto plan = planner.plan(goal);
  cloud::PlanExecutor executor(cloud);
  const auto exec = executor.execute(planner, plan, minimal());
  EXPECT_EQ(exec.rolled_back + exec.failed + exec.skipped, 0u);
  std::set<std::size_t> hosts;
  for (const auto vm : tenant) hosts.insert(s.vsf->vm(vm).hypervisor);
  // 6 VMs at 4 VFs per host fit on 2 hosts.
  EXPECT_LE(hosts.size(), 2u);
  const inject::FabricChecker checker(*s.sm);
  EXPECT_TRUE(checker.check(s.vsf.get()).violations.empty());
}

TEST(PlanExecutor, MidPlanFaultRollsBackAloneAndStaysConsistent) {
  auto s = VirtualSubnet::small(core::LidScheme::kDynamic, 8, 4);
  s.vsf->boot();
  populate_for_evacuation(s, 4);
  cloud::CloudOrchestrator cloud(*s.vsf, cloud::Placement::kSpread);
  cloud::MigrationPlanner planner(cloud,
                                  {.mode = core::ReconfigMode::kMinimal});
  cloud::FleetGoal goal;
  goal.kind = cloud::FleetGoalKind::kEvacuateHypervisor;
  goal.hypervisor = 0;
  const auto plan = planner.plan(goal);
  ASSERT_GT(plan.total_moves(), 1u);

  inject::FaultInjector injector(s.fabric, 5);
  const std::size_t victim_dst = plan.batches[0].moves[0].dst_hypervisor;
  cloud::ExecutorPolicy policy;
  policy.replan_on_failure = false;  // keep the single-pass outcome visible
  policy.txn.max_attempts = 1;
  policy.txn.allow_replacement = false;
  bool killed = false;
  policy.txn.on_step = [&](core::TxnState state, const core::MigrationTxn& t) {
    if (killed || state != core::TxnState::kCopied) return;
    if (t.dst_hypervisor != victim_dst) return;
    injector.kill_node(s.hyps[victim_dst].vswitch);
    killed = true;
  };
  cloud::PlanExecutor executor(cloud);
  const auto exec = executor.execute(planner, plan, minimal(), policy);
  EXPECT_TRUE(killed);
  // The victim rolled back alone; everyone else still committed.
  EXPECT_GE(exec.rolled_back, 1u);
  EXPECT_GE(exec.committed, plan.total_moves() - exec.rolled_back -
                                exec.failed - exec.skipped);
  EXPECT_EQ(exec.committed + exec.rolled_back + exec.failed + exec.skipped,
            plan.total_moves());

  injector.revive_node(s.hyps[victim_dst].vswitch);
  (void)s.sm->reconverge();
  const inject::FabricChecker checker(*s.sm);
  EXPECT_TRUE(checker.check(s.vsf.get()).violations.empty());

  // A fresh plan finishes the drain now that the fabric healed.
  const auto retry = planner.plan(goal);
  const auto done = executor.execute(planner, retry, minimal());
  EXPECT_EQ(done.rolled_back + done.failed + done.skipped, 0u);
  EXPECT_EQ(vms_on(*s.vsf, 0), 0u);
  EXPECT_TRUE(checker.check(s.vsf.get()).violations.empty());
}

TEST(PlanExecutor, StaleMoveIsSkippedNotExecuted) {
  auto s = VirtualSubnet::small(core::LidScheme::kDynamic, 8, 4);
  s.vsf->boot();
  const auto vms = populate_for_evacuation(s, 4);
  cloud::CloudOrchestrator cloud(*s.vsf, cloud::Placement::kSpread);
  cloud::MigrationPlanner planner(cloud,
                                  {.mode = core::ReconfigMode::kMinimal});
  cloud::FleetGoal goal;
  goal.kind = cloud::FleetGoalKind::kEvacuateHypervisor;
  goal.hypervisor = 0;
  const auto plan = planner.plan(goal);
  // Destroy one planned VM between planning and execution: revalidation
  // must drop exactly that member, not fail the batch.
  s.vsf->destroy_vm(plan.batches[0].moves[0].vm);
  cloud::ExecutorPolicy policy;
  policy.replan_on_failure = false;
  cloud::PlanExecutor executor(cloud);
  const auto exec = executor.execute(planner, plan, minimal(), policy);
  EXPECT_EQ(exec.skipped, 1u);
  EXPECT_EQ(exec.committed, plan.total_moves() - 1);
  const inject::FabricChecker checker(*s.sm);
  EXPECT_TRUE(checker.check(s.vsf.get()).violations.empty());
}

TEST(PlanExecutor, FailedMemberFailsAloneInItsBatch) {
  // One member of a batch targets a full hypervisor and may not re-place;
  // it fails alone, never opening a transaction, while the rest of its
  // batch commits.
  auto s = VirtualSubnet::small(core::LidScheme::kDynamic, /*num_hyps=*/8,
                                /*vfs=*/1);
  s.vsf->boot();
  cloud::CloudOrchestrator cloud(*s.vsf, cloud::Placement::kFirstFit);
  const auto vms = cloud.launch_vms(3);  // hypervisors 0, 1, 2
  s.vsf->create_vm(3);                   // hypervisor 3 is now full

  const auto move = [](core::VmHandle vm, std::size_t src, std::size_t dst) {
    cloud::PlannedMove m;
    m.vm = vm;
    m.src_hypervisor = src;
    m.dst_hypervisor = dst;
    return m;
  };
  cloud::MigrationPlan plan;
  plan.batches.push_back(
      {{move(vms[0], 0, 5), move(vms[1], 1, 6), move(vms[2], 2, 3)}});
  cloud::ExecutorPolicy policy;
  policy.txn.backoff_base_s = 0.0;
  policy.txn.allow_replacement = false;
  policy.replan_on_failure = false;
  cloud::MigrationPlanner planner(cloud);
  cloud::PlanExecutor executor(cloud);
  const auto exec = executor.execute(planner, plan, {}, policy);

  EXPECT_EQ(exec.committed, 2u);
  EXPECT_EQ(exec.failed, 1u);
  EXPECT_EQ(exec.rolled_back, 0u);
  EXPECT_EQ(s.vsf->vm(vms[0]).hypervisor, 5u);
  EXPECT_EQ(s.vsf->vm(vms[1]).hypervisor, 6u);
  EXPECT_EQ(s.vsf->vm(vms[2]).hypervisor, 2u);  // untouched
  EXPECT_EQ(s.vsf->journal().in_flight(), 0u);
}

}  // namespace
}  // namespace ibvs
