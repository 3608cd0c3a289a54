// SM election, failover, and the §IV "SM in a VM" architectural point.
#include <gtest/gtest.h>

#include "fabric/trace.hpp"
#include "inject/checker.hpp"
#include "inject/injector.hpp"
#include "routing/verify.hpp"
#include "sm/election.hpp"
#include "tests/helpers.hpp"

namespace ibvs {
namespace {

auto engine_factory() {
  return [] { return routing::make_engine(routing::EngineKind::kMinHop); };
}

struct ElectionTest : ::testing::Test {
  test::PhysicalSubnet s = test::PhysicalSubnet::small_fat_tree();
};

TEST_F(ElectionTest, HighestPriorityWins) {
  sm::SmElection election(s.fabric, engine_factory());
  election.add_candidate(s.hosts[0], 3);
  election.add_candidate(s.hosts[1], 7);
  election.add_candidate(s.hosts[2], 5);
  const auto report = election.elect();
  ASSERT_TRUE(report.master.has_value());
  EXPECT_EQ(*report.master, 1u);
  EXPECT_EQ(report.standbys, 2u);
  EXPECT_EQ(election.candidates()[1].state, sm::SmState::kMaster);
  EXPECT_EQ(election.candidates()[0].state, sm::SmState::kStandby);
}

TEST_F(ElectionTest, GuidBreaksTies) {
  sm::SmElection election(s.fabric, engine_factory());
  election.add_candidate(s.hosts[0], 5);
  election.add_candidate(s.hosts[1], 5);  // later node: higher GUID
  const auto report = election.elect();
  ASSERT_TRUE(report.master.has_value());
  EXPECT_EQ(*report.master, 1u);
}

TEST_F(ElectionTest, QP0LessCandidatesAreDisqualified) {
  // A Shared Port VF cannot source SMPs: it never becomes master, whatever
  // its priority — the §IV-A limitation.
  sm::SmElection election(s.fabric, engine_factory());
  election.add_candidate(s.hosts[0], 1);
  election.add_candidate(s.hosts[1], 15, /*qp0_usable=*/false);
  const auto report = election.elect();
  ASSERT_TRUE(report.master.has_value());
  EXPECT_EQ(*report.master, 0u);
  EXPECT_EQ(report.disqualified, 1u);
  EXPECT_EQ(election.candidates()[1].state, sm::SmState::kNotActive);
}

TEST_F(ElectionTest, MasterSweepsAndSubnetWorks) {
  sm::SmElection election(s.fabric, engine_factory());
  election.add_candidate(s.hosts[0], 5);
  election.add_candidate(s.hosts[11], 3);
  election.elect();
  const auto sweep = election.master_sweep();
  EXPECT_EQ(sweep.discovery.nodes_found, 18u);
  EXPECT_TRUE(
      routing::verify_routing(election.master_sm()->routing_result()).ok);
}

TEST_F(ElectionTest, FailoverPreservesAddressingAndHeals) {
  sm::SmElection election(s.fabric, engine_factory());
  election.add_candidate(s.hosts[0], 5);
  election.add_candidate(s.hosts[11], 3);
  election.elect();
  election.master_sweep();
  const Lid host5_before = s.fabric.node(s.hosts[5]).lid();

  // Master dies; a poll notices and the standby takes over.
  election.fail_candidate(0);
  const auto report = election.poll();
  ASSERT_TRUE(report.master.has_value());
  EXPECT_EQ(*report.master, 1u);

  // The takeover adopted the existing LIDs: nothing was renumbered.
  EXPECT_EQ(s.fabric.node(s.hosts[5]).lid(), host5_before);
  EXPECT_TRUE(
      routing::verify_routing(election.master_sm()->routing_result()).ok);
  // And the data path still works end to end.
  EXPECT_TRUE(
      fabric::trace_unicast(s.fabric, s.hosts[3], host5_before).delivered());
}

TEST_F(ElectionTest, TakeoverOfUnchangedSubnetSendsNoLftSmps) {
  sm::SmElection election(s.fabric, engine_factory());
  election.add_candidate(s.hosts[0], 5);
  election.add_candidate(s.hosts[11], 3);
  election.elect();
  election.master_sweep();

  election.fail_candidate(0);
  election.poll();
  // The new master recomputed identical routes; the diff-based
  // distribution found every installed block already correct.
  const auto& counters = election.master_sm()->transport().counters();
  EXPECT_EQ(counters.lft_block_writes, 0u);
}

TEST_F(ElectionTest, KilledSwitchKeepsItsLidAcrossFailover) {
  // A takeover sweep adopts a dead switch's LID although the switch has no
  // cable: a host addressed before the switch returns must not get it.
  sm::SmElection election(s.fabric, engine_factory());
  election.add_candidate(s.hosts[0], 5);
  election.add_candidate(s.hosts[11], 3);
  election.elect();
  election.master_sweep();
  inject::FaultInjector injector(s.fabric);
  const NodeId spine = s.built.spines[0];
  const Lid spine_lid = s.fabric.node(spine).lid();
  injector.kill_node(spine);
  election.fail_candidate(0);
  election.poll();
  sm::SubnetManager& sm = *election.master_sm();
  EXPECT_TRUE(sm.lids().assigned(spine_lid));

  const NodeId leaf = s.built.leaves[1];
  const NodeId late = s.fabric.add_ca("late-host");
  s.fabric.connect(late, 1, leaf, *s.fabric.free_port(leaf));
  sm.transport().invalidate_topology();
  EXPECT_NE(sm.assign_lid(late, 1), spine_lid);
  injector.revive_node(spine);
  sm.transport().invalidate_topology();
  EXPECT_TRUE(sm.reconverge().converged);
  const auto report = inject::FabricChecker(sm).check();
  EXPECT_TRUE(report.clean()) << report.violations.front();
}

TEST_F(ElectionTest, NoEligibleCandidates) {
  sm::SmElection election(s.fabric, engine_factory());
  election.add_candidate(s.hosts[0], 5, /*qp0_usable=*/false);
  const auto report = election.elect();
  EXPECT_FALSE(report.master.has_value());
  EXPECT_EQ(election.master_sm(), nullptr);
  EXPECT_THROW(election.master_sweep(), std::invalid_argument);
}

TEST(ElectionVSwitch, SmRunsInsideAVm) {
  // The vSwitch payoff of §IV: a VF is a complete vHCA with its own QP0, so
  // an SM can live in a VM. Boot a virtualized subnet, start a VM, make its
  // VF an SM candidate, kill the bare-metal master, and watch the VM-hosted
  // SM take the subnet over and keep it routable.
  auto s = test::VirtualSubnet::small(core::LidScheme::kPrepopulated);
  s.vsf->boot();
  const auto vm = s.vsf->create_vm(2);
  const NodeId vm_vf = s.vsf->vm_node(vm.vm);

  sm::SmElection election(s.fabric, [] {
    return routing::make_engine(routing::EngineKind::kMinHop);
  });
  election.add_candidate(s.sm_node, 9);
  election.add_candidate(vm_vf, 5, /*qp0_usable=*/true);  // vSwitch: full vHCA
  election.elect();
  election.master_sweep();

  election.fail_candidate(0);
  const auto report = election.poll();
  ASSERT_TRUE(report.master.has_value());
  EXPECT_EQ(*report.master, 1u);  // the VM is now the subnet manager
  // The subnet remains fully functional under the VM-hosted SM.
  EXPECT_TRUE(
      routing::verify_routing(election.master_sm()->routing_result()).ok);
  EXPECT_TRUE(fabric::all_reach(s.fabric, s.pf_nodes(), vm.lid));
}

}  // namespace
}  // namespace ibvs
