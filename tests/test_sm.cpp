#include <gtest/gtest.h>

#include "routing/verify.hpp"
#include "tests/helpers.hpp"

namespace ibvs {
namespace {

TEST(Discovery, CountsNodesAndSmps) {
  auto s = test::PhysicalSubnet::small_fat_tree();
  const auto report = s.sm->discover();
  // 6 switches + 12 hosts.
  EXPECT_EQ(report.nodes_found, 18u);
  EXPECT_EQ(report.switches_found, 6u);
  EXPECT_EQ(report.cas_found, 12u);
  // NodeInfo per node, SwitchInfo per switch, PortInfo per connected port:
  // hosts have 1 port; each leaf has 3 hosts + 2 uplinks = 5; each spine 4.
  const std::uint64_t expected =
      18 /*NodeInfo*/ + 6 /*SwitchInfo*/ + (12 * 1 + 4 * 5 + 2 * 4);
  EXPECT_EQ(report.smps, expected);
}

TEST(LidAssignment, CoversSwitchesAndHosts) {
  auto s = test::PhysicalSubnet::small_fat_tree();
  const std::size_t assigned = s.sm->assign_lids();
  EXPECT_EQ(assigned, 18u);  // 6 switches + 12 hosts
  EXPECT_EQ(s.sm->lids().count(), 18u);
  for (NodeId host : s.hosts) {
    EXPECT_TRUE(s.fabric.node(host).lid().valid());
  }
  // Idempotent: a second pass assigns nothing.
  EXPECT_EQ(s.sm->assign_lids(), 0u);
}

TEST(LidAssignment, SkipsVfsAndMirrorsVSwitchLid) {
  auto s = test::VirtualSubnet::small(core::LidScheme::kDynamic, 4, 2);
  s.sm->assign_lids();
  for (const auto& hyp : s.hyps) {
    EXPECT_TRUE(s.fabric.node(hyp.pf).lid().valid());
    // The vSwitch shares the PF's LID instead of consuming one (§V-A).
    EXPECT_EQ(s.fabric.node(hyp.vswitch).lid(),
              s.fabric.node(hyp.pf).lid());
    for (NodeId vf : hyp.vfs) {
      EXPECT_FALSE(s.fabric.node(vf).lid().valid());
    }
  }
}

TEST(Distribution, SendsOnlyDifferingBlocksAndIsIdempotent) {
  auto s = test::PhysicalSubnet::small_fat_tree();
  s.sm->discover();
  s.sm->assign_lids();
  s.sm->compute_routes();
  const auto first = s.sm->distribute_lfts();
  EXPECT_GT(first.smps, 0u);
  EXPECT_EQ(first.switches_touched, 6u);
  // 18 LIDs fit into one 64-entry block: exactly one SMP per switch.
  EXPECT_EQ(first.smps, 6u);

  const auto again = s.sm->distribute_lfts();
  EXPECT_EQ(again.smps, 0u);
  EXPECT_EQ(again.switches_touched, 0u);
  EXPECT_GT(again.blocks_skipped, 0u);
}

TEST(Distribution, InstalledTablesMatchMaster) {
  auto s = test::PhysicalSubnet::small_fat_tree();
  s.sm->full_sweep();
  const auto& routing = s.sm->routing_result();
  for (routing::SwitchIdx i = 0; i < routing.graph.num_switches(); ++i) {
    const NodeId node = routing.graph.switches[i];
    EXPECT_TRUE(s.fabric.node(node).lft == routing.lfts[i]);
  }
}

TEST(FullSweep, ReportIsCoherent) {
  auto s = test::PhysicalSubnet::small_fat_tree();
  const auto report = s.sm->full_sweep();
  EXPECT_EQ(report.discovery.nodes_found, 18u);
  EXPECT_EQ(report.lids_assigned, 18u);
  EXPECT_GT(report.path_computation_seconds, 0.0);
  EXPECT_GT(report.distribution.time_us, 0.0);
  EXPECT_GT(report.reconfiguration_time_us(),
            report.distribution.time_us);  // PCt + LFTDt
  EXPECT_TRUE(routing::verify_routing(s.sm->routing_result()).ok);
}

TEST(MasterUpdates, UpdateEntryAndPush) {
  auto s = test::PhysicalSubnet::small_fat_tree();
  s.sm->full_sweep();
  const auto& routing = s.sm->routing_result();
  const Lid victim = s.fabric.node(s.hosts[5]).lid();

  // Redirect one LID on switch 0 and push: exactly one SMP, hardware
  // follows.
  const PortNum old_port = routing.lfts[0].get(victim);
  const PortNum new_port = old_port == 1 ? 2 : 1;
  s.sm->update_master_entry(0, victim, new_port);
  const auto sent = s.sm->push_dirty_blocks(0, SmpRouting::kLidRouted);
  EXPECT_EQ(sent, 1u);
  const NodeId node = routing.graph.switches[0];
  EXPECT_EQ(s.fabric.node(node).lft.get(victim), new_port);
  // Nothing left dirty.
  EXPECT_EQ(s.sm->push_dirty_blocks(0, SmpRouting::kLidRouted), 0u);
}

TEST(MasterUpdates, RequireRoutingFirst) {
  auto s = test::PhysicalSubnet::small_fat_tree();
  EXPECT_THROW(s.sm->distribute_lfts(), std::invalid_argument);
  EXPECT_THROW(s.sm->update_master_entry(0, Lid{1}, 1),
               std::invalid_argument);
  EXPECT_THROW(s.sm->refresh_targets(), std::invalid_argument);
}

TEST(RefreshTargets, FollowsLidMoves) {
  auto s = test::PhysicalSubnet::small_fat_tree();
  s.sm->full_sweep();
  const Lid moved = s.fabric.node(s.hosts[3]).lid();
  // Move host 3's LID to host 11 (different leaf).
  s.sm->lids().move(s.fabric, moved, s.hosts[11], 1);
  s.sm->refresh_targets();
  const auto& g = s.sm->routing_result().graph;
  for (const auto& t : g.targets) {
    if (t.lid == moved) {
      const auto attach = s.fabric.physical_attachment(s.hosts[11]);
      ASSERT_TRUE(attach.has_value());
      EXPECT_EQ(t.sw, g.dense(attach->first));
      EXPECT_EQ(t.port, attach->second);
    }
  }
}

TEST(EngineSwap, SetEngineTakesEffect) {
  auto s = test::PhysicalSubnet::small_fat_tree(routing::EngineKind::kMinHop);
  s.sm->full_sweep();
  EXPECT_EQ(s.sm->engine().name(), "minhop");
  s.sm->set_engine(routing::make_engine(routing::EngineKind::kFatTree));
  EXPECT_EQ(s.sm->engine().name(), "fat-tree");
  s.sm->compute_routes();
  EXPECT_TRUE(routing::verify_routing(s.sm->routing_result()).ok);
}

}  // namespace
}  // namespace ibvs
