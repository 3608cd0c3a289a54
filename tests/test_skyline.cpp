#include <gtest/gtest.h>

#include <algorithm>

#include "core/skyline.hpp"
#include "core/update_set.hpp"
#include "tests/helpers.hpp"

namespace ibvs {
namespace {

TEST(ChangedSwitches, DiffsEntryVectors) {
  core::EntryDelta delta;
  delta.old_entry = {1, 2, 3, 4};
  delta.new_entry = {1, 9, 3, 8};
  const auto changed = core::changed_switches(delta);
  EXPECT_EQ(changed, (std::vector<routing::SwitchIdx>{1, 3}));
  delta.new_entry.pop_back();
  EXPECT_THROW(core::changed_switches(delta), std::invalid_argument);
}

struct SkylineFixture : ::testing::Test {
  test::VirtualSubnet s =
      test::VirtualSubnet::small(core::LidScheme::kDynamic);
  core::VmHandle vm;
  Lid lid;

  void SetUp() override {
    s.vsf->boot();
    const auto r = s.vsf->create_vm(0);
    vm = r.vm;
    lid = r.lid;
  }

  /// The VM LID's old and new entry on every switch for a deterministic
  /// move to `dst`: the update-set planner's deltas folded over the master
  /// table, read before the move.
  [[nodiscard]] core::EntryDelta planned_delta(std::size_t dst) const {
    const auto& master = s.sm->routing_result();
    const auto& hyp = s.hyps[dst];
    const auto plan = core::plan_update_set(
        master,
        {.vm_lid = lid,
         .takes_from = s.fabric.node(hyp.pf).lid(),
         .vm_at = {hyp.leaf, hyp.leaf_port}},
        core::ReconfigMode::kDeterministic);
    core::EntryDelta delta;
    for (routing::SwitchIdx i = 0; i < master.graph.num_switches(); ++i) {
      delta.old_entry.push_back(master.lfts[i].get(lid));
    }
    delta.new_entry = delta.old_entry;
    for (const auto& d : plan.deltas) {
      delta.new_entry[master.graph.dense(d.switch_node)] = d.new_port;
    }
    return delta;
  }
};

TEST_F(SkylineFixture, MinimalSetIsSubsetOfChangedSet) {
  const auto delta = planned_delta(7);
  s.vsf->migrate_vm(vm, 7);
  const auto changed = core::changed_switches(delta);
  const auto attach =
      s.sm->lids().attachment(s.fabric, lid);
  ASSERT_TRUE(attach.has_value());
  const auto& g = s.sm->routing_result().graph;
  const auto minimal = core::minimal_update_set(
      g, delta, g.dense(attach->first), attach->second);
  EXPECT_LE(minimal.size(), changed.size());
  EXPECT_TRUE(std::includes(changed.begin(), changed.end(), minimal.begin(),
                            minimal.end()));
}

TEST_F(SkylineFixture, HybridTablesDeliverAfterMinimalRepair) {
  // Apply only the minimal set on a copy of the entries and verify every
  // switch's hybrid route reaches the new attachment.
  const auto delta = planned_delta(6);
  s.vsf->migrate_vm(vm, 6);
  const auto attach = s.sm->lids().attachment(s.fabric, lid);
  ASSERT_TRUE(attach.has_value());
  const auto& g = s.sm->routing_result().graph;
  const auto new_sw = g.dense(attach->first);
  const auto minimal =
      core::minimal_update_set(g, delta, new_sw, attach->second);

  std::vector<bool> updated(g.num_switches(), false);
  for (auto sw : minimal) updated[sw] = true;
  for (routing::SwitchIdx start = 0; start < g.num_switches(); ++start) {
    routing::SwitchIdx x = start;
    std::size_t guard = 0;
    bool ok = false;
    while (guard++ <= g.num_switches()) {
      const PortNum port =
          updated[x] ? delta.new_entry[x] : delta.old_entry[x];
      if (x == new_sw && port == attach->second) {
        ok = true;
        break;
      }
      const auto e = g.edge_of(x, port);
      if (port == kDropPort || e == routing::SwitchGraph::kNoEdge) break;
      x = g.edges[e].to;
    }
    EXPECT_TRUE(ok) << "switch " << start << " cannot reach after repair";
  }
}

TEST_F(SkylineFixture, IntraLeafRepairIsTheLeafOnly) {
  const auto delta = planned_delta(1);
  s.vsf->migrate_vm(vm, 1);  // hypervisors 0,1,2 share leaf 0
  const auto attach = s.sm->lids().attachment(s.fabric, lid);
  ASSERT_TRUE(attach.has_value());
  const auto& g = s.sm->routing_result().graph;
  const auto minimal = core::minimal_update_set(
      g, delta, g.dense(attach->first), attach->second);
  ASSERT_EQ(minimal.size(), 1u);
  EXPECT_EQ(g.switches[minimal[0]], s.hyps[0].leaf);
}

TEST_F(SkylineFixture, NoChangeMeansEmptySet) {
  // A delta with identical old/new entries needs no updates at all — the
  // trace must succeed out of the box (the LID did not actually move).
  const auto& routing = s.sm->routing_result();
  const auto& g = routing.graph;
  core::EntryDelta delta;
  delta.old_entry.resize(g.num_switches());
  delta.new_entry.resize(g.num_switches());
  for (routing::SwitchIdx i = 0; i < g.num_switches(); ++i) {
    delta.old_entry[i] = routing.lfts[i].get(lid);
    delta.new_entry[i] = delta.old_entry[i];
  }
  const auto attach = s.sm->lids().attachment(s.fabric, lid);
  const auto minimal = core::minimal_update_set(
      g, delta, g.dense(attach->first), attach->second);
  EXPECT_TRUE(minimal.empty());
}

TEST_F(SkylineFixture, UnrepairableDeltaThrows) {
  const auto& g = s.sm->routing_result().graph;
  core::EntryDelta delta;
  // Everything drops in both tables: no repair can deliver.
  delta.old_entry.assign(g.num_switches(), kDropPort);
  delta.new_entry.assign(g.num_switches(), kDropPort);
  const auto attach = s.sm->lids().attachment(s.fabric, lid);
  EXPECT_THROW(core::minimal_update_set(g, delta, g.dense(attach->first),
                                        attach->second),
               std::logic_error);
}

}  // namespace
}  // namespace ibvs
