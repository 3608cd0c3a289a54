// The SM's routing runs against a cold Min-Hop run.
//
// SubnetManager::compute_routes() must leave master tables that equal what
// a fresh engine computes from the same fabric and LID assignment, whatever
// happened to the subnet since the previous run: cables cut, restored or
// flapped, switches killed and revived, migrations and topology
// transactions patching master entries by hand, LIDs created past a block
// boundary and destroyed, and the engine swapped. A seeded op sequence
// runs all of these on the 648-node tree, a small three-level tree and an
// irregular fabric and compares after every routing run.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/errors.hpp"
#include "inject/injector.hpp"
#include "sm/topology_txn.hpp"
#include "tests/helpers.hpp"
#include "util/rng.hpp"

namespace ibvs {
namespace {

/// A virtualized subnet over any topology, with a fault injector and a
/// topology-transaction manager, booted under Min-Hop with dynamic LIDs (so
/// VM creation grows the LID space).
struct Subnet {
  Fabric fabric;
  topology::Built built;
  std::unique_ptr<sm::SubnetManager> sm;
  std::unique_ptr<core::VSwitchFabric> vsf;
  std::unique_ptr<inject::FaultInjector> injector;
  std::unique_ptr<sm::TopologyTxnManager> topo;

  /// Hypervisors on the first `per_switch` host slots of every leaf; the SM
  /// on the next free slot of the first leaf.
  void finish(std::size_t per_switch, std::size_t vfs) {
    std::vector<topology::HostSlot> slots;
    std::optional<topology::HostSlot> sm_slot;
    std::unordered_map<NodeId, std::size_t> used;
    for (const topology::HostSlot& slot : built.host_slots) {
      if (used[slot.leaf]++ < per_switch) {
        slots.push_back(slot);
      } else if (!sm_slot) {
        sm_slot = slot;
      }
    }
    auto hyps = core::attach_hypervisors(fabric, slots, vfs);
    const NodeId sm_node = fabric.add_ca("sm-node");
    fabric.connect(sm_node, 1, sm_slot->leaf, sm_slot->port);
    fabric.validate();
    sm = std::make_unique<sm::SubnetManager>(
        fabric, sm_node, routing::make_engine(routing::EngineKind::kMinHop));
    vsf = std::make_unique<core::VSwitchFabric>(*sm, std::move(hyps),
                                                core::LidScheme::kDynamic);
    injector = std::make_unique<inject::FaultInjector>(fabric, 7);
    injector->attach_transport(&sm->transport());
    topo = std::make_unique<sm::TopologyTxnManager>(*sm, vsf->journal());
    vsf->boot();
  }

  static std::unique_ptr<Subnet> tree648() {
    auto s = std::make_unique<Subnet>();
    s->built = topology::build_paper_fat_tree(s->fabric,
                                              topology::PaperFatTree::k648);
    s->finish(/*per_switch=*/3, /*vfs=*/4);
    return s;
  }

  /// 4 pods of 4 leaves and 4 spines under 16 cores, radix 8: the spines
  /// that die are pod spines, with cables up and down.
  static std::unique_ptr<Subnet> three_level() {
    auto s = std::make_unique<Subnet>();
    s->built = topology::build_three_level_fat_tree(
        s->fabric, topology::ThreeLevelParams{.num_pods = 4,
                                              .leaves_per_pod = 4,
                                              .spines_per_pod = 4,
                                              .num_cores = 16,
                                              .hosts_per_leaf = 4,
                                              .radix = 8});
    s->finish(/*per_switch=*/3, /*vfs=*/4);
    return s;
  }

  static std::unique_ptr<Subnet> irregular() {
    auto s = std::make_unique<Subnet>();
    s->built = topology::build_irregular(
        s->fabric, topology::IrregularParams{.num_switches = 16,
                                             .hosts_per_switch = 4,
                                             .extra_links = 10,
                                             .radix = 12,
                                             .seed = 5});
    s->finish(/*per_switch=*/3, /*vfs=*/4);
    return s;
  }
};

/// The SM's master tables and target list equal a cold Min-Hop run over
/// the same fabric and LIDs, capacity included.
void expect_matches_cold(const sm::SubnetManager& sm, const std::string& at) {
  const routing::RoutingResult cold =
      routing::make_engine(routing::EngineKind::kMinHop)
          ->compute(sm.fabric(), sm.lids());
  const routing::RoutingResult& master = sm.routing_result();
  ASSERT_EQ(master.lfts.size(), cold.lfts.size()) << at;
  for (std::size_t s = 0; s < cold.lfts.size(); ++s) {
    ASSERT_EQ(master.lfts[s], cold.lfts[s]) << at << ", switch " << s;
    ASSERT_EQ(master.lfts[s].capacity(), cold.lfts[s].capacity())
        << at << ", switch " << s;
  }
  const auto& a = master.graph.targets;
  const auto& b = cold.graph.targets;
  ASSERT_EQ(a.size(), b.size()) << at;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].lid == b[i].lid && a[i].sw == b[i].sw &&
                a[i].port == b[i].port)
        << at << ", target " << i;
  }
}

using test::switch_cables;

enum class Op {
  kCut,
  kRestore,
  kFlap,
  kKill,
  kRevive,
  kMigrate,
  kAddLink,
  kRemoveLink,
  kCreatePastBlock,
  kDestroy,
  kSetEngine,
  kCount,
};

constexpr const char* kOpNames[] = {
    "cut",         "restore",           "flap",    "kill",
    "revive",      "migrate",           "add_link", "remove_link",
    "create_past_block", "destroy",     "set_engine",
};

/// What a sequence got done: each kind must happen for it to test anything.
struct Tally {
  std::size_t block_crossings = 0;  ///< VM creations into a new LFT block
  std::size_t migrations = 0;
  std::size_t link_txns = 0;  ///< committed add/remove-link transactions
  std::size_t kills = 0;      ///< spines killed (each revived later or not)
  std::size_t routing_runs = 0;
  std::size_t reusing_runs = 0;  ///< runs that left some switch untouched
};

/// Runs `steps` seeded ops. After each op the SM reconverges (a routing run
/// plus redistribution) three times in four; otherwise the next op piles
/// onto this one's changes before routing runs.
Tally run_mixed_sequence(Subnet& s, std::uint64_t seed, std::size_t steps) {
  SplitMix64 rng(seed);
  std::vector<core::VmHandle> vms;
  std::vector<CableSpec> added;
  NodeId dead = kInvalidNode;
  Tally tally;
  const auto& spines = s.built.spines.empty() ? s.built.leaves
                                              : s.built.spines;

  const auto reachable_pf = [&](std::size_t h) {
    const NodeId pf = s.vsf->hypervisors()[h].pf;
    return s.fabric.physical_attachment(pf) &&
           s.sm->transport().hops_to(pf).has_value();
  };
  const auto create_on_reachable = [&]() -> bool {
    const auto& hyps = s.vsf->hypervisors();
    for (std::size_t tries = 0; tries < 4 * hyps.size(); ++tries) {
      const std::size_t h = rng.below(hyps.size());
      if (s.vsf->free_vf_count(h) == 0 || !reachable_pf(h)) continue;
      vms.push_back(s.vsf->create_vm(h).vm);
      return true;
    }
    return false;
  };

  for (std::size_t step = 0; step < steps; ++step) {
    const auto op = static_cast<Op>(rng.below(static_cast<int>(Op::kCount)));
    switch (op) {
      case Op::kCut: {
        const auto cables = switch_cables(s.fabric);
        const CableSpec& c = cables[rng.below(cables.size())];
        s.injector->cut_link(c.a, c.port_a);
        break;
      }
      case Op::kRestore: {
        const auto& severed = s.injector->severed();
        if (severed.empty()) break;
        const auto& c = severed[rng.below(severed.size())];
        if (!s.injector->is_dead(c.a) && !s.injector->is_dead(c.b)) {
          s.injector->restore_link(c.a, c.a_port);
        }
        break;
      }
      case Op::kFlap: {
        const auto cables = switch_cables(s.fabric);
        const CableSpec& c = cables[rng.below(cables.size())];
        s.injector->flap_link(c.a, c.port_a);
        break;
      }
      case Op::kKill:
        if (dead == kInvalidNode) {
          dead = spines[rng.below(spines.size())];
          s.injector->kill_node(dead);
          ++tally.kills;
        }
        break;
      case Op::kRevive:
        if (dead != kInvalidNode) {
          s.injector->revive_node(dead);
          dead = kInvalidNode;
        }
        break;
      case Op::kMigrate: {
        if (vms.empty()) break;
        const core::VmHandle vm = vms[rng.below(vms.size())];
        const std::size_t dst = rng.below(s.vsf->hypervisors().size());
        if (dst == s.vsf->vm(vm).hypervisor || !reachable_pf(dst) ||
            !reachable_pf(s.vsf->vm(vm).hypervisor) ||
            s.vsf->free_vf_count(dst) == 0) {
          break;
        }
        try {
          s.vsf->migrate_vm(vm, dst);
          ++tally.migrations;
        } catch (const core::MigrationError&) {
          // A fault left a switch of the update set unreachable; the
          // master tables still hold whatever was written.
        }
        break;
      }
      case Op::kAddLink: {
        // A new cable between two switches with free ports: a chord the
        // fabric did not have.
        const auto ids = s.fabric.switch_ids();
        const NodeId a = ids[rng.below(ids.size())];
        const NodeId b = ids[rng.below(ids.size())];
        const auto pa = s.fabric.free_port(a);
        const auto pb = s.fabric.free_port(b);
        if (a == b || !pa || !pb || s.injector->is_dead(a) ||
            s.injector->is_dead(b)) {
          break;
        }
        try {
          s.topo->add_link({a, *pa, b, *pb});
          added.push_back({a, *pa, b, *pb});
          ++tally.link_txns;
        } catch (const sm::TopologyError&) {
        }
        break;
      }
      case Op::kRemoveLink: {
        // An added chord when there is one, else any live cable.
        std::optional<CableSpec> c;
        if (!added.empty() && rng.below(2) == 0) {
          c = added.back();
          added.pop_back();
          if (!s.fabric.peer(c->a, c->port_a)) c.reset();
        } else {
          const auto cables = switch_cables(s.fabric);
          c = cables[rng.below(cables.size())];
        }
        if (!c) break;
        try {
          s.topo->remove_link(c->a, c->port_a);
          ++tally.link_txns;
        } catch (const sm::TopologyError&) {
          // A bridge: the transaction rolled back.
        }
        break;
      }
      case Op::kCreatePastBlock: {
        const std::size_t blocks = lft_blocks_for(s.sm->lids().top_lid());
        while (lft_blocks_for(s.sm->lids().top_lid()) == blocks) {
          if (!create_on_reachable()) break;
        }
        if (lft_blocks_for(s.sm->lids().top_lid()) > blocks) {
          ++tally.block_crossings;
        }
        break;
      }
      case Op::kDestroy:
        if (!vms.empty()) {
          const std::size_t i = rng.below(vms.size());
          s.vsf->destroy_vm(vms[i]);
          vms.erase(vms.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
      case Op::kSetEngine:
        s.sm->set_engine(routing::make_engine(routing::EngineKind::kMinHop));
        break;
      case Op::kCount:
        break;
    }
    if (rng.below(4) != 0) {
      s.sm->reconverge();
      ++tally.routing_runs;
      if (s.sm->routing_result().switches_rerouted <
          s.sm->routing_result().lfts.size()) {
        ++tally.reusing_runs;
      }
      expect_matches_cold(*s.sm, "step " + std::to_string(step) + " (" +
                                     kOpNames[static_cast<int>(op)] + ")");
      if (::testing::Test::HasFatalFailure()) return tally;
    }
  }
  s.sm->compute_routes();
  expect_matches_cold(*s.sm, "final run");
  return tally;
}

void expect_every_kind_ran(const Tally& t) {
  EXPECT_GT(t.block_crossings, 0u);
  EXPECT_GT(t.migrations, 0u);
  EXPECT_GT(t.link_txns, 0u);
  EXPECT_GT(t.routing_runs, 0u);
  EXPECT_GT(t.reusing_runs, 0u);
}

TEST(RouteReuse, Tree648MatchesColdAfterEveryRun) {
  auto s = Subnet::tree648();
  expect_matches_cold(*s->sm, "boot");
  expect_every_kind_ran(run_mixed_sequence(*s, /*seed=*/1, /*steps=*/120));
}

TEST(RouteReuse, ThreeLevelMatchesColdAfterEveryRun) {
  // A pod-spine kill drops the spine's own LID from every other table for
  // as long as it is dead, and changes the hop columns of the leaves under
  // it: the replayed choices must hold with delta away from zero, and the
  // walk must not stop before the last changed column.
  auto s = Subnet::three_level();
  expect_matches_cold(*s->sm, "boot");
  const Tally t = run_mixed_sequence(*s, /*seed=*/3, /*steps=*/200);
  expect_every_kind_ran(t);
  EXPECT_GT(t.kills, 1u);
}

TEST(RouteReuse, IrregularMatchesColdAfterEveryRun) {
  auto s = Subnet::irregular();
  expect_matches_cold(*s->sm, "boot");
  expect_every_kind_ran(run_mixed_sequence(*s, /*seed=*/2, /*steps=*/160));
}

TEST(RouteReuse, FullReconfigureReroutesEverySwitch) {
  // The paper's RCt baseline models OpenSM's full recompute: no reuse,
  // even when nothing changed since the last run.
  auto s = test::VirtualSubnet::small(core::LidScheme::kPrepopulated);
  s.vsf->boot();
  const std::size_t switches = s.sm->routing_result().lfts.size();
  EXPECT_EQ(s.sm->routing_result().switches_rerouted, switches);
  EXPECT_EQ(s.sm->routing_result().hop_rows_searched, switches);
  s.sm->compute_routes();
  EXPECT_EQ(s.sm->routing_result().switches_rerouted, 0u);
  EXPECT_EQ(s.sm->routing_result().hop_rows_searched, 0u);
  s.vsf->full_reconfigure();
  EXPECT_EQ(s.sm->routing_result().switches_rerouted, switches);
  EXPECT_EQ(s.sm->routing_result().hop_rows_searched, switches);
}

TEST(RouteReuse, FlapRoundTripReroutesNothing) {
  auto s = Subnet::tree648();
  const std::size_t switches = s->sm->routing_result().lfts.size();
  const NodeId leaf = s->built.leaves[3];
  const auto cables = switch_cables(s->fabric);
  const CableSpec c = *std::find_if(
      cables.begin(), cables.end(),
      [&](const CableSpec& x) { return x.a == leaf || x.b == leaf; });

  // A flap leaves the fabric as it found it: nothing to re-choose.
  ASSERT_TRUE(s->injector->flap_link(c.a, c.port_a));
  s->sm->compute_routes();
  EXPECT_EQ(s->sm->routing_result().switches_rerouted, 0u);
  EXPECT_EQ(s->sm->routing_result().hop_rows_searched, 0u);

  // A cut changes the hop rows of both its ends at a switch LID, which
  // sorts before the host LIDs: every neighbour of either end re-chooses
  // from there, and on a two-level tree that is every switch.
  ASSERT_TRUE(s->injector->cut_link(c.a, c.port_a));
  s->sm->compute_routes();
  EXPECT_EQ(s->sm->routing_result().switches_rerouted, switches);
  expect_matches_cold(*s->sm, "after the cut");
  ASSERT_TRUE(s->injector->restore_link(c.a, c.port_a));
  s->sm->compute_routes();
  expect_matches_cold(*s->sm, "after the restore");
}

TEST(RouteReuse, EveryTableWrittenSearchesNoHopRowForAFlap) {
  // Writes make tables stale, not the hop matrix: only set_engine and
  // invalidate_routes drop it. Every table is recomputed, no row searched.
  auto s = Subnet::tree648();
  const routing::RoutingResult& master = s->sm->routing_result();
  const std::size_t switches = master.lfts.size();
  const Lid lid = master.graph.targets.back().lid;
  for (routing::SwitchIdx sw = 0; sw < switches; ++sw) {
    s->sm->update_master_entry(sw, lid, kDropPort);
  }
  const CableSpec c = switch_cables(s->fabric).front();
  ASSERT_TRUE(s->injector->flap_link(c.a, c.port_a));
  s->sm->reconverge();
  EXPECT_EQ(master.hop_rows_searched, 0u);
  EXPECT_EQ(master.switches_rerouted, switches);
  expect_matches_cold(*s->sm, "after the flap");
}

TEST(RouteReuse, RoutingReadsTheMatrixAPlannerUpdated) {
  // A committed remove_link brings the SM's hop matrix up to date for its
  // planner; the next routing run searches no row, yet re-chooses from
  // every row the planner's update changed.
  auto s = Subnet::tree648();
  const std::size_t switches = s->sm->routing_result().lfts.size();
  const NodeId leaf = s->built.leaves[7];
  const auto cables = switch_cables(s->fabric);
  const CableSpec c = *std::find_if(
      cables.begin(), cables.end(),
      [&](const CableSpec& x) { return x.a == leaf || x.b == leaf; });

  const std::uint64_t rows_before = s->sm->hop_rows_searched();
  ASSERT_EQ(s->topo->remove_link(c.a, c.port_a).state,
            sm::TopologyTxnState::kCommitted);
  const std::uint64_t planner_rows = s->sm->hop_rows_searched() - rows_before;
  EXPECT_GT(planner_rows, 0u);
  EXPECT_LT(planner_rows, switches);

  s->sm->compute_routes();
  EXPECT_EQ(s->sm->routing_result().hop_rows_searched, 0u);
  expect_matches_cold(*s->sm, "after the remove_link");
}

TEST(RouteReuse, FlapSearchesNoTargetAndACutFew) {
  // A flap changes no input: every table is kept without a search. A
  // leaf-spine cut changes the out-edges of its two ends, which are filled
  // again from all-drop, and a few hop cells; every other switch keeps its
  // old port by replay for nearly every target.
  auto s = Subnet::tree648();
  const NodeId leaf = s->built.leaves[9];
  const auto cables = switch_cables(s->fabric);
  const CableSpec c = *std::find_if(
      cables.begin(), cables.end(),
      [&](const CableSpec& x) { return x.a == leaf || x.b == leaf; });
  const routing::RoutingResult& master = s->sm->routing_result();
  const std::size_t pairs = master.lfts.size() * master.graph.targets.size();
  EXPECT_EQ(master.targets_searched, pairs - master.graph.targets.size())
      << "cold: every pair but each switch's own LID";

  ASSERT_TRUE(s->injector->flap_link(c.a, c.port_a));
  s->sm->compute_routes();
  EXPECT_EQ(master.targets_searched, 0u);

  // The two ends search every target but their own LIDs.
  std::size_t ends = 0;
  for (const NodeId end : {c.a, c.b}) {
    const routing::SwitchIdx sw = master.graph.dense(end);
    ends += static_cast<std::size_t>(std::count_if(
        master.graph.targets.begin(), master.graph.targets.end(),
        [&](const routing::SwitchGraph::Target& t) { return t.sw != sw; }));
  }
  ASSERT_TRUE(s->injector->cut_link(c.a, c.port_a));
  s->sm->compute_routes();
  EXPECT_GT(master.targets_searched, ends);
  EXPECT_LT(master.targets_searched - ends, pairs / 40);
  expect_matches_cold(*s->sm, "after the cut");
  ASSERT_TRUE(s->injector->restore_link(c.a, c.port_a));
  s->sm->compute_routes();
  EXPECT_GT(master.targets_searched, ends);
  EXPECT_LT(master.targets_searched - ends, pairs / 40);
  expect_matches_cold(*s->sm, "after the restore");
}

TEST(RouteReuse, FlapWalksNothingAndAPodSpineKillStopsEarly) {
  // The walk stops where the loads agree again, past the last changed
  // column and inside the lists' common tail. Without the stop, each
  // switch walks from its k_s to the end of both lists: an instrumented
  // run of this sequence walked 0 targets for the flap and 3,375 each for
  // the kill and the revive, against 1,527 each with the stop.
  constexpr std::size_t kKillWalk = 3375;
  constexpr std::size_t kReviveWalk = 3375;
  auto s = Subnet::three_level();
  const routing::RoutingResult& master = s->sm->routing_result();
  const NodeId spine = s->built.spines[5];
  const CableSpec c = s->fabric.cables_of(spine).front();

  ASSERT_TRUE(s->injector->flap_link(c.a, c.port_a));
  s->sm->compute_routes();
  EXPECT_EQ(master.targets_walked, 0u);

  ASSERT_TRUE(s->injector->kill_node(spine));
  s->sm->compute_routes();
  expect_matches_cold(*s->sm, "after the kill");
  EXPECT_GT(master.targets_walked, 0u);
  EXPECT_LT(master.targets_walked, kKillWalk);

  ASSERT_TRUE(s->injector->revive_node(spine));
  s->sm->compute_routes();
  expect_matches_cold(*s->sm, "after the revive");
  EXPECT_GT(master.targets_walked, 0u);
  EXPECT_LT(master.targets_walked, kReviveWalk);
}

/// Rows of the hop matrix that differ between two graphs of one switch set.
std::size_t hop_rows_changed(const routing::SwitchGraph& before,
                             const routing::SwitchGraph& after) {
  const std::vector<std::uint8_t> a = test::switch_hop_matrix(before);
  const std::vector<std::uint8_t> b = test::switch_hop_matrix(after);
  const std::size_t s_count = after.num_switches();
  std::size_t changed = 0;
  for (std::size_t u = 0; u < s_count; ++u) {
    const auto row = static_cast<std::ptrdiff_t>(u * s_count);
    if (!std::equal(a.begin() + row, a.begin() + row + s_count,
                    b.begin() + row)) {
      ++changed;
    }
  }
  return changed;
}

TEST(RouteReuse, LeafSpineCutSearchesTheHopRowsItChanges) {
  // A leaf-spine cable only moves the two ends' rows: every other switch
  // keeps a path one level up through another spine or leaf.
  auto s = Subnet::tree648();
  const std::size_t switches = s->sm->routing_result().lfts.size();
  const NodeId leaf = s->built.leaves[5];
  const auto cables = switch_cables(s->fabric);
  const CableSpec c = *std::find_if(
      cables.begin(), cables.end(),
      [&](const CableSpec& x) { return x.a == leaf || x.b == leaf; });

  routing::SwitchGraph before = s->sm->routing_result().graph;
  ASSERT_TRUE(s->injector->cut_link(c.a, c.port_a));
  s->sm->compute_routes();
  const std::size_t cut_rows =
      hop_rows_changed(before, s->sm->routing_result().graph);
  EXPECT_GT(cut_rows, 0u);
  EXPECT_LT(cut_rows, switches);
  EXPECT_EQ(s->sm->routing_result().hop_rows_searched, cut_rows);
  expect_matches_cold(*s->sm, "after the cut");

  before = s->sm->routing_result().graph;
  ASSERT_TRUE(s->injector->restore_link(c.a, c.port_a));
  s->sm->compute_routes();
  EXPECT_EQ(s->sm->routing_result().hop_rows_searched,
            hop_rows_changed(before, s->sm->routing_result().graph));
  expect_matches_cold(*s->sm, "after the restore");
}

}  // namespace
}  // namespace ibvs
