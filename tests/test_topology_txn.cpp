// Transactional live topology reconfiguration: validation errors, minimal
// re-routing, byte-identical rollback, journal recovery in both roll
// directions (directly and through an SmElection failover), the cloud
// drain-then-detach helper, and chaos topology faults.
//
// The contract under test mirrors the migration transactions: every
// topology delta ends kCommitted or kRolledBack — never in between — and a
// rolled-back delta leaves cabling, LID assignment and forwarding state
// byte-identical to the pre-transaction fabric. A master dying mid-delta is
// recovered by replaying the write-ahead journal, even when the recovering
// SM is a standby whose takeover sweep saw the half-mutated fabric.
#include <gtest/gtest.h>

#include <algorithm>

#include "cloud/orchestrator.hpp"
#include "cloud/planner.hpp"
#include "inject/chaos.hpp"
#include "inject/checker.hpp"
#include "inject/injector.hpp"
#include "sm/election.hpp"
#include "sm/topology_txn.hpp"
#include "tests/helpers.hpp"

namespace ibvs {
namespace {

using test::VirtualSubnet;

/// Installed forwarding state of every physical switch, in NodeId order.
std::vector<Lft> installed_lfts(Fabric& fabric) {
  std::vector<Lft> out;
  for (const NodeId sw : fabric.switch_ids()) out.push_back(fabric.node(sw).lft);
  return out;
}

/// Runs `fn`, which must throw TopologyError, and returns its code.
template <typename Fn>
sm::TopologyErrc thrown_code(Fn&& fn) {
  try {
    fn();
  } catch (const sm::TopologyError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected a TopologyError";
  return sm::TopologyErrc::kNotASwitch;
}

auto engine_factory() {
  return [] { return routing::make_engine(routing::EngineKind::kMinHop); };
}

/// The leaf's port cabled to `spine` (every leaf has exactly one).
PortNum uplink_port(const Fabric& fabric, NodeId leaf, NodeId spine) {
  const Node& n = fabric.node(leaf);
  for (PortNum p = 1; p <= n.num_ports(); ++p) {
    if (n.ports[p].connected() && n.ports[p].peer == spine) return p;
  }
  ADD_FAILURE() << "no uplink from " << leaf << " to " << spine;
  return 0;
}

/// A booted small virtual subnet plus a txn manager over its SM + journal.
struct Txns {
  VirtualSubnet s;
  sm::TopologyTxnManager topo;

  explicit Txns(core::LidScheme scheme = core::LidScheme::kDynamic)
      : s(VirtualSubnet::small(scheme)),
        topo(*s.sm, s.vsf->journal()) {
    s.vsf->boot();
  }
};

// ---------------------------------------------------------------------------
// Journal unit behavior.

TEST(TopologyRecord, LifecycleAndTruncation) {
  sm::ReconfigJournal journal;
  const auto id = journal.begin(
      sm::TopologyPayload{.op = sm::TopologyOp::kDetachSwitch,
                          .subject = 5,
                          .subject_lid = Lid{9},
                          .cables = {{5, 1, 6, 2}}});
  EXPECT_EQ(journal.in_flight(), 1u);
  ASSERT_NE(journal.find(id), nullptr);
  EXPECT_EQ(journal.find(id)->state, sm::RecordState::kInFlight);
  ASSERT_NE(journal.find(id)->topology(), nullptr);
  EXPECT_EQ(journal.find(id)->migration(), nullptr);
  EXPECT_FALSE(journal.find(id)->started);

  journal.record_started(id);
  EXPECT_TRUE(journal.find(id)->started);
  journal.record_deltas(
      id, {{.switch_node = 6, .lid = Lid{9}, .old_port = 2, .new_port = 0}});
  ASSERT_EQ(journal.find(id)->deltas.size(), 1u);
  EXPECT_EQ(journal.truncate_reconciled(), 0u);

  journal.commit(id);
  EXPECT_EQ(journal.in_flight(), 0u);
  EXPECT_EQ(journal.find(id)->state, sm::RecordState::kCommitted);

  EXPECT_EQ(journal.topology_records().size(), 1u);
  EXPECT_TRUE(journal.records().empty());
  EXPECT_EQ(journal.truncate_reconciled(), 1u);
  EXPECT_EQ(journal.find(id), nullptr);
}

// ---------------------------------------------------------------------------
// Validation: every malformed delta fails up front with a typed code and
// leaves nothing in flight.

TEST(TopologyErrors, BeginValidates) {
  Txns t;
  Fabric& fabric = t.s.fabric;
  const NodeId spine = t.s.built.spines[0];
  const NodeId empty_leaf = t.s.built.leaves[3];

  // Attach: subject must be a fresh physical switch with sane cabling.
  EXPECT_EQ(thrown_code([&] { t.topo.begin_attach_switch(t.s.sm_node, {}); }),
            sm::TopologyErrc::kNotASwitch);
  EXPECT_EQ(thrown_code([&] { t.topo.begin_attach_switch(spine, {}); }),
            sm::TopologyErrc::kAlreadyCabled);
  const NodeId fresh = fabric.add_switch("fresh", 4);
  EXPECT_EQ(thrown_code([&] { t.topo.begin_attach_switch(fresh, {}); }),
            sm::TopologyErrc::kBadCable);
  // Peer port already taken.
  EXPECT_EQ(thrown_code([&] {
              t.topo.begin_attach_switch(
                  fresh, {{fresh, 1, spine,
                           uplink_port(fabric, spine, t.s.built.leaves[0])}});
            }),
            sm::TopologyErrc::kBadCable);
  // Duplicate subject port across two cables.
  const PortNum sp = *fabric.free_port(spine);
  EXPECT_EQ(thrown_code([&] {
              t.topo.begin_attach_switch(
                  fresh, {{fresh, 1, spine, sp}, {fresh, 1, spine, sp}});
            }),
            sm::TopologyErrc::kBadCable);

  // Detach: SM-severing and undrained subjects are refused.
  EXPECT_EQ(thrown_code([&] { t.topo.begin_detach_switch(fresh); }),
            sm::TopologyErrc::kNotCabled);
  const auto sm_leaf = fabric.physical_attachment(t.s.sm_node);
  ASSERT_TRUE(sm_leaf.has_value());
  EXPECT_EQ(thrown_code([&] { t.topo.begin_detach_switch(sm_leaf->first); }),
            sm::TopologyErrc::kWouldSeverSm);
  EXPECT_EQ(thrown_code([&] { t.topo.begin_detach_switch(t.s.built.leaves[0]); }),
            sm::TopologyErrc::kNotDrained);

  // Links: both ends must be free inter-switch ports; a cable must exist.
  EXPECT_EQ(thrown_code([&] {
              t.topo.begin_add_link(
                  {empty_leaf, uplink_port(fabric, empty_leaf, spine), spine,
                   sp});
            }),
            sm::TopologyErrc::kBadCable);
  EXPECT_EQ(thrown_code([&] {
              t.topo.begin_remove_link(empty_leaf, *fabric.free_port(empty_leaf));
            }),
            sm::TopologyErrc::kNotCabled);

  EXPECT_EQ(t.s.vsf->journal().in_flight(), 0u);
}

// ---------------------------------------------------------------------------
// Happy paths: attach, detach, add/remove link all commit checker-clean.

TEST(TopologyTxn, AttachSwitchCommitsCheckerClean) {
  Txns t;
  Fabric& fabric = t.s.fabric;
  const NodeId s0 = t.s.built.spines[0];
  const NodeId s1 = t.s.built.spines[1];
  const NodeId sw = fabric.add_switch("new-leaf", 8);

  const auto txn = t.topo.attach_switch(
      sw, {{sw, 1, s0, *fabric.free_port(s0)},
           {sw, 2, s1, *fabric.free_port(s1)}});

  EXPECT_EQ(txn.state, sm::TopologyTxnState::kCommitted);
  EXPECT_TRUE(txn.subject_lid.valid());
  EXPECT_TRUE(t.s.sm->lids().assigned(txn.subject_lid));
  EXPECT_EQ(t.s.sm->lids().owner(txn.subject_lid).node, sw);
  EXPECT_EQ(txn.stats.addressing_smps, 1u);
  EXPECT_GT(txn.stats.lft_smps, 0u);
  EXPECT_TRUE(txn.stats.verify.converged);
  // The verification tail found nothing left to send: the minimal plan was
  // already complete.
  EXPECT_EQ(txn.stats.verify.smps, 0u);
  EXPECT_TRUE(t.s.sm->transport().hops_to(sw).has_value());
  EXPECT_EQ(t.s.vsf->journal().in_flight(), 0u);

  const inject::FabricChecker checker(*t.s.sm);
  EXPECT_TRUE(checker.check(t.s.vsf.get()).clean());
}

TEST(TopologyTxn, DetachEmptyLeafCommitsAndReleasesLid) {
  Txns t;
  const NodeId leaf = t.s.built.leaves[3];  // hosts no hypervisors or SM
  const Lid leaf_lid = t.s.fabric.node(leaf).lid();
  ASSERT_TRUE(leaf_lid.valid());

  const auto txn = t.topo.detach_switch(leaf);
  EXPECT_EQ(txn.state, sm::TopologyTxnState::kCommitted);
  EXPECT_FALSE(t.s.sm->lids().assigned(leaf_lid));
  EXPECT_TRUE(t.s.fabric.cables_of(leaf).empty());
  EXPECT_GT(txn.stats.lft_smps, 0u);
  EXPECT_TRUE(txn.stats.verify.converged);
  EXPECT_EQ(t.s.vsf->journal().in_flight(), 0u);

  const inject::FabricChecker checker(*t.s.sm);
  EXPECT_TRUE(checker.check(t.s.vsf.get()).clean());
}

TEST(TopologyTxn, AddAndRemoveLinkRoundTrip) {
  Txns t;
  Fabric& fabric = t.s.fabric;
  const NodeId leaf = t.s.built.leaves[0];
  const NodeId spine = t.s.built.spines[0];

  // A second parallel leaf-spine cable: pure capacity, no repair needed.
  const CableSpec extra{leaf, *fabric.free_port(leaf), spine,
                        *fabric.free_port(spine)};
  const auto added = t.topo.add_link(extra);
  EXPECT_EQ(added.state, sm::TopologyTxnState::kCommitted);
  EXPECT_EQ(added.stats.lft_smps, 0u);

  // Removing it again: no master entry ever used it, still zero repair.
  const auto removed = t.topo.remove_link(extra.a, extra.port_a);
  EXPECT_EQ(removed.state, sm::TopologyTxnState::kCommitted);
  EXPECT_EQ(removed.stats.lft_smps, 0u);
  EXPECT_FALSE(fabric.peer(extra.a, extra.port_a).has_value());

  // Removing an original uplink forces real re-routing via the other spine.
  const auto rerouted =
      t.topo.remove_link(leaf, uplink_port(fabric, leaf, spine));
  EXPECT_EQ(rerouted.state, sm::TopologyTxnState::kCommitted);
  EXPECT_GT(rerouted.stats.lft_smps, 0u);
  EXPECT_GT(rerouted.stats.lids_rerouted, 0u);
  EXPECT_TRUE(rerouted.stats.verify.converged);

  const inject::FabricChecker checker(*t.s.sm);
  EXPECT_TRUE(checker.check(t.s.vsf.get()).clean());
}

// ---------------------------------------------------------------------------
// Rollback byte-accuracy and the bridge guard.

TEST(TopologyTxn, RollbackIsByteIdentical) {
  Txns t;
  Fabric& fabric = t.s.fabric;
  const std::size_t switches_before = fabric.switch_ids().size();
  const auto lfts_before = installed_lfts(fabric);
  const auto top_lid_before = t.s.sm->lids().top_lid();

  const NodeId sw = fabric.add_switch("doomed", 8);
  const NodeId s0 = t.s.built.spines[0];
  auto txn = t.topo.begin_attach_switch(sw, {{sw, 1, s0, *fabric.free_port(s0)}});
  t.topo.txn_mutate(txn);
  t.topo.txn_reroute(txn);
  ASSERT_EQ(txn.state, sm::TopologyTxnState::kRerouted);
  ASSERT_TRUE(t.s.sm->lids().assigned(txn.subject_lid));

  t.topo.txn_rollback(txn);
  EXPECT_EQ(txn.state, sm::TopologyTxnState::kRolledBack);
  EXPECT_TRUE(fabric.cables_of(sw).empty());
  EXPECT_FALSE(t.s.sm->lids().assigned(txn.subject_lid));
  EXPECT_EQ(t.s.sm->lids().top_lid(), top_lid_before);
  EXPECT_EQ(t.s.vsf->journal().in_flight(), 0u);
  ASSERT_NE(t.s.vsf->journal().find(txn.id), nullptr);
  EXPECT_EQ(t.s.vsf->journal().find(txn.id)->state,
            sm::RecordState::kRolledBack);

  // Every pre-existing switch's installed table is back to the exact
  // pre-transaction bytes.
  const auto lfts_after = installed_lfts(fabric);
  for (std::size_t i = 0; i < switches_before; ++i) {
    EXPECT_EQ(lfts_after[i], lfts_before[i]) << "switch index " << i;
  }
  const inject::FabricChecker checker(*t.s.sm);
  EXPECT_TRUE(checker.check(t.s.vsf.get()).clean());
}

TEST(TopologyTxn, BridgeRemovalFailsAndRollsBack) {
  Txns t;
  Fabric& fabric = t.s.fabric;
  const NodeId s0 = t.s.built.spines[0];
  const NodeId sw = fabric.add_switch("stub", 4);
  const PortNum sp = *fabric.free_port(s0);
  ASSERT_EQ(t.topo.attach_switch(sw, {{sw, 1, s0, sp}}).state,
            sm::TopologyTxnState::kCommitted);
  const auto lfts_before = installed_lfts(fabric);

  // The stub's single cable is a bridge: removing it would sever a routed
  // switch, so the transaction must fail kRerouteFailed and restore it.
  EXPECT_EQ(thrown_code([&] { t.topo.remove_link(s0, sp); }),
            sm::TopologyErrc::kRerouteFailed);
  ASSERT_TRUE(fabric.peer(s0, sp).has_value());
  EXPECT_EQ(fabric.peer(s0, sp)->first, sw);
  EXPECT_EQ(t.s.vsf->journal().in_flight(), 0u);
  EXPECT_EQ(installed_lfts(fabric), lfts_before);

  const inject::FabricChecker checker(*t.s.sm);
  EXPECT_TRUE(checker.check(t.s.vsf.get()).clean());
}

// ---------------------------------------------------------------------------
// Journal recovery, same-SM: both roll directions of a detach.

TEST(TopologyJournalRecovery, DetachRollsBackWhenNothingJournaled) {
  Txns t;
  const NodeId leaf = t.s.built.leaves[3];
  const Lid leaf_lid = t.s.fabric.node(leaf).lid();
  const std::size_t cables_before = t.s.fabric.cables_of(leaf).size();
  const auto lfts_before = installed_lfts(t.s.fabric);

  auto txn = t.topo.begin_detach_switch(leaf);
  t.topo.txn_mutate(txn);
  // The master dies here: cabling severed, no deltas journaled. Recovery
  // must roll back — re-plug the exact cables and re-route nothing.
  const auto rec = t.s.vsf->journal().recover(*t.s.sm);
  EXPECT_EQ(rec.in_flight, 1u);
  EXPECT_EQ(rec.rolled_back, 1u);
  EXPECT_EQ(rec.rolled_forward, 0u);
  EXPECT_TRUE(rec.redistribution.converged);

  EXPECT_EQ(t.s.fabric.cables_of(leaf).size(), cables_before);
  EXPECT_TRUE(t.s.sm->lids().assigned(leaf_lid));
  EXPECT_EQ(installed_lfts(t.s.fabric), lfts_before);
  EXPECT_EQ(t.s.vsf->journal().in_flight(), 0u);
  const inject::FabricChecker checker(*t.s.sm);
  EXPECT_TRUE(checker.check(t.s.vsf.get()).clean());

  // Idempotent: a second recovery finds nothing and sends nothing.
  const auto again = t.s.vsf->journal().recover(*t.s.sm);
  EXPECT_EQ(again.in_flight, 0u);
  EXPECT_EQ(again.redistribution.smps, 0u);
}

TEST(TopologyJournalRecovery, DetachRollsForwardAfterDeltasJournaled) {
  Txns t;
  const NodeId leaf = t.s.built.leaves[3];
  const Lid leaf_lid = t.s.fabric.node(leaf).lid();

  auto txn = t.topo.begin_detach_switch(leaf);
  t.topo.txn_mutate(txn);
  // Die mid-apply: the full delta plan reached the journal before the first
  // LFT SMP, so recovery must finish the detach, not resurrect the switch.
  EXPECT_EQ(thrown_code([&] {
              t.topo.txn_reroute(txn, {.abort_after_smps = 1});
            }),
            sm::TopologyErrc::kInterrupted);
  ASSERT_EQ(t.s.vsf->journal().in_flight(), 1u);

  const auto rec = t.s.vsf->journal().recover(*t.s.sm);
  EXPECT_EQ(rec.rolled_forward, 1u);
  EXPECT_EQ(rec.rolled_back, 0u);
  EXPECT_TRUE(rec.redistribution.converged);

  EXPECT_TRUE(t.s.fabric.cables_of(leaf).empty());
  EXPECT_FALSE(t.s.sm->lids().assigned(leaf_lid));
  EXPECT_EQ(t.s.vsf->journal().in_flight(), 0u);
  const inject::FabricChecker checker(*t.s.sm);
  EXPECT_TRUE(checker.check(t.s.vsf.get()).clean());
}

// ---------------------------------------------------------------------------
// Journal recovery across SM failover: the standby's takeover sweep sees
// the half-mutated fabric, then its journal replay must still converge to a
// checker-clean outcome in BOTH roll directions.

/// Election fixture: a standby SM CA on the last free host slot, the
/// vSwitch fabric booted through the elected master, and a txn manager
/// bound to that master + the shared journal.
struct FailoverFixture {
  VirtualSubnet s;
  NodeId standby;
  sm::SmElection election;
  core::VSwitchFabric vsf;

  FailoverFixture()
      : s(VirtualSubnet::small(core::LidScheme::kPrepopulated)),
        standby([&] {
          const auto& slot = s.built.host_slots[9];
          const NodeId id = s.fabric.add_ca("standby-sm");
          s.fabric.connect(id, 1, slot.leaf, slot.port);
          return id;
        }()),
        election(s.fabric, engine_factory()),
        vsf([&]() -> sm::SubnetManager& {
          election.add_candidate(s.sm_node, 9);
          election.add_candidate(standby, 5);
          election.elect();
          election.master_sweep();
          return *election.master_sm();
        }(), s.hyps, core::LidScheme::kPrepopulated) {
    election.attach_journal(&vsf.journal());
    vsf.boot();
  }
};

TEST(TopologyJournalRecovery, FailoverRollsDetachBack) {
  FailoverFixture f;
  const NodeId spine = f.s.built.spines[0];
  const Lid spine_lid = f.s.fabric.node(spine).lid();
  const std::size_t cables_before = f.s.fabric.cables_of(spine).size();
  sm::TopologyTxnManager topo(*f.election.master_sm(), f.vsf.journal());

  auto txn = topo.begin_detach_switch(spine);
  topo.txn_mutate(txn);
  // Master dies with the spine severed and nothing journaled beyond the
  // mutation mark. The standby's takeover sweep routes the fabric *without*
  // the spine; the journal replay must re-plug it and repair the routes the
  // sweep never computed.
  f.election.fail_candidate(0);
  const auto report = f.election.poll();
  ASSERT_TRUE(report.master.has_value());
  EXPECT_EQ(*report.master, 1u);
  EXPECT_EQ(report.journal_recovery.in_flight, 1u);
  EXPECT_EQ(report.journal_recovery.rolled_back, 1u);
  EXPECT_TRUE(report.journal_recovery.redistribution.converged);

  sm::SubnetManager& master = *f.election.master_sm();
  EXPECT_EQ(f.s.fabric.cables_of(spine).size(), cables_before);
  EXPECT_TRUE(master.lids().assigned(spine_lid));
  EXPECT_TRUE(master.transport().hops_to(spine).has_value());
  EXPECT_EQ(f.vsf.journal().in_flight(), 0u);

  const inject::FabricChecker checker(master);
  EXPECT_TRUE(checker.check(&f.vsf).clean());
}

TEST(TopologyJournalRecovery, FailoverRollsDetachForward) {
  FailoverFixture f;
  const NodeId spine = f.s.built.spines[0];
  const Lid spine_lid = f.s.fabric.node(spine).lid();
  sm::TopologyTxnManager topo(*f.election.master_sm(), f.vsf.journal());

  auto txn = topo.begin_detach_switch(spine);
  topo.txn_mutate(txn);
  EXPECT_EQ(thrown_code([&] {
              topo.txn_reroute(txn, {.abort_after_smps = 2});
            }),
            sm::TopologyErrc::kInterrupted);

  // Master dies mid-batch with the deltas journaled: the promoted standby
  // finishes the detach.
  f.election.fail_candidate(0);
  const auto report = f.election.poll();
  ASSERT_TRUE(report.master.has_value());
  EXPECT_EQ(report.journal_recovery.rolled_forward, 1u);
  EXPECT_TRUE(report.journal_recovery.redistribution.converged);

  sm::SubnetManager& master = *f.election.master_sm();
  EXPECT_TRUE(f.s.fabric.cables_of(spine).empty());
  EXPECT_FALSE(master.lids().assigned(spine_lid));
  EXPECT_EQ(f.vsf.journal().in_flight(), 0u);

  const inject::FabricChecker checker(master);
  EXPECT_TRUE(checker.check(&f.vsf).clean());
}

// ---------------------------------------------------------------------------
// The cloud layer's drain-first policy.

TEST(DrainAndDetach, EvacuatesResidentVmsThenDetaches) {
  auto s = VirtualSubnet::small(core::LidScheme::kDynamic);
  s.vsf->boot();
  cloud::CloudOrchestrator cloud(*s.vsf, cloud::Placement::kSpread);
  cloud.launch_vms(6);
  const NodeId leaf = s.built.leaves[0];

  const auto report = cloud::drain_and_detach(cloud, leaf);
  EXPECT_GE(report.vms_evacuated, 1u);
  EXPECT_EQ(report.detach.state, sm::TopologyTxnState::kCommitted);
  EXPECT_TRUE(s.fabric.cables_of(leaf).empty());
  for (std::size_t h = 0; h < s.hyps.size(); ++h) {
    if (s.hyps[h].leaf != leaf) continue;
    EXPECT_EQ(s.vsf->free_vf_count(h), s.hyps[h].vfs.size())
        << "hypervisor " << h << " still hosts VMs under the detached leaf";
  }
  EXPECT_EQ(s.vsf->journal().in_flight(), 0u);

  // The orphaned PF/vSwitch LIDs below the severed leaf count as detached,
  // not as violations.
  const inject::FabricChecker checker(*s.sm);
  const auto check = checker.check(s.vsf.get());
  EXPECT_TRUE(check.clean());
  EXPECT_GT(check.lids_skipped_detached, 0u);
}

// ---------------------------------------------------------------------------
// Chaos with topology faults: terminal outcomes, clean checker, and a
// seed-reproducible digest.

TEST(ChaosTopologyFaults, EveryDeltaTerminalAndReproducible) {
  std::uint64_t digests[2] = {0, 1};
  for (int run = 0; run < 2; ++run) {
    auto s = VirtualSubnet::small(core::LidScheme::kDynamic);
    s.vsf->boot();
    cloud::CloudOrchestrator cloud(*s.vsf, cloud::Placement::kSpread);
    cloud.launch_vms(s.hyps.size());
    inject::FaultInjector injector(s.fabric, /*seed=*/11);
    inject::ChaosConfig config;
    config.seed = 11;
    config.steps = 16;
    config.mad_faults.drop_probability = 0.02;
    config.weight_attach_switch = 3;
    config.weight_detach_switch = 3;
    config.weight_kill_switch_mid_attach = 2;
    config.weight_kill_master_mid_detach = 2;
    const auto report = inject::run_chaos(cloud, injector, config);

    EXPECT_EQ(report.checker_violations, 0u);
    EXPECT_TRUE(report.all_converged);
    // The topology events fired and every one of them ended terminal.
    EXPECT_GE(report.topology_commits + report.topology_rollbacks, 1u);
    EXPECT_EQ(s.vsf->journal().in_flight(), 0u);
    digests[run] = report.digest;
  }
  EXPECT_EQ(digests[0], digests[1]);
}

}  // namespace
}  // namespace ibvs
