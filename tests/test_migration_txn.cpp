// Transactional live migration: typed errors, rollback byte-accuracy, the
// write-ahead journal, crash-consistent SM failover, and the orchestrator's
// graceful-degradation policy.
//
// The contract under test: every migration ends kCommitted or kRolledBack —
// never in between — and an aborted migration leaves the forwarding state
// byte-identical to what it was before the transaction began, in both LID
// schemes. A master-SM death mid-LFT-batch is recovered by replaying the
// journal, and the replay's SMP stream is identical at 1 and 4 threads.
#include <gtest/gtest.h>

#include "cloud/orchestrator.hpp"
#include "core/migration_txn.hpp"
#include "inject/checker.hpp"
#include "inject/injector.hpp"
#include "sm/election.hpp"
#include "telemetry/metrics.hpp"
#include "tests/helpers.hpp"
#include "util/thread_pool.hpp"

namespace ibvs {
namespace {

using test::VirtualSubnet;

/// Installed forwarding state of every physical switch, in NodeId order.
std::vector<Lft> installed_lfts(Fabric& fabric) {
  std::vector<Lft> out;
  for (const NodeId sw : fabric.switch_ids()) out.push_back(fabric.node(sw).lft);
  return out;
}

/// Runs `fn`, which must throw MigrationError, and returns its code.
template <typename Fn>
core::MigrationErrc thrown_code(Fn&& fn) {
  try {
    fn();
  } catch (const core::MigrationError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected a MigrationError";
  return core::MigrationErrc::kUnknownVm;
}

struct ThreadGuard {
  explicit ThreadGuard(std::size_t threads) {
    ThreadPool::set_global_threads(threads);
  }
  ~ThreadGuard() { ThreadPool::set_global_threads(0); }
};

auto engine_factory() {
  return [] { return routing::make_engine(routing::EngineKind::kMinHop); };
}

// ---------------------------------------------------------------------------
// Journal unit behavior.

TEST(ReconfigJournal, RecordLifecycleAndTruncation) {
  sm::ReconfigJournal journal;
  sm::MigrationPayload payload;
  payload.vm_id = 7;
  payload.vm_lid = Lid{10};
  payload.src_vf = 1;
  payload.dst_vf = 2;
  const auto id = journal.begin(std::move(payload));
  EXPECT_EQ(journal.in_flight(), 1u);
  ASSERT_NE(journal.find(id), nullptr);
  EXPECT_EQ(journal.find(id)->state, sm::RecordState::kInFlight);
  ASSERT_NE(journal.find(id)->migration(), nullptr);
  EXPECT_EQ(journal.find(id)->migration()->vm_id, 7u);
  EXPECT_FALSE(journal.find(id)->started);

  journal.record_started(id);
  EXPECT_TRUE(journal.find(id)->started);

  journal.record_deltas(
      id, {{.switch_node = 3, .lid = Lid{5}, .old_port = 1, .new_port = 2}});
  ASSERT_EQ(journal.find(id)->deltas.size(), 1u);
  // Truncation never drops a record still in flight.
  EXPECT_EQ(journal.truncate_reconciled(), 0u);

  journal.commit(id);
  EXPECT_EQ(journal.in_flight(), 0u);
  EXPECT_EQ(journal.find(id)->state, sm::RecordState::kCommitted);

  // A commit on the transaction path is its own reconciliation.
  EXPECT_TRUE(journal.find(id)->reconciled);
  EXPECT_EQ(journal.truncate_reconciled(), 1u);
  EXPECT_EQ(journal.find(id), nullptr);
}

TEST(ReconfigJournal, RollBackMarksTerminal) {
  sm::ReconfigJournal journal;
  sm::MigrationPayload payload;
  payload.vm_lid = Lid{11};
  payload.src_vf = 1;
  payload.dst_vf = 2;
  const auto id = journal.begin(std::move(payload));
  journal.roll_back(id);
  EXPECT_EQ(journal.in_flight(), 0u);
  EXPECT_EQ(journal.find(id)->state, sm::RecordState::kRolledBack);
  EXPECT_TRUE(journal.find(id)->reconciled);
}

TEST(ReconfigJournal, DeltaInverseRoundTrips) {
  const sm::LftDelta delta{
      .switch_node = 9, .lid = Lid{44}, .old_port = 2, .new_port = 5};
  const auto inv = delta.inverse();
  EXPECT_EQ(inv.old_port, 5);
  EXPECT_EQ(inv.new_port, 2);
  EXPECT_EQ(inv.inverse().new_port, delta.new_port);
}

// ---------------------------------------------------------------------------
// Typed validation errors (the satellite bugfix: bad destinations and full
// hypervisors must fail up front, with a machine-readable code).

TEST(MigrationErrors, BeginMigrationValidates) {
  auto s = VirtualSubnet::small(core::LidScheme::kDynamic, /*num_hyps=*/4,
                                /*vfs=*/1);
  EXPECT_EQ(thrown_code([&] { s.vsf->begin_migration({1}, 1); }),
            core::MigrationErrc::kNotBooted);
  s.vsf->boot();
  const auto vm = s.vsf->create_vm(0);
  s.vsf->create_vm(1);  // hypervisor 1 is now full (1 VF)

  EXPECT_EQ(thrown_code([&] { s.vsf->begin_migration({9999}, 1); }),
            core::MigrationErrc::kUnknownVm);
  EXPECT_EQ(thrown_code([&] { s.vsf->begin_migration(vm.vm, 99); }),
            core::MigrationErrc::kBadDestination);
  EXPECT_EQ(thrown_code([&] { s.vsf->begin_migration(vm.vm, 0); }),
            core::MigrationErrc::kSameHypervisor);
  EXPECT_EQ(thrown_code([&] { s.vsf->begin_migration(vm.vm, 1); }),
            core::MigrationErrc::kNoFreeVf);
  // Validation sends nothing and journals nothing in flight.
  EXPECT_EQ(s.vsf->journal().in_flight(), 0u);
}

TEST(MigrationErrors, OrchestratorMigrateValidates) {
  auto s = VirtualSubnet::small(core::LidScheme::kDynamic, /*num_hyps=*/4,
                                /*vfs=*/1);
  s.vsf->boot();
  cloud::CloudOrchestrator cloud(*s.vsf, cloud::Placement::kFirstFit);
  const auto vms = cloud.launch_vms(2);  // fills hypervisors 0 and 1

  // Regression: these used to be an unchecked vector index / a generic
  // failure deep inside the flow.
  EXPECT_EQ(thrown_code([&] { cloud.migrate(vms[0], 99); }),
            core::MigrationErrc::kBadDestination);
  EXPECT_EQ(thrown_code([&] { cloud.migrate(vms[0], 1); }),
            core::MigrationErrc::kNoFreeVf);
  // Still a std::invalid_argument for callers that predate the typed code.
  EXPECT_THROW(cloud.migrate(vms[0], 99), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Rollback restores the exact pre-transaction bytes, both schemes.

class TxnRollback : public ::testing::TestWithParam<core::LidScheme> {};

TEST_P(TxnRollback, AbortedMigrationRestoresLftBytes) {
  auto s = VirtualSubnet::small(GetParam());
  s.vsf->boot();
  const auto vm = s.vsf->create_vm(0);
  s.vsf->create_vm(3);  // unrelated occupancy that must survive untouched

  const auto installed_before = installed_lfts(s.fabric);
  const auto master_before = s.sm->routing_result().lfts;
  const NodeId vf_before = s.vsf->vm_node(vm.vm);

  // Abort mid-batch: addresses moved, some LFT SMPs sent, then the
  // reconfiguration is cut short.
  auto txn = s.vsf->begin_migration(vm.vm, 3);
  s.vsf->txn_move_addresses(txn);
  EXPECT_EQ(thrown_code([&] {
              s.vsf->txn_apply_lfts(txn, {.abort_after_smps = 2});
            }),
            core::MigrationErrc::kInterrupted);
  s.vsf->txn_rollback(txn);

  EXPECT_EQ(txn.state, core::TxnState::kRolledBack);
  EXPECT_TRUE(txn.terminal());
  EXPECT_GE(txn.rollback_smps, 1u);
  // Byte-identical forwarding state, master and installed.
  EXPECT_EQ(s.sm->routing_result().lfts, master_before);
  EXPECT_EQ(installed_lfts(s.fabric), installed_before);
  // The VM runs at the source again, on the same VF.
  EXPECT_EQ(s.vsf->vm(vm.vm).hypervisor, 0u);
  EXPECT_EQ(s.vsf->vm_node(vm.vm), vf_before);
  // Journal record terminal; nothing in flight.
  EXPECT_EQ(s.vsf->journal().in_flight(), 0u);
  EXPECT_EQ(s.vsf->journal().find(txn.id)->state, sm::RecordState::kRolledBack);

  const inject::FabricChecker checker(*s.sm);
  EXPECT_TRUE(checker.check(s.vsf.get()).clean());
  // The fabric is fully usable: the same migration succeeds afterwards.
  const auto report = s.vsf->migrate_vm(vm.vm, 3);
  EXPECT_EQ(report.dst_hypervisor, 3u);
}

TEST_P(TxnRollback, FullyAppliedThenRolledBackRestoresLftBytes) {
  // Worst case for the inverse-delta path: every LFT update (drain pass
  // included) already went out before the abort decision.
  auto s = VirtualSubnet::small(GetParam());
  s.vsf->boot();
  const auto vm = s.vsf->create_vm(1);

  const auto installed_before = installed_lfts(s.fabric);
  const auto master_before = s.sm->routing_result().lfts;

  auto txn = s.vsf->begin_migration(vm.vm, 4, {.drain_first = true});
  s.vsf->txn_move_addresses(txn);
  s.vsf->txn_apply_lfts(txn);
  EXPECT_GE(txn.stats.lft_smps, 1u);
  s.vsf->txn_rollback(txn);

  EXPECT_EQ(s.sm->routing_result().lfts, master_before);
  EXPECT_EQ(installed_lfts(s.fabric), installed_before);
  EXPECT_EQ(s.vsf->vm(vm.vm).hypervisor, 1u);
  const inject::FabricChecker checker(*s.sm);
  EXPECT_TRUE(checker.check(s.vsf.get()).clean());
}

INSTANTIATE_TEST_SUITE_P(BothSchemes, TxnRollback,
                         ::testing::Values(core::LidScheme::kPrepopulated,
                                           core::LidScheme::kDynamic),
                         [](const auto& info) {
                           return info.param == core::LidScheme::kPrepopulated
                                      ? "Prepopulated"
                                      : "Dynamic";
                         });

TEST(TxnPhases, RollbackIncrementsTelemetry) {
  auto& reg = telemetry::Registry::global();
  auto& rolled_back =
      reg.counter("ibvs_migrations_total", {{"outcome", "rolled_back"}});
  auto& committed =
      reg.counter("ibvs_migrations_total", {{"outcome", "committed"}});
  const auto rb_before = rolled_back.value();
  const auto c_before = committed.value();

  auto s = VirtualSubnet::small(core::LidScheme::kDynamic);
  s.vsf->boot();
  const auto vm = s.vsf->create_vm(0);
  auto txn = s.vsf->begin_migration(vm.vm, 3);
  s.vsf->txn_move_addresses(txn);
  s.vsf->txn_apply_lfts(txn);
  s.vsf->txn_rollback(txn);
  EXPECT_EQ(rolled_back.value(), rb_before + 1);

  s.vsf->migrate_vm(vm.vm, 3);
  EXPECT_EQ(committed.value(), c_before + 1);
}

TEST(TxnPhases, SwitchUnreachableAbortsAndRollsBack) {
  // A switch in the update set becomes SM-unreachable mid-transaction: with
  // require_reachable the apply must throw kSwitchUnreachable instead of
  // sending into the void, and the rollback must restore the master tables.
  auto s = VirtualSubnet::small(core::LidScheme::kDynamic);
  s.vsf->boot();
  const auto vm = s.vsf->create_vm(0);
  const auto master_before = s.sm->routing_result().lfts;

  // Directed SMPs so the address restores stay deliverable around the hole.
  auto txn = s.vsf->begin_migration(vm.vm, 3,
                                    {.smp_routing = SmpRouting::kDirected});
  s.vsf->txn_move_addresses(txn);

  inject::FaultInjector injector(s.fabric, /*seed=*/1);
  injector.attach_transport(&s.sm->transport());  // hop cache invalidation
  const NodeId spine = s.built.spines.front();
  injector.kill_node(spine);
  EXPECT_EQ(thrown_code([&] {
              s.vsf->txn_apply_lfts(txn, {.require_reachable = true});
            }),
            core::MigrationErrc::kSwitchUnreachable);
  s.vsf->txn_rollback(txn);

  EXPECT_EQ(txn.state, core::TxnState::kRolledBack);
  EXPECT_EQ(s.sm->routing_result().lfts, master_before);
  EXPECT_EQ(s.vsf->vm(vm.vm).hypervisor, 0u);

  // Heal the fabric and prove it consistent end to end.
  injector.revive_node(spine);
  s.sm->reconverge();
  const inject::FabricChecker checker(*s.sm);
  EXPECT_TRUE(checker.check(s.vsf.get()).clean());
}

// ---------------------------------------------------------------------------
// Orchestrator policy: timeouts, destination death, re-placement.

TEST(MigrateTxn, CommitsOnTheHappyPath) {
  auto s = VirtualSubnet::small(core::LidScheme::kPrepopulated);
  s.vsf->boot();
  cloud::CloudOrchestrator cloud(*s.vsf, cloud::Placement::kFirstFit);
  const auto vms = cloud.launch_vms(2);

  const auto report = cloud.migrate_txn(vms[0], 5);
  EXPECT_EQ(report.outcome, cloud::TxnOutcome::kCommitted);
  EXPECT_EQ(report.attempts, 1u);
  EXPECT_EQ(report.dst_hypervisor, 5u);
  EXPECT_FALSE(report.replaced);
  EXPECT_TRUE(report.error.empty());
  EXPECT_EQ(s.vsf->vm(vms[0]).hypervisor, 5u);
  EXPECT_EQ(s.vsf->journal().in_flight(), 0u);
}

TEST(MigrateTxn, StepTimeoutRollsBack) {
  auto s = VirtualSubnet::small(core::LidScheme::kDynamic);
  s.vsf->boot();
  cloud::CloudOrchestrator cloud(*s.vsf, cloud::Placement::kFirstFit);
  const auto vms = cloud.launch_vms(1);
  const auto installed_before = installed_lfts(s.fabric);

  cloud::TxnPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_base_s = 0.0;
  policy.reconfig_timeout_us = 1e-6;  // impossible budget: every attempt aborts
  const auto report = cloud.migrate_txn(vms[0], 4, {}, policy);

  EXPECT_EQ(report.outcome, cloud::TxnOutcome::kRolledBack);
  EXPECT_EQ(report.attempts, 2u);
  EXPECT_NE(report.error.find("step-timeout"), std::string::npos);
  EXPECT_EQ(s.vsf->vm(vms[0]).hypervisor, 0u);
  EXPECT_EQ(installed_lfts(s.fabric), installed_before);
  EXPECT_EQ(s.vsf->journal().in_flight(), 0u);
  const inject::FabricChecker checker(*s.sm);
  EXPECT_TRUE(checker.check(s.vsf.get()).clean());
}

TEST(MigrateTxn, DeadDestinationIsReplaced) {
  auto s = VirtualSubnet::small(core::LidScheme::kDynamic);
  s.vsf->boot();
  cloud::CloudOrchestrator cloud(*s.vsf, cloud::Placement::kFirstFit);
  const auto vms = cloud.launch_vms(1);

  inject::FaultInjector injector(s.fabric, /*seed=*/3);
  const std::size_t dst = 4;
  bool killed = false;
  cloud::TxnPolicy policy;
  policy.backoff_base_s = 0.0;
  policy.on_step = [&](core::TxnState state, const core::MigrationTxn& txn) {
    if (killed || state != core::TxnState::kCopied) return;
    if (txn.dst_hypervisor != dst) return;
    injector.kill_node(s.hyps[dst].vswitch);
    killed = true;
  };
  const auto report = cloud.migrate_txn(vms[0], dst, {}, policy);

  EXPECT_TRUE(killed);
  EXPECT_EQ(report.outcome, cloud::TxnOutcome::kCommitted);
  EXPECT_TRUE(report.replaced);
  EXPECT_NE(report.dst_hypervisor, dst);
  EXPECT_GE(report.attempts, 2u);
  EXPECT_EQ(s.vsf->vm(vms[0]).hypervisor, report.dst_hypervisor);
  EXPECT_EQ(s.vsf->journal().in_flight(), 0u);
}

TEST(MigrateTxn, DeadDestinationWithoutReplacementRollsBack) {
  auto s = VirtualSubnet::small(core::LidScheme::kDynamic);
  s.vsf->boot();
  cloud::CloudOrchestrator cloud(*s.vsf, cloud::Placement::kFirstFit);
  const auto vms = cloud.launch_vms(1);
  const auto installed_before = installed_lfts(s.fabric);

  inject::FaultInjector injector(s.fabric, /*seed=*/3);
  const std::size_t dst = 4;
  bool killed = false;
  cloud::TxnPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_base_s = 0.0;
  policy.allow_replacement = false;
  policy.on_step = [&](core::TxnState state, const core::MigrationTxn&) {
    if (killed || state != core::TxnState::kCopied) return;
    injector.kill_node(s.hyps[dst].vswitch);
    killed = true;
  };
  const auto report = cloud.migrate_txn(vms[0], dst, {}, policy);

  EXPECT_EQ(report.outcome, cloud::TxnOutcome::kRolledBack);
  EXPECT_NE(report.error.find("destination-detached"), std::string::npos);
  EXPECT_EQ(s.vsf->vm(vms[0]).hypervisor, 0u);
  EXPECT_EQ(installed_lfts(s.fabric), installed_before);
}

TEST(MigrateTxn, DestinationDyingAfterTheAddressMoveRollsBack) {
  // The destination dies between the address move and the LFT update: the
  // apply step must fail typed and roll back, not trip an invariant.
  auto s = VirtualSubnet::small(core::LidScheme::kDynamic);
  s.vsf->boot();
  cloud::CloudOrchestrator cloud(*s.vsf, cloud::Placement::kFirstFit);
  const auto vms = cloud.launch_vms(1);
  const auto installed_before = installed_lfts(s.fabric);

  inject::FaultInjector injector(s.fabric, /*seed=*/3);
  const std::size_t dst = 4;
  cloud::TxnPolicy policy;
  policy.max_attempts = 1;
  policy.backoff_base_s = 0.0;
  policy.allow_replacement = false;
  policy.on_step = [&](core::TxnState state, const core::MigrationTxn&) {
    if (state == core::TxnState::kReconfiguring) {
      injector.kill_node(s.hyps[dst].vswitch);
    }
  };
  const auto report = cloud.migrate_txn(vms[0], dst, {}, policy);
  injector.revive_node(s.hyps[dst].vswitch);

  EXPECT_EQ(report.outcome, cloud::TxnOutcome::kRolledBack);
  EXPECT_NE(report.error.find("destination-detached"), std::string::npos);
  EXPECT_EQ(s.vsf->vm(vms[0]).hypervisor, 0u);
  EXPECT_EQ(installed_lfts(s.fabric), installed_before);
  EXPECT_EQ(s.vsf->journal().in_flight(), 0u);
  const inject::FabricChecker checker(*s.sm);
  EXPECT_TRUE(checker.check(s.vsf.get()).clean());
}

// ---------------------------------------------------------------------------
// Crash-consistent recovery: journal replay after a master death.

TEST(JournalRecovery, RedistributionLeavesNoDirtyBlocks) {
  // recover() replays the record into the master tables only, marking
  // blocks dirty; the redistribution that installs them must clear the
  // marks, or the next transaction's push resends blocks the switch holds.
  auto s = VirtualSubnet::small(core::LidScheme::kDynamic);
  s.vsf->boot();
  const auto vm = s.vsf->create_vm(0);
  auto txn = s.vsf->begin_migration(vm.vm, 3);
  s.vsf->txn_move_addresses(txn);
  EXPECT_EQ(thrown_code([&] {
              s.vsf->txn_apply_lfts(txn, {.abort_after_smps = 1});
            }),
            core::MigrationErrc::kInterrupted);
  const auto rec = s.vsf->journal().recover(*s.sm);
  EXPECT_TRUE(rec.redistribution.converged);

  const auto& lfts = s.sm->routing_result().lfts;
  std::uint64_t resent = 0;
  for (routing::SwitchIdx sw = 0; sw < lfts.size(); ++sw) {
    EXPECT_TRUE(lfts[sw].dirty_blocks().empty()) << "switch " << sw;
    resent += s.sm->push_dirty_blocks(sw, SmpRouting::kLidRouted);
  }
  EXPECT_EQ(resent, 0u);
}

TEST(JournalRecovery, ReplayCompletesInterruptedMigration) {
  for (const auto scheme :
       {core::LidScheme::kPrepopulated, core::LidScheme::kDynamic}) {
    auto s = VirtualSubnet::small(scheme);
    s.vsf->boot();
    const auto vm = s.vsf->create_vm(0);

    auto txn = s.vsf->begin_migration(vm.vm, 3);
    s.vsf->txn_move_addresses(txn);
    EXPECT_EQ(thrown_code([&] {
                s.vsf->txn_apply_lfts(txn, {.abort_after_smps = 2});
              }),
              core::MigrationErrc::kInterrupted);
    ASSERT_EQ(s.vsf->journal().in_flight(), 1u);

    // Addresses moved + deltas journaled + destination reachable: the
    // recovery decision is roll-forward, and it must leave the fabric as if
    // the batch had never been interrupted.
    const auto rec = s.vsf->journal().recover(*s.sm);
    EXPECT_EQ(rec.in_flight, 1u);
    EXPECT_EQ(rec.rolled_forward, 1u);
    EXPECT_EQ(rec.rolled_back, 0u);
    EXPECT_TRUE(rec.redistribution.converged);

    const auto rr = s.vsf->reconcile_with_journal();
    EXPECT_EQ(rr.committed, 1u);
    EXPECT_EQ(s.vsf->vm(vm.vm).hypervisor, 3u);
    const inject::FabricChecker checker(*s.sm);
    EXPECT_TRUE(checker.check(s.vsf.get()).clean());

    // Idempotent: a second recovery finds nothing and sends nothing.
    const auto again = s.vsf->journal().recover(*s.sm);
    EXPECT_EQ(again.in_flight, 0u);
    EXPECT_EQ(again.redistribution.smps, 0u);
  }
}

TEST(JournalRecovery, ReplayRollsBackWhenAddressesNeverMoved) {
  // Interrupted before step (a): nothing reached the fabric, so recovery
  // must choose rollback and restore the source attachment.
  auto s = VirtualSubnet::small(core::LidScheme::kDynamic);
  s.vsf->boot();
  const auto vm = s.vsf->create_vm(0);

  auto txn = s.vsf->begin_migration(vm.vm, 3);
  ASSERT_EQ(s.vsf->journal().in_flight(), 1u);
  // The transaction is abandoned here (orchestrator crash before step a).

  const auto rec = s.vsf->journal().recover(*s.sm);
  EXPECT_EQ(rec.in_flight, 1u);
  EXPECT_EQ(rec.rolled_back, 1u);
  const auto rr = s.vsf->reconcile_with_journal();
  EXPECT_EQ(rr.rolled_back, 1u);
  EXPECT_EQ(s.vsf->vm(vm.vm).hypervisor, 0u);
  const inject::FabricChecker checker(*s.sm);
  EXPECT_TRUE(checker.check(s.vsf.get()).clean());
  (void)txn;
}

TEST(JournalRecovery, MasterDeathMidBatchFailsOverViaElection) {
  // The full §IV story: two SM candidates, the master dies with an LFT
  // batch half-sent, the standby promoted by SmElection replays the journal
  // right after its takeover sweep, and the vSwitch layer reconciles its
  // bookkeeping with the recovered outcome.
  auto s = VirtualSubnet::small(core::LidScheme::kPrepopulated);
  const auto& slot = s.built.host_slots[9];
  const NodeId standby = s.fabric.add_ca("standby-sm");
  s.fabric.connect(standby, 1, slot.leaf, slot.port);

  sm::SmElection election(s.fabric, engine_factory());
  election.add_candidate(s.sm_node, 9);
  election.add_candidate(standby, 5);
  election.elect();
  election.master_sweep();

  core::VSwitchFabric vsf(*election.master_sm(), s.hyps,
                          core::LidScheme::kPrepopulated);
  election.attach_journal(&vsf.journal());
  vsf.boot();
  const auto vm = vsf.create_vm(0);

  auto txn = vsf.begin_migration(vm.vm, 3);
  vsf.txn_move_addresses(txn);
  EXPECT_EQ(thrown_code([&] {
              vsf.txn_apply_lfts(txn, {.abort_after_smps = 1});
            }),
            core::MigrationErrc::kInterrupted);

  // The master dies mid-batch; a poll elects the standby, which sweeps and
  // replays the in-flight record.
  election.fail_candidate(0);
  const auto report = election.poll();
  ASSERT_TRUE(report.master.has_value());
  EXPECT_EQ(*report.master, 1u);
  EXPECT_EQ(report.journal_recovery.in_flight, 1u);
  EXPECT_EQ(report.journal_recovery.rolled_forward, 1u);

  vsf.adopt_subnet_manager(*election.master_sm());
  const auto rr = vsf.reconcile_with_journal();
  EXPECT_EQ(rr.committed, 1u);
  EXPECT_EQ(vsf.vm(vm.vm).hypervisor, 3u);
  EXPECT_EQ(vsf.journal().in_flight(), 0u);

  const inject::FabricChecker checker(*election.master_sm());
  EXPECT_TRUE(checker.check(&vsf).clean());
}

TEST(JournalRecovery, FailoverRollsBackAMigrationCrashedAfterTheAddressMove) {
  // The master dies right after the address move, before any delta is
  // journaled. The standby's takeover sweep routes the VM's LID to the
  // destination, where it finds it; the roll-back moves the LID back to
  // the source, so its column must follow it there.
  auto s = VirtualSubnet::small(core::LidScheme::kDynamic);
  const auto& slot = s.built.host_slots[9];
  const NodeId standby = s.fabric.add_ca("standby-sm");
  s.fabric.connect(standby, 1, slot.leaf, slot.port);

  sm::SmElection election(s.fabric, engine_factory());
  election.add_candidate(s.sm_node, 9);
  election.add_candidate(standby, 5);
  election.elect();
  election.master_sweep();
  core::VSwitchFabric vsf(*election.master_sm(), s.hyps,
                          core::LidScheme::kDynamic);
  election.attach_journal(&vsf.journal());
  vsf.boot();
  const auto vm = vsf.create_vm(0);

  auto txn = vsf.begin_migration(vm.vm, 3);
  vsf.txn_move_addresses(txn);
  election.fail_candidate(0);
  const auto report = election.poll();
  EXPECT_EQ(report.journal_recovery.rolled_back, 1u);

  vsf.adopt_subnet_manager(*election.master_sm());
  EXPECT_EQ(vsf.reconcile_with_journal().rolled_back, 1u);
  EXPECT_EQ(vsf.vm(vm.vm).hypervisor, 0u);
  const inject::FabricChecker checker(*election.master_sm());
  const auto check = checker.check(&vsf);
  EXPECT_TRUE(check.clean()) << check.violations.front();
}

TEST(JournalRecovery, ReplayStreamMatchesSingleThreaded) {
  // The determinism contract extends to recovery: the journal replay's SMP
  // stream (order included) is identical at 1 and 4 threads.
  std::vector<Smp> streams[2];
  for (int run = 0; run < 2; ++run) {
    ThreadGuard guard(run == 0 ? 1 : 4);
    auto s = VirtualSubnet::small(core::LidScheme::kDynamic);
    s.vsf->boot();
    const auto vm = s.vsf->create_vm(0);
    auto txn = s.vsf->begin_migration(vm.vm, 3);
    s.vsf->txn_move_addresses(txn);
    try {
      s.vsf->txn_apply_lfts(txn, {.abort_after_smps = 2});
      FAIL() << "apply was not interrupted";
    } catch (const core::MigrationError& e) {
      EXPECT_EQ(e.code(), core::MigrationErrc::kInterrupted);
    }
    s.sm->transport().set_smp_tap(&streams[run]);
    const auto rec = s.vsf->journal().recover(*s.sm);
    s.sm->transport().set_smp_tap(nullptr);
    EXPECT_EQ(rec.rolled_forward, 1u);
    EXPECT_EQ(s.vsf->reconcile_with_journal().committed, 1u);
    EXPECT_EQ(s.vsf->vm(vm.vm).hypervisor, 3u);
  }
  ASSERT_FALSE(streams[0].empty());
  EXPECT_EQ(streams[0], streams[1]);
}

}  // namespace
}  // namespace ibvs
