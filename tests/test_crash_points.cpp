// Every crash point of every reconfiguration transaction kind, enumerated.
//
// The paper's migration (§V-C, Algorithm 1), its §VI-C drained variant and
// the topology deltas all rest on one promise: a master SM that dies
// anywhere inside a transaction leaves the fabric recoverable to exactly
// one terminal state. This suite does not sample crash points; it tries
// each one. On a 6-switch ring and on the paper's 324-node fat-tree, for
// migrations (both LID schemes, with and without the drain), destination
// swaps, switch attach and detach, and link add and remove, the master dies
//   - right after the transaction opened its journal record,
//   - right after the address move or the cabling mutation, and
//   - after SMP k of the apply stream, for every k = 1..N,
// and every crash point recovers three ways: the surviving SM replays its
// journal at 0% and at 2% MAD loss, or a standby promoted by SmElection
// takes over. Subject deaths are swept the same way: the destination's
// vSwitch dies at every state of migrate_txn/swap_txn, and an attach
// subject dies between the mutation and the re-route or at any apply SMP.
//
// Every run must end with nothing in flight, converged tables and a clean
// FabricChecker. An in-place roll-back restores the pre-transaction master
// and installed tables and LID owners byte for byte; an in-place
// roll-forward equals the same transaction run to commit on an identically
// built subnet, and at 0% loss its LFT SMPs stay within the uninterrupted
// transaction's. A standby recomputes routes in its takeover sweep, so a
// failover roll-forward must equal the committed transaction taken over by
// the same standby plus the journaled delta set.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloud/orchestrator.hpp"
#include "core/migration_txn.hpp"
#include "inject/checker.hpp"
#include "inject/injector.hpp"
#include "sm/delta_txn.hpp"
#include "sm/election.hpp"
#include "sm/topology_txn.hpp"
#include "topology/fat_tree.hpp"
#include "topology/irregular.hpp"

namespace ibvs {
namespace {

enum class Net : std::uint8_t { kRing, kTree324 };

enum class Kind : std::uint8_t {
  kMigrateDynamic,
  kMigrateDynamicDrain,
  kMigratePrepopulated,
  kMigratePrepopulatedDrain,
  kSwap,
  kAttach,
  kDetach,
  kAddLink,
  kRemoveLink,
};

struct Case {
  Net net;
  Kind kind;
};

std::string name(const Case& c) {
  static const char* const kinds[] = {
      "migrate_dynamic",       "migrate_dynamic_drain",
      "migrate_prepopulated",  "migrate_prepopulated_drain",
      "swap",                  "attach",
      "detach",                "add_link",
      "remove_link"};
  return std::string(c.net == Net::kRing ? "ring_" : "tree324_") +
         kinds[static_cast<int>(c.kind)];
}

bool is_migration(Kind kind) { return kind <= Kind::kSwap; }

core::LidScheme scheme_of(Kind kind) {
  return kind == Kind::kMigratePrepopulated ||
                 kind == Kind::kMigratePrepopulatedDrain
             ? core::LidScheme::kPrepopulated
             : core::LidScheme::kDynamic;
}

enum class Recovery : std::uint8_t { kInPlace, kInPlaceLossy, kFailover };

const char* to_string(Recovery how) {
  switch (how) {
    case Recovery::kInPlace:
      return "in place";
    case Recovery::kInPlaceLossy:
      return "in place at 2% loss";
    case Recovery::kFailover:
      return "failover";
  }
  return "?";
}

/// Crash points: the record is open, the first side effect happened, or
/// k >= 1 SMPs of the apply stream went out.
constexpr int kOpened = -1;
constexpr int kStarted = 0;

/// A booted virtual subnet whose master SM won an election against one
/// standby, with a VM on the first and on the last hypervisor. Two builds of
/// the same net and scheme are identical, NodeIds and LIDs included.
struct World {
  Fabric fabric;
  topology::Built built;
  std::vector<core::VirtualHca> hyps;
  std::unique_ptr<sm::SmElection> election;
  std::unique_ptr<core::VSwitchFabric> vsf;
  std::vector<core::VmHandle> vms;

  World(Net net, core::LidScheme scheme) {
    std::vector<topology::HostSlot> slots;
    if (net == Net::kRing) {
      // Hypervisors on ring-0..2, the SM on ring-3, the standby on ring-4;
      // ring-5 hosts nothing.
      built = topology::build_ring(fabric, 6, 2, 8);
      slots = {built.host_slots.begin(), built.host_slots.begin() + 6};
      slots.push_back(built.host_slots[6]);
      slots.push_back(built.host_slots[8]);
    } else {
      // One hypervisor under each of leaves 0..15, the SM under leaf 16,
      // the standby under leaf 17.
      built = topology::build_paper_fat_tree(fabric,
                                             topology::PaperFatTree::k324);
      const std::size_t per_leaf =
          built.host_slots.size() / built.leaves.size();
      for (std::size_t leaf = 0; leaf < built.leaves.size(); ++leaf) {
        slots.push_back(built.host_slots[leaf * per_leaf]);
      }
    }
    const std::size_t num_hyps = slots.size() - 2;
    hyps = core::attach_hypervisors(fabric, slots, /*num_vfs=*/2, num_hyps);
    const NodeId master = add_ca("sm-node", slots[num_hyps]);
    const NodeId standby = add_ca("standby-sm", slots[num_hyps + 1]);
    election = std::make_unique<sm::SmElection>(fabric, [] {
      return routing::make_engine(routing::EngineKind::kMinHop);
    });
    election->add_candidate(master, 9);
    election->add_candidate(standby, 5);
    election->elect();
    election->master_sweep();
    vsf = std::make_unique<core::VSwitchFabric>(sm(), hyps, scheme);
    election->attach_journal(&vsf->journal());
    vsf->boot();
    vms.push_back(vsf->create_vm(0).vm);
    vms.push_back(vsf->create_vm(num_hyps - 1).vm);
  }

  sm::SubnetManager& sm() { return *election->master_sm(); }

  /// The master dies; a poll promotes the standby, which sweeps and replays
  /// the journal.
  sm::RecoveryReport fail_over() {
    election->fail_candidate(0);
    const auto report = election->poll();
    vsf->adopt_subnet_manager(sm());
    return report.journal_recovery;
  }

 private:
  NodeId add_ca(const char* ca_name, const topology::HostSlot& slot) {
    const NodeId id = fabric.add_ca(ca_name);
    fabric.connect(id, 1, slot.leaf, slot.port);
    return id;
  }
};

/// The port of `a` cabled to `b`.
PortNum port_toward(const Fabric& fabric, NodeId a, NodeId b) {
  const Node& n = fabric.node(a);
  for (PortNum p = 1; p <= n.num_ports(); ++p) {
    if (n.ports[p].connected() && n.ports[p].peer == b) return p;
  }
  ADD_FAILURE() << "no cable between " << a << " and " << b;
  return 0;
}

/// One transaction of the case's kind, driven phase by phase on the
/// world's current master.
class Txn {
 public:
  Txn(World& w, const Case& c) : w_(w), kind_(c.kind) {
    if (is_migration(kind_)) {
      const core::MigrationOptions options{
          .drain_first = kind_ == Kind::kMigrateDynamicDrain ||
                         kind_ == Kind::kMigratePrepopulatedDrain};
      migration_ = kind_ == Kind::kSwap
                       ? w.vsf->begin_swap(w.vms[0], w.vms[1], options)
                       : w.vsf->begin_migration(
                             w.vms[0], w.hyps.size() - 1, options);
      return;
    }
    topo_ = std::make_unique<sm::TopologyTxnManager>(w.sm(),
                                                     w.vsf->journal());
    Fabric& f = w.fabric;
    const bool ring = c.net == Net::kRing;
    const auto& b = w.built;
    switch (kind_) {
      case Kind::kAttach: {
        const NodeId p1 = ring ? b.leaves[2] : b.spines[0];
        const NodeId p2 = ring ? b.leaves[5] : b.spines[1];
        subject_ = f.add_switch("new-switch", ring ? 8 : 36);
        topology_ = topo_->begin_attach_switch(
            subject_, {{subject_, 1, p1, *f.free_port(p1)},
                       {subject_, 2, p2, *f.free_port(p2)}});
        break;
      }
      case Kind::kDetach:
        topology_ = topo_->begin_detach_switch(ring ? b.leaves[5]
                                                    : b.spines[0]);
        break;
      case Kind::kAddLink: {
        const NodeId a = ring ? b.leaves[1] : b.spines[0];
        const NodeId z = ring ? b.leaves[4] : b.spines[1];
        topology_ = topo_->begin_add_link(
            {a, *f.free_port(a), z, *f.free_port(z)});
        break;
      }
      case Kind::kRemoveLink: {
        const NodeId a = b.leaves[0];
        const NodeId z = ring ? b.leaves[1] : b.spines[0];
        topology_ = topo_->begin_remove_link(a, port_toward(f, a, z));
        break;
      }
      default:
        break;
    }
  }

  /// The first side effect: the address move or the cabling mutation.
  void start() {
    if (migration_) {
      w_.vsf->txn_move_addresses(*migration_);
    } else {
      topo_->txn_mutate(*topology_);
    }
  }

  /// The apply stream, cut after `abort_after` SMPs. Returns whether it was
  /// cut short.
  bool apply(std::uint64_t abort_after) {
    try {
      if (migration_) {
        w_.vsf->txn_apply_lfts(
            *migration_, {.abort_after_smps = abort_after});
      } else {
        topo_->txn_reroute(*topology_, {.abort_after_smps = abort_after});
      }
    } catch (const core::MigrationError& e) {
      EXPECT_EQ(e.code(), core::MigrationErrc::kInterrupted) << e.what();
      return true;
    } catch (const sm::TopologyError& e) {
      EXPECT_EQ(e.code(), sm::TopologyErrc::kInterrupted) << e.what();
      return true;
    }
    return false;
  }

  void commit() {
    if (migration_) {
      w_.vsf->txn_commit(*migration_);
    } else {
      topo_->txn_commit(*topology_);
    }
  }

  /// SMPs of the apply stream, the unit abort_after_smps counts.
  [[nodiscard]] std::uint64_t stream_smps() const {
    return migration_ ? migration_->stats.drain_smps +
                            migration_->stats.lft_smps
                      : topology_->stats.lft_smps +
                            topology_->stats.addressing_smps;
  }
  /// LFT block writes the transaction sent.
  [[nodiscard]] std::uint64_t lft_smps() const {
    return migration_ ? migration_->stats.drain_smps +
                            migration_->stats.lft_smps
                      : topology_->stats.lft_smps +
                            topology_->stats.verify.smps;
  }
  [[nodiscard]] std::uint64_t id() const {
    return migration_ ? migration_->id : topology_->id;
  }
  [[nodiscard]] NodeId subject() const { return subject_; }
  [[nodiscard]] sm::TopologyTxnManager& topo() { return *topo_; }
  [[nodiscard]] sm::TopologyTxn& topology() { return *topology_; }

 private:
  World& w_;
  Kind kind_;
  std::optional<core::MigrationTxn> migration_;
  std::unique_ptr<sm::TopologyTxnManager> topo_;
  std::optional<sm::TopologyTxn> topology_;
  NodeId subject_ = kInvalidNode;
};

/// What recovery must restore or reproduce: every routed switch's master
/// and installed table by NodeId, and the owner of every LID held by a
/// cabled node.
struct Snapshot {
  std::map<NodeId, Lft> master;
  std::map<NodeId, Lft> installed;
  std::vector<std::pair<Lid, LidMap::Owner>> lids;
};

Snapshot snapshot(sm::SubnetManager& sm) {
  Snapshot s;
  const auto& result = sm.routing_result();
  for (routing::SwitchIdx i = 0; i < result.graph.num_switches(); ++i) {
    const NodeId id = result.graph.switches[i];
    s.master.emplace(id, result.lfts[i]);
    s.installed.emplace(id, sm.fabric().node(id).lft);
  }
  for (const Lid lid : sm.lids().assigned_lids()) {
    s.lids.emplace_back(lid, sm.lids().owner(lid));
  }
  return s;
}

/// "" when `got` holds `want`'s tables and LID owners, else the first
/// difference. Switches only `got` routes (a rolled-back attach subject)
/// are not compared.
std::string difference(const Snapshot& want, const Snapshot& got) {
  const auto tables = [](const std::map<NodeId, Lft>& w,
                         const std::map<NodeId, Lft>& g,
                         const char* which) -> std::string {
    for (const auto& [id, lft] : w) {
      const auto it = g.find(id);
      if (it == g.end()) return std::string(which) + " table missing";
      if (!(it->second == lft)) {
        return std::string(which) + " table of node " + std::to_string(id) +
               " differs";
      }
    }
    return "";
  };
  std::string out = tables(want.master, got.master, "master");
  if (out.empty()) out = tables(want.installed, got.installed, "installed");
  if (out.empty() && want.lids != got.lids) out = "LID owners differ";
  return out;
}

std::string violations(World& w) {
  const inject::FabricChecker checker(w.sm());
  const auto report = checker.check(w.vsf.get());
  std::string out;
  for (const auto& v : report.violations) out += v + "; ";
  return out;
}

/// Checks the write-ahead rule on the wire. The abort hook stops the apply
/// stream after a switch's push, and the dying master still runs its caller
/// up to the throw; this probe looks at each LFT SMP itself. From the
/// transaction's first LFT block write on, every wire traversal must find
/// the record's delta set journaled: a master dying at exactly that SMP
/// leaves a record recovery can roll forward. Drops and jitter come from
/// the wrapped model, if any.
class WriteAheadProbe final : public fabric::LinkFaultModel {
 public:
  WriteAheadProbe(fabric::SmpTransport& transport,
                  fabric::LinkFaultModel* wrapped)
      : transport_(transport), wrapped_(wrapped) {
    transport.set_fault_model(this);
  }

  void watch(const sm::ReconfigJournal& journal, std::uint64_t id) {
    journal_ = &journal;
    id_ = id;
    lft_writes_before_ = transport_.counters().lft_block_writes;
  }

  bool drop_on_link(NodeId from, PortNum from_port, NodeId to,
                    PortNum to_port) override {
    if (journal_ != nullptr &&
        transport_.counters().lft_block_writes > lft_writes_before_) {
      const sm::JournalRecord* r = journal_->find(id_);
      if (r->state == sm::RecordState::kInFlight && r->deltas.empty()) {
        ++unjournaled;
      }
    }
    return wrapped_ != nullptr &&
           wrapped_->drop_on_link(from, from_port, to, to_port);
  }
  double jitter_us(NodeId from, PortNum from_port, NodeId to,
                   PortNum to_port) override {
    return wrapped_ != nullptr
               ? wrapped_->jitter_us(from, from_port, to, to_port)
               : 0.0;
  }

  std::size_t unjournaled = 0;  ///< traversals ahead of the journal

 private:
  fabric::SmpTransport& transport_;
  fabric::LinkFaultModel* wrapped_;
  const sm::ReconfigJournal* journal_ = nullptr;
  std::uint64_t id_ = 0;
  std::uint64_t lft_writes_before_ = 0;
};

/// The same transaction run to commit, and what the sweep compares with.
struct Reference {
  std::uint64_t stream_smps = 0;  ///< N: the crash points k = 1..N
  std::uint64_t lft_smps = 0;
  Snapshot committed;
  /// Committed, then taken over by the standby, then the journaled delta
  /// set replayed: what a failover roll-forward must reproduce.
  Snapshot failed_over;
};

Reference reference(const Case& c) {
  Reference ref;
  std::vector<sm::LftDelta> deltas;
  for (const bool fail_over : {false, true}) {
    World w(c.net, scheme_of(c.kind));
    Txn txn(w, c);
    txn.start();
    EXPECT_FALSE(txn.apply(std::numeric_limits<std::uint64_t>::max()));
    txn.commit();
    if (!fail_over) {
      ref.stream_smps = txn.stream_smps();
      ref.lft_smps = txn.lft_smps();
      deltas = w.vsf->journal().find(txn.id())->deltas;
      ref.committed = snapshot(w.sm());
      continue;
    }
    w.fail_over();
    sm::replay_master(w.sm(), deltas, /*forward=*/true);
    EXPECT_TRUE(w.sm().redistribute().converged);
    ref.failed_over = snapshot(w.sm());
  }
  return ref;
}

/// Crashes the master at `point` and recovers `how`.
void crash_and_recover(const Case& c, const Reference& ref, int point,
                       Recovery how) {
  World w(c.net, scheme_of(c.kind));
  inject::FaultInjector injector(w.fabric, /*seed=*/17);
  const bool lossy = how == Recovery::kInPlaceLossy;
  if (lossy) {
    injector.attach_transport(&w.sm().transport());
    injector.set_global_fault({.drop_probability = 0.02});
  }
  WriteAheadProbe probe(w.sm().transport(), lossy ? &injector : nullptr);
  const std::string at = name(c) + " crash at " +
                         (point == kOpened    ? std::string("open")
                          : point == kStarted ? std::string("start")
                                              : "smp " + std::to_string(point)) +
                         ", recovered " + to_string(how);
  const Snapshot before = snapshot(w.sm());
  const std::size_t src = w.vsf->vm(w.vms[0]).hypervisor;
  const std::size_t dst = c.kind == Kind::kSwap ? w.vsf->vm(w.vms[1]).hypervisor
                                                : w.hyps.size() - 1;

  Txn txn(w, c);
  probe.watch(w.vsf->journal(), txn.id());
  if (point >= kStarted) txn.start();
  if (point > kStarted) {
    EXPECT_TRUE(txn.apply(static_cast<std::uint64_t>(point))) << at;
  }
  EXPECT_EQ(probe.unjournaled, 0u) << at;

  const sm::RecoveryReport rec = how == Recovery::kFailover
                                     ? w.fail_over()
                                     : w.vsf->journal().recover(w.sm());
  w.vsf->reconcile_with_journal();
  const bool forward = point > kStarted;
  EXPECT_EQ(rec.in_flight, 1u) << at;
  EXPECT_EQ(rec.rolled_forward, forward ? 1u : 0u) << at;
  EXPECT_EQ(rec.rolled_back, forward ? 0u : 1u) << at;
  EXPECT_TRUE(rec.redistribution.converged) << at;
  EXPECT_EQ(w.vsf->journal().in_flight(), 0u) << at;
  EXPECT_EQ(violations(w), "") << at;
  if (is_migration(c.kind)) {
    EXPECT_EQ(w.vsf->vm(w.vms[0]).hypervisor, forward ? dst : src) << at;
  }

  const Snapshot after = snapshot(w.sm());
  if (how == Recovery::kFailover) {
    if (forward) EXPECT_EQ(difference(ref.failed_over, after), "") << at;
    // A roll-back keeps the addresses; the standby's own routes serve them.
    if (!forward) EXPECT_TRUE(before.lids == after.lids) << at;
    return;
  }
  EXPECT_EQ(difference(forward ? ref.committed : before, after), "") << at;
  if (how == Recovery::kInPlace) {
    EXPECT_LE(rec.redistribution.smps, ref.lft_smps) << at;
  }
  // Idempotent: a second recovery finds nothing and sends nothing.
  const auto again = w.vsf->journal().recover(w.sm());
  EXPECT_EQ(again.in_flight, 0u) << at;
  EXPECT_EQ(again.redistribution.smps, 0u) << at;
}

/// The destination's vSwitch dies as migrate_txn/swap_txn enters `state`.
/// One attempt, no re-placement: the transaction must roll back to the
/// pre-transaction tables and addresses, byte for byte.
void kill_destination_at(const Case& c, core::TxnState state) {
  World w(c.net, scheme_of(c.kind));
  inject::FaultInjector injector(w.fabric, /*seed=*/17);
  injector.attach_transport(&w.sm().transport());
  const std::string at = name(c) + " destination killed at " +
                         core::to_string(state);
  const Snapshot before = snapshot(w.sm());
  const std::size_t src = w.vsf->vm(w.vms[0]).hypervisor;
  const std::size_t dst = w.hyps.size() - 1;

  cloud::CloudOrchestrator cloud(*w.vsf, cloud::Placement::kSpread);
  cloud::TxnPolicy policy;
  policy.max_attempts = 1;
  policy.backoff_base_s = 0.0;
  policy.allow_replacement = false;
  bool killed = false;
  policy.on_step = [&](core::TxnState s, const core::MigrationTxn&) {
    if (s != state || killed) return;
    injector.kill_node(w.hyps[dst].vswitch);
    killed = true;
  };
  const core::MigrationOptions options{
      .drain_first = c.kind == Kind::kMigrateDynamicDrain ||
                     c.kind == Kind::kMigratePrepopulatedDrain};
  const auto flow =
      c.kind == Kind::kSwap
          ? cloud.swap_txn(w.vms[0], w.vms[1], options, policy)
          : cloud.migrate_txn(w.vms[0], dst, options, policy);
  ASSERT_TRUE(killed) << at;
  injector.revive_node(w.hyps[dst].vswitch);

  EXPECT_EQ(flow.outcome, cloud::TxnOutcome::kRolledBack) << at;
  EXPECT_EQ(w.vsf->journal().in_flight(), 0u) << at;
  EXPECT_EQ(w.vsf->vm(w.vms[0]).hypervisor, src) << at;
  EXPECT_EQ(difference(before, snapshot(w.sm())), "") << at;
  EXPECT_EQ(violations(w), "") << at;
}

/// The attach subject dies after the cabling mutation: before the re-route
/// (point kStarted; the transaction rolls itself back) or after `point`
/// apply SMPs (the surviving master recovers). Either way the subject is
/// unreachable, so the attach must roll back out of the fabric.
void kill_attach_subject(const Case& c, int point) {
  World w(c.net, scheme_of(c.kind));
  inject::FaultInjector injector(w.fabric, /*seed=*/17);
  injector.attach_transport(&w.sm().transport());
  const std::string at = name(c) + " subject killed " +
                         (point == kStarted
                              ? std::string("before the re-route")
                              : "after smp " + std::to_string(point));
  const Snapshot before = snapshot(w.sm());

  Txn txn(w, c);
  txn.start();
  if (point == kStarted) {
    injector.kill_node(txn.subject());
    try {
      txn.topo().txn_reroute(txn.topology());
      ADD_FAILURE() << at << ": the re-route reached a dead switch";
    } catch (const sm::TopologyError& e) {
      EXPECT_EQ(e.code(), sm::TopologyErrc::kRerouteFailed) << at;
    }
    txn.topo().txn_rollback(txn.topology());
  } else {
    EXPECT_TRUE(txn.apply(static_cast<std::uint64_t>(point))) << at;
    injector.kill_node(txn.subject());
    const auto rec = w.vsf->journal().recover(w.sm());
    EXPECT_EQ(rec.rolled_back, 1u) << at;
    EXPECT_TRUE(rec.redistribution.converged) << at;
  }
  EXPECT_EQ(w.vsf->journal().in_flight(), 0u) << at;
  EXPECT_TRUE(w.fabric.cables_of(txn.subject()).empty()) << at;
  EXPECT_EQ(difference(before, snapshot(w.sm())), "") << at;
  EXPECT_EQ(violations(w), "") << at;
}

class CrashPoint : public ::testing::TestWithParam<Case> {};

TEST_P(CrashPoint, EveryRunRecovers) {
  const Case c = GetParam();
  const Reference ref = reference(c);
  if (c.kind != Kind::kAddLink) ASSERT_GT(ref.stream_smps, 0u);

  std::size_t runs = 0;
  const int last = static_cast<int>(ref.stream_smps);
  for (int point = kOpened; point <= last; ++point) {
    for (const Recovery how :
         {Recovery::kInPlace, Recovery::kInPlaceLossy, Recovery::kFailover}) {
      crash_and_recover(c, ref, point, how);
      ++runs;
    }
  }
  if (is_migration(c.kind)) {
    for (const core::TxnState state :
         {core::TxnState::kPrepared, core::TxnState::kDetached,
          core::TxnState::kCopied, core::TxnState::kReconfiguring,
          core::TxnState::kAttached}) {
      kill_destination_at(c, state);
      ++runs;
    }
  }
  if (c.kind == Kind::kAttach) {
    for (int point = kStarted; point <= last; ++point) {
      kill_attach_subject(c, point);
      ++runs;
    }
  }
  std::printf("[ crash points ] %s: N=%llu, %zu runs\n", name(c).c_str(),
              static_cast<unsigned long long>(ref.stream_smps), runs);
}

std::vector<Case> all_cases() {
  std::vector<Case> out;
  for (const Net net : {Net::kRing, Net::kTree324}) {
    for (int k = 0; k <= static_cast<int>(Kind::kRemoveLink); ++k) {
      out.push_back({net, static_cast<Kind>(k)});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CrashPoint, ::testing::ValuesIn(all_cases()),
                         [](const auto& info) { return name(info.param); });

}  // namespace
}  // namespace ibvs
