// Pinned SMP streams for every reconfiguration transaction kind, and
// journal recovery with a migration and a topology delta in flight at once.
//
// The determinism tests elsewhere compare two runs of the same build; these
// pin FNV-1a digests of each transaction's SMP stream, plus the installed
// LFT bytes of every switch afterwards, so a refactor of the transaction
// machinery that changes what reaches the fabric fails here. `Smp` carries
// no block payload, which is why the installed tables are folded in: a
// wrong LFT write with the right header shows up only there.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string_view>

#include "core/migration_txn.hpp"
#include "inject/checker.hpp"
#include "sm/topology_txn.hpp"
#include "tests/helpers.hpp"

namespace ibvs {
namespace {

using test::VirtualSubnet;

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
};

/// Digest of a tapped SMP stream followed by every switch's installed LFT.
std::uint64_t stream_digest(const std::vector<Smp>& stream, Fabric& fabric) {
  Fnv f;
  for (const Smp& smp : stream) {
    f.word(static_cast<std::uint64_t>(smp.method));
    f.word(static_cast<std::uint64_t>(smp.attribute));
    f.word(static_cast<std::uint64_t>(smp.routing));
    f.word(smp.target);
    f.word(smp.target_port);
    f.word(smp.block);
    f.word(smp.route.size());
    for (const PortNum p : smp.route) f.byte(p);
  }
  for (const NodeId sw : fabric.switch_ids()) {
    const Lft& lft = fabric.node(sw).lft;
    f.word(sw);
    f.word(lft.block_count());
    for (std::size_t b = 0; b < lft.block_count(); ++b) {
      for (const PortNum p : lft.block(b)) f.byte(p);
    }
  }
  return f.h;
}

/// The leaf's port cabled to `spine`.
PortNum uplink_port(const Fabric& fabric, NodeId leaf, NodeId spine) {
  const Node& n = fabric.node(leaf);
  for (PortNum p = 1; p <= n.num_ports(); ++p) {
    if (n.ports[p].connected() && n.ports[p].peer == spine) return p;
  }
  ADD_FAILURE() << "no uplink from " << leaf << " to " << spine;
  return 0;
}

/// One transaction kind, run with the SMP tap attached on a freshly booted
/// small subnet, and the digest it produced at the time it was pinned.
struct Case {
  std::string_view name;
  core::LidScheme scheme;
  std::uint64_t digest;
  std::function<void(VirtualSubnet&, sm::TopologyTxnManager&)> op;
};

std::uint64_t run_case(const Case& c) {
  auto s = VirtualSubnet::small(c.scheme);
  s.vsf->boot();
  sm::TopologyTxnManager topo(*s.sm, s.vsf->journal());
  std::vector<Smp> stream;
  s.sm->transport().set_smp_tap(&stream);
  c.op(s, topo);
  s.sm->transport().set_smp_tap(nullptr);
  EXPECT_EQ(s.vsf->journal().in_flight(), 0u) << c.name;
  return stream_digest(stream, s.fabric);
}

constexpr auto kDyn = core::LidScheme::kDynamic;
constexpr auto kPre = core::LidScheme::kPrepopulated;

/// A migration of a fresh VM from hypervisor 0 to 3 under `options`.
auto migrate(core::MigrationOptions options = {}) {
  return [options](VirtualSubnet& s, sm::TopologyTxnManager&) {
    const auto vm = s.create_on(0);
    s.vsf->migrate_vm(vm, 3, options);
  };
}

/// Attaches a fresh switch to both spines.
sm::TopologyTxn begin_attach(VirtualSubnet& s, sm::TopologyTxnManager& topo) {
  Fabric& fabric = s.fabric;
  const NodeId sw = fabric.add_switch("new-leaf", 8);
  const NodeId s0 = s.built.spines[0];
  const NodeId s1 = s.built.spines[1];
  return topo.begin_attach_switch(sw, {{sw, 1, s0, *fabric.free_port(s0)},
                                       {sw, 2, s1, *fabric.free_port(s1)}});
}

/// Migration of `vm` to hypervisor 3, cut off one SMP into the LFT batch.
core::MigrationTxn interrupted_migration(VirtualSubnet& s, core::VmHandle vm) {
  auto txn = s.vsf->begin_migration(vm, 3);
  s.vsf->txn_move_addresses(txn);
  EXPECT_THROW(s.vsf->txn_apply_lfts(txn, {.abort_after_smps = 1}),
               core::MigrationError);
  return txn;
}

/// Detach of the empty leaf, cut off one SMP into the re-route.
sm::TopologyTxn interrupted_detach(VirtualSubnet& s,
                                   sm::TopologyTxnManager& topo) {
  auto txn = topo.begin_detach_switch(s.built.leaves[3]);
  topo.txn_mutate(txn);
  EXPECT_THROW(topo.txn_reroute(txn, {.abort_after_smps = 1}),
               sm::TopologyError);
  return txn;
}

const std::vector<Case>& cases() {
  static const std::vector<Case> all = {
      {"copy-migration", kDyn, 0x1e1f53a149fe71d1, migrate()},
      {"prepopulated-migration", kPre, 0xf8400e6966ae8918, migrate()},
      {"drain-first", kDyn, 0x7c63a3429780b4a4,
       migrate({.drain_first = true})},
      {"minimal-mode", kPre, 0x1c0a6af6ea1bbbae,
       migrate({.mode = core::ReconfigMode::kMinimal})},
      {"destination-swap", kDyn, 0xe62f58c56eb9902e,
       [](VirtualSubnet& s, sm::TopologyTxnManager&) {
         const auto a = s.create_on(0);
         const auto b = s.create_on(3);
         s.vsf->swap_vms(a, b);
       }},
      {"attach", kDyn, 0x765ae7d487ee4c72,
       [](VirtualSubnet& s, sm::TopologyTxnManager& topo) {
         auto txn = begin_attach(s, topo);
         topo.txn_mutate(txn);
         topo.txn_reroute(txn);
         topo.txn_commit(txn);
       }},
      {"detach", kDyn, 0x936446d758d6264a,
       [](VirtualSubnet& s, sm::TopologyTxnManager& topo) {
         topo.detach_switch(s.built.leaves[3]);
       }},
      {"add-link", kDyn, 0x709087541c7767c9,
       [](VirtualSubnet& s, sm::TopologyTxnManager& topo) {
         const NodeId leaf = s.built.leaves[0];
         const NodeId spine = s.built.spines[0];
         topo.add_link({leaf, *s.fabric.free_port(leaf), spine,
                        *s.fabric.free_port(spine)});
       }},
      {"remove-link", kDyn, 0xc7b11ea2e8a3206b,
       [](VirtualSubnet& s, sm::TopologyTxnManager& topo) {
         const NodeId leaf = s.built.leaves[0];
         topo.remove_link(leaf,
                          uplink_port(s.fabric, leaf, s.built.spines[0]));
       }},
      {"migration-abort-rollback", kPre, 0xafd39e4860380e24,
       [](VirtualSubnet& s, sm::TopologyTxnManager&) {
         auto txn = interrupted_migration(s, s.create_on(0));
         s.vsf->txn_rollback(txn);
       }},
      {"swap-abort-rollback", kDyn, 0xe62a40f282919517,
       [](VirtualSubnet& s, sm::TopologyTxnManager&) {
         const auto a = s.create_on(0);
         const auto b = s.create_on(3);
         auto txn = s.vsf->begin_swap(a, b);
         s.vsf->txn_move_addresses(txn);
         EXPECT_THROW(s.vsf->txn_apply_lfts(txn, {.abort_after_smps = 1}),
                      core::MigrationError);
         s.vsf->txn_rollback(txn);
       }},
      {"detach-abort-rollback", kDyn, 0xd384b3212a05767e,
       [](VirtualSubnet& s, sm::TopologyTxnManager& topo) {
         auto txn = interrupted_detach(s, topo);
         topo.txn_rollback(txn);
       }},
      {"attach-rollback", kDyn, 0x35386f087f661c7f,
       [](VirtualSubnet& s, sm::TopologyTxnManager& topo) {
         auto txn = begin_attach(s, topo);
         topo.txn_mutate(txn);
         topo.txn_reroute(txn);
         topo.txn_rollback(txn);
       }},
      {"migration-recover-forward", kPre, 0xf8400e6966ae8918,
       [](VirtualSubnet& s, sm::TopologyTxnManager&) {
         interrupted_migration(s, s.create_on(0));
         EXPECT_EQ(s.vsf->journal().recover(*s.sm).rolled_forward, 1u);
         EXPECT_EQ(s.vsf->reconcile_with_journal().committed, 1u);
       }},
      {"migration-recover-back", kDyn, 0x5be15f73b7bd78e4,
       [](VirtualSubnet& s, sm::TopologyTxnManager&) {
         const auto vm = s.create_on(0);
         auto txn = s.vsf->begin_migration(vm, 3);
         s.vsf->txn_move_addresses(txn);  // dies before the LFT plan
         EXPECT_EQ(s.vsf->journal().recover(*s.sm).rolled_back, 1u);
         EXPECT_EQ(s.vsf->reconcile_with_journal().rolled_back, 1u);
       }},
      {"detach-recover-forward", kDyn, 0xbb1e9746017f274a,
       [](VirtualSubnet& s, sm::TopologyTxnManager& topo) {
         interrupted_detach(s, topo);
         EXPECT_EQ(s.vsf->journal().recover(*s.sm).rolled_forward, 1u);
       }},
      {"detach-recover-back", kDyn, 0x709087541c7767c9,
       [](VirtualSubnet& s, sm::TopologyTxnManager& topo) {
         auto txn = topo.begin_detach_switch(s.built.leaves[3]);
         topo.txn_mutate(txn);  // dies before the re-route plan
         EXPECT_EQ(s.vsf->journal().recover(*s.sm).rolled_back, 1u);
       }},
      {"attach-recover-back", kDyn, 0x143a85f9cde7377e,
       [](VirtualSubnet& s, sm::TopologyTxnManager& topo) {
         auto txn = begin_attach(s, topo);
         topo.txn_mutate(txn);
         EXPECT_EQ(s.vsf->journal().recover(*s.sm).rolled_back, 1u);
       }},
  };
  return all;
}

TEST(TxnStream, PinnedDigests) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const std::uint64_t digest = run_case(c);
    EXPECT_EQ(digest, c.digest) << c.name << " digest 0x" << std::hex
                                << digest;
  }
}

// ---------------------------------------------------------------------------
// One recover() over both record kinds.

/// One recover() over the in-flight records, then the VM bookkeeping; both
/// records must end terminal and the fabric checker clean.
void expect_mixed_recovery(VirtualSubnet& s) {
  ASSERT_EQ(s.vsf->journal().in_flight(), 2u);
  const auto rec = s.vsf->journal().recover(*s.sm);
  EXPECT_EQ(rec.in_flight, 2u);
  EXPECT_EQ(rec.rolled_forward + rec.rolled_back, 2u);
  EXPECT_TRUE(rec.redistribution.converged);
  const auto rr = s.vsf->reconcile_with_journal();
  EXPECT_EQ(rr.committed + rr.rolled_back, 1u);
  EXPECT_EQ(s.vsf->journal().in_flight(), 0u);
  EXPECT_TRUE(inject::FabricChecker(*s.sm).check(s.vsf.get()).clean());
}

TEST(MixedJournalRecovery, MigrationAndDetachInFlightTogether) {
  for (const auto scheme : {kDyn, kPre}) {
    for (const bool migration_first : {true, false}) {
      SCOPED_TRACE(std::string(scheme == kDyn ? "dynamic" : "prepopulated") +
                   (migration_first ? ", migration first" : ", detach first"));
      auto s = VirtualSubnet::small(scheme);
      s.vsf->boot();
      sm::TopologyTxnManager topo(*s.sm, s.vsf->journal());
      const auto vm = s.create_on(0);
      if (migration_first) {
        interrupted_migration(s, vm);
        interrupted_detach(s, topo);
      } else {
        interrupted_detach(s, topo);
        interrupted_migration(s, vm);
      }
      expect_mixed_recovery(s);
    }
  }
}

TEST(MixedJournalRecovery, VmCreatedBetweenTheTwoRecords) {
  // The VM is created while the detach is in flight, so a dynamic LID is
  // handed out then — it must not be the subject's released LID.
  for (const auto scheme : {kDyn, kPre}) {
    SCOPED_TRACE(scheme == kDyn ? "dynamic" : "prepopulated");
    auto s = VirtualSubnet::small(scheme);
    s.vsf->boot();
    sm::TopologyTxnManager topo(*s.sm, s.vsf->journal());
    interrupted_detach(s, topo);
    const auto vm = s.create_on(0);
    interrupted_migration(s, vm);
    expect_mixed_recovery(s);
  }
}

TEST(JournalRecovery, ReleasedLidStaysReservedWhileItsDetachIsInFlight) {
  // A detach releases its subject's LID and journals a scrub of it. A VM
  // created before recovery must get another LID: the roll-forward would
  // otherwise scrub the new VM's routes.
  auto s = VirtualSubnet::small(kDyn);
  s.vsf->boot();
  sm::TopologyTxnManager topo(*s.sm, s.vsf->journal());
  const auto detach = interrupted_detach(s, topo);
  const Lid subject_lid = detach.subject_lid;
  ASSERT_TRUE(subject_lid.valid());
  EXPECT_FALSE(s.sm->lids().assigned(subject_lid));

  const auto created = s.vsf->create_vm(0);
  EXPECT_NE(created.lid, subject_lid);
  const auto rec = s.vsf->journal().recover(*s.sm);
  EXPECT_EQ(rec.rolled_forward, 1u);
  EXPECT_TRUE(inject::FabricChecker(*s.sm).check(s.vsf.get()).clean());

  // The record is terminal: the LID is free for the next owner again.
  EXPECT_EQ(s.vsf->create_vm(1).lid, subject_lid);
  EXPECT_TRUE(inject::FabricChecker(*s.sm).check(s.vsf.get()).clean());
}

}  // namespace
}  // namespace ibvs
