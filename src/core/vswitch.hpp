// The proposed vSwitch architecture (§V) and its dynamic reconfiguration.
//
// Two LID schemes with the paper's exact trade-offs:
//
//  * Prepopulated LIDs (§V-A): every VF is addressed at boot. Larger initial
//    path computation (paths exist for all VFs), a hard cap of
//    switches+PFs+VFs <= 49151, LMC-like multipathing per VM — and
//    migration reconfigures by *swapping* two LFT entries per switch, which
//    costs 1 SMP when both LIDs share a 64-entry block and 2 otherwise.
//
//  * Dynamic LID assignment (§V-B): a VF is addressed when a VM is created.
//    Fast initial configuration, no cap on *spare* VFs, but VM creation
//    costs one SMP per switch (copying the PF's forwarding entry) and
//    migration reconfigures by *copying* — always at most 1 SMP per switch.
//
// Both reconfigurations skip every switch whose entries do not change
// (n' <= n) and never recompute paths: the PCt term of eq. (1) is gone,
// which is the headline result of the paper.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/errors.hpp"
#include "core/update_set.hpp"
#include "core/virtualizer.hpp"
#include "sm/reconfig_journal.hpp"
#include "sm/subnet_manager.hpp"

namespace ibvs::core {

struct MigrationTxn;  // core/migration_txn.hpp

enum class LidScheme { kPrepopulated, kDynamic };

[[nodiscard]] std::string to_string(LidScheme scheme);

struct MigrationOptions {
  /// The paper's eq. (5) improvement: migration SMPs may be destination
  /// routed because switch routes are unaffected by VM moves.
  SmpRouting smp_routing = SmpRouting::kLidRouted;
  ReconfigMode mode = ReconfigMode::kDeterministic;
  /// §VI-C partially-static variant: first invalidate the VM's LID on every
  /// switch to be updated (forward to port 255), then reconfigure. Costs n'
  /// extra SMPs but prevents transient-cycle deadlocks.
  bool drain_first = false;
};

struct VmHandle {
  std::uint32_t id = 0;
  [[nodiscard]] bool valid() const noexcept { return id != 0; }
};

struct Vm {
  std::uint32_t id = 0;
  std::size_t hypervisor = 0;  ///< index into hypervisors()
  std::size_t vf_index = 0;    ///< VF slot on that hypervisor
  Lid lid;
  Guid vguid;
};

struct CreateReport {
  VmHandle vm;
  Lid lid;
  std::uint64_t lft_smps = 0;       ///< 0 prepopulated; <= n dynamic
  std::uint64_t hypervisor_smps = 0;
  double time_us = 0.0;
};

struct ReconfigStats {
  std::size_t switches_total = 0;    ///< n
  std::size_t switches_updated = 0;  ///< n'
  std::uint64_t lft_smps = 0;        ///< sum of m' over updated switches
  std::uint64_t drain_smps = 0;
  std::uint64_t hypervisor_lid_smps = 0;
  std::uint64_t guid_smps = 0;
  double lft_time_us = 0.0;   ///< batch makespan of the LFT updates
  double drain_time_us = 0.0;

  [[nodiscard]] std::uint64_t total_smps() const noexcept {
    return lft_smps + drain_smps + hypervisor_lid_smps + guid_smps;
  }
};

struct MigrationReport {
  std::uint32_t vm = 0;
  std::size_t src_hypervisor = 0;
  std::size_t dst_hypervisor = 0;
  Lid vm_lid;
  /// Prepopulated only: the destination VF's LID that swapped back.
  Lid swapped_lid;
  bool intra_leaf = false;
  ReconfigStats reconfig;
  /// Size of the §VI-D minimal set for this move (computed for reporting
  /// even in deterministic mode; equals switches_updated in minimal mode).
  std::size_t minimal_set_size = 0;
};

/// Full-subnet view of a vSwitch-enabled IB cloud: owns VM lifecycle and the
/// reconfiguration machinery on top of a SubnetManager.
class VSwitchFabric {
 public:
  VSwitchFabric(sm::SubnetManager& sm, std::vector<VirtualHca> hypervisors,
                LidScheme scheme);

  [[nodiscard]] LidScheme scheme() const noexcept { return scheme_; }
  [[nodiscard]] const std::vector<VirtualHca>& hypervisors() const noexcept {
    return hypervisors_;
  }
  [[nodiscard]] sm::SubnetManager& subnet_manager() noexcept { return *sm_; }
  [[nodiscard]] const sm::SubnetManager& subnet_manager() const noexcept {
    return *sm_;
  }

  /// Discovery, LID assignment (including all VFs when prepopulated), path
  /// computation and LFT distribution.
  sm::SweepReport boot();

  /// Starts a VM on `hypervisor` (first hypervisor with a free VF if
  /// nullopt). Throws when no VF — or, dynamic scheme, no LID — is free.
  CreateReport create_vm(std::optional<std::size_t> hypervisor = {});

  void destroy_vm(VmHandle vm);

  /// Algorithm 1: detach, migrate addresses (step a), update LFTs (step b).
  /// Implemented on top of the transactional phases below (begin, move
  /// addresses, apply LFTs, commit) with the exact SMP stream of the
  /// original one-shot path; failures surface as MigrationError.
  MigrationReport migrate_vm(VmHandle vm, std::size_t dst_hypervisor,
                             const MigrationOptions& options = {});

  /// Destination swap: two live VMs trade slots in ONE fused transaction.
  /// Needs no free VF on either side (the move a full cloud cannot express
  /// as copies), and both schemes reconfigure by the symmetric entry swap —
  /// each switch pushes its dirty blocks once for both LIDs, so a swap
  /// costs at most the larger of the two copies instead of their sum.
  /// Happy-path composition of begin_swap + the shared txn phases.
  MigrationReport swap_vms(VmHandle vm_a, VmHandle vm_b,
                           const MigrationOptions& options = {});

  // --- Transactional migration phases (see core/migration_txn.hpp). ---
  // The orchestrator (or the chaos harness) drives these individually to
  // get abort points, typed failures and rollback; migrate_vm() is the
  // happy-path composition. Every transaction writes ahead to journal().

  /// Validates the request with typed errors (kUnknownVm, kBadDestination,
  /// kSameHypervisor, kNoFreeVf), reserves the destination VF choice and
  /// opens the write-ahead journal record. Sends nothing.
  MigrationTxn begin_migration(VmHandle vm, std::size_t dst_hypervisor,
                               const MigrationOptions& options = {});

  /// Opens a destination-swap transaction: vm_a's slot becomes src_*,
  /// vm_b's becomes dst_*, and the journal record carries the pair so a
  /// recovering SM restores *both* VMs' addresses. Sends nothing.
  MigrationTxn begin_swap(VmHandle vm_a, VmHandle vm_b,
                          const MigrationOptions& options = {});

  /// §V-C step (a): moves the VM's LID and vGUID to the destination VF
  /// (swap for prepopulated). Throws kDestinationDetached — before sending
  /// anything — when the destination PF lost physical attachment.
  void txn_move_addresses(MigrationTxn& txn);

  /// Controls for txn_apply_lfts: fault-injection and reachability policy.
  struct ApplyOptions {
    /// Simulated master death: throw kInterrupted after this many LFT SMPs
    /// (drain included), leaving the batch genuinely half-sent — exactly
    /// what journal recovery must clean up.
    std::size_t abort_after_smps = std::numeric_limits<std::size_t>::max();
    /// Throw kSwitchUnreachable when a switch in the update set cannot be
    /// reached from the SM (the transactional path rolls back; the legacy
    /// path keeps the old behavior of sending into the void).
    bool require_reachable = false;
  };

  /// §V-C step (b): plans the delta set (plan_update_set, with the LIDs'
  /// attachments after the address move), records it in the journal, then
  /// updates and pushes per switch. Partial progress is tracked in
  /// txn.applied so a rollback can restore the exact prior bytes.
  void txn_apply_lfts(MigrationTxn& txn, const ApplyOptions& apply);
  void txn_apply_lfts(MigrationTxn& txn) { txn_apply_lfts(txn, ApplyOptions{}); }

  /// Applies the inverse deltas in reverse order (reverse swap for
  /// prepopulated, restore-entry for dynamic), re-attaches the VF at the
  /// source, and marks the journal record rolled back.
  void txn_rollback(MigrationTxn& txn);

  /// Finalizes slot bookkeeping and commits the journal record.
  void txn_commit(MigrationTxn& txn);

  /// The write-ahead reconfiguration journal backing every migration.
  [[nodiscard]] sm::ReconfigJournal& journal() noexcept { return journal_; }
  [[nodiscard]] const sm::ReconfigJournal& journal() const noexcept {
    return journal_;
  }

  /// Folds journal outcomes decided *outside* the transaction path — a new
  /// master's ReconfigJournal::recover() after failover — into the slot/VM
  /// bookkeeping. Idempotent (records are marked reconciled).
  struct ReconcileReport {
    std::size_t committed = 0;
    std::size_t rolled_back = 0;
  };
  ReconcileReport reconcile_with_journal();

  /// Re-points this fabric at a different SubnetManager — the standby
  /// promoted by SmElection after the previous master died. The new SM must
  /// have swept the subnet already (has_routing()).
  void adopt_subnet_manager(sm::SubnetManager& sm);

  /// Traditional baseline for comparison: full path recomputation plus
  /// complete LFT redistribution (what a LID move would cost without the
  /// paper's method).
  sm::SweepReport full_reconfigure();

  /// Hot-adds a hypervisor to a running subnet. Unlike starting a VM —
  /// which the schemes make path-computation-free — a *new attachment
  /// point* genuinely needs routes: this performs the full compute +
  /// diff-distribution, which is exactly the cost the paper's VM-level
  /// tricks avoid (§V-B's "computing a new set of routes can take several
  /// minutes" motivates why VM creation must not look like this).
  struct HotAddReport {
    std::size_t hypervisor = 0;
    double path_computation_seconds = 0.0;
    sm::DistributionReport distribution;
    std::size_t lids_assigned = 0;
  };
  HotAddReport add_hypervisor(const topology::HostSlot& slot,
                              std::size_t num_vfs, std::string_view name);

  [[nodiscard]] const Vm& vm(VmHandle handle) const;
  [[nodiscard]] std::vector<std::uint32_t> active_vm_ids() const;
  [[nodiscard]] std::size_t active_vms() const noexcept { return vms_.size(); }

  /// Fabric node of the VF currently backing this VM.
  [[nodiscard]] NodeId vm_node(VmHandle handle) const;

  /// First hypervisor (other than `exclude`) with a free VF slot.
  [[nodiscard]] std::optional<std::size_t> find_free_hypervisor(
      std::optional<std::size_t> exclude = {}) const;
  /// Lowest free VF slot on `hypervisor` — O(log vfs) via the per-host
  /// free-list, so fleet-scale planners can probe capacity without a scan.
  [[nodiscard]] std::optional<std::size_t> free_vf_on(
      std::size_t hypervisor) const;
  /// Free VF slots on `hypervisor`, O(1).
  [[nodiscard]] std::size_t free_vf_count(std::size_t hypervisor) const;

 private:
  struct Slot {
    std::uint32_t vm = 0;  ///< 0 = free
  };

  Lid pf_lid(std::size_t hypervisor) const;
  Vm& vm_mutable(VmHandle handle);
  /// Opens the transaction's write-ahead journal record; returns its id.
  std::uint64_t open_record(const MigrationTxn& txn);
  /// Keep slots_ and the per-hypervisor free-lists in lockstep.
  void mark_slot_used(std::size_t hypervisor, std::size_t vf,
                      std::uint32_t vm_id);
  void mark_slot_free(std::size_t hypervisor, std::size_t vf);

  sm::SubnetManager* sm_;  ///< reseatable: adopt_subnet_manager on failover
  Fabric* fabric_;         ///< the subnet itself, stable across SM failovers
  std::vector<VirtualHca> hypervisors_;
  LidScheme scheme_;
  std::vector<std::vector<Slot>> slots_;  ///< [hypervisor][vf]
  /// Free VF slot indices per hypervisor, ordered — free_vf_on() keeps the
  /// historical lowest-index-first semantics without the linear scan.
  std::vector<std::set<std::size_t>> free_slots_;
  std::unordered_map<std::uint32_t, Vm> vms_;
  std::uint32_t next_vm_id_ = 1;
  bool booted_ = false;
  sm::ReconfigJournal journal_;
};

}  // namespace ibvs::core
