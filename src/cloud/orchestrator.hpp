// Cloud orchestration over a vSwitch-enabled IB subnet (§VII-B).
//
// Models the OpenStack side of the paper's testbed: VM placement, the
// four-step live-migration flow (detach VF -> signal the SM -> network
// reconfiguration -> attach VF at the destination), and the §VI-D
// observation that migrations whose reconfigurations touch disjoint switch
// sets can run concurrently — intra-leaf migrations in particular, one per
// leaf switch, without any interference.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/migration_txn.hpp"
#include "core/vswitch.hpp"
#include "fabric/credit_sim.hpp"
#include "perf/int_collector.hpp"
#include "perf/perf_mgr.hpp"

namespace ibvs::cloud {

enum class Placement {
  kFirstFit,    ///< lowest-index hypervisor with a free VF
  kRoundRobin,  ///< cycle through hypervisors
  kSpread,      ///< least-loaded hypervisor first
  /// Least-congested uplink first, judged by the attached INT congestion
  /// map (attach_congestion). Without a map it degrades to first-fit.
  kCongestionAware,
};

/// Wall-clock model of the non-IB parts of a live migration.
struct FlowTiming {
  double detach_vf_s = 0.5;       ///< SR-IOV hot-unplug at the source
  double signal_s = 0.01;         ///< OpenStack -> OpenSM over Ethernet
  double memory_copy_gbps = 10.0; ///< pre-copy bandwidth
  double vm_memory_gb = 2.0;
  double attach_vf_s = 0.5;       ///< SR-IOV hot-plug at the destination

  [[nodiscard]] double memory_copy_s() const noexcept {
    return vm_memory_gb * 8.0 / memory_copy_gbps;
  }
};

/// Timeline of one orchestrated migration (§VII-B steps 1-4).
struct MigrationFlowReport {
  core::MigrationReport network;  ///< the IB reconfiguration details
  double detach_s = 0.0;
  double copy_s = 0.0;
  double signal_s = 0.0;
  double reconfig_s = 0.0;  ///< SMP time under the transport's TimingModel
  double attach_s = 0.0;
  /// Measured counter movement on the two hypervisor uplinks, present when
  /// a PerfMgr is attached (attach_perf).
  std::optional<perf::MigrationImpact> impact;

  [[nodiscard]] double total_s() const noexcept {
    // Memory copy overlaps nothing here (conservative); reconfiguration
    // runs while the VM is paused between copy and resume.
    return detach_s + copy_s + signal_s + reconfig_s + attach_s;
  }
};

struct MigrationRequest {
  core::VmHandle vm;
  std::size_t dst_hypervisor = 0;
};

/// One concurrency round: requests whose predicted switch-update sets are
/// pairwise disjoint and can safely reconfigure in parallel.
struct ParallelPlan {
  std::vector<std::vector<MigrationRequest>> rounds;
  [[nodiscard]] std::size_t num_rounds() const noexcept {
    return rounds.size();
  }
};

/// Graceful-degradation policy for the transactional migration flow.
struct TxnPolicy {
  /// Total tries per migration, the first included.
  std::size_t max_attempts = 3;
  /// Attempt i (i >= 2) waits backoff_base_s * 2^(i-2) before retrying.
  double backoff_base_s = 0.25;
  /// On destination-side failures, re-place the VM on another hypervisor
  /// instead of hammering the dead one.
  bool allow_replacement = true;
  /// Budget for the IB reconfiguration step, microseconds. 0 derives it
  /// from the transport's TimingModel: the worst-case reliable-MAD budget
  /// per touched switch, plus the three address SMPs.
  double reconfig_timeout_us = 0.0;
  /// Test/chaos hook, invoked as the transaction enters each state. The
  /// hook may mutate the fabric (kill the destination, sever links) — the
  /// flow revalidates after every edge.
  std::function<void(core::TxnState, const core::MigrationTxn&)> on_step;
};

enum class TxnOutcome {
  kCommitted,   ///< the VM runs at (some) destination
  kRolledBack,  ///< all attempts undone; the VM runs at the source
  kFailed,      ///< never opened a transaction (validation/placement)
};

[[nodiscard]] const char* to_string(TxnOutcome outcome);

/// Result of one policy-driven migration (possibly several attempts).
struct MigrationTxnReport {
  TxnOutcome outcome = TxnOutcome::kFailed;
  std::size_t attempts = 0;
  std::size_t dst_hypervisor = 0;  ///< destination of the final attempt
  bool replaced = false;           ///< destination differs from requested
  double elapsed_s = 0.0;  ///< wall clock incl. backoff and failed attempts
  core::ReconfigStats reconfig;     ///< stats of the final attempt
  std::uint64_t rollback_smps = 0;  ///< undo cost across failed attempts
  std::string error;                ///< last failure; empty when committed
};

class CloudOrchestrator {
 public:
  CloudOrchestrator(core::VSwitchFabric& fabric, Placement placement,
                    FlowTiming timing = {});

  /// Boots `count` VMs under the placement policy. Returns their handles.
  std::vector<core::VmHandle> launch_vms(std::size_t count);

  /// The §VII-B four-step flow for one VM. Destination bounds and VF
  /// availability are validated up front with typed MigrationErrors.
  MigrationFlowReport migrate(core::VmHandle vm, std::size_t dst_hypervisor,
                              const core::MigrationOptions& options = {});

  /// The same flow as an abortable transaction with bounded retries:
  /// drives the vSwitch phases state by state, rolls back on attach
  /// failure / step timeout / unreachable switch, backs off exponentially
  /// and (policy permitting) re-places the VM on a fallback destination.
  /// Always terminates with the fabric consistent: the returned outcome is
  /// kCommitted or kRolledBack whenever a transaction was opened.
  MigrationTxnReport migrate_txn(core::VmHandle vm,
                                 std::size_t dst_hypervisor,
                                 const core::MigrationOptions& options = {},
                                 const TxnPolicy& policy = {});

  /// Destination-swap as a policy-driven transaction: both VMs trade slots
  /// through one fused MigrationTxn (core::VSwitchFabric::begin_swap). No
  /// re-placement on failure — the destination *is* the peer — but
  /// transient faults (unreachable switch, step timeout) retry under the
  /// same backoff schedule as migrate_txn.
  MigrationTxnReport swap_txn(core::VmHandle vm_a, core::VmHandle vm_b,
                              const core::MigrationOptions& options = {},
                              const TxnPolicy& policy = {});

  /// Predicts a migration's update plan from the SM's master tables,
  /// without executing anything: core::plan_update_set with the
  /// hypervisors' attachments, so `update_set` is the set txn_apply_lfts
  /// will write — the changed-entries set in kDeterministic mode, the
  /// §VI-D skyline union in kMinimal mode (one leaf for an intra-leaf move).
  core::UpdatePlan predict_update_set(
      core::VmHandle vm, std::size_t dst_hypervisor,
      core::ReconfigMode mode = core::ReconfigMode::kDeterministic) const;

  /// Predicted plan of a destination swap between two live VMs: each LID
  /// takes the other's entries (both change on the same switches in
  /// kDeterministic mode; the two per-LID skyline sets unioned in
  /// kMinimal mode).
  core::UpdatePlan predict_swap_update_set(
      core::VmHandle vm_a, core::VmHandle vm_b,
      core::ReconfigMode mode = core::ReconfigMode::kDeterministic) const;

  /// Greedy grouping of requests into rounds with pairwise-disjoint
  /// predicted update sets (first-fit on rounds, stable order).
  ParallelPlan plan_parallel(
      const std::vector<MigrationRequest>& requests,
      core::ReconfigMode mode = core::ReconfigMode::kDeterministic);

  /// Executes a plan round by round; within a round the elapsed time is the
  /// maximum of the members (they run concurrently), across rounds it sums.
  struct PlanExecution {
    double elapsed_s = 0.0;
    double serial_s = 0.0;  ///< what one-at-a-time would have cost
    std::vector<MigrationFlowReport> reports;
  };
  PlanExecution execute(const ParallelPlan& plan,
                        const core::MigrationOptions& options = {});

  [[nodiscard]] const FlowTiming& timing() const noexcept { return timing_; }

  /// The vSwitch fabric this orchestrator drives.
  [[nodiscard]] core::VSwitchFabric& fabric() noexcept { return fabric_; }

  /// Attaches a PerfMgr: every subsequent migrate() snapshots the source
  /// and destination hypervisor uplink counters (PMA reads) right before
  /// and after the flow and reports the measured traffic impact. nullptr
  /// detaches.
  void attach_perf(perf::PerfMgr* perf) noexcept { perf_ = perf; }

  // --- INT congestion feedback (the control loop) ---

  /// Attaches a fabric congestion map (perf::IntCollector::build_map):
  /// kCongestionAware placement, fallback re-placement, and destination
  /// ranking then steer away from hot uplinks. The map is not copied —
  /// keep it alive, refresh it by re-attaching. nullptr detaches.
  void attach_congestion(const perf::CongestionMap* map) noexcept {
    congestion_ = map;
  }
  [[nodiscard]] bool congestion_aware() const noexcept {
    return congestion_ != nullptr;
  }

  /// Blocked-step score of one hypervisor's uplink in the attached map:
  /// the leaf egress toward the host (down direction) plus the vSwitch
  /// uplink egress (up direction). 0 without a map — or when no sampled
  /// packet ever queued there.
  [[nodiscard]] std::uint64_t uplink_congestion(std::size_t h) const;

  /// Migration-destination scoring: hypervisors with a free VF (excluding
  /// the VM's current one), ranked by uplink congestion ascending, ties
  /// broken by PF NodeId then index — a total order, so equal-score plans
  /// are byte-identical across platforms and thread counts. Front is the
  /// best destination under the attached map.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::uint64_t>>
  rank_destinations(core::VmHandle vm) const;

  /// One credit-sim pass of the victim flows with INT sampling on.
  struct ProbeRun {
    fabric::CreditSimReport sim;
    perf::CongestionMap map;
    /// Blocked steps the victim tenants' stacks reported, total.
    std::uint64_t victim_blocked = 0;
  };

  /// Per-link blocking across the three probe phases, for links on
  /// switches the migration updates.
  struct SharedLinkDelta {
    perf::LinkKey link;
    std::uint64_t blocked_before = 0;
    std::uint64_t blocked_during = 0;
    std::uint64_t blocked_after = 0;
  };

  struct ProbeOptions {
    /// Step of the "during" run at which the migration executes.
    std::uint64_t migrate_at_step = 20;
    core::MigrationOptions migration;
    /// Base simulator config; int_mode.{enabled,sink} are overridden per
    /// phase (sampling stays at the configured rate/seed).
    fabric::CreditSimConfig sim;
    std::size_t top_k = 8;
  };

  /// Measures what a migration does to traffic already on the wire: runs
  /// `victim_flows` before, during (the migration fires mid-flight via
  /// on_step), and after the move of `vm` to `dst_hypervisor`, each pass
  /// INT-sampled into its own congestion map, and reports delta-blocking
  /// on the links of every switch the migration updated. The migration is
  /// real — the fabric ends up reconfigured.
  struct MigrationImpactProbe {
    ProbeRun before, during, after;
    core::MigrationReport migration;
    std::vector<SharedLinkDelta> shared_links;
  };
  MigrationImpactProbe probe_migration_impact(
      core::VmHandle vm, std::size_t dst_hypervisor,
      const std::vector<fabric::FlowSpec>& victim_flows,
      const ProbeOptions& options);
  MigrationImpactProbe probe_migration_impact(
      core::VmHandle vm, std::size_t dst_hypervisor,
      const std::vector<fabric::FlowSpec>& victim_flows) {
    return probe_migration_impact(vm, dst_hypervisor, victim_flows,
                                  ProbeOptions{});
  }

 private:
  std::optional<std::size_t> pick_hypervisor();
  /// Placement only considers hypervisors whose PF is physically attached:
  /// a host whose uplink (or leaf) is down cannot receive a VM.
  [[nodiscard]] bool hypervisor_attached(std::size_t h) const;
  /// Fallback destination for a retried migration: any attached hypervisor
  /// with a free VF that is neither the VM's source nor already tried.
  [[nodiscard]] std::optional<std::size_t> pick_fallback(
      core::VmHandle vm, const std::vector<std::size_t>& exclude) const;
  /// The one attempt loop behind migrate_txn and swap_txn. `begin` opens
  /// an attempt's transaction toward `dst`; `replace` is the VM to re-place
  /// on a fallback destination after a destination-side failure (invalid:
  /// retry the same transaction). Budget, attach check and report fields
  /// follow from the transaction itself.
  MigrationTxnReport run_attempts(
      const char* span_name, std::size_t dst, const TxnPolicy& policy,
      core::VmHandle replace,
      const std::function<core::MigrationTxn(std::size_t)>& begin);

  core::VSwitchFabric& fabric_;
  Placement placement_;
  FlowTiming timing_;
  std::size_t rr_next_ = 0;
  perf::PerfMgr* perf_ = nullptr;
  const perf::CongestionMap* congestion_ = nullptr;
};

}  // namespace ibvs::cloud
