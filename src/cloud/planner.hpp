// Fleet-level migration planning: batched, conflict-aware scheduling of
// concurrent MigrationTxns.
//
// The paper reconfigures the subnet for ONE migration; a production cloud
// runs thousands — rack evacuations, tenant consolidation, congestion
// rebalancing. Two ingredients from the literature close the gap:
// destination-swap moves (two VMs trade slots in one fused transaction,
// cheaper than two copies and possible even when both hosts are full) and
// migration planning (ordering moves under shared-resource constraints to
// bound total cost and transient interference).
//
// MigrationPlanner turns a FleetGoal into a MigrationPlan of *batches*.
// Consolidation and rebalancing emit a fused destination-swap move when the
// preferred target is full; an evacuation never does (it must not park the
// peer on the host being drained). Batches are unbounded in size.
// Moves inside a batch are pairwise conflict-free and may overlap in time;
// conflicting moves are ordered across batches, hottest exposure first, so
// congested uplinks are relieved as early as possible.
//
// The conflict model (see conflict()) distinguishes two concurrency
// regimes. Under this repo's executor every reconfiguration is emitted by
// the single master SM, serially, in member index order — so overlapping
// LFT writes are read-modify-written sequentially and cannot race, and the
// only true dependencies between moves are VF-slot ones: two moves into
// the same host contend for its free slots, and a move into a host depends
// on the move that vacates its slot. That endpoint rule alone decides
// batch membership by default — which is what lets a whole hypervisor
// drain in one batch even though every member's update set contains the
// source leaf. The §VI-D disjoint-set rule exists for *uncoordinated*
// reconfigurations (independent agents emitting concurrently); Options::
// uncoordinated restores that regime, refined from whole switches to the
// (switch, 64-LID block) write unit — the granularity at which one agent's
// block write would clobber another's in-flight entry.
//
// PlanExecutor drives batches through the transactional migrate path
// (CloudOrchestrator::migrate_txn / swap_txn) with per-batch abort policy:
// one member rolls back alone while the rest of its batch proceeds, and a
// failed batch can re-plan the remainder from live fabric state. Member
// reconfigurations are serialized in index order — the PR-4 determinism
// contract: the SMP stream is byte-identical at any thread count — while
// the wall-clock phases (detach, memory copy, attach) overlap, so a batch
// costs the *maximum* of its members, not the sum.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cloud/orchestrator.hpp"
#include "sm/topology_txn.hpp"

namespace ibvs::cloud {

enum class FleetGoalKind {
  kEvacuateHypervisor,  ///< drain every VM off one host (maintenance)
  kEvacuateLeaf,        ///< drain every host under one leaf switch (rack)
  kConsolidateVms,      ///< pack the given VMs onto as few hosts as possible
  kRebalanceCongestion, ///< move VMs off hot uplinks (needs a congestion map)
};

[[nodiscard]] const char* to_string(FleetGoalKind kind);

struct FleetGoal {
  FleetGoalKind kind = FleetGoalKind::kEvacuateHypervisor;
  std::size_t hypervisor = 0;        ///< kEvacuateHypervisor
  NodeId leaf = kInvalidNode;        ///< kEvacuateLeaf
  std::vector<core::VmHandle> vms;   ///< kConsolidateVms (the tenant)
  /// kRebalanceCongestion: cap on moves (0 = one per hot host).
  std::size_t max_moves = 0;
};

/// One scheduled move. swap_with.valid() marks a fused destination swap:
/// this VM and the peer trade slots in a single MigrationTxn.
struct PlannedMove {
  core::VmHandle vm;
  std::size_t src_hypervisor = 0;
  std::size_t dst_hypervisor = 0;
  core::VmHandle swap_with;
  /// Predicted switch update set (sorted SwitchIdx), for reporting and the
  /// plan property tests.
  std::vector<routing::SwitchIdx> update_set;
  /// Predicted SMP write units: (SwitchIdx << 32) | lid_block, sorted.
  /// This is the conflict-detection granularity.
  std::vector<std::uint64_t> update_keys;
  std::uint64_t predicted_smps = 0;  ///< LFT write units + address SMPs
  /// Congestion score of the two endpoint uplinks (0 without a map); moves
  /// relieving hotter links order earlier across batches.
  std::uint64_t hot_exposure = 0;

  [[nodiscard]] bool is_swap() const noexcept { return swap_with.valid(); }
};

struct MigrationBatch {
  std::vector<PlannedMove> moves;
};

struct MigrationPlan {
  FleetGoal goal;
  std::vector<MigrationBatch> batches;

  [[nodiscard]] std::size_t total_moves() const noexcept {
    std::size_t n = 0;
    for (const auto& b : batches) n += b.moves.size();
    return n;
  }
  [[nodiscard]] std::size_t swap_moves() const noexcept {
    std::size_t n = 0;
    for (const auto& b : batches) {
      for (const auto& m : b.moves) n += m.is_swap() ? 1 : 0;
    }
    return n;
  }
  [[nodiscard]] std::uint64_t predicted_smps() const noexcept {
    std::uint64_t n = 0;
    for (const auto& b : batches) {
      for (const auto& m : b.moves) n += m.predicted_smps;
    }
    return n;
  }
};

[[nodiscard]] std::string to_string(const MigrationPlan& plan);

class MigrationPlanner {
 public:
  struct Options {
    core::ReconfigMode mode = core::ReconfigMode::kMinimal;
    /// Plan for uncoordinated emission: batch members' SMP streams may
    /// interleave (multiple agents, no serialization), so moves whose
    /// predicted writes share a (switch, LFT-block) SMP unit additionally
    /// conflict — §VI-D's rule at write-unit granularity. The default
    /// (false) models this repo's executor: one master SM, serial
    /// index-ordered emission, endpoint conflicts only.
    bool uncoordinated = false;
  };

  explicit MigrationPlanner(CloudOrchestrator& cloud);
  MigrationPlanner(CloudOrchestrator& cloud, Options options);

  /// Plans from live fabric state. Deterministic: same state + goal ->
  /// byte-identical plan.
  [[nodiscard]] MigrationPlan plan(const FleetGoal& goal) const;

  /// The batch-membership predicate: true when the two moves must NOT run
  /// in the same batch — a shared destination host, one's destination
  /// being the other's source (VF slot chaining), or, with `uncoordinated`
  /// set, shared SMP write units ((switch, LFT-block) pairs).
  [[nodiscard]] static bool conflict(const PlannedMove& a,
                                     const PlannedMove& b,
                                     bool uncoordinated);

  /// conflict() under this planner's configured regime.
  [[nodiscard]] bool conflicts(const PlannedMove& a,
                               const PlannedMove& b) const {
    return conflict(a, b, options_.uncoordinated);
  }

  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  struct RawMove {
    core::VmHandle vm;
    std::size_t src = 0;
    std::size_t dst = 0;
    core::VmHandle swap_with;
  };

  [[nodiscard]] std::vector<RawMove> moves_for(const FleetGoal& goal) const;
  void annotate(std::vector<PlannedMove>& moves) const;

  CloudOrchestrator* cloud_;
  Options options_;
};

/// Per-batch outcome of one execution pass.
struct BatchExecution {
  double elapsed_s = 0.0;  ///< max over members (wall phases overlap)
  double serial_s = 0.0;   ///< sum over members
  std::size_t committed = 0;
  std::size_t rolled_back = 0;
  std::size_t failed = 0;
  std::size_t skipped = 0;  ///< revalidation dropped the member pre-txn
  std::uint64_t smps = 0;   ///< reconfiguration SMPs of committed members
  std::uint64_t rollback_smps = 0;
  std::vector<MigrationTxnReport> reports;
};

struct ExecutorPolicy {
  TxnPolicy txn;
  /// After a pass with rollbacks/failures, re-plan the remainder from live
  /// fabric state and run again (the goal is state-derived, so a re-plan
  /// covers exactly the unfinished moves).
  bool replan_on_failure = true;
  /// Chaos hook, called before each batch executes (may mutate the fabric).
  std::function<void(std::size_t, const MigrationBatch&)> on_batch_start;
  /// Called after each batch's members ran, before accounting rolls up —
  /// the chaos harness reconverges and checker-verifies here.
  std::function<void(std::size_t, const MigrationBatch&,
                     const BatchExecution&)>
      on_batch_end;
};

struct FleetExecution {
  double makespan_s = 0.0;  ///< sum of batch maxima
  double serial_s = 0.0;    ///< what one-at-a-time would have cost
  std::uint64_t smps = 0;
  std::uint64_t rollback_smps = 0;
  std::size_t committed = 0;
  std::size_t rolled_back = 0;
  std::size_t failed = 0;
  std::size_t skipped = 0;
  std::size_t swaps_committed = 0;
  std::size_t replans = 0;
  std::vector<BatchExecution> batches;
};

/// Outcome of one drain-and-detach: the evacuation fleet run (empty when
/// the leaf hosted no VMs) followed by the topology transaction that
/// severed the switch.
struct DrainDetachReport {
  MigrationPlan plan;
  FleetExecution evacuation;
  std::size_t vms_evacuated = 0;
  sm::TopologyTxn detach;
};

/// Maintenance drain: evacuates every VM resident under `leaf` with the
/// fleet planner (kEvacuateLeaf — batched, conflict-aware, swap-free), then
/// detaches the switch through a journaled TopologyTxnManager transaction.
/// The detach passes allow_orphan_endpoints because the emptied
/// hypervisors' PF/vSwitch LIDs stay cabled below the leaf (dark until a
/// re-attach); *VM* LIDs still resident after the evacuation — a fleet pass
/// that exhausted its re-plans — abort with TopologyErrc::kNotDrained
/// before any cable moves.
DrainDetachReport drain_and_detach(
    CloudOrchestrator& cloud, NodeId leaf,
    const core::MigrationOptions& options = {},
    const ExecutorPolicy& policy = {});

class PlanExecutor {
 public:
  explicit PlanExecutor(CloudOrchestrator& cloud);

  /// Runs the plan batch by batch. Members are revalidated against live
  /// fabric state, then their transactions execute in index order —
  /// conflict-freedom makes any interleaving equivalent, and index order
  /// keeps the SMP stream deterministic. One member's rollback never
  /// aborts its batch; a pass that left rollbacks/failures behind
  /// re-plans via `planner`, at most twice.
  FleetExecution execute(const MigrationPlanner& planner,
                         const MigrationPlan& plan,
                         const core::MigrationOptions& options = {},
                         const ExecutorPolicy& policy = {});

 private:
  CloudOrchestrator* cloud_;
};

}  // namespace ibvs::cloud
