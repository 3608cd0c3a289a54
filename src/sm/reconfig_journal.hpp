// Write-ahead reconfiguration journal for live migrations and topology
// deltas.
//
// The paper's migration (§V-C, Algorithm 1) rewrites LFT entries on up to n
// switches; a master-SM death mid-batch leaves the fabric half-reconfigured
// with no record of what was in flight. OpenSM solves the analogous problem
// for LID assignments with guid2lid cache files; this journal does the same
// for reconfiguration deltas: before the vSwitch layer moves any address or
// sends any swap/copy SMP it records the full per-switch delta set
// (switch, lid, old_port, new_port), so a recovering SM — the same instance
// after an aborted batch, or a *new* master elected via SmElection — can
// deterministically replay the in-flight record to completion or roll it
// back, then redistribute diffs until the fabric is provably un-mixed.
// Topology deltas (sm/topology_txn) write the same record type with a
// cabling payload instead of an address payload.
//
// Records are keyed by durable identities only (NodeId, Lid, PortNum — never
// SwitchIdx, which is an artifact of one routing run), and replay is
// idempotent: applying a delta that is already in place marks nothing dirty
// and sends nothing.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "sm/subnet_manager.hpp"

namespace ibvs::sm {

/// One LFT entry rewrite, recorded before it is sent. `switch_node` is the
/// fabric NodeId of the physical switch (durable across SM failovers).
struct LftDelta {
  NodeId switch_node = kInvalidNode;
  Lid lid;
  PortNum old_port = 0;
  PortNum new_port = 0;

  [[nodiscard]] LftDelta inverse() const noexcept {
    return {switch_node, lid, new_port, old_port};
  }
};

enum class RecordState : std::uint8_t {
  kInFlight,    ///< begun, neither committed nor rolled back
  kCommitted,   ///< reconfiguration completed (possibly by replay)
  kRolledBack,  ///< inverse deltas applied, addresses restored
};

[[nodiscard]] const char* to_string(RecordState state);

/// Everything a recovering SM needs to finish or undo one migration. The
/// hypervisor/VF indices are opaque orchestrator-side tags: the SM never
/// interprets them, but carrying them lets the vSwitch layer reconcile its
/// slot bookkeeping with whatever outcome recovery chose.
struct MigrationPayload {
  std::uint32_t vm_id = 0;
  Lid vm_lid;
  /// The second LID of the record: the destination VF's prepopulated LID
  /// for a plain migration, or the peer VM's LID when swap_pair is set.
  Lid swapped_lid;
  Guid vguid;
  /// Destination-swap pair: two live VMs trading slots in one record. The
  /// peer's identity rides along so recovery can restore *both* VMs'
  /// addresses (the dst VF holds peer_vguid, not kInvalidGuid, on undo).
  bool swap_pair = false;
  std::uint32_t peer_vm_id = 0;  ///< orchestrator tag
  Guid peer_vguid = kInvalidGuid;
  NodeId src_vf = kInvalidNode;
  NodeId dst_vf = kInvalidNode;
  NodeId src_pf = kInvalidNode;
  NodeId dst_pf = kInvalidNode;
  PortNum src_vf_slot = 0;  ///< VF slot number on the source PF (SMP target)
  PortNum dst_vf_slot = 0;
  std::size_t src_hypervisor = 0;  ///< orchestrator tag
  std::size_t dst_hypervisor = 0;  ///< orchestrator tag
  std::size_t src_vf_index = 0;    ///< orchestrator tag
  std::size_t dst_vf_index = 0;    ///< orchestrator tag
};

/// Which structural change a topology record describes.
enum class TopologyOp : std::uint8_t {
  kAttachSwitch,  ///< new switch cabled in, LID assigned, routes grown
  kDetachSwitch,  ///< switch drained, cables severed, routes repaired
  kAddLink,       ///< one new cable between existing switches
  kRemoveLink,    ///< one cable removed, affected routes repaired
};

[[nodiscard]] const char* to_string(TopologyOp op);

/// Everything a recovering SM needs to finish or undo one topology delta.
/// The cable list carries exact endpoints so a rolled-back detach re-plugs
/// precisely what was severed, and a rolled-back attach unplugs precisely
/// what was added.
struct TopologyPayload {
  TopologyOp op = TopologyOp::kAddLink;
  /// The switch being attached or detached (kInvalidNode for link ops).
  NodeId subject = kInvalidNode;
  /// The subject switch's management LID: assigned on attach, released on
  /// detach, restored verbatim when the delta rolls back.
  Lid subject_lid;
  /// Cables this delta adds (attach/add_link) or removes
  /// (detach/remove_link).
  std::vector<CableSpec> cables;
};

/// One write-ahead record: a migration or a topology delta, keyed by
/// durable identities only.
struct JournalRecord {
  std::uint64_t id = 0;
  RecordState state = RecordState::kInFlight;
  /// Set once the record's outcome is folded into the caller's bookkeeping:
  /// by commit/roll_back on the transaction path, by recovery for topology
  /// records, by VSwitchFabric::reconcile_with_journal for recovered
  /// migrations.
  bool reconciled = false;
  /// Write-ahead mark, set before the op's first side effect: the address
  /// SMPs of a migration, the first plug/unplug of a topology delta.
  bool started = false;
  std::vector<LftDelta> deltas;  ///< the full planned LFT delta set
  std::variant<MigrationPayload, TopologyPayload> payload;

  [[nodiscard]] const MigrationPayload* migration() const noexcept {
    return std::get_if<MigrationPayload>(&payload);
  }
  [[nodiscard]] const TopologyPayload* topology() const noexcept {
    return std::get_if<TopologyPayload>(&payload);
  }
};

/// What ReconfigJournal::recover() did to the in-flight records.
struct RecoveryReport {
  std::size_t in_flight = 0;       ///< records that needed a decision
  std::size_t rolled_forward = 0;  ///< replayed to completion
  std::size_t rolled_back = 0;     ///< undone via inverse deltas
  /// VF LID/GUID and PortInfo SMPs the payloads' undo and redo sent.
  std::uint64_t address_smps = 0;
  double address_time_us = 0.0;  ///< batch makespan of those SMPs
  SubnetManager::ReconvergeReport redistribution;
};

class ReconfigJournal {
 public:
  /// Opens a record; assigns and returns its id. State starts kInFlight.
  std::uint64_t begin(std::variant<MigrationPayload, TopologyPayload> payload);

  /// Write-ahead mark: record `id`'s first side effect is about to happen.
  void record_started(std::uint64_t id);

  /// Write-ahead mark: the subject's LID for topology record `id`, recorded
  /// before the PortInfo SMP goes out (an attach learns the LID only
  /// mid-flight).
  void record_topology_lid(std::uint64_t id, Lid lid);

  /// Write-ahead mark: the LFT delta set for record `id`, recorded before
  /// any LFT SMP goes out.
  void record_deltas(std::uint64_t id, std::vector<LftDelta> deltas);

  /// Terminal marks from the transaction path; both set `reconciled`.
  void commit(std::uint64_t id);
  void roll_back(std::uint64_t id);

  [[nodiscard]] JournalRecord* find(std::uint64_t id);
  [[nodiscard]] const JournalRecord* find(std::uint64_t id) const;
  /// records() lists the migration records, topology_records() the
  /// topology records, each in journal order. The pointers stay valid
  /// until the next begin or truncate_reconciled.
  [[nodiscard]] std::vector<const JournalRecord*> records() const;
  [[nodiscard]] std::vector<const JournalRecord*> topology_records() const;
  [[nodiscard]] std::size_t in_flight() const;

  /// Drops terminal records whose outcome is reconciled, bounding journal
  /// growth. Returns how many were dropped.
  std::size_t truncate_reconciled();

  /// Crash-consistent replay, run by whichever SM owns the subnet now (a
  /// standby promoted by SmElection after the master died mid-batch, or the
  /// surviving instance after an aborted transaction). Every in-flight
  /// record — migrations first, then topology deltas — deterministically
  /// either rolls forward (started, deltas recorded and the destination
  /// still programmable: re-apply every delta to the master tables and
  /// redo the payload's LidMap/alias-GUID state) or rolls back (apply the
  /// inverse deltas and undo the payload's side effects, pricing the VF
  /// LID/GUID and PortInfo SMPs on the batch clock). Then redistributes
  /// master/installed diffs until convergence. No route recomputation
  /// happens: recovery keeps the PCt-free property (§VI). Idempotent — a
  /// second call finds nothing in flight and sends nothing.
  RecoveryReport recover(SubnetManager& sm, std::size_t max_rounds = 64,
                         SmpRouting routing = SmpRouting::kLidRouted);

 private:
  /// find() for a record that must exist and still be in flight.
  JournalRecord& in_flight_record(std::uint64_t id);

  std::vector<JournalRecord> records_;
  std::uint64_t next_id_ = 1;
};

}  // namespace ibvs::sm
