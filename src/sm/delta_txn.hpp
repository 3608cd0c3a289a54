// The delta-transaction core every reconfiguration runs through.
//
// A live migration (§V-C, Algorithm 1) and a topology delta are one
// protocol: a planner turns the change into per-switch LFT entry deltas,
// the journal records them before the first SMP, and only the dirty
// 64-entry blocks of the n' switches that change leave the SM — no path is
// recomputed. The planners live with their transactions (core/vswitch for
// migrations, sm/topology_txn for topology deltas); what they share lives
// here: the apply loop, the newest-first revert, the master-only replay a
// recovering SM runs, and the undo of each payload kind's side effects.
#pragma once

#include <cstdint>
#include <vector>

#include "sm/reconfig_journal.hpp"

namespace ibvs::sm {

/// SMPs one batch sent and its makespan on the batch clock.
struct SmpCost {
  std::uint64_t smps = 0;
  double time_us = 0.0;
};

/// Why apply_deltas returned; callers map the early stops to typed errors.
enum class ApplyStop : std::uint8_t {
  kDone,         ///< every planned delta applied
  kUnreachable,  ///< the next switch cannot be reached from the SM
  kAborted,      ///< abort_after_smps reached (simulated master death)
};

struct ApplyResult {
  ApplyStop stop = ApplyStop::kDone;
  NodeId at = kInvalidNode;  ///< the switch the pass stopped at
  std::size_t switches = 0;  ///< switches whose dirty blocks were pushed
  SmpCost cost;
};

/// Applies `planned` — the deltas of one switch adjacent — in one batch.
/// Per switch: append the entry now in place to `applied` (so a revert
/// restores the exact prior bytes), write the new entry into the master
/// table, push the dirty blocks. Stops before a switch the SM cannot reach
/// when `require_reachable`, and after the push that brings the
/// transaction's `sent_before` SMPs plus this pass's to `abort_after_smps`.
ApplyResult apply_deltas(SubnetManager& sm,
                         const std::vector<LftDelta>& planned,
                         std::vector<LftDelta>& applied, SmpRouting routing,
                         bool require_reachable,
                         std::uint64_t abort_after_smps,
                         std::uint64_t sent_before);

/// Writes `deltas` into the master tables only: forward sets the new ports
/// in order, backward restores the old ports newest first. Deltas for
/// switches outside the routing graph are skipped. Returns each touched
/// switch once, in first-touch order.
std::vector<routing::SwitchIdx> replay_master(
    SubnetManager& sm, const std::vector<LftDelta>& deltas, bool forward);

/// Undoes `applied`: a backward master replay, then one dirty-block push
/// per touched switch, in one batch. With `skip_unreachable`, switches the
/// SM cannot reach get no SMP; neither does `silent` (an attach subject
/// about to be unplugged again). Their master entries are restored anyway.
SmpCost revert_deltas(SubnetManager& sm, const std::vector<LftDelta>& applied,
                      SmpRouting routing, bool skip_unreachable = false,
                      NodeId silent = kInvalidNode);

/// Points a migration's two LIDs and alias GUIDs at the destination VF, or
/// back at the source. LidMap and fabric state only; sends nothing.
void place_addresses(SubnetManager& sm, const MigrationPayload& m,
                     bool at_destination);

/// Address undo: the LIDs and alias GUIDs go back to the source, then the
/// VF LID/GUID SMPs re-attach both VFs (the reverse of §V-C step a).
SmpCost undo_addresses(SubnetManager& sm, const MigrationPayload& m,
                       SmpRouting routing);

/// Cabling undo: unplugs the added cables or re-plugs the removed ones,
/// tolerating cables the mutation never reached or something else changed
/// since; then releases an attach subject's LID, or re-assigns a detach
/// subject's with its PortInfo SMP.
SmpCost undo_cabling(SubnetManager& sm, const TopologyPayload& t);

}  // namespace ibvs::sm
