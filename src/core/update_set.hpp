// The one decision a migration makes (§V-C Algorithm 1, §VI-D): which of
// the n' switches change, and to which port, for the VM LID and — on a
// prepopulated move or a destination swap — for the second LID that takes
// the VM's entries back. The transaction (VSwitchFabric::txn_apply_lfts)
// and the orchestrator's predictions both plan through plan_update_set(),
// so a prediction is the plan the transaction will execute.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "routing/engine.hpp"
#include "sm/reconfig_journal.hpp"

namespace ibvs::core {

/// How step (b) picks the switches to update.
enum class ReconfigMode {
  /// Algorithm 1: iterate all switches, update where entries change.
  /// Preserves the initial balancing.
  kDeterministic,
  /// §VI-D: update only a connectivity-sufficient (skyline) set. Touches
  /// fewer switches — exactly one for an intra-leaf migration — at the cost
  /// of possibly degrading the initial balancing.
  kMinimal,
};

/// Where a LID is delivered: its leaf switch and the leaf's port toward it.
using Attachment = std::pair<NodeId, PortNum>;

struct UpdateRequest {
  Lid vm_lid{};
  /// The LID whose entries the VM LID takes: the destination PF's for a
  /// dynamic copy, the destination VF's for a prepopulated move, the
  /// peer's for a swap.
  Lid takes_from{};
  /// Whether `takes_from` takes the VM LID's entries back (a prepopulated
  /// move or a swap); a dynamic copy leaves the PF's entries alone.
  bool swap_back = false;
  Attachment vm_at{};    ///< the VM LID's attachment after the move
  Attachment back_at{};  ///< `takes_from`'s after the move, when swap_back
  /// Compute the skyline sets in deterministic mode too, only to report
  /// minimal_set_size (kMinimal always computes them).
  bool measure_minimal = false;
};

struct UpdatePlan {
  Lid vm_lid;
  /// The LID taking the VM's entries back; invalid for a dynamic copy.
  Lid swapped_lid;
  std::vector<routing::SwitchIdx> vm_set;       ///< sorted dense indices
  std::vector<routing::SwitchIdx> swapped_set;  ///< empty without swap_back
  std::vector<routing::SwitchIdx> update_set;   ///< their union: the n'
  /// Size of the union of the per-LID §VI-D skyline sets; 0 when not
  /// computed (deterministic mode without measure_minimal).
  std::size_t minimal_set_size = 0;
  /// Logical old -> new entries, switch-adjacent in update_set order, the
  /// VM LID before the swapped LID on each switch.
  std::vector<sm::LftDelta> deltas;

  /// The LIDs the plan writes: the VM LID, then the swapped LID if any.
  [[nodiscard]] std::vector<Lid> lids() const {
    return swapped_lid.valid() ? std::vector<Lid>{vm_lid, swapped_lid}
                               : std::vector<Lid>{vm_lid};
  }
};

/// Pure: reads the master tables, never the installed ones or the LidMap.
UpdatePlan plan_update_set(const routing::RoutingResult& master,
                           const UpdateRequest& request, ReconfigMode mode);

}  // namespace ibvs::core
