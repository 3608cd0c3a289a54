// Transactional live topology reconfiguration.
//
// The paper's vSwitch architecture reconfigures a *fixed* fabric; production
// fabrics add and drain switches and links while tenants keep running. This
// manager makes those structural changes first-class reconfiguration
// transactions in the MigrationTxn state-machine style, planners feeding
// the shared delta-transaction core (sm/delta_txn):
//
//   begin_*      — validate the delta and open a write-ahead journal record
//                  (subject, exact cable endpoints, the LID at stake),
//   txn_mutate   — change the cabling (mark journaled before the first
//                  plug/unplug),
//   txn_reroute  — adopt the new structure without a routing run
//                  (append-stable dense indices, empty master tables for new
//                  switches), plan the minimal per-LID repair via BFS columns
//                  + skyline minimal_update_set, journal the full delta set,
//                  then apply it through the core's apply loop and verify
//                  with a redistribute loop until a zero-send round,
//   txn_commit   — mark the journal record terminal, or
//   txn_rollback — replay inverse deltas newest-first, un-plug / re-plug the
//                  exact recorded cables and restore the subject's LID for a
//                  byte-identical return to the pre-transaction fabric.
//
// A master SM dying mid-transaction leaves the record in flight; the journal
// rolls it forward or back on the next recover() — including from a standby
// promoted by SmElection — so the fabric is never left half-mutated. No
// phase recomputes routes: topology deltas keep the PCt-free property the
// paper proves for VM migrations (§VI).
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "sm/reconfig_journal.hpp"

namespace ibvs::sm {

enum class TopologyErrc {
  kNotASwitch,     ///< subject is not a physical switch
  kAlreadyCabled,  ///< attach target still has cables plugged
  kNotCabled,      ///< detach/remove target has no cable to remove
  kBadCable,       ///< endpoint not a switch, port taken or out of range
  kNotDrained,     ///< detach target still hosts endpoint LIDs
  kWouldSeverSm,   ///< delta would cut the SM off its own subnet
  kRerouteFailed,  ///< no connectivity-sufficient repair exists
  kInterrupted,    ///< reconfiguration batch cut short (fault injection)
};

[[nodiscard]] const char* to_string(TopologyErrc code);

/// Typed failure for topology transactions, mirroring core::MigrationError.
class TopologyError : public std::runtime_error {
 public:
  TopologyError(TopologyErrc code, const std::string& what)
      : std::runtime_error(what), code_(code) {}

  [[nodiscard]] TopologyErrc code() const noexcept { return code_; }

 private:
  TopologyErrc code_;
};

enum class TopologyTxnState : std::uint8_t {
  kPrepared,    ///< validated, journal record open, nothing changed yet
  kMutated,     ///< cabling changed; re-route pending
  kRerouted,    ///< minimal repair applied and verified converged
  kCommitted,   ///< terminal: delta is part of the fabric
  kRolledBack,  ///< terminal: fabric byte-identical to before begin_*
};

[[nodiscard]] const char* to_string(TopologyTxnState state);

struct TopologyTxnStats {
  std::uint64_t lft_smps = 0;         ///< LFT block writes in the apply pass
  std::uint64_t addressing_smps = 0;  ///< PortInfo SMPs (subject LID)
  double apply_time_us = 0.0;         ///< batch makespan of the apply pass
  std::size_t switches_updated = 0;   ///< switches whose tables changed
  std::size_t switches_total = 0;     ///< switches in the routing graph
  std::size_t lids_rerouted = 0;      ///< LIDs with at least one delta
  /// The verification tail: diff-redistribution until a zero-send round.
  SubnetManager::ReconvergeReport verify;
};

/// One in-flight topology delta. Like MigrationTxn a plain value the caller
/// owns; `applied` records every master entry actually rewritten (with the
/// value in place immediately before the write) so rollback can restore the
/// exact prior bytes by replaying inverses newest-first.
struct TopologyTxn {
  std::uint64_t id = 0;  ///< journal record id
  TopologyOp op = TopologyOp::kAddLink;
  NodeId subject = kInvalidNode;
  Lid subject_lid;
  std::vector<CableSpec> cables;
  bool allow_orphan_endpoints = false;
  TopologyTxnState state = TopologyTxnState::kPrepared;
  std::vector<LftDelta> applied;
  TopologyTxnStats stats;
  std::uint64_t rollback_smps = 0;
  double rollback_time_us = 0.0;

  [[nodiscard]] bool terminal() const noexcept {
    return state == TopologyTxnState::kCommitted ||
           state == TopologyTxnState::kRolledBack;
  }
};

struct TopologyApplyOptions {
  /// Abort (throw kInterrupted) once this many SMPs went out — the chaos
  /// harness uses it to simulate a master death mid-delta.
  std::uint64_t abort_after_smps = std::numeric_limits<std::uint64_t>::max();
};

/// BFS-column helpers shared by the transaction planner and the journal's
/// post-rollback route repair. `hops` is SubnetManager::hop_matrix().
/// repair_port_toward returns the first adjacency-order egress port of `s`
/// on a shortest path toward `t` (kDropPort when unreachable or s == t);
/// repair_route_column builds the full per-switch forwarding column for a
/// LID delivered at (t, delivery_port).
[[nodiscard]] PortNum repair_port_toward(const routing::SwitchGraph& g,
                                         const std::vector<std::uint8_t>& hops,
                                         routing::SwitchIdx s,
                                         routing::SwitchIdx t);
[[nodiscard]] std::vector<PortNum> repair_route_column(
    const routing::SwitchGraph& g, const std::vector<std::uint8_t>& hops,
    routing::SwitchIdx t, PortNum delivery_port);

class TopologyTxnManager {
 public:
  TopologyTxnManager(SubnetManager& sm, ReconfigJournal& journal)
      : sm_(sm), journal_(journal) {}

  /// Validates and journals an attach: `sw` must be a fresh (cable-free)
  /// physical switch, every cable `{sw, port, peer switch, peer port}` with
  /// both ports currently free.
  TopologyTxn begin_attach_switch(NodeId sw, std::vector<CableSpec> cables);

  /// Validates and journals a detach. Refuses (kNotDrained) while endpoint
  /// LIDs still attach through `sw` unless `allow_orphan_endpoints` — the
  /// cloud layer drains resident VMs first (see cloud::drain_and_detach).
  TopologyTxn begin_detach_switch(NodeId sw,
                                  bool allow_orphan_endpoints = false);

  TopologyTxn begin_add_link(CableSpec cable);
  TopologyTxn begin_remove_link(NodeId node, PortNum port);

  /// Applies the cabling change recorded at begin time.
  void txn_mutate(TopologyTxn& txn);

  /// Adopts the mutated structure, plans and applies the minimal re-route,
  /// verifies convergence. Throws kInterrupted on the abort hook and
  /// kRerouteFailed when no connectivity-sufficient repair exists (e.g. the
  /// removed link was a bridge) — the caller rolls back.
  void txn_reroute(TopologyTxn& txn, const TopologyApplyOptions& opts = {});

  void txn_commit(TopologyTxn& txn);
  void txn_rollback(TopologyTxn& txn);

  /// One-shot conveniences: begin → mutate → reroute → commit, rolling back
  /// and rethrowing on any failure.
  TopologyTxn attach_switch(NodeId sw, std::vector<CableSpec> cables,
                            const TopologyApplyOptions& opts = {});
  TopologyTxn detach_switch(NodeId sw, bool allow_orphan_endpoints = false,
                            const TopologyApplyOptions& opts = {});
  TopologyTxn add_link(CableSpec cable, const TopologyApplyOptions& opts = {});
  TopologyTxn remove_link(NodeId node, PortNum port,
                          const TopologyApplyOptions& opts = {});

 private:
  TopologyTxn open(TopologyPayload payload);
  void run(TopologyTxn& txn, const TopologyApplyOptions& opts);
  void plan_attach(TopologyTxn& txn, std::vector<LftDelta>& planned) const;
  void plan_detach(TopologyTxn& txn, std::vector<LftDelta>& planned) const;
  void plan_remove_link(TopologyTxn& txn,
                        std::vector<LftDelta>& planned) const;

  SubnetManager& sm_;
  ReconfigJournal& journal_;
};

}  // namespace ibvs::sm
