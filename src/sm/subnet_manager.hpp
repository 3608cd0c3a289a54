// OpenSM-like subnet manager.
//
// Owns the management view of the subnet: the LID map, the chosen routing
// engine, and the *computed* (master) LFTs. A sweep performs the classic
// four stages, each individually measurable because the paper's cost model
// (eq. 1: RCt = PCt + LFTDt) splits exactly there:
//
//   1. discovery      — directed-route sweep, one Get(NodeInfo) per node +
//                       one Get(PortInfo) per connected port,
//   2. LID assignment — PortInfo Set per newly addressed port,
//   3. path computation (PCt) — the routing engine run,
//   4. LFT distribution (LFTDt) — per switch, send only the 64-entry blocks
//                       that differ from what the switch already has.
//
// The vSwitch layer (src/core) drives the same SubnetManager for its
// reconfigurations, writing individual LFT entries through
// update_master_entry() so master state and hardware state stay in lockstep.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "fabric/transport.hpp"
#include "ib/fabric.hpp"
#include "ib/lid_map.hpp"
#include "routing/engine.hpp"

namespace ibvs::sm {

struct DiscoveryReport {
  std::size_t nodes_found = 0;
  std::size_t switches_found = 0;
  std::size_t cas_found = 0;
  std::uint64_t smps = 0;
};

struct DistributionReport {
  std::uint64_t smps = 0;          ///< LFT block writes actually sent
  std::uint64_t blocks_skipped = 0;  ///< blocks already up to date
  std::size_t switches_touched = 0;
  double time_us = 0.0;  ///< batch makespan under the timing model
};

struct SweepReport {
  DiscoveryReport discovery;
  std::size_t lids_assigned = 0;
  double path_computation_seconds = 0.0;  ///< PCt
  DistributionReport distribution;        ///< LFTDt lives here

  [[nodiscard]] double reconfiguration_time_us() const noexcept {
    return path_computation_seconds * 1e6 + distribution.time_us;
  }
};

class SubnetManager {
 public:
  /// The SM runs on `sm_host` (a CA endpoint, like a dedicated SM node or a
  /// hypervisor PF — never a VM VF: the Shared Port model forbids that and
  /// the vSwitch model would allow it, see §IV).
  SubnetManager(Fabric& fabric, NodeId sm_host,
                std::unique_ptr<routing::RoutingEngine> engine,
                fabric::TimingModel timing = {});

  [[nodiscard]] Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] const Fabric& fabric() const noexcept { return fabric_; }
  [[nodiscard]] LidMap& lids() noexcept { return lids_; }
  [[nodiscard]] const LidMap& lids() const noexcept { return lids_; }
  [[nodiscard]] fabric::SmpTransport& transport() noexcept {
    return transport_;
  }
  [[nodiscard]] routing::RoutingEngine& engine() noexcept { return *engine_; }
  /// Swaps the routing engine; the next compute_routes() recomputes every
  /// switch.
  void set_engine(std::unique_ptr<routing::RoutingEngine> engine);

  /// Directed-route BFS over the fabric, counting discovery SMPs.
  DiscoveryReport discover();

  /// Adopts LIDs already programmed into the fabric's ports (what a real
  /// OpenSM does when taking over a running subnet: honor existing
  /// assignments read back via PortInfo), including a killed switch's, so
  /// the LID waits for its return. Returns how many were adopted.
  /// Idempotent; called automatically by assign_lids().
  std::size_t adopt_lids();

  /// Assigns LIDs to every unaddressed cabled switch (port 0) and CA port,
  /// in node order, after adopting existing ones. vSwitches share their
  /// PF's LID (§V: "the vSwitch does not need to occupy an additional
  /// LID"). Returns how many were newly assigned.
  std::size_t assign_lids();

  /// Assigns a LID to one port and accounts the PortInfo SMP.
  Lid assign_lid(NodeId node, PortNum port);

  /// Runs the routing engine over the master tables in place
  /// (RoutingEngine::recompute), handing it the switches whose tables were
  /// written since the last run — update_master_entry(), switches added by
  /// adopt_topology_change(), or every switch after set_engine() or
  /// invalidate_routes() — and the SM's hop matrix. Min-Hop re-chooses
  /// ports only where its inputs changed; the tables equal a cold run's
  /// either way.
  const routing::RoutingResult& compute_routes();

  /// Marks every master table as written and drops the hop matrix, so the
  /// next compute_routes() recomputes every switch and searches every hop
  /// row: the full recompute OpenSM runs.
  void invalidate_routes();

  /// The switch hop matrix of routing_result().graph (switch_hop_matrix()
  /// layout), brought up to date on demand by searching only the rows the
  /// cables changed since it was last current. The topology planners and
  /// journal recovery read it; routing runs update the same matrix.
  const std::vector<std::uint8_t>& hop_matrix();

  /// Hop-matrix rows searched so far, by routing runs and hop_matrix().
  [[nodiscard]] std::uint64_t hop_rows_searched() const noexcept {
    return hop_matrix_.rows_searched;
  }

  /// Sends every master LFT block that differs from the installed one.
  /// Switches with no path from the SM are skipped (like reconverge():
  /// they cannot be programmed, so their blocks are neither counted as
  /// sent nor as skipped). Switches are diffed and sent in index order, one
  /// at a time: the word-at-a-time diff costs less than a pool hand-off.
  DistributionReport distribute_lfts(
      SmpRouting routing = SmpRouting::kDirected);

  /// discover + assign_lids + compute_routes + distribute_lfts.
  SweepReport full_sweep();

  /// Outcome of reconverge(): repeated diff-distributions until the
  /// installed tables match the master ones.
  struct ReconvergeReport {
    std::size_t rounds = 0;  ///< distribution rounds run
    std::uint64_t smps = 0;  ///< LFT block writes across all rounds
    double time_us = 0.0;    ///< summed batch makespans
    bool converged = false;  ///< a round sent zero blocks
  };

  /// Recomputes routes, then repeatedly distributes the differing LFT
  /// blocks until a round sends none (every reachable switch verified up
  /// to date) or `max_rounds` is hit. Switches currently unreachable from
  /// the SM are skipped — they cannot be programmed — and remembered: once
  /// such a switch returns it gets a cold full-LFT resync (its installed
  /// state cannot be trusted after an outage), then rejoins normal
  /// diffing. With a lossy fault model attached to the
  /// transport this is the SM's recovery loop: a failed install leaves the
  /// block different, so the next round simply resends it.
  ReconvergeReport reconverge(std::size_t max_rounds = 64,
                              SmpRouting routing = SmpRouting::kDirected);

  /// The distribution half of reconverge(): repeated diff-rounds against the
  /// *current* master tables, without recomputing routes. This is the
  /// PCt-free recovery primitive the reconfiguration journal replays
  /// through — master entries patched by hand (update_master_entry, journal
  /// replay) must not be overwritten by a routing run before they reach the
  /// hardware.
  ReconvergeReport redistribute(std::size_t max_rounds = 64,
                                SmpRouting routing = SmpRouting::kDirected);

  /// Master tables of the last compute_routes() (empty before the first).
  [[nodiscard]] const routing::RoutingResult& routing_result() const {
    return routing_;
  }
  [[nodiscard]] bool has_routing() const noexcept { return routing_ready_; }

  /// Rewrites one master LFT entry (no SMP — the caller decides when and
  /// how to push blocks to hardware). Used by the vSwitch reconfigurators.
  void update_master_entry(routing::SwitchIdx sw, Lid lid, PortNum port);

  /// Refreshes the routing result's LID target list after LIDs were
  /// created, destroyed or moved without a full recompute.
  void refresh_targets();

  /// Adopts a structural fabric change — switch attached or detached, cable
  /// added or removed — without a routing recompute. Rebuilds the switch
  /// graph (dense indices are append-stable: nodes are never removed, so
  /// existing switches keep theirs), grows master LFTs for newly appended
  /// switches (born empty, every entry kDropPort), and invalidates the
  /// transport's cached topology. Existing master entries survive so
  /// topology transactions and journal replay can patch them incrementally
  /// instead of paying a full PCt.
  void adopt_topology_change();

  /// Switches currently known to need a cold full-LFT resync once they
  /// become reachable again (observed unreachable by a diff pass and not
  /// yet resynced). Exposed for tests.
  [[nodiscard]] std::size_t cold_resyncs_pending() const noexcept {
    return cold_pending_.size();
  }

  /// Pushes the master blocks containing `lid` (and any other dirty blocks
  /// of that switch) to the hardware of switch `sw`. Returns SMPs sent.
  std::uint64_t push_dirty_blocks(routing::SwitchIdx sw, SmpRouting routing);

  /// A port the health layer (PerfMgr) reported as unhealthy.
  struct FlaggedPort {
    NodeId node = kInvalidNode;
    PortNum port = 0;
    std::string reason;
  };

  /// Health-verdict intake: logs and remembers a degraded link. Repeated
  /// flags for the same (node, port) refresh the reason without growing the
  /// list, so steady-state polling does not spam.
  void flag_degraded_port(NodeId node, PortNum port, std::string_view reason);

  [[nodiscard]] const std::vector<FlaggedPort>& degraded_ports()
      const noexcept {
    return degraded_ports_;
  }

 private:
  /// One diff-and-send round, shared by distribute_lfts() and
  /// redistribute(): in switch-index order, skips switches the SM cannot
  /// reach, resolves cold resyncs, and sends each reachable switch's
  /// differing master blocks (all of them when cold) in one SMP batch.
  DistributionReport distribution_round(SmpRouting routing);

  Fabric& fabric_;
  LidMap lids_;
  fabric::SmpTransport transport_;
  std::unique_ptr<routing::RoutingEngine> engine_;
  routing::RoutingResult routing_;
  /// Beside routing_, not in it: an engine's cold compute() replaces
  /// routing_ wholesale.
  routing::HopMatrix hop_matrix_;
  /// Per master table: written since the last compute_routes().
  std::vector<bool> written_;
  /// Switches seen unreachable by distribution_round(). On a real fabric a
  /// switch returning from a power event holds an LFT the SM cannot trust
  /// (the simulation preserves installed tables, real hardware does not),
  /// so the first diff pass that finds one of these reachable again resends
  /// its *entire* master table instead of only the blocks that differ.
  std::unordered_set<NodeId> cold_pending_;
  bool routing_ready_ = false;
  std::vector<FlaggedPort> degraded_ports_;
};

}  // namespace ibvs::sm
