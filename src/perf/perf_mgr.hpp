// PerfMgr: periodic PMA polling sweeps over the fabric (the OpenSM PerfMgr
// / ibdiagnet role).
//
// Each sweep issues one Get(PortCounters) — plus, by default, one
// Get(PortCountersExtended) — per connected port, through the same
// SmpTransport the SM uses, so monitoring is not free: its MADs land in the
// ibvs_smp_total telemetry, consume the batch pipeline, and even tick the
// very PortCounters they read on the ports they traverse.
//
// Across sweeps the PerfMgr keeps the previous sample per port and reports
// *deltas*, with the classic-counter pathologies handled the way a real
// PerfMgr must:
//
//  * a classic field pegged at its width makes the delta a lower bound
//    (flagged `saturated`);
//  * a sample smaller than the previous one means the counter block was
//    cleared between polls, so the delta restarts from zero;
//  * once any classic field passes `clear_fraction` of its width the
//    PerfMgr issues a Set(PortCounters) clear itself — one more MAD —
//    keeping the narrow counters usable (OpenSM clears at 3/4 full);
//  * with `poll_extended` the 64-bit data/packet counters take over delta
//    computation entirely (`from_extended`), immune to saturation.
//
// The health/anomaly layer on top lives in perf/health.hpp.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sm/subnet_manager.hpp"

namespace ibvs::perf {

struct PerfMgrConfig {
  /// Also poll PortCountersExtended (doubles the Get MADs per port, removes
  /// 32-bit saturation from the data/packet deltas).
  bool poll_extended = true;
  /// Poll CA/PF/VF ports too, not just switch external ports.
  bool include_ca_ports = true;
  /// Clear the classic block once any field passes this fraction of its
  /// width. <= 0 disables proactive clearing.
  double clear_fraction = 0.75;
  /// PMA MADs are GMPs on QP1: LID-routed unless the fabric has no routes.
  SmpRouting routing = SmpRouting::kLidRouted;
};

/// Counter movement of one port between the last two polls (64-bit: deltas
/// never saturate even when the underlying classic counters do).
struct PortDelta {
  NodeId node = kInvalidNode;
  PortNum port = 0;
  std::uint64_t xmit_data = 0;
  std::uint64_t rcv_data = 0;
  std::uint64_t xmit_pkts = 0;
  std::uint64_t rcv_pkts = 0;
  std::uint64_t xmit_wait = 0;
  std::uint64_t symbol_errors = 0;
  std::uint64_t xmit_discards = 0;
  std::uint64_t rcv_errors = 0;
  std::uint64_t congestion_marks = 0;
  std::uint64_t link_downed = 0;
  std::uint64_t link_error_recovery = 0;
  bool saturated = false;      ///< a classic field pegged: lower-bound delta
  bool cleared = false;        ///< PerfMgr cleared the block after reading
  bool from_extended = false;  ///< data/pkt deltas came from 64-bit counters
};

struct SweepReport {
  std::uint64_t sweep_index = 0;  ///< 1-based
  std::size_t ports_polled = 0;
  std::uint64_t mads = 0;    ///< Gets + clears this sweep cost
  std::uint64_t clears = 0;  ///< proactive Set(PortCounters) clears
  double time_us = 0.0;      ///< batch makespan under the timing model
  std::vector<PortDelta> deltas;  ///< one per polled port

  [[nodiscard]] const PortDelta* find(NodeId node, PortNum port) const;
};

struct PortKey {
  NodeId node = kInvalidNode;
  PortNum port = 0;
};

/// Absolute 64-bit reading of one port, for before/after snapshots.
struct PortReading {
  NodeId node = kInvalidNode;
  PortNum port = 0;
  std::uint64_t xmit_data = 0;
  std::uint64_t rcv_data = 0;
  std::uint64_t xmit_pkts = 0;
  std::uint64_t rcv_pkts = 0;
  std::uint64_t xmit_wait = 0;
  std::uint64_t xmit_discards = 0;
  std::uint64_t symbol_errors = 0;
};

/// Traffic measured across one migration on the source and destination
/// hypervisor uplinks (leaf-switch egress ports), polled via PMA MADs by
/// the orchestrator right before and right after the flow.
struct MigrationImpact {
  PortReading src_before, src_after;
  PortReading dst_before, dst_after;
  std::uint64_t poll_mads = 0;  ///< MADs the two snapshots themselves cost

  [[nodiscard]] std::uint64_t src_pkts_delta() const noexcept {
    return (src_after.xmit_pkts - src_before.xmit_pkts) +
           (src_after.rcv_pkts - src_before.rcv_pkts);
  }
  [[nodiscard]] std::uint64_t dst_pkts_delta() const noexcept {
    return (dst_after.xmit_pkts - dst_before.xmit_pkts) +
           (dst_after.rcv_pkts - dst_before.rcv_pkts);
  }
  [[nodiscard]] std::uint64_t data_dwords_delta() const noexcept {
    return (src_after.xmit_data - src_before.xmit_data) +
           (src_after.rcv_data - src_before.rcv_data) +
           (dst_after.xmit_data - dst_before.xmit_data) +
           (dst_after.rcv_data - dst_before.rcv_data);
  }
};

class PerfMgr {
 public:
  explicit PerfMgr(sm::SubnetManager& sm, PerfMgrConfig config = {});

  /// One polling sweep over every connected port. MAD costs go through the
  /// SM's transport (batched, so time_us is a pipelined makespan).
  SweepReport sweep();

  /// Polls just the given ports (both classic and extended) and returns
  /// absolute readings. Does not disturb the sweep delta history.
  std::vector<PortReading> read_ports(const std::vector<PortKey>& ports);

  [[nodiscard]] const PerfMgrConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] sm::SubnetManager& subnet_manager() noexcept { return sm_; }

 private:
  struct History {
    PortCounters last;
    bool valid = false;
  };
  static std::uint64_t key(NodeId node, PortNum port) noexcept {
    return (static_cast<std::uint64_t>(node) << 8) | port;
  }
  PortDelta poll_port(NodeId node, PortNum port, SweepReport& report);

  sm::SubnetManager& sm_;
  PerfMgrConfig config_;
  std::uint64_t sweeps_ = 0;
  std::unordered_map<std::uint64_t, History> history_;
};

}  // namespace ibvs::perf
