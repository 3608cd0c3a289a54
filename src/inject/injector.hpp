// Seeded, deterministic fault injection against a live fabric.
//
// The FaultInjector is the library's fault plane: it implements the
// fabric::LinkFaultModel hook (probabilistic MAD/packet drops and latency
// jitter, drawn from a SplitMix64 stream so every run replays exactly from
// its seed) and applies *structural* events directly to the Fabric — link
// cuts, link flaps, whole-node death and revival. Structural events behave
// like the physical world the PerfMgr watches: a cut ticks LinkDowned on
// both ports, a revival ticks LinkErrorRecovery, and a probabilistic drop
// ticks SymbolErrors at the receiver (done by the transport / credit
// simulator at the point of loss). Severed cables are remembered so a dead
// node can be revived with its exact original cabling.
//
// Attached SmpTransports are topology-invalidated on every structural
// change, the same contract Fabric::connect/disconnect callers follow.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "fabric/fault.hpp"
#include "fabric/transport.hpp"
#include "ib/fabric.hpp"
#include "util/rng.hpp"

namespace ibvs::inject {

/// Per-link fault parameters (applies to both directions of the cable).
struct LinkFault {
  double drop_probability = 0.0;  ///< per-traversal loss probability
  double jitter_max_us = 0.0;     ///< extra latency, uniform in [0, max)
};

class FaultInjector final : public fabric::LinkFaultModel {
 public:
  explicit FaultInjector(Fabric& fabric, std::uint64_t seed = 1);

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Registers a transport whose hop cache must be invalidated whenever a
  /// structural event changes the cabling.
  void attach_transport(fabric::SmpTransport* transport);

  // --- Probabilistic faults (the LinkFaultModel plane). ---

  /// Applies to every link that has no per-link override.
  void set_global_fault(const LinkFault& fault) noexcept {
    global_fault_ = fault;
  }
  [[nodiscard]] const LinkFault& global_fault() const noexcept {
    return global_fault_;
  }

  /// Sets the fault parameters of one cable, identified by either end.
  void set_link_fault(NodeId node, PortNum port, const LinkFault& fault);
  void clear_link_fault(NodeId node, PortNum port);

  bool drop_on_link(NodeId from, PortNum from_port, NodeId to,
                    PortNum to_port) override;
  double jitter_us(NodeId from, PortNum from_port, NodeId to,
                   PortNum to_port) override;

  // --- Structural events. ---

  /// Severs the cable at (node, port): both ports tick LinkDowned, the
  /// cable is remembered for restore_link()/revive_node(). No-op (returns
  /// false) if the port is not cabled.
  bool cut_link(NodeId node, PortNum port);

  /// Re-plugs the remembered cable at (node, port); both ports tick
  /// LinkErrorRecovery. Returns false when no severed cable matches or an
  /// end is no longer free.
  bool restore_link(NodeId node, PortNum port);

  /// Cut followed by immediate restore — the transient a retrained link
  /// shows: LinkDowned and LinkErrorRecovery both tick.
  bool flap_link(NodeId node, PortNum port);

  /// Severs every cable of `node` (each one a cut_link) and marks it dead.
  /// Returns the number of cables severed.
  std::size_t kill_node(NodeId node);

  /// Re-plugs every remembered cable of a dead `node` whose far end is
  /// still available. Returns the number of cables restored.
  std::size_t revive_node(NodeId node);

  [[nodiscard]] bool is_dead(NodeId node) const noexcept;

  /// Cables currently severed (most recent last).
  struct Cable {
    NodeId a = kInvalidNode;
    PortNum a_port = 0;
    NodeId b = kInvalidNode;
    PortNum b_port = 0;
  };
  [[nodiscard]] const std::vector<Cable>& severed() const noexcept {
    return severed_;
  }

  /// Totals over the injector's lifetime (also exported as the
  /// `ibvs_inject_events_total{event=...}` counter family).
  struct EventCounts {
    std::uint64_t cuts = 0;
    std::uint64_t restores = 0;
    std::uint64_t flaps = 0;
    std::uint64_t kills = 0;
    std::uint64_t revivals = 0;
    std::uint64_t drops = 0;  ///< probabilistic losses delivered via the hook
  };
  [[nodiscard]] const EventCounts& events() const noexcept { return events_; }

 private:
  [[nodiscard]] static std::uint64_t key(NodeId node, PortNum port) noexcept {
    return (static_cast<std::uint64_t>(node) << 8) | port;
  }
  /// The fault governing a traversal out of (from, from_port) into
  /// (to, to_port): per-link override on either end, else the global one.
  [[nodiscard]] const LinkFault& fault_for(NodeId from, PortNum from_port,
                                           NodeId to,
                                           PortNum to_port) const noexcept;
  void invalidate_transports();
  void note_structural_event(const char* label);

  Fabric& fabric_;
  std::uint64_t seed_;
  SplitMix64 rng_;
  LinkFault global_fault_;
  std::unordered_map<std::uint64_t, LinkFault> link_faults_;
  std::vector<Cable> severed_;
  std::vector<bool> dead_;
  std::vector<fabric::SmpTransport*> transports_;
  EventCounts events_;
};

}  // namespace ibvs::inject
