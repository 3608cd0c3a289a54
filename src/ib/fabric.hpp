// The subnet: nodes (switches and channel adapters), ports, and links.
//
// Switches come in two flavours. *Physical* switches are real crossbars with
// a hardware LFT that the SM programs via SMPs — every SMP count in the paper
// refers to these. *vSwitches* are the SR-IOV vSwitch entities of §IV-B: the
// HCA presents itself to the subnet as a tiny switch with the PF and the VFs
// hanging off it. A vSwitch has no LFT of its own here; it forwards
// functionally (towards a local endpoint if the destination LID is attached,
// otherwise out of the uplink), mirroring the fact that all VFs share the
// PF's uplink — the property the paper's reconfiguration method exploits.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ib/lft.hpp"
#include "ib/mft.hpp"
#include "ib/port_counters.hpp"
#include "ib/types.hpp"

namespace ibvs {

enum class NodeKind : std::uint8_t { kSwitch, kCa };

/// Distinguishes what a channel adapter endpoint represents.
enum class CaRole : std::uint8_t {
  kPhysical,  ///< a plain (non-virtualized) HCA port
  kPf,        ///< SR-IOV physical function, used by the hypervisor
  kVf,        ///< SR-IOV virtual function, assigned to a VM
};

enum class SwitchFlavor : std::uint8_t {
  kPhysical,  ///< real switch with a hardware LFT
  kVSwitch,   ///< SR-IOV vSwitch emulated inside an HCA
};

/// One port of a node. Ports are numbered 1..N; switch port 0 is the
/// management port (it carries the switch LID but never a cable).
struct Port {
  NodeId peer = kInvalidNode;
  PortNum peer_port = 0;
  Lid lid;  ///< base LID of this port (CA ports); unused for switch external ports
  /// LID Mask Control: the port answers to 2^lmc consecutive LIDs starting
  /// at `lid` (the base must be aligned). §V-A compares this classic
  /// multipathing feature against prepopulated VF LIDs, which provide the
  /// same alternative-path benefit without the sequentiality requirement.
  std::uint8_t lmc = 0;
  /// PMA counter block. Hardware counters tick even on read-only views of
  /// the fabric (credit_sim takes const Fabric&), hence mutable.
  mutable PortCounters counters;

  [[nodiscard]] bool connected() const noexcept { return peer != kInvalidNode; }

  /// Does this port answer to `l` (base LID or any LMC alias)?
  [[nodiscard]] bool owns(Lid l) const noexcept {
    if (!lid.valid() || !l.valid()) return false;
    const std::uint32_t base = lid.value();
    return l.value() >= base && l.value() < base + (1u << lmc);
  }
};

struct Node {
  NodeKind kind = NodeKind::kCa;
  SwitchFlavor flavor = SwitchFlavor::kPhysical;  // switches only
  CaRole role = CaRole::kPhysical;                // CAs only
  std::string name;
  Guid guid;
  /// Alias (virtual) GUID, used on VFs: it migrates with the VM while the
  /// manufacturer `guid` stays with the hardware function.
  Guid alias_guid;
  /// ports[0] is the management port; external ports are 1..num_ports.
  std::vector<Port> ports;
  /// Installed (hardware) LFT. Physical switches only.
  Lft lft;
  /// Installed (hardware) multicast forwarding table. Physical switches.
  Mft mft;

  [[nodiscard]] bool is_switch() const noexcept {
    return kind == NodeKind::kSwitch;
  }
  [[nodiscard]] bool is_physical_switch() const noexcept {
    return is_switch() && flavor == SwitchFlavor::kPhysical;
  }
  [[nodiscard]] bool is_vswitch() const noexcept {
    return is_switch() && flavor == SwitchFlavor::kVSwitch;
  }
  [[nodiscard]] bool is_ca() const noexcept { return kind == NodeKind::kCa; }

  /// Number of external ports (1..num_ports usable).
  [[nodiscard]] std::size_t num_ports() const noexcept {
    return ports.empty() ? 0 : ports.size() - 1;
  }

  /// Switch LID lives on port 0; CA LID on port 1 (single-port CAs).
  [[nodiscard]] Lid lid() const noexcept {
    if (is_switch()) return ports.empty() ? Lid{} : ports[0].lid;
    return ports.size() > 1 ? ports[1].lid : Lid{};
  }
};

/// One physical cable, described from `a`'s side. Topology deltas record
/// cables in this form so an exact cabling can be severed and later restored
/// (rollback of a detach, revival of a killed switch).
struct CableSpec {
  NodeId a = kInvalidNode;
  PortNum port_a = 0;
  NodeId b = kInvalidNode;
  PortNum port_b = 0;
};

/// Mutable container for the whole subnet.
class Fabric {
 public:
  Fabric() = default;

  /// Adds a switch with `num_ports` external ports. Returns its NodeId.
  NodeId add_switch(std::string_view name, std::size_t num_ports,
                    SwitchFlavor flavor = SwitchFlavor::kPhysical);

  /// Adds a channel adapter with `num_ports` external ports (usually 1).
  NodeId add_ca(std::string_view name, std::size_t num_ports = 1,
                CaRole role = CaRole::kPhysical);

  /// Cables port `port_a` of `a` to port `port_b` of `b`. Both must be free.
  void connect(NodeId a, PortNum port_a, NodeId b, PortNum port_b);

  /// Removes the cable attached to (node, port), both ends.
  void disconnect(NodeId node, PortNum port);

  /// All cables attached to `id`, described from `id`'s side, in ascending
  /// port order.
  [[nodiscard]] std::vector<CableSpec> cables_of(NodeId id) const;

  /// Disconnects every cable on `id` and returns them (ascending port order)
  /// so the caller can restore the exact cabling later. Topology-delta hook:
  /// detach_switch severs with this and keeps the list in its journal record
  /// for byte-identical rollback.
  std::vector<CableSpec> sever_all(NodeId id);

  /// Lowest-numbered unconnected external port of `id`, if any.
  [[nodiscard]] std::optional<PortNum> free_port(NodeId id) const;

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] const Node& node(NodeId id) const;
  [[nodiscard]] Node& node(NodeId id);

  [[nodiscard]] std::vector<NodeId> switch_ids(
      bool physical_only = true) const;
  [[nodiscard]] std::vector<NodeId> ca_ids() const;

  [[nodiscard]] std::size_t num_switches(bool physical_only = true) const;
  [[nodiscard]] std::size_t num_cas() const;

  /// Sets/clears the LID of (node, port). For switches use port 0.
  void set_lid(NodeId id, PortNum port, Lid lid);

  /// Sets the LMC of a CA port (its base LID must be 2^lmc aligned).
  void set_lmc(NodeId id, PortNum port, std::uint8_t lmc);

  /// (node, port) on the far side of the cable, if any.
  [[nodiscard]] std::optional<std::pair<NodeId, PortNum>> peer(
      NodeId id, PortNum port) const;

  /// First physical switch reached from a CA port, walking through any
  /// vSwitch in between. Returns the switch and its ingress-facing port
  /// (i.e. the physical switch port the traffic for this CA arrives from).
  /// nullopt if the endpoint is not attached to the physical network.
  [[nodiscard]] std::optional<std::pair<NodeId, PortNum>> physical_attachment(
      NodeId ca, PortNum port = 1) const;

  /// The vSwitch uplink: the external port of `vswitch` cabled to a physical
  /// switch (or to another switch). Exactly one is expected.
  [[nodiscard]] std::optional<PortNum> vswitch_uplink(NodeId vswitch) const;

  /// Checks structural consistency (symmetric cables, port ranges). Throws
  /// std::logic_error with a description on the first violation.
  void validate() const;

  /// CA node owning `guid` either as manufacturer GUID or as alias (vGUID).
  [[nodiscard]] std::optional<NodeId> find_ca_by_guid(Guid guid) const;

  /// Next unassigned manufacturer GUID (deterministic, sequential).
  Guid allocate_guid() noexcept {
    return Guid{next_guid_++};
  }

 private:
  std::vector<Node> nodes_;
  std::uint64_t next_guid_ = 0x0002C90300000001ULL;  // Mellanox-style OUI
};

}  // namespace ibvs
