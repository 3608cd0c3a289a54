// LID address space management.
//
// Tracks which LID is assigned to which (node, port), supports sequential
// and free-list allocation, and answers the queries the routing engines and
// the vSwitch reconfigurators need: where does a LID physically attach, and
// what is the topmost LID in use (which determines the number of LFT blocks
// per switch — the `m` of eq. (2), see Table I's "Min LFT Blocks/Switch").
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "ib/fabric.hpp"
#include "ib/types.hpp"

namespace ibvs {

class LidMap {
 public:
  struct Owner {
    NodeId node = kInvalidNode;
    PortNum port = 0;

    [[nodiscard]] bool valid() const noexcept { return node != kInvalidNode; }
    bool operator==(const Owner&) const = default;
  };

  LidMap() : owners_(kUnicastLidCount + 1) {}

  /// Assigns the lowest free unicast LID to (node, port) and mirrors it into
  /// the fabric. Throws when the unicast space is exhausted.
  Lid assign_next(Fabric& fabric, NodeId node, PortNum port);

  /// Assigns a specific LID (must be free).
  void assign(Fabric& fabric, NodeId node, PortNum port, Lid lid);

  /// Assigns an aligned block of 2^lmc consecutive LIDs to (node, port) —
  /// the LID Mask Control multipathing of §V-A. Returns the base LID and
  /// programs the port's LMC. The alignment requirement is exactly the
  /// inflexibility the prepopulated-VF scheme escapes: its alternative
  /// paths come from *independent* LIDs that may sit anywhere.
  Lid assign_lmc_block(Fabric& fabric, NodeId node, PortNum port,
                       std::uint8_t lmc);

  /// Releases a LID (e.g. a VM was destroyed) and clears it in the fabric.
  void release(Fabric& fabric, Lid lid);

  /// Keeps a free LID out of assign_next until unreserve(). A detach holds
  /// its subject's released LID while the journal record is in flight, so
  /// a VM created before the record is terminal cannot take the LID whose
  /// routes the roll-forward scrubs. assign() of exactly that LID (the
  /// rollback re-addressing the subject) ends the reservation.
  void reserve(Lid lid);
  void unreserve(Lid lid);

  /// Moves an assigned LID to a new (node, port) — the address migration of
  /// §V-C step (a). The LID value itself does not change.
  void move(Fabric& fabric, Lid lid, NodeId node, PortNum port);

  [[nodiscard]] Owner owner(Lid lid) const noexcept {
    const std::size_t i = lid.value();
    return i < owners_.size() ? owners_[i] : Owner{};
  }
  [[nodiscard]] bool assigned(Lid lid) const noexcept {
    return owner(lid).valid();
  }

  /// Largest LID currently assigned (invalid Lid when empty).
  [[nodiscard]] Lid top_lid() const noexcept { return top_lid_; }

  /// Number of assigned unicast LIDs ("LIDs consumed" in Table I).
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

  /// LFT blocks each switch minimally needs: ceil over the topmost LID.
  [[nodiscard]] std::size_t min_lft_blocks() const noexcept {
    return top_lid_.valid() ? lft_blocks_for(top_lid_) : 0;
  }

  /// All assigned LIDs in increasing order.
  [[nodiscard]] std::vector<Lid> assigned_lids() const;

  /// Physical switch + ingress port where traffic for `lid` must be
  /// delivered. For a switch LID that is the switch itself (port 0).
  [[nodiscard]] std::optional<std::pair<NodeId, PortNum>> attachment(
      const Fabric& fabric, Lid lid) const;

 private:
  /// A reserved LID: no owner, and a port no owner uses.
  static constexpr Owner kReserved{kInvalidNode, kDropPort};

  void set_owner(Fabric& fabric, Lid lid, Owner owner);
  [[nodiscard]] bool allocatable(std::uint32_t v) const noexcept {
    return owners_[v] == Owner{};
  }
  void recompute_top() noexcept;

  std::vector<Owner> owners_;  // indexed by LID value
  Lid top_lid_;
  std::size_t count_ = 0;
  std::uint16_t next_hint_ = 1;  // lowest possibly-free LID
};

}  // namespace ibvs
