#include "ib/lid_map.hpp"

#include "util/expect.hpp"

namespace ibvs {

Lid LidMap::assign_next(Fabric& fabric, NodeId node, PortNum port) {
  for (std::uint32_t v = next_hint_; v <= kTopmostUnicastLid.value(); ++v) {
    if (allocatable(v)) {
      const Lid lid{static_cast<std::uint16_t>(v)};
      assign(fabric, node, port, lid);
      next_hint_ = static_cast<std::uint16_t>(v + 1);
      return lid;
    }
  }
  // The hint may have skipped over released LIDs; do one full scan before
  // declaring exhaustion.
  for (std::uint32_t v = 1; v < next_hint_; ++v) {
    if (allocatable(v)) {
      const Lid lid{static_cast<std::uint16_t>(v)};
      assign(fabric, node, port, lid);
      return lid;
    }
  }
  throw std::runtime_error("unicast LID space exhausted (49151 LIDs in use)");
}

void LidMap::assign(Fabric& fabric, NodeId node, PortNum port, Lid lid) {
  IBVS_REQUIRE(lid.valid() && lid <= kTopmostUnicastLid,
               "LID must be unicast");
  IBVS_REQUIRE(!owners_[lid.value()].valid(), "LID already assigned");
  set_owner(fabric, lid, Owner{node, port});  // ends any reservation
  ++count_;
  if (lid > top_lid_) top_lid_ = lid;
}

Lid LidMap::assign_lmc_block(Fabric& fabric, NodeId node, PortNum port,
                             std::uint8_t lmc) {
  IBVS_REQUIRE(lmc <= 7, "LMC is a 3-bit field");
  const std::uint32_t width = 1u << lmc;
  for (std::uint32_t base = width;  // LID 0 is reserved, so start aligned >0
       base + width - 1 <= kTopmostUnicastLid.value(); base += width) {
    bool free = true;
    for (std::uint32_t v = base; v < base + width && free; ++v) {
      free = allocatable(v);
    }
    if (!free) continue;
    // All aliases share the owner; the port carries the base + LMC.
    for (std::uint32_t v = base; v < base + width; ++v) {
      owners_[v] = Owner{node, port};
      ++count_;
      if (Lid{static_cast<std::uint16_t>(v)} > top_lid_) {
        top_lid_ = Lid{static_cast<std::uint16_t>(v)};
      }
    }
    const Lid base_lid{static_cast<std::uint16_t>(base)};
    fabric.set_lid(node, port, base_lid);
    fabric.set_lmc(node, port, lmc);
    return base_lid;
  }
  throw std::runtime_error("no aligned free LID block of width " +
                           std::to_string(width));
}

void LidMap::release(Fabric& fabric, Lid lid) {
  IBVS_REQUIRE(lid.valid() && assigned(lid), "LID not assigned");
  const Owner old = owners_[lid.value()];
  fabric.set_lid(old.node, old.port, kInvalidLid);
  owners_[lid.value()] = Owner{};
  --count_;
  if (lid.value() < next_hint_) next_hint_ = lid.value();
  if (lid == top_lid_) recompute_top();
}

void LidMap::reserve(Lid lid) {
  IBVS_REQUIRE(lid.valid() && lid <= kTopmostUnicastLid && !assigned(lid),
               "only a free unicast LID is reserved");
  owners_[lid.value()] = kReserved;
}

void LidMap::unreserve(Lid lid) {
  const std::uint16_t v = lid.value();
  if (v < owners_.size() && owners_[v] == kReserved) {
    owners_[v] = Owner{};
    if (v < next_hint_) next_hint_ = v;
  }
}

void LidMap::move(Fabric& fabric, Lid lid, NodeId node, PortNum port) {
  IBVS_REQUIRE(lid.valid() && assigned(lid), "LID not assigned");
  const Owner old = owners_[lid.value()];
  // Clear the old port only if it still carries this LID: during a swap the
  // counterpart move may already have written the other LID there.
  if (fabric.node(old.node).ports[old.port].lid == lid) {
    fabric.set_lid(old.node, old.port, kInvalidLid);
  }
  set_owner(fabric, lid, Owner{node, port});
}

void LidMap::set_owner(Fabric& fabric, Lid lid, Owner owner) {
  fabric.set_lid(owner.node, owner.port, lid);
  owners_[lid.value()] = owner;
}

void LidMap::recompute_top() noexcept {
  std::uint32_t v = top_lid_.value();
  while (v > 0 && !owners_[v].valid()) --v;
  top_lid_ = Lid{static_cast<std::uint16_t>(v)};
}

std::vector<Lid> LidMap::assigned_lids() const {
  std::vector<Lid> result;
  result.reserve(count_);
  for (std::uint32_t v = 1; v <= top_lid_.value(); ++v) {
    if (owners_[v].valid()) result.push_back(Lid{static_cast<std::uint16_t>(v)});
  }
  return result;
}

std::optional<std::pair<NodeId, PortNum>> LidMap::attachment(
    const Fabric& fabric, Lid lid) const {
  const Owner who = owner(lid);
  if (!who.valid()) return std::nullopt;
  const Node& n = fabric.node(who.node);
  if (n.is_physical_switch()) return std::make_pair(who.node, PortNum{0});
  if (n.is_vswitch()) {
    // A vSwitch shares the PF's uplink; its LID attaches where the uplink
    // lands on the physical network.
    auto up = fabric.vswitch_uplink(who.node);
    if (!up) return std::nullopt;
    auto hop = fabric.peer(who.node, *up);
    if (!hop || !fabric.node(hop->first).is_physical_switch())
      return std::nullopt;
    return hop;
  }
  return fabric.physical_attachment(who.node, who.port);
}

}  // namespace ibvs
