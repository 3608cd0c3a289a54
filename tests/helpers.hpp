// Shared fixtures for the ibvswitch test suite.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "core/virtualizer.hpp"
#include "core/vswitch.hpp"
#include "routing/engine.hpp"
#include "sm/subnet_manager.hpp"
#include "topology/fat_tree.hpp"
#include "topology/hosts.hpp"
#include "topology/irregular.hpp"

namespace ibvs::test {

/// Cables between two physical switches, described from the lower NodeId.
inline std::vector<CableSpec> switch_cables(const Fabric& fabric) {
  std::vector<CableSpec> out;
  for (const NodeId a : fabric.switch_ids()) {
    for (const CableSpec& c : fabric.cables_of(a)) {
      if (c.b > a && fabric.node(c.b).is_physical_switch()) out.push_back(c);
    }
  }
  return out;
}

/// A physical (non-virtualized) subnet with an SM on host 0.
struct PhysicalSubnet {
  Fabric fabric;
  topology::Built built;
  std::vector<NodeId> hosts;
  std::unique_ptr<sm::SubnetManager> sm;

  /// 4 leaves x 2 spines, `hosts_per_leaf` hosts under each leaf (host i
  /// sits under leaf i / hosts_per_leaf).
  static PhysicalSubnet small_fat_tree(
      routing::EngineKind engine = routing::EngineKind::kMinHop,
      std::size_t hosts_per_leaf = 3) {
    PhysicalSubnet s;
    s.built = topology::build_two_level_fat_tree(
        s.fabric,
        topology::TwoLevelParams{.num_leaves = 4,
                                 .num_spines = 2,
                                 .hosts_per_leaf = hosts_per_leaf,
                                 .radix = std::max<std::size_t>(
                                     8, hosts_per_leaf + 2)});
    s.hosts = topology::attach_hosts(s.fabric, s.built.host_slots);
    s.fabric.validate();
    s.sm = std::make_unique<sm::SubnetManager>(
        s.fabric, s.hosts[0], routing::make_engine(engine));
    return s;
  }

  static PhysicalSubnet paper_tree(
      topology::PaperFatTree which,
      routing::EngineKind engine = routing::EngineKind::kMinHop) {
    PhysicalSubnet s;
    s.built = topology::build_paper_fat_tree(s.fabric, which);
    s.hosts = topology::attach_hosts(s.fabric, s.built.host_slots);
    s.fabric.validate();
    s.sm = std::make_unique<sm::SubnetManager>(
        s.fabric, s.hosts[0], routing::make_engine(engine));
    return s;
  }
};

/// A virtualized subnet: hypervisors with vSwitches, an SM on a dedicated
/// node, and a VSwitchFabric in the requested scheme. Not yet booted.
struct VirtualSubnet {
  Fabric fabric;
  topology::Built built;
  std::vector<core::VirtualHca> hyps;
  NodeId sm_node = kInvalidNode;
  std::unique_ptr<sm::SubnetManager> sm;
  std::unique_ptr<core::VSwitchFabric> vsf;

  /// 4 leaves x 2 spines; `num_hyps` hypervisors with `vfs` VFs each spread
  /// over the leaves (3 host slots per leaf).
  static VirtualSubnet small(
      core::LidScheme scheme, std::size_t num_hyps = 8, std::size_t vfs = 4,
      routing::EngineKind engine = routing::EngineKind::kMinHop) {
    VirtualSubnet s;
    s.built = topology::build_two_level_fat_tree(
        s.fabric, topology::TwoLevelParams{.num_leaves = 4,
                                           .num_spines = 2,
                                           .hosts_per_leaf = 3,
                                           .radix = 12});
    s.finish(scheme, num_hyps, vfs, engine);
    return s;
  }

  /// Ring topology variant for topology-agnostic checks.
  static VirtualSubnet ring(
      core::LidScheme scheme, std::size_t switches = 6,
      std::size_t num_hyps = 6, std::size_t vfs = 2,
      routing::EngineKind engine = routing::EngineKind::kUpDown) {
    VirtualSubnet s;
    s.built = topology::build_ring(s.fabric, switches, 2, 8);
    s.finish(scheme, num_hyps, vfs, engine);
    return s;
  }

  core::VmHandle create_on(std::size_t hyp) {
    return vsf->create_vm(hyp).vm;
  }

  /// All PF nodes (used as trace sources).
  [[nodiscard]] std::vector<NodeId> pf_nodes() const {
    std::vector<NodeId> out;
    for (const auto& h : hyps) out.push_back(h.pf);
    return out;
  }

 private:
  void finish(core::LidScheme scheme, std::size_t num_hyps, std::size_t vfs,
              routing::EngineKind engine) {
    hyps = core::attach_hypervisors(fabric, built.host_slots, vfs, num_hyps);
    // The SM lives on a dedicated node cabled to the last free slot.
    const auto& slot = built.host_slots[num_hyps];
    sm_node = fabric.add_ca("sm-node");
    fabric.connect(sm_node, 1, slot.leaf, slot.port);
    fabric.validate();
    sm = std::make_unique<sm::SubnetManager>(fabric, sm_node,
                                             routing::make_engine(engine));
    vsf = std::make_unique<core::VSwitchFabric>(*sm, hyps, scheme);
  }
};

}  // namespace ibvs::test
