#include "inject/checker.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "fabric/trace.hpp"
#include "util/thread_pool.hpp"

namespace ibvs::inject {

namespace {

std::string port_name(const Fabric& fabric, NodeId node, PortNum port) {
  return fabric.node(node).name + ":" + std::to_string(port);
}

/// Does any port of CA `node` own `lid` (including LMC aliases)? Mirrors
/// the delivery test of fabric::trace_unicast.
bool ca_owns_lid(const Node& node, Lid lid) {
  for (PortNum p = 1; p <= node.num_ports(); ++p) {
    if (node.ports[p].owns(lid)) return true;
  }
  return false;
}

/// Memo byte of one (physical switch, block slot): not yet entered, on the
/// current walk's path, or kVerdict + the TraceStatus every walk entering
/// the switch with that slot's target ends in.
constexpr std::uint8_t kUnvisited = 0;
constexpr std::uint8_t kOnPath = 1;
constexpr std::uint8_t kVerdict = 2;

/// Targets walked as one block: one source's consecutive walks reuse the
/// same LFT lines, and the memo keeps one byte per (switch, block slot).
constexpr std::size_t kBlockTargets = 64;

/// One reachability violation, keyed for the (source, target)-ordered merge.
struct Finding {
  std::size_t target_index;  ///< global target index (serial scan order)
  std::string what;
};

/// Hop-by-hop reachability walks, memoized per target across sources.
///
/// Each walk follows fabric::trace_unicast's rules. A physical switch
/// forwards independently of its ingress port, so the status a walk ends
/// in is the verdict for any later walk entering one of its switches with
/// the same target: the walk records it on every physical switch it
/// passed, and later sources stop at the first switch that has one. A
/// switch still on the current path closes a forwarding cycle. vSwitches
/// forward by ingress port, so their hops run inline and are never
/// memoized.
///
/// The trace's hop budget (fabric.size() + 2 arrivals) cannot change a
/// memoized verdict: an acyclic walk enters each physical switch once and
/// each vSwitch at most twice (the second time via its uplink, which ends
/// the walk), so only a cycle exceeds it. A cycle of vSwitches alone
/// revisits no physical switch; the walk keeps the budget for that case.
class ReachabilityWalk {
 public:
  /// `switch_row` maps each physical switch to its memo row.
  ReachabilityWalk(const Fabric& fabric,
                   const std::vector<std::uint32_t>& switch_row,
                   std::size_t num_switches)
      : fabric_(fabric),
        switch_row_(switch_row),
        hop_budget_(fabric.size() + 2),
        memo_(num_switches * kBlockTargets),
        stamp_(num_switches, 0) {}

  /// Forgets every verdict: the next walks belong to a new target block.
  void next_block() noexcept { ++block_; }

  /// Walks from CA `src` to `lid`, the target in block slot `slot`.
  fabric::TraceStatus walk(NodeId src, Lid lid, std::size_t slot);

 private:
  /// The memo byte of physical switch `node` for `slot`; a switch's row is
  /// cleared on its first use in a block.
  std::uint8_t& memo(NodeId node, std::size_t slot) {
    const std::uint32_t row = switch_row_[node];
    std::uint8_t* bytes = &memo_[row * kBlockTargets];
    if (stamp_[row] != block_) {
      stamp_[row] = block_;
      std::fill_n(bytes, kBlockTargets, kUnvisited);
    }
    return bytes[slot];
  }

  const Fabric& fabric_;
  const std::vector<std::uint32_t>& switch_row_;
  const std::size_t hop_budget_;
  std::vector<std::uint8_t> memo_;
  std::vector<std::uint32_t> stamp_;  ///< memo row -> block it is valid for
  std::uint32_t block_ = 1;
  std::vector<std::uint8_t*> path_;   ///< memo bytes of the current walk
};

fabric::TraceStatus ReachabilityWalk::walk(NodeId src, Lid lid,
                                           std::size_t slot) {
  using fabric::TraceStatus;
  const Node& src_node = fabric_.node(src);
  if (ca_owns_lid(src_node, lid)) return TraceStatus::kDelivered;  // loopback

  path_.clear();
  TraceStatus status;
  const Port* cable = &src_node.ports[1];
  for (std::size_t hops = 1;; ++hops) {
    if (!cable->connected()) {
      status = TraceStatus::kNoRoute;
      break;
    }
    if (hops > hop_budget_) {
      status = TraceStatus::kLoop;
      break;
    }
    const NodeId here = cable->peer;
    const PortNum in = cable->peer_port;
    const Node& n = fabric_.node(here);
    if (n.is_ca()) {
      status = ca_owns_lid(n, lid) ? TraceStatus::kDelivered
                                   : TraceStatus::kWrongDelivery;
      break;
    }
    PortNum out = 0;
    if (n.is_vswitch()) {
      // The first local CA owning the LID, else the uplink unless the
      // packet came in on it.
      for (PortNum p = 1; p <= n.num_ports() && out == 0; ++p) {
        const Port& port = n.ports[p];
        if (p == in || !port.connected()) continue;
        const Node& peer = fabric_.node(port.peer);
        if (peer.is_ca() && ca_owns_lid(peer, lid)) out = p;
      }
      if (out == 0) {
        const auto uplink = fabric_.vswitch_uplink(here);
        if (!uplink || *uplink == in) {
          status = TraceStatus::kDropped;
          break;
        }
        out = *uplink;
      }
    } else {
      std::uint8_t& verdict = memo(here, slot);
      if (verdict == kOnPath) {
        status = TraceStatus::kLoop;
        break;
      }
      if (verdict != kUnvisited) {
        status = static_cast<TraceStatus>(verdict - kVerdict);
        break;
      }
      verdict = kOnPath;
      path_.push_back(&verdict);
      if (n.lid() == lid) {
        status = TraceStatus::kDelivered;
        break;
      }
      out = n.lft.get(lid);
      if (out == kDropPort || out == 0 || out > n.num_ports()) {
        status = TraceStatus::kDropped;
        break;
      }
    }
    cable = &n.ports[out];
  }
  for (std::uint8_t* verdict : path_) {
    *verdict = static_cast<std::uint8_t>(kVerdict + static_cast<int>(status));
  }
  return status;
}

}  // namespace

FabricChecker::FabricChecker(const sm::SubnetManager& sm, CheckerConfig config)
    : sm_(sm), config_(config) {}

void FabricChecker::add_violation(CheckReport& report,
                                  std::string what) const {
  if (report.violations.size() >= config_.max_violations) {
    report.truncated = true;
    return;
  }
  report.violations.push_back(std::move(what));
}

CheckReport FabricChecker::check(const core::VSwitchFabric* cloud) const {
  CheckReport report;
  check_duplicate_lids(report);
  check_lidmap_consistency(report);
  check_reachability(report);
  if (cloud != nullptr) check_vswitch_mapping(report, *cloud);
  return report;
}

void FabricChecker::check_duplicate_lids(CheckReport& report) const {
  const Fabric& fabric = sm_.fabric();
  struct PortRef {
    NodeId node;
    PortNum port;
  };
  // Flat CSR over LID values instead of a hash map of vectors: one counting
  // pass sizes per-LID buckets, a prefix sum places them, a second pass
  // fills the refs in (node, port) scan order. Collisions then iterate in
  // ascending-LID order, which is also the 1-vs-N-thread stable order.
  std::uint16_t max_lid = 0;
  for (NodeId id = 0; id < fabric.size(); ++id) {
    const Node& n = fabric.node(id);
    const PortNum first = n.is_switch() ? 0 : 1;
    const PortNum last = n.is_switch() ? 0 : n.num_ports();
    for (PortNum p = first; p <= last; ++p) {
      if (n.ports[p].lid.valid()) max_lid = std::max(max_lid, n.ports[p].lid.value());
    }
  }
  std::vector<std::uint32_t> start(static_cast<std::size_t>(max_lid) + 2, 0);
  for (NodeId id = 0; id < fabric.size(); ++id) {
    const Node& n = fabric.node(id);
    const PortNum first = n.is_switch() ? 0 : 1;
    const PortNum last = n.is_switch() ? 0 : n.num_ports();
    for (PortNum p = first; p <= last; ++p) {
      if (n.ports[p].lid.valid()) ++start[n.ports[p].lid.value() + 1u];
    }
  }
  for (std::size_t i = 1; i < start.size(); ++i) start[i] += start[i - 1];
  std::vector<PortRef> refs(start.back());
  {
    std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
    for (NodeId id = 0; id < fabric.size(); ++id) {
      const Node& n = fabric.node(id);
      const PortNum first = n.is_switch() ? 0 : 1;
      const PortNum last = n.is_switch() ? 0 : n.num_ports();
      for (PortNum p = first; p <= last; ++p) {
        if (n.ports[p].lid.valid()) refs[fill[n.ports[p].lid.value()]++] = {id, p};
      }
    }
  }
  for (std::uint32_t lid = 0; lid <= max_lid; ++lid) {
    const std::uint32_t lo = start[lid];
    const std::uint32_t hi = start[lid + 1u];
    if (hi - lo < 2) continue;
    // The one sanctioned share: a PF and the vSwitch(es) it sits behind
    // answer to the same LID (§V). Anything else is an address collision.
    const PortRef* pf = nullptr;
    bool ok = true;
    for (std::uint32_t i = lo; i < hi; ++i) {
      const Node& n = fabric.node(refs[i].node);
      if (n.is_ca() && n.role == CaRole::kPf) {
        if (pf != nullptr) ok = false;  // two PFs on one LID
        pf = &refs[i];
      } else if (!n.is_vswitch()) {
        ok = false;
      }
    }
    if (ok && pf != nullptr) {
      for (std::uint32_t i = lo; i < hi; ++i) {
        const Node& n = fabric.node(refs[i].node);
        if (!n.is_vswitch()) continue;
        // The vSwitch must actually host this PF.
        bool cabled = false;
        for (PortNum p = 1; p <= n.num_ports(); ++p) {
          if (n.ports[p].peer == pf->node) cabled = true;
        }
        if (!cabled) ok = false;
      }
    } else {
      ok = false;
    }
    if (!ok) {
      std::string what = "duplicate LID " + std::to_string(lid) + " on";
      for (std::uint32_t i = lo; i < hi; ++i) {
        what += " " + port_name(fabric, refs[i].node, refs[i].port);
      }
      add_violation(report, std::move(what));
    }
  }
}

void FabricChecker::check_lidmap_consistency(CheckReport& report) const {
  const Fabric& fabric = sm_.fabric();
  const LidMap& lids = sm_.lids();
  for (const Lid lid : lids.assigned_lids()) {
    ++report.lids_checked;
    const LidMap::Owner owner = lids.owner(lid);
    if (!owner.valid() || owner.node >= fabric.size()) {
      add_violation(report, "LidMap owner of LID " +
                                std::to_string(lid.value()) + " is invalid");
      continue;
    }
    const Node& n = fabric.node(owner.node);
    if (owner.port >= n.ports.size() || !n.ports[owner.port].owns(lid)) {
      add_violation(report,
                    "LID " + std::to_string(lid.value()) +
                        " owner port " + port_name(fabric, owner.node, owner.port) +
                        " does not answer to it");
      continue;
    }
    const auto attach = lids.attachment(fabric, lid);
    if (!attach) {
      ++report.lids_skipped_detached;
      continue;
    }
    const auto [sw, port] = *attach;
    if (port == 0) continue;  // the switch's own LID terminates at port 0
    const PortNum installed = fabric.node(sw).lft.get(lid);
    if (installed != port) {
      add_violation(report,
                    "LID " + std::to_string(lid.value()) +
                        " attaches to " + port_name(fabric, sw, port) +
                        " but switch forwards it to port " +
                        std::to_string(installed));
    }
  }
}

void FabricChecker::check_reachability(CheckReport& report) const {
  const Fabric& fabric = sm_.fabric();
  const LidMap& lids = sm_.lids();

  std::vector<NodeId> sources;
  for (NodeId id = 0; id < fabric.size(); ++id) {
    const Node& n = fabric.node(id);
    if (!n.is_ca() || !n.ports[1].connected()) continue;
    if (!fabric.physical_attachment(id)) continue;
    sources.push_back(id);
  }
  if (config_.max_sources > 0 && sources.size() > config_.max_sources) {
    // Deterministic even spread over the candidates, endpoints included.
    std::vector<NodeId> sampled;
    sampled.reserve(config_.max_sources);
    const std::size_t n = sources.size();
    const std::size_t k = config_.max_sources;
    for (std::size_t i = 0; i < k; ++i) {
      sampled.push_back(sources[k > 1 ? i * (n - 1) / (k - 1) : 0]);
    }
    sampled.erase(std::unique(sampled.begin(), sampled.end()), sampled.end());
    sources = std::move(sampled);
  }
  report.sources_sampled = sources.size();

  // A LID is an *active* target only while its owner is physically on the
  // fabric. A dead switch keeps its LID assignment (it returns with the
  // node), but with every cable cut the address is legitimately dark —
  // demanding reachability for it would flag every switch-death as a
  // violation.
  const auto any_port_connected = [](const Node& n) {
    for (PortNum p = 1; p <= n.num_ports(); ++p) {
      if (n.ports[p].connected()) return true;
    }
    return false;
  };
  std::vector<Lid> targets;
  for (const Lid lid : lids.assigned_lids()) {
    if (!lids.attachment(fabric, lid)) continue;
    const LidMap::Owner owner = lids.owner(lid);
    if (owner.valid() && owner.node < fabric.size() &&
        !any_port_connected(fabric.node(owner.node))) {
      ++report.lids_skipped_detached;
      continue;
    }
    targets.push_back(lid);
  }

  // The walks are pure reads of the installed tables, so a large target
  // space fans out over the pool in contiguous shards; every shard walks
  // all sources over its own range, block by block. The merge below
  // replays the findings in (source, target) order and reconstructs
  // exactly what a serial per-pair trace scan would have reported —
  // including the violation cap, the truncated flag, and the paths_traced
  // count at the point a serial scan would have bailed out.
  //
  // A shard's findings land in the slot of its first target: shards own
  // distinct slots, so they write without a lock, and reading the slots in
  // index order visits the shards in target order.
  std::vector<std::uint32_t> switch_row(fabric.size(), 0);
  std::size_t num_switches = 0;
  for (NodeId id = 0; id < fabric.size(); ++id) {
    if (fabric.node(id).is_physical_switch()) {
      switch_row[id] = static_cast<std::uint32_t>(num_switches++);
    }
  }
  std::vector<std::vector<std::vector<Finding>>> by_first_target(
      targets.size());
  if (!sources.empty()) {
    ThreadPool::global().parallel_ranges(
        0, targets.size(), kMinTargetsPerShard,
        [&](std::size_t t0, std::size_t t1) {
          auto& out = by_first_target[t0];
          out.resize(sources.size());
          ReachabilityWalk walker(fabric, switch_row, num_switches);
          for (std::size_t b0 = t0; b0 < t1; b0 += kBlockTargets) {
            walker.next_block();
            const std::size_t b1 = std::min(t1, b0 + kBlockTargets);
            for (std::size_t i = 0; i < sources.size(); ++i) {
              const std::string& name = fabric.node(sources[i]).name;
              for (std::size_t t = b0; t < b1; ++t) {
                const auto status =
                    walker.walk(sources[i], targets[t], t - b0);
                if (status == fabric::TraceStatus::kDelivered) continue;
                const std::string lid = std::to_string(targets[t].value());
                out[i].push_back(
                    {t, status == fabric::TraceStatus::kLoop
                            ? "routing loop tracing LID " + lid + " from " +
                                  name
                            : "LID " + lid + " unreachable from " + name +
                                  " (" + fabric::to_string(status) + ")"});
              }
            }
          }
        });
  }
  std::vector<std::vector<std::vector<Finding>>*> shards;
  for (auto& slot : by_first_target) {
    if (!slot.empty()) shards.push_back(&slot);
  }

  for (std::size_t i = 0; i < sources.size(); ++i) {
    for (auto* shard : shards) {
      for (Finding& f : (*shard)[i]) {
        add_violation(report, std::move(f.what));
        if (report.violations.size() >= config_.max_violations) {
          report.truncated = true;
          // A serial scan would have returned right here, having traced
          // every pair up to and including this one.
          report.paths_traced += i * targets.size() + f.target_index + 1;
          return;
        }
      }
    }
  }
  report.paths_traced += sources.size() * targets.size();
}

void FabricChecker::check_vswitch_mapping(
    CheckReport& report, const core::VSwitchFabric& cloud) const {
  const Fabric& fabric = sm_.fabric();
  const LidMap& lids = sm_.lids();
  const auto& hyps = cloud.hypervisors();
  for (const std::uint32_t id : cloud.active_vm_ids()) {
    const core::VmHandle handle{id};
    const core::Vm& vm = cloud.vm(handle);
    const NodeId node = cloud.vm_node(handle);
    const Node& n = fabric.node(node);
    if (!n.is_ca() || n.role != CaRole::kVf) {
      add_violation(report, "VM " + std::to_string(id) +
                                " is not backed by a VF node");
      continue;
    }
    if (vm.hypervisor >= hyps.size() ||
        vm.vf_index >= hyps[vm.hypervisor].vfs.size() ||
        hyps[vm.hypervisor].vfs[vm.vf_index] != node) {
      add_violation(report, "VM " + std::to_string(id) +
                                " VF slot bookkeeping is inconsistent");
      continue;
    }
    if (!vm.lid.valid() || !n.ports[1].owns(vm.lid)) {
      add_violation(report, "VM " + std::to_string(id) + " VF port (" +
                                n.name + ") does not own the VM's LID " +
                                std::to_string(vm.lid.value()));
      continue;
    }
    const LidMap::Owner owner = lids.owner(vm.lid);
    if (owner.node != node) {
      add_violation(report, "VM " + std::to_string(id) + " LID " +
                                std::to_string(vm.lid.value()) +
                                " is not owned by its VF in the LidMap");
    }
  }
}

}  // namespace ibvs::inject
