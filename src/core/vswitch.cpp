#include "core/vswitch.hpp"

#include <algorithm>
#include <string_view>

#include "core/migration_txn.hpp"
#include "sm/delta_txn.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/expect.hpp"
#include "util/log.hpp"

namespace ibvs::core {

namespace {

/// Reconfiguration counters (n' vs n is the paper's headline statistic).
struct VSwitchMetrics {
  telemetry::Counter& reconfig_swap;
  telemetry::Counter& reconfig_copy;
  telemetry::Counter& switches_updated;
  telemetry::Counter& switches_skipped;
  telemetry::Counter& drain_passes;
  telemetry::Counter& migrations_committed;
  telemetry::Counter& migrations_rolled_back;
  telemetry::Histogram& rollback_smps;

  static VSwitchMetrics& get() {
    auto& reg = telemetry::Registry::global();
    static VSwitchMetrics m{
        reg.counter("ibvs_vswitch_reconfig_total", {{"kind", "swap"}},
                    "Migration reconfigurations by LFT-update kind"),
        reg.counter("ibvs_vswitch_reconfig_total", {{"kind", "copy"}}),
        reg.counter("ibvs_vswitch_reconfig_switches_updated_total", {},
                    "Switches whose LFTs a reconfiguration rewrote (n')"),
        reg.counter("ibvs_vswitch_reconfig_switches_skipped_total", {},
                    "Switches a reconfiguration left untouched (n - n')"),
        reg.counter("ibvs_vswitch_drain_passes_total", {},
                    "Port-255 drain passes before reconfiguration (§VI-C)"),
        reg.counter("ibvs_migrations_total", {{"outcome", "committed"}},
                    "Migration transactions by terminal outcome"),
        reg.counter("ibvs_migrations_total", {{"outcome", "rolled_back"}}),
        reg.histogram("ibvs_migration_rollback_smps", {},
                      telemetry::HistogramOptions{.min_bound = 1.0,
                                                  .num_buckets = 12},
                      "SMPs spent undoing an aborted migration"),
    };
    return m;
  }
};

/// Maps an early stop of the apply loop to the migration's typed error.
void throw_if_stopped(const Fabric& fabric, const sm::ApplyResult& result,
                      std::string_view phase) {
  if (result.stop == sm::ApplyStop::kUnreachable) {
    throw MigrationError(MigrationErrc::kSwitchUnreachable,
                         fabric.node(result.at).name + " unreachable " +
                             std::string(phase));
  }
  if (result.stop == sm::ApplyStop::kAborted) {
    throw MigrationError(MigrationErrc::kInterrupted,
                         "reconfiguration batch cut short " +
                             std::string(phase));
  }
}

/// The one-shot composition behind migrate_vm and swap_vms, with an undo:
/// any mid-flight failure restores the source placement before surfacing
/// to the caller.
MigrationReport run_to_commit(VSwitchFabric& vsf, MigrationTxn& txn) {
  try {
    vsf.txn_move_addresses(txn);
    vsf.txn_apply_lfts(txn);
  } catch (...) {
    vsf.txn_rollback(txn);
    throw;
  }
  vsf.txn_commit(txn);
  MigrationReport report;
  report.vm = txn.vm.id;
  report.src_hypervisor = txn.src_hypervisor;
  report.dst_hypervisor = txn.dst_hypervisor;
  report.vm_lid = txn.vm_lid;
  report.swapped_lid = txn.swapped_lid;
  report.intra_leaf = txn.intra_leaf;
  report.reconfig = txn.stats;
  report.minimal_set_size = txn.minimal_set_size;
  return report;
}

}  // namespace

std::string to_string(LidScheme scheme) {
  return scheme == LidScheme::kPrepopulated ? "prepopulated-lids"
                                            : "dynamic-lid-assignment";
}

std::string to_string(TxnState state) {
  switch (state) {
    case TxnState::kPrepared:
      return "prepared";
    case TxnState::kDetached:
      return "detached";
    case TxnState::kCopied:
      return "copied";
    case TxnState::kReconfiguring:
      return "reconfiguring";
    case TxnState::kAttached:
      return "attached";
    case TxnState::kCommitted:
      return "committed";
    case TxnState::kRolledBack:
      return "rolled-back";
  }
  return "?";
}

VSwitchFabric::VSwitchFabric(sm::SubnetManager& sm,
                             std::vector<VirtualHca> hypervisors,
                             LidScheme scheme)
    : sm_(&sm),
      fabric_(&sm.fabric()),
      hypervisors_(std::move(hypervisors)),
      scheme_(scheme) {
  IBVS_REQUIRE(!hypervisors_.empty(), "at least one hypervisor required");
  slots_.resize(hypervisors_.size());
  free_slots_.resize(hypervisors_.size());
  for (std::size_t h = 0; h < hypervisors_.size(); ++h) {
    slots_[h].resize(hypervisors_[h].vfs.size());
    for (std::size_t i = 0; i < slots_[h].size(); ++i) {
      free_slots_[h].insert(i);
    }
  }
}

void VSwitchFabric::mark_slot_used(std::size_t hypervisor, std::size_t vf,
                                   std::uint32_t vm_id) {
  slots_[hypervisor][vf].vm = vm_id;
  free_slots_[hypervisor].erase(vf);
}

void VSwitchFabric::mark_slot_free(std::size_t hypervisor, std::size_t vf) {
  slots_[hypervisor][vf].vm = 0;
  free_slots_[hypervisor].insert(vf);
}

sm::SweepReport VSwitchFabric::boot() {
  IBVS_REQUIRE(!booted_, "already booted");
  auto span = telemetry::Tracer::global().span(
      "vswitch.boot", {{"scheme", to_string(scheme_)},
                       {"hypervisors", std::to_string(hypervisors_.size())}});
  sm::SweepReport report;
  report.discovery = sm_->discover();
  report.lids_assigned = sm_->assign_lids();
  if (scheme_ == LidScheme::kPrepopulated) {
    // §V-A: initialize *all* VFs with LIDs, used or not. This is what blows
    // up the initial path computation — and what makes later migrations a
    // pure swap.
    for (const auto& hyp : hypervisors_) {
      for (NodeId vf : hyp.vfs) {
        sm_->assign_lid(vf, 1);
        ++report.lids_assigned;
      }
    }
  }
  sm_->compute_routes();
  report.path_computation_seconds = sm_->routing_result().compute_seconds;
  report.distribution = sm_->distribute_lfts();
  booted_ = true;
  IBVS_INFO("vswitch") << "booted " << to_string(scheme_) << ": "
                       << report.discovery.nodes_found << " nodes, "
                       << report.lids_assigned << " LIDs, "
                       << report.distribution.smps << " LFT SMPs";
  return report;
}

Lid VSwitchFabric::pf_lid(std::size_t hypervisor) const {
  return sm_->fabric().node(hypervisors_[hypervisor].pf).lid();
}

std::optional<std::size_t> VSwitchFabric::free_vf_on(
    std::size_t hypervisor) const {
  IBVS_REQUIRE(hypervisor < hypervisors_.size(), "hypervisor out of range");
  const auto& free = free_slots_[hypervisor];
  if (free.empty()) return std::nullopt;
  return *free.begin();
}

std::size_t VSwitchFabric::free_vf_count(std::size_t hypervisor) const {
  IBVS_REQUIRE(hypervisor < hypervisors_.size(), "hypervisor out of range");
  return free_slots_[hypervisor].size();
}

std::optional<std::size_t> VSwitchFabric::find_free_hypervisor(
    std::optional<std::size_t> exclude) const {
  for (std::size_t h = 0; h < hypervisors_.size(); ++h) {
    if (exclude && *exclude == h) continue;
    if (free_vf_on(h)) return h;
  }
  return std::nullopt;
}

CreateReport VSwitchFabric::create_vm(std::optional<std::size_t> hypervisor) {
  IBVS_REQUIRE(booted_, "boot() first");
  std::size_t h;
  if (hypervisor) {
    h = *hypervisor;
    IBVS_REQUIRE(h < hypervisors_.size(), "hypervisor out of range");
  } else {
    const auto found = find_free_hypervisor();
    IBVS_REQUIRE(found.has_value(), "no free VF in the subnet");
    h = *found;
  }
  const auto vf_idx = free_vf_on(h);
  IBVS_REQUIRE(vf_idx.has_value(), "no free VF on that hypervisor");

  Fabric& fabric = sm_->fabric();
  auto& transport = sm_->transport();
  const VirtualHca& hyp = hypervisors_[h];
  const NodeId vf = hyp.vfs[*vf_idx];

  auto span = telemetry::Tracer::global().span(
      "vswitch.create_vm", {{"scheme", to_string(scheme_)}});
  CreateReport report;
  Vm vm;
  vm.id = next_vm_id_++;
  vm.hypervisor = h;
  vm.vf_index = *vf_idx;
  vm.vguid = fabric.allocate_guid();
  fabric.node(vf).alias_guid = vm.vguid;
  transport.send_guid_info(hyp.pf, static_cast<PortNum>(*vf_idx), vm.vguid);
  ++report.hypervisor_smps;

  if (scheme_ == LidScheme::kPrepopulated) {
    // The VM inherits the LID already sitting on the VF; paths exist, no
    // reconfiguration of any kind (§V-A).
    vm.lid = fabric.node(vf).lid();
    IBVS_ENSURE(vm.lid.valid(), "prepopulated VF without a LID");
  } else {
    // §V-B: next free LID; no path computation — copy the PF's forwarding
    // entry into every physical switch, one SMP each.
    vm.lid = sm_->lids().assign_next(fabric, vf, 1);
    transport.send_vf_lid_assign(hyp.pf, static_cast<PortNum>(*vf_idx),
                                 vm.lid);
    ++report.hypervisor_smps;

    const Lid pf = pf_lid(h);
    const auto& routing = sm_->routing_result();
    transport.begin_batch();
    for (routing::SwitchIdx s = 0; s < routing.graph.num_switches(); ++s) {
      const PortNum pf_port = routing.lfts[s].get(pf);
      if (routing.lfts[s].get(vm.lid) == pf_port) continue;
      sm_->update_master_entry(s, vm.lid, pf_port);
      report.lft_smps += sm_->push_dirty_blocks(s, SmpRouting::kLidRouted);
    }
    report.time_us = transport.end_batch();
    sm_->bump_generation();
  }
  sm_->refresh_targets();

  mark_slot_used(h, *vf_idx, vm.id);
  report.vm = VmHandle{vm.id};
  report.lid = vm.lid;
  vms_.emplace(vm.id, vm);
  span.set_attr("lft_smps", std::to_string(report.lft_smps));
  return report;
}

void VSwitchFabric::destroy_vm(VmHandle handle) {
  Vm& vm = vm_mutable(handle);
  Fabric& fabric = sm_->fabric();
  const VirtualHca& hyp = hypervisors_[vm.hypervisor];
  const NodeId vf = hyp.vfs[vm.vf_index];
  fabric.node(vf).alias_guid = kInvalidGuid;
  if (scheme_ == LidScheme::kDynamic) {
    // Release the LID; stale LFT entries are left behind deliberately (they
    // are overwritten when the LID is reused — scrubbing would cost one SMP
    // per switch for no functional gain).
    sm_->lids().release(fabric, vm.lid);
    sm_->transport().send_vf_lid_assign(hyp.pf,
                                       static_cast<PortNum>(vm.vf_index),
                                       kInvalidLid);
    sm_->refresh_targets();
  }
  mark_slot_free(vm.hypervisor, vm.vf_index);
  vms_.erase(handle.id);
}

MigrationTxn VSwitchFabric::begin_migration(VmHandle handle,
                                            std::size_t dst_hypervisor,
                                            const MigrationOptions& options) {
  if (!booted_) {
    throw MigrationError(MigrationErrc::kNotBooted, "boot() first");
  }
  const auto it = vms_.find(handle.id);
  if (it == vms_.end()) {
    throw MigrationError(MigrationErrc::kUnknownVm,
                         "vm " + std::to_string(handle.id));
  }
  Vm& vm = it->second;
  if (dst_hypervisor >= hypervisors_.size()) {
    throw MigrationError(MigrationErrc::kBadDestination,
                         "hypervisor " + std::to_string(dst_hypervisor) +
                             " out of range (have " +
                             std::to_string(hypervisors_.size()) + ")");
  }
  if (dst_hypervisor == vm.hypervisor) {
    throw MigrationError(MigrationErrc::kSameHypervisor,
                         "destination equals source hypervisor");
  }
  const auto dst_vf_idx = free_vf_on(dst_hypervisor);
  if (!dst_vf_idx) {
    throw MigrationError(
        MigrationErrc::kNoFreeVf,
        "no free VF on hypervisor " + std::to_string(dst_hypervisor));
  }

  const VirtualHca& src = hypervisors_[vm.hypervisor];
  const VirtualHca& dst = hypervisors_[dst_hypervisor];
  MigrationTxn txn;
  txn.vm = handle;
  txn.src_hypervisor = vm.hypervisor;
  txn.dst_hypervisor = dst_hypervisor;
  txn.src_vf_index = vm.vf_index;
  txn.dst_vf_index = *dst_vf_idx;
  txn.vm_lid = vm.lid;
  txn.vguid = vm.vguid;
  txn.options = options;
  txn.intra_leaf = src.leaf == dst.leaf;
  if (scheme_ == LidScheme::kPrepopulated) {
    txn.swapped_lid = sm_->fabric().node(dst.vfs[*dst_vf_idx]).lid();
    IBVS_ENSURE(txn.swapped_lid.valid(), "destination VF lost its LID");
  }

  txn.id = open_record(txn);
  return txn;
}

MigrationTxn VSwitchFabric::begin_swap(VmHandle vm_a, VmHandle vm_b,
                                       const MigrationOptions& options) {
  if (!booted_) {
    throw MigrationError(MigrationErrc::kNotBooted, "boot() first");
  }
  const auto it_a = vms_.find(vm_a.id);
  if (it_a == vms_.end()) {
    throw MigrationError(MigrationErrc::kUnknownVm,
                         "vm " + std::to_string(vm_a.id));
  }
  const auto it_b = vms_.find(vm_b.id);
  if (it_b == vms_.end()) {
    throw MigrationError(MigrationErrc::kUnknownVm,
                         "vm " + std::to_string(vm_b.id));
  }
  const Vm& a = it_a->second;
  const Vm& b = it_b->second;
  if (a.hypervisor == b.hypervisor) {
    throw MigrationError(MigrationErrc::kSameHypervisor,
                         "swap peers share hypervisor " +
                             std::to_string(a.hypervisor));
  }

  const VirtualHca& src = hypervisors_[a.hypervisor];
  const VirtualHca& dst = hypervisors_[b.hypervisor];
  MigrationTxn txn;
  txn.vm = vm_a;
  txn.is_swap = true;
  txn.peer_vm = vm_b;
  txn.peer_vguid = b.vguid;
  txn.src_hypervisor = a.hypervisor;
  txn.dst_hypervisor = b.hypervisor;
  txn.src_vf_index = a.vf_index;
  txn.dst_vf_index = b.vf_index;
  txn.vm_lid = a.lid;
  txn.swapped_lid = b.lid;  // the peer's LID swaps back, both schemes
  txn.vguid = a.vguid;
  txn.options = options;
  txn.intra_leaf = src.leaf == dst.leaf;

  txn.id = open_record(txn);
  return txn;
}

std::uint64_t VSwitchFabric::open_record(const MigrationTxn& txn) {
  // The write-ahead record: durable identities for the SM (a new master
  // replays by NodeId/Lid), orchestrator tags for reconciliation.
  const VirtualHca& src = hypervisors_[txn.src_hypervisor];
  const VirtualHca& dst = hypervisors_[txn.dst_hypervisor];
  return journal_.begin(sm::MigrationPayload{
      .vm_id = txn.vm.id,
      .vm_lid = txn.vm_lid,
      .swapped_lid = txn.swapped_lid,
      .vguid = txn.vguid,
      .swap_pair = txn.is_swap,
      .peer_vm_id = txn.peer_vm.id,
      .peer_vguid = txn.peer_vguid,
      .src_vf = src.vfs[txn.src_vf_index],
      .dst_vf = dst.vfs[txn.dst_vf_index],
      .src_pf = src.pf,
      .dst_pf = dst.pf,
      .src_vf_slot = static_cast<PortNum>(txn.src_vf_index),
      .dst_vf_slot = static_cast<PortNum>(txn.dst_vf_index),
      .src_hypervisor = txn.src_hypervisor,
      .dst_hypervisor = txn.dst_hypervisor,
      .src_vf_index = txn.src_vf_index,
      .dst_vf_index = txn.dst_vf_index,
  });
}

void VSwitchFabric::txn_move_addresses(MigrationTxn& txn) {
  const sm::JournalRecord* record = journal_.find(txn.id);
  IBVS_REQUIRE(!txn.terminal() && record != nullptr,
               "addresses move before a terminal state");
  IBVS_REQUIRE(!record->started, "addresses move at most once");
  const sm::MigrationPayload& m = *record->migration();
  Fabric& fabric = sm_->fabric();
  auto& transport = sm_->transport();
  if (!fabric.physical_attachment(m.dst_pf)) {
    // Nothing sent yet; the caller rolls the (empty) transaction back.
    throw MigrationError(MigrationErrc::kDestinationDetached,
                         "hypervisor " + std::to_string(txn.dst_hypervisor) +
                             " is physically detached");
  }
  if (txn.is_swap && !fabric.physical_attachment(m.src_pf)) {
    // A swap programs *both* PFs; the source losing attachment is just as
    // fatal as the destination.
    throw MigrationError(MigrationErrc::kDestinationDetached,
                         "hypervisor " + std::to_string(txn.src_hypervisor) +
                             " is physically detached");
  }

  // Write-ahead: the journal learns the addresses are moving before the
  // first SMP leaves the SM.
  journal_.record_started(txn.id);

  // ---- Step (a): migrate the IB addresses (§V-C a). One SMP per
  // participating hypervisor for the LID, one per vGUID landing. A swap
  // keeps both VFs populated — each side takes the peer's LID and vGUID,
  // which is why it needs no free VF anywhere. ----
  const SmpRouting routing = txn.options.smp_routing;
  transport.send_vf_lid_assign(m.src_pf, m.src_vf_slot,
                               txn.is_swap ? txn.swapped_lid : kInvalidLid,
                               routing);
  transport.send_vf_lid_assign(m.dst_pf, m.dst_vf_slot, txn.vm_lid, routing);
  transport.send_guid_info(m.dst_pf, m.dst_vf_slot, txn.vguid, routing);
  txn.stats.hypervisor_lid_smps = 2;
  txn.stats.guid_smps = 1;
  if (txn.is_swap) {
    transport.send_guid_info(m.src_pf, m.src_vf_slot, txn.peer_vguid, routing);
    txn.stats.guid_smps = 2;
  }
  // The VM keeps vm_lid at the destination; the second LID (destination
  // VF's or the peer VM's) moves to the vacated source VF.
  sm::place_addresses(*sm_, m, /*at_destination=*/true);
  sm_->refresh_targets();
  txn.state = TxnState::kReconfiguring;
}

void VSwitchFabric::txn_apply_lfts(MigrationTxn& txn,
                                   const ApplyOptions& apply) {
  const sm::JournalRecord* record = journal_.find(txn.id);
  IBVS_REQUIRE(txn.state == TxnState::kReconfiguring && record != nullptr &&
                   record->started,
               "move the addresses before applying LFTs");
  Fabric& fabric = sm_->fabric();
  const Lid vm_lid = txn.vm_lid;
  const Lid swapped_lid = txn.swapped_lid;

  // ---- Step (b): update the LFTs (§V-C b). ----
  const auto& routing = sm_->routing_result();
  const std::size_t s_count = routing.graph.num_switches();
  txn.stats.switches_total = s_count;

  // Plan the new entries. Two LIDs participate whenever swapped_lid is
  // valid: a prepopulated migration (the destination VF's LID swaps back)
  // or a destination swap in either scheme (the peer VM's LID). The fused
  // delta set lets each switch push its dirty blocks once for both LIDs —
  // 1 SMP when they share a 64-entry block — which is the entire SMP
  // advantage of a swap over two copies.
  const bool use_swap = swapped_lid.valid();
  last_delta_ = EntryDelta{};
  last_delta_.old_entry.resize(s_count);
  last_delta_.new_entry.resize(s_count);
  EntryDelta swap_delta;  // for the swapped LID
  if (use_swap) {
    swap_delta.old_entry.resize(s_count);
    swap_delta.new_entry.resize(s_count);
  }
  const Lid dst_pf = pf_lid(txn.dst_hypervisor);
  for (routing::SwitchIdx s = 0; s < s_count; ++s) {
    const PortNum p_vm = routing.lfts[s].get(vm_lid);
    last_delta_.old_entry[s] = p_vm;
    if (use_swap) {
      // Swap: the VM LID takes the second LID's path and vice versa,
      // preserving the balancing of the initial routing.
      const PortNum p_vf = routing.lfts[s].get(swapped_lid);
      last_delta_.new_entry[s] = p_vf;
      swap_delta.old_entry[s] = p_vf;
      swap_delta.new_entry[s] = p_vm;
    } else {
      // Copy: the VM LID follows the destination hypervisor's PF.
      last_delta_.new_entry[s] = routing.lfts[s].get(dst_pf);
    }
  }

  // The §VI-D minimal (skyline) sets, always computed for reporting. Each
  // LID gets its *own* set: a minimal set is a fixpoint of "updated
  // switches use new entries, the rest keep old ones" for that LID —
  // applying one LID's new entries outside its own set would create
  // old/new hybrids the fixpoint never validated (and can loop).
  const auto vm_attach = sm_->lids().attachment(fabric, vm_lid);
  IBVS_ENSURE(vm_attach.has_value(), "migrated VM is not attached");
  const std::vector<routing::SwitchIdx> minimal_vm = minimal_update_set(
      routing.graph, last_delta_, routing.graph.dense(vm_attach->first),
      vm_attach->second);
  std::vector<routing::SwitchIdx> minimal_vf;
  if (use_swap) {
    const auto vf_attach = sm_->lids().attachment(fabric, swapped_lid);
    IBVS_ENSURE(vf_attach.has_value(), "swapped VF LID is not attached");
    minimal_vf = minimal_update_set(
        routing.graph, swap_delta, routing.graph.dense(vf_attach->first),
        vf_attach->second);
  }
  std::vector<routing::SwitchIdx> minimal_union;
  std::set_union(minimal_vm.begin(), minimal_vm.end(), minimal_vf.begin(),
                 minimal_vf.end(), std::back_inserter(minimal_union));
  txn.minimal_set_size = minimal_union.size();

  // Select the per-LID update sets.
  std::vector<routing::SwitchIdx> vm_set;
  std::vector<routing::SwitchIdx> vf_set;
  if (txn.options.mode == ReconfigMode::kMinimal) {
    vm_set = minimal_vm;
    vf_set = minimal_vf;
  } else {
    // Algorithm 1: everywhere the entries change. For the swap both LIDs
    // change on exactly the same switches (entries differ symmetrically).
    for (routing::SwitchIdx s = 0; s < s_count; ++s) {
      if (last_delta_.old_entry[s] != last_delta_.new_entry[s]) {
        vm_set.push_back(s);
      }
    }
    if (use_swap) vf_set = vm_set;
  }
  std::vector<routing::SwitchIdx> update_set;
  std::set_union(vm_set.begin(), vm_set.end(), vf_set.begin(), vf_set.end(),
                 std::back_inserter(update_set));
  std::vector<bool> in_vm_set(s_count, false);
  std::vector<bool> in_vf_set(s_count, false);
  for (routing::SwitchIdx s : vm_set) in_vm_set[s] = true;
  for (routing::SwitchIdx s : vf_set) in_vf_set[s] = true;

  // Write-ahead: the full planned delta set (both LIDs, logical old -> new,
  // keyed by durable NodeId) reaches the journal before the first drain or
  // swap/copy SMP goes out.
  std::vector<sm::LftDelta> planned;
  planned.reserve(update_set.size() * 2);
  for (routing::SwitchIdx s : update_set) {
    const NodeId sw = routing.graph.switches[s];
    if (in_vm_set[s]) {
      planned.push_back(
          {sw, vm_lid, last_delta_.old_entry[s], last_delta_.new_entry[s]});
    }
    if (in_vf_set[s]) {
      planned.push_back(
          {sw, swapped_lid, swap_delta.old_entry[s], swap_delta.new_entry[s]});
    }
  }
  journal_.record_deltas(txn.id, planned);

  // Optional drain pass (§VI-C): drop traffic for the VM LID on every
  // switch about to change, one SMP each, before the real update.
  if (txn.options.drain_first && !vm_set.empty()) {
    VSwitchMetrics::get().drain_passes.inc();
    std::vector<sm::LftDelta> drain;
    drain.reserve(vm_set.size());
    for (routing::SwitchIdx s : vm_set) {
      drain.push_back({routing.graph.switches[s], vm_lid,
                       last_delta_.old_entry[s], kDropPort});
    }
    const sm::ApplyResult drained = sm::apply_deltas(
        *sm_, drain, txn.applied, txn.options.smp_routing,
        apply.require_reachable, apply.abort_after_smps,
        txn.stats.drain_smps + txn.stats.lft_smps);
    txn.stats.drain_smps += drained.cost.smps;
    txn.stats.drain_time_us += drained.cost.time_us;
    throw_if_stopped(fabric, drained, "during the drain pass");
  }

  // The real update: 1 SMP per touched block — for a swap that is 1 when
  // both LIDs share a 64-LID block, else 2 (Fig. 5); for a copy always 1.
  // txn.applied captures the entry value actually in place immediately
  // before each write (kDropPort on drained switches), so rollback can
  // restore the exact prior bytes by replaying inverses in reverse.
  const sm::ApplyResult updated = sm::apply_deltas(
      *sm_, planned, txn.applied, txn.options.smp_routing,
      apply.require_reachable, apply.abort_after_smps,
      txn.stats.drain_smps + txn.stats.lft_smps);
  txn.stats.lft_smps += updated.cost.smps;
  txn.stats.lft_time_us += updated.cost.time_us;
  throw_if_stopped(fabric, updated, "during reconfiguration");
  txn.stats.switches_updated = update_set.size();
  sm_->bump_generation();

  auto& metrics = VSwitchMetrics::get();
  (use_swap ? metrics.reconfig_swap : metrics.reconfig_copy).inc();
  metrics.switches_updated.inc(txn.stats.switches_updated);
  metrics.switches_skipped.inc(txn.stats.switches_total -
                               txn.stats.switches_updated);
}

void VSwitchFabric::txn_rollback(MigrationTxn& txn) {
  const sm::JournalRecord* record = journal_.find(txn.id);
  IBVS_REQUIRE(!txn.terminal() && record != nullptr,
               "transaction already terminal");

  // Inverse LFT deltas, newest first: undoing in reverse restores the
  // pre-transaction bytes exactly, drain writes included.
  const sm::SmpCost lfts =
      sm::revert_deltas(*sm_, txn.applied, txn.options.smp_routing);
  txn.rollback_smps += lfts.smps;
  txn.rollback_time_us += lfts.time_us;

  // Re-attach the VF at the source: reverse of step (a).
  if (record->started) {
    const sm::SmpCost addresses = sm::undo_addresses(
        *sm_, *record->migration(), txn.options.smp_routing);
    txn.rollback_smps += addresses.smps;
    txn.rollback_time_us += addresses.time_us;
    sm_->refresh_targets();
  }
  sm_->bump_generation();

  journal_.roll_back(txn.id);
  txn.state = TxnState::kRolledBack;
  auto& metrics = VSwitchMetrics::get();
  metrics.migrations_rolled_back.inc();
  metrics.rollback_smps.observe(static_cast<double>(txn.rollback_smps));
  IBVS_INFO("vswitch") << "rolled back migration of vm " << txn.vm.id
                       << " to hyp " << txn.dst_hypervisor << ": "
                       << txn.rollback_smps << " SMPs to undo";
}

void VSwitchFabric::txn_commit(MigrationTxn& txn) {
  IBVS_REQUIRE(txn.state == TxnState::kReconfiguring ||
                   txn.state == TxnState::kAttached,
               "commit follows reconfiguration");
  Vm& vm = vm_mutable(txn.vm);
  if (txn.is_swap) {
    // Both slots stay occupied — the VMs trade places.
    Vm& peer = vm_mutable(txn.peer_vm);
    mark_slot_used(txn.src_hypervisor, txn.src_vf_index, peer.id);
    mark_slot_used(txn.dst_hypervisor, txn.dst_vf_index, vm.id);
    peer.hypervisor = txn.src_hypervisor;
    peer.vf_index = txn.src_vf_index;
  } else {
    mark_slot_free(txn.src_hypervisor, txn.src_vf_index);
    mark_slot_used(txn.dst_hypervisor, txn.dst_vf_index, vm.id);
  }
  vm.hypervisor = txn.dst_hypervisor;
  vm.vf_index = txn.dst_vf_index;
  journal_.commit(txn.id);
  txn.state = TxnState::kCommitted;
  VSwitchMetrics::get().migrations_committed.inc();
}

VSwitchFabric::ReconcileReport VSwitchFabric::reconcile_with_journal() {
  ReconcileReport report;
  auto& metrics = VSwitchMetrics::get();
  for (const sm::JournalRecord* record : journal_.records()) {
    if (record->reconciled || record->state == sm::RecordState::kInFlight) {
      continue;
    }
    const sm::MigrationPayload& r = *record->migration();
    const bool committed = record->state == sm::RecordState::kCommitted;
    const auto it = vms_.find(r.vm_id);
    if (it != vms_.end()) {
      Vm& vm = it->second;
      if (committed && (vm.hypervisor != r.dst_hypervisor ||
                        vm.vf_index != r.dst_vf_index)) {
        if (r.swap_pair) {
          const auto peer_it = vms_.find(r.peer_vm_id);
          if (peer_it != vms_.end()) {
            Vm& peer = peer_it->second;
            mark_slot_used(r.src_hypervisor, r.src_vf_index, peer.id);
            peer.hypervisor = r.src_hypervisor;
            peer.vf_index = r.src_vf_index;
          }
        } else {
          mark_slot_free(r.src_hypervisor, r.src_vf_index);
        }
        mark_slot_used(r.dst_hypervisor, r.dst_vf_index, vm.id);
        vm.hypervisor = r.dst_hypervisor;
        vm.vf_index = r.dst_vf_index;
      }
      // A rolled-back record needs no fixup: the transaction path only
      // advances the slot bookkeeping at commit, so the VM still sits at
      // the source.
    }
    if (committed) {
      ++report.committed;
      metrics.migrations_committed.inc();
    } else {
      ++report.rolled_back;
      metrics.migrations_rolled_back.inc();
    }
    journal_.find(record->id)->reconciled = true;
  }
  return report;
}

void VSwitchFabric::adopt_subnet_manager(sm::SubnetManager& sm) {
  // Compare against the fabric captured at construction: the previous SM may
  // already be destroyed (SmElection replaces it on takeover), so sm_ must
  // not be dereferenced here.
  IBVS_REQUIRE(&sm.fabric() == fabric_,
               "the adopting SM must manage the same fabric");
  IBVS_REQUIRE(sm.has_routing(),
               "the adopting SM must have swept the subnet first");
  sm_ = &sm;
}

MigrationReport VSwitchFabric::migrate_vm(VmHandle handle,
                                          std::size_t dst_hypervisor,
                                          const MigrationOptions& options) {
  MigrationTxn txn = begin_migration(handle, dst_hypervisor, options);
  auto span = telemetry::Tracer::global().span(
      "vswitch.migrate", {{"scheme", to_string(scheme_)}});
  const MigrationReport report = run_to_commit(*this, txn);
  span.set_attr("intra_leaf", report.intra_leaf ? "true" : "false");
  span.set_attr("switches_updated",
                std::to_string(report.reconfig.switches_updated));
  span.set_attr("lft_smps", std::to_string(report.reconfig.lft_smps));

  IBVS_DEBUG("vswitch") << "migrated vm " << handle.id << " hyp "
                        << report.src_hypervisor << " -> " << dst_hypervisor
                        << " (" << to_string(scheme_) << "): updated "
                        << report.reconfig.switches_updated << "/"
                        << report.reconfig.switches_total << " switches, "
                        << report.reconfig.lft_smps << " LFT SMPs";
  return report;
}

MigrationReport VSwitchFabric::swap_vms(VmHandle vm_a, VmHandle vm_b,
                                        const MigrationOptions& options) {
  MigrationTxn txn = begin_swap(vm_a, vm_b, options);
  auto span = telemetry::Tracer::global().span(
      "vswitch.swap", {{"scheme", to_string(scheme_)}});
  const MigrationReport report = run_to_commit(*this, txn);
  span.set_attr("switches_updated",
                std::to_string(report.reconfig.switches_updated));
  span.set_attr("lft_smps", std::to_string(report.reconfig.lft_smps));

  IBVS_DEBUG("vswitch") << "swapped vm " << vm_a.id << " (hyp "
                        << report.src_hypervisor << ") with vm " << vm_b.id
                        << " (hyp " << report.dst_hypervisor << "): "
                        << report.reconfig.lft_smps << " LFT SMPs fused";
  return report;
}

VSwitchFabric::HotAddReport VSwitchFabric::add_hypervisor(
    const topology::HostSlot& slot, std::size_t num_vfs,
    std::string_view name) {
  IBVS_REQUIRE(booted_, "boot() first");
  HotAddReport report;
  report.hypervisor = hypervisors_.size();
  hypervisors_.push_back(
      attach_hypervisor(sm_->fabric(), slot, num_vfs, name));
  slots_.emplace_back(num_vfs);
  free_slots_.emplace_back();
  for (std::size_t i = 0; i < num_vfs; ++i) free_slots_.back().insert(i);
  sm_->transport().invalidate_topology();

  // Address the newcomer: PF always; all VFs too under prepopulation.
  const VirtualHca& hyp = hypervisors_.back();
  sm_->assign_lid(hyp.pf, 1);
  ++report.lids_assigned;
  if (scheme_ == LidScheme::kPrepopulated) {
    for (NodeId vf : hyp.vfs) {
      sm_->assign_lid(vf, 1);
      ++report.lids_assigned;
    }
  }
  // Mirror the PF LID onto the vSwitch (shared, §V-A).
  sm_->fabric().set_lid(hyp.vswitch, 0,
                       sm_->fabric().node(hyp.pf).lid());

  // A new attachment point means real path computation — no shortcut.
  sm_->compute_routes();
  report.path_computation_seconds = sm_->routing_result().compute_seconds;
  report.distribution = sm_->distribute_lfts();
  return report;
}

sm::SweepReport VSwitchFabric::full_reconfigure() {
  IBVS_REQUIRE(booted_, "boot() first");
  sm::SweepReport report;
  sm_->compute_routes();
  report.path_computation_seconds = sm_->routing_result().compute_seconds;
  report.distribution = sm_->distribute_lfts();
  return report;
}

const Vm& VSwitchFabric::vm(VmHandle handle) const {
  const auto it = vms_.find(handle.id);
  IBVS_REQUIRE(it != vms_.end(), "unknown VM");
  return it->second;
}

Vm& VSwitchFabric::vm_mutable(VmHandle handle) {
  const auto it = vms_.find(handle.id);
  IBVS_REQUIRE(it != vms_.end(), "unknown VM");
  return it->second;
}

std::vector<std::uint32_t> VSwitchFabric::active_vm_ids() const {
  std::vector<std::uint32_t> ids;
  ids.reserve(vms_.size());
  for (const auto& [id, vm] : vms_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

NodeId VSwitchFabric::vm_node(VmHandle handle) const {
  const Vm& v = vm(handle);
  return hypervisors_[v.hypervisor].vfs[v.vf_index];
}

}  // namespace ibvs::core
