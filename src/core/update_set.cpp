#include "core/update_set.hpp"

#include <algorithm>
#include <iterator>

#include "core/skyline.hpp"

namespace ibvs::core {

UpdatePlan plan_update_set(const routing::RoutingResult& master,
                           const UpdateRequest& request, ReconfigMode mode) {
  const routing::SwitchGraph& graph = master.graph;
  const std::size_t s_count = graph.num_switches();
  UpdatePlan plan;
  plan.vm_lid = request.vm_lid;
  if (request.swap_back) plan.swapped_lid = request.takes_from;

  // The VM LID takes the other LID's path; on a swap the other LID takes
  // the VM's, preserving the balancing of the initial routing.
  EntryDelta vm_delta;
  vm_delta.old_entry.resize(s_count);
  vm_delta.new_entry.resize(s_count);
  for (routing::SwitchIdx s = 0; s < s_count; ++s) {
    vm_delta.old_entry[s] = master.lfts[s].get(request.vm_lid);
    vm_delta.new_entry[s] = master.lfts[s].get(request.takes_from);
  }
  EntryDelta back_delta;
  if (request.swap_back) {
    back_delta.old_entry = vm_delta.new_entry;
    back_delta.new_entry = vm_delta.old_entry;
  }

  // The §VI-D minimal (skyline) sets. Each LID gets its *own* set: a
  // minimal set is a fixpoint of "updated switches use new entries, the
  // rest keep old ones" for that LID — applying one LID's new entries
  // outside its own set would create old/new hybrids the fixpoint never
  // validated (and can loop).
  if (mode == ReconfigMode::kMinimal || request.measure_minimal) {
    std::vector<routing::SwitchIdx> minimal_vm = minimal_update_set(
        graph, vm_delta, graph.dense(request.vm_at.first),
        request.vm_at.second);
    std::vector<routing::SwitchIdx> minimal_back;
    if (request.swap_back) {
      minimal_back = minimal_update_set(graph, back_delta,
                                        graph.dense(request.back_at.first),
                                        request.back_at.second);
    }
    std::vector<routing::SwitchIdx> minimal_union;
    std::set_union(minimal_vm.begin(), minimal_vm.end(), minimal_back.begin(),
                   minimal_back.end(), std::back_inserter(minimal_union));
    plan.minimal_set_size = minimal_union.size();
    if (mode == ReconfigMode::kMinimal) {
      plan.vm_set = std::move(minimal_vm);
      plan.swapped_set = std::move(minimal_back);
      plan.update_set = std::move(minimal_union);
    }
  }
  if (mode == ReconfigMode::kDeterministic) {
    // Algorithm 1: everywhere the entries change. On a swap both LIDs
    // change on exactly the same switches (the entries differ
    // symmetrically).
    plan.vm_set = changed_switches(vm_delta);
    if (request.swap_back) plan.swapped_set = plan.vm_set;
    plan.update_set = plan.vm_set;
  }

  // Switch-adjacent deltas, keyed by durable NodeId, so each switch pushes
  // its dirty blocks once for both LIDs — 1 SMP when they share a 64-entry
  // block, which is the entire SMP advantage of a swap over two copies.
  std::vector<bool> in_vm(s_count, false);
  std::vector<bool> in_back(s_count, false);
  for (const routing::SwitchIdx s : plan.vm_set) in_vm[s] = true;
  for (const routing::SwitchIdx s : plan.swapped_set) in_back[s] = true;
  plan.deltas.reserve(plan.update_set.size() * 2);
  for (const routing::SwitchIdx s : plan.update_set) {
    const NodeId sw = graph.switches[s];
    if (in_vm[s]) {
      plan.deltas.push_back({sw, plan.vm_lid, vm_delta.old_entry[s],
                             vm_delta.new_entry[s]});
    }
    if (in_back[s]) {
      plan.deltas.push_back({sw, plan.swapped_lid, back_delta.old_entry[s],
                             back_delta.new_entry[s]});
    }
  }
  return plan;
}

}  // namespace ibvs::core
