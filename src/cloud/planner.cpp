#include "cloud/planner.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <unordered_set>

#include "ib/types.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/expect.hpp"

namespace ibvs::cloud {

namespace {

/// Re-plans one execute() runs at most after passes with failures.
constexpr std::size_t kMaxReplans = 2;

struct PlannerMetrics {
  telemetry::Counter& plans;
  telemetry::Counter& moves_copy;
  telemetry::Counter& moves_swap;
  telemetry::Counter& replans;

  static PlannerMetrics& get() {
    auto& reg = telemetry::Registry::global();
    static PlannerMetrics m{
        reg.counter("ibvs_planner_plans_total", {},
                    "Fleet migration plans computed"),
        reg.counter("ibvs_planner_moves_total", {{"kind", "copy"}},
                    "Planned moves by kind"),
        reg.counter("ibvs_planner_moves_total", {{"kind", "swap"}}),
        reg.counter("ibvs_planner_replans_total", {},
                    "Executor passes that re-planned after failures"),
    };
    return m;
  }
};

/// The SMP write unit of one LFT entry: hardware programs LFTs in 64-entry
/// blocks, so two moves touching the same (switch, block) pair would fold
/// into each other's SMPs and must not run concurrently.
[[nodiscard]] std::uint64_t write_unit(routing::SwitchIdx s, Lid lid) {
  return (static_cast<std::uint64_t>(s) << 32) |
         (lid.value() / kLftBlockSize);
}

[[nodiscard]] bool sorted_intersect(const std::vector<std::uint64_t>& a,
                                    const std::vector<std::uint64_t>& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

const char* to_string(FleetGoalKind kind) {
  switch (kind) {
    case FleetGoalKind::kEvacuateHypervisor:
      return "evacuate-hypervisor";
    case FleetGoalKind::kEvacuateLeaf:
      return "evacuate-leaf";
    case FleetGoalKind::kConsolidateVms:
      return "consolidate-vms";
    case FleetGoalKind::kRebalanceCongestion:
      return "rebalance-congestion";
  }
  return "?";
}

std::string to_string(const MigrationPlan& plan) {
  std::ostringstream os;
  os << to_string(plan.goal.kind) << ": " << plan.total_moves() << " moves ("
     << plan.swap_moves() << " swaps) in " << plan.batches.size()
     << " batches, " << plan.predicted_smps() << " predicted SMPs";
  for (std::size_t b = 0; b < plan.batches.size(); ++b) {
    os << "\n  batch " << b << ":";
    for (const auto& m : plan.batches[b].moves) {
      os << " vm" << m.vm.id;
      if (m.is_swap()) {
        os << "<->vm" << m.swap_with.id;
      } else {
        os << "->" << m.dst_hypervisor;
      }
    }
  }
  return os.str();
}

MigrationPlanner::MigrationPlanner(CloudOrchestrator& cloud)
    : MigrationPlanner(cloud, Options{}) {}

MigrationPlanner::MigrationPlanner(CloudOrchestrator& cloud, Options options)
    : cloud_(&cloud), options_(options) {}

std::vector<MigrationPlanner::RawMove> MigrationPlanner::moves_for(
    const FleetGoal& goal) const {
  auto& fabric = cloud_->fabric();
  const auto& hyps = fabric.hypervisors();
  const auto& physical = fabric.subnet_manager().fabric();

  const auto attached = [&](std::size_t h) {
    return physical.physical_attachment(hyps[h].pf).has_value();
  };

  // VM ids per hypervisor, ascending — the deterministic enumeration every
  // goal below draws from.
  std::vector<std::vector<std::uint32_t>> on_host(hyps.size());
  for (const std::uint32_t id : fabric.active_vm_ids()) {
    on_host[fabric.vm({id}).hypervisor].push_back(id);
  }
  // Capacity snapshot. Planned copies consume destination slots; nothing is
  // credited back for vacated sources — a credited slot is only real after
  // the vacating move commits, and relying on it would impose cross-batch
  // ordering the executor does not promise.
  std::vector<std::size_t> free(hyps.size());
  for (std::size_t h = 0; h < hyps.size(); ++h) {
    free[h] = fabric.free_vf_count(h);
  }

  // Copy-destination choice shared by the evacuation goals. Hosts with the
  // fewest already-planned incoming moves win first: moves sharing a
  // destination conflict (VF-slot contention) and serialize across batches,
  // so spreading the fan-in is what turns an evacuation into one wide batch
  // instead of a convoy. Then same-leaf hosts (an intra-leaf move updates
  // exactly one switch, §VI-D), then coolest uplink, then PF NodeId, then
  // index — a total order, so plans reproduce byte-identically.
  std::vector<std::size_t> incoming(hyps.size(), 0);
  const auto pick_copy_dst =
      [&](std::size_t src,
          const std::vector<char>& forbidden) -> std::optional<std::size_t> {
    std::optional<std::size_t> best;
    auto better = [&](std::size_t a, std::size_t b) {
      if (incoming[a] != incoming[b]) return incoming[a] < incoming[b];
      const bool leaf_a = hyps[a].leaf == hyps[src].leaf;
      const bool leaf_b = hyps[b].leaf == hyps[src].leaf;
      if (leaf_a != leaf_b) return leaf_a;
      const auto ca = cloud_->uplink_congestion(a);
      const auto cb = cloud_->uplink_congestion(b);
      if (ca != cb) return ca < cb;
      if (hyps[a].pf != hyps[b].pf) return hyps[a].pf < hyps[b].pf;
      return a < b;
    };
    for (std::size_t h = 0; h < hyps.size(); ++h) {
      if (h == src || forbidden[h] || free[h] == 0 || !attached(h)) continue;
      if (!best || better(h, *best)) best = h;
    }
    return best;
  };

  std::vector<RawMove> moves;
  switch (goal.kind) {
    case FleetGoalKind::kEvacuateHypervisor:
    case FleetGoalKind::kEvacuateLeaf: {
      // Drained hosts are forbidden destinations — which also rules out
      // swaps, since a swap would park the peer on a host being emptied.
      std::vector<char> forbidden(hyps.size(), 0);
      std::vector<std::size_t> sources;
      if (goal.kind == FleetGoalKind::kEvacuateHypervisor) {
        IBVS_REQUIRE(goal.hypervisor < hyps.size(),
                     "evacuation hypervisor out of range");
        forbidden[goal.hypervisor] = 1;
        sources.push_back(goal.hypervisor);
      } else {
        for (std::size_t h = 0; h < hyps.size(); ++h) {
          if (hyps[h].leaf == goal.leaf) {
            forbidden[h] = 1;
            sources.push_back(h);
          }
        }
      }
      for (const std::size_t src : sources) {
        for (const std::uint32_t id : on_host[src]) {
          const auto dst = pick_copy_dst(src, forbidden);
          if (!dst) continue;  // cloud full: this VM cannot leave yet
          --free[*dst];
          ++incoming[*dst];
          moves.push_back({core::VmHandle{id}, src, *dst, {}});
        }
      }
      break;
    }
    case FleetGoalKind::kConsolidateVms: {
      std::unordered_set<std::uint32_t> active;
      for (const std::uint32_t id : fabric.active_vm_ids()) active.insert(id);
      std::vector<std::uint32_t> tenant_ids;
      for (const auto vm : goal.vms) {
        if (vm.valid() && active.count(vm.id) != 0) tenant_ids.push_back(vm.id);
      }
      std::sort(tenant_ids.begin(), tenant_ids.end());
      tenant_ids.erase(std::unique(tenant_ids.begin(), tenant_ids.end()),
                       tenant_ids.end());
      std::unordered_set<std::uint32_t> tenant(tenant_ids.begin(),
                                               tenant_ids.end());

      std::vector<std::size_t> tenant_count(hyps.size(), 0);
      std::vector<std::vector<std::uint32_t>> swap_peers(hyps.size());
      for (std::size_t h = 0; h < hyps.size(); ++h) {
        for (const std::uint32_t id : on_host[h]) {
          if (tenant.count(id) != 0) {
            ++tenant_count[h];
          } else {
            swap_peers[h].push_back(id);  // ascending: on_host is sorted
          }
        }
      }

      // Pack onto the hosts already holding the most tenant VMs; each
      // target absorbs tenants through free VFs first, then (option
      // permitting) by swapping out its non-tenant VMs.
      std::vector<std::size_t> order;
      for (std::size_t h = 0; h < hyps.size(); ++h) {
        if (attached(h)) order.push_back(h);
      }
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (tenant_count[a] != tenant_count[b]) {
          return tenant_count[a] > tenant_count[b];
        }
        if (hyps[a].pf != hyps[b].pf) return hyps[a].pf < hyps[b].pf;
        return a < b;
      });
      std::vector<char> is_target(hyps.size(), 0);
      std::size_t covered = 0;
      for (const std::size_t h : order) {
        if (covered >= tenant_ids.size()) break;
        is_target[h] = 1;
        covered += tenant_count[h] + free[h] + swap_peers[h].size();
      }

      for (const std::uint32_t id : tenant_ids) {
        const std::size_t src = fabric.vm({id}).hypervisor;
        if (is_target[src]) continue;  // already packed
        bool placed = false;
        for (const std::size_t t : order) {
          if (!is_target[t] || t == src) continue;
          if (free[t] > 0) {
            --free[t];
            moves.push_back({core::VmHandle{id}, src, t, {}});
            placed = true;
            break;
          }
          if (!swap_peers[t].empty()) {
            const std::uint32_t peer = swap_peers[t].front();
            swap_peers[t].erase(swap_peers[t].begin());
            moves.push_back({core::VmHandle{id}, src, t,
                             core::VmHandle{peer}});
            placed = true;
            break;
          }
        }
        (void)placed;  // unplaceable tenants stay put; a re-plan retries
      }
      break;
    }
    case FleetGoalKind::kRebalanceCongestion: {
      IBVS_REQUIRE(cloud_->congestion_aware(),
                   "rebalance goal needs a congestion map "
                   "(CloudOrchestrator::attach_congestion)");
      std::vector<std::uint64_t> score(hyps.size());
      for (std::size_t h = 0; h < hyps.size(); ++h) {
        score[h] = cloud_->uplink_congestion(h);
      }
      std::vector<std::size_t> hot;
      for (std::size_t h = 0; h < hyps.size(); ++h) {
        if (score[h] > 0 && !on_host[h].empty() && attached(h)) {
          hot.push_back(h);
        }
      }
      std::sort(hot.begin(), hot.end(), [&](std::size_t a, std::size_t b) {
        if (score[a] != score[b]) return score[a] > score[b];
        if (hyps[a].pf != hyps[b].pf) return hyps[a].pf < hyps[b].pf;
        return a < b;
      });
      const std::size_t cap =
          goal.max_moves > 0 ? goal.max_moves : hot.size();
      std::vector<std::size_t> swap_cursor(hyps.size(), 0);
      for (const std::size_t h : hot) {
        if (moves.size() >= cap) break;
        const std::uint32_t vm_id = on_host[h].front();
        // Coldest strictly-cooler host wins; prefer a free VF, fall back to
        // swapping with its lowest-id VM.
        std::optional<std::size_t> dst;
        bool via_swap = false;
        auto cooler = [&](std::size_t a, std::size_t b) {
          if (score[a] != score[b]) return score[a] < score[b];
          if (hyps[a].pf != hyps[b].pf) return hyps[a].pf < hyps[b].pf;
          return a < b;
        };
        for (std::size_t c = 0; c < hyps.size(); ++c) {
          if (c == h || score[c] >= score[h] || !attached(c)) continue;
          const bool can_copy = free[c] > 0;
          const bool can_swap = swap_cursor[c] < on_host[c].size();
          if (!can_copy && !can_swap) continue;
          if (!dst || cooler(c, *dst)) {
            dst = c;
            via_swap = !can_copy;
          }
        }
        if (!dst) continue;
        if (via_swap) {
          const std::uint32_t peer = on_host[*dst][swap_cursor[*dst]++];
          moves.push_back({core::VmHandle{vm_id}, h, *dst,
                           core::VmHandle{peer}});
        } else {
          --free[*dst];
          moves.push_back({core::VmHandle{vm_id}, h, *dst, {}});
        }
      }
      break;
    }
  }
  return moves;
}

void MigrationPlanner::annotate(std::vector<PlannedMove>& moves) const {
  for (PlannedMove& m : moves) {
    // The plan names the LIDs it writes: the VM's, plus the peer's on a
    // swap or the destination VF's that swaps back when prepopulated.
    core::UpdatePlan plan =
        m.is_swap()
            ? cloud_->predict_swap_update_set(m.vm, m.swap_with, options_.mode)
            : cloud_->predict_update_set(m.vm, m.dst_hypervisor,
                                         options_.mode);
    const std::vector<Lid> lids = plan.lids();
    m.update_set = std::move(plan.update_set);
    m.update_keys.reserve(m.update_set.size() * lids.size());
    for (const auto s : m.update_set) {
      for (const Lid lid : lids) m.update_keys.push_back(write_unit(s, lid));
    }
    std::sort(m.update_keys.begin(), m.update_keys.end());
    m.update_keys.erase(
        std::unique(m.update_keys.begin(), m.update_keys.end()),
        m.update_keys.end());
    // One SMP per dirty write unit, plus the address SMPs: LID + vGUID per
    // endpoint VF that changes owner (2 for a copy + the release, 4 for a
    // swap's crossed pair).
    m.predicted_smps =
        m.update_keys.size() + (m.is_swap() ? 4 : 3);
    m.hot_exposure = cloud_->uplink_congestion(m.src_hypervisor) +
                     cloud_->uplink_congestion(m.dst_hypervisor);
  }
}

bool MigrationPlanner::conflict(const PlannedMove& a, const PlannedMove& b,
                                bool uncoordinated) {
  // Endpoint rule. A destination consumes a VF slot, so two moves must not
  // race for the same host's slots; and a move out of a host must not run
  // beside a move into it (the incoming VM could land in the very slot the
  // outgoing one is vacating mid-transaction). A swap populates AND vacates
  // both of its endpoints. Two plain copies *out of* the same host do not
  // conflict — they leave through distinct VFs — which is exactly what lets
  // a single-hypervisor evacuation fan out in one batch.
  const auto receives = [](const PlannedMove& m, std::size_t h) {
    return m.dst_hypervisor == h || (m.is_swap() && m.src_hypervisor == h);
  };
  const auto vacates = [](const PlannedMove& m, std::size_t h) {
    return m.src_hypervisor == h || (m.is_swap() && m.dst_hypervisor == h);
  };
  const std::size_t hosts_a[2] = {a.src_hypervisor, a.dst_hypervisor};
  for (const std::size_t h : hosts_a) {
    if (receives(a, h) && (receives(b, h) || vacates(b, h))) return true;
    if (vacates(a, h) && receives(b, h)) return true;
  }
  // SMP write-unit rule, uncoordinated regime only: without a single agent
  // serializing emission, two writers of the same (switch, LFT-block) pair
  // read-modify-write the same 64-entry unit and one clobbers the other.
  // The repo's executor serializes, so the default regime skips this.
  return uncoordinated && sorted_intersect(a.update_keys, b.update_keys);
}

MigrationPlan MigrationPlanner::plan(const FleetGoal& goal) const {
  auto span = telemetry::Tracer::global().span(
      "planner.plan", {{"goal", to_string(goal.kind)}});
  MigrationPlan plan;
  plan.goal = goal;

  const auto raw = moves_for(goal);
  std::vector<PlannedMove> moves;
  moves.reserve(raw.size());
  for (const auto& r : raw) {
    PlannedMove m;
    m.vm = r.vm;
    m.src_hypervisor = r.src;
    m.dst_hypervisor = r.dst;
    m.swap_with = r.swap_with;
    moves.push_back(std::move(m));
  }
  annotate(moves);

  // Hottest exposure first: the batches that drain congested uplinks run
  // earliest, so the transient window where traffic crosses a hot link is
  // as short as the plan can make it. Ties: cheapest SMP bill, then VM id.
  std::sort(moves.begin(), moves.end(),
            [](const PlannedMove& a, const PlannedMove& b) {
              if (a.hot_exposure != b.hot_exposure) {
                return a.hot_exposure > b.hot_exposure;
              }
              if (a.predicted_smps != b.predicted_smps) {
                return a.predicted_smps < b.predicted_smps;
              }
              return a.vm.id < b.vm.id;
            });

  // Greedy first-fit: each move lands in the earliest batch it conflicts
  // with no member of.
  for (auto& m : moves) {
    bool placed = false;
    for (auto& batch : plan.batches) {
      const bool clash = std::any_of(
          batch.moves.begin(), batch.moves.end(),
          [&](const PlannedMove& other) { return conflicts(m, other); });
      if (clash) continue;
      batch.moves.push_back(std::move(m));
      placed = true;
      break;
    }
    if (!placed) plan.batches.push_back({{std::move(m)}});
  }

  auto& metrics = PlannerMetrics::get();
  metrics.plans.inc();
  for (const auto& b : plan.batches) {
    for (const auto& m : b.moves) {
      (m.is_swap() ? metrics.moves_swap : metrics.moves_copy).inc();
    }
  }
  span.set_attr("moves", std::to_string(plan.total_moves()));
  span.set_attr("batches", std::to_string(plan.batches.size()));
  span.set_attr("swaps", std::to_string(plan.swap_moves()));
  return plan;
}

PlanExecutor::PlanExecutor(CloudOrchestrator& cloud) : cloud_(&cloud) {}

FleetExecution PlanExecutor::execute(const MigrationPlanner& planner,
                                     const MigrationPlan& plan,
                                     const core::MigrationOptions& options,
                                     const ExecutorPolicy& policy) {
  auto span = telemetry::Tracer::global().span(
      "planner.execute", {{"goal", to_string(plan.goal.kind)}});
  FleetExecution out;
  auto& fabric = cloud_->fabric();
  const MigrationPlan* current = &plan;
  MigrationPlan replanned;
  std::size_t batch_index = 0;

  for (;;) {
    bool any_failure = false;
    for (const auto& batch : current->batches) {
      if (policy.on_batch_start) policy.on_batch_start(batch_index, batch);
      ++batch_index;
      BatchExecution be;

      // Revalidate against live fabric state — chaos (or an earlier batch's
      // rollback) may have destroyed a member or moved it elsewhere.
      std::unordered_set<std::uint32_t> active;
      for (const std::uint32_t id : fabric.active_vm_ids()) active.insert(id);
      const auto still_at = [&](core::VmHandle vm, std::size_t hypervisor) {
        return active.count(vm.id) != 0 &&
               fabric.vm(vm).hypervisor == hypervisor;
      };
      std::vector<char> ok(batch.moves.size(), 0);
      for (std::size_t i = 0; i < batch.moves.size(); ++i) {
        const auto& m = batch.moves[i];
        ok[i] = still_at(m.vm, m.src_hypervisor) &&
                (!m.is_swap() || still_at(m.swap_with, m.dst_hypervisor));
      }

      // Members run serially in index order: conflict-freedom makes every
      // interleaving equivalent, and a fixed order keeps the SMP stream
      // byte-identical at any pool size. The wall-clock phases overlap —
      // the batch costs its slowest member, not the sum.
      for (std::size_t i = 0; i < batch.moves.size(); ++i) {
        const auto& m = batch.moves[i];
        if (!ok[i]) {
          ++be.skipped;
          continue;
        }
        MigrationTxnReport report =
            m.is_swap()
                ? cloud_->swap_txn(m.vm, m.swap_with, options, policy.txn)
                : cloud_->migrate_txn(m.vm, m.dst_hypervisor, options,
                                      policy.txn);
        be.elapsed_s = std::max(be.elapsed_s, report.elapsed_s);
        be.serial_s += report.elapsed_s;
        be.rollback_smps += report.rollback_smps;
        switch (report.outcome) {
          case TxnOutcome::kCommitted:
            ++be.committed;
            be.smps += report.reconfig.total_smps();
            if (m.is_swap()) ++out.swaps_committed;
            break;
          case TxnOutcome::kRolledBack:
            ++be.rolled_back;
            any_failure = true;
            break;
          case TxnOutcome::kFailed:
            ++be.failed;
            any_failure = true;
            break;
        }
        be.reports.push_back(std::move(report));
      }

      if (policy.on_batch_end) {
        policy.on_batch_end(batch_index - 1, batch, be);
      }
      out.makespan_s += be.elapsed_s;
      out.serial_s += be.serial_s;
      out.smps += be.smps;
      out.rollback_smps += be.rollback_smps;
      out.committed += be.committed;
      out.rolled_back += be.rolled_back;
      out.failed += be.failed;
      out.skipped += be.skipped;
      out.batches.push_back(std::move(be));
    }

    if (!any_failure || !policy.replan_on_failure ||
        out.replans >= kMaxReplans) {
      break;
    }
    // The goals are state-derived, so planning again against the live
    // fabric covers exactly the moves the failed pass left undone.
    ++out.replans;
    PlannerMetrics::get().replans.inc();
    replanned = planner.plan(current->goal);
    if (replanned.total_moves() == 0) break;
    current = &replanned;
  }

  span.set_attr("committed", std::to_string(out.committed));
  span.set_attr("rolled_back", std::to_string(out.rolled_back));
  span.set_attr("replans", std::to_string(out.replans));
  span.set_attr("makespan_s", std::to_string(out.makespan_s));
  return out;
}

DrainDetachReport drain_and_detach(
    CloudOrchestrator& cloud, NodeId leaf,
    const core::MigrationOptions& options, const ExecutorPolicy& policy) {
  core::VSwitchFabric& vsf = cloud.fabric();
  const auto& hyps = vsf.hypervisors();

  const auto resident_under_leaf = [&]() {
    std::size_t n = 0;
    for (std::size_t h = 0; h < hyps.size(); ++h) {
      if (hyps[h].leaf != leaf) continue;
      n += hyps[h].vfs.size() - vsf.free_vf_count(h);
    }
    return n;
  };

  DrainDetachReport report;
  const std::size_t before = resident_under_leaf();
  if (before > 0) {
    MigrationPlanner planner(cloud);
    FleetGoal goal;
    goal.kind = FleetGoalKind::kEvacuateLeaf;
    goal.leaf = leaf;
    report.plan = planner.plan(goal);
    PlanExecutor executor(cloud);
    report.evacuation =
        executor.execute(planner, report.plan, options, policy);
  }
  const std::size_t after = resident_under_leaf();
  report.vms_evacuated = before - after;
  if (after > 0) {
    // A fleet pass that exhausted its re-plans left live VMs behind; the
    // detach must not orphan them.
    throw sm::TopologyError(
        sm::TopologyErrc::kNotDrained,
        "evacuation left " + std::to_string(after) +
            " VM(s) resident under the leaf; detach refused");
  }
  sm::TopologyTxnManager topo(vsf.subnet_manager(), vsf.journal());
  report.detach = topo.detach_switch(leaf, /*allow_orphan_endpoints=*/true);
  return report;
}

}  // namespace ibvs::cloud
