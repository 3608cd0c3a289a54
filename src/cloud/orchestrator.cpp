#include "cloud/orchestrator.hpp"

#include <algorithm>
#include <limits>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/expect.hpp"

namespace ibvs::cloud {

namespace {

/// VM lifecycle and migration-latency metrics for the orchestrator.
struct CloudMetrics {
  telemetry::Counter& vms_launched;
  telemetry::Counter& migrations;
  telemetry::Histogram& migration_seconds;
  telemetry::Histogram& reconfig_us;
  /// Orchestrations that never opened a transaction; committed/rolled_back
  /// children of the same family are incremented by the vSwitch layer.
  telemetry::Counter& migrations_failed;

  static CloudMetrics& get() {
    auto& reg = telemetry::Registry::global();
    static CloudMetrics m{
        reg.counter("ibvs_cloud_vm_lifecycle_total", {{"event", "launch"}},
                    "VM lifecycle events handled by the orchestrator"),
        reg.counter("ibvs_cloud_vm_lifecycle_total", {{"event", "migrate"}}),
        reg.histogram(
            "ibvs_cloud_migration_seconds", {},
            telemetry::HistogramOptions{.min_bound = 0.25,
                                        .num_buckets = 12},
            "End-to-end §VII-B migration flow latency (modeled)"),
        reg.histogram(
            "ibvs_cloud_migration_reconfig_us", {},
            telemetry::HistogramOptions{.min_bound = 1.0, .num_buckets = 24},
            "IB reconfiguration share of each migration"),
        reg.counter("ibvs_migrations_total", {{"outcome", "failed"}},
                    "Migration transactions by terminal outcome"),
    };
    return m;
  }
};

}  // namespace

const char* to_string(TxnOutcome outcome) {
  switch (outcome) {
    case TxnOutcome::kCommitted:
      return "committed";
    case TxnOutcome::kRolledBack:
      return "rolled-back";
    case TxnOutcome::kFailed:
      return "failed";
  }
  return "?";
}

CloudOrchestrator::CloudOrchestrator(core::VSwitchFabric& fabric,
                                     Placement placement, FlowTiming timing)
    : fabric_(fabric), placement_(placement), timing_(timing) {}

bool CloudOrchestrator::hypervisor_attached(std::size_t h) const {
  const auto& hyp = fabric_.hypervisors()[h];
  return fabric_.subnet_manager()
      .fabric()
      .physical_attachment(hyp.pf)
      .has_value();
}

std::optional<std::size_t> CloudOrchestrator::pick_hypervisor() {
  const auto& hyps = fabric_.hypervisors();
  switch (placement_) {
    case Placement::kFirstFit: {
      for (std::size_t h = 0; h < hyps.size(); ++h) {
        if (fabric_.free_vf_on(h) && hypervisor_attached(h)) return h;
      }
      return std::nullopt;
    }
    case Placement::kRoundRobin: {
      for (std::size_t tried = 0; tried < hyps.size(); ++tried) {
        const std::size_t h = (rr_next_ + tried) % hyps.size();
        if (fabric_.free_vf_on(h) && hypervisor_attached(h)) {
          rr_next_ = (h + 1) % hyps.size();
          return h;
        }
      }
      return std::nullopt;
    }
    case Placement::kSpread: {
      // Occupancy straight off the per-hypervisor free-list: O(hosts), not
      // O(hosts * VMs) — the difference between a planner pass and a
      // quadratic stall at fleet scale.
      std::optional<std::size_t> best;
      std::size_t best_used = std::numeric_limits<std::size_t>::max();
      for (std::size_t h = 0; h < hyps.size(); ++h) {
        const std::size_t free = fabric_.free_vf_count(h);
        if (free == 0 || !hypervisor_attached(h)) continue;
        const std::size_t used = hyps[h].vfs.size() - free;
        if (used < best_used) {
          best_used = used;
          best = h;
        }
      }
      return best;
    }
    case Placement::kCongestionAware: {
      // Least-blocked uplink wins; without a map every score is 0 and this
      // degrades to first-fit order.
      std::optional<std::size_t> best;
      std::uint64_t best_score = std::numeric_limits<std::uint64_t>::max();
      for (std::size_t h = 0; h < hyps.size(); ++h) {
        if (!fabric_.free_vf_on(h) || !hypervisor_attached(h)) continue;
        const std::uint64_t score = uplink_congestion(h);
        if (score < best_score) {
          best_score = score;
          best = h;
        }
      }
      return best;
    }
  }
  return std::nullopt;
}

std::uint64_t CloudOrchestrator::uplink_congestion(std::size_t h) const {
  if (congestion_ == nullptr) return 0;
  const auto& hyp = fabric_.hypervisors()[h];
  // Down direction: the leaf's egress toward the hypervisor. Up direction:
  // the vSwitch's uplink egress (all VFs share it — the property the paper
  // exploits — so queueing there hits every VM on the host).
  std::uint64_t score = congestion_->blocked_on(hyp.leaf, hyp.leaf_port);
  const auto& fabric = fabric_.subnet_manager().fabric();
  if (const auto uplink = fabric.vswitch_uplink(hyp.vswitch)) {
    score += congestion_->blocked_on(hyp.vswitch, *uplink);
  }
  return score;
}

std::vector<std::pair<std::size_t, std::uint64_t>>
CloudOrchestrator::rank_destinations(core::VmHandle vm) const {
  const std::size_t src = fabric_.vm(vm).hypervisor;
  std::vector<std::pair<std::size_t, std::uint64_t>> ranked;
  const auto& hyps = fabric_.hypervisors();
  for (std::size_t h = 0; h < hyps.size(); ++h) {
    if (h == src) continue;
    if (fabric_.free_vf_count(h) == 0 || !hypervisor_attached(h)) continue;
    ranked.emplace_back(h, uplink_congestion(h));
  }
  // Equal congestion scores tie-break on the PF NodeId, then the index: a
  // total order independent of enumeration quirks, so seeded plans
  // reproduce byte-identically across platforms and thread counts.
  std::sort(ranked.begin(), ranked.end(),
            [&hyps](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second < b.second;
              const NodeId pf_a = hyps[a.first].pf;
              const NodeId pf_b = hyps[b.first].pf;
              if (pf_a != pf_b) return pf_a < pf_b;
              return a.first < b.first;
            });
  return ranked;
}

std::vector<core::VmHandle> CloudOrchestrator::launch_vms(std::size_t count) {
  auto span = telemetry::Tracer::global().span(
      "cloud.launch_vms", {{"count", std::to_string(count)}});
  std::vector<core::VmHandle> handles;
  handles.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto h = pick_hypervisor();
    IBVS_REQUIRE(h.has_value(), "cloud is full: no free VF");
    handles.push_back(fabric_.create_vm(*h).vm);
    CloudMetrics::get().vms_launched.inc();
  }
  return handles;
}

MigrationFlowReport CloudOrchestrator::migrate(
    core::VmHandle vm, std::size_t dst_hypervisor,
    const core::MigrationOptions& options) {
  const auto& hyps = fabric_.hypervisors();
  if (dst_hypervisor >= hyps.size()) {
    throw core::MigrationError(core::MigrationErrc::kBadDestination,
                               "hypervisor " + std::to_string(dst_hypervisor) +
                                   " out of range (have " +
                                   std::to_string(hyps.size()) + ")");
  }
  if (!fabric_.free_vf_on(dst_hypervisor)) {
    throw core::MigrationError(
        core::MigrationErrc::kNoFreeVf,
        "no free VF on hypervisor " + std::to_string(dst_hypervisor));
  }
  auto span = telemetry::Tracer::global().span("cloud.migrate");
  MigrationFlowReport report;
  // With a PerfMgr attached, bracket the flow with PMA snapshots of the
  // two uplinks so the report carries *measured* traffic, not just the
  // modeled SMP counts.
  std::vector<perf::PortKey> impact_keys;
  std::vector<perf::PortReading> before;
  if (perf_ != nullptr) {
    const auto& src = hyps[fabric_.vm(vm).hypervisor];
    const auto& dst = hyps[dst_hypervisor];
    impact_keys = {{src.leaf, src.leaf_port}, {dst.leaf, dst.leaf_port}};
    before = perf_->read_ports(impact_keys);
  }
  // Step 1: detach the VF; the live migration begins.
  report.detach_s = timing_.detach_vf_s;
  report.copy_s = timing_.memory_copy_s();
  // Step 2: OpenStack signals OpenSM (Ethernet-side, cheap).
  report.signal_s = timing_.signal_s;
  // Step 3: OpenSM reconfigures the IB network.
  report.network = fabric_.migrate_vm(vm, dst_hypervisor, options);
  report.reconfig_s = (report.network.reconfig.lft_time_us +
                       report.network.reconfig.drain_time_us) *
                      1e-6;
  // Step 4: the VF holding the VM's addresses is attached at the target.
  report.attach_s = timing_.attach_vf_s;
  if (perf_ != nullptr) {
    const auto after = perf_->read_ports(impact_keys);
    perf::MigrationImpact impact;
    impact.src_before = before[0];
    impact.src_after = after[0];
    impact.dst_before = before[1];
    impact.dst_after = after[1];
    // Two snapshots of two ports, classic + extended Get each.
    impact.poll_mads = 8;
    report.impact = impact;
  }
  auto& metrics = CloudMetrics::get();
  metrics.migrations.inc();
  metrics.migration_seconds.observe(report.total_s());
  metrics.reconfig_us.observe(report.reconfig_s * 1e6);
  span.set_attr("total_s", std::to_string(report.total_s()));
  span.set_attr("switches_updated",
                std::to_string(report.network.reconfig.switches_updated));
  return report;
}

core::UpdatePlan CloudOrchestrator::predict_update_set(
    core::VmHandle vm, std::size_t dst_hypervisor,
    core::ReconfigMode mode) const {
  const auto& sm = fabric_.subnet_manager();
  const auto& v = fabric_.vm(vm);
  const auto& hyps = fabric_.hypervisors();
  IBVS_REQUIRE(dst_hypervisor < hyps.size(), "hypervisor out of range");
  const auto& src = hyps[v.hypervisor];
  const auto& dst = hyps[dst_hypervisor];

  // The VM LID takes the destination PF's entries (dynamic copy) or the
  // free destination VF's, which swaps back to the source (prepopulated).
  core::UpdateRequest request{.vm_lid = v.lid,
                              .vm_at = {dst.leaf, dst.leaf_port},
                              .back_at = {src.leaf, src.leaf_port}};
  if (fabric_.scheme() == core::LidScheme::kPrepopulated) {
    const auto free_vf = fabric_.free_vf_on(dst_hypervisor);
    IBVS_REQUIRE(free_vf.has_value(), "no free VF on the destination");
    request.takes_from = sm.fabric().node(dst.vfs[*free_vf]).lid();
    request.swap_back = true;
  } else {
    request.takes_from = sm.fabric().node(dst.pf).lid();
  }
  return core::plan_update_set(sm.routing_result(), request, mode);
}

core::UpdatePlan CloudOrchestrator::predict_swap_update_set(
    core::VmHandle vm_a, core::VmHandle vm_b,
    core::ReconfigMode mode) const {
  const auto& a = fabric_.vm(vm_a);
  const auto& b = fabric_.vm(vm_b);
  const auto& hyps = fabric_.hypervisors();
  // The symmetric entry exchange: each LID takes the other's entries and
  // lands on the other's hypervisor.
  return core::plan_update_set(
      fabric_.subnet_manager().routing_result(),
      {.vm_lid = a.lid,
       .takes_from = b.lid,
       .swap_back = true,
       .vm_at = {hyps[b.hypervisor].leaf, hyps[b.hypervisor].leaf_port},
       .back_at = {hyps[a.hypervisor].leaf, hyps[a.hypervisor].leaf_port}},
      mode);
}

ParallelPlan CloudOrchestrator::plan_parallel(
    const std::vector<MigrationRequest>& requests, core::ReconfigMode mode) {
  ParallelPlan plan;
  std::vector<std::vector<routing::SwitchIdx>> round_union;

  for (const auto& request : requests) {
    auto set =
        predict_update_set(request.vm, request.dst_hypervisor, mode).update_set;
    bool placed = false;
    for (std::size_t r = 0; r < plan.rounds.size() && !placed; ++r) {
      std::vector<routing::SwitchIdx> overlap;
      std::set_intersection(round_union[r].begin(), round_union[r].end(),
                            set.begin(), set.end(),
                            std::back_inserter(overlap));
      if (!overlap.empty()) continue;
      plan.rounds[r].push_back(request);
      std::vector<routing::SwitchIdx> merged;
      std::set_union(round_union[r].begin(), round_union[r].end(),
                     set.begin(), set.end(), std::back_inserter(merged));
      round_union[r] = std::move(merged);
      placed = true;
    }
    if (!placed) {
      plan.rounds.push_back({request});
      round_union.push_back(std::move(set));
    }
  }
  return plan;
}

CloudOrchestrator::PlanExecution CloudOrchestrator::execute(
    const ParallelPlan& plan, const core::MigrationOptions& options) {
  PlanExecution exec;
  for (const auto& round : plan.rounds) {
    double round_max = 0.0;
    for (const auto& request : round) {
      auto report = migrate(request.vm, request.dst_hypervisor, options);
      round_max = std::max(round_max, report.total_s());
      exec.serial_s += report.total_s();
      exec.reports.push_back(std::move(report));
    }
    exec.elapsed_s += round_max;
  }
  return exec;
}

std::optional<std::size_t> CloudOrchestrator::pick_fallback(
    core::VmHandle vm, const std::vector<std::size_t>& exclude) const {
  // With a congestion map attached, re-placement also avoids hot uplinks:
  // rank_destinations order instead of first-fit.
  if (congestion_ != nullptr) {
    for (const auto& [h, score] : rank_destinations(vm)) {
      if (std::find(exclude.begin(), exclude.end(), h) == exclude.end()) {
        return h;
      }
    }
    return std::nullopt;
  }
  const std::size_t src = fabric_.vm(vm).hypervisor;
  const auto& hyps = fabric_.hypervisors();
  for (std::size_t h = 0; h < hyps.size(); ++h) {
    if (h == src) continue;
    if (std::find(exclude.begin(), exclude.end(), h) != exclude.end()) {
      continue;
    }
    if (fabric_.free_vf_on(h) && hypervisor_attached(h)) return h;
  }
  return std::nullopt;
}

MigrationTxnReport CloudOrchestrator::migrate_txn(
    core::VmHandle vm, std::size_t dst_hypervisor,
    const core::MigrationOptions& options, const TxnPolicy& policy) {
  return run_attempts(
      "cloud.migrate_txn", dst_hypervisor, policy,
      policy.allow_replacement ? vm : core::VmHandle{},
      [&](std::size_t dst) {
        return fabric_.begin_migration(vm, dst, options);
      });
}

MigrationTxnReport CloudOrchestrator::swap_txn(
    core::VmHandle vm_a, core::VmHandle vm_b,
    const core::MigrationOptions& options, const TxnPolicy& policy) {
  // No re-placement: the destination IS the peer.
  return run_attempts("cloud.swap_txn", 0, policy, core::VmHandle{},
                      [&](std::size_t) {
                        return fabric_.begin_swap(vm_a, vm_b, options);
                      });
}

MigrationTxnReport CloudOrchestrator::run_attempts(
    const char* span_name, std::size_t dst, const TxnPolicy& policy,
    core::VmHandle replace,
    const std::function<core::MigrationTxn(std::size_t)>& begin) {
  auto span = telemetry::Tracer::global().span(span_name);
  MigrationTxnReport report;
  report.dst_hypervisor = dst;
  const std::size_t requested_dst = dst;
  std::vector<std::size_t> tried;
  bool opened_txn = false;

  const auto enter = [&](core::MigrationTxn& txn, core::TxnState state) {
    txn.state = state;
    if (policy.on_step) policy.on_step(state, txn);
  };
  // Destination-side failures re-place the VM on a fallback host; with no
  // fallback the next attempt retries the same one — it may come back.
  const auto re_place = [&] {
    tried.push_back(dst);
    const auto next = pick_fallback(replace, tried);
    if (next) dst = *next;
    return next.has_value();
  };

  for (std::size_t attempt = 1; attempt <= policy.max_attempts; ++attempt) {
    report.attempts = attempt;
    if (attempt > 1) {
      report.elapsed_s +=
          policy.backoff_base_s * static_cast<double>(1ULL << (attempt - 2));
    }
    std::optional<core::MigrationTxn> txn;
    try {
      txn = begin(dst);
    } catch (const core::MigrationError& e) {
      report.error = e.what();
      const auto code = e.code();
      const bool placement_issue =
          code == core::MigrationErrc::kNoFreeVf ||
          code == core::MigrationErrc::kBadDestination;
      if (placement_issue && replace.valid() && re_place()) continue;
      break;  // unrecoverable without a destination
    }
    opened_txn = true;
    if (!replace.valid()) report.dst_hypervisor = txn->dst_hypervisor;
    try {
      if (policy.on_step) policy.on_step(core::TxnState::kPrepared, *txn);
      // §VII-B steps 1-2: detach the VF, pre-copy memory. These are
      // wall-clock phases; the chaos hook may kill the destination at any
      // of these edges and the next phase revalidates. A swap's two VFs
      // detach and its two memories pre-copy concurrently (the copies
      // cross different host pairs' links), so it pays each phase once.
      enter(*txn, core::TxnState::kDetached);
      report.elapsed_s += timing_.detach_vf_s;
      enter(*txn, core::TxnState::kCopied);
      report.elapsed_s += timing_.memory_copy_s() + timing_.signal_s;
      // Step 3: the SM reconfigures. Unreachable switches abort here
      // rather than sending into the void.
      fabric_.txn_move_addresses(*txn);
      if (policy.on_step) {
        policy.on_step(core::TxnState::kReconfiguring, *txn);
      }
      fabric_.txn_apply_lfts(
          *txn, core::VSwitchFabric::ApplyOptions{.require_reachable = true});
      const double reconfig_us =
          txn->stats.lft_time_us + txn->stats.drain_time_us;
      report.elapsed_s += reconfig_us * 1e-6;
      // Per-step budget from the TimingModel: a batch slower than the
      // worst-case reliable-MAD budget for every touched switch plus the
      // address SMPs (3 for a copy, 4 for a swap's crossed pair) means
      // MADs are genuinely lost, not slow.
      double budget_us = policy.reconfig_timeout_us;
      if (budget_us <= 0.0) {
        const auto& tm = fabric_.subnet_manager().transport().timing();
        budget_us = tm.mad_budget_us(8) *
                    static_cast<double>(txn->stats.switches_total +
                                        txn->stats.hypervisor_lid_smps +
                                        txn->stats.guid_smps);
      }
      if (reconfig_us > budget_us) {
        throw core::MigrationError(
            core::MigrationErrc::kStepTimeout,
            "reconfiguration took " + std::to_string(reconfig_us) +
                "us against a budget of " + std::to_string(budget_us) + "us");
      }
      // Step 4: attach at the destination — and, for a swap, at the
      // source — which may have died since the copy; a dead endpoint
      // cannot complete the hot-plug.
      enter(*txn, core::TxnState::kAttached);
      report.elapsed_s += timing_.attach_vf_s;
      if (!hypervisor_attached(txn->dst_hypervisor) ||
          (txn->is_swap && !hypervisor_attached(txn->src_hypervisor))) {
        throw core::MigrationError(
            core::MigrationErrc::kDestinationDetached,
            txn->is_swap ? "a swap endpoint died before the VF attach"
                         : "hypervisor " +
                               std::to_string(txn->dst_hypervisor) +
                               " died before the VF attach");
      }
      fabric_.txn_commit(*txn);
      report.outcome = TxnOutcome::kCommitted;
      report.dst_hypervisor = txn->dst_hypervisor;
      report.replaced = dst != requested_dst;
      report.reconfig = txn->stats;
      report.error.clear();
      break;
    } catch (const core::MigrationError& e) {
      report.error = e.what();
      if (!txn->terminal()) fabric_.txn_rollback(*txn);
      report.rollback_smps += txn->rollback_smps;
      report.elapsed_s += txn->rollback_time_us * 1e-6;
      const auto code = e.code();
      const bool retryable =
          code == core::MigrationErrc::kDestinationDetached ||
          code == core::MigrationErrc::kSwitchUnreachable ||
          code == core::MigrationErrc::kStepTimeout ||
          code == core::MigrationErrc::kInterrupted;
      if (!retryable) break;
      if (replace.valid()) re_place();
    }
  }

  if (report.outcome != TxnOutcome::kCommitted) {
    report.outcome = opened_txn ? TxnOutcome::kRolledBack : TxnOutcome::kFailed;
    if (!opened_txn) CloudMetrics::get().migrations_failed.inc();
  }
  span.set_attr("outcome", to_string(report.outcome));
  span.set_attr("attempts", std::to_string(report.attempts));
  return report;
}

CloudOrchestrator::MigrationImpactProbe
CloudOrchestrator::probe_migration_impact(
    core::VmHandle vm, std::size_t dst_hypervisor,
    const std::vector<fabric::FlowSpec>& victim_flows,
    const ProbeOptions& options) {
  auto span = telemetry::Tracer::global().span("cloud.probe_migration");
  const auto& fabric = fabric_.subnet_manager().fabric();

  // The switches this migration will touch, resolved to NodeIds before
  // anything moves — the "shared links" are their egresses.
  const auto update_set =
      predict_update_set(vm, dst_hypervisor, options.migration.mode)
          .update_set;
  const auto& graph = fabric_.subnet_manager().routing_result().graph;
  std::vector<NodeId> updated_nodes;
  updated_nodes.reserve(update_set.size());
  for (const auto s : update_set) updated_nodes.push_back(graph.switches[s]);
  std::sort(updated_nodes.begin(), updated_nodes.end());

  MigrationImpactProbe probe;
  const auto run_phase = [&](perf::IntCollector& collector,
                             std::function<void(std::uint64_t)> on_step) {
    ProbeRun run;
    fabric::CreditSimConfig config = options.sim;
    config.int_mode.enabled = true;
    config.int_mode.sink = &collector;
    config.on_step = std::move(on_step);
    run.sim = fabric::simulate_flows(fabric, victim_flows, config);
    run.map = collector.build_map(options.top_k);
    for (const auto& [tenant, blocked] : run.map.tenant_blocked) {
      run.victim_blocked += blocked;
    }
    return run;
  };

  perf::IntCollector before, during, after;
  probe.before = run_phase(before, options.sim.on_step);
  bool migrated = false;
  probe.during = run_phase(during, [&](std::uint64_t step) {
    if (options.sim.on_step) options.sim.on_step(step);
    if (step == options.migrate_at_step && !migrated) {
      migrated = true;
      probe.migration =
          fabric_.migrate_vm(vm, dst_hypervisor, options.migration);
    }
  });
  // A short probe may settle before migrate_at_step; migrate anyway so the
  // "after" phase measures the post-move tables either way.
  if (!migrated) {
    probe.migration = fabric_.migrate_vm(vm, dst_hypervisor,
                                         options.migration);
  }
  probe.after = run_phase(after, options.sim.on_step);

  // Delta-blocking on every link of an updated switch that any phase saw.
  std::map<perf::LinkKey, SharedLinkDelta> shared;
  const auto fold = [&](const perf::CongestionMap& map,
                        std::uint64_t SharedLinkDelta::*phase) {
    for (const auto& [key, link] : map.links) {
      if (!std::binary_search(updated_nodes.begin(), updated_nodes.end(),
                              key.node)) {
        continue;
      }
      auto& delta = shared[key];
      delta.link = key;
      delta.*phase = link.blocked.sum;
    }
  };
  fold(probe.before.map, &SharedLinkDelta::blocked_before);
  fold(probe.during.map, &SharedLinkDelta::blocked_during);
  fold(probe.after.map, &SharedLinkDelta::blocked_after);
  probe.shared_links.reserve(shared.size());
  for (auto& [key, delta] : shared) probe.shared_links.push_back(delta);

  span.set_attr("victim_blocked_before",
                std::to_string(probe.before.victim_blocked));
  span.set_attr("victim_blocked_during",
                std::to_string(probe.during.victim_blocked));
  span.set_attr("shared_links", std::to_string(probe.shared_links.size()));
  return probe;
}

}  // namespace ibvs::cloud
