// INT collector, congestion map, PMA fusion, and the placement control loop.
#include <gtest/gtest.h>

#include "cloud/orchestrator.hpp"
#include "fabric/credit_sim.hpp"
#include "perf/int_collector.hpp"
#include "tests/helpers.hpp"

namespace ibvs {
namespace {

using fabric::CreditSimConfig;
using fabric::FlowSpec;
using fabric::IntHop;
using fabric::IntPathRecord;
using perf::IntCollector;
using perf::LinkKey;

TEST(Log2Distribution, QuantilesAreBucketUpperBounds) {
  perf::Log2Distribution d;
  for (std::uint64_t v : {0ull, 0ull, 1ull, 2ull, 3ull, 7ull, 100ull}) {
    d.observe(v);
  }
  EXPECT_EQ(d.total, 7u);
  EXPECT_EQ(d.max, 100u);
  EXPECT_EQ(d.sum, 113u);
  EXPECT_EQ(d.quantile(0.0), 0u);
  // p50 lands in the bit_width-2 bucket (values 2..3): upper bound 3.
  EXPECT_EQ(d.quantile(0.5), 3u);
  EXPECT_EQ(d.quantile(1.0), 100u);  // capped at the observed max
  EXPECT_NEAR(d.mean(), 113.0 / 7.0, 1e-9);
}

IntPathRecord make_record(NodeId src, std::uint32_t dst,
                          std::uint32_t tenant,
                          std::vector<IntHop> hops) {
  IntPathRecord r;
  r.src = src;
  r.dst = Lid{static_cast<std::uint16_t>(dst)};
  r.tenant = tenant;
  r.hops = std::move(hops);
  return r;
}

TEST(IntCollector, AggregatesLinksFlowsAndTenants) {
  IntCollector c;
  const IntHop hot{.node = 10, .egress_port = 2, .occupancy = 1,
                   .blocked_steps = 8};
  const IntHop cool{.node = 11, .egress_port = 3, .occupancy = 0,
                    .blocked_steps = 1};
  c.on_path(make_record(1, 100, 0, {hot, cool}));
  c.on_path(make_record(1, 100, 0, {hot}));
  c.on_path(make_record(2, 100, 1, {hot, cool}));

  const auto map = c.build_map(1);
  EXPECT_EQ(map.stacks, 3u);
  EXPECT_EQ(map.hops, 5u);
  EXPECT_EQ(map.links.size(), 2u);
  EXPECT_EQ(map.blocked_on(10, 2), 24u);
  EXPECT_EQ(map.blocked_on(11, 3), 2u);
  EXPECT_EQ(map.blocked_on(99, 1), 0u);  // never sampled
  // top_k = 1 keeps only the hotter link.
  ASSERT_EQ(map.hot_links.size(), 1u);
  EXPECT_EQ(map.hot_links[0].link, (LinkKey{10, 2}));
  EXPECT_EQ(map.hot_links[0].blocked_total, 24u);
  EXPECT_TRUE(map.is_hot(10, 2));
  EXPECT_FALSE(map.is_hot(11, 3));
  // Tenant attribution: tenant 0 contributed 8+1+8, tenant 1 8+1.
  EXPECT_EQ(map.tenant_blocked.at(0), 17u);
  EXPECT_EQ(map.tenant_blocked.at(1), 9u);
  EXPECT_EQ(map.links.at(LinkKey{10, 2}).tenant_blocked.at(1), 8u);
  // Per-flow records keyed by (src, dst, tenant).
  EXPECT_EQ(c.flows().size(), 2u);
  const auto& flow =
      c.flows().at(perf::FlowKey{.src = 1, .dst_lid = 100, .tenant = 0});
  EXPECT_EQ(flow.packets, 2u);
  EXPECT_EQ(flow.blocked_total, 17u);

  const std::string json = map.to_json();
  EXPECT_NE(json.find("\"hot_links\":["), std::string::npos);
  EXPECT_NE(json.find("\"tenants\":["), std::string::npos);

  c.reset();
  EXPECT_EQ(c.stacks(), 0u);
  EXPECT_TRUE(c.build_map(4).links.empty());
}

TEST(IntCollector, HotLinksMatchPmaXmitWaitOnTheSameRun) {
  // Acceptance: with 1 credit per channel and full sampling, INT and PMA
  // must agree on where the fabric is backed up — the stacks attribute
  // blocked steps to the same egresses whose PortXmitWait ticked, and the
  // map's hottest link tops the PMA ranking too. (Blocked steps can exceed
  // wait ticks by at most one step per forwarding: a packet whose upstream
  // channel is evaluated before the downstream slot frees ages one step
  // without a wait tick.)
  auto s = test::PhysicalSubnet::small_fat_tree();
  s.sm->full_sweep();
  std::vector<FlowSpec> flows;  // all-to-one incast onto host 0
  for (std::size_t i = 1; i < s.hosts.size(); ++i) {
    flows.push_back(
        FlowSpec{s.hosts[i], s.fabric.node(s.hosts[0]).lid(), 10, 0});
  }
  IntCollector collector;
  CreditSimConfig config;
  config.credits_per_channel = 1;
  config.int_mode.enabled = true;
  config.int_mode.sink = &collector;
  const auto report = fabric::simulate_flows(s.fabric, flows, config);
  ASSERT_TRUE(report.all_delivered());
  const auto map = collector.build_map(4);
  ASSERT_FALSE(map.hot_links.empty());

  // Per-link agreement: wait <= blocked <= wait + samples.
  for (const auto& [key, link] : map.links) {
    const std::uint64_t wait =
        s.fabric.node(key.node).ports[key.port].counters.xmit_wait;
    EXPECT_GE(link.blocked.sum, wait)
        << "node " << key.node << " port " << unsigned{key.port};
    EXPECT_LE(link.blocked.sum, wait + link.samples)
        << "node " << key.node << " port " << unsigned{key.port};
  }
  // The map's hottest link is among the top PMA ports by xmit-wait.
  std::vector<std::pair<std::uint64_t, LinkKey>> pma;
  for (NodeId n = 0; n < s.fabric.size(); ++n) {
    const auto& node = s.fabric.node(n);
    for (std::size_t p = 1; p < node.ports.size(); ++p) {
      const std::uint32_t wait = node.ports[p].counters.xmit_wait;
      if (wait > 0) {
        pma.emplace_back(wait, LinkKey{n, static_cast<PortNum>(p)});
      }
    }
  }
  ASSERT_FALSE(pma.empty());
  std::sort(pma.begin(), pma.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  const auto top = map.hot_links[0].link;
  bool in_pma_top3 = false;
  for (std::size_t i = 0; i < std::min<std::size_t>(3, pma.size()); ++i) {
    if (pma[i].second == top) in_pma_top3 = true;
  }
  EXPECT_TRUE(in_pma_top3)
      << "INT top link (" << top.node << "," << unsigned{top.port}
      << ") not in the PMA xmit-wait top-3";
  // And every INT hot link shows PMA wait on the same run.
  for (const auto& hot : map.hot_links) {
    EXPECT_GT(
        s.fabric.node(hot.link.node).ports[hot.link.port].counters.xmit_wait,
        0u);
  }
}

TEST(IntCollector, FusionSeparatesHotFromBroken) {
  IntCollector c;
  const IntHop hot{.node = 5, .egress_port = 1, .blocked_steps = 40};
  const IntHop dying{.node = 6, .egress_port = 2, .blocked_steps = 30};
  c.on_path(make_record(1, 50, 0, {hot, dying}));
  const auto map = c.build_map(8);

  perf::HealthReport health;
  health.findings.push_back(perf::PortFinding{
      .node = 6, .port = 2, .status = perf::PortStatus::kError,
      .reason = "symbol-error spike"});
  health.findings.push_back(perf::PortFinding{
      .node = 9, .port = 4, .status = perf::PortStatus::kDegraded,
      .reason = "rcv errors"});
  health.errors = 1;
  health.degraded = 1;

  const auto diagnoses = perf::fuse_with_health(map, health);
  ASSERT_EQ(diagnoses.size(), 3u);  // sorted by LinkKey
  EXPECT_EQ(diagnoses[0].link, (LinkKey{5, 1}));
  EXPECT_EQ(diagnoses[0].verdict, perf::LinkVerdict::kHot);
  EXPECT_EQ(diagnoses[0].blocked_total, 40u);
  EXPECT_EQ(diagnoses[1].link, (LinkKey{6, 2}));
  EXPECT_EQ(diagnoses[1].verdict, perf::LinkVerdict::kHotAndBroken);
  EXPECT_NE(diagnoses[1].reason.find("symbol-error"), std::string::npos);
  EXPECT_EQ(diagnoses[2].link, (LinkKey{9, 4}));
  EXPECT_EQ(diagnoses[2].verdict, perf::LinkVerdict::kBroken);
  EXPECT_EQ(diagnoses[2].blocked_total, 0u);
  EXPECT_EQ(perf::to_string(perf::LinkVerdict::kHot), "hot");
}

/// Background traffic hammering leaf 0 (tenant 0): incast from the other
/// leaves plus an intra-leaf ring among hypervisors 0-2, so every leaf-0
/// downlink has two ingress channels competing for it — the downlinks
/// themselves go hot, not just the spine paths feeding them.
std::vector<FlowSpec> leaf0_incast(const test::VirtualSubnet& s) {
  std::vector<FlowSpec> flows;
  for (std::size_t src = 3; src < s.hyps.size(); ++src) {
    for (std::size_t dst = 0; dst < 3; ++dst) {
      flows.push_back(FlowSpec{
          s.hyps[src].pf,
          s.fabric.node(s.hyps[dst].pf).lid(), 20, 0});
    }
  }
  for (std::size_t h = 0; h < 3; ++h) {
    flows.push_back(FlowSpec{
        s.hyps[h].pf,
        s.fabric.node(s.hyps[(h + 1) % 3].pf).lid(), 40, 0});
  }
  return flows;
}

TEST(CongestionAwarePlacement, AvoidsTheHotLeafAndReducesVictimBlocking) {
  // Acceptance: in a contended scenario, placement steered by the INT map
  // must land the new VM off the hot leaf and measurably reduce the victim
  // tenant's blocked steps versus congestion-blind (first-fit) placement.
  const auto scenario = [](bool aware) {
    auto s = test::VirtualSubnet::small(core::LidScheme::kDynamic);
    s.vsf->boot();
    const auto background = leaf0_incast(s);
    CreditSimConfig config;
    config.credits_per_channel = 1;  // contended: every leaf-0 downlink hot

    // Telemetry pass: INT-sample the background to build the map. Run it in
    // both scenarios so the fabrics stay byte-identical.
    IntCollector sampler;
    config.int_mode.enabled = true;
    config.int_mode.sink = &sampler;
    EXPECT_TRUE(
        fabric::simulate_flows(s.fabric, background, config).all_delivered());
    const auto map = sampler.build_map(8);
    EXPECT_GT(map.blocked_on(s.hyps[0].leaf, s.hyps[0].leaf_port), 0u);

    cloud::CloudOrchestrator orch(
        *s.vsf, aware ? cloud::Placement::kCongestionAware
                      : cloud::Placement::kFirstFit);
    if (aware) orch.attach_congestion(&map);
    const auto vm = orch.launch_vms(1)[0];
    const std::size_t chosen = s.vsf->vm(vm).hypervisor;

    // Victim pass: the same background plus one victim flow (tenant 1)
    // from the SM node to the freshly placed VM.
    auto combined = background;
    FlowSpec victim;
    victim.src = s.sm_node;
    victim.dst = s.vsf->vm(vm).lid;
    victim.packets = 30;
    victim.tenant = 1;
    combined.push_back(victim);
    IntCollector meter;
    config.int_mode.sink = &meter;
    EXPECT_TRUE(
        fabric::simulate_flows(s.fabric, combined, config).all_delivered());
    const auto after = meter.build_map(8);
    const auto it = after.tenant_blocked.find(1);
    const std::uint64_t victim_blocked =
        it == after.tenant_blocked.end() ? 0 : it->second;
    return std::tuple{chosen, s.hyps[chosen].leaf, s.hyps[0].leaf,
                      victim_blocked};
  };

  const auto [blind_h, blind_leaf, hot_leaf_b, blind_blocked] =
      scenario(false);
  const auto [aware_h, aware_leaf, hot_leaf_a, aware_blocked] =
      scenario(true);
  // First-fit walks into the congested leaf; the map walks away from it.
  EXPECT_EQ(blind_h, 0u);
  EXPECT_EQ(blind_leaf, hot_leaf_b);
  EXPECT_NE(aware_leaf, hot_leaf_a) << "picked hypervisor " << aware_h;
  EXPECT_LT(aware_blocked, blind_blocked);
  EXPECT_GT(blind_blocked, 0u);
}

TEST(CongestionAwarePlacement, RanksMigrationDestinationsByUplinkHeat) {
  auto s = test::VirtualSubnet::small(core::LidScheme::kDynamic);
  s.vsf->boot();
  const auto background = leaf0_incast(s);
  IntCollector sampler;
  CreditSimConfig config;
  config.credits_per_channel = 1;
  config.int_mode.enabled = true;
  config.int_mode.sink = &sampler;
  ASSERT_TRUE(
      fabric::simulate_flows(s.fabric, background, config).all_delivered());
  const auto map = sampler.build_map(8);

  cloud::CloudOrchestrator orch(*s.vsf, cloud::Placement::kFirstFit);
  const auto vm = s.vsf->create_vm(6).vm;  // lives on leaf 2
  // Without a map every candidate scores 0.
  for (const auto& [h, score] : orch.rank_destinations(vm)) {
    EXPECT_EQ(score, 0u);
  }
  orch.attach_congestion(&map);
  ASSERT_TRUE(orch.congestion_aware());
  const auto ranked = orch.rank_destinations(vm);
  ASSERT_FALSE(ranked.empty());
  // Ascending by congestion; the hot-leaf hypervisors score strictly worse
  // than the best candidate, and the source is excluded.
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_LE(ranked[i - 1].second, ranked[i].second);
    EXPECT_NE(ranked[i].first, 6u);
  }
  EXPECT_LT(ranked.front().second, orch.uplink_congestion(0));
  EXPECT_NE(s.hyps[ranked.front().first].leaf, s.hyps[0].leaf);
}

TEST(MigrationImpactProbe, MeasuresVictimFlowsAcrossTheMove) {
  auto s = test::VirtualSubnet::small(core::LidScheme::kDynamic);
  s.vsf->boot();
  const auto vm = s.vsf->create_vm(0).vm;
  cloud::CloudOrchestrator orch(*s.vsf, cloud::Placement::kFirstFit);

  // Victim flows from every other hypervisor onto the VM (tenant 7): they
  // ride the links the migration is about to update.
  std::vector<FlowSpec> victims;
  for (std::size_t h = 2; h < s.hyps.size(); ++h) {
    FlowSpec f;
    f.src = s.hyps[h].pf;
    f.dst = s.vsf->vm(vm).lid;
    f.packets = 30;
    f.tenant = 7;
    victims.push_back(f);
  }
  cloud::CloudOrchestrator::ProbeOptions options;
  options.sim.credits_per_channel = 1;
  options.sim.timeout_steps = 64;  // IB timeouts cover the transient
  options.migrate_at_step = 10;
  // The switches this move will touch, resolved before anything migrates.
  const auto update_set = orch.predict_update_set(vm, 1).update_set;
  const auto& graph = s.sm->routing_result().graph;
  std::vector<NodeId> updated;
  for (const auto idx : update_set) updated.push_back(graph.switches[idx]);
  const auto probe = orch.probe_migration_impact(vm, 1, victims, options);

  // The migration really happened, intra-leaf (hyp 0 -> 1, same leaf).
  EXPECT_EQ(s.vsf->vm(vm).hypervisor, 1u);
  EXPECT_TRUE(probe.migration.intra_leaf);
  EXPECT_GT(probe.migration.reconfig.switches_updated, 0u);
  // Every phase sampled traffic into its own map.
  EXPECT_GT(probe.before.map.stacks, 0u);
  EXPECT_GT(probe.during.map.stacks, 0u);
  EXPECT_GT(probe.after.map.stacks, 0u);
  EXPECT_GT(probe.before.victim_blocked, 0u);  // incast always queues
  // Shared links: blocking on exactly the switches the move updates (the
  // shared leaf plus any switch whose per-LID up-port differs).
  ASSERT_FALSE(probe.shared_links.empty());
  for (const auto& link : probe.shared_links) {
    EXPECT_NE(std::find(updated.begin(), updated.end(), link.link.node),
              updated.end())
        << "shared link on node " << link.link.node
        << " which the migration does not update";
  }
}

TEST(MigrationImpactProbe, DefaultOptionsOverloadRuns) {
  auto s = test::VirtualSubnet::small(core::LidScheme::kDynamic);
  s.vsf->boot();
  const auto vm = s.vsf->create_vm(0).vm;
  cloud::CloudOrchestrator orch(*s.vsf, cloud::Placement::kFirstFit);
  std::vector<FlowSpec> victims{
      FlowSpec{s.hyps[2].pf, s.vsf->vm(vm).lid, 5, 0}};
  const auto probe = orch.probe_migration_impact(vm, 3, victims);
  EXPECT_EQ(s.vsf->vm(vm).hypervisor, 3u);
  EXPECT_GT(probe.after.map.stacks, 0u);
}

}  // namespace
}  // namespace ibvs
