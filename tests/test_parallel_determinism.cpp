// Determinism contract of the thread pool's fan-outs.
//
// The routing engines and the fabric checker fan out on the global thread
// pool above their work-size cutoffs — but the observable outputs must be
// byte-identical to a single-threaded run: the SMP stream (order included),
// the computed tables, the per-destination VLs, the checker report, and the
// chaos digest. These tests pin that contract by running the same scenario
// at several pool sizes, on fabrics large enough to cross the cutoffs, and
// comparing everything.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "fabric/credit_sim.hpp"
#include "fabric/trace.hpp"
#include "inject/chaos.hpp"
#include "inject/checker.hpp"
#include "inject/injector.hpp"
#include "perf/int_collector.hpp"
#include "tests/helpers.hpp"
#include "util/thread_pool.hpp"

namespace ibvs {
namespace {

using test::PhysicalSubnet;
using test::VirtualSubnet;

/// Pool sizes every sharded fast path must be indistinguishable under.
/// 1 is the serial baseline; 4 and 8 oversubscribe this runner's cores in
/// different shard geometries.
constexpr std::size_t kThreadSweep[] = {1, 4, 8};

/// Restores the default global pool sizing when a test exits.
struct ThreadGuard {
  explicit ThreadGuard(std::size_t threads) {
    ThreadPool::set_global_threads(threads);
  }
  ~ThreadGuard() { ThreadPool::set_global_threads(0); }
};

/// Switch and target counts at which every routing fan-out splits into at
/// least two ranges: twice the largest per-range minimum of the hop matrix
/// and the Min-Hop, fat-tree and Up*/Down* engines (fat_tree_routing.cpp:
/// 16 switches and 256 targets per range). The routing fabric below stays
/// above both; on a smaller one every pool size would run the same inline
/// pass.
constexpr std::size_t kRoutingFanOutSwitches = 2 * 16;
constexpr std::size_t kRoutingFanOutTargets = 2 * 256;
/// Switch count at which Min-Hop and the hop matrix split (min_hop.cpp and
/// graph.cpp: 8 switches per range).
constexpr std::size_t kMinHopFanOutSwitches = 2 * 8;

/// The 648-node paper tree: 54 switches and 702 target LIDs.
PhysicalSubnet routing_fabric(routing::EngineKind engine) {
  auto s = PhysicalSubnet::paper_tree(topology::PaperFatTree::k648, engine);
  EXPECT_GE(s.fabric.switch_ids().size(), kRoutingFanOutSwitches);
  EXPECT_GE(s.hosts.size() + s.fabric.switch_ids().size(),
            kRoutingFanOutTargets);
  return s;
}

/// Full sweep with every SMP recorded.
std::vector<Smp> sweep_stream(PhysicalSubnet& s) {
  std::vector<Smp> stream;
  s.sm->transport().set_smp_tap(&stream);
  s.sm->full_sweep();
  s.sm->transport().set_smp_tap(nullptr);
  return stream;
}

TEST(ParallelDeterminism, SweepSmpStreamMatchesSingleThreaded) {
  std::vector<std::vector<Smp>> streams;
  std::vector<std::vector<Lft>> lfts;
  for (const std::size_t threads : kThreadSweep) {
    ThreadGuard guard(threads);
    auto s = routing_fabric(routing::EngineKind::kMinHop);
    streams.push_back(sweep_stream(s));
    lfts.emplace_back();
    for (const NodeId sw : s.fabric.switch_ids()) {
      lfts.back().push_back(s.fabric.node(sw).lft);
    }
  }
  ASSERT_FALSE(streams[0].empty());
  for (std::size_t run = 1; run < streams.size(); ++run) {
    EXPECT_EQ(streams[0], streams[run]) << kThreadSweep[run] << " threads";
    EXPECT_EQ(lfts[0], lfts[run]) << kThreadSweep[run] << " threads";
  }
}

TEST(ParallelDeterminism, ReconvergeStreamMatchesSingleThreaded) {
  std::vector<Smp> streams[2];
  for (int run = 0; run < 2; ++run) {
    ThreadGuard guard(run == 0 ? 1 : 4);
    auto s = PhysicalSubnet::small_fat_tree();
    s.sm->full_sweep();
    // Cut one leaf-spine cable and watch the recovery stream.
    const NodeId spine = s.built.spines.front();
    s.fabric.disconnect(spine, 1);
    s.sm->transport().invalidate_topology();
    s.sm->transport().set_smp_tap(&streams[run]);
    const auto report = s.sm->reconverge();
    s.sm->transport().set_smp_tap(nullptr);
    EXPECT_TRUE(report.converged);
  }
  ASSERT_FALSE(streams[0].empty());
  EXPECT_EQ(streams[0], streams[1]);
}

TEST(ParallelDeterminism, FaultSequenceReconvergesAsSingleThreaded) {
  // Min-Hop rewrites the master tables in place, searching out-edges only
  // for the targets whose old port may no longer win: cuts, a flap, a
  // spine kill and the matching repairs, each recovered by reconverge() on
  // a tree large enough for the hop-matrix update and the fill to fan out.
  std::vector<std::vector<Smp>> streams;
  std::vector<std::vector<Lft>> masters;
  std::vector<std::vector<std::size_t>> rerouted;
  for (const std::size_t threads : kThreadSweep) {
    ThreadGuard guard(threads);
    auto s = routing_fabric(routing::EngineKind::kMinHop);
    s.sm->full_sweep();
    inject::FaultInjector injector(s.fabric);
    injector.attach_transport(&s.sm->transport());
    const NodeId leaf = s.built.leaves[5];
    const NodeId spine = s.built.spines[2];
    // Ports 1..18 face hosts, 19..36 the spines.
    const PortNum up = 19;
    ASSERT_TRUE(s.fabric.node(leaf).ports[up].connected());
    const std::function<void()> faults[] = {
        [&] { injector.cut_link(leaf, up); },
        [&] { injector.flap_link(s.built.leaves[7], up); },
        [&] { injector.kill_node(spine); },
        [&] { injector.restore_link(leaf, up); },
        [&] { injector.revive_node(spine); },
    };
    streams.emplace_back();
    rerouted.emplace_back();
    s.sm->transport().set_smp_tap(&streams.back());
    for (const auto& fault : faults) {
      fault();
      EXPECT_TRUE(s.sm->reconverge().converged);
      rerouted.back().push_back(s.sm->routing_result().switches_rerouted);
    }
    s.sm->transport().set_smp_tap(nullptr);
    masters.push_back(s.sm->routing_result().lfts);
  }
  ASSERT_FALSE(streams[0].empty());
  EXPECT_EQ(rerouted[0][1], 0u);  // the flap changed nothing
  for (std::size_t run = 1; run < streams.size(); ++run) {
    EXPECT_EQ(streams[0], streams[run]) << kThreadSweep[run] << " threads";
    EXPECT_EQ(masters[0], masters[run]) << kThreadSweep[run] << " threads";
    EXPECT_EQ(rerouted[0], rerouted[run]) << kThreadSweep[run] << " threads";
  }
}

/// Tables, VLs and layer count one engine computes at each pool size.
void expect_routing_matches_single_threaded(routing::EngineKind engine) {
  std::vector<routing::RoutingResult> results;
  for (const std::size_t threads : kThreadSweep) {
    ThreadGuard guard(threads);
    auto s = routing_fabric(engine);
    s.sm->discover();
    s.sm->assign_lids();
    results.push_back(s.sm->engine().compute(s.fabric, s.sm->lids()));
  }
  for (std::size_t run = 1; run < results.size(); ++run) {
    EXPECT_EQ(results[0].lfts, results[run].lfts)
        << routing::to_string(engine) << ", " << kThreadSweep[run]
        << " threads";
    EXPECT_EQ(results[0].dest_vl, results[run].dest_vl);
    EXPECT_EQ(results[0].num_vls, results[run].num_vls);
  }
}

TEST(ParallelDeterminism, DfssspTablesAndVlsMatchSingleThreaded) {
  // DFSSSP runs serially (its fan-out saved nothing); this pins that the
  // pool size still leaks into neither its tables nor its VLs.
  expect_routing_matches_single_threaded(routing::EngineKind::kDfsssp);
}

TEST(ParallelDeterminism, FatTreeAndUpDownTablesMatchSingleThreaded) {
  expect_routing_matches_single_threaded(routing::EngineKind::kFatTree);
  expect_routing_matches_single_threaded(routing::EngineKind::kUpDown);
}

TEST(ParallelDeterminism, ChaosDigestMatchesSingleThreaded) {
  // A 16-switch ring under Min-Hop (two ranges for the engine and the hop
  // matrix) with 31 hypervisors of 24 VFs: enough LIDs for the checker
  // every chaos step runs to shard as well.
  std::vector<std::uint64_t> digests;
  for (const std::size_t threads : kThreadSweep) {
    ThreadGuard guard(threads);
    auto s = VirtualSubnet::ring(core::LidScheme::kPrepopulated,
                                 /*switches=*/16, /*num_hyps=*/31,
                                 /*vfs=*/24, routing::EngineKind::kMinHop);
    s.vsf->boot();
    EXPECT_GE(s.fabric.switch_ids().size(), kMinHopFanOutSwitches);
    EXPECT_GE(s.sm->lids().assigned_lids().size(),
              2 * inject::FabricChecker::kMinTargetsPerShard);
    const auto report = inject::run_chaos(*s.vsf, /*seed=*/42, /*steps=*/24);
    digests.push_back(report.digest);
    EXPECT_TRUE(report.all_converged);
  }
  for (std::size_t run = 1; run < digests.size(); ++run) {
    EXPECT_EQ(digests[0], digests[run]) << kThreadSweep[run] << " threads";
  }
}

TEST(ParallelDeterminism, IntCongestionMapMatchesSingleThreaded) {
  // The INT pipeline — seeded sampling, stack aggregation, map build, JSON
  // export — must be byte-identical regardless of the global pool size (the
  // pool may run sweep phases while telemetry collects).
  std::string jsons[2];
  std::size_t sampled[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    ThreadGuard guard(run == 0 ? 1 : 4);
    auto s = PhysicalSubnet::small_fat_tree();
    s.sm->full_sweep();
    std::vector<fabric::FlowSpec> flows;
    for (std::size_t i = 1; i < s.hosts.size(); ++i) {
      fabric::FlowSpec f;
      f.src = s.hosts[i];
      f.dst = s.fabric.node(s.hosts[0]).lid();
      f.packets = 8;
      f.tenant = static_cast<std::uint32_t>(i % 3);
      flows.push_back(f);
    }
    perf::IntCollector collector;
    fabric::CreditSimConfig config;
    config.credits_per_channel = 1;
    config.int_mode.enabled = true;
    config.int_mode.sample_rate = 0.5;
    config.int_mode.seed = 2026;
    config.int_mode.sink = &collector;
    const auto report = fabric::simulate_flows(s.fabric, flows, config);
    EXPECT_TRUE(report.all_delivered());
    sampled[run] = report.int_sampled;
    jsons[run] = collector.build_map(8).to_json();
  }
  ASSERT_GT(sampled[0], 0u);
  EXPECT_EQ(sampled[0], sampled[1]);
  EXPECT_EQ(jsons[0], jsons[1]);  // byte-identical at 1 vs 4 threads
}

// ---------------------------------------------------------------------------
// Serial-trace oracle for the checker's memoized reachability walk.
//
// The checker's contract is that its report is byte-identical to what a
// per-(source, target) trace_unicast scan would produce. The walk earns
// its speed by memoizing each physical switch's verdict across sources and
// by detecting loops as a revisit of its own path, and it runs vSwitch hops
// unmemoized — each an opportunity to diverge. This oracle replays the
// checker's exact source sampling and target collection, walks every pair
// with the serial tracer, and formats findings the way the checker does,
// truncation semantics included.

struct SerialExpectation {
  std::vector<std::string> violations;
  std::size_t paths_traced = 0;
  bool truncated = false;
  std::size_t sources_sampled = 0;
};

/// The checker's reachability targets: every LID with a physical attachment
/// whose owner still has a cabled port.
std::vector<Lid> checker_targets(const sm::SubnetManager& sm) {
  const Fabric& fabric = sm.fabric();
  const LidMap& lids = sm.lids();
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
      continue;
    }
    targets.push_back(lid);
  }
  return targets;
}

/// Smallest target count at which the checker splits its reachability pass
/// into two shards. The checker fabrics below stay above it; on a smaller
/// fabric every pool size would run the same inline pass.
constexpr std::size_t kShardedTargets =
    2 * inject::FabricChecker::kMinTargetsPerShard;

/// The checker's reachability sources: `max_sources` CA endpoints with a
/// physical attachment, evenly spaced in NodeId order (0 = all).
std::vector<NodeId> sampled_sources(const sm::SubnetManager& sm,
                                    std::size_t max_sources) {
  const Fabric& fabric = sm.fabric();
  std::vector<NodeId> sources;
  for (NodeId id = 0; id < fabric.size(); ++id) {
    const Node& n = fabric.node(id);
    if (!n.is_ca() || !n.ports[1].connected()) continue;
    if (!fabric.physical_attachment(id)) continue;
    sources.push_back(id);
  }
  if (max_sources > 0 && sources.size() > max_sources) {
    std::vector<NodeId> sampled;
    const std::size_t n = sources.size();
    const std::size_t k = max_sources;
    for (std::size_t i = 0; i < k; ++i) {
      sampled.push_back(sources[k > 1 ? i * (n - 1) / (k - 1) : 0]);
    }
    sampled.erase(std::unique(sampled.begin(), sampled.end()), sampled.end());
    sources = std::move(sampled);
  }
  return sources;
}

SerialExpectation serial_reference(const sm::SubnetManager& sm,
                                   const inject::CheckerConfig& config) {
  const Fabric& fabric = sm.fabric();
  const std::vector<NodeId> sources = sampled_sources(sm, config.max_sources);
  const std::vector<Lid> targets = checker_targets(sm);

  SerialExpectation out;
  out.sources_sampled = sources.size();
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const Node& src = fabric.node(sources[i]);
    for (std::size_t t = 0; t < targets.size(); ++t) {
      const auto result =
          fabric::trace_unicast(fabric, sources[i], targets[t]);
      if (result.status == fabric::TraceStatus::kDelivered) continue;
      std::string what =
          result.status == fabric::TraceStatus::kLoop
              ? "routing loop tracing LID " +
                    std::to_string(targets[t].value()) + " from " + src.name
              : "LID " + std::to_string(targets[t].value()) +
                    " unreachable from " + src.name + " (" +
                    fabric::to_string(result.status) + ")";
      out.violations.push_back(std::move(what));
      if (out.violations.size() >= config.max_violations) {
        out.truncated = true;
        out.paths_traced = i * targets.size() + t + 1;
        return out;
      }
    }
  }
  out.paths_traced = sources.size() * targets.size();
  return out;
}

/// Sources the oracle samples.
constexpr std::size_t kOracleSources = 5;

/// First port of `node` cabled to `peer` (0 when not adjacent).
PortNum port_towards(const Fabric& fabric, NodeId node, NodeId peer) {
  const Node& n = fabric.node(node);
  for (PortNum p = 1; p <= n.num_ports(); ++p) {
    if (n.ports[p].connected() && n.ports[p].peer == peer) return p;
  }
  return 0;
}

/// Compares the checker (at every pool size) against the serial oracle at
/// a generous cap and at a truncating one.
void expect_matches_serial(const sm::SubnetManager& sm) {
  const inject::CheckerConfig configs[] = {
      {.max_violations = 500, .max_sources = kOracleSources},
      {.max_violations = 3, .max_sources = kOracleSources},
  };
  for (const auto& config : configs) {
    const SerialExpectation expected = serial_reference(sm, config);
    for (const std::size_t threads : kThreadSweep) {
      ThreadGuard guard(threads);
      const inject::FabricChecker checker(sm, config);
      const inject::CheckReport report = checker.check();
      EXPECT_EQ(report.violations, expected.violations)
          << threads << " threads, cap " << config.max_violations;
      EXPECT_EQ(report.truncated, expected.truncated)
          << threads << " threads, cap " << config.max_violations;
      EXPECT_EQ(report.paths_traced, expected.paths_traced)
          << threads << " threads, cap " << config.max_violations;
      EXPECT_EQ(report.sources_sampled, expected.sources_sampled);
    }
  }
}

/// Hosts per leaf (physical) and VFs per hypervisor (virtual) of the
/// checker fabrics: enough LIDs for the reachability pass to shard.
constexpr std::size_t kCheckerHostsPerLeaf = 200;
constexpr std::size_t kCheckerVfs = 72;

TEST(ParallelDeterminism, CheckerMatchesSerialTraceOnBrokenPhysicalFabric) {
  auto s = PhysicalSubnet::small_fat_tree(routing::EngineKind::kMinHop,
                                          kCheckerHostsPerLeaf);
  s.sm->full_sweep();
  ASSERT_GE(checker_targets(*s.sm).size(), kShardedTargets);
  const Fabric& fabric = s.fabric;
  // Host k under leaf l.
  const auto host = [&](std::size_t l, std::size_t k) {
    return s.hosts[l * kCheckerHostsPerLeaf + k];
  };
  const NodeId leaf0 = s.built.leaves[0];
  const NodeId leaf2 = s.built.leaves[2];
  const NodeId spine0 = s.built.spines[0];
  const NodeId spine1 = s.built.spines[1];

  // One fault per walk outcome, all placed *away* from the broken LIDs'
  // attachment switches so the LidMap pass stays clean and the report is
  // purely reachability findings.
  // kLoop: ping-pong a remote host LID between leaf0 and spine0.
  const Lid loop_lid = fabric.node(host(1, 1)).lid();
  s.fabric.node(leaf0).lft.set(loop_lid, port_towards(fabric, leaf0, spine0));
  s.fabric.node(spine0).lft.set(loop_lid,
                                port_towards(fabric, spine0, leaf0));
  // kDropped + kNoRoute: spine1 drops one host LID outright and forwards
  // another into an uncabled port.
  const Lid drop_lid = fabric.node(host(2, 1)).lid();
  s.fabric.node(spine1).lft.set(drop_lid, kDropPort);
  const Lid dangle_lid = fabric.node(host(3, 1)).lid();
  s.fabric.node(spine1).lft.set(dangle_lid,
                                fabric.node(spine1).num_ports());
  // kWrongDelivery: divert a leaf0-attached LID to a host under leaf2.
  const Lid divert_lid = fabric.node(host(0, 1)).lid();
  s.fabric.node(spine0).lft.set(divert_lid,
                                port_towards(fabric, spine0, leaf2));
  s.fabric.node(spine1).lft.set(divert_lid,
                                port_towards(fabric, spine1, leaf2));
  s.fabric.node(leaf2).lft.set(divert_lid,
                               port_towards(fabric, leaf2, host(2, 2)));

  expect_matches_serial(*s.sm);
}

TEST(ParallelDeterminism, CheckerMatchesSerialTraceOnBrokenVirtualFabric) {
  // Same oracle over a virtualized subnet: walks now transit vSwitches
  // (inline-hop fast path) and VF LIDs join both the source and target
  // sets. Wipe one spine and loop one VF LID between the spines.
  auto s = VirtualSubnet::small(core::LidScheme::kPrepopulated,
                                /*num_hyps=*/11, kCheckerVfs);
  s.vsf->boot();
  ASSERT_GE(checker_targets(*s.sm).size(), kShardedTargets);
  const Fabric& fabric = s.fabric;
  const NodeId spine0 = s.built.spines[0];
  const NodeId spine1 = s.built.spines[1];

  // hyp-2 (and its VFs) hangs off leaf 0, so ping-ponging its LID between
  // spine 0 and leaf *1* leaves the attachment switch's entry intact and
  // the LidMap pass clean.
  const Lid vf_lid = fabric.node(s.hyps[2].vfs[1]).lid();
  ASSERT_NE(s.hyps[2].leaf, s.built.leaves[1]);
  s.fabric.node(spine0).lft.set(
      vf_lid, port_towards(fabric, spine0, s.built.leaves[1]));
  s.fabric.node(s.built.leaves[1])
      .lft.set(vf_lid, port_towards(fabric, s.built.leaves[1], spine0));
  s.fabric.node(spine1).lft.clear();

  expect_matches_serial(*s.sm);
}

TEST(ParallelDeterminism, CheckerMatchesSerialTraceOnBrokenThreeLevelFabric) {
  // 4 pods of 4 leaves and 4 spines under 16 cores (core c reaches spine
  // c / 4 of every pod), hypervisors on three slots of every leaf. A later
  // source's walk meets an earlier verdict at the second or third physical
  // switch of its path (a pod spine or a core), which the 2-level fabrics
  // above never reach.
  constexpr std::size_t kLeavesPerPod = 4;
  constexpr std::size_t kSlotsPerLeaf = 4;
  VirtualSubnet s;
  s.built = topology::build_three_level_fat_tree(
      s.fabric, topology::ThreeLevelParams{.num_pods = 4,
                                           .leaves_per_pod = kLeavesPerPod,
                                           .spines_per_pod = 4,
                                           .num_cores = 16,
                                           .hosts_per_leaf = kSlotsPerLeaf,
                                           .radix = 8});
  // The fourth slot of every leaf stays free for the SM and for one
  // dual-homed host: its port-2 LID attaches to another leaf than its
  // port 1, the one way a source's walk to its own LID can miss it.
  std::vector<topology::HostSlot> hyp_slots;
  std::vector<topology::HostSlot> spare;
  for (std::size_t i = 0; i < s.built.host_slots.size(); ++i) {
    (i % kSlotsPerLeaf < 3 ? hyp_slots : spare)
        .push_back(s.built.host_slots[i]);
  }
  s.hyps = core::attach_hypervisors(s.fabric, hyp_slots, /*num_vfs=*/16);
  s.sm_node = s.fabric.add_ca("sm-node");
  s.fabric.connect(s.sm_node, 1, spare[0].leaf, spare[0].port);
  const NodeId dual = s.fabric.add_ca("dual-host", 2);
  const topology::HostSlot home = spare[spare.size() - 1];
  const topology::HostSlot away = spare[spare.size() - 2];
  s.fabric.connect(dual, 1, home.leaf, home.port);
  s.fabric.connect(dual, 2, away.leaf, away.port);
  s.fabric.validate();
  s.sm = std::make_unique<sm::SubnetManager>(
      s.fabric, s.sm_node, routing::make_engine(routing::EngineKind::kMinHop));
  s.vsf = std::make_unique<core::VSwitchFabric>(
      *s.sm, s.hyps, core::LidScheme::kPrepopulated);
  s.vsf->boot();
  ASSERT_GE(checker_targets(*s.sm).size(), kShardedTargets);
  const Fabric& fabric = s.fabric;
  const auto leaf = [&](std::size_t pod, std::size_t l) {
    return s.built.leaves[pod * kLeavesPerPod + l];
  };
  const auto spine = [&](std::size_t pod, std::size_t k) {
    return s.built.spines[pod * 4 + k];
  };
  /// VF `k` of the first hypervisor on leaf `l` of `pod`.
  const auto vf_lid = [&](std::size_t pod, std::size_t l, std::size_t k) {
    return fabric.node(s.hyps[(pod * kLeavesPerPod + l) * 3].vfs[k]).lid();
  };
  const NodeId core0 = s.built.cores[0];
  const std::vector<NodeId> sources = sampled_sources(*s.sm, kOracleSources);
  ASSERT_EQ(sources.back(), dual);

  // kLoop between pod 0's spine 0 and core 0 for a pod-3 LID, entered from
  // every leaf of pods 0 and 1 (pod 1 through its spine 0).
  const Lid loop_lid = vf_lid(3, 1, 1);
  for (const std::size_t pod : {0, 1}) {
    for (std::size_t l = 0; l < kLeavesPerPod; ++l) {
      s.fabric.node(leaf(pod, l))
          .lft.set(loop_lid, port_towards(fabric, leaf(pod, l), spine(pod, 0)));
    }
    s.fabric.node(spine(pod, 0))
        .lft.set(loop_lid, port_towards(fabric, spine(pod, 0), core0));
  }
  s.fabric.node(core0).lft.set(loop_lid,
                               port_towards(fabric, core0, spine(0, 0)));
  // kDropped at every core for a pod-2 LID.
  const Lid drop_lid = vf_lid(2, 1, 1);
  for (const NodeId core : s.built.cores) {
    s.fabric.node(core).lft.set(drop_lid, kDropPort);
  }
  // kDropped inside a vSwitch: the second source's leaf sends a pod-3 LID
  // back down to that source's own vSwitch, which it entered first from
  // the source's side.
  const auto [src_leaf, to_vswitch] = *fabric.physical_attachment(sources[1]);
  s.fabric.node(src_leaf).lft.set(vf_lid(3, 2, 2), to_vswitch);
  // The dual-homed host's home leaf drops its port-2 LID: every walk to it
  // from the host itself fails, yet the trace delivers it by loopback.
  s.fabric.node(home.leaf).lft.set(fabric.node(dual).ports[2].lid, kDropPort);

  expect_matches_serial(*s.sm);
}

TEST(ParallelDeterminism, CheckerReportMatchesSingleThreaded) {
  std::vector<inject::CheckReport> reports;
  for (const std::size_t threads : kThreadSweep) {
    ThreadGuard guard(threads);
    auto s = PhysicalSubnet::small_fat_tree(routing::EngineKind::kMinHop,
                                            kCheckerHostsPerLeaf);
    s.sm->full_sweep();
    ASSERT_GE(checker_targets(*s.sm).size(), kShardedTargets);
    // Break forwarding on purpose so the report carries violations whose
    // order (and truncation point) must not depend on the thread count.
    const NodeId leaf = s.built.leaves.front();
    s.fabric.node(leaf).lft.clear();
    const inject::FabricChecker checker(
        *s.sm, inject::CheckerConfig{.max_violations = 5, .max_sources = 4});
    reports.push_back(checker.check());
  }
  EXPECT_FALSE(reports[0].clean());
  for (std::size_t run = 1; run < reports.size(); ++run) {
    EXPECT_EQ(reports[0].violations, reports[run].violations)
        << kThreadSweep[run] << " threads";
    EXPECT_EQ(reports[0].truncated, reports[run].truncated);
    EXPECT_EQ(reports[0].paths_traced, reports[run].paths_traced);
    EXPECT_EQ(reports[0].sources_sampled, reports[run].sources_sampled);
  }
}

// Regression: distribute_lfts() used to push blocks at switches the SM has
// no path to, burning undeliverable sends every sweep. It must skip them —
// exactly like reconverge() — and pick them up once they return.
TEST(ParallelDeterminism, DistributeSkipsSeveredSwitches) {
  auto s = PhysicalSubnet::small_fat_tree();
  s.sm->full_sweep();

  // Sever one spine completely; its installed LFT is wiped, so a naive
  // distribution would try (and fail) to reprogram it.
  const NodeId spine = s.built.spines.back();
  Node& sw = s.fabric.node(spine);
  for (PortNum p = 1; p <= sw.num_ports(); ++p) {
    if (sw.ports[p].connected()) s.fabric.disconnect(spine, p);
  }
  s.sm->transport().invalidate_topology();
  sw.lft.clear();

  const auto undeliverable_before = s.sm->transport().counters().undeliverable;
  std::vector<Smp> stream;
  s.sm->transport().set_smp_tap(&stream);
  s.sm->distribute_lfts();
  s.sm->transport().set_smp_tap(nullptr);

  EXPECT_EQ(s.sm->transport().counters().undeliverable, undeliverable_before);
  for (const Smp& smp : stream) {
    EXPECT_NE(smp.target, spine) << "sent an SMP to a severed switch";
  }
}

}  // namespace
}  // namespace ibvs
