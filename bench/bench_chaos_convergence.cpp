// Chaos re-convergence under MAD loss (the fault-injection experiment).
//
// The paper's reconfiguration costs assume a healthy fabric; this bench
// measures what recovery costs when the fabric is not healthy. A seeded
// chaos run — link cuts, flaps, switch death/revival, interleaved live
// migrations — executes against the paper's fat-trees while every MAD
// traversal is dropped with probability p. Reported per (tree, p): the LFT
// SMPs spent re-converging, the resends and response timeouts the
// reliable-MAD layer paid, and the *simulated* elapsed time under the
// batched timing model — the same clock the reconfiguration benches use,
// so degraded-fabric recovery is directly comparable to the healthy-path
// numbers. Identical seeds produce identical tables, digest included.
#include <benchmark/benchmark.h>

#include <string_view>

#include "bench/common.hpp"
#include "inject/chaos.hpp"

namespace {

using namespace ibvs;

std::uint64_t g_seed = 7;  ///< default; override with --seed
bool g_topology_faults = false;  ///< --topology-faults

/// Strips the valueless flag `name` from argv. --topology-faults adds live
/// attach/detach deltas. Crashes inside transactions are swept
/// exhaustively by the CrashPoint test suite, not sampled here.
bool consume_flag(int& argc, char** argv, std::string_view name) {
  bool found = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == name) {
      found = true;
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  argv[argc] = nullptr;
  return found;
}

constexpr double kFaultRates[] = {0.0, 0.01, 0.05, 0.20};
constexpr std::size_t kSteps = 12;

/// A booted, virtualized subnet on the requested paper tree (Min-Hop: the
/// routing must survive arbitrarily degraded topologies, which the
/// fat-tree engine does not promise).
bench::VirtualBench make_tree(topology::PaperFatTree which) {
  bench::VirtualBench b;
  b.built = topology::build_paper_fat_tree(b.fabric, which);
  std::vector<topology::HostSlot> spread;
  const std::size_t per_leaf =
      b.built.host_slots.size() / b.built.leaves.size();
  const std::size_t hyps_count = 18;
  for (std::size_t i = 0; spread.size() < hyps_count + 1; ++i) {
    const std::size_t leaf = i / 2;
    const std::size_t idx = leaf * per_leaf + (i % 2);
    if (idx >= b.built.host_slots.size()) break;
    spread.push_back(b.built.host_slots[idx]);
  }
  b.hyps = core::attach_hypervisors(b.fabric, spread, /*num_vfs=*/2,
                                    hyps_count);
  const auto& slot = spread.at(hyps_count);
  const NodeId sm_node = b.fabric.add_ca("sm-node");
  b.fabric.connect(sm_node, 1, slot.leaf, slot.port);
  b.sm = std::make_unique<sm::SubnetManager>(
      b.fabric, sm_node, routing::make_engine(routing::EngineKind::kMinHop));
  b.vsf = std::make_unique<core::VSwitchFabric>(
      *b.sm, b.hyps, core::LidScheme::kDynamic);
  b.vsf->boot();
  return b;
}

void print_table() {
  std::printf(
      "\nChaos re-convergence: %zu seeded events per run (cuts, flaps, "
      "switch kills, migrations%s), seed=%llu\n",
      kSteps, g_topology_faults ? ", topology deltas" : "",
      static_cast<unsigned long long>(g_seed));
  std::printf("%-28s %7s %7s %7s %8s %9s %9s %13s %7s %5s %-18s\n", "tree",
              "drop-p", "events", "rounds", "smps", "retries", "timeouts",
              "time_us", "undeliv", "viol", "digest");
  bench::rule(128);

  std::size_t tree_idx = 0;
  std::size_t topo_commits = 0;
  std::size_t topo_rollbacks = 0;
  for (const auto which : bench::selected_paper_trees()) {
    for (std::size_t r = 0; r < std::size(kFaultRates); ++r) {
      auto b = make_tree(which);
      cloud::CloudOrchestrator cloud(*b.vsf, cloud::Placement::kSpread);
      cloud.launch_vms(b.hyps.size());
      inject::FaultInjector injector(b.fabric, g_seed + 101 * tree_idx + r);
      inject::ChaosConfig config;
      config.seed = g_seed + 101 * tree_idx + r;
      config.steps = kSteps;
      config.mad_faults.drop_probability = kFaultRates[r];
      if (g_topology_faults) {
        config.weight_attach_switch = 2;
        config.weight_detach_switch = 2;
      }
      const auto report = inject::run_chaos(cloud, injector, config);
      topo_commits += report.topology_commits;
      topo_rollbacks += report.topology_rollbacks;
      std::printf(
          "%-28s %7.2f %7zu %7zu %8llu %9llu %9llu %13.1f %7llu %5zu "
          "0x%016llx%s\n",
          topology::to_string(which).c_str(), kFaultRates[r],
          report.steps - report.skipped, report.reconverge_rounds,
          static_cast<unsigned long long>(report.reconverge_smps),
          static_cast<unsigned long long>(report.reconverge_retries),
          static_cast<unsigned long long>(report.reconverge_timeouts),
          report.reconverge_time_us,
          static_cast<unsigned long long>(report.undeliverable),
          report.checker_violations,
          static_cast<unsigned long long>(report.digest),
          report.all_converged ? "" : "  (!converged)");
    }
    ++tree_idx;
  }
  bench::rule(128);
  if (g_topology_faults) {
    std::printf(
        "topology txns under fault: committed=%zu rolled_back=%zu "
        "(every delta terminal)\n",
        topo_commits, topo_rollbacks);
  }
  std::printf(
      "Lossier fabrics pay in resends and response timeouts, not in "
      "correctness: the checker stays clean\nand every run re-converges. "
      "Time is the simulated batch clock, so rows are seed-reproducible.\n\n");
}

/// Recovery cost of one cut/restore cycle on the 324-node tree: each
/// iteration severs an inter-switch cable, reconverges, restores it, and
/// reconverges again.
void BM_ReconvergeAfterLinkCut(benchmark::State& state) {
  auto b = make_tree(topology::PaperFatTree::k324);
  inject::FaultInjector injector(b.fabric, g_seed);
  injector.attach_transport(&b.sm->transport());
  // First inter-switch cable (leaf uplink): deterministic target.
  NodeId node = kInvalidNode;
  PortNum port = 0;
  for (NodeId id = 0; id < b.fabric.size() && node == kInvalidNode; ++id) {
    if (!b.fabric.node(id).is_physical_switch()) continue;
    const Node& n = b.fabric.node(id);
    for (PortNum p = 1; p <= n.num_ports(); ++p) {
      if (n.ports[p].connected() &&
          b.fabric.node(n.ports[p].peer).is_physical_switch()) {
        node = id;
        port = p;
        break;
      }
    }
  }
  for (auto _ : state) {
    injector.cut_link(node, port);
    const auto cut = b.sm->reconverge();
    injector.restore_link(node, port);
    const auto back = b.sm->reconverge();
    benchmark::DoNotOptimize(cut.smps + back.smps);
  }
}
BENCHMARK(BM_ReconvergeAfterLinkCut)->Unit(benchmark::kMillisecond);

/// Cost of the full invariant suite on the 324-node tree.
void BM_FabricCheckerSweep(benchmark::State& state) {
  auto b = make_tree(topology::PaperFatTree::k324);
  const inject::FabricChecker checker(*b.sm);
  for (auto _ : state) {
    const auto report = checker.check(b.vsf.get());
    benchmark::DoNotOptimize(report.violations.size());
  }
}
BENCHMARK(BM_FabricCheckerSweep)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const auto metrics_out = ibvs::bench::consume_metrics_out(argc, argv);
  const auto trace_out = ibvs::bench::consume_trace_out(argc, argv);
  ibvs::bench::consume_threads(argc, argv);
  g_seed = ibvs::bench::consume_seed(argc, argv, g_seed);
  g_topology_faults = consume_flag(argc, argv, "--topology-faults");
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  ibvs::bench::dump_metrics(metrics_out);
  ibvs::bench::dump_trace(trace_out);
  return 0;
}
