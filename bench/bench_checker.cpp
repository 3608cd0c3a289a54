// Checker makespan scaling: the FabricChecker's memoized reachability walk
// across thread counts and paper fat-trees.
//
// The checker is the hot loop of every chaos convergence assertion (one full
// check per injected fault), so its makespan bounds how fast the harness can
// iterate. For each paper tree and thread count this reports, in wall-clock
// microseconds:
//
//   checker_us   full FabricChecker::check() (duplicate LIDs, LidMap
//                consistency, and the sharded reachability walk — the last
//                dominating by orders of magnitude),
//   reach_pairs  (source, target) walks the reachability pass covers, i.e.
//                paths_traced of the report: the work the memoized walk
//                replays against the serial per-pair trace contract.
//
// `--json-out <file>` writes the rows as JSON (schema "checker_scaling");
// CI's perf-smoke job runs it with IBVS_FIG7_LARGE=1 and checks that the
// makespan does not regress with threads at any topology. `--threads <n>`
// restricts the sweep to one thread count; default sweeps 1/2/4/8.
// IBVS_FIG7_LARGE=1 adds the 5832-node tree, where the walk shards.
#include <benchmark/benchmark.h>

#include <thread>

#include "bench/common.hpp"
#include "inject/checker.hpp"
#include "routing/engine.hpp"
#include "util/timer.hpp"

namespace {

using namespace ibvs;

constexpr int kSchemaVersion = 1;

struct Row {
  std::string topo;
  std::size_t switches = 0;
  std::size_t threads = 0;
  std::size_t sources = 0;
  std::size_t reach_pairs = 0;
  double checker_us = 0.0;
};

/// One booted paper tree with an SM attached to the last host slot.
struct Subnet {
  Fabric fabric;
  std::unique_ptr<sm::SubnetManager> smgr;

  explicit Subnet(topology::PaperFatTree which) {
    auto built = topology::build_paper_fat_tree(fabric, which);
    auto slots = built.host_slots;
    const auto sm_slot = slots.back();
    slots.pop_back();
    topology::attach_hosts(fabric, slots);
    const NodeId sm_node = fabric.add_ca("sm-node");
    fabric.connect(sm_node, 1, sm_slot.leaf, sm_slot.port);
    smgr = std::make_unique<sm::SubnetManager>(
        fabric, sm_node, routing::make_engine(routing::EngineKind::kFatTree));
    smgr->full_sweep();
  }
};

Row measure(Subnet& net, const std::string& topo, std::size_t threads) {
  Row row;
  row.topo = topo;
  row.switches = net.fabric.switch_ids().size();
  row.threads = threads;
  ThreadPool::set_global_threads(threads);

  // 16 sampled sources, every active LID. Min of several runs — makespan
  // free of first-touch and scheduler noise; below the checker's work-size
  // cutoff every thread count runs the same inline pass, so the CI gate's
  // noise allowance there leans on this minimum.
  const inject::FabricChecker checker(
      *net.smgr, inject::CheckerConfig{.max_violations = 16,
                                       .max_sources = 16});
  constexpr int kRuns = 15;
  for (int i = 0; i < kRuns; ++i) {
    Stopwatch watch;
    const auto report = checker.check();
    const double us = watch.elapsed_seconds() * 1e6;
    if (i == 0 || us < row.checker_us) row.checker_us = us;
    row.sources = report.sources_sampled;
    row.reach_pairs = report.paths_traced;
    if (!report.clean()) {
      std::fprintf(stderr, "# checker found violations on %s!\n",
                   topo.c_str());
    }
  }
  return row;
}

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::FILE* file = path == "-" ? stdout : std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(file,
               "{\n  \"bench\": \"checker_scaling\",\n"
               "  \"schema_version\": %d,\n"
               "  \"hardware_threads\": %u,\n  \"rows\": [\n",
               kSchemaVersion, std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(file,
                 "    {\"topology\": \"%s\", \"switches\": %zu, "
                 "\"threads\": %zu, \"sources\": %zu, "
                 "\"reach_pairs\": %zu, \"checker_us\": %.1f}%s\n",
                 r.topo.c_str(), r.switches, r.threads, r.sources,
                 r.reach_pairs, r.checker_us,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(file, "  ]\n}\n");
  if (file != stdout) {
    std::fclose(file);
    std::fprintf(stderr, "# baseline written to %s\n", path.c_str());
  }
}

std::vector<Row> run_sweep(const std::vector<std::size_t>& thread_counts) {
  std::vector<Row> rows;
  std::printf("\nChecker makespan scaling (wall-clock us; memoized "
              "reachability walk, 16 sampled sources)\n");
  std::printf("%-34s %8s %8s %8s %12s %12s %10s\n", "topology", "switches",
              "threads", "sources", "reach-pairs", "checker", "speedup");
  bench::rule(100);
  for (const auto which : bench::selected_paper_trees()) {
    const std::string topo = topology::to_string(which);
    Subnet net(which);
    double checker_1t = 0.0;
    for (const std::size_t t : thread_counts) {
      Row row = measure(net, topo, t);
      if (t == thread_counts.front()) checker_1t = row.checker_us;
      const double speedup =
          row.checker_us > 0.0 ? checker_1t / row.checker_us : 0.0;
      std::printf("%-34s %8zu %8zu %8zu %12zu %12.1f %9.2fx\n", topo.c_str(),
                  row.switches, row.threads, row.sources, row.reach_pairs,
                  row.checker_us, speedup);
      std::fflush(stdout);
      rows.push_back(std::move(row));
    }
  }
  bench::rule(100);
  std::printf("Shape to reproduce: the reachability pass runs inline below "
              "its work-size cutoff and\nshards targets across workers above "
              "it, so makespan must not grow with threads;\nper-pair results "
              "stay byte-identical to a serial trace scan.\n\n");
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  const auto metrics_out = ibvs::bench::consume_metrics_out(argc, argv);
  const auto trace_out = ibvs::bench::consume_trace_out(argc, argv);
  const auto json_out =
      ibvs::bench::consume_flag_value(argc, argv, "--json-out");
  const auto threads_flag =
      ibvs::bench::consume_flag_value(argc, argv, "--threads");
  benchmark::Initialize(&argc, argv);  // tolerate --benchmark_* flags

  std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  if (threads_flag) {
    char* end = nullptr;
    const unsigned long long parsed =
        std::strtoull(threads_flag->c_str(), &end, 0);
    if (end == threads_flag->c_str() || *end != '\0' || parsed == 0) {
      std::fprintf(stderr,
                   "error: --threads wants a positive integer, got '%s'\n",
                   threads_flag->c_str());
      return 2;
    }
    thread_counts = {static_cast<std::size_t>(parsed)};
  }

  const auto rows = run_sweep(thread_counts);
  if (json_out) write_json(*json_out, rows);
  ibvs::ThreadPool::set_global_threads(0);  // restore the default sizing
  benchmark::RunSpecifiedBenchmarks();
  ibvs::bench::dump_metrics(metrics_out);
  ibvs::bench::dump_trace(trace_out);
  return 0;
}
