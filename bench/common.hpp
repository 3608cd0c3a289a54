// Shared plumbing for the paper-reproduction benches.
//
// Each bench binary regenerates one table or figure of the paper. Default
// parameters keep every binary under a few seconds so `for b in bench/*`
// stays cheap; the paper's large subnets are enabled with environment
// variables:
//   IBVS_FIG7_LARGE=1  adds the 5832-node fat-tree where relevant
//   IBVS_FIG7_FULL=1   adds the 11664-node fat-tree (minutes to hours,
//                      dominated by DFSSSP/LASH — exactly as in the paper)
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/virtualizer.hpp"
#include "core/vswitch.hpp"
#include "sm/subnet_manager.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "topology/fat_tree.hpp"
#include "topology/hosts.hpp"
#include "util/thread_pool.hpp"

namespace ibvs::bench {

/// Strips `<flag> <value>` (or `<flag>=<value>`) from argv before
/// benchmark::Initialize rejects it as unknown. Returns the value.
inline std::optional<std::string> consume_flag_value(int& argc, char** argv,
                                                     std::string_view flag) {
  std::optional<std::string> value;
  const std::string prefix = std::string(flag) + "=";
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n",
                     std::string(flag).c_str());
        std::exit(2);
      }
      value = argv[++i];
    } else if (arg.substr(0, prefix.size()) == prefix) {
      value = std::string(arg.substr(prefix.size()));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  argv[argc] = nullptr;
  return value;
}

/// `--metrics-out <file>`: where to dump the registry JSON snapshot.
inline std::optional<std::string> consume_metrics_out(int& argc,
                                                      char** argv) {
  return consume_flag_value(argc, argv, "--metrics-out");
}

/// `--trace-out <file>`: where to dump the span trace as JSON lines.
inline std::optional<std::string> consume_trace_out(int& argc, char** argv) {
  return consume_flag_value(argc, argv, "--trace-out");
}

/// `--int-out <file>`: where benches with an INT phase dump the congestion
/// map / overhead report as JSON.
inline std::optional<std::string> consume_int_out(int& argc, char** argv) {
  return consume_flag_value(argc, argv, "--int-out");
}

/// Dumps a prebuilt JSON document to `path` ("-" for stdout); used by the
/// --int-out flag. No-op when the flag was absent.
inline void dump_json(const std::optional<std::string>& path,
                      const std::string& json, const char* what) {
  if (!path) return;
  if (path->empty()) {
    std::fprintf(stderr, "error: %s requires a non-empty path\n", what);
    return;
  }
  if (*path == "-") {
    std::fputs(json.c_str(), stdout);
    return;
  }
  std::FILE* file = std::fopen(path->c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s to %s\n", what, path->c_str());
    return;
  }
  std::fputs(json.c_str(), file);
  std::fclose(file);
  std::fprintf(stderr, "# %s written to %s\n", what, path->c_str());
}

/// `--seed <n>`: overrides a bench's default RNG seed so randomized
/// workloads (migration pairs, chaos event streams) can be varied — and
/// replayed — from the command line. Returns `fallback` when absent.
inline std::uint64_t consume_seed(int& argc, char** argv,
                                  std::uint64_t fallback) {
  const auto value = consume_flag_value(argc, argv, "--seed");
  if (!value) return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value->c_str(), &end, 0);
  if (end == value->c_str() || *end != '\0') {
    std::fprintf(stderr, "error: --seed wants an integer, got '%s'\n",
                 value->c_str());
    std::exit(2);
  }
  return parsed;
}

/// `--threads <n>`: sizes the global thread pool routing and the checker
/// fan out on (0 restores the default: IBVS_THREADS, else hardware concurrency).
/// Returns the pool size in effect so benches can report it.
inline std::size_t consume_threads(int& argc, char** argv) {
  const auto value = consume_flag_value(argc, argv, "--threads");
  if (value) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(value->c_str(), &end, 0);
    if (end == value->c_str() || *end != '\0') {
      std::fprintf(stderr, "error: --threads wants an integer, got '%s'\n",
                   value->c_str());
      std::exit(2);
    }
    ThreadPool::set_global_threads(static_cast<std::size_t>(parsed));
  }
  return ThreadPool::global_thread_count();
}

/// Dumps the global registry's JSON snapshot to `path` ("-" for stdout) so
/// BENCH_*.json trajectories can track SMP counts next to wall-clock time.
/// No-op when the flag was absent.
inline void dump_metrics(const std::optional<std::string>& path) {
  if (!path) return;
  if (path->empty()) {
    std::fprintf(stderr, "error: --metrics-out requires a non-empty path\n");
    return;
  }
  const std::string snapshot =
      telemetry::Registry::global().json_snapshot();
  if (*path == "-") {
    std::fputs(snapshot.c_str(), stdout);
    return;
  }
  std::FILE* file = std::fopen(path->c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write metrics to %s\n", path->c_str());
    return;
  }
  std::fputs(snapshot.c_str(), file);
  std::fclose(file);
  std::fprintf(stderr, "# metrics snapshot written to %s\n", path->c_str());
}

/// Dumps the global tracer's buffered spans as JSON lines to `path` ("-"
/// for stdout). No-op when the flag was absent.
inline void dump_trace(const std::optional<std::string>& path) {
  if (!path) return;
  if (path->empty()) {
    std::fprintf(stderr, "error: --trace-out requires a non-empty path\n");
    return;
  }
  auto& tracer = telemetry::Tracer::global();
  if (*path == "-") {
    std::ostringstream os;
    tracer.dump_jsonl(os);
    std::fputs(os.str().c_str(), stdout);
    return;
  }
  if (!tracer.flush_to_file(*path)) {
    std::fprintf(stderr, "no spans to write to %s\n", path->c_str());
    return;
  }
  std::fprintf(stderr, "# span trace written to %s\n", path->c_str());
}

inline bool env_flag(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' && value[0] != '0';
}

inline std::vector<topology::PaperFatTree> selected_paper_trees() {
  std::vector<topology::PaperFatTree> trees{topology::PaperFatTree::k324,
                                            topology::PaperFatTree::k648};
  if (env_flag("IBVS_FIG7_LARGE") || env_flag("IBVS_FIG7_FULL")) {
    trees.push_back(topology::PaperFatTree::k5832);
  }
  if (env_flag("IBVS_FIG7_FULL")) {
    trees.push_back(topology::PaperFatTree::k11664);
  }
  return trees;
}

/// A booted, virtualized subnet for migration benches.
struct VirtualBench {
  Fabric fabric;
  topology::Built built;
  std::vector<core::VirtualHca> hyps;
  std::unique_ptr<sm::SubnetManager> sm;
  std::unique_ptr<core::VSwitchFabric> vsf;

  /// `hyps_count` hypervisors on the paper's 324-node switch fabric (or a
  /// smaller two-level tree when small=true).
  static VirtualBench make(core::LidScheme scheme, std::size_t hyps_count,
                           std::size_t vfs,
                           routing::EngineKind engine =
                               routing::EngineKind::kFatTree,
                           bool small = false) {
    VirtualBench b;
    if (small) {
      b.built = topology::build_two_level_fat_tree(
          b.fabric, topology::TwoLevelParams{.num_leaves = 4,
                                             .num_spines = 2,
                                             .hosts_per_leaf = 4,
                                             .radix = 12});
    } else {
      b.built = topology::build_paper_fat_tree(
          b.fabric, topology::PaperFatTree::k324);
    }
    // Spread hypervisors two per leaf so the workload has both intra-leaf
    // and cross-leaf migrations (piling all slots onto one leaf would
    // degenerate the n' statistics).
    std::vector<topology::HostSlot> spread;
    const std::size_t per_leaf =
        b.built.leaves.empty()
            ? b.built.host_slots.size()
            : b.built.host_slots.size() / b.built.leaves.size();
    for (std::size_t i = 0; spread.size() < hyps_count + 1; ++i) {
      const std::size_t leaf = i / 2;
      const std::size_t idx = leaf * per_leaf + (i % 2);
      if (idx >= b.built.host_slots.size()) break;
      spread.push_back(b.built.host_slots[idx]);
    }
    // Small fabrics may not offer 2*(leaves) slots; top up with the rest.
    for (std::size_t leaf = 0;
         spread.size() < hyps_count + 1 && leaf < b.built.leaves.size();
         ++leaf) {
      for (std::size_t j = 2;
           j < per_leaf && spread.size() < hyps_count + 1; ++j) {
        spread.push_back(b.built.host_slots[leaf * per_leaf + j]);
      }
    }
    b.hyps = core::attach_hypervisors(b.fabric, spread, vfs, hyps_count);
    const auto& slot = spread.at(hyps_count);
    const NodeId sm_node = b.fabric.add_ca("sm-node");
    b.fabric.connect(sm_node, 1, slot.leaf, slot.port);
    b.sm = std::make_unique<sm::SubnetManager>(
        b.fabric, sm_node, routing::make_engine(engine));
    b.vsf = std::make_unique<core::VSwitchFabric>(*b.sm, b.hyps, scheme);
    b.vsf->boot();
    return b;
  }
};

/// printf-style row helpers for fixed-width ASCII tables.
inline void rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace ibvs::bench
