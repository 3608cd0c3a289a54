// Min-Hop routing engine (OpenSM "minhop" equivalent).
//
// Per switch: every destination LID is forwarded out of a port that lies on
// a minimal-hop path, choosing among the minimal ports the one with the
// least destinations already assigned (OpenSM's port-load balancing).
// Deterministic: targets are processed in ascending LID order with
// lowest-port tie breaking.
//
// Tables are rewritten in place. A switch's table is a function of its own
// out-edges in CSR order, its neighbours' hop-matrix rows at the target
// switches, and the target list in LID order; its port loads never leave
// it. So the ports it chose for the targets before the first one whose
// inputs changed stand, and only the rest are chosen again. The hop matrix
// is the caller's (the SM's), which records the rows and out-edges changed
// since the last routing run. A cold run is the same code with every
// switch stale.
#include <algorithm>
#include <atomic>

#include "routing/engine.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace ibvs::routing {

namespace {

/// Smallest run of switches one pool worker fills LFTs for. On the
/// 648-node tree (54 switches, 4 cores) a cold Min-Hop takes ~400 us inline
/// and ~250 us as six ranges; at 5832 nodes, 490 ms against 155 ms. With
/// tables rewritten in place, running inline at 54 switches saved CPU but
/// cost latency on fault-recovery (DESIGN.md §8).
constexpr std::size_t kMinSwitchesPerRange = 8;

/// Port-choice key of an edge with no path to the target. Every other key
/// is (hops + 1) << 40 | port load << 8 | port, so the smallest is the
/// minimal-hop, least-loaded, lowest port.
constexpr std::uint64_t kNoRoute = ~std::uint64_t{0};

class MinHopEngine final : public RoutingEngine {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "minhop";
  }

  [[nodiscard]] RoutingResult compute(const Fabric& fabric,
                                      const LidMap& lids) override {
    RoutingResult result;
    HopMatrix hops;
    recompute(fabric, lids, result, {}, hops);
    return result;
  }

  void recompute(const Fabric& fabric, const LidMap& lids,
                 RoutingResult& result, const std::vector<bool>& written,
                 HopMatrix& hop_matrix) override {
    Stopwatch watch;
    result.graph = SwitchGraph::build(fabric, lids);
    result.num_vls = 1;
    result.dest_vl.clear();
    result.pair_layer.clear();
    const SwitchGraph& g = result.graph;
    const std::size_t s_count = g.num_switches();
    const std::size_t n = g.targets.size();
    const std::vector<SwitchGraph::Target>& old_targets = result.routed_targets;
    // Only the hop rows the cables changed since the matrix was last
    // brought up to date are searched (none for a flap; every row after
    // the caller dropped it). A change at column t first matters to a
    // neighbour's table at switch t's first target; ranks over the last
    // run's list are exact below `same_targets`, where the lists agree.
    result.hop_rows_searched = hop_matrix.update(g, old_targets);
    const std::vector<std::uint32_t>& row_changed = hop_matrix.first_changed;
    const std::vector<std::uint8_t>& hops = hop_matrix.hops;
    // Targets before `same_targets` are unchanged (lid, switch, port).
    std::size_t same_targets = 0;
    while (same_targets < std::min(n, old_targets.size()) &&
           g.targets[same_targets] == old_targets[same_targets]) {
      ++same_targets;
    }
    const std::size_t capacity = lft_blocks_for(lids.top_lid()) * kLftBlockSize;

    result.lfts.resize(s_count);
    std::atomic<std::size_t> rerouted{0};
    ThreadPool::global().parallel_ranges(
        0, s_count, kMinSwitchesPerRange,
        [&](std::size_t begin, std::size_t end) {
          std::vector<std::uint32_t> port_load(256, 0);
          std::size_t rerouted_here = 0;
          for (std::size_t s = begin; s < end; ++s) {
            Lft& lft = result.lfts[s];
            const auto [first, last] = g.out(static_cast<SwitchIdx>(s));
            // Targets before `keep` keep the ports this table holds.
            std::size_t keep = 0;
            const bool stale = (s < written.size() && written[s]) ||
                               hop_matrix.edges_changed[s] ||
                               lft.capacity() != capacity;
            if (!stale) {
              keep = same_targets;
              for (const auto* e = first; e != last; ++e) {
                keep = std::min<std::size_t>(keep, row_changed[e->to]);
              }
            }
            // Unwritten since the last run, so no block is dirty either.
            if (!stale && keep == n && n == old_targets.size()) continue;
            ++rerouted_here;
            std::fill(port_load.begin(), port_load.end(), 0);
            if (keep == 0) {
              // All-drop at the cold capacity. Clearing in place allocates
              // nothing: fresh tables made on pool workers raised peak RSS.
              if (lft.capacity() == capacity) {
                lft.clear();
              } else {
                lft = Lft(lids.top_lid());
              }
            } else {
              for (std::size_t i = 0; i < keep; ++i) {
                const auto& target = g.targets[i];
                if (target.sw == s) continue;
                const PortNum port = lft.get(target.lid);
                if (port != kDropPort) ++port_load[port];
              }
              for (std::size_t i = keep; i < old_targets.size(); ++i) {
                lft.set(old_targets[i].lid, kDropPort);
              }
            }
            for (std::size_t i = keep; i < n; ++i) {
              const auto& target = g.targets[i];
              PortNum chosen;
              if (target.sw == s) {
                chosen = target.port;  // local delivery (port 0 = self)
              } else {
                // Minimal hop count via any neighbor, then least-loaded
                // port, then lowest port: the smallest of one key per edge.
                std::uint64_t best = kNoRoute;
                for (const auto* e = first; e != last; ++e) {
                  const std::uint8_t h =
                      hops[static_cast<std::size_t>(e->to) * s_count +
                           target.sw];
                  const std::uint64_t key =
                      h == 0xFF ? kNoRoute
                                : (std::uint64_t{h} + 1) << 40 |
                                      std::uint64_t{port_load[e->out_port]}
                                          << 8 |
                                      e->out_port;
                  best = std::min(best, key);
                }
                chosen = best == kNoRoute ? kDropPort
                                          : static_cast<PortNum>(best & 0xFF);
                if (chosen != kDropPort) ++port_load[chosen];
              }
              if (chosen != kDropPort) lft.set(target.lid, chosen);
            }
            lft.clear_dirty();
          }
          rerouted.fetch_add(rerouted_here, std::memory_order_relaxed);
        });

    result.routed_targets = g.targets;
    result.switches_rerouted = rerouted.load();
    result.compute_seconds = watch.elapsed_seconds();
  }
};

}  // namespace

std::unique_ptr<RoutingEngine> make_min_hop_engine() {
  return std::make_unique<MinHopEngine>();
}

}  // namespace ibvs::routing
