// DFSSSP routing engine (Domke, Hoefler, Nagel — "Deadlock-free oblivious
// routing for arbitrary topologies", IPDPS 2011; OpenSM "dfsssp").
//
// Two phases, both sequential over destinations by design (each destination's
// Dijkstra sees the link loads accumulated by the previous ones — that is
// the balancing mechanism):
//
//  1. Routing: for every destination LID, a single-source shortest-path run
//     with edge weights 1 + load; every switch's next hop is its parent in
//     the SP tree, and the loads of the used links grow by the number of
//     sources funnelled through them.
//  2. Deadlock removal: destinations are assigned to virtual lanes. A
//     destination's routes contribute channel dependencies; the destination
//     goes to the first VL whose dependency graph stays acyclic (checked
//     with the incremental Pearce–Kelly CDG). Runs out of VLs -> error.
//
// The per-destination Dijkstra sweep is what makes DFSSSP markedly more
// expensive than minhop/ftree in Fig. 7, and the CDG bookkeeping adds on
// top; both effects reproduce here.
#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

#include "routing/cdg.hpp"
#include "routing/engine.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace ibvs::routing {

namespace {

constexpr unsigned kMaxVls = 8;

class DfssspEngine final : public RoutingEngine {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "dfsssp";
  }

  [[nodiscard]] RoutingResult compute(const Fabric& fabric,
                                      const LidMap& lids) override {
    Stopwatch watch;
    RoutingResult result;
    result.graph = SwitchGraph::build(fabric, lids);
    const SwitchGraph& g = result.graph;
    const std::size_t s_count = g.num_switches();
    const std::size_t e_count = g.num_edges();
    result.lfts.assign(s_count, Lft(lids.top_lid()));
    result.switches_rerouted = s_count;
    if (s_count == 0 || g.targets.empty()) {
      result.compute_seconds = watch.elapsed_seconds();
      return result;
    }

    // Endpoint count per switch: how many sources inject there (weights for
    // the load update; switches themselves also originate management
    // traffic, counted as one source each).
    std::vector<std::uint32_t> sources_at(s_count, 1);
    for (const auto& t : g.targets) {
      if (t.port != 0) ++sources_at[t.sw];
    }

    std::vector<std::uint64_t> edge_load(e_count, 0);
    std::vector<std::uint64_t> dist(s_count);
    std::vector<std::uint32_t> parent_edge(s_count);  // edge x -> next hop
    std::vector<SwitchIdx> order(s_count);            // settle order
    using HeapItem = std::pair<std::uint64_t, SwitchIdx>;
    std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
    std::vector<std::uint32_t> flow(s_count);

    // Lexicographic (hops, accumulated load) distance packed into 64 bits:
    // routes stay hop-minimal (as DFSSSP requires — otherwise detours
    // proliferate down->up turns and the CDG cannot be layered), and the
    // channel loads pick among the minimal paths.
    constexpr unsigned kLoadBits = 40;
    constexpr std::uint64_t kLoadMask = (1ull << kLoadBits) - 1;
    const auto hop_part = [](std::uint64_t d) { return d >> kLoadBits; };
    const auto load_part = [](std::uint64_t d) { return d & kLoadMask; };

    // --- Phase 1: routing. ---
    for (const auto& target : g.targets) {
      std::fill(dist.begin(), dist.end(),
                std::numeric_limits<std::uint64_t>::max());
      std::fill(parent_edge.begin(), parent_edge.end(), SwitchGraph::kNoEdge);
      std::size_t settled = 0;
      dist[target.sw] = 0;
      heap.emplace(0, target.sw);
      while (!heap.empty()) {
        const auto [d, y] = heap.top();
        heap.pop();
        if (d != dist[y]) continue;  // stale
        order[settled++] = y;
        const auto [first, last] = g.out(y);
        for (const auto* e = first; e != last; ++e) {
          // Relax backward: x = e->to would forward to y over the *reverse*
          // edge (x -> y), whose load is the weight that matters.
          const std::uint32_t eid =
              static_cast<std::uint32_t>(e - g.edges.data());
          const std::uint32_t fwd = g.reverse_edge[eid];
          const std::uint64_t nd =
              ((hop_part(d) + 1) << kLoadBits) +
              std::min(load_part(d) + edge_load[fwd], kLoadMask);
          if (nd < dist[e->to]) {
            dist[e->to] = nd;
            parent_edge[e->to] = fwd;
            heap.emplace(nd, e->to);
          }
        }
      }

      // LFT entries + load update. Processing switches farthest-first lets
      // the flow of every subtree accumulate before it is pushed down.
      std::fill(flow.begin(), flow.end(), 0);
      for (std::size_t i = settled; i-- > 1;) {
        const SwitchIdx x = order[i];
        const std::uint32_t eid = parent_edge[x];
        if (eid == SwitchGraph::kNoEdge) continue;
        result.lfts[x].set(target.lid, g.edges[eid].out_port);
        const std::uint32_t total = flow[x] + sources_at[x];
        edge_load[eid] += total;
        flow[g.edges[eid].to] += total;
      }
      result.lfts[target.sw].set(target.lid, target.port);
    }

    // --- Phase 2: deadlock removal by VL layering. ---
    result.dest_vl.assign(static_cast<std::size_t>(lids.top_lid().value()) + 1,
                          0);
    std::vector<ChannelDepGraph> layers;
    layers.reserve(kMaxVls);
    layers.emplace_back(e_count);
    // Serial over destinations: VL admission into the Pearce–Kelly CDG is
    // order-dependent (a destination goes to the first VL whose graph stays
    // acyclic *given everything admitted before it*), and fanning the
    // dependency extraction out over the pool saved nothing measurable —
    // on 4 cores the engine took ~2.6 s at 5832 nodes and ~11 ms at 648
    // either way.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> deps;
    for (const auto& target : g.targets) {
      // Switch LIDs receive only management traffic, which rides the
      // dedicated VL15 — they do not participate in the data-VL CDG. (Their
      // routes may legitimately turn down-then-up, e.g. core -> spine ->
      // core, and would otherwise poison the layering.)
      if (target.port == 0) continue;
      // Dependencies of this destination's route DAG: for every switch v
      // whose egress toward the target is a switch link, every used ingress
      // channel (u -> v) depends on the egress.
      deps.clear();
      for (std::size_t v = 0; v < s_count; ++v) {
        const PortNum out_port = result.lfts[v].get(target.lid);
        if (out_port == kDropPort) continue;
        const std::uint32_t e_out =
            g.edge_of(static_cast<SwitchIdx>(v), out_port);
        if (e_out == SwitchGraph::kNoEdge) continue;  // local delivery
        const auto [first, last] = g.out(static_cast<SwitchIdx>(v));
        for (const auto* e = first; e != last; ++e) {
          const SwitchIdx u = e->to;
          const PortNum u_out = result.lfts[u].get(target.lid);
          const std::uint32_t eid =
              static_cast<std::uint32_t>(e - g.edges.data());
          // u's egress is the reverse of (v -> u) iff u forwards into v.
          const std::uint32_t e_in = g.reverse_edge[eid];
          if (u_out == g.edges[e_in].out_port) deps.emplace_back(e_in, e_out);
        }
      }
      unsigned vl = 0;
      for (;; ++vl) {
        if (vl == layers.size()) {
          if (layers.size() == kMaxVls) {
            throw std::runtime_error(
                "dfsssp: cannot break CDG cycles within " +
                std::to_string(kMaxVls) + " VLs");
          }
          layers.emplace_back(e_count);
        }
        if (layers[vl].try_add_batch(deps)) break;
      }
      result.dest_vl[target.lid.value()] = static_cast<std::uint8_t>(vl);
    }
    result.num_vls = static_cast<unsigned>(layers.size());
    for (auto& lft : result.lfts) lft.clear_dirty();

    result.compute_seconds = watch.elapsed_seconds();
    return result;
  }
};

}  // namespace

std::unique_ptr<RoutingEngine> make_dfsssp_engine() {
  return std::make_unique<DfssspEngine>();
}

}  // namespace ibvs::routing
