// Up*/Down* routing engine.
//
// Classic deadlock-free routing for arbitrary topologies: orient every link
// up (toward a root) or down; legal paths climb zero or more up links, then
// descend zero or more down links, and never turn up again. Cycles in the
// channel dependency graph would need a down->up turn, so none can form.
//
// LFT construction must be *turn-consistent*: a single forwarding entry per
// destination cannot know whether a packet already descended. We therefore
// commit a switch to the descending phase as soon as *any* down-only path to
// the destination exists (finite d_down), and climb only otherwise. By
// induction every produced path is legal: a switch that was entered from
// above was chosen by its predecessor because it has a finite down-only
// distance, so it keeps descending. The price is that a switch with a long
// down-only path will take it even when a shorter up-then-down path exists;
// that mild inflation on irregular graphs is the classic up*/down* trade-off
// for single-LFT determinism.
#include <algorithm>
#include <limits>

#include "routing/engine.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace ibvs::routing {

namespace {

constexpr std::uint16_t kInf16 = std::numeric_limits<std::uint16_t>::max();

// Range minimums of the two fan-outs below. On 4 cores the engine takes
// ~3 ms at 648 nodes either way, and 250 ms fanned out against 750 ms
// inline at 5832 nodes.
/// Smallest run of destinations one pool worker computes next hops for.
constexpr std::size_t kMinTargetsPerRange = 32;
/// Smallest run of switches one pool worker assembles LFTs for.
constexpr std::size_t kMinSwitchesPerRange = 16;

void bfs(const SwitchGraph& g, SwitchIdx src,
         std::vector<std::uint16_t>& dist) {
  std::fill(dist.begin(), dist.end(), kInf16);
  std::vector<SwitchIdx> queue(g.num_switches());
  std::size_t head = 0;
  std::size_t tail = 0;
  dist[src] = 0;
  queue[tail++] = src;
  while (head < tail) {
    const SwitchIdx u = queue[head++];
    const auto [first, last] = g.out(u);
    for (const auto* e = first; e != last; ++e) {
      if (dist[e->to] == kInf16) {
        dist[e->to] = static_cast<std::uint16_t>(dist[u] + 1);
        queue[tail++] = e->to;
      }
    }
  }
}

/// Double-BFS midpoint: an approximately most-central switch, keeping the
/// up/down tree shallow.
SwitchIdx pick_root(const SwitchGraph& g) {
  std::vector<std::uint16_t> dist(g.num_switches(), kInf16);
  bfs(g, 0, dist);
  SwitchIdx far = 0;
  for (SwitchIdx s = 0; s < dist.size(); ++s) {
    if (dist[s] != kInf16 && dist[s] > dist[far]) far = s;
  }
  std::vector<std::uint16_t> dist2(g.num_switches(), kInf16);
  bfs(g, far, dist2);
  SwitchIdx far2 = far;
  for (SwitchIdx s = 0; s < dist2.size(); ++s) {
    if (dist2[s] != kInf16 && dist2[s] > dist2[far2]) far2 = s;
  }
  SwitchIdx mid = far2;
  std::uint16_t steps = dist2[far2] / 2;
  while (steps-- > 0) {
    const auto [first, last] = g.out(mid);
    for (const auto* e = first; e != last; ++e) {
      if (dist2[e->to] + 1 == dist2[mid]) {
        mid = e->to;
        break;
      }
    }
  }
  return mid;
}

class UpDownEngine final : public RoutingEngine {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "updn";
  }

  [[nodiscard]] RoutingResult compute(const Fabric& fabric,
                                      const LidMap& lids) override {
    Stopwatch watch;
    RoutingResult result;
    result.graph = SwitchGraph::build(fabric, lids);
    const SwitchGraph& g = result.graph;
    const std::size_t s_count = g.num_switches();
    const std::size_t t_count = g.targets.size();
    result.lfts.assign(s_count, Lft(lids.top_lid()));
    result.switches_rerouted = s_count;
    if (s_count == 0 || t_count == 0) {
      result.compute_seconds = watch.elapsed_seconds();
      return result;
    }

    std::vector<std::uint16_t> dist_root(s_count, kInf16);
    bfs(g, pick_root(g), dist_root);

    // Strict total order on (distance-to-root, index): every edge has one up
    // end and one down end, so the orientation is acyclic.
    const auto edge_is_up = [&](SwitchIdx from, SwitchIdx to) {
      if (dist_root[to] != dist_root[from])
        return dist_root[to] < dist_root[from];
      return to < from;
    };

    // Phase 1 (parallel over targets): next-hop port per (target, switch).
    std::vector<PortNum> route(t_count * s_count, kDropPort);
    ThreadPool::global().parallel_ranges(
        0, t_count, kMinTargetsPerRange,
        [&](std::size_t begin, std::size_t end) {
          std::vector<std::uint16_t> d_down(s_count);
          std::vector<std::uint16_t> d_any(s_count);
          std::vector<std::vector<SwitchIdx>> buckets;
          std::vector<SwitchIdx> queue(s_count);
          for (std::size_t ti = begin; ti < end; ++ti) {
            const auto& target = g.targets[ti];
            PortNum* row = route.data() + ti * s_count;

            // d_down: backward BFS along *down* forward-edges.
            std::fill(d_down.begin(), d_down.end(), kInf16);
            d_down[target.sw] = 0;
            std::size_t head = 0;
            std::size_t tail = 0;
            queue[tail++] = target.sw;
            while (head < tail) {
              const SwitchIdx y = queue[head++];
              const auto [first, last] = g.out(y);
              for (const auto* e = first; e != last; ++e) {
                // Forward edge (x=e->to -> y) is down iff (y -> x) is up.
                if (!edge_is_up(y, e->to)) continue;
                if (d_down[e->to] != kInf16) continue;
                d_down[e->to] = static_cast<std::uint16_t>(d_down[y] + 1);
                queue[tail++] = e->to;
              }
            }

            // d_any = min(d_down, 1 + d_any over an up edge): bucketed
            // multi-source Dijkstra with unit weights.
            d_any = d_down;
            buckets.assign(s_count + 1, {});
            for (SwitchIdx s = 0; s < s_count; ++s) {
              if (d_any[s] != kInf16) buckets[d_any[s]].push_back(s);
            }
            for (std::size_t d = 0; d < buckets.size(); ++d) {
              for (std::size_t i = 0; i < buckets[d].size(); ++i) {
                const SwitchIdx z = buckets[d][i];
                if (d_any[z] != d) continue;  // stale entry
                const auto [first, last] = g.out(z);
                for (const auto* e = first; e != last; ++e) {
                  // x = e->to climbs into z iff forward edge (x -> z) is up,
                  // i.e. (z -> x) is down.
                  if (edge_is_up(z, e->to)) continue;
                  if (d + 1 < d_any[e->to]) {
                    d_any[e->to] = static_cast<std::uint16_t>(d + 1);
                    if (d + 1 < buckets.size())
                      buckets[d + 1].push_back(e->to);
                  }
                }
              }
            }

            // Next hops.
            for (SwitchIdx s = 0; s < s_count; ++s) {
              if (s == target.sw) {
                row[s] = target.port;
                continue;
              }
              const auto [first, last] = g.out(s);
              PortNum candidates[64];
              std::size_t n = 0;
              if (d_down[s] != kInf16) {
                for (const auto* e = first; e != last && n < 64; ++e) {
                  if (edge_is_up(s, e->to)) continue;  // down edges only
                  if (d_down[e->to] != kInf16 &&
                      d_down[e->to] + 1 == d_down[s])
                    candidates[n++] = e->out_port;
                }
              } else if (d_any[s] != kInf16) {
                for (const auto* e = first; e != last && n < 64; ++e) {
                  if (!edge_is_up(s, e->to)) continue;  // up edges only
                  if (d_any[e->to] != kInf16 && d_any[e->to] + 1 == d_any[s])
                    candidates[n++] = e->out_port;
                }
              }
              if (n > 0) {
                std::sort(candidates, candidates + n);
                row[s] = candidates[target.lid.value() % n];
              }
            }
          }
        });

    // Phase 2: assemble LFTs per switch.
    ThreadPool::global().parallel_ranges(
        0, s_count, kMinSwitchesPerRange,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t s = begin; s < end; ++s) {
            Lft& lft = result.lfts[s];
            for (std::size_t ti = 0; ti < t_count; ++ti) {
              const PortNum port = route[ti * s_count + s];
              if (port != kDropPort) lft.set(g.targets[ti].lid, port);
            }
            lft.clear_dirty();
          }
        });

    result.compute_seconds = watch.elapsed_seconds();
    return result;
  }
};

}  // namespace

std::unique_ptr<RoutingEngine> make_up_down_engine() {
  return std::make_unique<UpDownEngine>();
}

}  // namespace ibvs::routing
