#include "routing/graph.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "util/thread_pool.hpp"

namespace ibvs::routing {

namespace {

/// Sources one multi-source search runs together: one bit of a word each.
constexpr std::size_t kBatch = 64;

/// Hop counts from up to 64 sources at once (multi-source BFS, Then et al.,
/// "The More the Merrier", PVLDB 2014): bit i of a switch's `seen` and
/// `frontier` words stands for srcs[i], whose row is rows + i * S. Each
/// level pulls the frontier from a switch's out-edge ends (cables are
/// symmetric, so they are its in-neighbours too) and writes the level into
/// the rows of the bits it sets for the first time; the search stops after
/// level 0xFE, where the one-source search saturated. The sources may come
/// in any order. The rows hold S entries each, all 0xFF (unreachable) on
/// entry; `words` is 3 * S words of scratch.
void bfs_hop_rows(const SwitchGraph& graph, const SwitchIdx* srcs,
                  std::size_t n, std::uint8_t* rows, std::uint64_t* words) {
  const std::size_t s_count = graph.num_switches();
  std::uint64_t* seen = words;
  std::uint64_t* frontier = words + s_count;
  std::uint64_t* next = words + 2 * s_count;
  const std::uint64_t all =
      n == kBatch ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
  std::fill(seen, seen + s_count, 0);
  std::fill(frontier, frontier + s_count, 0);
  for (std::size_t i = 0; i < n; ++i) {
    seen[srcs[i]] |= std::uint64_t{1} << i;
    frontier[srcs[i]] |= std::uint64_t{1} << i;
    rows[i * s_count + srcs[i]] = 0;
  }
  for (unsigned level = 1; level <= 0xFE; ++level) {
    bool grew = false;
    for (std::size_t v = 0; v < s_count; ++v) {
      next[v] = 0;
      if (seen[v] == all) continue;
      std::uint64_t reached = 0;
      const auto [first, last] = graph.out(static_cast<SwitchIdx>(v));
      for (const auto* e = first; e != last; ++e) reached |= frontier[e->to];
      reached &= ~seen[v];
      if (reached == 0) continue;
      grew = true;
      seen[v] |= reached;
      next[v] = reached;
      for (std::uint64_t bits = reached; bits != 0; bits &= bits - 1) {
        rows[static_cast<std::size_t>(std::countr_zero(bits)) * s_count + v] =
            static_cast<std::uint8_t>(level);
      }
    }
    if (!grew) break;
    std::swap(frontier, next);
  }
}

}  // namespace

SwitchGraph SwitchGraph::build(const Fabric& fabric, const LidMap& lids) {
  SwitchGraph g;
  g.dense_of.assign(fabric.size(), kNoSwitch);
  for (NodeId id = 0; id < fabric.size(); ++id) {
    if (fabric.node(id).is_physical_switch()) {
      g.dense_of[id] = static_cast<SwitchIdx>(g.switches.size());
      g.switches.push_back(id);
    }
  }

  // CSR adjacency: count, prefix-sum, fill.
  std::vector<std::uint32_t> degree(g.switches.size(), 0);
  for (std::size_t s = 0; s < g.switches.size(); ++s) {
    const Node& n = fabric.node(g.switches[s]);
    for (PortNum p = 1; p <= n.num_ports(); ++p) {
      const Port& port = n.ports[p];
      if (port.connected() && g.dense_of[port.peer] != kNoSwitch) ++degree[s];
    }
  }
  g.adj_offset.assign(g.switches.size() + 1, 0);
  for (std::size_t s = 0; s < g.switches.size(); ++s) {
    g.adj_offset[s + 1] = g.adj_offset[s] + degree[s];
  }
  g.edges.resize(g.adj_offset.back());
  std::vector<std::uint32_t> cursor(g.adj_offset.begin(),
                                    g.adj_offset.end() - 1);
  for (std::size_t s = 0; s < g.switches.size(); ++s) {
    const Node& n = fabric.node(g.switches[s]);
    for (PortNum p = 1; p <= n.num_ports(); ++p) {
      const Port& port = n.ports[p];
      if (!port.connected()) continue;
      const SwitchIdx to = g.dense_of[port.peer];
      if (to == kNoSwitch) continue;
      g.edges[cursor[s]++] = Edge{to, p};
    }
  }

  // Reverse-edge and per-port lookup tables.
  g.edge_by_port.assign(g.switches.size() * 256, kNoEdge);
  for (std::size_t s = 0; s < g.switches.size(); ++s) {
    for (std::uint32_t e = g.adj_offset[s]; e < g.adj_offset[s + 1]; ++e) {
      g.edge_by_port[s * 256 + g.edges[e].out_port] = e;
    }
  }
  g.reverse_edge.resize(g.edges.size());
  for (std::size_t s = 0; s < g.switches.size(); ++s) {
    const Node& n = fabric.node(g.switches[s]);
    for (std::uint32_t e = g.adj_offset[s]; e < g.adj_offset[s + 1]; ++e) {
      const Port& port = n.ports[g.edges[e].out_port];
      // The cable's far end: same edge seen from the peer switch.
      const SwitchIdx peer = g.dense_of[port.peer];
      g.reverse_edge[e] = g.edge_of(peer, port.peer_port);
    }
  }

  g.rebuild_targets(fabric, lids);
  return g;
}

void SwitchGraph::rebuild_targets(const Fabric& fabric, const LidMap& lids) {
  targets.clear();
  for (Lid lid : lids.assigned_lids()) {
    const auto attach = lids.attachment(fabric, lid);
    if (!attach) continue;
    const SwitchIdx sw = dense_of[attach->first];
    if (sw == kNoSwitch) continue;
    targets.push_back(Target{lid, sw, attach->second});
  }
}

std::size_t HopMatrix::update(const SwitchGraph& graph) {
  const std::size_t s_count = graph.num_switches();
  const bool cold =
      hops.size() != s_count * s_count || adj_offset.size() != s_count + 1;
  if (hops.size() != s_count * s_count) {
    hops.assign(s_count * s_count, 0xFF);
    row_words = (s_count + 63) / 64;
    changed.assign(s_count * row_words, 0);
  }

  std::vector<SwitchIdx> search;
  if (cold) {
    edges_changed.assign(s_count, true);
    search.resize(s_count);
    std::iota(search.begin(), search.end(), SwitchIdx{0});
  } else {
    // Directed edges (u, v) removed and added: a switch's edges in one CSR
    // that the other does not list.
    std::vector<std::pair<SwitchIdx, SwitchIdx>> removed;
    std::vector<std::pair<SwitchIdx, SwitchIdx>> added;
    for (std::size_t s = 0; s < s_count; ++s) {
      const auto u = static_cast<SwitchIdx>(s);
      const auto* old_first = edges.data() + adj_offset[s];
      const auto* old_last = edges.data() + adj_offset[s + 1];
      const auto [first, last] = graph.out(u);
      if (std::equal(old_first, old_last, first, last)) continue;
      edges_changed[s] = true;
      for (const auto* e = old_first; e != old_last; ++e) {
        if (std::find(first, last, *e) == last) removed.emplace_back(u, e->to);
      }
      for (const auto* e = first; e != last; ++e) {
        if (std::find(old_first, old_last, *e) == old_last) {
          added.emplace_back(u, e->to);
        }
      }
    }
    // The row test. d(u) + 1 is taken in int, so an unreachable u (0xFF)
    // bounds nothing; 0xFE is where the search saturates.
    const auto row_holds = [&](const std::uint8_t* d) {
      for (const auto& [u, v] : added) {
        if (d[u] == 0xFE || d[v] == 0xFE || d[v] > d[u] + 1) return false;
      }
      for (const auto& [u, v] : removed) {
        if (d[u] == 0xFE || d[v] == 0xFE) return false;
        if (d[v] != d[u] + 1) continue;  // not a parent edge of v
        const auto [first, last] = graph.out(v);
        if (std::none_of(first, last, [&](const SwitchGraph::Edge& e) {
              return d[e.to] == d[u];
            })) {
          return false;
        }
      }
      return true;
    };
    for (std::size_t src = 0; src < s_count; ++src) {
      if (!row_holds(hops.data() + src * s_count)) {
        search.push_back(static_cast<SwitchIdx>(src));
      }
    }
  }

  // One range per batch of 64 rows at least: a 54-switch search runs
  // inline, a 972-switch one in 16 ranges.
  const std::size_t batches = (search.size() + kBatch - 1) / kBatch;
  ThreadPool::global().parallel_ranges(
      0, batches, 1, [&](std::size_t begin, std::size_t end) {
        std::vector<std::uint64_t> words(3 * s_count);
        std::vector<std::uint8_t> scratch(kBatch * s_count);
        for (std::size_t b = begin; b < end; ++b) {
          const std::size_t first = b * kBatch;
          const std::size_t n = std::min(kBatch, search.size() - first);
          std::fill_n(scratch.begin(), n * s_count, std::uint8_t{0xFF});
          bfs_hop_rows(graph, search.data() + first, n, scratch.data(),
                       words.data());
          for (std::size_t i = 0; i < n; ++i) {
            const SwitchIdx src = search[first + i];
            const std::uint8_t* fresh = scratch.data() + i * s_count;
            std::uint8_t* row = hops.data() + std::size_t{src} * s_count;
            if (std::equal(fresh, fresh + s_count, row)) continue;
            std::uint64_t* bits =
                changed.data() + std::size_t{src} * row_words;
            for (std::size_t t = 0; t < s_count; ++t) {
              if (row[t] != fresh[t]) {
                bits[t / 64] |= std::uint64_t{1} << t % 64;
              }
            }
            std::copy(fresh, fresh + s_count, row);
          }
        }
      });
  adj_offset = graph.adj_offset;
  edges = graph.edges;
  rows_searched += search.size();
  return search.size();
}

void HopMatrix::clear_changes() {
  std::fill(changed.begin(), changed.end(), 0);
  std::fill(edges_changed.begin(), edges_changed.end(), false);
}

}  // namespace ibvs::routing
