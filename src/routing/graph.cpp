#include "routing/graph.hpp"

#include <algorithm>
#include <numeric>

#include "util/thread_pool.hpp"

namespace ibvs::routing {

namespace {

/// Smallest run of BFS sources one pool worker fills hop-matrix rows for.
/// On the 648-node tree (54 switches, 4 cores) the matrix takes ~95 us
/// inline and ~60 us as six ranges.
constexpr std::size_t kMinSourcesPerRange = 8;

/// Hop counts from `src` to every switch, by breadth-first search: writes
/// row[t] for each reachable t (saturating at 0xFE). `row` holds S entries,
/// all 0xFF (unreachable) on entry; `queue` is S entries of scratch. The one
/// BFS kernel behind switch_hop_matrix() and HopMatrix::update().
void bfs_hop_row(const SwitchGraph& graph, SwitchIdx src, std::uint8_t* row,
                 SwitchIdx* queue) {
  row[src] = 0;
  std::size_t head = 0;
  std::size_t tail = 0;
  queue[tail++] = src;
  while (head < tail) {
    const SwitchIdx u = queue[head++];
    const std::uint8_t du = row[u];
    if (du == 0xFE) continue;  // saturate rather than wrap
    const auto [first, last] = graph.out(u);
    for (const auto* e = first; e != last; ++e) {
      if (row[e->to] != 0xFF) continue;
      row[e->to] = static_cast<std::uint8_t>(du + 1);
      queue[tail++] = e->to;
    }
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

std::vector<std::uint8_t> switch_hop_matrix(const SwitchGraph& graph) {
  const std::size_t s_count = graph.num_switches();
  std::vector<std::uint8_t> hops(s_count * s_count, 0xFF);
  if (s_count == 0) return hops;

  ThreadPool::global().parallel_ranges(
      0, s_count, kMinSourcesPerRange,
      [&](std::size_t begin, std::size_t end) {
        std::vector<SwitchIdx> queue(s_count);
        for (std::size_t src = begin; src < end; ++src) {
          bfs_hop_row(graph, static_cast<SwitchIdx>(src),
                      hops.data() + src * s_count, queue.data());
        }
      });
  return hops;
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

  ThreadPool::global().parallel_ranges(
      0, search.size(), kMinSourcesPerRange,
      [&](std::size_t begin, std::size_t end) {
        std::vector<SwitchIdx> queue(s_count);
        std::vector<std::uint8_t> scratch(s_count);
        for (std::size_t k = begin; k < end; ++k) {
          const SwitchIdx src = search[k];
          std::fill(scratch.begin(), scratch.end(), 0xFF);
          bfs_hop_row(graph, src, scratch.data(), queue.data());
          std::uint8_t* row = hops.data() + std::size_t{src} * s_count;
          if (std::equal(scratch.begin(), scratch.end(), row)) continue;
          std::uint64_t* bits = changed.data() + std::size_t{src} * row_words;
          for (std::size_t t = 0; t < s_count; ++t) {
            if (row[t] != scratch[t]) {
              bits[t / 64] |= std::uint64_t{1} << t % 64;
            }
          }
          std::copy(scratch.begin(), scratch.end(), row);
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
