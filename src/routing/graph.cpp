#include "routing/graph.hpp"

#include <algorithm>

#include "util/expect.hpp"
#include "util/thread_pool.hpp"

namespace ibvs::routing {

namespace {

/// Smallest run of BFS sources one pool worker fills hop-matrix rows for.
/// On the 648-node tree (54 switches, 4 cores) the matrix takes ~95 us
/// inline and ~60 us as six ranges.
constexpr std::size_t kMinSourcesPerRange = 8;

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

  // Reverse-edge, per-port and edge-source lookup tables.
  g.edge_by_port.assign(g.switches.size() * 256, kNoEdge);
  g.edge_src.resize(g.edges.size());
  for (std::size_t s = 0; s < g.switches.size(); ++s) {
    for (std::uint32_t e = g.adj_offset[s]; e < g.adj_offset[s + 1]; ++e) {
      g.edge_by_port[s * 256 + g.edges[e].out_port] = e;
      g.edge_src[e] = static_cast<SwitchIdx>(s);
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
          std::uint8_t* row = hops.data() + src * s_count;
          row[src] = 0;
          std::size_t head = 0;
          std::size_t tail = 0;
          queue[tail++] = static_cast<SwitchIdx>(src);
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
      });
  return hops;
}

}  // namespace ibvs::routing
