// LASH routing engine (LAyered SHortest path; OpenSM "lash").
//
// Minimal routing on arbitrary topologies made deadlock free by partitioning
// *switch pairs* into virtual layers: each (src, dst) switch pair's shortest
// path is assigned to a layer such that the channel dependencies of every
// layer stay acyclic; traffic for that pair then uses the layer's VL.
//
// Like OpenSM, the layer admission test tentatively adds the path's
// dependencies and re-checks the layer for cycles, per pair. The per-pair
// check here is a DFS from the newly inserted dependencies (complete, since
// any new cycle passes through a new edge) rather than OpenSM's whole-graph
// scan, but the O(switch-pairs x dependency-graph) admission loop is the
// same — which is why LASH's path computation time explodes on the paper's
// large fat-trees (39145 s at 11664 nodes in Fig. 7) while staying
// competitive on small ones.
#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "routing/engine.hpp"
#include "util/timer.hpp"

namespace ibvs::routing {

namespace {

constexpr unsigned kMaxLayers = 8;

/// Plain digraph over channels with batch rollback and full-DFS cycle check.
class LayerCdg {
 public:
  explicit LayerCdg(std::size_t channels)
      : out_(channels), mark_(channels, 0) {}

  /// Adds missing deps; returns how many were inserted (for rollback).
  std::size_t add_new(
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& deps,
      std::vector<std::pair<std::uint32_t, std::uint32_t>>& inserted) {
    inserted.clear();
    for (const auto& [a, b] : deps) {
      auto& out = out_[a];
      if (std::find(out.begin(), out.end(), b) != out.end()) continue;
      out.push_back(b);
      inserted.emplace_back(a, b);
    }
    return inserted.size();
  }

  void rollback(
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& inserted) {
    for (auto it = inserted.rbegin(); it != inserted.rend(); ++it) {
      out_[it->first].pop_back();
    }
  }

  /// Cycle test after a batch insertion. Any cycle the batch created must
  /// pass through an inserted edge (the graph was acyclic before), so a DFS
  /// from each inserted edge's head looking for its tail is complete.
  [[nodiscard]] bool introduces_cycle(
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& inserted) {
    for (const auto& [a, b] : inserted) {
      if (reaches(b, a)) return true;
    }
    return false;
  }

  /// OpenSM-cost-model check: a full three-colour DFS over the whole layer,
  /// the way osm_ucast_lash re-scans its dependency structure per admitted
  /// path. Same verdicts as introduces_cycle(), vastly more work — this is
  /// what makes LASH explode in Fig. 7.
  [[nodiscard]] bool full_scan_has_cycle() {
    color_.assign(out_.size(), 0);
    for (std::uint32_t root = 0; root < out_.size(); ++root) {
      if (color_[root] != 0) continue;
      frames_.clear();
      frames_.emplace_back(root, 0);
      color_[root] = 1;
      while (!frames_.empty()) {
        auto& [u, cursor] = frames_.back();
        if (cursor < out_[u].size()) {
          const std::uint32_t v = out_[u][cursor++];
          if (color_[v] == 1) return true;
          if (color_[v] == 0) {
            color_[v] = 1;
            frames_.emplace_back(v, 0);
          }
        } else {
          color_[u] = 2;
          frames_.pop_back();
        }
      }
    }
    return false;
  }

 private:
  [[nodiscard]] bool reaches(std::uint32_t start, std::uint32_t goal) {
    ++epoch_;
    stack_.clear();
    stack_.push_back(start);
    mark_[start] = epoch_;
    while (!stack_.empty()) {
      const std::uint32_t u = stack_.back();
      stack_.pop_back();
      if (u == goal) return true;
      for (std::uint32_t v : out_[u]) {
        if (mark_[v] == epoch_) continue;
        mark_[v] = epoch_;
        stack_.push_back(v);
      }
    }
    return false;
  }

  std::vector<std::vector<std::uint32_t>> out_;
  std::vector<std::uint32_t> mark_;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> stack_;
  std::vector<std::uint8_t> color_;
  std::vector<std::pair<std::uint32_t, std::size_t>> frames_;
};

class LashEngine final : public RoutingEngine {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "lash";
  }

  [[nodiscard]] RoutingResult compute(const Fabric& fabric,
                                      const LidMap& lids) override {
    Stopwatch watch;
    RoutingResult result;
    result.graph = SwitchGraph::build(fabric, lids);
    const SwitchGraph& g = result.graph;
    const std::size_t s_count = g.num_switches();
    result.lfts.assign(s_count, Lft(lids.top_lid()));
    result.switches_rerouted = s_count;
    if (s_count == 0 || g.targets.empty()) {
      result.compute_seconds = watch.elapsed_seconds();
      return result;
    }

    // --- Shortest-path next hops per destination *switch* (all LIDs on a
    // switch share routes; layers are per switch pair). ---
    // next_port[ds * s_count + x] = egress at switch x toward switch ds.
    std::vector<PortNum> next_port(s_count * s_count, kDropPort);
    {
      std::vector<std::uint16_t> dist(s_count);
      std::vector<SwitchIdx> queue(s_count);
      for (SwitchIdx ds = 0; ds < s_count; ++ds) {
        PortNum* row = next_port.data() +
                       static_cast<std::size_t>(ds) * s_count;
        std::fill(dist.begin(), dist.end(), 0xFFFF);
        std::size_t head = 0;
        std::size_t tail = 0;
        dist[ds] = 0;
        queue[tail++] = ds;
        while (head < tail) {
          const SwitchIdx y = queue[head++];
          const auto [first, last] = g.out(y);
          for (const auto* e = first; e != last; ++e) {
            if (dist[e->to] != 0xFFFF) continue;
            dist[e->to] = static_cast<std::uint16_t>(dist[y] + 1);
            // e->to forwards toward ds via the reverse of (y -> e->to).
            const std::uint32_t eid =
                static_cast<std::uint32_t>(e - g.edges.data());
            row[e->to] = g.edges[g.reverse_edge[eid]].out_port;
            queue[tail++] = e->to;
          }
        }
      }
    }

    // LFTs follow the per-switch-pair paths.
    for (const auto& target : g.targets) {
      const PortNum* row =
          next_port.data() + static_cast<std::size_t>(target.sw) * s_count;
      for (std::size_t x = 0; x < s_count; ++x) {
        if (x == target.sw) {
          result.lfts[x].set(target.lid, target.port);
        } else if (row[x] != kDropPort) {
          result.lfts[x].set(target.lid, row[x]);
        }
      }
    }

    // IBVS_LASH_FAITHFUL=1 switches the admission test to OpenSM's
    // whole-graph rescan, reproducing the cost profile behind the paper's
    // 39145 s data point (the routing produced is identical).
    const char* faithful_env = std::getenv("IBVS_LASH_FAITHFUL");
    const bool opensm_cost_model =
        faithful_env != nullptr && faithful_env[0] != '\0' &&
        faithful_env[0] != '0';

    // --- Layer assignment per ordered switch pair. ---
    // Only pairs that carry *data* traffic need a layer: both endpoints
    // must host at least one CA (management traffic to bare switch LIDs
    // rides VL15 and is outside the data-VL CDG).
    std::vector<bool> hosts_ca(s_count, false);
    for (const auto& target : g.targets) {
      if (target.port != 0) hosts_ca[target.sw] = true;
    }
    result.pair_layer.assign(s_count * s_count, 0xFF);
    std::vector<LayerCdg> layers;
    layers.emplace_back(g.num_edges());
    std::vector<std::pair<std::uint32_t, std::uint32_t>> deps;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> inserted;
    for (SwitchIdx ss = 0; ss < s_count; ++ss) {
      if (!hosts_ca[ss]) continue;
      for (SwitchIdx ds = 0; ds < s_count; ++ds) {
        if (ss == ds || !hosts_ca[ds]) continue;
        const PortNum* row =
            next_port.data() + static_cast<std::size_t>(ds) * s_count;
        if (row[ss] == kDropPort) continue;  // disconnected
        // Walk the path, collecting consecutive-channel dependencies.
        deps.clear();
        std::uint32_t prev_edge = SwitchGraph::kNoEdge;
        SwitchIdx x = ss;
        while (x != ds) {
          const std::uint32_t e = g.edge_of(x, row[x]);
          if (prev_edge != SwitchGraph::kNoEdge)
            deps.emplace_back(prev_edge, e);
          prev_edge = e;
          x = g.edges[e].to;
        }
        unsigned layer = 0;
        for (;; ++layer) {
          if (layer == layers.size()) {
            if (layers.size() == kMaxLayers) {
              throw std::runtime_error("lash: out of virtual layers");
            }
            layers.emplace_back(g.num_edges());
          }
          const std::size_t added = layers[layer].add_new(deps, inserted);
          if (!opensm_cost_model && added == 0) break;
          const bool cycle = opensm_cost_model
                                 ? layers[layer].full_scan_has_cycle()
                                 : layers[layer].introduces_cycle(inserted);
          if (!cycle) break;
          layers[layer].rollback(inserted);
        }
        result.pair_layer[static_cast<std::size_t>(ss) * s_count + ds] =
            static_cast<std::uint8_t>(layer);
      }
      // A switch talking to itself stays on layer 0.
      result.pair_layer[static_cast<std::size_t>(ss) * s_count + ss] = 0;
    }
    result.num_vls = static_cast<unsigned>(layers.size());
    for (auto& lft : result.lfts) lft.clear_dirty();

    result.compute_seconds = watch.elapsed_seconds();
    return result;
  }
};

}  // namespace

std::unique_ptr<RoutingEngine> make_lash_engine() {
  return std::make_unique<LashEngine>();
}

}  // namespace ibvs::routing
