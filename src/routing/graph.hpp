// Compact switch-level view of a fabric for the routing engines.
//
// Path computation only cares about physical switches and where each LID
// attaches to them; CAs, PFs, VFs and vSwitches all collapse onto their
// attachment (switch, port). This is both a performance necessity at the
// paper's 11664-node scale and the structural reason the vSwitch
// reconfiguration works: every LID behind a hypervisor shares one
// attachment point.
#pragma once

#include <cstdint>
#include <vector>

#include "ib/fabric.hpp"
#include "ib/lid_map.hpp"
#include "ib/types.hpp"

namespace ibvs::routing {

/// Dense index of a switch inside a SwitchGraph.
using SwitchIdx = std::uint32_t;
inline constexpr SwitchIdx kNoSwitch = ~SwitchIdx{0};

struct SwitchGraph {
  /// One directed half of a cable between two physical switches.
  struct Edge {
    SwitchIdx to = kNoSwitch;
    PortNum out_port = 0;  ///< egress port on the source switch

    friend bool operator==(const Edge&, const Edge&) = default;
  };

  /// An assigned LID and where its traffic must be delivered.
  struct Target {
    Lid lid;
    SwitchIdx sw = kNoSwitch;  ///< attachment switch
    PortNum port = 0;          ///< delivery port (0 = the switch itself)

    friend bool operator==(const Target&, const Target&) = default;
  };

  std::vector<NodeId> switches;       ///< dense index -> fabric NodeId
  std::vector<SwitchIdx> dense_of;    ///< fabric NodeId -> dense index
  std::vector<std::uint32_t> adj_offset;  ///< CSR offsets, size S+1
  std::vector<Edge> edges;                ///< CSR payload
  std::vector<Target> targets;        ///< every routable LID, LID-ascending
  /// edges[i]'s opposite direction on the same cable: edges[reverse_edge[i]].
  std::vector<std::uint32_t> reverse_edge;
  /// (switch, out port) -> edge index (kNoEdge if that port has no
  /// switch-to-switch cable). Row-major, 256 ports per switch.
  std::vector<std::uint32_t> edge_by_port;

  static constexpr std::uint32_t kNoEdge = ~std::uint32_t{0};

  [[nodiscard]] std::uint32_t edge_of(SwitchIdx s, PortNum port) const {
    return edge_by_port[static_cast<std::size_t>(s) * 256 + port];
  }

  [[nodiscard]] std::size_t num_switches() const noexcept {
    return switches.size();
  }
  [[nodiscard]] std::size_t num_edges() const noexcept { return edges.size(); }

  /// Edges leaving switch `s`.
  [[nodiscard]] std::pair<const Edge*, const Edge*> out(SwitchIdx s) const {
    return {edges.data() + adj_offset[s], edges.data() + adj_offset[s + 1]};
  }

  [[nodiscard]] SwitchIdx dense(NodeId node) const {
    return node < dense_of.size() ? dense_of[node] : kNoSwitch;
  }

  /// Builds the view. Targets cover every LID in `lids` that resolves to a
  /// physical attachment; unattached LIDs are skipped (and later unrouted).
  static SwitchGraph build(const Fabric& fabric, const LidMap& lids);

  /// Recomputes only the target list (cheap). Needed after LIDs move —
  /// create/destroy/migrate — when the switch fabric itself is unchanged.
  void rebuild_targets(const Fabric& fabric, const LidMap& lids);
};

/// Hop-count matrix between switches (row-major, S*S, 0xFF = unreachable),
/// searched from scratch: one BFS per source, in parallel, through the same
/// kernel as HopMatrix::update(). The reference HopMatrix is tested against.
std::vector<std::uint8_t> switch_hop_matrix(const SwitchGraph& graph);

/// The switch hop matrix of a graph that changes a few cables at a time,
/// kept current in place. The subnet manager owns one beside its master
/// tables; Min-Hop, the topology planners and journal recovery all read it.
/// Besides the matrix it keeps the CSR the matrix was computed on and what
/// changed since clear_changes(), which the SM calls after every routing
/// run: the updates between two runs accumulate. Min-Hop ORs a switch's
/// neighbours' changed-cell rows into one mask: its set bits are the target
/// switches whose choices may differ from the last run's.
struct HopMatrix {
  std::vector<std::uint8_t> hops;         ///< switch_hop_matrix() layout
  std::vector<std::uint32_t> adj_offset;  ///< CSR `hops` was computed on
  std::vector<SwitchGraph::Edge> edges;
  /// Cells changed since clear_changes(), one bit per (row u, column t):
  /// bit t % 64 of changed[u * row_words + t / 64]. S² bits.
  std::vector<std::uint64_t> changed;
  std::size_t row_words = 0;  ///< 64-bit words per row of `changed`
  /// Per switch: its out-edge list changed since clear_changes().
  std::vector<bool> edges_changed;
  /// Rows searched by BFS over every update() so far.
  std::uint64_t rows_searched = 0;

  /// Row u's changed-cell bits, row_words words.
  [[nodiscard]] const std::uint64_t* changed_row(SwitchIdx u) const {
    return changed.data() + std::size_t{u} * row_words;
  }

  /// Brings `hops` up to date with `graph` and returns the rows it searched.
  /// Every cell that changed is set in `changed` (which accumulates) and
  /// every switch whose out-edges changed in `edges_changed`.
  ///
  /// The stored CSR and `graph`'s are diffed into the directed edges removed
  /// and added. A row with old distances d is kept without a search when
  /// every added edge u→v has d(v) ≤ d(u)+1 and every removed edge u→v with
  /// d(v) = d(u)+1 leaves v another in-neighbour w with d(w) = d(u) in
  /// `graph`: then no path got shorter and every switch kept a parent one
  /// level up. Cables are symmetric, so v's in-neighbours are its out-edge
  /// ends. A row with 0xFE (where the search saturates) at either end of a
  /// changed edge is always searched. Each searched row goes into a scratch
  /// row, is compared with the stored one, then copied over it.
  ///
  /// Cold, every row is searched and every switch's edges count as changed:
  /// when `hops` does not hold S*S entries (it is first reset to
  /// all-unreachable and `changed` to all-clear, so every reachable cell
  /// counts as changed) or the stored CSR does not hold S+1 offsets.
  std::size_t update(const SwitchGraph& graph);

  /// Forgets what changed: a routing run has read it.
  void clear_changes();

  /// Drops the matrix, so the next update() is cold.
  void reset() { hops.clear(); }
};

}  // namespace ibvs::routing
