// Routing-engine interface.
//
// An engine consumes the subnet (fabric + LID assignment) and produces a
// full set of linear forwarding tables for the physical switches, plus the
// virtual-lane layering needed for deadlock freedom where the engine relies
// on VLs (DFSSSP, LASH). This mirrors OpenSM's routing-engine plug-in
// boundary; the four engines of Fig. 7 (fat-tree, minhop, dfsssp, lash) and
// Up*/Down* are implemented against it.
//
// An engine either computes from scratch (compute()) or rewrites the SM's
// master tables in place (recompute()). Min-Hop does the latter: it reads
// the hop matrix the SM keeps current, keeps the target list of its
// previous run beside the tables it wrote, and searches a switch's
// out-edges again only for the targets whose old port may no longer win.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ib/lft.hpp"
#include "routing/graph.hpp"

namespace ibvs::routing {

/// Output of a path-computation run.
struct RoutingResult {
  /// The switch view the tables are indexed by (dense switch index).
  SwitchGraph graph;
  /// One LFT per physical switch, graph-dense-indexed.
  std::vector<Lft> lfts;
  /// Number of virtual lanes/layers the engine needs (1 = no VL layering).
  unsigned num_vls = 1;
  /// DFSSSP-style layering: VL per destination LID value (empty = all VL0).
  std::vector<std::uint8_t> dest_vl;
  /// LASH-style layering: layer per (src switch, dst switch) dense pair,
  /// row-major S*S (empty when unused). 0xFF = pair unrouted.
  std::vector<std::uint8_t> pair_layer;
  /// Wall-clock path-computation time (the PCt of eq. (1)).
  double compute_seconds = 0.0;
  /// Switches whose tables this run rewrote (all of them when cold).
  std::size_t switches_rerouted = 0;
  /// Min-Hop hop-matrix rows (BFS sources) this run searched: every switch
  /// when cold, otherwise only the rows a cable changed since the matrix
  /// was last brought up to date (none for a flap, or when a topology
  /// planner already did). 0 for the other engines.
  std::size_t hop_rows_searched = 0;
  /// Min-Hop (switch, target) pairs this run chose a port for by searching
  /// every out-edge of the switch: every routed pair when cold, otherwise
  /// only those whose old port could not be replayed. 0 for the other
  /// engines.
  std::size_t targets_searched = 0;
  /// Min-Hop delta-fill steps this run took: the targets of the last run's
  /// list and the new one that the walks of unwritten switches passed
  /// before stopping. 0 when cold and for the other engines.
  std::size_t targets_walked = 0;

  /// The target list the run routed, kept with the tables it wrote so the
  /// next in-place run can tell which targets changed. Only Min-Hop fills
  /// it. Its other inputs are the hop matrix and the CSR it was computed on,
  /// which the caller keeps (HopMatrix), and the tables' own capacity.
  std::vector<SwitchGraph::Target> routed_targets;

  /// VL assigned to traffic from `src_sw` to LID `lid`.
  [[nodiscard]] std::uint8_t vl_for(SwitchIdx src_sw, Lid lid,
                                    SwitchIdx dst_sw) const {
    if (!dest_vl.empty() && lid.value() < dest_vl.size())
      return dest_vl[lid.value()];
    if (!pair_layer.empty())
      return pair_layer[static_cast<std::size_t>(src_sw) *
                            graph.num_switches() +
                        dst_sw];
    return 0;
  }
};

class RoutingEngine {
 public:
  virtual ~RoutingEngine() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  /// Computes LFTs for all physical switches. Deterministic for a given
  /// fabric + LID assignment.
  [[nodiscard]] virtual RoutingResult compute(const Fabric& fabric,
                                              const LidMap& lids) = 0;

  /// Brings `tables` — an earlier result, possibly patched since — up to
  /// date in place, leaving exactly what compute() would return.
  /// `written[s]` marks switch s as written since that result was computed
  /// (or added, or the whole set stale); switches past its end count as
  /// unwritten. `hops` is the caller's hop matrix, kept beside `tables`:
  /// changes since its last clear_changes() belong to this run. The default
  /// assigns a cold compute() and ignores `hops`; Min-Hop brings `hops` up
  /// to date and keeps an unwritten switch's old port for every target
  /// whose inputs and port loads allow it.
  virtual void recompute(const Fabric& fabric, const LidMap& lids,
                         RoutingResult& tables,
                         const std::vector<bool>& written, HopMatrix& hops);
};

enum class EngineKind { kMinHop, kFatTree, kUpDown, kDfsssp, kLash };

[[nodiscard]] std::unique_ptr<RoutingEngine> make_engine(EngineKind kind);
[[nodiscard]] std::string to_string(EngineKind kind);
[[nodiscard]] std::vector<EngineKind> all_engines();

/// The engines of the paper's Fig. 7, in its plotting order.
[[nodiscard]] std::vector<EngineKind> fig7_engines();

}  // namespace ibvs::routing
