// Min-Hop routing engine (OpenSM "minhop" equivalent).
//
// Per switch: every destination LID is forwarded out of a port that lies on
// a minimal-hop path, choosing among the minimal ports the one with the
// least destinations already assigned (OpenSM's port-load balancing).
// Only CA LIDs add to a port's load: a switch's own LID (delivered at port
// 0) is routed by the same search but not counted, as OpenSM's default
// `port_profile_switch_nodes FALSE`. Deterministic: targets are processed
// in ascending LID order with lowest-port tie breaking.
//
// Tables are rewritten in place. A switch's table is a function of its own
// out-edges, its neighbours' hop-matrix rows at the target switches, and
// the target list in LID order; its port loads never leave it. A stale
// switch (written since the last run, new, with changed out-edges or the
// wrong capacity) is filled from all-drop, as a cold run fills every
// switch. Any other switch walks the last run's target list and the new
// one together in LID order from its first target whose inputs changed,
// tracking delta[p]: port p's load now minus its load at the same point of
// the last run. A target whose (lid, switch, port) and neighbours' hop
// column are unchanged, and whose old port c has delta[c] <= 0, keeps c
// unless a minimal-hop port with delta < 0 now beats it: every other
// port's (load, port) key can only have grown since c beat it, and c's can
// only have shrunk. The rest search every out-edge. The walk stops once it
// is past the last target at a changed column, inside the common tail of
// the two lists, with delta zero at every port: from there on every
// target's inputs and the loads before it are the last run's, so the table
// already holds the search's answers. The hop matrix is the caller's (the
// SM's), which records the cells and out-edges changed since the last
// routing run.
#include <algorithm>
#include <array>
#include <atomic>
#include <bit>

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

using Target = SwitchGraph::Target;

/// Whether routing target t adds to its port's load: CA LIDs do, a switch's
/// own LID (delivered at port 0) does not.
[[nodiscard]] bool counts(const Target& t) { return t.port != 0; }

/// One pool worker's table fills: the inputs every switch shares and the
/// scratch of the switch being filled.
class SwitchFill {
 public:
  SwitchFill(const SwitchGraph& g, const HopMatrix& matrix)
      : g_(g), matrix_(matrix), mask_(matrix.row_words) {}

  /// Full (switch, target) searches so far.
  std::size_t searched = 0;
  /// Delta-fill steps so far: targets of either list the walks passed.
  std::size_t walked = 0;

  /// Fills switch s's table from all-drop, as a cold run does.
  void refill(SwitchIdx s, Lft& lft, Lid top_lid, std::size_t capacity) {
    // Clearing in place allocates nothing: fresh tables made on pool
    // workers raised peak RSS.
    if (lft.capacity() == capacity) {
      lft.clear();
    } else {
      lft = Lft(top_lid);
    }
    load_.fill(0);
    for (const Target& t : g_.targets) {
      const PortNum chosen = t.sw == s ? t.port : search(s, t.sw, counts(t));
      if (chosen != kDropPort) lft.set(t.lid, chosen);
    }
  }

  /// Brings unwritten switch s's table, which holds the last run's choices
  /// for `old`, up to date with the graph's targets. The lists agree below
  /// `same` and in their last `tail` entries; rank[t] is switch t's first
  /// index in the new list and past[t] one past its last (0 when it has
  /// none). Returns false, touching nothing, when no input of the table
  /// changed.
  bool delta_fill(SwitchIdx s, Lft& lft, const std::vector<Target>& old,
                  std::size_t same, std::size_t tail,
                  const std::vector<std::uint32_t>& rank,
                  const std::vector<std::uint32_t>& past) {
    const std::vector<Target>& targets = g_.targets;
    // The columns at which some neighbour's hop row changed. The first
    // target at any of them bounds k_s like the first differing target;
    // the walk stops neither before the last one nor outside the tail.
    std::fill(mask_.begin(), mask_.end(), 0);
    const auto [first, last] = g_.out(s);
    for (const auto* e = first; e != last; ++e) {
      const std::uint64_t* row = matrix_.changed_row(e->to);
      for (std::size_t w = 0; w < mask_.size(); ++w) mask_[w] |= row[w];
    }
    std::size_t k = same;
    std::size_t stop = targets.size() - tail;
    for (std::size_t w = 0; w < mask_.size(); ++w) {
      for (std::uint64_t bits = mask_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t t = w * 64 + std::countr_zero(bits);
        k = std::min<std::size_t>(k, rank[t]);
        stop = std::max<std::size_t>(stop, past[t]);
      }
    }
    if (k == targets.size() && k == old.size()) return false;
    const std::size_t old_tail = old.size() - tail;

    // Targets before k_s keep their ports; their loads come from the table.
    load_.fill(0);
    delta_.fill(0);
    below_.fill(0);
    nonzero_ = 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (targets[i].sw == s || !counts(targets[i])) continue;
      const PortNum port = lft.get(targets[i].lid);
      if (port != kDropPort) ++load_[port];
    }
    std::size_t i = k;  // next of the old list
    std::size_t j = k;  // next of the new list
    while (i < old.size() || j < targets.size()) {
      // Every input and load from here on is the last run's.
      if (j >= stop && i >= old_tail && nonzero_ == 0) break;
      ++walked;
      if (j == targets.size() ||
          (i < old.size() && old[i].lid < targets[j].lid)) {
        // A LID gone from the list: dropped, its old port one lighter.
        const Target& gone = old[i++];
        const PortNum c = lft.get(gone.lid);
        if (c == kDropPort) continue;
        if (gone.sw != s && counts(gone)) shift(c, -1);
        lft.set(gone.lid, kDropPort);
        continue;
      }
      const Target& t = targets[j++];
      const PortNum c = lft.get(t.lid);  // drop for a LID new to the list
      bool counted = false;  // c carried load in the last run
      bool same_target = false;
      if (i < old.size() && old[i].lid == t.lid) {
        counted = old[i].sw != s && counts(old[i]) && c != kDropPort;
        same_target = old[i] == t;
        ++i;
      }
      PortNum chosen;
      if (t.sw == s) {
        chosen = t.port;  // local delivery (port 0 = self)
      } else if (same_target && c != kDropPort && !column_changed(t.sw) &&
                 delta_[c] <= 0) {
        chosen = replay(s, t.sw, c, counts(t));
      } else {
        chosen = search(s, t.sw, counts(t));
      }
      if (counted) shift(c, -1);
      if (t.sw != s && counts(t) && chosen != kDropPort) shift(chosen, +1);
      if (chosen != c) lft.set(t.lid, chosen);
    }
    return true;
  }

 private:
  /// Minimal hop count via any neighbour, then least-loaded port, then
  /// lowest port: the smallest of one key per out-edge of s. The chosen
  /// port's load grows when the target counts.
  PortNum search(SwitchIdx s, SwitchIdx dst, bool count) {
    ++searched;
    const std::size_t s_count = g_.num_switches();
    const std::uint8_t* hops = matrix_.hops.data();
    std::uint64_t best = kNoRoute;
    const auto [first, last] = g_.out(s);
    for (const auto* e = first; e != last; ++e) {
      const std::uint8_t h = hops[std::size_t{e->to} * s_count + dst];
      const std::uint64_t key =
          h == 0xFF ? kNoRoute
                    : (std::uint64_t{h} + 1) << 40 |
                          std::uint64_t{load_[e->out_port]} << 8 |
                          e->out_port;
      best = std::min(best, key);
    }
    if (best == kNoRoute) return kDropPort;
    const auto chosen = static_cast<PortNum>(best & 0xFF);
    if (count) ++load_[chosen];
    return chosen;
  }

  /// The search's answer for a target whose inputs are unchanged and whose
  /// old port c has delta[c] <= 0: the least (load, port) among c and the
  /// ports with delta < 0 as near the target as c. Any other port p has
  /// delta[p] >= 0, so its key is at least its old one, which c beat.
  PortNum replay(SwitchIdx s, SwitchIdx dst, PortNum c, bool count) {
    std::uint64_t best = std::uint64_t{load_[c]} << 8 | c;
    if (below_ != std::array<std::uint64_t, 4>{}) {
      const std::uint8_t hc = hop_via(s, c, dst);
      for (std::size_t w = 0; w < below_.size(); ++w) {
        for (std::uint64_t bits = below_[w]; bits != 0; bits &= bits - 1) {
          const auto p = static_cast<PortNum>(w * 64 + std::countr_zero(bits));
          if (hop_via(s, p, dst) != hc) continue;
          best = std::min(best, std::uint64_t{load_[p]} << 8 | p);
        }
      }
    }
    const auto chosen = static_cast<PortNum>(best & 0xFF);
    if (count) ++load_[chosen];
    return chosen;
  }

  /// Hops to switch dst from the neighbour behind s's port p.
  [[nodiscard]] std::uint8_t hop_via(SwitchIdx s, PortNum p,
                                     SwitchIdx dst) const {
    const SwitchIdx to = g_.edges[g_.edge_of(s, p)].to;
    return matrix_.hops[std::size_t{to} * g_.num_switches() + dst];
  }

  [[nodiscard]] bool column_changed(SwitchIdx t) const {
    return (mask_[t / 64] >> t % 64 & 1) != 0;
  }

  /// Moves delta[p] by `by`, keeping the set of ports below zero and the
  /// count of ports away from zero.
  void shift(PortNum p, int by) {
    nonzero_ -= delta_[p] != 0;
    delta_[p] += by;
    nonzero_ += delta_[p] != 0;
    const std::uint64_t bit = std::uint64_t{1} << p % 64;
    if (delta_[p] < 0) {
      below_[p / 64] |= bit;
    } else {
      below_[p / 64] &= ~bit;
    }
  }

  const SwitchGraph& g_;
  const HopMatrix& matrix_;
  std::array<std::uint32_t, 256> load_{};
  std::array<std::int32_t, 256> delta_{};
  std::array<std::uint64_t, 4> below_{};  ///< ports with delta < 0
  std::size_t nonzero_ = 0;               ///< ports with delta != 0
  std::vector<std::uint64_t> mask_;       ///< changed columns, this switch
};

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
    const std::vector<Target>& old_targets = result.routed_targets;
    // Only the hop rows the cables changed since the matrix was last
    // brought up to date are searched (none for a flap; every row after
    // the caller dropped it).
    result.hop_rows_searched = hop_matrix.update(g);
    // Targets before `same_targets` are unchanged (lid, switch, port).
    std::size_t same_targets = 0;
    while (same_targets < std::min(n, old_targets.size()) &&
           g.targets[same_targets] == old_targets[same_targets]) {
      ++same_targets;
    }
    // The last `tail_targets` of both lists are equal.
    std::size_t tail_targets = 0;
    while (tail_targets < std::min(n, old_targets.size()) &&
           g.targets[n - 1 - tail_targets] ==
               old_targets[old_targets.size() - 1 - tail_targets]) {
      ++tail_targets;
    }
    // Each switch's first index in the new list (n when it has none) and
    // one past its last (0 when it has none).
    std::vector<std::uint32_t> rank(s_count, static_cast<std::uint32_t>(n));
    std::vector<std::uint32_t> past(s_count, 0);
    for (std::size_t i = n; i-- > 0;) {
      rank[g.targets[i].sw] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t i = 0; i < n; ++i) {
      past[g.targets[i].sw] = static_cast<std::uint32_t>(i + 1);
    }
    const std::size_t capacity = lft_blocks_for(lids.top_lid()) * kLftBlockSize;

    result.lfts.resize(s_count);
    std::atomic<std::size_t> rerouted{0};
    std::atomic<std::size_t> searched{0};
    std::atomic<std::size_t> walked{0};
    ThreadPool::global().parallel_ranges(
        0, s_count, kMinSwitchesPerRange,
        [&](std::size_t begin, std::size_t end) {
          SwitchFill fill(g, hop_matrix);
          std::size_t rerouted_here = 0;
          for (std::size_t s = begin; s < end; ++s) {
            const auto sw = static_cast<SwitchIdx>(s);
            Lft& lft = result.lfts[s];
            const bool stale = (s < written.size() && written[s]) ||
                               hop_matrix.edges_changed[s] ||
                               lft.capacity() != capacity;
            if (stale) {
              fill.refill(sw, lft, lids.top_lid(), capacity);
            } else if (!fill.delta_fill(sw, lft, old_targets, same_targets,
                                        tail_targets, rank, past)) {
              continue;  // unwritten, so no block is dirty either
            }
            ++rerouted_here;
            lft.clear_dirty();
          }
          rerouted.fetch_add(rerouted_here, std::memory_order_relaxed);
          searched.fetch_add(fill.searched, std::memory_order_relaxed);
          walked.fetch_add(fill.walked, std::memory_order_relaxed);
        });

    result.routed_targets = g.targets;
    result.switches_rerouted = rerouted.load();
    result.targets_searched = searched.load();
    result.targets_walked = walked.load();
    result.compute_seconds = watch.elapsed_seconds();
  }
};

}  // namespace

std::unique_ptr<RoutingEngine> make_min_hop_engine() {
  return std::make_unique<MinHopEngine>();
}

}  // namespace ibvs::routing
