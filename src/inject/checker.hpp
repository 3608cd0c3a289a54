// Fabric invariant suite: what must hold after every recovery.
//
// The chaos harness (and the failure tests) assert convergence not by
// inspecting SM bookkeeping but by checking the *installed* state of the
// fabric — the same hardware tables a packet would actually traverse:
//
//   * reachability — every assigned LID with a physical attachment is
//     delivered from every (sampled) CA endpoint. Each (source, target)
//     pair is walked hop by hop under fabric::trace_unicast's rules, with
//     each physical switch's verdict for a target memoized across sources
//     (a switch forwards independently of its ingress port). Large fabrics
//     shard the walks across pool workers in contiguous target (LID)
//     ranges (see kMinTargetsPerShard), and a serial index-ordered merge
//     reproduces a per-pair trace scan byte for byte (same violations,
//     same cap/truncation point, same paths_traced),
//   * no routing loops — a walk exceeding its hop budget means the LFTs
//     form a forwarding cycle,
//   * LFT <-> LidMap consistency — the attachment switch of every LID
//     forwards that LID out of its delivery port,
//   * no duplicate LIDs — only the architectural vSwitch/PF share (§V:
//     "the vSwitch does not need to occupy an additional LID") is allowed,
//   * vSwitch VF mapping — every active VM sits on a VF whose port owns
//     the VM's LID and whose LidMap owner points back at it.
//
// LIDs whose owner currently has no physical attachment (their uplink or
// leaf is down) are legitimately unreachable and skipped; the checker
// verifies the fabric the SM can still serve, not the parts that are gone.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/vswitch.hpp"
#include "sm/subnet_manager.hpp"

namespace ibvs::inject {

struct CheckerConfig {
  /// Stop collecting after this many violations (the report notes the cap).
  std::size_t max_violations = 16;
  /// Reachability sources sampled from the connected CA endpoints (0 = all).
  /// Sampling is deterministic: evenly spaced in NodeId order.
  std::size_t max_sources = 8;
};

struct CheckReport {
  std::size_t lids_checked = 0;
  std::size_t lids_skipped_detached = 0;  ///< owner physically unreachable
  std::size_t sources_sampled = 0;
  std::size_t paths_traced = 0;
  std::vector<std::string> violations;
  bool truncated = false;  ///< hit max_violations; more may exist

  [[nodiscard]] bool clean() const noexcept { return violations.empty(); }
};

class FabricChecker {
 public:
  /// Smallest target (LID) range the reachability walk hands one pool
  /// worker; a fabric with fewer than twice this many targets is checked
  /// inline. Measured on 4 workers (medians of interleaved rounds, each
  /// the best of 5 checks): on large-fabric-recovery's 5832-node fabric
  /// (~1620 targets, 8 sources) 384 took 1.5 ms against 2.1 ms on one
  /// thread and 1.6 ms with one range per worker; 128 read 1.2 ms but
  /// would also shard the 324- and 648-node trees. On the full 5832-node
  /// tree (6804 targets, 16 sources) 128 to 768 all took 4.8-5.2 ms, one
  /// range per worker 6.0 ms.
  static constexpr std::size_t kMinTargetsPerShard = 384;

  explicit FabricChecker(const sm::SubnetManager& sm,
                         CheckerConfig config = {});

  /// Runs every invariant. Pass the vSwitch layer to include the VF-mapping
  /// checks (nullptr skips them, e.g. on a purely physical subnet).
  [[nodiscard]] CheckReport check(
      const core::VSwitchFabric* cloud = nullptr) const;

 private:
  void add_violation(CheckReport& report, std::string what) const;
  void check_duplicate_lids(CheckReport& report) const;
  void check_lidmap_consistency(CheckReport& report) const;
  void check_reachability(CheckReport& report) const;
  void check_vswitch_mapping(CheckReport& report,
                             const core::VSwitchFabric& cloud) const;

  const sm::SubnetManager& sm_;
  CheckerConfig config_;
};

}  // namespace ibvs::inject
