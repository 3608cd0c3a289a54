// Chaos harness: randomized faults against a live vSwitch cloud.
//
// Drives a seeded stream of events — link cuts, restores, flaps, switch
// death and revival, interleaved with orchestrated VM migrations — against
// a booted subnet, and after every event runs the SM's recovery loop
// (SubnetManager::reconverge) followed by the full FabricChecker invariant
// suite. The harness measures what the paper's reconfiguration story must
// survive in practice: how many SMPs, resends and simulated microseconds
// the fabric needs to return to a provably consistent state.
//
// Structural events are *safety-filtered*: a cable is only cut (a switch
// only killed) when a BFS from the SM shows every currently-reachable node
// stays reachable without it. That keeps the invariant "zero checker
// violations after every recovery" meaningful — the harness exercises
// redundancy, it does not amputate endpoints and then excuse them.
//
// Everything is deterministic from the seed: event choice, candidate
// enumeration order, the injector's drop/jitter draws, and the simulated
// clock (transport time, never wall-clock). Two runs with the same seed
// produce identical reports, digest included — the property the chaos-smoke
// CI job asserts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/orchestrator.hpp"
#include "inject/checker.hpp"
#include "inject/injector.hpp"

namespace ibvs::inject {

enum class ChaosScenario {
  /// The original harness: a seeded stream of independent fault/migration
  /// events against a quiescent cloud.
  kSteadyState,
  /// Fleet evacuation under fire: a MigrationPlanner drains one hypervisor
  /// batch by batch while the harness kills a safe-to-remove switch
  /// mid-plan; every batch boundary reconverges and checker-verifies, and
  /// the run only counts as complete when the host is empty afterwards.
  kEvacuation,
};

struct ChaosConfig {
  std::uint64_t seed = 1;
  std::size_t steps = 32;

  /// kEvacuation drains the host with the most VMs (ties to the lowest
  /// index) and kills one safety-filtered switch right before a seeded
  /// batch of the plan, reviving it once the plan ran.
  ChaosScenario scenario = ChaosScenario::kSteadyState;

  // Relative event weights (0 disables the kind).
  unsigned weight_link_cut = 3;
  unsigned weight_link_restore = 2;
  unsigned weight_link_flap = 2;
  unsigned weight_switch_kill = 1;
  unsigned weight_switch_revive = 1;
  unsigned weight_migrate = 4;
  // Topology-delta events (default 0: enabling them must not perturb the
  // digests of existing seeds). attach_switch cables a brand-new switch to
  // one or two reachable peers through a journaled TopologyTxn;
  // detach_switch severs a safety-filtered, endpoint-free switch the same
  // way. Crashes inside transactions are not sampled here: the CrashPoint
  // suite (tests/test_crash_points.cpp) tries every one.
  unsigned weight_attach_switch = 0;
  unsigned weight_detach_switch = 0;

  /// Probabilistic MAD plane active for the whole run (drops force the
  /// transport's retry/backoff machinery; jitter perturbs latencies).
  LinkFault mad_faults{};
};

/// One step of the run: the event applied and what recovery cost.
struct ChaosEvent {
  std::string kind;    ///< link_cut, link_restore, link_flap, switch_kill,
                       ///< switch_revive, migrate, attach_switch,
                       ///< detach_switch, or skip:<kind>
  std::string detail;  ///< the affected cable / switch / VM, by name
  std::size_t rounds = 0;       ///< reconvergence rounds
  std::uint64_t smps = 0;       ///< LFT SMPs the recovery sent
  std::uint64_t retries = 0;    ///< MAD resends during recovery
  std::uint64_t timeouts = 0;   ///< response timeouts during recovery
  double time_us = 0.0;         ///< simulated recovery time
  std::size_t violations = 0;   ///< checker violations after recovery
};

struct ChaosReport {
  std::uint64_t seed = 0;
  std::size_t steps = 0;
  std::size_t structural_events = 0;
  std::size_t migrations = 0;
  /// kEvacuation's planned moves by outcome: every one must end committed
  /// or rolled back, never in between.
  std::size_t migration_commits = 0;
  std::size_t migration_rollbacks = 0;
  /// Transactional outcomes from the topology-delta events: every delta
  /// must end committed or rolled back.
  std::size_t topology_commits = 0;
  std::size_t topology_rollbacks = 0;
  std::size_t skipped = 0;  ///< steps whose picked kind had no candidate
  std::size_t reconverge_rounds = 0;
  std::uint64_t reconverge_smps = 0;
  std::uint64_t reconverge_retries = 0;
  std::uint64_t reconverge_timeouts = 0;
  std::uint64_t undeliverable = 0;
  double reconverge_time_us = 0.0;  ///< simulated, deterministic
  std::size_t checker_violations = 0;
  bool all_converged = true;  ///< every recovery hit a zero-send round
  // kEvacuation only (all zero/true-by-default in steady state).
  std::size_t evacuation_hypervisor = 0;
  std::size_t evacuation_moves = 0;    ///< committed planner moves
  std::size_t evacuation_swaps = 0;    ///< ...of which destination swaps
  std::size_t evacuation_batches = 0;  ///< batches executed (replans incl.)
  std::size_t evacuation_replans = 0;
  bool evacuation_complete = true;  ///< the drained host ended empty
  /// FNV-1a over the event stream (kind, detail, smps, violations): two
  /// runs with the same seed must produce the same digest.
  std::uint64_t digest = 0;
  std::vector<ChaosEvent> events;
};

/// Formats the per-event table plus totals (for quickstart --chaos).
[[nodiscard]] std::string to_string(const ChaosReport& report);

/// Runs `config.steps` chaos steps against a booted cloud. The injector's
/// LinkFaultModel is attached to the SM transport for the duration (the
/// previous model is restored on return) and `config.mad_faults` becomes
/// its global fault. The orchestrator supplies migrations; its fabric must
/// be the one the injector mutates.
ChaosReport run_chaos(cloud::CloudOrchestrator& cloud,
                      FaultInjector& injector, const ChaosConfig& config);

/// Convenience: builds the orchestrator and injector, boots the fabric if
/// needed, launches one VM per hypervisor when none are active, and runs
/// with a 2% MAD drop probability.
ChaosReport run_chaos(core::VSwitchFabric& fabric, std::uint64_t seed,
                      std::size_t steps);

}  // namespace ibvs::inject
