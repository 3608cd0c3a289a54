// bench_e2e — the end-to-end benchmark: closed-loop subnet-manager workloads.
//
// One process runs one workload. It builds and boots a subnet (set-up is
// timed as the median of several builds), then drives it with a single
// closed-loop client: the next operation is drawn and issued only after the
// previous one returned, as an orchestrator waiting on every SM reply
// would. Operations are drawn from --seed against live state, and the
// program sees only the public calls this file makes into the src/ modules.
// Those calls are also where every layer is timed (--trace-out): no file
// under src/ knows it is being measured.
//
// Op rates and latencies are taken per short window (a quarter second and
// 100 ops at least) and reported as the better quartile over windows, so a
// burst of cache or CPU contention from outside the process moves the
// windows it hits instead of the whole run. SMP and simulated-time figures, and the
// digest, cover a fixed prefix of each workload's ops that every run
// completes, so at a fixed seed they repeat exactly.
//
//   bench_e2e --workload <name> --seed <n> --seconds <s>
//             [--json-out <file>] [--trace-out <file>]
//   bench_e2e --smoke    every workload at 1/100 of its exact prefix (one
//                        cycle at least), one set-up, every check on
//
// Exit status: 0 when every op and every end-of-run check passed, 1 when
// one failed, 2 on bad arguments.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cloud/orchestrator.hpp"
#include "cloud/planner.hpp"
#include "core/migration_txn.hpp"
#include "core/virtualizer.hpp"
#include "core/vswitch.hpp"
#include "inject/checker.hpp"
#include "inject/injector.hpp"
#include "sm/reconfig_journal.hpp"
#include "sm/subnet_manager.hpp"
#include "sm/topology_txn.hpp"
#include "telemetry/trace.hpp"
#include "topology/fat_tree.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ibvs;

double wall_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process — every pool worker included.
double cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) * 1e-3;
}

/// Peak resident set of this program image (VmHWM). getrusage's ru_maxrss
/// is only the fallback: Linux carries it across exec, so it also counts
/// the resident set the launching process had when it forked.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Linear-interpolated quantile, q in [0, 1]. 0 for an empty sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - std::floor(pos));
}

// ---------------------------------------------------------------------------
// Call tracing: one span around every public call the benchmark makes.
// ---------------------------------------------------------------------------

/// The program calls the benchmark times, grouped by src/ module. kOp is
/// the parent span of one whole operation.
enum class Call : std::uint8_t {
  kComputeRoutes,
  kBoot,
  kRedistribute,
  kBeginMigration,
  kBeginSwap,
  kMoveAddresses,
  kApplyLfts,
  kCommit,
  kCreateVm,
  kDestroyVm,
  kReconcile,
  kRecover,
  kTruncate,
  kTopoBegin,
  kTopoMutate,
  kTopoReroute,
  kTopoCommit,
  kPlan,
  kExecute,
  kCheck,
  kFault,
  kOp,
};

constexpr const char* kCallNames[] = {
    "routing.compute_routes",
    "sm.boot",
    "sm.redistribute",
    "core.begin_migration",
    "core.begin_swap",
    "core.txn_move_addresses",
    "core.txn_apply_lfts",
    "core.txn_commit",
    "core.create_vm",
    "core.destroy_vm",
    "core.reconcile_with_journal",
    "sm.journal.recover",
    "sm.journal.truncate_reconciled",
    "sm.topology.begin",
    "sm.topology.txn_mutate",
    "sm.topology.txn_reroute",
    "sm.topology.txn_commit",
    "cloud.plan",
    "cloud.execute",
    "inject.check",
    "inject.fault",
    "op",
};
constexpr std::size_t kNumCalls = static_cast<std::size_t>(Call::kOp);
static_assert(std::size(kCallNames) == kNumCalls + 1);

struct Span {
  std::uint64_t op_id = 0;  ///< 0 = set-up
  const char* op_kind = "";
  Call call = Call::kOp;
  double start_us = 0.0;  ///< since the trace began
  double dur_us = 0.0;
  double cpu_us = 0.0;  ///< process CPU, every thread
};

/// Records spans when enabled; disabled, operator() is a plain call that
/// reads no clock. The benchmark's calls do not nest (sm.boot and
/// cloud.execute aside), so a span's duration is its self time.
class CallTrace {
 public:
  explicit CallTrace(bool enabled) : enabled_(enabled), epoch_us_(wall_us()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  void set_op(std::uint64_t id, const char* kind) noexcept {
    op_id_ = id;
    op_kind_ = kind;
  }

  template <class F>
  decltype(auto) operator()(Call call, F&& f) {
    if (!enabled_) return f();
    const Timed timed(*this, call);
    return f();
  }

  void add(Call call, double start_us, double dur_us, double cpu) {
    spans_.push_back(
        {op_id_, op_kind_, call, start_us - epoch_us_, dur_us, cpu});
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  /// Closes the span when the call returns or throws (an injected master
  /// crash surfaces as an exception and must still be timed).
  class Timed {
   public:
    Timed(CallTrace& trace, Call call)
        : trace_(trace), call_(call), wall0_(wall_us()), cpu0_(cpu_us()) {}
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;
    ~Timed() {
      trace_.add(call_, wall0_, wall_us() - wall0_, cpu_us() - cpu0_);
    }

   private:
    CallTrace& trace_;
    Call call_;
    double wall0_;
    double cpu0_;
  };

  bool enabled_;
  double epoch_us_;
  std::uint64_t op_id_ = 0;
  const char* op_kind_ = "setup";
  std::vector<Span> spans_;
};

/// Running mean of a per-call count.
struct Mean {
  double sum = 0.0;
  std::uint64_t n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  [[nodiscard]] double value() const { return n == 0 ? 0.0 : sum / n; }
};

/// Counts read from the reports the program's calls return.
struct LayerCounts {
  Mean switches_updated, lft_smps, drain_smps;      // per txn_apply_lfts
  Mean redist_rounds, redist_smps, redist_fabric_us;  // per redistribute
  std::vector<double> boot_pct_s, boot_lftdt_us, boot_smps;
  Mean rolled_forward, rolled_back;                 // per journal recover
  std::size_t journal_records_max = 0;
  Mean topo_lft_smps, topo_verify_smps, topo_lids_rerouted;  // per reroute
  Mean plan_moves, plan_swaps, plan_batches;        // per plan
  double executed_smps = 0.0;
  double predicted_smps = 0.0;
  Mean paths_traced;  // per check

  void apply(const core::ReconfigStats& s) {
    switches_updated.add(static_cast<double>(s.switches_updated));
    lft_smps.add(static_cast<double>(s.lft_smps));
    drain_smps.add(static_cast<double>(s.drain_smps));
  }
  void redistribute(const sm::SubnetManager::ReconvergeReport& r) {
    redist_rounds.add(static_cast<double>(r.rounds));
    redist_smps.add(static_cast<double>(r.smps));
    redist_fabric_us.add(r.time_us);
  }
  void recovery(const sm::RecoveryReport& r) {
    rolled_forward.add(static_cast<double>(r.rolled_forward));
    rolled_back.add(static_cast<double>(r.rolled_back));
  }
  void reroute(const sm::TopologyTxnStats& s) {
    topo_lft_smps.add(static_cast<double>(s.lft_smps));
    topo_verify_smps.add(static_cast<double>(s.verify.smps));
    topo_lids_rerouted.add(static_cast<double>(s.lids_rerouted));
  }
};

// ---------------------------------------------------------------------------
// The booted test subnet.
// ---------------------------------------------------------------------------

struct SubnetSpec {
  topology::PaperFatTree tree = topology::PaperFatTree::k648;
  routing::EngineKind engine = routing::EngineKind::kMinHop;
  core::LidScheme scheme = core::LidScheme::kDynamic;
  std::size_t hypervisors = 0;
  std::size_t per_leaf = 1;  ///< hypervisors on each leaf, leaves in order
  std::size_t vfs = 2;
  std::size_t vms_per_hypervisor = 1;
  std::size_t vm_stride = 1;  ///< VMs on every vm_stride-th hypervisor only
};

/// A paper fat-tree with vSwitch hypervisors, booted and populated. Held
/// by pointer: the SM keeps a reference to `fabric`.
struct Subnet {
  Fabric fabric;
  topology::Built built;
  std::unique_ptr<sm::SubnetManager> sm;
  std::unique_ptr<core::VSwitchFabric> vsf;
  std::vector<core::VmHandle> vms;
};

std::unique_ptr<Subnet> build_subnet(const SubnetSpec& spec, CallTrace& trace,
                                     LayerCounts& counts) {
  auto net = std::make_unique<Subnet>();
  net->built = topology::build_paper_fat_tree(net->fabric, spec.tree);
  const std::size_t slots_per_leaf =
      net->built.host_slots.size() / net->built.leaves.size();
  if (spec.per_leaf >= slots_per_leaf ||
      spec.hypervisors > spec.per_leaf * net->built.leaves.size()) {
    throw std::invalid_argument("subnet spec does not fit the tree");
  }
  std::vector<topology::HostSlot> slots;
  for (std::size_t i = 0; i < spec.hypervisors; ++i) {
    const std::size_t leaf = i / spec.per_leaf;
    slots.push_back(
        net->built.host_slots[leaf * slots_per_leaf + i % spec.per_leaf]);
  }
  auto hyps = core::attach_hypervisors(net->fabric, slots, spec.vfs);
  // The SM sits on the first leaf, on the first slot no hypervisor uses.
  const topology::HostSlot& sm_slot = net->built.host_slots[spec.per_leaf];
  const NodeId sm_node = net->fabric.add_ca("sm-node");
  net->fabric.connect(sm_node, 1, sm_slot.leaf, sm_slot.port);
  net->sm = std::make_unique<sm::SubnetManager>(
      net->fabric, sm_node, routing::make_engine(spec.engine));
  net->vsf = std::make_unique<core::VSwitchFabric>(*net->sm, std::move(hyps),
                                                   spec.scheme);

  const std::uint64_t smps_before = net->sm->transport().counters().total;
  const sm::SweepReport boot =
      trace(Call::kBoot, [&] { return net->vsf->boot(); });
  counts.boot_pct_s.push_back(boot.path_computation_seconds);
  counts.boot_lftdt_us.push_back(boot.distribution.time_us);
  counts.boot_smps.push_back(static_cast<double>(
      net->sm->transport().counters().total - smps_before));

  for (std::size_t h = 0; h < spec.hypervisors; h += spec.vm_stride) {
    for (std::size_t k = 0; k < spec.vms_per_hypervisor; ++k) {
      net->vms.push_back(net->vsf->create_vm(h).vm);
    }
  }
  return net;
}

/// Cables from nodes in `from` to nodes in `to`, described from `from`'s
/// side, in (NodeId, port) order.
std::vector<CableSpec> cables_between(const Fabric& fabric,
                                      const std::vector<NodeId>& from,
                                      const std::vector<NodeId>& to) {
  const std::unordered_set<NodeId> targets(to.begin(), to.end());
  std::vector<CableSpec> out;
  for (const NodeId a : from) {
    const Node& node = fabric.node(a);
    for (PortNum p = 1; p <= node.num_ports(); ++p) {
      const Port& port = node.ports[p];
      if (port.connected() && targets.count(port.peer) != 0) {
        out.push_back({a, p, port.peer, port.peer_port});
      }
    }
  }
  return out;
}

bool cabled(const Fabric& fabric, const CableSpec& c) {
  const auto peer = fabric.peer(c.a, c.port_a);
  return peer && peer->first == c.b && peer->second == c.port_b;
}

/// One topology transaction through its public phases. False unless it
/// committed after a converged verification.
template <class Begin>
bool topology_txn(CallTrace& trace, LayerCounts& counts,
                  sm::TopologyTxnManager& topo, Begin&& begin) {
  sm::TopologyTxn txn = trace(Call::kTopoBegin, begin);
  trace(Call::kTopoMutate, [&] { topo.txn_mutate(txn); });
  trace(Call::kTopoReroute, [&] { topo.txn_reroute(txn); });
  counts.reroute(txn.stats);
  trace(Call::kTopoCommit, [&] { topo.txn_commit(txn); });
  return txn.state == sm::TopologyTxnState::kCommitted &&
         txn.stats.verify.converged;
}

void report_violations(const char* where, const inject::CheckReport& report) {
  for (const auto& v : report.violations) {
    std::fprintf(stderr, "bench_e2e: %s: checker violation: %s\n", where,
                 v.c_str());
  }
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;

  /// Draws op `index` from the seeded stream against live state. Drawing
  /// is not timed.
  virtual void draw(std::size_t index) = 0;
  /// The drawn op's kind (digest and span key).
  [[nodiscard]] virtual const char* kind() const = 0;
  /// Issues the drawn op through the program's public calls. False when
  /// the op failed one of its own checks.
  virtual bool run(CallTrace& trace, LayerCounts& counts) = 0;

  /// End-of-run invariants, outside the timed phase: a clean checker pass
  /// and no journal record left in flight.
  bool finish() {
    const inject::CheckReport report =
        inject::FabricChecker(*net_->sm).check(net_->vsf.get());
    report_violations("end of run", report);
    const std::size_t in_flight = net_->vsf->journal().in_flight();
    if (in_flight != 0) {
      std::fprintf(stderr, "bench_e2e: %zu journal records in flight\n",
                   in_flight);
    }
    return report.clean() && in_flight == 0;
  }

  [[nodiscard]] Subnet& net() noexcept { return *net_; }

 protected:
  std::unique_ptr<Subnet> net_;
};

/// vm-churn: the paper's headline path. Prepopulated LIDs (§V-A swap),
/// fat-tree routing, 1152 VMs on 576 hypervisors; every op is one
/// migration or destination swap through the public txn phases.
class VmChurn final : public Workload {
 public:
  VmChurn(std::uint64_t seed, CallTrace& trace, LayerCounts& counts)
      : rng_(seed) {
    net_ = build_subnet({.tree = topology::PaperFatTree::k648,
                         .engine = routing::EngineKind::kFatTree,
                         .scheme = core::LidScheme::kPrepopulated,
                         .hypervisors = 576,
                         .per_leaf = 16,
                         .vfs = 4,
                         .vms_per_hypervisor = 2},
                        trace, counts);
  }

  void draw(std::size_t index) override {
    // Exact proportions in a fixed interleave (periods 5, 2 and 4): one op
    // in 5 is a swap, half run minimal mode, one in 4 drains first. The
    // VMs and destinations come from the seed.
    const core::VSwitchFabric& vsf = *net_->vsf;
    swap_ = index % 5 == 4;
    options_ = {};
    options_.mode = index % 2 == 0 ? core::ReconfigMode::kDeterministic
                                   : core::ReconfigMode::kMinimal;
    options_.drain_first = index % 4 == 0;
    const auto& vms = net_->vms;
    vm_ = vms[rng_.below(vms.size())];
    const std::size_t src = vsf.vm(vm_).hypervisor;
    if (swap_) {
      do {
        peer_ = vms[rng_.below(vms.size())];
      } while (vsf.vm(peer_).hypervisor == src);
      dst_ = vsf.vm(peer_).hypervisor;
    } else {
      const std::size_t hyps = vsf.hypervisors().size();
      do {
        dst_ = rng_.below(hyps);
      } while (dst_ == src || vsf.free_vf_count(dst_) == 0);
    }
  }

  [[nodiscard]] const char* kind() const override {
    return swap_ ? "swap" : "migrate";
  }

  bool run(CallTrace& trace, LayerCounts& counts) override {
    core::VSwitchFabric& vsf = *net_->vsf;
    core::MigrationTxn txn =
        swap_ ? trace(Call::kBeginSwap,
                      [&] { return vsf.begin_swap(vm_, peer_, options_); })
              : trace(Call::kBeginMigration, [&] {
                  return vsf.begin_migration(vm_, dst_, options_);
                });
    trace(Call::kMoveAddresses, [&] { vsf.txn_move_addresses(txn); });
    trace(Call::kApplyLfts, [&] { vsf.txn_apply_lfts(txn); });
    counts.apply(txn.stats);
    trace(Call::kCommit, [&] { vsf.txn_commit(txn); });
    return txn.state == core::TxnState::kCommitted &&
           vsf.vm(vm_).hypervisor == dst_;
  }

 private:
  SplitMix64 rng_;
  bool swap_ = false;
  core::MigrationOptions options_;
  core::VmHandle vm_;
  core::VmHandle peer_;
  std::size_t dst_ = 0;
};

/// fleet-maintenance: planned fleet moves beside structural writes, and no
/// routing run. Min-Hop, dynamic LIDs (§V-B copy), 288 VMs on 72
/// hypervisors; a cycle of 7 ops evacuates and refills a host, packs a
/// tenant, bounces a leaf uplink, and attaches then detaches a spare leaf.
///
/// The VMs start packed, 8 on every other host, so each leaf has a full
/// host and a spare. Evacuate-and-refill leaves the layout as it was and
/// packing a tenant keeps it packed (by swaps), so every evacuation moves
/// 8 VMs. A fleet started at 4 VMs per host packed itself over tens of
/// thousands of ops instead, at a pace set by the seed, and its
/// evacuations grew from 4 VMs to 8 along the way.
class FleetMaintenance final : public Workload {
 public:
  static constexpr std::size_t kVfs = 8;
  static constexpr std::size_t kTenant = 6;
  static constexpr std::size_t kSpareCables = 4;

  FleetMaintenance(std::uint64_t seed, CallTrace& trace, LayerCounts& counts)
      : rng_(seed) {
    net_ = build_subnet({.tree = topology::PaperFatTree::k648,
                         .engine = routing::EngineKind::kMinHop,
                         .scheme = core::LidScheme::kDynamic,
                         .hypervisors = 72,
                         .per_leaf = 2,
                         .vfs = kVfs,
                         .vms_per_hypervisor = kVfs,
                         .vm_stride = 2},
                        trace, counts);
    cloud_ = std::make_unique<cloud::CloudOrchestrator>(
        *net_->vsf, cloud::Placement::kFirstFit);
    planner_ = std::make_unique<cloud::MigrationPlanner>(
        *cloud_, cloud::MigrationPlanner::Options{
                     .mode = core::ReconfigMode::kMinimal});
    executor_ = std::make_unique<cloud::PlanExecutor>(*cloud_);
    policy_.txn.backoff_base_s = 0.0;  // simulated clock only
    topo_ = std::make_unique<sm::TopologyTxnManager>(*net_->sm,
                                                     net_->vsf->journal());
    uplinks_ = cables_between(net_->fabric, net_->built.leaves,
                              net_->built.spines);
    spare_ = net_->fabric.add_switch("spare-leaf", 2 * kSpareCables);
  }

  void draw(std::size_t index) override {
    const core::VSwitchFabric& vsf = *net_->vsf;
    step_ = index % 7;
    switch (step_) {
      case 0: {  // evacuate a host that holds VMs
        std::vector<std::size_t> busy;
        for (std::size_t h = 0; h < vsf.hypervisors().size(); ++h) {
          if (vsf.free_vf_count(h) < kVfs) busy.push_back(h);
        }
        host_ = busy[rng_.below(busy.size())];
        evacuated_.clear();
        for (const std::uint32_t id : sorted_vm_ids()) {
          if (vsf.vm({id}).hypervisor == host_) evacuated_.push_back({id});
        }
        break;
      }
      case 1:  // refill the drained host: destroy the evacuees, recreate
        break;
      case 2: {  // pack a random tenant
        auto ids = sorted_vm_ids();
        tenant_.clear();
        for (std::size_t k = 0; k < kTenant; ++k) {
          const std::size_t j = k + rng_.below(ids.size() - k);
          std::swap(ids[k], ids[j]);
          tenant_.push_back({ids[k]});
        }
        break;
      }
      case 3:  // remove a leaf uplink (re-added at step 4)
        uplink_ = uplinks_[rng_.below(uplinks_.size())];
        break;
      case 4:
        break;
      case 5: {  // cable the spare leaf to free ports of distinct leaves
        std::vector<NodeId> leaves = net_->built.leaves;
        spare_cables_.clear();
        for (std::size_t k = 0; k < kSpareCables; ++k) {
          const std::size_t j = k + rng_.below(leaves.size() - k);
          std::swap(leaves[k], leaves[j]);
          spare_cables_.push_back(
              {spare_, static_cast<PortNum>(k + 1), leaves[k],
               *net_->fabric.free_port(leaves[k])});
        }
        break;
      }
      default:  // 6: detach the spare leaf
        break;
    }
  }

  [[nodiscard]] const char* kind() const override {
    constexpr const char* kKinds[] = {
        "evacuate",      "refill",     "consolidate", "remove_uplink",
        "add_uplink",    "attach_leaf", "detach_leaf"};
    return kKinds[step_];
  }

  bool run(CallTrace& trace, LayerCounts& counts) override {
    core::VSwitchFabric& vsf = *net_->vsf;
    switch (step_) {
      case 0: {
        cloud::FleetGoal goal;
        goal.kind = cloud::FleetGoalKind::kEvacuateHypervisor;
        goal.hypervisor = host_;
        const bool ok = plan_and_execute(trace, counts, goal);
        return ok && vsf.free_vf_count(host_) == kVfs;
      }
      case 1: {
        for (const core::VmHandle vm : evacuated_) {
          trace(Call::kDestroyVm, [&] { vsf.destroy_vm(vm); });
        }
        for (std::size_t k = 0; k < evacuated_.size(); ++k) {
          trace(Call::kCreateVm, [&] { return vsf.create_vm(host_); });
        }
        return vsf.free_vf_count(host_) == kVfs - evacuated_.size();
      }
      case 2:
        return plan_and_execute(
            trace, counts,
            {.kind = cloud::FleetGoalKind::kConsolidateVms, .vms = tenant_});
      case 3:
        return topology_txn(trace, counts, *topo_, [&] {
          return topo_->begin_remove_link(uplink_.a, uplink_.port_a);
        });
      case 4:
        return topology_txn(trace, counts, *topo_,
                            [&] { return topo_->begin_add_link(uplink_); });
      case 5:
        return topology_txn(trace, counts, *topo_, [&] {
          return topo_->begin_attach_switch(spare_, spare_cables_);
        });
      default:
        return topology_txn(trace, counts, *topo_, [&] {
          return topo_->begin_detach_switch(spare_);
        });
    }
  }

 private:
  [[nodiscard]] std::vector<std::uint32_t> sorted_vm_ids() const {
    auto ids = net_->vsf->active_vm_ids();
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  bool plan_and_execute(CallTrace& trace, LayerCounts& counts,
                        const cloud::FleetGoal& goal) {
    const cloud::MigrationPlan plan =
        trace(Call::kPlan, [&] { return planner_->plan(goal); });
    const core::MigrationOptions options{.mode = core::ReconfigMode::kMinimal};
    const cloud::FleetExecution exec = trace(Call::kExecute, [&] {
      return executor_->execute(*planner_, plan, options, policy_);
    });
    counts.plan_moves.add(static_cast<double>(plan.total_moves()));
    counts.plan_swaps.add(static_cast<double>(plan.swap_moves()));
    counts.plan_batches.add(static_cast<double>(plan.batches.size()));
    counts.executed_smps += static_cast<double>(exec.smps);
    counts.predicted_smps += static_cast<double>(plan.predicted_smps());
    return exec.committed == plan.total_moves() && exec.rolled_back == 0 &&
           exec.failed == 0 && exec.skipped == 0;
  }

  SplitMix64 rng_;
  std::unique_ptr<cloud::CloudOrchestrator> cloud_;
  std::unique_ptr<cloud::MigrationPlanner> planner_;
  std::unique_ptr<cloud::PlanExecutor> executor_;
  cloud::ExecutorPolicy policy_;
  std::unique_ptr<sm::TopologyTxnManager> topo_;
  std::vector<CableSpec> uplinks_;
  NodeId spare_ = kInvalidNode;
  // The drawn op.
  std::size_t step_ = 0;
  std::size_t host_ = 0;
  std::vector<core::VmHandle> evacuated_;
  std::vector<core::VmHandle> tenant_;
  CableSpec uplink_;
  std::vector<CableSpec> spare_cables_;
};

/// Fault-recovery workloads: structural faults recovered the way
/// SubnetManager::reconverge() does (compute_routes + redistribute), plus
/// master crashes mid-transaction recovered through the journal. Every op
/// ends with a FabricChecker pass, which counts in its latency.
class Recovery final : public Workload {
 public:
  enum class Fault : std::uint8_t {
    kCut,
    kFlap,
    kRestore,
    kKill,
    kRevive,
    kCrashMigration,
    kCrashRemoveLink,
  };
  enum class Tier : std::uint8_t { kLeafSpine, kSpineCore };
  struct Step {
    Fault fault = Fault::kCut;
    Tier tier = Tier::kLeafSpine;  ///< cable tier for cut / flap
  };
  struct Config {
    SubnetSpec subnet;
    double mad_drop = 0.0;  ///< per-link MAD loss probability
    std::vector<Step> cycle;
  };

  static constexpr std::size_t kMaxCut = 2;
  static constexpr std::size_t kSpineGroups = 18;

  Recovery(const Config& config, std::uint64_t seed, CallTrace& trace,
           LayerCounts& counts)
      : cycle_(config.cycle), rng_(seed) {
    net_ = build_subnet(config.subnet, trace, counts);
    fabric::SmpTransport& transport = net_->sm->transport();
    injector_ = std::make_unique<inject::FaultInjector>(net_->fabric,
                                                        seed ^ 0x5eedULL);
    injector_->attach_transport(&transport);
    if (config.mad_drop > 0.0) {
      injector_->set_global_fault({.drop_probability = config.mad_drop});
      transport.set_fault_model(injector_.get());
    }
    topo_ = std::make_unique<sm::TopologyTxnManager>(*net_->sm,
                                                     net_->vsf->journal());
    checker_ = std::make_unique<inject::FabricChecker>(*net_->sm);
    const topology::Built& b = net_->built;
    tiers_[0] = cables_between(net_->fabric, b.leaves, b.spines);
    tiers_[1] = cables_between(net_->fabric, b.spines, b.cores);
    if (b.spines.size() % kSpineGroups != 0) {
      throw std::invalid_argument("spines do not split into equal groups");
    }
  }

  void draw(std::size_t index) override {
    step_ = cycle_[index % cycle_.size()];
    // Keep at most kMaxCut cables and one spine down: a step the state
    // does not allow becomes its counterpart.
    Fault& f = step_.fault;
    if ((f == Fault::kCut || f == Fault::kCrashRemoveLink) &&
        cut_count() >= kMaxCut) {
      f = Fault::kRestore;
    }
    if (f == Fault::kRestore && restorable().empty()) {
      f = Fault::kFlap;
      step_.tier = Tier::kLeafSpine;
    }
    if (f == Fault::kKill && dead_ != kInvalidNode) f = Fault::kRevive;
    if (f == Fault::kRevive && dead_ == kInvalidNode) f = Fault::kKill;

    switch (f) {
      case Fault::kCut:
      case Fault::kFlap:
        cable_ = pick_cable(step_.tier);
        break;
      case Fault::kCrashRemoveLink:
        cable_ = pick_cable(Tier::kLeafSpine);
        abort_after_ = 1 + rng_.below(4);
        break;
      case Fault::kRestore: {
        const auto candidates = restorable();
        const std::size_t k = rng_.below(candidates.size());
        cable_ = candidates[k].first;
        restore_removed_ = candidates[k].second;
        break;
      }
      case Fault::kKill:
        node_ = next_spine();
        break;
      case Fault::kRevive:
        node_ = dead_;
        break;
      case Fault::kCrashMigration:
        draw_migration();
        abort_after_ = 1 + rng_.below(4);
        break;
    }
  }

  [[nodiscard]] const char* kind() const override {
    constexpr const char* kKinds[] = {"cut",    "flap",
                                      "restore", "kill",
                                      "revive", "crash_migration",
                                      "crash_remove_link"};
    return kKinds[static_cast<std::size_t>(step_.fault)];
  }

  bool run(CallTrace& trace, LayerCounts& counts) override {
    inject::FaultInjector& inj = *injector_;
    bool ok = false;
    switch (step_.fault) {
      case Fault::kCut:
        ok = trace(Call::kFault,
                   [&] { return inj.cut_link(cable_.a, cable_.port_a); });
        break;
      case Fault::kFlap:
        ok = trace(Call::kFault,
                   [&] { return inj.flap_link(cable_.a, cable_.port_a); });
        break;
      case Fault::kRestore:
        if (restore_removed_) {
          ok = topology_txn(trace, counts, *topo_,
                            [&] { return topo_->begin_add_link(cable_); });
          std::erase_if(removed_, [&](const CableSpec& c) {
            return c.a == cable_.a && c.port_a == cable_.port_a;
          });
        } else {
          ok = trace(Call::kFault, [&] {
            return inj.restore_link(cable_.a, cable_.port_a);
          });
        }
        break;
      case Fault::kKill:
        ok = trace(Call::kFault, [&] { return inj.kill_node(node_) > 0; });
        dead_ = node_;
        break;
      case Fault::kRevive:
        ok = trace(Call::kFault, [&] { return inj.revive_node(node_) > 0; });
        dead_ = kInvalidNode;
        break;
      case Fault::kCrashMigration:
        return crash_migration(trace, counts) && check(trace, counts);
      case Fault::kCrashRemoveLink:
        return crash_remove_link(trace, counts) && check(trace, counts);
    }
    // The two calls SubnetManager::reconverge() makes.
    trace(Call::kComputeRoutes, [&] { net_->sm->compute_routes(); });
    const auto redist =
        trace(Call::kRedistribute, [&] { return net_->sm->redistribute(); });
    counts.redistribute(redist);
    return ok && redist.converged && check(trace, counts);
  }

 private:
  [[nodiscard]] bool dead(NodeId id) const { return injector_->is_dead(id); }

  /// Cables currently out: severed by the injector (dead switches aside)
  /// or left out by a crashed remove_link.
  [[nodiscard]] std::size_t cut_count() const {
    std::size_t n = removed_.size();
    for (const auto& c : injector_->severed()) {
      if (!dead(c.a) && !dead(c.b)) ++n;
    }
    return n;
  }

  /// Cables a restore may re-plug; `second` marks a crashed remove_link's
  /// cable, which goes back through an add_link transaction.
  [[nodiscard]] std::vector<std::pair<CableSpec, bool>> restorable() const {
    std::vector<std::pair<CableSpec, bool>> out;
    for (const auto& c : injector_->severed()) {
      if (!dead(c.a) && !dead(c.b)) {
        out.push_back({{c.a, c.a_port, c.b, c.b_port}, false});
      }
    }
    for (const CableSpec& c : removed_) {
      if (!dead(c.a) && !dead(c.b)) out.push_back({c, true});
    }
    return out;
  }

  /// The spine to kill. The spines split into kSpineGroups contiguous
  /// groups: the pods of a three-level tree, single spines of a two-level
  /// one. The groups are dealt from a deck reshuffled after each pass, so
  /// each comes up once every kSpineGroups kills; the spine within a group
  /// is drawn at random. A kill's SMP count depends mostly on its group (at
  /// 5832 nodes it falls from about 16,000 in the first pod to 8,500 in the
  /// last), and independent draws made smps_per_op depend on the seed.
  NodeId next_spine() {
    if (spine_deck_.empty()) {
      for (std::size_t g = 0; g < kSpineGroups; ++g) spine_deck_.push_back(g);
      for (std::size_t k = kSpineGroups - 1; k > 0; --k) {
        std::swap(spine_deck_[k], spine_deck_[rng_.below(k + 1)]);
      }
    }
    const std::size_t group = spine_deck_.back();
    spine_deck_.pop_back();
    const auto& spines = net_->built.spines;
    const std::size_t size = spines.size() / kSpineGroups;
    return spines[group * size + rng_.below(size)];
  }

  /// A cabled, live cable of `tier`, drawn uniformly.
  CableSpec pick_cable(Tier tier) {
    const auto& pool = tiers_[static_cast<std::size_t>(tier)];
    for (;;) {
      const CableSpec& c = pool[rng_.below(pool.size())];
      if (cabled(net_->fabric, c) && !dead(c.a) && !dead(c.b)) return c;
    }
  }

  void draw_migration() {
    const core::VSwitchFabric& vsf = *net_->vsf;
    auto ids = vsf.active_vm_ids();
    std::sort(ids.begin(), ids.end());
    vm_ = {ids[rng_.below(ids.size())]};
    const std::size_t src = vsf.vm(vm_).hypervisor;
    const auto& hyps = vsf.hypervisors();
    fabric::SmpTransport& transport = net_->sm->transport();
    for (;;) {
      dst_ = rng_.below(hyps.size());
      if (dst_ == src || vsf.free_vf_count(dst_) == 0) continue;
      const NodeId pf = hyps[dst_].pf;
      if (net_->fabric.physical_attachment(pf) && transport.hops_to(pf)) {
        return;
      }
    }
  }

  /// The master dies `abort_after_` SMPs into the LFT batch; the journal
  /// rolls the record forward or back and the vSwitch layer reconciles.
  bool crash_migration(CallTrace& trace, LayerCounts& counts) {
    core::VSwitchFabric& vsf = *net_->vsf;
    core::MigrationTxn txn = trace(
        Call::kBeginMigration, [&] { return vsf.begin_migration(vm_, dst_); });
    trace(Call::kMoveAddresses, [&] { vsf.txn_move_addresses(txn); });
    bool interrupted = false;
    try {
      trace(Call::kApplyLfts, [&] {
        vsf.txn_apply_lfts(txn, core::VSwitchFabric::ApplyOptions{
                                    .abort_after_smps = abort_after_});
      });
    } catch (const core::MigrationError& e) {
      if (e.code() != core::MigrationErrc::kInterrupted) throw;
      interrupted = true;
    }
    counts.apply(txn.stats);
    if (!interrupted) {  // the batch was shorter than the crash point
      trace(Call::kCommit, [&] { vsf.txn_commit(txn); });
      return txn.state == core::TxnState::kCommitted;
    }
    const bool recovered = recover_journal(trace, counts);
    const auto reconciled = trace(
        Call::kReconcile, [&] { return vsf.reconcile_with_journal(); });
    return recovered && reconciled.committed + reconciled.rolled_back == 1;
  }

  /// The master dies `abort_after_` SMPs into a remove_link re-route; the
  /// journal finishes or undoes the delta.
  bool crash_remove_link(CallTrace& trace, LayerCounts& counts) {
    sm::TopologyTxn txn = trace(Call::kTopoBegin, [&] {
      return topo_->begin_remove_link(cable_.a, cable_.port_a);
    });
    trace(Call::kTopoMutate, [&] { topo_->txn_mutate(txn); });
    bool ok = false;
    try {
      trace(Call::kTopoReroute, [&] {
        topo_->txn_reroute(txn, sm::TopologyApplyOptions{
                                    .abort_after_smps = abort_after_});
      });
      counts.reroute(txn.stats);
      trace(Call::kTopoCommit, [&] { topo_->txn_commit(txn); });
      ok = txn.state == sm::TopologyTxnState::kCommitted;
    } catch (const sm::TopologyError& e) {
      if (e.code() != sm::TopologyErrc::kInterrupted) throw;
      counts.reroute(txn.stats);
      ok = recover_journal(trace, counts);
    }
    if (!cabled(net_->fabric, cable_)) removed_.push_back(cable_);
    return ok;
  }

  /// ReconfigJournal::recover over exactly one in-flight record.
  bool recover_journal(CallTrace& trace, LayerCounts& counts) {
    const sm::RecoveryReport report = trace(Call::kRecover, [&] {
      return net_->vsf->journal().recover(*net_->sm);
    });
    counts.recovery(report);
    return report.rolled_forward + report.rolled_back == 1 &&
           report.redistribution.converged &&
           net_->vsf->journal().in_flight() == 0;
  }

  bool check(CallTrace& trace, LayerCounts& counts) {
    const inject::CheckReport report = trace(
        Call::kCheck, [&] { return checker_->check(net_->vsf.get()); });
    counts.paths_traced.add(static_cast<double>(report.paths_traced));
    report_violations(kind(), report);
    return report.clean();
  }

  std::vector<Step> cycle_;
  SplitMix64 rng_;
  std::unique_ptr<inject::FaultInjector> injector_;
  std::unique_ptr<sm::TopologyTxnManager> topo_;
  std::unique_ptr<inject::FabricChecker> checker_;
  std::vector<CableSpec> tiers_[2];
  std::vector<CableSpec> removed_;  ///< left out by a crashed remove_link
  std::vector<std::size_t> spine_deck_;  ///< groups left to kill this pass
  NodeId dead_ = kInvalidNode;
  // The drawn op.
  Step step_;
  CableSpec cable_;
  bool restore_removed_ = false;
  NodeId node_ = kInvalidNode;
  core::VmHandle vm_;
  std::size_t dst_ = 0;
  std::size_t abort_after_ = 0;
};

Recovery::Config fault_recovery_config() {
  using F = Recovery::Fault;
  // 2 cuts, 2 flaps, 3 restores, a spine kill and revive, and 3 master
  // crashes per 12 ops; the cycle ends with every cable back in.
  return {.subnet = {.tree = topology::PaperFatTree::k648,
                     .engine = routing::EngineKind::kMinHop,
                     .scheme = core::LidScheme::kDynamic,
                     .hypervisors = 36,
                     .per_leaf = 1,
                     .vfs = 2,
                     .vms_per_hypervisor = 1},
          .mad_drop = 0.02,
          .cycle = {{F::kCut},
                    {F::kCrashMigration},
                    {F::kFlap},
                    {F::kCut},
                    {F::kCrashMigration},
                    {F::kRestore},
                    {F::kKill},
                    {F::kCrashRemoveLink},
                    {F::kFlap},
                    {F::kRevive},
                    {F::kRestore},
                    {F::kRestore}}};
}

Recovery::Config large_fabric_recovery_config() {
  using F = Recovery::Fault;
  using T = Recovery::Tier;
  // Min-Hop, not the fat-tree engine: at 5832 nodes the fat-tree engine
  // leaves LIDs unreachable (checker violations) once a pod spine dies.
  return {.subnet = {.tree = topology::PaperFatTree::k5832,
                     .engine = routing::EngineKind::kMinHop,
                     .scheme = core::LidScheme::kDynamic,
                     .hypervisors = 324,
                     .per_leaf = 1,
                     .vfs = 2,
                     .vms_per_hypervisor = 1},
          .mad_drop = 0.0,
          .cycle = {{F::kCut, T::kLeafSpine},
                    {F::kFlap, T::kSpineCore},
                    {F::kCut, T::kSpineCore},
                    {F::kRestore},
                    {F::kKill},
                    {F::kFlap, T::kLeafSpine},
                    {F::kRevive},
                    {F::kRestore}}};
}

// ---------------------------------------------------------------------------
// Running a workload.
// ---------------------------------------------------------------------------

struct WorkloadInfo {
  const char* name;
  /// SMP and simulated-time figures and the digest cover exactly these
  /// first ops, and a timed run never stops before them. Each takes 7 to
  /// 12 s on a 4-core machine, within a 20 s run; the recovery workloads'
  /// prefixes hold a whole number of spine-deck passes.
  std::size_t exact_ops;
  std::size_t block;  ///< the op-kind cycle; a timed run stops at its ends
  /// Set-up builds per run, half a second to a second of them: the small
  /// subnets build in milliseconds, so they take more samples.
  std::size_t setups;
};

constexpr WorkloadInfo kWorkloads[] = {
    {"vm-churn", 60000, 20, 9},
    {"fleet-maintenance", 28000, 7, 100},
    {"fault-recovery", 17280, 12, 300},
    {"large-fabric-recovery", 288, 8, 9},
};

/// A window spans at least kWindowS seconds and kWindowOps ops. Short
/// windows keep a sub-second burst of outside contention to the windows it
/// hits: replayed over the same op logs of eight vm-churn runs, the spread
/// of op_p90_us across runs was 7.0% with 1 s windows and 3.4% with 0.25 s.
constexpr double kWindowS = 0.25;
constexpr std::size_t kWindowOps = 100;

/// Rates, latencies and CPU per op are the better quartile over windows:
/// the lower quartile of latency and CPU, the upper one of op rate. On a
/// host shared with other tenants, contention comes in bursts of one to
/// three seconds that can cover half a run, and it only ever slows a
/// window down; a change to the program moves every window.
constexpr double kQuietQuartile = 0.25;

/// The journal is compacted every this many ops: ReconfigJournal::find is
/// a linear scan and nothing in the library truncates the journal, so an
/// uncompacted run would slow down with its own length.
constexpr std::size_t kCompactEvery = 256;

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed, CallTrace& trace,
                                        LayerCounts& counts) {
  if (name == "vm-churn") {
    return std::make_unique<VmChurn>(seed, trace, counts);
  }
  if (name == "fleet-maintenance") {
    return std::make_unique<FleetMaintenance>(seed, trace, counts);
  }
  if (name == "fault-recovery") {
    return std::make_unique<Recovery>(fault_recovery_config(), seed, trace,
                                      counts);
  }
  return std::make_unique<Recovery>(large_fabric_recovery_config(), seed,
                                    trace, counts);
}

// FNV-1a: two runs of the same code and seed must agree on the digest.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fold(std::uint64_t& h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
}

void fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
}

struct Options {
  const WorkloadInfo* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< measure this long, past the exact prefix...
  std::size_t ops = 0;   ///< ...or, in the smoke test, exactly this many ops
  std::size_t setups = 0;  ///< 0: the workload's own count (smoke: 1)
  std::optional<std::string> json_out;
  std::optional<std::string> trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

struct RunResult {
  std::size_t ops = 0;
  std::size_t failed = 0;
  bool correct = false;
  std::uint64_t digest = 0;
  std::size_t exact_ops = 0;
  double measured_s = 0.0;
  std::size_t windows = 0;
  std::vector<double> setup_s;
  std::vector<Metric> metrics;    ///< end to end
  std::vector<Metric> per_layer;  ///< traced runs only
};

std::vector<Metric> per_layer_metrics(const CallTrace& trace,
                                      const LayerCounts& c,
                                      const SmpCounters& fabric_delta,
                                      std::size_t ops,
                                      double traced_op_p50_us) {
  std::vector<std::vector<double>> dur(kNumCalls);
  std::vector<double> cpu(kNumCalls, 0.0);
  for (const Span& s : trace.spans()) {
    const auto i = static_cast<std::size_t>(s.call);
    if (i >= kNumCalls) continue;
    dur[i].push_back(s.dur_us);
    cpu[i] += s.cpu_us;
  }
  std::vector<Metric> out;
  for (std::size_t i = 0; i < kNumCalls; ++i) {
    const std::string name = kCallNames[i];
    double total = 0.0;
    for (const double d : dur[i]) total += d;
    out.push_back({name + ".calls", static_cast<double>(dur[i].size()),
                   "count"});
    out.push_back({name + ".p50_us", quantile(dur[i], 0.5), "us"});
    out.push_back({name + ".total_ms", total / 1e3, "ms"});
    out.push_back({name + ".cpu_ms", cpu[i] / 1e3, "ms"});
  }
  const double n = ops == 0 ? 1.0 : static_cast<double>(ops);
  const double wire =
      static_cast<double>(fabric_delta.total + fabric_delta.retries);
  const double delivered =
      static_cast<double>(fabric_delta.total - fabric_delta.undeliverable);
  const std::vector<Metric> counts = {
      {"core.switches_updated", c.switches_updated.value(), "count"},
      {"core.lft_smps", c.lft_smps.value(), "SMP"},
      {"core.drain_smps", c.drain_smps.value(), "SMP"},
      {"sm.redistribute.rounds", c.redist_rounds.value(), "count"},
      {"sm.redistribute.smps", c.redist_smps.value(), "SMP"},
      {"sm.redistribute.fabric_us", c.redist_fabric_us.value(), "us"},
      {"sm.boot.pct_s", quantile(c.boot_pct_s, 0.5), "s"},
      {"sm.boot.lftdt_us", quantile(c.boot_lftdt_us, 0.5), "us"},
      {"sm.boot.smps", quantile(c.boot_smps, 0.5), "SMP"},
      {"sm.journal.rolled_forward", c.rolled_forward.value(), "count"},
      {"sm.journal.rolled_back", c.rolled_back.value(), "count"},
      {"sm.journal.records_max", static_cast<double>(c.journal_records_max),
       "count"},
      {"sm.topology.lft_smps", c.topo_lft_smps.value(), "SMP"},
      {"sm.topology.verify_smps", c.topo_verify_smps.value(), "SMP"},
      {"sm.topology.lids_rerouted", c.topo_lids_rerouted.value(), "count"},
      {"cloud.moves", c.plan_moves.value(), "count"},
      {"cloud.swaps", c.plan_swaps.value(), "count"},
      {"cloud.batches", c.plan_batches.value(), "count"},
      {"cloud.smp_prediction_ratio",
       c.predicted_smps > 0 ? c.executed_smps / c.predicted_smps : 0.0,
       "ratio"},
      {"inject.check.paths_traced", c.paths_traced.value(), "count"},
      {"fabric.smps", static_cast<double>(fabric_delta.total) / n, "SMP/op"},
      {"fabric.retries", static_cast<double>(fabric_delta.retries) / n,
       "count/op"},
      {"fabric.timeouts", static_cast<double>(fabric_delta.timeouts) / n,
       "count/op"},
      {"fabric.undeliverable",
       static_cast<double>(fabric_delta.undeliverable) / n, "count/op"},
      {"fabric.delivery_ratio", wire > 0 ? delivered / wire : 0.0, "ratio"},
      {"trace.op_p50_us", traced_op_p50_us, "us"},
  };
  out.insert(out.end(), counts.begin(), counts.end());
  return out;
}

SmpCounters minus(const SmpCounters& a, const SmpCounters& b) {
  SmpCounters d;
  d.total = a.total - b.total;
  d.retries = a.retries - b.retries;
  d.timeouts = a.timeouts - b.timeouts;
  d.undeliverable = a.undeliverable - b.undeliverable;
  return d;
}

RunResult run(const Options& opt) {
  const WorkloadInfo& info = *opt.workload;
  CallTrace trace(opt.trace_out.has_value());
  LayerCounts counts;
  RunResult result;

  // Set-up, several times: single builds vary too much to time once. Only
  // the last build is kept, and the previous one is freed first.
  std::unique_ptr<Workload> w;
  const std::size_t setups = opt.setups > 0 ? opt.setups : info.setups;
  for (std::size_t k = 0; k < setups; ++k) {
    w.reset();
    const double t0 = wall_us();
    w = make_workload(info.name, opt.seed, trace, counts);
    result.setup_s.push_back((wall_us() - t0) / 1e6);
  }

  sm::SubnetManager& sm = *w->net().sm;
  sm::ReconfigJournal& journal = w->net().vsf->journal();
  fabric::SmpTransport& transport = sm.transport();
  const std::size_t exact = opt.ops > 0 ? opt.ops : info.exact_ops;
  const SmpCounters counters0 = transport.counters();
  const double fabric_us0 = transport.total_time_us();
  SmpCounters exact_delta;
  double exact_fabric_us = 0.0;
  std::uint64_t digest = kFnvOffset;
  std::vector<double> latencies;

  // Rates and latencies come from windows of the measured phase, so a
  // burst of interference from outside the process moves the windows it
  // hits rather than the whole run. A window closes at the first block end
  // once it spans kWindowS seconds and kWindowOps ops (enough for its p90
  // to have ten samples beyond it); a shorter tail is left out of them.
  std::vector<double> win_tput, win_p50, win_p90, win_cpu;
  std::size_t win_first = 0;
  double win_wall = 0.0;
  double win_cpu0 = 0.0;
  const auto close_window = [&](std::size_t end, double now) {
    const double cpu = cpu_us();
    const std::vector<double> slice(
        latencies.begin() + static_cast<std::ptrdiff_t>(win_first),
        latencies.begin() + static_cast<std::ptrdiff_t>(end));
    const auto n = static_cast<double>(slice.size());
    win_tput.push_back(n / ((now - win_wall) / 1e6));
    win_p50.push_back(quantile(slice, 0.5));
    win_p90.push_back(quantile(slice, 0.9));
    win_cpu.push_back((cpu - win_cpu0) / n);
    win_first = end;
    win_wall = now;
    win_cpu0 = cpu;
  };

  // The measured phase: one closed-loop client. It runs for opt.seconds
  // but never stops before the exact prefix is done, so the SMP and
  // simulated-time figures and the digest cover the same ops in every run.
  const double cpu0 = cpu_us();
  const double wall0 = wall_us();
  win_wall = wall0;
  win_cpu0 = cpu0;
  for (std::size_t i = 0;; ++i) {
    if (i == exact) {
      exact_delta = minus(transport.counters(), counters0);
      exact_fabric_us = transport.total_time_us() - fabric_us0;
      if (opt.ops > 0) break;
    }
    if (i > 0 && i % info.block == 0) {
      const double now = wall_us();
      if (i - win_first >= kWindowOps && now - win_wall >= kWindowS * 1e6) {
        close_window(i, now);
      }
      if (i >= exact && now - wall0 >= opt.seconds * 1e6) break;
    }
    w->draw(i);
    const SmpCounters smps_before = transport.counters();
    const double fabric_before = transport.total_time_us();
    trace.set_op(i + 1, w->kind());
    const double c0 = trace.enabled() ? cpu_us() : 0.0;
    const double t0 = wall_us();
    bool ok = false;
    try {
      ok = w->run(trace, counts);
      if ((i + 1) % kCompactEvery == 0) {
        trace(Call::kTruncate, [&] { return journal.truncate_reconciled(); });
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_e2e: op %zu (%s) threw: %s\n", i + 1,
                   w->kind(), e.what());
    }
    const double dt = wall_us() - t0;
    if (trace.enabled()) trace.add(Call::kOp, t0, dt, cpu_us() - c0);
    latencies.push_back(dt);
    if (!ok) {
      ++result.failed;
      std::fprintf(stderr, "bench_e2e: op %zu (%s) failed\n", i + 1,
                   w->kind());
    }
    counts.journal_records_max =
        std::max(counts.journal_records_max,
                 journal.records().size() + journal.topology_records().size());
    if (i < exact) {
      fold(digest, std::string_view(w->kind()));
      fold(digest, transport.counters().total - smps_before.total);
      fold(digest, static_cast<std::uint64_t>(std::llround(
                       (transport.total_time_us() - fabric_before) * 1e3)));
    }
  }
  const double wall_s = (wall_us() - wall0) / 1e6;
  if (win_tput.empty()) close_window(latencies.size(), wall_us());

  const bool clean = w->finish();

  const auto n_exact = static_cast<double>(exact);
  result.ops = latencies.size();
  result.digest = digest;
  result.exact_ops = exact;
  result.measured_s = wall_s;
  result.windows = win_tput.size();
  result.correct = clean && result.failed == 0;
  const double op_p50_us = quantile(win_p50, kQuietQuartile);
  result.metrics = {
      {"setup_s", quantile(result.setup_s, 0.5), "s"},
      {"ops_per_s", quantile(win_tput, 1.0 - kQuietQuartile), "op/s"},
      {"op_p50_us", op_p50_us, "us"},
      {"op_p90_us", quantile(win_p90, kQuietQuartile), "us"},
      {"cpu_us_per_op", quantile(win_cpu, kQuietQuartile), "us/op"},
      {"smps_per_op", static_cast<double>(exact_delta.total) / n_exact,
       "SMP/op"},
      {"fabric_us_per_op", exact_fabric_us / n_exact, "sim_us/op"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  if (trace.enabled()) {
    result.per_layer =
        per_layer_metrics(trace, counts, exact_delta, exact, op_p50_us);
  }

  if (opt.trace_out) {
    std::ofstream out(*opt.trace_out);
    out << std::fixed << std::setprecision(3);
    for (const Span& s : trace.spans()) {
      out << "{\"op_id\":" << s.op_id << ",\"op_kind\":\"" << s.op_kind
          << "\",\"call\":\"" << kCallNames[static_cast<std::size_t>(s.call)]
          << "\",\"start_us\":" << s.start_us << ",\"dur_us\":" << s.dur_us
          << ",\"cpu_us\":" << s.cpu_us << "}\n";
    }
    if (!out) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                   opt.trace_out->c_str());
      result.correct = false;
    }
  }
  return result;
}

void write_metrics(std::ostream& os, const std::vector<Metric>& metrics) {
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ",") << "\n    \"" << metrics[i].name
       << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "\n  }";
}

std::string to_json(const Options& opt, const RunResult& r) {
  std::ostringstream os;
  os.precision(17);
  char digest[32];
  std::snprintf(digest, sizeof(digest), "0x%016llx",
                static_cast<unsigned long long>(r.digest));
  os << "{\n  \"workload\": \"" << opt.workload->name << "\",\n"
     << "  \"seed\": " << opt.seed << ",\n"
     << "  \"traced\": " << (opt.trace_out ? "true" : "false") << ",\n"
     << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ",\n"
     << "  \"pool_threads\": " << ThreadPool::global_thread_count() << ",\n"
     << "  \"ops\": " << r.ops << ",\n"
     << "  \"failed_ops\": " << r.failed << ",\n"
     << "  \"failed_op_frac\": "
     << (r.ops == 0 ? 1.0 : static_cast<double>(r.failed) / r.ops) << ",\n"
     << "  \"correct\": " << (r.correct ? "true" : "false") << ",\n"
     << "  \"digest\": \"" << digest << "\",\n"
     << "  \"exact_ops\": " << r.exact_ops << ",\n"
     << "  \"measured_s\": " << r.measured_s << ",\n"
     << "  \"windows\": " << r.windows << ",\n"
     << "  \"setup_samples_s\": [";
  for (std::size_t i = 0; i < r.setup_s.size(); ++i) {
    os << (i == 0 ? "" : ", ") << r.setup_s[i];
  }
  os << "],\n  \"metrics\": ";
  write_metrics(os, r.metrics);
  if (!r.per_layer.empty()) {
    os << ",\n  \"per_layer\": ";
    write_metrics(os, r.per_layer);
  }
  os << "\n}\n";
  return os.str();
}

void print_rows(const Options& opt, const RunResult& r) {
  const char* name = opt.workload->name;
  for (const auto* list : {&r.metrics, &r.per_layer}) {
    for (const Metric& m : *list) {
      std::printf("%s %s %.6g %s\n", name, m.name.c_str(), m.value, m.unit);
    }
  }
  std::printf("%s ops %zu count\n%s failed_ops %zu count\n%s digest 0x%016llx "
              "first_%zu_ops\n%s pool_threads %zu count\n",
              name, r.ops, name, r.failed, name,
              static_cast<unsigned long long>(r.digest), r.exact_ops, name,
              ThreadPool::global_thread_count());
}

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload <name> --seed <n> "
               "--seconds <s> [--json-out <file>] [--trace-out <file>]\n"
               "       bench_e2e --smoke\n",
               message.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    usage_error(flag + " wants a non-negative integer, got '" + text + "'");
  }
  return v;
}

int smoke() {
  int status = 0;
  for (const WorkloadInfo& info : kWorkloads) {
    Options opt;
    opt.workload = &info;
    opt.ops = std::max(info.exact_ops / 100, info.block);
    opt.setups = 1;
    const RunResult r = run(opt);
    std::printf("smoke %s ops=%zu failed=%zu digest=0x%016llx %s\n",
                info.name, r.ops, r.failed,
                static_cast<unsigned long long>(r.digest),
                r.correct ? "ok" : "FAILED");
    if (!r.correct) status = 1;
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  // The library tracer keeps every finished span with no bound; the
  // benchmark times calls itself, so the tracer stays off in every run.
  telemetry::Tracer::global().set_enabled(false);

  Options opt;
  bool smoke_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      smoke_mode = true;
      continue;
    }
    if (i + 1 >= argc) usage_error(flag + " requires a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      for (const WorkloadInfo& info : kWorkloads) {
        if (info.name == std::string_view(value)) opt.workload = &info;
      }
      if (opt.workload == nullptr) {
        usage_error(std::string("unknown workload '") + value + "'");
      }
    } else if (flag == "--seed") {
      opt.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      char* end = nullptr;
      opt.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(opt.seconds > 0.0)) {
        usage_error("--seconds wants a positive number");
      }
    } else if (flag == "--json-out") {
      opt.json_out = value;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  if (smoke_mode) return smoke();
  if (opt.workload == nullptr) usage_error("--workload is required");
  if (!(opt.seconds > 0.0)) usage_error("--seconds is required");

  const RunResult r = run(opt);
  print_rows(opt, r);
  if (opt.json_out) {
    std::ofstream out(*opt.json_out);
    out << to_json(opt, r);
    if (!out) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                   opt.json_out->c_str());
      return 1;
    }
  }
  return r.correct ? 0 : 1;
}
