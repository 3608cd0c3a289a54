#include "inject/checker.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "fabric/trace.hpp"
#include "util/expect.hpp"
#include "util/thread_pool.hpp"

namespace ibvs::inject {

namespace {

std::string port_name(const Fabric& fabric, NodeId node, PortNum port) {
  return fabric.node(node).name + ":" + std::to_string(port);
}

/// Does any port of CA `node` own `lid` (including LMC aliases)? Mirrors
/// the delivery test of fabric::trace_unicast.
bool ca_owns_lid(const Node& node, Lid lid) {
  for (PortNum p = 1; p <= node.num_ports(); ++p) {
    if (node.ports[p].owns(lid)) return true;
  }
  return false;
}

/// Terminal state of one (source, target) walk. The values double as the
/// TraceStatus a hop-by-hop trace of the same pair would have reported.
enum class WalkStatus : std::uint8_t {
  kInFlight = 0,  ///< still walking (not a terminal)
  kDelivered,
  kDropped,
  kNoRoute,
  kWrongDelivery,
  kLoop,
};

fabric::TraceStatus to_trace_status(WalkStatus s) {
  switch (s) {
    case WalkStatus::kDelivered:
      return fabric::TraceStatus::kDelivered;
    case WalkStatus::kDropped:
      return fabric::TraceStatus::kDropped;
    case WalkStatus::kNoRoute:
      return fabric::TraceStatus::kNoRoute;
    case WalkStatus::kWrongDelivery:
      return fabric::TraceStatus::kWrongDelivery;
    case WalkStatus::kLoop:
      return fabric::TraceStatus::kLoop;
    case WalkStatus::kInFlight:
      break;
  }
  IBVS_ENSURE(false, "in-flight walk has no trace status");
  std::abort();  // unreachable; IBVS_ENSURE(false) throws
}

/// One reachability violation, keyed for the serial index-ordered merge.
struct Finding {
  std::size_t target_index;  ///< global target index (serial scan order)
  std::string what;
};

/// Blocked bitset-reachability over one contiguous target range.
///
/// Instead of tracing every (source, target) pair hop by hop — each trace
/// allocating a path vector and re-walking shared prefixes — the shard
/// advances *all* of its targets one hop per round as a flat uint64_t
/// bitset keyed by (node, ingress port). Rounds are synchronized, so
/// "round r" means "every in-flight packet has entered its r-th node" —
/// exceeding the serial trace's hop budget therefore identifies exactly
/// the pairs a per-pair trace would have flagged as forwarding loops.
///
/// Three layers keep the per-round work off the per-target scalar path:
///
///  * Per-switch *port tables* (O(ports), built on first visit) classify
///    each egress cable once — forwarding hop, dead cable, or CA delivery
///    — so the sparse walk per set bit is one LFT load plus one table
///    load, with no per-target precomputation.
///  * A switch that sees a dense frontier (the source's own leaf sees
///    every target at once) builds a *dense plan*: per-target egress
///    codes plus one bitset mask per egress port, after which the whole
///    frontier moves with AND/OR word ops, 64 targets at a time.
///  * Outcomes are *memoized across sources*. Forwarding at a physical
///    switch ignores the ingress port, so once any source's walk shows
///    that target t entering switch s ends in status X, every later
///    source reaching (s, t) must end in X too. After each source the
///    shard folds its statuses back onto the switches the walk transited
///    (word-ORs into per-switch resolved/outcome bitsets); later sources
///    then resolve whole words at the first shared switch instead of
///    re-walking the subtree. The serial trace's hop budget cannot
///    change a memoized outcome: an acyclic walk revisits no physical
///    switch and re-enters a vSwitch only via its uplink (a CA never
///    forwards), so its arrival count is at most nodes + 2 — exactly the
///    budget — and only true cycles (which never resolve, and fall out
///    of the round loop as kLoop for every source) can exceed it.
///
/// Port tables, dense plans, and memos live for the duration of the
/// shard (the installed tables are constant across one check()).
class ReachabilityShard {
 public:
  ReachabilityShard(const Fabric& fabric, const std::vector<Lid>& targets,
                    std::size_t t0, std::size_t t1)
      : fabric_(fabric),
        targets_(targets),
        t0_(t0),
        count_(t1 - t0),
        words_((count_ + 63) / 64),
        hop_budget_(fabric.size() + 2),
        log_min_(2),
        status_(count_),
        vswitch_(fabric.size(), 0),
        info_index_(fabric.size(), -1),
        plan_index_(fabric.size(), -1),
        memo_index_(fabric.size(), -1),
        slot_(fabric.size(), -1),
        logged_(fabric.size(), 0) {
    for (NodeId id = 0; id < fabric.size(); ++id) {
      vswitch_[id] = fabric.node(id).is_vswitch() ? 1 : 0;
    }
    Lid max_lid;
    for (std::size_t t = 0; t < count_; ++t) {
      if (!max_lid.valid() || targets_[t0_ + t].value() > max_lid.value()) {
        max_lid = targets_[t0_ + t];
      }
    }
    lid2t_.assign(max_lid.valid() ? max_lid.value() + 1 : 0, kNoTarget);
    for (std::size_t t = 0; t < count_; ++t) {
      lid2t_[targets_[t0_ + t].value()] = static_cast<std::uint32_t>(t);
    }
    for (auto& b : cls_src_) b.assign(words_, 0);
  }

  /// Walks every target of the shard from `src` and appends one Finding per
  /// undelivered target, in ascending target order (the inner order of a
  /// serial per-pair scan).
  void run(NodeId src, std::vector<Finding>& out);

 private:
  using Bits = std::vector<std::uint64_t>;

  static constexpr std::uint32_t kNoTarget = 0xFFFFFFFFu;

  /// One frontier cell: the targets currently entering `node` via `in_port`.
  /// [lo, hi) brackets the live words — deep in the walk most cells carry a
  /// handful of topologically adjacent (hence bit-adjacent) targets, so
  /// scans touch one or two words instead of the whole shard width.
  struct Entry {
    NodeId node = kInvalidNode;
    PortNum in_port = 0;
    std::uint32_t lo = 0, hi = 0;  ///< live word range, half-open
    Bits bits;

    void touch(std::size_t w) noexcept {
      lo = std::min(lo, static_cast<std::uint32_t>(w));
      hi = std::max(hi, static_cast<std::uint32_t>(w) + 1);
    }
    void set(std::size_t t) noexcept {
      bits[t / 64] |= std::uint64_t{1} << (t % 64);
      touch(t / 64);
    }
    void or_word(std::size_t w, std::uint64_t v) noexcept {
      bits[w] |= v;
      touch(w);
    }
  };

  /// What one egress port of a physical switch does to any packet routed
  /// out of it. Built once per switch in O(ports) — the sparse walk then
  /// classifies a target with one LFT load and one table load.
  struct PortClass {
    enum Kind : std::uint8_t {
      kForward,  ///< cable to a switch/vSwitch: (node, in) is the next cell
      kNoRoute,  ///< dead cable: a hop-by-hop trace leaves the network here
      kCa,       ///< cable to CA `node`: the walk terminates on arrival
    };
    Kind kind = kNoRoute;
    NodeId node = kInvalidNode;
    PortNum in = 0;
  };

  struct SwitchInfo {
    Lid own;
    PortNum num_ports = 0;
    std::vector<PortClass> port;  ///< indexed 1..num_ports
  };

  /// Dense plan codes: values above any port number are terminals; any
  /// other value is the egress port itself (its PortClass gives the hop).
  static constexpr std::uint8_t kPlanDropped = 0xFF;  // kDropPort/0/out-of-range
  static constexpr std::uint8_t kPlanNoRoute = 0xFE;
  static constexpr std::uint8_t kPlanDelivered = 0xFD;  // the switch's own LID
  static constexpr std::uint8_t kPlanCaDelivered = 0xFC;
  static constexpr std::uint8_t kPlanCaWrong = 0xFB;
  static constexpr std::uint8_t kPlanFirstSpecial = kPlanCaWrong;

  /// Per-target composition of one switch, built on the first dense visit
  /// only (a frontier carrying a large slice of the shard, i.e. the
  /// switches within a hop or two of a source). Sparse-only switches
  /// never pay for it.
  struct DensePlan {
    std::vector<std::uint8_t> code;  ///< per target: egress port or kPlan*
    Bits terminal;                   ///< targets with a kPlan* special code
    std::vector<PortNum> active;     ///< egress ports with a non-empty mask
    std::vector<Bits> mask;          ///< per egress port: targets routed there
  };

  /// Cross-source memo of one physical switch: `resolved` marks targets
  /// whose walk outcome from this switch is known from an earlier source;
  /// the four `bad` masks split the non-delivered ones by status (a
  /// resolved target in none of them was delivered).
  struct Memo {
    Bits resolved;
    std::array<Bits, 4> bad;  ///< kBadStatus order; empty until a bad folds
    bool has_bad = false;     ///< clean fabrics never pay for the bad masks
  };
  static constexpr std::array<WalkStatus, 4> kBadStatus = {
      WalkStatus::kDropped, WalkStatus::kNoRoute, WalkStatus::kWrongDelivery,
      WalkStatus::kLoop};

  static int bad_class(WalkStatus s) noexcept {
    switch (s) {
      case WalkStatus::kDropped:
        return 0;
      case WalkStatus::kNoRoute:
        return 1;
      case WalkStatus::kWrongDelivery:
        return 2;
      case WalkStatus::kLoop:
        return 3;
      default:
        return -1;
    }
  }

  Bits acquire() {
    if (pool_.empty()) return Bits(words_, 0);
    Bits b = std::move(pool_.back());
    pool_.pop_back();
    std::fill(b.begin(), b.end(), 0);
    return b;
  }
  void release(Bits b) { pool_.push_back(std::move(b)); }

  static void set_bit(Bits& b, std::size_t t) noexcept {
    b[t / 64] |= std::uint64_t{1} << (t % 64);
  }
  static void clear_bit(Bits& b, std::size_t t) noexcept {
    b[t / 64] &= ~(std::uint64_t{1} << (t % 64));
  }
  static bool test_bit(const Bits& b, std::size_t t) noexcept {
    return (b[t / 64] >> (t % 64)) & 1;
  }

  template <typename F>
  static void for_each_bit(const Bits& b, F&& f) {
    for (std::size_t w = 0; w < b.size(); ++w) {
      std::uint64_t word = b[w];
      while (word != 0) {
        f(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
        word &= word - 1;
      }
    }
  }

  template <typename F>
  static void for_each_bit(const Entry& e, F&& f) {
    for (std::size_t w = e.lo; w < e.hi; ++w) {
      std::uint64_t word = e.bits[w];
      while (word != 0) {
        f(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
        word &= word - 1;
      }
    }
  }

  static std::size_t popcount(const Bits& b) noexcept {
    std::size_t n = 0;
    for (const std::uint64_t w : b) {
      n += static_cast<std::size_t>(std::popcount(w));
    }
    return n;
  }

  static std::size_t popcount(const Entry& e) noexcept {
    std::size_t n = 0;
    for (std::size_t w = e.lo; w < e.hi; ++w) {
      n += static_cast<std::size_t>(std::popcount(e.bits[w]));
    }
    return n;
  }

  /// Frontier cell for (node, in_port) in the next round, created on first
  /// use; slot_ gives O(1) lookup per node. Physical switches and CAs
  /// forward/terminate independently of the ingress port, so every ingress
  /// merges into one cell per node — a leaf reached through nine spines is
  /// one cell, not nine. Only vSwitches (whose first-match local scan
  /// skips the ingress) need distinct per-ingress cells; two ingresses in
  /// one round is possible only on a walk's first hop there, so the linear
  /// fallback is cold.
  Entry& bucket(NodeId node, PortNum in_port) {
    const std::int32_t cached = slot_[node];
    if (cached >= 0) {
      Entry& e = next_[static_cast<std::size_t>(cached)];
      if (!vswitch_[node] || e.in_port == in_port) return e;
      for (Entry& other : next_) {
        if (other.node == node && other.in_port == in_port) return other;
      }
    }
    next_.push_back(Entry{node, in_port,
                          static_cast<std::uint32_t>(words_), 0, acquire()});
    if (cached < 0) {
      slot_[node] = static_cast<std::int32_t>(next_.size() - 1);
      touched_.push_back(node);
    }
    return next_.back();
  }

  /// Status bytes default to kDelivered for every source, so the common
  /// outcome never touches memory — only undelivered walks store.
  /// Terminal CA arrivals are resolved inline (no frontier entry for the
  /// CA) but round-guarded: a serial trace charges the CA arrival one hop
  /// before testing delivery, so an arrival exactly one past the budget
  /// must still report kLoop.
  void apply_ca(std::size_t t, bool owns) noexcept {
    if (round_ >= hop_budget_) {
      status_[t] = static_cast<std::uint8_t>(WalkStatus::kLoop);
      return;
    }
    if (!owns) {
      status_[t] = static_cast<std::uint8_t>(WalkStatus::kWrongDelivery);
    }
  }

  SwitchInfo& info_for(NodeId node);
  DensePlan& plan_for(NodeId node, const SwitchInfo& info);
  Memo& memo_for(NodeId node);
  std::size_t apply_memo(const Memo& m, Entry& e);
  void hop_through_vswitch(std::size_t t, NodeId vnode, PortNum in);
  void fold_back();
  void process_switch(Entry& e);
  void process_dense(const Entry& e, const SwitchInfo& info);
  void process_vswitch(Entry& e);
  void process_vswitch_dense(Entry& e);
  void process_ca(const Entry& e);

  const Fabric& fabric_;
  const std::vector<Lid>& targets_;
  const std::size_t t0_;          ///< global index of the shard's first target
  const std::size_t count_;       ///< targets in this shard
  const std::size_t words_;       ///< bitset words covering `count_` targets
  const std::size_t hop_budget_;  ///< serial trace budget: fabric.size() + 2
  const std::size_t log_min_;     ///< min live targets to fold into the memo
  std::size_t round_ = 0;         ///< current synchronized round (== hops)

  std::vector<std::uint8_t> status_;   ///< WalkStatus per shard-local target
  std::vector<std::uint8_t> vswitch_;  ///< node -> is_vswitch(), for bucket()
  std::vector<std::uint32_t> lid2t_;   ///< LID value -> shard target index
  std::vector<SwitchInfo> infos_;
  std::vector<DensePlan> plans_;
  std::vector<Memo> memos_;
  std::vector<std::int32_t> info_index_;  ///< node -> infos_ index or -1
  std::vector<std::int32_t> plan_index_;  ///< node -> plans_ index or -1
  std::vector<std::int32_t> memo_index_;  ///< node -> memos_ index or -1
  std::vector<std::int32_t> slot_;        ///< node -> next_ index this round
  std::vector<NodeId> touched_;           ///< slot_ entries to reset
  std::vector<Entry> frontier_, next_;
  std::vector<Bits> pool_;  ///< recycled bitset buffers

  // Per-source fold-back scratch: the switches this source's walk
  // transited (first visit only, in_port unused) and the source's
  // statuses split by bad class.
  std::vector<Entry> log_;
  std::vector<std::uint8_t> logged_;  ///< node -> already in log_ this source
  std::array<Bits, 4> cls_src_;
  bool any_bad_ = false;
};

ReachabilityShard::SwitchInfo& ReachabilityShard::info_for(NodeId node) {
  std::int32_t idx = info_index_[node];
  if (idx >= 0) return infos_[static_cast<std::size_t>(idx)];
  info_index_[node] = static_cast<std::int32_t>(infos_.size());
  infos_.emplace_back();
  SwitchInfo& info = infos_.back();
  const Node& n = fabric_.node(node);
  info.own = n.lid();
  info.num_ports = n.num_ports();
  IBVS_ENSURE(info.num_ports < kPlanFirstSpecial,
              "switch port count collides with dense plan codes");
  info.port.resize(static_cast<std::size_t>(info.num_ports) + 1);
  for (PortNum p = 1; p <= info.num_ports; ++p) {
    const Port& port = n.ports[p];
    PortClass& pc = info.port[p];
    if (!port.connected()) {
      pc.kind = PortClass::kNoRoute;
      continue;
    }
    pc.node = port.peer;
    pc.in = port.peer_port;
    pc.kind =
        fabric_.node(port.peer).is_ca() ? PortClass::kCa : PortClass::kForward;
  }
  return info;
}

ReachabilityShard::DensePlan& ReachabilityShard::plan_for(
    NodeId node, const SwitchInfo& info) {
  std::int32_t idx = plan_index_[node];
  if (idx >= 0) return plans_[static_cast<std::size_t>(idx)];
  plan_index_[node] = static_cast<std::int32_t>(plans_.size());
  plans_.emplace_back();
  DensePlan& plan = plans_.back();
  plan.code.resize(count_);
  plan.terminal.assign(words_, 0);
  plan.mask.resize(static_cast<std::size_t>(info.num_ports) + 1);
  const Node& n = fabric_.node(node);
  for (std::size_t t = 0; t < count_; ++t) {
    const Lid lid = targets_[t0_ + t];
    if (info.own == lid) {
      plan.code[t] = kPlanDelivered;
      set_bit(plan.terminal, t);
      continue;
    }
    const PortNum out = n.lft.get(lid);
    if (out == 0 || out > info.num_ports) {  // covers kDropPort
      plan.code[t] = kPlanDropped;
      set_bit(plan.terminal, t);
      continue;
    }
    const PortClass& pc = info.port[out];
    if (pc.kind == PortClass::kForward) {
      plan.code[t] = out;
      Bits& mask = plan.mask[out];
      if (mask.empty()) {
        mask.assign(words_, 0);
        plan.active.push_back(out);
      }
      set_bit(mask, t);
      continue;
    }
    if (pc.kind == PortClass::kNoRoute) {
      plan.code[t] = kPlanNoRoute;
    } else {
      plan.code[t] = ca_owns_lid(fabric_.node(pc.node), lid) ? kPlanCaDelivered
                                                             : kPlanCaWrong;
    }
    set_bit(plan.terminal, t);
  }
  return plan;
}

ReachabilityShard::Memo& ReachabilityShard::memo_for(NodeId node) {
  std::int32_t idx = memo_index_[node];
  if (idx >= 0) return memos_[static_cast<std::size_t>(idx)];
  memo_index_[node] = static_cast<std::int32_t>(memos_.size());
  memos_.emplace_back();
  Memo& m = memos_.back();
  m.resolved = acquire();
  return m;
}

/// Strips memoized targets out of an arriving frontier cell, storing their
/// known outcomes, and returns how many targets remain live. Delivered
/// targets (the overwhelming majority) cost one AND-NOT per word and no
/// stores.
std::size_t ReachabilityShard::apply_memo(const Memo& m, Entry& e) {
  std::size_t live = 0;
  for (std::size_t w = e.lo; w < e.hi; ++w) {
    const std::uint64_t hit = e.bits[w] & m.resolved[w];
    if (hit == 0) {
      live += static_cast<std::size_t>(std::popcount(e.bits[w]));
      continue;
    }
    e.bits[w] &= ~m.resolved[w];
    live += static_cast<std::size_t>(std::popcount(e.bits[w]));
    if (!m.has_bad) continue;  // every memoized outcome here was delivered
    std::uint64_t bad =
        hit & (m.bad[0][w] | m.bad[1][w] | m.bad[2][w] | m.bad[3][w]);
    while (bad != 0) {
      const std::size_t t =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bad));
      const std::uint64_t bit = bad & (~bad + 1);
      for (std::size_t c = 0; c < m.bad.size(); ++c) {
        if ((m.bad[c][w] & bit) != 0) {
          status_[t] = static_cast<std::uint8_t>(kBadStatus[c]);
          break;
        }
      }
      bad &= bad - 1;
    }
  }
  return live;
}

/// After one source finishes, every (switch, target) its walk transited is
/// an established outcome: forwarding past a physical switch does not
/// depend on how the packet got there, so `status_[t]` is the verdict for
/// *any* future walk entering that switch with target t. Word-OR the
/// source's statuses into the transit switches' memos.
void ReachabilityShard::fold_back() {
  if (!log_.empty()) {
    for (auto& b : cls_src_) std::fill(b.begin(), b.end(), 0);
    any_bad_ = false;
    for (std::size_t t = 0; t < count_; ++t) {
      const int c = bad_class(static_cast<WalkStatus>(status_[t]));
      if (c >= 0) {
        set_bit(cls_src_[static_cast<std::size_t>(c)], t);
        any_bad_ = true;
      }
    }
  }
  for (Entry& e : log_) {
    Memo& m = memo_for(e.node);
    if (any_bad_ && !m.has_bad) {
      for (auto& b : m.bad) b.assign(words_, 0);
      m.has_bad = true;
    }
    for (std::size_t w = e.lo; w < e.hi; ++w) {
      const std::uint64_t fresh = e.bits[w] & ~m.resolved[w];
      if (fresh == 0) continue;
      m.resolved[w] |= fresh;
      if (m.has_bad) {
        for (std::size_t c = 0; c < m.bad.size(); ++c) {
          m.bad[c][w] |= fresh & cls_src_[c][w];
        }
      }
    }
    logged_[e.node] = 0;
    release(std::move(e.bits));
  }
  log_.clear();
}

/// A vSwitch transits inline, in the same round its ingress switch fired:
/// functional forwarding cannot dwell inside the vSwitch, and statuses are
/// round-independent short of a true cycle (which both schemes report as
/// kLoop), so collapsing the hop preserves the serial statuses while
/// skipping a one-bit frontier cell per down-path target — the dominant
/// cell count of a naive pass.
void ReachabilityShard::hop_through_vswitch(std::size_t t, NodeId vnode,
                                            PortNum in) {
  const Node& n = fabric_.node(vnode);
  const Lid lid = targets_[t0_ + t];
  PortNum out = 0;
  for (PortNum p = 1; p <= n.num_ports() && out == 0; ++p) {
    const Port& port = n.ports[p];
    if (p == in || !port.connected()) continue;
    const Node& peer = fabric_.node(port.peer);
    if (peer.is_ca() && ca_owns_lid(peer, lid)) out = p;
  }
  if (out == 0) {
    const auto uplink = fabric_.vswitch_uplink(vnode);
    if (!uplink || *uplink == in) {
      // Arrived from the uplink and nobody local owns the LID.
      status_[t] = static_cast<std::uint8_t>(WalkStatus::kDropped);
      return;
    }
    out = *uplink;
  }
  const auto hop = fabric_.peer(vnode, out);
  if (!hop) {
    status_[t] = static_cast<std::uint8_t>(WalkStatus::kNoRoute);
    return;
  }
  const Node& peer = fabric_.node(hop->first);
  if (peer.is_ca()) {
    apply_ca(t, ca_owns_lid(peer, lid));
    return;
  }
  bucket(hop->first, hop->second).set(t);
}

void ReachabilityShard::process_switch(Entry& e) {
  const std::int32_t mi = memo_index_[e.node];
  const std::size_t live =
      mi >= 0 ? apply_memo(memos_[static_cast<std::size_t>(mi)], e)
              : popcount(e);
  if (live == 0) return;
  const SwitchInfo& info = info_for(e.node);
  if (live >= log_min_ && logged_[e.node] == 0) {
    logged_[e.node] = 1;
    Entry copy{e.node, 0, e.lo, e.hi, acquire()};
    std::copy(e.bits.begin() + e.lo, e.bits.begin() + e.hi,
              copy.bits.begin() + e.lo);
    log_.push_back(std::move(copy));
  }
  // Dense composition pays once the frontier carries a real slice of the
  // shard (the switches within a hop or two of a source); thin down-path
  // frontiers walk set bits through the port table instead.
  if (live * 4 > count_) {
    process_dense(e, info);
    return;
  }
  const Node& n = fabric_.node(e.node);
  for_each_bit(e, [&](std::size_t t) {
    const Lid lid = targets_[t0_ + t];
    if (info.own == lid) return;  // delivered at the switch's own LID
    const PortNum out = n.lft.get(lid);
    if (out == 0 || out > info.num_ports) {
      status_[t] = static_cast<std::uint8_t>(WalkStatus::kDropped);
      return;
    }
    const PortClass& pc = info.port[out];
    if (pc.kind == PortClass::kForward) {
      if (vswitch_[pc.node]) {
        hop_through_vswitch(t, pc.node, pc.in);
      } else {
        bucket(pc.node, pc.in).set(t);
      }
    } else if (pc.kind == PortClass::kNoRoute) {
      status_[t] = static_cast<std::uint8_t>(WalkStatus::kNoRoute);
    } else {
      apply_ca(t, ca_owns_lid(fabric_.node(pc.node), lid));
    }
  });
}

void ReachabilityShard::process_dense(const Entry& e, const SwitchInfo& info) {
  DensePlan& plan = plan_for(e.node, info);
  for (std::size_t w = e.lo; w < e.hi; ++w) {
    std::uint64_t term = e.bits[w] & plan.terminal[w];
    while (term != 0) {
      const std::size_t t =
          w * 64 + static_cast<std::size_t>(std::countr_zero(term));
      switch (plan.code[t]) {
        case kPlanDelivered:
          break;
        case kPlanDropped:
          status_[t] = static_cast<std::uint8_t>(WalkStatus::kDropped);
          break;
        case kPlanNoRoute:
          status_[t] = static_cast<std::uint8_t>(WalkStatus::kNoRoute);
          break;
        default:
          apply_ca(t, plan.code[t] == kPlanCaDelivered);
          break;
      }
      term &= term - 1;
    }
  }
  for (const PortNum p : plan.active) {
    const Bits& mask = plan.mask[p];
    Entry* out = nullptr;  // resolved lazily: most ports miss the frontier
    for (std::size_t w = e.lo; w < e.hi; ++w) {
      const std::uint64_t moved = e.bits[w] & mask[w];
      if (moved == 0) continue;
      if (out == nullptr) out = &bucket(info.port[p].node, info.port[p].in);
      out->or_word(w, moved);
    }
  }
}

void ReachabilityShard::process_vswitch(Entry& e) {
  // Functional forwarding, replicated from fabric::trace_unicast: deliver
  // towards the first local CA owning the LID, else out of the uplink,
  // else drop. A vSwitch normally sees only its local VFs' LIDs — except
  // on the source's own first hop, where the whole shard enters at once
  // and the bulk path below moves it in word ops.
  if (popcount(e) > 4 * words_) {
    process_vswitch_dense(e);
    return;
  }
  const Node& n = fabric_.node(e.node);
  for_each_bit(e, [&](std::size_t t) {
    const Lid lid = targets_[t0_ + t];
    PortNum out = 0;
    for (PortNum p = 1; p <= n.num_ports() && out == 0; ++p) {
      const Port& port = n.ports[p];
      if (p == e.in_port || !port.connected()) continue;
      const Node& peer = fabric_.node(port.peer);
      if (peer.is_ca() && ca_owns_lid(peer, lid)) out = p;
    }
    if (out == 0) {
      const auto uplink = fabric_.vswitch_uplink(e.node);
      if (!uplink || *uplink == e.in_port) {
        // Arrived from the uplink and nobody local owns the LID.
        status_[t] = static_cast<std::uint8_t>(WalkStatus::kDropped);
        return;
      }
      out = *uplink;
    }
    const auto hop = fabric_.peer(e.node, out);
    if (!hop) {
      status_[t] = static_cast<std::uint8_t>(WalkStatus::kNoRoute);
      return;
    }
    const Node& peer = fabric_.node(hop->first);
    if (peer.is_ca()) {
      apply_ca(t, ca_owns_lid(peer, lid));
      return;
    }
    bucket(hop->first, hop->second).set(t);
  });
}

/// The source's first hop: every target of the shard enters its vSwitch
/// at once. The local scan delivers only LIDs a local CA owns — a handful
/// of bits, patched out via lid2t_ — and everything else rides the uplink
/// as one word-OR instead of a per-target scan.
void ReachabilityShard::process_vswitch_dense(Entry& e) {
  const Node& n = fabric_.node(e.node);
  for (PortNum p = 1; p <= n.num_ports(); ++p) {
    const Port& port = n.ports[p];
    if (p == e.in_port || !port.connected()) continue;
    const Node& peer = fabric_.node(port.peer);
    if (!peer.is_ca()) continue;
    for (PortNum q = 1; q <= peer.num_ports(); ++q) {
      const Port& pp = peer.ports[q];
      if (!pp.lid.valid()) continue;
      const std::uint32_t base = pp.lid.value();
      for (std::uint32_t l = base; l < base + (1u << pp.lmc); ++l) {
        if (l >= lid2t_.size() || lid2t_[l] == kNoTarget) continue;
        const std::size_t t = lid2t_[l];
        if (!test_bit(e.bits, t)) continue;
        clear_bit(e.bits, t);
        apply_ca(t, true);  // the owning local CA delivers
      }
    }
  }
  const auto uplink = fabric_.vswitch_uplink(e.node);
  const auto set_rest = [&](WalkStatus s) {
    for_each_bit(e, [&](std::size_t t) {
      status_[t] = static_cast<std::uint8_t>(s);
    });
  };
  if (!uplink || *uplink == e.in_port) {
    set_rest(WalkStatus::kDropped);
    return;
  }
  const auto hop = fabric_.peer(e.node, *uplink);
  if (!hop) {
    set_rest(WalkStatus::kNoRoute);
    return;
  }
  const Node& peer = fabric_.node(hop->first);
  if (peer.is_ca()) {
    for_each_bit(e, [&](std::size_t t) {
      apply_ca(t, ca_owns_lid(peer, targets_[t0_ + t]));
    });
    return;
  }
  Entry& out = bucket(hop->first, hop->second);
  for (std::size_t w = e.lo; w < e.hi; ++w) {
    if (e.bits[w] != 0) out.or_word(w, e.bits[w]);
  }
}

void ReachabilityShard::process_ca(const Entry& e) {
  const Node& n = fabric_.node(e.node);
  for_each_bit(e, [&](std::size_t t) {
    if (!ca_owns_lid(n, targets_[t0_ + t])) {
      status_[t] = static_cast<std::uint8_t>(WalkStatus::kWrongDelivery);
    }
  });
}

void ReachabilityShard::run(NodeId src, std::vector<Finding>& out) {
  // Delivered is the default verdict: only undelivered walks store.
  std::memset(status_.data(), static_cast<int>(WalkStatus::kDelivered),
              status_.size());
  const Node& src_node = fabric_.node(src);
  const auto first_hop = fabric_.peer(src, 1);

  // Everything starts in flight except the source's own LIDs (loopback
  // delivery, same test as the serial trace's ca_owns_lid preamble).
  Bits init = acquire();
  if (count_ > 0) {
    std::fill(init.begin(), init.end(), ~std::uint64_t{0});
    if (count_ % 64 != 0) {
      init[words_ - 1] = (std::uint64_t{1} << (count_ % 64)) - 1;
    }
  }
  for (PortNum p = 1; p <= src_node.num_ports(); ++p) {
    const Port& port = src_node.ports[p];
    if (!port.lid.valid()) continue;
    const std::uint32_t base = port.lid.value();
    for (std::uint32_t l = base; l < base + (1u << port.lmc); ++l) {
      if (l < lid2t_.size() && lid2t_[l] != kNoTarget) {
        clear_bit(init, lid2t_[l]);
      }
    }
  }
  frontier_.clear();
  if (!first_hop) {
    for_each_bit(init, [&](std::size_t t) {
      status_[t] = static_cast<std::uint8_t>(WalkStatus::kNoRoute);
    });
    release(std::move(init));
  } else if (popcount(init) > 0) {
    frontier_.push_back(Entry{first_hop->first, first_hop->second, 0,
                              static_cast<std::uint32_t>(words_),
                              std::move(init)});
  } else {
    release(std::move(init));
  }

  // Synchronized rounds: after round r every in-flight target has entered
  // its r-th node, so the serial trace's hop budget translates directly.
  round_ = 0;
  while (!frontier_.empty() && round_ < hop_budget_) {
    ++round_;
    next_.clear();
    for (Entry& e : frontier_) {
      const Node& n = fabric_.node(e.node);
      if (n.is_ca()) {
        process_ca(e);
      } else if (n.is_vswitch()) {
        process_vswitch(e);
      } else {
        process_switch(e);
      }
      release(std::move(e.bits));
    }
    for (const NodeId node : touched_) slot_[node] = -1;
    touched_.clear();
    frontier_.swap(next_);
  }
  // Anything still in flight has entered more nodes than the budget allows:
  // a forwarding cycle.
  for (Entry& e : frontier_) {
    for_each_bit(e, [&](std::size_t t) {
      status_[t] = static_cast<std::uint8_t>(WalkStatus::kLoop);
    });
    release(std::move(e.bits));
  }
  frontier_.clear();

  fold_back();

  for (std::size_t t = 0; t < count_; ++t) {
    const auto status = static_cast<WalkStatus>(status_[t]);
    if (status == WalkStatus::kDelivered) continue;
    const Lid lid = targets_[t0_ + t];
    if (status == WalkStatus::kLoop) {
      out.push_back({t0_ + t, "routing loop tracing LID " +
                                  std::to_string(lid.value()) + " from " +
                                  src_node.name});
    } else {
      out.push_back({t0_ + t,
                     "LID " + std::to_string(lid.value()) +
                         " unreachable from " + src_node.name + " (" +
                         fabric::to_string(to_trace_status(status)) + ")"});
    }
  }
}

}  // namespace

FabricChecker::FabricChecker(const sm::SubnetManager& sm, CheckerConfig config)
    : sm_(sm), config_(config) {}

void FabricChecker::add_violation(CheckReport& report,
                                  std::string what) const {
  if (report.violations.size() >= config_.max_violations) {
    report.truncated = true;
    return;
  }
  report.violations.push_back(std::move(what));
}

CheckReport FabricChecker::check(const core::VSwitchFabric* cloud) const {
  CheckReport report;
  check_duplicate_lids(report);
  check_lidmap_consistency(report);
  check_reachability(report);
  if (cloud != nullptr) check_vswitch_mapping(report, *cloud);
  return report;
}

void FabricChecker::check_duplicate_lids(CheckReport& report) const {
  const Fabric& fabric = sm_.fabric();
  struct PortRef {
    NodeId node;
    PortNum port;
  };
  // Flat CSR over LID values instead of a hash map of vectors: one counting
  // pass sizes per-LID buckets, a prefix sum places them, a second pass
  // fills the refs in (node, port) scan order. Collisions then iterate in
  // ascending-LID order, which is also the 1-vs-N-thread stable order.
  std::uint16_t max_lid = 0;
  for (NodeId id = 0; id < fabric.size(); ++id) {
    const Node& n = fabric.node(id);
    const PortNum first = n.is_switch() ? 0 : 1;
    const PortNum last = n.is_switch() ? 0 : n.num_ports();
    for (PortNum p = first; p <= last; ++p) {
      if (n.ports[p].lid.valid()) max_lid = std::max(max_lid, n.ports[p].lid.value());
    }
  }
  std::vector<std::uint32_t> start(static_cast<std::size_t>(max_lid) + 2, 0);
  for (NodeId id = 0; id < fabric.size(); ++id) {
    const Node& n = fabric.node(id);
    const PortNum first = n.is_switch() ? 0 : 1;
    const PortNum last = n.is_switch() ? 0 : n.num_ports();
    for (PortNum p = first; p <= last; ++p) {
      if (n.ports[p].lid.valid()) ++start[n.ports[p].lid.value() + 1u];
    }
  }
  for (std::size_t i = 1; i < start.size(); ++i) start[i] += start[i - 1];
  std::vector<PortRef> refs(start.back());
  {
    std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
    for (NodeId id = 0; id < fabric.size(); ++id) {
      const Node& n = fabric.node(id);
      const PortNum first = n.is_switch() ? 0 : 1;
      const PortNum last = n.is_switch() ? 0 : n.num_ports();
      for (PortNum p = first; p <= last; ++p) {
        if (n.ports[p].lid.valid()) refs[fill[n.ports[p].lid.value()]++] = {id, p};
      }
    }
  }
  for (std::uint32_t lid = 0; lid <= max_lid; ++lid) {
    const std::uint32_t lo = start[lid];
    const std::uint32_t hi = start[lid + 1u];
    if (hi - lo < 2) continue;
    // The one sanctioned share: a PF and the vSwitch(es) it sits behind
    // answer to the same LID (§V). Anything else is an address collision.
    const PortRef* pf = nullptr;
    bool ok = true;
    for (std::uint32_t i = lo; i < hi; ++i) {
      const Node& n = fabric.node(refs[i].node);
      if (n.is_ca() && n.role == CaRole::kPf) {
        if (pf != nullptr) ok = false;  // two PFs on one LID
        pf = &refs[i];
      } else if (!n.is_vswitch()) {
        ok = false;
      }
    }
    if (ok && pf != nullptr) {
      for (std::uint32_t i = lo; i < hi; ++i) {
        const Node& n = fabric.node(refs[i].node);
        if (!n.is_vswitch()) continue;
        // The vSwitch must actually host this PF.
        bool cabled = false;
        for (PortNum p = 1; p <= n.num_ports(); ++p) {
          if (n.ports[p].peer == pf->node) cabled = true;
        }
        if (!cabled) ok = false;
      }
    } else {
      ok = false;
    }
    if (!ok) {
      std::string what = "duplicate LID " + std::to_string(lid) + " on";
      for (std::uint32_t i = lo; i < hi; ++i) {
        what += " " + port_name(fabric, refs[i].node, refs[i].port);
      }
      add_violation(report, std::move(what));
    }
  }
}

void FabricChecker::check_lidmap_consistency(CheckReport& report) const {
  const Fabric& fabric = sm_.fabric();
  const LidMap& lids = sm_.lids();
  for (const Lid lid : lids.assigned_lids()) {
    ++report.lids_checked;
    const LidMap::Owner owner = lids.owner(lid);
    if (!owner.valid() || owner.node >= fabric.size()) {
      add_violation(report, "LidMap owner of LID " +
                                std::to_string(lid.value()) + " is invalid");
      continue;
    }
    const Node& n = fabric.node(owner.node);
    if (owner.port >= n.ports.size() || !n.ports[owner.port].owns(lid)) {
      add_violation(report,
                    "LID " + std::to_string(lid.value()) +
                        " owner port " + port_name(fabric, owner.node, owner.port) +
                        " does not answer to it");
      continue;
    }
    const auto attach = lids.attachment(fabric, lid);
    if (!attach) {
      ++report.lids_skipped_detached;
      continue;
    }
    const auto [sw, port] = *attach;
    if (port == 0) continue;  // the switch's own LID terminates at port 0
    const PortNum installed = fabric.node(sw).lft.get(lid);
    if (installed != port) {
      add_violation(report,
                    "LID " + std::to_string(lid.value()) +
                        " attaches to " + port_name(fabric, sw, port) +
                        " but switch forwards it to port " +
                        std::to_string(installed));
    }
  }
}

void FabricChecker::check_reachability(CheckReport& report) const {
  const Fabric& fabric = sm_.fabric();
  const LidMap& lids = sm_.lids();

  std::vector<NodeId> sources;
  for (NodeId id = 0; id < fabric.size(); ++id) {
    const Node& n = fabric.node(id);
    if (!n.is_ca() || !n.ports[1].connected()) continue;
    if (!fabric.physical_attachment(id)) continue;
    sources.push_back(id);
  }
  if (config_.max_sources > 0 && sources.size() > config_.max_sources) {
    // Deterministic even spread over the candidates, endpoints included.
    std::vector<NodeId> sampled;
    sampled.reserve(config_.max_sources);
    const std::size_t n = sources.size();
    const std::size_t k = config_.max_sources;
    for (std::size_t i = 0; i < k; ++i) {
      sampled.push_back(sources[k > 1 ? i * (n - 1) / (k - 1) : 0]);
    }
    sampled.erase(std::unique(sampled.begin(), sampled.end()), sampled.end());
    sources = std::move(sampled);
  }
  report.sources_sampled = sources.size();

  // A LID is an *active* target only while its owner is physically on the
  // fabric. A dead switch keeps its LID assignment (it returns with the
  // node), but with every cable cut the address is legitimately dark —
  // demanding reachability for it would flag every switch-death as a
  // violation.
  const auto any_port_connected = [](const Node& n) {
    for (PortNum p = 1; p <= n.num_ports(); ++p) {
      if (n.ports[p].connected()) return true;
    }
    return false;
  };
  std::vector<Lid> targets;
  for (const Lid lid : lids.assigned_lids()) {
    if (!lids.attachment(fabric, lid)) continue;
    const LidMap::Owner owner = lids.owner(lid);
    if (owner.valid() && owner.node < fabric.size() &&
        !any_port_connected(fabric.node(owner.node))) {
      ++report.lids_skipped_detached;
      continue;
    }
    targets.push_back(lid);
  }

  // The walks are pure reads of the installed tables, so a large target
  // space fans out over the pool in contiguous shards; every shard runs the
  // bitset pass for all sources over its own range. The merge below
  // replays the findings in (source, target) order and reconstructs
  // exactly what a serial per-pair trace scan would have reported —
  // including the violation cap, the truncated flag, and the paths_traced
  // count at the point a serial scan would have bailed out.
  //
  // Every shard rebuilds its own port tables, dense plans and memos, so the
  // pass raises its range minimum to take one shard per worker rather than
  // the pool's usual four. On the full 5832-node tree (6804 targets, 16
  // sources, 4 workers) that ran in ~4.6 ms against ~5.6 ms for 16 shards,
  // medians of three interleaved rounds.
  //
  // A shard's findings land in the slot of its first target: shards own
  // distinct slots, so they write without a lock, and reading the slots in
  // index order visits the shards in target order.
  ThreadPool& pool = ThreadPool::global();
  const std::size_t min_targets = std::max(
      kMinTargetsPerShard, (targets.size() + pool.size() - 1) / pool.size());
  std::vector<std::vector<std::vector<Finding>>> by_first_target(
      targets.size());
  if (!sources.empty()) {
    pool.parallel_ranges(
        0, targets.size(), min_targets,
        [&](std::size_t t0, std::size_t t1) {
          auto& out = by_first_target[t0];
          out.resize(sources.size());
          ReachabilityShard worker(fabric, targets, t0, t1);
          for (std::size_t i = 0; i < sources.size(); ++i) {
            worker.run(sources[i], out[i]);
          }
        });
  }
  std::vector<std::vector<std::vector<Finding>>*> shards;
  for (auto& slot : by_first_target) {
    if (!slot.empty()) shards.push_back(&slot);
  }

  for (std::size_t i = 0; i < sources.size(); ++i) {
    for (auto* shard : shards) {
      for (Finding& f : (*shard)[i]) {
        add_violation(report, std::move(f.what));
        if (report.violations.size() >= config_.max_violations) {
          report.truncated = true;
          // A serial scan would have returned right here, having traced
          // every pair up to and including this one.
          report.paths_traced += i * targets.size() + f.target_index + 1;
          return;
        }
      }
    }
  }
  report.paths_traced += sources.size() * targets.size();
}

void FabricChecker::check_vswitch_mapping(
    CheckReport& report, const core::VSwitchFabric& cloud) const {
  const Fabric& fabric = sm_.fabric();
  const LidMap& lids = sm_.lids();
  const auto& hyps = cloud.hypervisors();
  for (const std::uint32_t id : cloud.active_vm_ids()) {
    const core::VmHandle handle{id};
    const core::Vm& vm = cloud.vm(handle);
    const NodeId node = cloud.vm_node(handle);
    const Node& n = fabric.node(node);
    if (!n.is_ca() || n.role != CaRole::kVf) {
      add_violation(report, "VM " + std::to_string(id) +
                                " is not backed by a VF node");
      continue;
    }
    if (vm.hypervisor >= hyps.size() ||
        vm.vf_index >= hyps[vm.hypervisor].vfs.size() ||
        hyps[vm.hypervisor].vfs[vm.vf_index] != node) {
      add_violation(report, "VM " + std::to_string(id) +
                                " VF slot bookkeeping is inconsistent");
      continue;
    }
    if (!vm.lid.valid() || !n.ports[1].owns(vm.lid)) {
      add_violation(report, "VM " + std::to_string(id) + " VF port (" +
                                n.name + ") does not own the VM's LID " +
                                std::to_string(vm.lid.value()));
      continue;
    }
    const LidMap::Owner owner = lids.owner(vm.lid);
    if (owner.node != node) {
      add_violation(report, "VM " + std::to_string(id) + " LID " +
                                std::to_string(vm.lid.value()) +
                                " is not owned by its VF in the LidMap");
    }
  }
}

}  // namespace ibvs::inject
