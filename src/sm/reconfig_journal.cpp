#include "sm/reconfig_journal.hpp"

#include <algorithm>
#include <utility>

#include "sm/delta_txn.hpp"
#include "sm/topology_txn.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/expect.hpp"
#include "util/log.hpp"

namespace ibvs::sm {

namespace {

struct JournalMetrics {
  telemetry::Counter& begun;
  telemetry::Counter& topology_begun;
  telemetry::Counter& replays_forward;
  telemetry::Counter& replays_back;

  static JournalMetrics& get() {
    auto& reg = telemetry::Registry::global();
    static JournalMetrics m{
        reg.counter("ibvs_journal_records_total", {},
                    "Migration records opened in the reconfiguration journal"),
        reg.counter("ibvs_journal_topology_records_total", {},
                    "Topology records opened in the reconfiguration journal"),
        reg.counter("ibvs_journal_replays_total", {{"action", "roll_forward"}},
                    "In-flight journal records resolved during recovery"),
        reg.counter("ibvs_journal_replays_total", {{"action", "roll_back"}}),
    };
    return m;
  }
};

/// Route repair after a topology rollback performed by a *recovering* SM.
///
/// A standby promoted mid-delta sweeps the half-mutated fabric before it
/// replays the journal, so its master tables describe the cabling as it was
/// at takeover. Rolling the record back then changes the cabling again —
/// re-plugging a detach subject the sweep saw severed (its LID column is
/// all-drop) or severing attach cables the sweep routed through. The
/// recorded inverse deltas cannot fix that: they were taken against the
/// *dying* master's tables. Recompute exactly the affected columns from the
/// SM's hop matrix, brought up to date with the restored graph.
/// Roll-forward needs no such pass (the journaled deltas are valid for the
/// fully-mutated fabric), so the common recovery path stays free of route
/// recomputation.
void repair_rolled_back_routes(
    SubnetManager& sm, const std::vector<const TopologyPayload*>& rolled) {
  if (rolled.empty()) return;
  Fabric& fabric = sm.fabric();
  const auto& result = sm.routing_result();
  const auto& g = result.graph;
  const auto& hops = sm.hop_matrix();
  for (const TopologyPayload* r : rolled) {
    const bool removed_cables =
        r->op == TopologyOp::kAttachSwitch || r->op == TopologyOp::kAddLink;
    if (removed_cables) {
      // Any column still egressing into a now-unplugged port is recomputed
      // wholesale; untouched columns never routed through the cables.
      for (const Lid lid : sm.lids().assigned_lids()) {
        bool stale = false;
        for (const CableSpec& c : r->cables) {
          const routing::SwitchIdx sa = g.dense(c.a);
          const routing::SwitchIdx sb = g.dense(c.b);
          if ((sa != routing::kNoSwitch &&
               result.lfts[sa].get(lid) == c.port_a) ||
              (sb != routing::kNoSwitch &&
               result.lfts[sb].get(lid) == c.port_b)) {
            stale = true;
            break;
          }
        }
        if (!stale) continue;
        const auto att = sm.lids().attachment(fabric, lid);
        if (!att) continue;
        const routing::SwitchIdx t = g.dense(att->first);
        if (t == routing::kNoSwitch) continue;
        const auto column = repair_route_column(g, hops, t, att->second);
        for (routing::SwitchIdx s = 0; s < g.num_switches(); ++s) {
          sm.update_master_entry(s, lid, column[s]);
        }
      }
      // The released attach LID must not linger in any table.
      if (r->op == TopologyOp::kAttachSwitch && r->subject_lid.valid() &&
          !sm.lids().assigned(r->subject_lid)) {
        for (routing::SwitchIdx s = 0; s < g.num_switches(); ++s) {
          sm.update_master_entry(s, r->subject_lid, kDropPort);
        }
      }
    } else if (r->op == TopologyOp::kDetachSwitch) {
      // The re-plugged subject: route its restored LID everywhere and fill
      // its own table (the takeover sweep computed both against a fabric
      // where it was severed). Re-plugging only *adds* paths, so existing
      // non-drop entries still deliver — fill exactly the kDropPort gaps and
      // the recovery stays byte-identical when the tables were never stale
      // (a master rolling back its own abandoned detach).
      const routing::SwitchIdx me = g.dense(r->subject);
      if (me == routing::kNoSwitch || !r->subject_lid.valid() ||
          !sm.lids().assigned(r->subject_lid)) {
        continue;
      }
      const auto column = repair_route_column(g, hops, me, /*delivery=*/0);
      for (routing::SwitchIdx s = 0; s < g.num_switches(); ++s) {
        if (result.lfts[s].get(r->subject_lid) == kDropPort) {
          sm.update_master_entry(s, r->subject_lid, column[s]);
        }
      }
      for (const auto& target : g.targets) {
        if (result.lfts[me].get(target.lid) != kDropPort) continue;
        const PortNum port = target.sw == me
                                 ? target.port
                                 : repair_port_toward(g, hops, me, target.sw);
        sm.update_master_entry(me, target.lid, port);
      }
    }
    // kRemoveLink rolled back: the restored cable only adds capacity; the
    // routes the takeover sweep computed without it remain valid.
  }
}

/// Whether `lid`'s master column delivers it at (t, port) from every switch
/// with a path to t (hop-matrix entry 0xFF: none).
bool column_delivers(const SubnetManager& sm,
                     const std::vector<std::uint8_t>& hops, Lid lid,
                     routing::SwitchIdx t, PortNum port) {
  const auto& result = sm.routing_result();
  const auto& g = result.graph;
  const std::size_t n = g.num_switches();
  for (routing::SwitchIdx s = 0; s < n; ++s) {
    if (hops[static_cast<std::size_t>(s) * n + t] == 0xFF) continue;
    routing::SwitchIdx x = s;
    for (std::size_t step = 0; x != t; ++step) {
      const auto next =
          sm.fabric().peer(g.switches[x], result.lfts[x].get(lid));
      if (step == n || !next) return false;
      x = g.dense(next->first);
      if (x == routing::kNoSwitch) return false;
    }
    if (result.lfts[t].get(lid) != port) return false;
  }
  return true;
}

/// Route repair after a migration rollback performed by a *recovering* SM.
/// A standby's takeover sweep routed the record's LIDs where it found them,
/// at the destination; undoing the address move sends them back to the
/// source, so a column that no longer delivers is recomputed from the hop
/// matrix. A master rolling back its own record restored the exact
/// pre-transaction columns, which deliver, and stays byte-identical.
void repair_rolled_back_lids(SubnetManager& sm, const std::vector<Lid>& lids) {
  if (lids.empty()) return;
  const auto& g = sm.routing_result().graph;
  const auto& hops = sm.hop_matrix();
  for (const Lid lid : lids) {
    const auto att = sm.lids().attachment(sm.fabric(), lid);
    if (!att) continue;
    const routing::SwitchIdx t = g.dense(att->first);
    if (t == routing::kNoSwitch ||
        column_delivers(sm, hops, lid, t, att->second)) {
      continue;
    }
    const auto column = repair_route_column(g, hops, t, att->second);
    for (routing::SwitchIdx s = 0; s < g.num_switches(); ++s) {
      sm.update_master_entry(s, lid, column[s]);
    }
  }
}

/// Folds one resolved in-flight record into the report, the metrics and
/// the log.
void settle(JournalRecord& r, bool forward, RecoveryReport& report) {
  r.state = forward ? RecordState::kCommitted : RecordState::kRolledBack;
  auto& metrics = JournalMetrics::get();
  ++(forward ? report.rolled_forward : report.rolled_back);
  (forward ? metrics.replays_forward : metrics.replays_back).inc();
  const MigrationPayload* m = r.migration();
  IBVS_INFO("journal") << "record " << r.id << " ("
                       << (m ? "vm " + std::to_string(m->vm_id)
                             : std::string(to_string(r.topology()->op)))
                       << ") rolled " << (forward ? "forward: " : "back: ")
                       << r.deltas.size() << " deltas replayed";
}

/// Resolves one in-flight migration record against the current fabric.
/// Both branches are pure master-table and LidMap fixups, plus the address
/// SMPs of an undo; redistribution turns the rest into SMPs.
void resolve_migration(SubnetManager& sm, JournalRecord& r,
                       RecoveryReport& report, SmpRouting routing) {
  const MigrationPayload& m = *r.migration();
  // Roll forward only when the write-ahead marks prove the migration got
  // past the address move AND the destination can still be programmed;
  // everything else is undone.
  const bool dst_reachable = sm.transport().hops_to(m.dst_pf).has_value();
  const bool forward = r.started && !r.deltas.empty() && dst_reachable;
  replay_master(sm, r.deltas, forward);
  if (forward) {
    place_addresses(sm, m, /*at_destination=*/true);
  } else if (r.started) {
    const SmpCost cost = undo_addresses(sm, m, routing);
    report.address_smps += cost.smps;
    report.address_time_us += cost.time_us;
  }
  settle(r, forward, report);
}

/// Resolves one in-flight topology record against the current fabric.
void resolve_topology(SubnetManager& sm, JournalRecord& r,
                      RecoveryReport& report) {
  Fabric& fabric = sm.fabric();
  auto& transport = sm.transport();
  const TopologyPayload& t = *r.topology();
  // Roll forward only when the write-ahead marks prove the mutation began
  // AND the re-route plan was recorded. An attach additionally needs the
  // new switch to still be programmable — a switch that died mid-attach is
  // rolled back out of the fabric, never committed half-routed.
  bool forward = r.started && !r.deltas.empty();
  if (t.op == TopologyOp::kAttachSwitch) {
    forward = forward && transport.hops_to(t.subject).has_value();
  }
  replay_master(sm, r.deltas, forward);
  if (forward) {
    if (t.op == TopologyOp::kAttachSwitch && t.subject_lid.valid() &&
        !sm.lids().assigned(t.subject_lid)) {
      // The crash hit between the mutation and the LID assignment: finish
      // the addressing. Directed-route PortInfo — the new switch's LID may
      // not be installed anywhere yet.
      sm.lids().assign(fabric, t.subject, 0, t.subject_lid);
      transport.begin_batch();
      transport.send_port_info_set(t.subject, 0, SmpRouting::kDirected);
      report.address_smps += 1;
      report.address_time_us += transport.end_batch();
    }
    if (t.op == TopologyOp::kDetachSwitch && t.subject_lid.valid()) {
      if (sm.lids().assigned(t.subject_lid) &&
          sm.lids().owner(t.subject_lid).node == t.subject) {
        sm.lids().release(fabric, t.subject_lid);
      }
      sm.lids().unreserve(t.subject_lid);  // the scrub is in the tables
    }
  } else if (r.started) {
    const SmpCost cost = undo_cabling(sm, t);
    report.address_smps += cost.smps;
    report.address_time_us += cost.time_us;
  }
  r.reconciled = true;  // recovery is the only bookkeeper for these
  settle(r, forward, report);
}

}  // namespace

const char* to_string(RecordState state) {
  switch (state) {
    case RecordState::kInFlight:
      return "in-flight";
    case RecordState::kCommitted:
      return "committed";
    case RecordState::kRolledBack:
      return "rolled-back";
  }
  return "?";
}

const char* to_string(TopologyOp op) {
  switch (op) {
    case TopologyOp::kAttachSwitch:
      return "attach-switch";
    case TopologyOp::kDetachSwitch:
      return "detach-switch";
    case TopologyOp::kAddLink:
      return "add-link";
    case TopologyOp::kRemoveLink:
      return "remove-link";
  }
  return "?";
}

std::uint64_t ReconfigJournal::begin(
    std::variant<MigrationPayload, TopologyPayload> payload) {
  if (const auto* m = std::get_if<MigrationPayload>(&payload)) {
    IBVS_REQUIRE(m->vm_lid.valid(), "journal record needs the VM LID");
    IBVS_REQUIRE(m->src_vf != kInvalidNode && m->dst_vf != kInvalidNode,
                 "journal record needs both VF nodes");
    JournalMetrics::get().begun.inc();
  } else {
    const auto& t = std::get<TopologyPayload>(payload);
    const bool switch_op = t.op == TopologyOp::kAttachSwitch ||
                           t.op == TopologyOp::kDetachSwitch;
    IBVS_REQUIRE(!switch_op || t.subject != kInvalidNode,
                 "switch delta needs its subject node");
    IBVS_REQUIRE(!t.cables.empty(), "topology record needs its cable set");
    JournalMetrics::get().topology_begun.inc();
  }
  JournalRecord& record = records_.emplace_back();
  record.id = next_id_++;
  record.payload = std::move(payload);
  return record.id;
}

JournalRecord* ReconfigJournal::find(std::uint64_t id) {
  return const_cast<JournalRecord*>(std::as_const(*this).find(id));
}

const JournalRecord* ReconfigJournal::find(std::uint64_t id) const {
  // Ids are handed out in increasing order and truncation keeps the order.
  const auto it = std::lower_bound(
      records_.begin(), records_.end(), id,
      [](const JournalRecord& r, std::uint64_t v) { return r.id < v; });
  return it != records_.end() && it->id == id ? &*it : nullptr;
}

JournalRecord& ReconfigJournal::in_flight_record(std::uint64_t id) {
  JournalRecord* r = find(id);
  IBVS_REQUIRE(r != nullptr, "unknown journal record");
  IBVS_REQUIRE(r->state == RecordState::kInFlight,
               "record is no longer in flight");
  return *r;
}

void ReconfigJournal::record_started(std::uint64_t id) {
  in_flight_record(id).started = true;
}

void ReconfigJournal::record_topology_lid(std::uint64_t id, Lid lid) {
  auto* t = std::get_if<TopologyPayload>(&in_flight_record(id).payload);
  IBVS_REQUIRE(t != nullptr, "not a topology record");
  t->subject_lid = lid;
}

void ReconfigJournal::record_deltas(std::uint64_t id,
                                    std::vector<LftDelta> deltas) {
  in_flight_record(id).deltas = std::move(deltas);
}

void ReconfigJournal::commit(std::uint64_t id) {
  JournalRecord& r = in_flight_record(id);
  r.state = RecordState::kCommitted;
  r.reconciled = true;
}

void ReconfigJournal::roll_back(std::uint64_t id) {
  JournalRecord& r = in_flight_record(id);
  r.state = RecordState::kRolledBack;
  r.reconciled = true;
}

std::vector<const JournalRecord*> ReconfigJournal::records() const {
  std::vector<const JournalRecord*> out;
  for (const JournalRecord& r : records_) {
    if (r.migration()) out.push_back(&r);
  }
  return out;
}

std::vector<const JournalRecord*> ReconfigJournal::topology_records() const {
  std::vector<const JournalRecord*> out;
  for (const JournalRecord& r : records_) {
    if (r.topology()) out.push_back(&r);
  }
  return out;
}

std::size_t ReconfigJournal::in_flight() const {
  return static_cast<std::size_t>(
      std::count_if(records_.begin(), records_.end(), [](const auto& r) {
        return r.state == RecordState::kInFlight;
      }));
}

std::size_t ReconfigJournal::truncate_reconciled() {
  return std::erase_if(records_, [](const JournalRecord& r) {
    return r.state != RecordState::kInFlight && r.reconciled;
  });
}

RecoveryReport ReconfigJournal::recover(SubnetManager& sm,
                                        std::size_t max_rounds,
                                        SmpRouting routing) {
  RecoveryReport report;
  report.in_flight = in_flight();
  if (report.in_flight == 0) return report;
  IBVS_REQUIRE(sm.has_routing(),
               "recovery needs master tables (sweep the subnet first)");

  auto span = telemetry::Tracer::global().span(
      "journal.recover",
      {{"in_flight", std::to_string(report.in_flight)}});
  const std::uint64_t hop_rows_before = sm.hop_rows_searched();

  // An in-flight topology delta means the cabling the recovering SM swept
  // may already be mid-mutation: adopt the current structure first so dense
  // lookups, reachability and redistribution all see the fabric as cabled
  // right now. Append-stable dense indices make this safe for the
  // migration records too.
  const bool topology_in_flight =
      std::any_of(records_.begin(), records_.end(), [](const auto& r) {
        return r.state == RecordState::kInFlight && r.topology();
      });
  if (topology_in_flight) sm.adopt_topology_change();

  // Migrations resolve before topology deltas.
  std::vector<Lid> rolled_back_lids;
  for (JournalRecord& r : records_) {
    if (r.state != RecordState::kInFlight || !r.migration()) continue;
    resolve_migration(sm, r, report, routing);
    if (r.state == RecordState::kRolledBack && r.started) {
      rolled_back_lids.push_back(r.migration()->vm_lid);
      if (r.migration()->swapped_lid.valid()) {
        rolled_back_lids.push_back(r.migration()->swapped_lid);
      }
    }
  }
  std::vector<const TopologyPayload*> rolled_back_topology;
  for (JournalRecord& r : records_) {
    if (r.state != RecordState::kInFlight || !r.topology()) continue;
    resolve_topology(sm, r, report);
    if (r.state == RecordState::kRolledBack) {
      rolled_back_topology.push_back(r.topology());
    }
  }
  // Rolling a topology record back (or forward past a partial mutation) can
  // change the cabling again; re-adopt so redistribution programs exactly
  // the switches that are really there.
  if (topology_in_flight) sm.adopt_topology_change();
  repair_rolled_back_routes(sm, rolled_back_topology);
  repair_rolled_back_lids(sm, rolled_back_lids);

  // The master tables now describe exactly one consistent outcome per
  // record; push the diffs until the installed fabric agrees. Only a
  // roll-back can trigger a (column-scoped) recomputation above — the
  // roll-forward paths stay PCt-free.
  sm.refresh_targets();
  report.redistribution = sm.redistribute(max_rounds, routing);
  span.set_attr("rolled_forward", std::to_string(report.rolled_forward));
  span.set_attr("rolled_back", std::to_string(report.rolled_back));
  span.set_attr("smps", std::to_string(report.redistribution.smps));
  span.set_attr("hop_rows_searched",
                std::to_string(sm.hop_rows_searched() - hop_rows_before));
  return report;
}

}  // namespace ibvs::sm
