#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>

#include "routing/verify.hpp"
#include "tests/helpers.hpp"
#include "util/rng.hpp"

namespace ibvs {
namespace {

using routing::EngineKind;

enum class Topo { kFatTree, kRing, kTorus, kIrregular };

struct EngineCase {
  EngineKind engine;
  Topo topo;
};

std::string case_name(const ::testing::TestParamInfo<EngineCase>& info) {
  std::string name = routing::to_string(info.param.engine);
  std::replace(name.begin(), name.end(), '-', '_');
  switch (info.param.topo) {
    case Topo::kFatTree:
      return name + "_fattree";
    case Topo::kRing:
      return name + "_ring";
    case Topo::kTorus:
      return name + "_torus";
    case Topo::kIrregular:
      return name + "_irregular";
  }
  return name;
}

topology::Built build_topo(Fabric& fabric, Topo topo) {
  switch (topo) {
    case Topo::kFatTree:
      return topology::build_two_level_fat_tree(
          fabric, topology::TwoLevelParams{.num_leaves = 4,
                                           .num_spines = 3,
                                           .hosts_per_leaf = 3,
                                           .radix = 8});
    case Topo::kRing:
      return topology::build_ring(fabric, 6, 2, 8);
    case Topo::kTorus:
      return topology::build_torus_2d(fabric, 3, 3, 2, 8);
    case Topo::kIrregular:
      return topology::build_irregular(
          fabric, topology::IrregularParams{.num_switches = 10,
                                            .hosts_per_switch = 2,
                                            .extra_links = 5,
                                            .radix = 12,
                                            .seed = 4242});
  }
  throw std::logic_error("bad topo");
}

class RoutingEngineTest : public ::testing::TestWithParam<EngineCase> {
 protected:
  routing::RoutingResult route() {
    built_ = build_topo(fabric_, GetParam().topo);
    hosts_ = topology::attach_hosts(fabric_, built_.host_slots);
    fabric_.validate();
    // Assign LIDs: switches then hosts.
    for (NodeId sw : fabric_.switch_ids()) lids_.assign_next(fabric_, sw, 0);
    for (NodeId host : hosts_) lids_.assign_next(fabric_, host, 1);
    auto engine = routing::make_engine(GetParam().engine);
    return engine->compute(fabric_, lids_);
  }

  Fabric fabric_;
  LidMap lids_;
  topology::Built built_;
  std::vector<NodeId> hosts_;
};

TEST_P(RoutingEngineTest, EveryLidReachableFromEverySwitch) {
  const auto result = route();
  const auto report = routing::verify_routing(result);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.unreachable, 0u);
  EXPECT_EQ(report.loops, 0u);
  for (const auto& issue : report.issues) ADD_FAILURE() << issue;
  EXPECT_GT(report.pairs_checked, 0u);
}

TEST_P(RoutingEngineTest, Deterministic) {
  const auto a = route();
  auto engine = routing::make_engine(GetParam().engine);
  const auto b = engine->compute(fabric_, lids_);
  ASSERT_EQ(a.lfts.size(), b.lfts.size());
  for (std::size_t s = 0; s < a.lfts.size(); ++s) {
    EXPECT_TRUE(a.lfts[s] == b.lfts[s]) << "switch " << s;
  }
  EXPECT_EQ(a.num_vls, b.num_vls);
  EXPECT_EQ(a.dest_vl, b.dest_vl);
  EXPECT_EQ(a.pair_layer, b.pair_layer);
}

TEST_P(RoutingEngineTest, HopCountsAreMinimalAtMostDiameterPlusSlack) {
  const auto result = route();
  const auto report = routing::verify_routing(result);
  // Up*/down* may inflate paths slightly on cyclic topologies; everything
  // else stays at the true shortest-path diameter. A generous bound still
  // catches gross routing errors.
  EXPECT_LE(report.max_hops, result.graph.num_switches());
  EXPECT_GT(report.avg_hops, 0.0);
}

TEST_P(RoutingEngineTest, MeasuresComputeTime) {
  const auto result = route();
  EXPECT_GT(result.compute_seconds, 0.0);
  EXPECT_LT(result.compute_seconds, 60.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllEnginesAllTopologies, RoutingEngineTest,
    ::testing::Values(
        EngineCase{EngineKind::kMinHop, Topo::kFatTree},
        EngineCase{EngineKind::kMinHop, Topo::kRing},
        EngineCase{EngineKind::kMinHop, Topo::kTorus},
        EngineCase{EngineKind::kMinHop, Topo::kIrregular},
        EngineCase{EngineKind::kFatTree, Topo::kFatTree},
        EngineCase{EngineKind::kUpDown, Topo::kFatTree},
        EngineCase{EngineKind::kUpDown, Topo::kRing},
        EngineCase{EngineKind::kUpDown, Topo::kTorus},
        EngineCase{EngineKind::kUpDown, Topo::kIrregular},
        EngineCase{EngineKind::kDfsssp, Topo::kFatTree},
        EngineCase{EngineKind::kDfsssp, Topo::kRing},
        EngineCase{EngineKind::kDfsssp, Topo::kTorus},
        EngineCase{EngineKind::kDfsssp, Topo::kIrregular},
        EngineCase{EngineKind::kLash, Topo::kFatTree},
        EngineCase{EngineKind::kLash, Topo::kRing},
        EngineCase{EngineKind::kLash, Topo::kTorus},
        EngineCase{EngineKind::kLash, Topo::kIrregular}),
    case_name);

TEST(RoutingEngineRegistry, FactoryAndNames) {
  for (const auto kind : routing::all_engines()) {
    const auto engine = routing::make_engine(kind);
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->name(), routing::to_string(kind));
  }
  EXPECT_EQ(routing::fig7_engines().size(), 4u);
}

TEST(MinHopBalancing, SpreadsDestinationsOverSpines) {
  // 2 leaves, 4 spines, many hosts: each leaf must not funnel everything
  // through one uplink.
  Fabric fabric;
  LidMap lids;
  const auto built = topology::build_two_level_fat_tree(
      fabric, topology::TwoLevelParams{.num_leaves = 2,
                                       .num_spines = 4,
                                       .hosts_per_leaf = 8,
                                       .radix = 16});
  const auto hosts = topology::attach_hosts(fabric, built.host_slots);
  for (NodeId sw : fabric.switch_ids()) lids.assign_next(fabric, sw, 0);
  for (NodeId host : hosts) lids.assign_next(fabric, host, 1);
  const auto result =
      routing::make_engine(routing::EngineKind::kMinHop)->compute(fabric, lids);

  // Count, at leaf 0, how many remote-host LIDs each uplink port carries.
  const auto leaf0 = result.graph.dense(built.leaves[0]);
  std::map<PortNum, int> port_use;
  for (const auto& t : result.graph.targets) {
    if (t.sw == result.graph.dense(built.leaves[1]) && t.port != 0) {
      ++port_use[result.lfts[leaf0].get(t.lid)];
    }
  }
  EXPECT_EQ(port_use.size(), 4u);  // all four spines used
  for (const auto& [port, uses] : port_use) EXPECT_EQ(uses, 2);
}

TEST(FatTreeMultipath, DistinctLidsSameLeafCanUseDifferentSpines) {
  // The §V-A "LMC-like" benefit: two LIDs behind the same hypervisor take
  // different spines under d-mod-k, because the choice keys on the LID.
  Fabric fabric;
  LidMap lids;
  const auto built = topology::build_two_level_fat_tree(
      fabric, topology::TwoLevelParams{.num_leaves = 2,
                                       .num_spines = 4,
                                       .hosts_per_leaf = 4,
                                       .radix = 12});
  const auto hosts = topology::attach_hosts(fabric, built.host_slots);
  for (NodeId sw : fabric.switch_ids()) lids.assign_next(fabric, sw, 0);
  // Give host 0 (on leaf 0) four consecutive LIDs, as if it were a
  // hypervisor with prepopulated VFs.
  std::vector<Lid> multi;
  for (int i = 0; i < 3; ++i) {
    // Extra LIDs can only live on distinct ports in this model; use the
    // other hosts of leaf 0 as stand-ins — they share the leaf, which is
    // what matters for spine choice.
    multi.push_back(lids.assign_next(fabric, hosts[i], 1));
  }
  for (std::size_t i = 3; i < hosts.size(); ++i) {
    lids.assign_next(fabric, hosts[i], 1);
  }
  const auto result = routing::make_engine(routing::EngineKind::kFatTree)
                          ->compute(fabric, lids);
  // From leaf 1, the three LIDs on leaf 0 should not all share one spine.
  const auto leaf1 = result.graph.dense(built.leaves[1]);
  std::set<PortNum> used;
  for (Lid lid : multi) used.insert(result.lfts[leaf1].get(lid));
  EXPECT_GT(used.size(), 1u);
}

// HopMatrix::update() against a fresh switch_hop_matrix() after random
// batches of cable changes: one cable, several, all of one switch's, and a
// removal with an addition. A long line saturates the search (0xFE) and
// cuts disconnect it.

/// The cells where two S*S matrices differ, in HopMatrix::changed's
/// layout: bit t % 64 of word u * words + t / 64.
std::vector<std::uint64_t> changed_cells(
    const std::vector<std::uint8_t>& before,
    const std::vector<std::uint8_t>& after, std::size_t s_count) {
  const std::size_t words = (s_count + 63) / 64;
  std::vector<std::uint64_t> out(s_count * words, 0);
  for (std::size_t u = 0; u < s_count; ++u) {
    for (std::size_t t = 0; t < s_count; ++t) {
      if (before[u * s_count + t] != after[u * s_count + t]) {
        out[u * words + t / 64] |= std::uint64_t{1} << t % 64;
      }
    }
  }
  return out;
}

/// Rows with at least one bit set in a changed-cell bitset.
std::size_t rows_with_changes(const std::vector<std::uint64_t>& cells,
                              std::size_t s_count) {
  const std::size_t words = (s_count + 63) / 64;
  std::size_t rows = 0;
  for (std::size_t u = 0; u < s_count; ++u) {
    const auto row = cells.begin() + static_cast<std::ptrdiff_t>(u * words);
    if (std::any_of(row, row + static_cast<std::ptrdiff_t>(words),
                    [](std::uint64_t w) { return w != 0; })) {
      ++rows;
    }
  }
  return rows;
}

struct HopTally {
  std::size_t rows = 0;           ///< rows over all batches
  std::size_t rows_changed = 0;   ///< rows whose entries changed
  std::size_t rows_searched = 0;  ///< rows HopMatrix::update() searched
};

/// Runs `batches` random batches of cable changes on `fabric`. After each,
/// the matrix brought up to date by HopMatrix::update() must equal a fresh
/// switch_hop_matrix(), its changed cells a brute-force cell diff of the
/// old and new matrices and its changed edges a per-switch comparison.
/// Every third batch piles onto the previous one without clear_changes():
/// the cells must then be the union over both batches.
HopTally run_random_deltas(Fabric& fabric, std::uint64_t seed,
                           std::size_t batches) {
  SplitMix64 rng(seed);
  const LidMap lids;  // the matrix only reads the switch graph
  const std::vector<NodeId> ids = fabric.switch_ids();
  routing::SwitchGraph graph = routing::SwitchGraph::build(fabric, lids);
  routing::HopMatrix matrix;
  matrix.update(graph);
  std::vector<std::uint64_t> want_cells;  // expected changed
  std::vector<bool> want_edges;           // expected edges_changed
  std::vector<CableSpec> cut;  // removed cables, to plug back later
  HopTally tally;

  const auto remove_one = [&] {
    const auto cables = test::switch_cables(fabric);
    if (cables.empty()) return;
    const CableSpec c = cables[rng.below(cables.size())];
    fabric.disconnect(c.a, c.port_a);
    cut.push_back(c);
  };
  // A removed cable back where it was, or a new chord between free ports.
  const auto add_one = [&] {
    if (!cut.empty() && rng.below(2) == 0) {
      const std::size_t i = rng.below(cut.size());
      const CableSpec c = cut[i];
      cut.erase(cut.begin() + static_cast<std::ptrdiff_t>(i));
      if (!fabric.peer(c.a, c.port_a) && !fabric.peer(c.b, c.port_b)) {
        fabric.connect(c.a, c.port_a, c.b, c.port_b);
        return;
      }
    }
    const NodeId a = ids[rng.below(ids.size())];
    const NodeId b = ids[rng.below(ids.size())];
    const auto pa = fabric.free_port(a);
    const auto pb = fabric.free_port(b);
    if (a != b && pa && pb) fabric.connect(a, *pa, b, *pb);
  };

  for (std::size_t batch = 0; batch < batches; ++batch) {
    switch (batch % 4) {
      case 0:  // one cable
        rng.below(2) == 0 ? remove_one() : add_one();
        break;
      case 1:  // several cables
        for (std::size_t k = 2 + rng.below(3); k-- > 0;) {
          rng.below(2) == 0 ? remove_one() : add_one();
        }
        break;
      case 2: {  // all of a switch's cables
        const NodeId sw = ids[rng.below(ids.size())];
        for (const CableSpec& c : fabric.cables_of(sw)) {
          fabric.disconnect(c.a, c.port_a);
          cut.push_back(c);
        }
        break;
      }
      case 3:  // a removal and an addition
        remove_one();
        add_one();
        break;
    }
    const routing::SwitchGraph next = routing::SwitchGraph::build(fabric, lids);
    const std::size_t s_count = next.num_switches();
    const std::vector<std::uint8_t> expected = routing::switch_hop_matrix(next);
    const std::vector<std::uint64_t> want =
        changed_cells(matrix.hops, expected, s_count);
    std::vector<bool> moved(s_count);
    for (routing::SwitchIdx s = 0; s < s_count; ++s) {
      const auto [a, b] = graph.out(s);
      const auto [c, d] = next.out(s);
      moved[s] = !std::equal(a, b, c, d);
    }
    if (batch % 3 == 2) {
      for (std::size_t w = 0; w < want.size(); ++w) want_cells[w] |= want[w];
      for (std::size_t s = 0; s < s_count; ++s) {
        want_edges[s] = want_edges[s] || moved[s];
      }
    } else {
      matrix.clear_changes();
      want_cells = want;
      want_edges = moved;
    }

    const std::size_t searched = matrix.update(next);
    EXPECT_EQ(matrix.hops, expected) << "batch " << batch;
    EXPECT_EQ(matrix.changed, want_cells) << "batch " << batch;
    EXPECT_EQ(matrix.edges_changed, want_edges) << "batch " << batch;
    if (::testing::Test::HasFailure()) return tally;

    const std::size_t changed = rows_with_changes(want, s_count);
    EXPECT_GE(searched, changed) << "batch " << batch;
    EXPECT_LE(searched, s_count) << "batch " << batch;
    tally.rows += s_count;
    tally.rows_changed += changed;
    tally.rows_searched += searched;
    graph = next;
  }
  return tally;
}

/// Deltas that changed rows, and rows left unsearched.
void expect_selective(const HopTally& t) {
  EXPECT_GT(t.rows_changed, 0u);
  EXPECT_LT(t.rows_searched, t.rows);
}

TEST(HopMatrix, IrregularMatchesFreshSearch) {
  Fabric fabric;
  topology::build_irregular(fabric,
                            topology::IrregularParams{.num_switches = 16,
                                                      .hosts_per_switch = 4,
                                                      .extra_links = 10,
                                                      .radix = 12,
                                                      .seed = 5});
  expect_selective(run_random_deltas(fabric, /*seed=*/3, /*batches=*/120));
}

TEST(HopMatrix, Tree648MatchesFreshSearch) {
  Fabric fabric;
  topology::build_paper_fat_tree(fabric, topology::PaperFatTree::k648);
  expect_selective(run_random_deltas(fabric, /*seed=*/4, /*batches=*/80));
}

TEST(HopMatrix, LongLineMatchesFreshSearch) {
  // 320 switches in a line: rows saturate at 0xFE past 254 hops, and every
  // cut disconnects.
  Fabric fabric;
  const auto built = topology::build_ring(fabric, 320, 2, 8);
  fabric.disconnect(built.leaves.front(), 8);
  expect_selective(run_random_deltas(fabric, /*seed=*/5, /*batches=*/80));
}

TEST(HopMatrix, ColdSearchesEveryRowAndNoChangeSearchesNone) {
  Fabric fabric;
  topology::build_paper_fat_tree(fabric, topology::PaperFatTree::k648);
  const LidMap lids;
  const auto graph = routing::SwitchGraph::build(fabric, lids);
  const std::size_t s_count = graph.num_switches();
  const std::vector<std::uint8_t> fresh = routing::switch_hop_matrix(graph);
  const std::vector<bool> every(s_count, true);

  // Cold, every reachable cell changed from unreachable.
  const std::vector<std::uint64_t> every_cell = changed_cells(
      std::vector<std::uint8_t>(s_count * s_count, 0xFF), fresh, s_count);

  routing::HopMatrix matrix;
  EXPECT_EQ(matrix.update(graph), s_count);  // no matrix yet
  EXPECT_EQ(matrix.hops, fresh);
  EXPECT_EQ(matrix.changed, every_cell);
  EXPECT_EQ(matrix.edges_changed, every);
  matrix.adj_offset.clear();
  EXPECT_EQ(matrix.update(graph), s_count);  // no previous adjacency
  EXPECT_EQ(matrix.hops, fresh);
  matrix.clear_changes();
  EXPECT_EQ(matrix.update(graph), 0u);
  EXPECT_EQ(matrix.changed,
            std::vector<std::uint64_t>(every_cell.size(), 0));
  EXPECT_EQ(matrix.edges_changed, std::vector<bool>(s_count, false));
  EXPECT_EQ(matrix.hops, fresh);
  matrix.reset();  // dropped, as invalidate_routes() does
  EXPECT_EQ(matrix.update(graph), s_count);
  EXPECT_EQ(matrix.changed, every_cell);
  EXPECT_EQ(matrix.hops, fresh);
  EXPECT_EQ(matrix.edges_changed, every);
  EXPECT_EQ(matrix.rows_searched, 3 * s_count);
}

/// A cold Min-Hop fill by brute force: breadth-first hop counts between
/// switches, then, per switch, every target in LID order out of the
/// minimal-hop, least-loaded, lowest port. CA LIDs add to their port's
/// load; a switch's own LID (delivered at port 0) does only when
/// `count_switch_lids`.
std::vector<Lft> brute_force_min_hop(const Fabric& fabric, const LidMap& lids,
                                     bool count_switch_lids) {
  const auto g = routing::SwitchGraph::build(fabric, lids);
  const std::size_t n = g.num_switches();
  std::vector<std::vector<int>> hops(n, std::vector<int>(n, -1));
  for (std::size_t src = 0; src < n; ++src) {
    std::vector<routing::SwitchIdx> queue{static_cast<routing::SwitchIdx>(src)};
    hops[src][src] = 0;
    for (std::size_t q = 0; q < queue.size(); ++q) {
      const auto [first, last] = g.out(queue[q]);
      for (const auto* e = first; e != last; ++e) {
        if (hops[src][e->to] < 0) {
          hops[src][e->to] = hops[src][queue[q]] + 1;
          queue.push_back(e->to);
        }
      }
    }
  }
  std::vector<Lft> lfts;
  for (std::size_t s = 0; s < n; ++s) {
    Lft lft(lids.top_lid());
    std::map<PortNum, int> load;
    for (const auto& t : g.targets) {
      if (t.sw == s) {
        lft.set(t.lid, t.port);
        continue;
      }
      std::optional<std::tuple<int, int, PortNum>> best;
      const auto [first, last] = g.out(static_cast<routing::SwitchIdx>(s));
      for (const auto* e = first; e != last; ++e) {
        if (hops[e->to][t.sw] < 0) continue;
        const std::tuple<int, int, PortNum> key{hops[e->to][t.sw],
                                                load[e->out_port], e->out_port};
        if (!best || key < *best) best = key;
      }
      if (!best) continue;
      const PortNum port = std::get<2>(*best);
      lft.set(t.lid, port);
      if (t.port != 0 || count_switch_lids) ++load[port];
    }
    lfts.push_back(std::move(lft));
  }
  return lfts;
}

TEST(MinHopOracle, ColdRunMatchesBruteForceCountingOnlyCaLids) {
  struct Case {
    std::string name;
    std::function<topology::Built(Fabric&)> build;
  };
  // On each fabric counting switch LIDs too would move some CA LID's port.
  // On the 4x2 tree of the shared fixtures, a leaf reaches the spines in
  // one hop each and the other leaves through either spine, so counting
  // switch LIDs leaves its uplinks at loads 3 and 2 before the first CA
  // LID, which then takes the other spine.
  const std::vector<Case> cases = {
      {"tree4x2",
       [](Fabric& f) {
         return topology::build_two_level_fat_tree(
             f, topology::TwoLevelParams{.num_leaves = 4,
                                         .num_spines = 2,
                                         .hosts_per_leaf = 3,
                                         .radix = 12});
       }},
      {"tree324",
       [](Fabric& f) {
         return topology::build_paper_fat_tree(f,
                                               topology::PaperFatTree::k324);
       }},
      {"irregular",
       [](Fabric& f) {
         return topology::build_irregular(
             f, topology::IrregularParams{.num_switches = 16,
                                          .hosts_per_switch = 4,
                                          .extra_links = 10,
                                          .radix = 12,
                                          .seed = 5});
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Fabric fabric;
    LidMap lids;
    const topology::Built built = c.build(fabric);
    const auto hosts = topology::attach_hosts(fabric, built.host_slots);
    for (const NodeId sw : fabric.switch_ids()) lids.assign_next(fabric, sw, 0);
    for (const NodeId host : hosts) lids.assign_next(fabric, host, 1);

    const auto result =
        routing::make_engine(EngineKind::kMinHop)->compute(fabric, lids);
    const std::vector<Lft> want = brute_force_min_hop(fabric, lids, false);
    ASSERT_EQ(result.lfts.size(), want.size());
    for (std::size_t s = 0; s < want.size(); ++s) {
      EXPECT_EQ(result.lfts[s], want[s]) << "switch " << s;
    }

    const std::vector<Lft> counting = brute_force_min_hop(fabric, lids, true);
    std::size_t ca_entries_moved = 0;
    for (std::size_t s = 0; s < want.size(); ++s) {
      for (const auto& t : result.graph.targets) {
        ca_entries_moved +=
            t.port != 0 && want[s].get(t.lid) != counting[s].get(t.lid);
      }
    }
    EXPECT_GT(ca_entries_moved, 0u);
  }
}

}  // namespace
}  // namespace ibvs
