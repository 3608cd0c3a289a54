#include <gtest/gtest.h>

#include "ib/lid_map.hpp"
#include "routing/graph.hpp"
#include "topology/export.hpp"
#include "topology/fat_tree.hpp"
#include "topology/hosts.hpp"
#include "topology/irregular.hpp"

namespace ibvs {
namespace {

using topology::PaperFatTree;

/// Expected switch counts per Table I.
struct PaperShape {
  PaperFatTree which;
  std::size_t nodes;
  std::size_t switches;
};

/// Prints the counts, not gtest's byte dump, whose padding bytes are
/// uninitialised and would make the listed test names vary between runs.
void PrintTo(const PaperShape& shape, std::ostream* os) {
  *os << shape.nodes << " nodes, " << shape.switches << " switches";
}

class PaperTreeTest : public ::testing::TestWithParam<PaperShape> {};

TEST_P(PaperTreeTest, MatchesTableI) {
  const auto& shape = GetParam();
  Fabric fabric;
  const auto built = topology::build_paper_fat_tree(fabric, shape.which);
  EXPECT_EQ(built.host_slots.size(), shape.nodes);
  EXPECT_EQ(built.num_switches(), shape.switches);
  EXPECT_EQ(fabric.num_switches(true), shape.switches);
  fabric.validate();
}

INSTANTIATE_TEST_SUITE_P(
    TableI, PaperTreeTest,
    ::testing::Values(PaperShape{PaperFatTree::k324, 324, 36},
                      PaperShape{PaperFatTree::k648, 648, 54},
                      PaperShape{PaperFatTree::k5832, 5832, 972},
                      PaperShape{PaperFatTree::k11664, 11664, 1620}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.nodes);
    });

/// Verifies the switch graph of a built topology is connected.
bool switch_graph_connected(const Fabric& fabric) {
  LidMap lids;
  const auto g = routing::SwitchGraph::build(fabric, lids);
  if (g.num_switches() == 0) return true;
  std::vector<bool> seen(g.num_switches(), false);
  std::vector<routing::SwitchIdx> queue{0};
  seen[0] = true;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto [first, last] = g.out(queue[head]);
    for (const auto* e = first; e != last; ++e) {
      if (!seen[e->to]) {
        seen[e->to] = true;
        queue.push_back(e->to);
      }
    }
  }
  return queue.size() == g.num_switches();
}

TEST(FatTree, SmallTreeStructure) {
  Fabric fabric;
  const auto built = topology::build_two_level_fat_tree(
      fabric, topology::TwoLevelParams{
                  .num_leaves = 4, .num_spines = 2, .hosts_per_leaf = 3,
                  .radix = 8});
  EXPECT_EQ(built.leaves.size(), 4u);
  EXPECT_EQ(built.spines.size(), 2u);
  EXPECT_EQ(built.host_slots.size(), 12u);
  fabric.validate();
  EXPECT_TRUE(switch_graph_connected(fabric));
  // Every leaf has exactly one link to every spine.
  for (NodeId leaf : built.leaves) {
    std::size_t up = 0;
    const Node& n = fabric.node(leaf);
    for (PortNum p = 1; p <= n.num_ports(); ++p) {
      if (n.ports[p].connected()) ++up;
    }
    EXPECT_EQ(up, 2u);  // hosts not yet attached
  }
}

TEST(FatTree, RadixOverflowRejected) {
  Fabric fabric;
  EXPECT_THROW(topology::build_two_level_fat_tree(
                   fabric, topology::TwoLevelParams{.num_leaves = 2,
                                                    .num_spines = 4,
                                                    .hosts_per_leaf = 6,
                                                    .radix = 8}),
               std::invalid_argument);
}

TEST(FatTree, ThreeLevelPodWiring) {
  Fabric fabric;
  const auto built = topology::build_three_level_fat_tree(
      fabric, topology::ThreeLevelParams{.num_pods = 4,
                                         .leaves_per_pod = 2,
                                         .spines_per_pod = 2,
                                         .num_cores = 4,
                                         .hosts_per_leaf = 2,
                                         .radix = 8});
  EXPECT_EQ(built.leaves.size(), 8u);
  EXPECT_EQ(built.spines.size(), 8u);
  EXPECT_EQ(built.cores.size(), 4u);
  EXPECT_EQ(built.host_slots.size(), 16u);
  fabric.validate();
  EXPECT_TRUE(switch_graph_connected(fabric));
}

TEST(FatTree, LinksPerSpineMultiplicity) {
  Fabric fabric;
  const auto built = topology::build_two_level_fat_tree(
      fabric, topology::TwoLevelParams{.num_leaves = 2,
                                       .num_spines = 2,
                                       .hosts_per_leaf = 2,
                                       .radix = 8,
                                       .links_per_spine = 2});
  fabric.validate();
  // Each leaf now has 4 uplinks (2 per spine).
  const Node& leaf = fabric.node(built.leaves[0]);
  std::size_t cables = 0;
  for (PortNum p = 1; p <= leaf.num_ports(); ++p) {
    if (leaf.ports[p].connected()) ++cables;
  }
  EXPECT_EQ(cables, 4u);
}

TEST(Ring, StructureAndConnectivity) {
  Fabric fabric;
  const auto built = topology::build_ring(fabric, 5, 2, 8);
  EXPECT_EQ(built.leaves.size(), 5u);
  EXPECT_EQ(built.host_slots.size(), 10u);
  fabric.validate();
  EXPECT_TRUE(switch_graph_connected(fabric));
  EXPECT_THROW(topology::build_ring(fabric, 2, 1, 8), std::invalid_argument);
}

TEST(Torus, StructureAndConnectivity) {
  Fabric fabric;
  const auto built = topology::build_torus_2d(fabric, 3, 4, 1, 8);
  EXPECT_EQ(built.leaves.size(), 12u);
  fabric.validate();
  EXPECT_TRUE(switch_graph_connected(fabric));
  // Every torus switch has exactly 4 switch links.
  for (NodeId sw : built.leaves) {
    const Node& n = fabric.node(sw);
    std::size_t cables = 0;
    for (PortNum p = 1; p <= n.num_ports(); ++p) {
      if (n.ports[p].connected()) ++cables;
    }
    EXPECT_EQ(cables, 4u);
  }
}

TEST(Irregular, DeterministicForSeed) {
  Fabric f1, f2;
  const topology::IrregularParams params{.num_switches = 12,
                                         .hosts_per_switch = 2,
                                         .extra_links = 6,
                                         .radix = 10,
                                         .seed = 77};
  const auto b1 = topology::build_irregular(f1, params);
  const auto b2 = topology::build_irregular(f2, params);
  EXPECT_EQ(topology::to_link_list(f1), topology::to_link_list(f2));
  EXPECT_TRUE(switch_graph_connected(f1));
  EXPECT_EQ(b1.host_slots.size(), b2.host_slots.size());
}

TEST(Irregular, ConnectedAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Fabric fabric;
    topology::build_irregular(
        fabric, topology::IrregularParams{.num_switches = 9,
                                          .hosts_per_switch = 1,
                                          .extra_links = 4,
                                          .radix = 12,
                                          .seed = seed});
    fabric.validate();
    EXPECT_TRUE(switch_graph_connected(fabric)) << "seed " << seed;
  }
}

TEST(Hosts, AttachAndLimit) {
  Fabric fabric;
  const auto built = topology::build_ring(fabric, 3, 3, 8);
  const auto some = topology::attach_hosts(fabric, built.host_slots, 4);
  EXPECT_EQ(some.size(), 4u);
  fabric.validate();
  for (NodeId host : some) {
    EXPECT_TRUE(fabric.physical_attachment(host).has_value());
  }
}

TEST(Export, DotAndLinkList) {
  Fabric fabric;
  const auto built = topology::build_ring(fabric, 3, 1, 8);
  topology::attach_hosts(fabric, built.host_slots);
  const std::string dot = topology::to_dot(fabric);
  EXPECT_NE(dot.find("graph fabric"), std::string::npos);
  EXPECT_NE(dot.find("ring-0"), std::string::npos);
  EXPECT_NE(dot.find("host-0"), std::string::npos);
  const std::string links = topology::to_link_list(fabric);
  // 3 ring cables + 3 host cables, one line each.
  EXPECT_EQ(std::count(links.begin(), links.end(), '\n'), 6);
  const std::string sum = topology::summary(fabric);
  EXPECT_NE(sum.find("3 physical switches"), std::string::npos);
}

TEST(LinkListIo, RoundTripsPhysicalTopologies) {
  Fabric original;
  const auto built = topology::build_two_level_fat_tree(
      original, topology::TwoLevelParams{.num_leaves = 3,
                                         .num_spines = 2,
                                         .hosts_per_leaf = 2,
                                         .radix = 36});
  topology::attach_hosts(original, built.host_slots);
  const std::string text = topology::to_link_list(original);

  const Fabric parsed = topology::from_link_list(text);
  EXPECT_EQ(parsed.num_switches(true), original.num_switches(true));
  EXPECT_EQ(parsed.num_cas(), original.num_cas());
  // Re-export equals the import modulo line order and cable direction
  // (each cable is listed once, from whichever end has the lower NodeId).
  auto canonical = [](const std::string& s) {
    std::vector<std::string> lines;
    std::istringstream in(s);
    std::string a, b, pa, pb;
    while (in >> a >> pa >> b >> pb) {
      const std::string fwd = a + " " + pa + " " + b + " " + pb;
      const std::string rev = b + " " + pb + " " + a + " " + pa;
      lines.push_back(std::min(fwd, rev));
    }
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  EXPECT_EQ(canonical(topology::to_link_list(parsed)), canonical(text));
}

TEST(LinkListIo, CommentsAndCustomSwitchNames) {
  const std::string text =
      "# hand-written fabric\n"
      "alpha 1 host-a 1\n"
      "alpha 2 host-b 1\n";
  const Fabric fabric = topology::from_link_list(text, {"alpha"});
  EXPECT_EQ(fabric.num_switches(true), 1u);
  EXPECT_EQ(fabric.num_cas(), 2u);
}

TEST(LinkListIo, MalformedInputRejected) {
  EXPECT_THROW(topology::from_link_list("sw0 1 host\n"),
               std::invalid_argument);
  EXPECT_THROW(topology::from_link_list("sw0 0 host 1\n"),
               std::invalid_argument);
  EXPECT_THROW(topology::from_link_list("sw0 1 host 1\nsw0 1 other 1\n"),
               std::invalid_argument);  // port reused
}

}  // namespace
}  // namespace ibvs
