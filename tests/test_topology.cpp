#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "net/fat_tree.hpp"
#include "net/tree.hpp"

namespace mayflower::net {
namespace {

TEST(Topology, AddNodesAndLinks) {
  Topology t;
  const NodeId a = t.add_node(NodeKind::kHost, "a");
  const NodeId b = t.add_node(NodeKind::kEdgeSwitch, "b");
  const LinkId ab = t.add_link(a, b, 100.0);
  EXPECT_EQ(t.node_count(), 2u);
  EXPECT_EQ(t.link_count(), 1u);
  EXPECT_EQ(t.link(ab).from, a);
  EXPECT_EQ(t.link(ab).to, b);
  EXPECT_DOUBLE_EQ(t.link(ab).capacity_bps, 100.0);
  EXPECT_EQ(t.find_link(a, b), ab);
  EXPECT_EQ(t.find_link(b, a), kInvalidLink);
}

TEST(Topology, DuplexAddsBothDirections) {
  Topology t;
  const NodeId a = t.add_node(NodeKind::kHost, "a");
  const NodeId b = t.add_node(NodeKind::kEdgeSwitch, "b");
  t.add_duplex(a, b, 10.0);
  EXPECT_NE(t.find_link(a, b), kInvalidLink);
  EXPECT_NE(t.find_link(b, a), kInvalidLink);
  EXPECT_NE(t.find_link(a, b), t.find_link(b, a));
}

TEST(Topology, OutAndInLinks) {
  Topology t;
  const NodeId a = t.add_node(NodeKind::kHost, "a");
  const NodeId b = t.add_node(NodeKind::kEdgeSwitch, "b");
  const NodeId c = t.add_node(NodeKind::kEdgeSwitch, "c");
  t.add_link(a, b, 1.0);
  t.add_link(a, c, 1.0);
  t.add_link(b, a, 1.0);
  EXPECT_EQ(t.out_links(a).size(), 2u);
  EXPECT_EQ(t.in_links(a).size(), 1u);
}

TEST(Topology, EdgeSwitchesAreTheSwitchesHostsHangOff) {
  // Tier labels do not matter: a switch with an attached host is an edge.
  Topology t;
  const NodeId h = t.add_node(NodeKind::kHost, "h");
  const NodeId core = t.add_node(NodeKind::kCoreSwitch, "core");
  const NodeId edge = t.add_node(NodeKind::kAggSwitch, "edge");
  t.add_duplex(h, edge, 1.0);
  t.add_duplex(edge, core, 1.0);
  EXPECT_EQ(edge_switches(t), std::vector<NodeId>{edge});

  // The built fabrics: exactly their edge tier, in node order.
  for (const ThreeTier& tree :
       {build_three_tier(ThreeTierConfig{}),
        three_tier_from_fat_tree(FatTreeConfig{.k = 8})}) {
    std::vector<NodeId> want = tree.edge_switches;
    std::sort(want.begin(), want.end());
    EXPECT_EQ(edge_switches(tree.topo), want);
  }
}

class ThreeTierTest : public ::testing::Test {
 protected:
  ThreeTierTest() : tree_(build_three_tier(ThreeTierConfig{})) {}
  ThreeTier tree_;
};

TEST_F(ThreeTierTest, NodeCounts) {
  // 4 pods x 4 racks x 4 hosts = 64 hosts; 16 edge; 8 agg; 2 core.
  EXPECT_EQ(tree_.hosts.size(), 64u);
  EXPECT_EQ(tree_.edge_switches.size(), 16u);
  EXPECT_EQ(tree_.agg_switches.size(), 4u);
  EXPECT_EQ(tree_.agg_switches[0].size(), 2u);
  EXPECT_EQ(tree_.core_switches.size(), 2u);
  EXPECT_EQ(tree_.topo.node_count(), 64u + 16u + 8u + 2u);
}

TEST_F(ThreeTierTest, LinkCounts) {
  // Duplex: hosts 64, edge->agg 16*2, agg->core 8*2; x2 directions.
  EXPECT_EQ(tree_.topo.link_count(), 2u * (64 + 32 + 16));
}

TEST_F(ThreeTierTest, HopDistances) {
  const NodeId h0 = tree_.hosts[0];
  const NodeId same_rack = tree_.hosts[1];
  const NodeId same_pod = tree_.hosts[4];    // next rack, same pod
  const NodeId other_pod = tree_.hosts[16];  // first host of pod 1
  EXPECT_EQ(tree_.topo.hop_distance(h0, same_rack), 2);
  EXPECT_EQ(tree_.topo.hop_distance(h0, same_pod), 4);
  EXPECT_EQ(tree_.topo.hop_distance(h0, other_pod), 6);
}

TEST_F(ThreeTierTest, RackAndPodCoordinates) {
  const NodeId h0 = tree_.hosts[0];
  EXPECT_TRUE(tree_.topo.same_rack(h0, tree_.hosts[3]));
  EXPECT_FALSE(tree_.topo.same_rack(h0, tree_.hosts[4]));
  EXPECT_TRUE(tree_.topo.same_pod(h0, tree_.hosts[15]));
  EXPECT_FALSE(tree_.topo.same_pod(h0, tree_.hosts[16]));
}

TEST_F(ThreeTierTest, HostUplinkAndDownlink) {
  for (const NodeId h : tree_.hosts) {
    const LinkId up = tree_.host_uplink(h);
    const LinkId down = tree_.host_downlink(h);
    EXPECT_EQ(tree_.topo.link(up).from, h);
    EXPECT_EQ(tree_.topo.link(down).to, h);
    EXPECT_EQ(tree_.topo.link(up).to, tree_.edge_of_host(h));
  }
}

TEST_F(ThreeTierTest, RackUplinksFaceTheAggTier) {
  const auto ups = tree_.rack_uplinks(tree_.hosts[0]);
  ASSERT_EQ(ups.size(), 2u);
  for (const LinkId l : ups) {
    EXPECT_EQ(tree_.topo.node(tree_.topo.link(l).from).kind,
              NodeKind::kEdgeSwitch);
    EXPECT_EQ(tree_.topo.node(tree_.topo.link(l).to).kind,
              NodeKind::kAggSwitch);
  }
}

TEST(ThreeTierConfig, DefaultIsEightToOne) {
  EXPECT_NEAR(ThreeTierConfig{}.oversubscription(), 8.0, 1e-9);
}

TEST(ThreeTierConfig, WithOversubscriptionHitsRequestedRatio) {
  for (const double ratio : {8.0, 16.0, 24.0}) {
    const auto cfg = ThreeTierConfig::with_oversubscription(ratio);
    EXPECT_NEAR(cfg.oversubscription(), ratio, 1e-9) << ratio;
    const ThreeTier t = build_three_tier(cfg);
    EXPECT_EQ(t.hosts.size(), 64u);
  }
}

TEST(ThreeTierConfig, HigherRatioMeansThinnerCoreLinks) {
  const auto r8 = ThreeTierConfig::with_oversubscription(8.0);
  const auto r16 = ThreeTierConfig::with_oversubscription(16.0);
  EXPECT_GT(r8.agg_uplink_bps, r16.agg_uplink_bps);
  EXPECT_NEAR(r8.agg_uplink_bps / r16.agg_uplink_bps, 2.0, 1e-9);
}

}  // namespace
}  // namespace mayflower::net
