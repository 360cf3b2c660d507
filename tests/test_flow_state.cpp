#include "flowserver/flow_state.hpp"

#include <gtest/gtest.h>

#include "net/paths.hpp"
#include "net/shard_map.hpp"
#include "net/topology.hpp"
#include "net/tree.hpp"

namespace mayflower::flowserver {
namespace {

sim::SimTime sec(double s) { return sim::SimTime::from_seconds(s); }

net::Path one_link_path(net::LinkId l) {
  net::Path p;
  p.links = {l};
  p.nodes = {0, 1};
  return p;
}

// Cookies of the table's flows crossing `link`, ascending, read through a
// decision snapshot: the table answers no per-link queries itself.
std::vector<sdn::Cookie> cookies_on_link(const FlowStateTable& t,
                                         net::LinkId link) {
  net::NetworkView view;
  t.snapshot_into(view);
  std::vector<const net::NetworkView::Flow*> flows;
  view.append_flows_on_link(link, flows);
  std::vector<sdn::Cookie> cookies;
  for (const net::NetworkView::Flow* f : flows) cookies.push_back(f->key);
  return cookies;
}

TEST(FlowStateTable, AddRegistersFrozenFlow) {
  FlowStateTable t;
  t.add(1, one_link_path(0), 100.0, 10.0, sec(0));
  const TrackedFlow* f = t.find(1);
  ASSERT_NE(f, nullptr);
  EXPECT_DOUBLE_EQ(f->bw_bps, 10.0);
  EXPECT_DOUBLE_EQ(f->remaining_bytes, 100.0);
  EXPECT_TRUE(f->frozen);
  // Freeze horizon = expected completion: 100/10 = 10s.
  EXPECT_EQ(f->freeze_until, sec(10.0));
}

TEST(FlowStateTable, DropErases) {
  FlowStateTable t;
  t.add(1, one_link_path(0), 100.0, 10.0, sec(0));
  t.drop(1);
  EXPECT_EQ(t.find(1), nullptr);
  EXPECT_EQ(t.size(), 0u);
  t.drop(1);  // idempotent
}

TEST(FlowStateTable, FrozenFlowIgnoresBandwidthSamples) {
  FlowStateTable t;
  t.add(1, one_link_path(0), 100.0, 10.0, sec(0));
  // Poll at t=1: 5 bytes moved => measured 5 B/s, but the flow is frozen
  // until t=10, so bw stays at the estimate.
  t.update_from_stats(1, 5.0, sec(1.0));
  EXPECT_DOUBLE_EQ(t.find(1)->bw_bps, 10.0);
  // Remaining is refreshed regardless.
  EXPECT_DOUBLE_EQ(t.find(1)->remaining_bytes, 95.0);
}

TEST(FlowStateTable, ExpiredFreezeAcceptsSamples) {
  FlowStateTable t;
  t.add(1, one_link_path(0), 100.0, 10.0, sec(0));
  t.update_from_stats(1, 5.0, sec(1.0));       // frozen, rejected
  t.update_from_stats(1, 60.0, sec(11.0));     // past freeze_until=10
  // Measured: (60-5)/(11-1) = 5.5 B/s.
  EXPECT_DOUBLE_EQ(t.find(1)->bw_bps, 5.5);
  EXPECT_FALSE(t.find(1)->frozen);
  EXPECT_DOUBLE_EQ(t.find(1)->remaining_bytes, 40.0);
}

TEST(FlowStateTable, SetBwRefreezes) {
  FlowStateTable t;
  t.add(1, one_link_path(0), 100.0, 10.0, sec(0));
  t.update_from_stats(1, 50.0, sec(11.0));  // unfreezes (measured 50/11)
  ASSERT_FALSE(t.find(1)->frozen);
  t.setbw(1, 25.0, sec(11.0));
  const TrackedFlow* f = t.find(1);
  EXPECT_TRUE(f->frozen);
  EXPECT_DOUBLE_EQ(f->bw_bps, 25.0);
  // Horizon proportional to remaining (50) / bw (25) = 2s.
  EXPECT_EQ(f->freeze_until, sec(13.0));
}

TEST(FlowStateTable, FreezeDisabledAcceptsEverySample) {
  FlowStateTable t;
  t.set_freeze_enabled(false);
  t.add(1, one_link_path(0), 100.0, 10.0, sec(0));
  EXPECT_FALSE(t.find(1)->frozen);
  t.update_from_stats(1, 5.0, sec(1.0));
  EXPECT_DOUBLE_EQ(t.find(1)->bw_bps, 5.0);
  t.setbw(1, 42.0, sec(2.0));
  EXPECT_FALSE(t.find(1)->frozen);  // SETBW does not freeze either
}

TEST(FlowStateTable, StatsForUnknownCookieAreIgnored) {
  FlowStateTable t;
  t.update_from_stats(404, 10.0, sec(1.0));  // must not crash or create
  EXPECT_EQ(t.size(), 0u);
}

TEST(FlowStateTable, RemainingNeverGoesNegative) {
  FlowStateTable t;
  t.add(1, one_link_path(0), 100.0, 10.0, sec(0));
  t.update_from_stats(1, 150.0, sec(1.0));  // counter overshoot
  EXPECT_DOUBLE_EQ(t.find(1)->remaining_bytes, 0.0);
}

TEST(FlowStateTable, ResizeAdjustsSizeRemainingAndHorizon) {
  FlowStateTable t;
  t.add(1, one_link_path(0), 100.0, 10.0, sec(0));
  t.resize(1, 40.0, sec(0));
  const TrackedFlow* f = t.find(1);
  EXPECT_DOUBLE_EQ(f->size_bytes, 40.0);
  EXPECT_DOUBLE_EQ(f->remaining_bytes, 40.0);
  EXPECT_EQ(f->freeze_until, sec(4.0));
}

TEST(FlowStateTable, FlowsOnLinkFiltersByPath) {
  FlowStateTable t;
  t.add(1, one_link_path(0), 10.0, 1.0, sec(0));
  t.add(2, one_link_path(1), 10.0, 1.0, sec(0));
  net::Path both;
  both.links = {0, 1};
  both.nodes = {0, 1, 2};
  t.add(3, both, 10.0, 1.0, sec(0));
  EXPECT_EQ(cookies_on_link(t, 0), (std::vector<sdn::Cookie>{1, 3}));
  EXPECT_EQ(cookies_on_link(t, 1), (std::vector<sdn::Cookie>{2, 3}));
  EXPECT_TRUE(cookies_on_link(t, 7).empty());
}

TEST(FlowStateTable, RemainingClampsAfterResizeOvershoot) {
  FlowStateTable t;
  t.add(1, one_link_path(0), 100.0, 10.0, sec(0));
  t.update_from_stats(1, 60.0, sec(1.0));  // counter already carried 60
  t.resize(1, 40.0, sec(1.0));             // multi-read shrinks below that
  t.update_from_stats(1, 70.0, sec(2.0));  // next poll overshoots the size
  EXPECT_DOUBLE_EQ(t.find(1)->remaining_bytes, 0.0);
}

TEST(FlowStateTable, FlowsOnLinkIteratesInCookieOrder) {
  FlowStateTable t;
  t.add(9, one_link_path(0), 10.0, 1.0, sec(0));
  t.add(2, one_link_path(0), 10.0, 1.0, sec(0));
  t.add(5, one_link_path(0), 10.0, 1.0, sec(0));
  EXPECT_EQ(cookies_on_link(t, 0), (std::vector<sdn::Cookie>{2, 5, 9}));
}

// --- sharded layout -------------------------------------------------------

class ShardedFlowStateTest : public ::testing::Test {
 protected:
  ShardedFlowStateTest()
      : tree_(net::build_three_tier(net::ThreeTierConfig{})) {
    table_.set_shard_map(net::ShardMap::by_edge_switch(tree_.topo));
  }

  net::Path path_between(net::NodeId a, net::NodeId b) {
    return net::shortest_paths(tree_.topo, a, b).at(0);
  }

  std::uint32_t shard_of_host(net::NodeId h) const {
    return table_.shard_map().shard_of_node(h);
  }

  net::ThreeTier tree_;
  FlowStateTable table_;
};

TEST_F(ShardedFlowStateTest, AddRoutesByPathSourceEdge) {
  ASSERT_GT(table_.shard_count(), 1u);
  const std::uint32_t s0 = shard_of_host(tree_.hosts[0]);
  const std::uint32_t s1 = shard_of_host(tree_.hosts[4]);
  ASSERT_NE(s0, s1);
  table_.add(1, path_between(tree_.hosts[0], tree_.hosts[1]), 100.0, 10.0,
             sec(0));
  // A cross-rack flow lives with its SOURCE edge (rack 0), not rack 1's.
  table_.add(2, path_between(tree_.hosts[0], tree_.hosts[4]), 100.0, 10.0,
             sec(0));
  table_.add(3, path_between(tree_.hosts[4], tree_.hosts[5]), 100.0, 10.0,
             sec(0));
  EXPECT_EQ(table_.shard_version(s0), 2u);
  EXPECT_EQ(table_.shard_version(s1), 1u);
  EXPECT_EQ(table_.version(), 3u);  // total = sum of shard versions
  EXPECT_EQ(table_.size(), 3u);
}

TEST_F(ShardedFlowStateTest, MutationsBumpOnlyTheirShard) {
  const std::uint32_t s0 = shard_of_host(tree_.hosts[0]);
  const std::uint32_t s1 = shard_of_host(tree_.hosts[4]);
  table_.add(1, path_between(tree_.hosts[0], tree_.hosts[1]), 100.0, 10.0,
             sec(0));
  table_.add(2, path_between(tree_.hosts[4], tree_.hosts[5]), 100.0, 10.0,
             sec(0));
  const std::uint64_t v0 = table_.shard_version(s0);
  const std::uint64_t v1 = table_.shard_version(s1);
  table_.setbw(2, 20.0, sec(1.0));
  EXPECT_EQ(table_.shard_version(s0), v0);
  EXPECT_EQ(table_.shard_version(s1), v1 + 1);
  table_.drop(1);
  EXPECT_EQ(table_.shard_version(s0), v0 + 1);
  EXPECT_EQ(table_.shard_version(s1), v1 + 1);
  EXPECT_EQ(table_.find(2)->path.nodes.front(), tree_.hosts[4]);
}

TEST_F(ShardedFlowStateTest, FlowsOnLinkMergeAcrossShardsInCookieOrder) {
  // Two flows from DIFFERENT racks converge on host 8's downlink; a
  // snapshot of the two shards must still list them in cookie order.
  const net::Path a = path_between(tree_.hosts[0], tree_.hosts[8]);
  const net::Path b = path_between(tree_.hosts[4], tree_.hosts[8]);
  const net::LinkId down =
      tree_.topo.find_link(tree_.edge_of_host(tree_.hosts[8]), tree_.hosts[8]);
  ASSERT_EQ(a.links.back(), down);
  ASSERT_EQ(b.links.back(), down);
  table_.add(7, a, 100.0, 10.0, sec(0));  // higher cookie added first
  table_.add(3, b, 100.0, 10.0, sec(0));
  EXPECT_EQ(cookies_on_link(table_, down), (std::vector<sdn::Cookie>{3, 7}));
}

TEST_F(ShardedFlowStateTest, SnapshotShardCopiesOneShard) {
  table_.add(1, path_between(tree_.hosts[0], tree_.hosts[1]), 100.0, 10.0,
             sec(0));
  table_.add(2, path_between(tree_.hosts[4], tree_.hosts[5]), 100.0, 10.0,
             sec(0));
  net::NetworkView view;
  view.reset_links(tree_.topo);
  view.set_shard_map(table_.shard_map());
  table_.snapshot_shard_into(view, shard_of_host(tree_.hosts[0]));
  EXPECT_NE(view.find(1), nullptr);
  EXPECT_EQ(view.find(2), nullptr);
  table_.snapshot_shard_into(view, shard_of_host(tree_.hosts[4]));
  EXPECT_NE(view.find(2), nullptr);
  EXPECT_EQ(view.flow_count(), 2u);
}

}  // namespace
}  // namespace mayflower::flowserver
