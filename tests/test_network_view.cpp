// Unit tests of the NetworkView decision snapshot: link facts, believed
// flows with their per-link lists, write-through mutations, the in-place
// shard sync and the tentative scope the read-only planners rely on.
#include "net/network_view.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "net/tree.hpp"

namespace mayflower::net {
namespace {

class NetworkViewTest : public ::testing::Test {
 protected:
  NetworkViewTest() : tree_(build_three_tier(ThreeTierConfig{})) {
    view_.reset_links(tree_.topo);
  }

  Path path_between(NodeId a, NodeId b) {
    return shortest_paths(tree_.topo, a, b).at(0);
  }

  // Keys of the believed flows crossing any link of `p`, ascending and
  // deduplicated, gathered link by link through the index.
  std::vector<std::uint64_t> keys_on_path(const Path& p) const {
    std::vector<const NetworkView::Flow*> flows;
    for (const LinkId l : p.links) view_.append_flows_on_link(l, flows);
    std::vector<std::uint64_t> keys;
    for (const NetworkView::Flow* f : flows) keys.push_back(f->key);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
  }

  ThreeTier tree_;
  NetworkView view_;
};

TEST_F(NetworkViewTest, ResetLinksStartsEverythingUpAtConfiguredCapacity) {
  ASSERT_EQ(view_.link_count(), tree_.topo.link_count());
  for (LinkId l = 0; l < static_cast<LinkId>(view_.link_count()); ++l) {
    EXPECT_TRUE(view_.link_up(l));
    EXPECT_DOUBLE_EQ(view_.capacity_bps(l), tree_.topo.link(l).capacity_bps);
    EXPECT_DOUBLE_EQ(view_.tx_rate_bps(l), 0.0);  // no monitor attached
  }
  EXPECT_EQ(view_.flow_count(), 0u);
}

TEST_F(NetworkViewTest, StampRecordsEpochAndBuildTime) {
  view_.stamp(42, sim::SimTime::from_seconds(3.5));
  EXPECT_EQ(view_.epoch(), 42u);
  EXPECT_DOUBLE_EQ(view_.built_at().seconds(), 3.5);
}

TEST_F(NetworkViewTest, PathAliveTracksMarkedDownLinks) {
  const Path p = path_between(tree_.hosts[0], tree_.hosts[16]);
  EXPECT_TRUE(view_.path_alive(p));
  view_.mark_link_down(p.links[1]);
  EXPECT_FALSE(view_.path_alive(p));
  EXPECT_FALSE(view_.link_up(p.links[1]));
  // Zero-hop paths (host-local reads) are always alive.
  EXPECT_TRUE(view_.path_alive(Path{}));
}

TEST_F(NetworkViewTest, TxRatesAreIndependentPerLink) {
  view_.set_tx_rate(3, 1.5e6);
  EXPECT_DOUBLE_EQ(view_.tx_rate_bps(3), 1.5e6);
  EXPECT_DOUBLE_EQ(view_.tx_rate_bps(4), 0.0);
}

TEST_F(NetworkViewTest, FlowsOnLinkAndPathComeBackInKeyOrder) {
  const Path p1 = path_between(tree_.hosts[0], tree_.hosts[1]);
  const Path p2 = path_between(tree_.hosts[2], tree_.hosts[1]);
  // Insert out of key order; lookups must still return ascending keys.
  view_.add_flow(9, p1, 1e6, 1e6);
  view_.add_flow(4, p2, 1e6, 1e6);
  view_.add_flow(7, p1, 1e6, 1e6);

  // p1 and p2 share the downlink into hosts[1] (the last link).
  const LinkId shared = p1.links.back();
  ASSERT_EQ(shared, p2.links.back());
  // Appending keeps what the buffer already holds.
  std::vector<const NetworkView::Flow*> on_shared{nullptr};
  view_.append_flows_on_link(shared, on_shared);
  ASSERT_EQ(on_shared.size(), 4u);
  EXPECT_EQ(on_shared[0], nullptr);
  EXPECT_EQ(on_shared[1]->key, 4u);
  EXPECT_EQ(on_shared[2]->key, 7u);
  EXPECT_EQ(on_shared[3]->key, 9u);

  // Over a path: 9 and 7 fully overlap p1, 4 joins at the end.
  EXPECT_EQ(keys_on_path(p1), (std::vector<std::uint64_t>{4, 7, 9}));

  // A disjoint path sees nothing.
  const Path far = path_between(tree_.hosts[40], tree_.hosts[41]);
  EXPECT_TRUE(keys_on_path(far).empty());
}

TEST_F(NetworkViewTest, WriteThroughMutationsUpdateFlowsAndIndex) {
  const Path p = path_between(tree_.hosts[0], tree_.hosts[1]);
  view_.add_flow(1, p, 8e6, 2e6);
  const NetworkView::Flow* f = view_.find(1);
  ASSERT_NE(f, nullptr);
  EXPECT_DOUBLE_EQ(f->remaining_bytes, 8e6);

  view_.set_flow_bps(1, 5e6);
  EXPECT_DOUBLE_EQ(view_.find(1)->bw_bps, 5e6);
  view_.resize_flow(1, 3e6);
  EXPECT_DOUBLE_EQ(view_.find(1)->size_bytes, 3e6);
  EXPECT_DOUBLE_EQ(view_.find(1)->remaining_bytes, 3e6);

  view_.drop_flow(1);
  EXPECT_EQ(view_.find(1), nullptr);
  EXPECT_TRUE(keys_on_path(p).empty());  // index pruned too
  view_.drop_flow(1);  // idempotent
}

TEST_F(NetworkViewTest, FlowStatsKeyedByCookie) {
  NetworkView::FlowStats s;
  s.bytes_sent = 123.0;
  s.path = path_between(tree_.hosts[0], tree_.hosts[1]);
  view_.set_flow_stats(77, s);
  ASSERT_NE(view_.flow_stats(77), nullptr);
  EXPECT_DOUBLE_EQ(view_.flow_stats(77)->bytes_sent, 123.0);
  EXPECT_EQ(view_.flow_stats(78), nullptr);
  EXPECT_EQ(view_.all_flow_stats().size(), 1u);
}

TEST_F(NetworkViewTest, RollbackRestoresPreTentativeState) {
  const Path p1 = path_between(tree_.hosts[0], tree_.hosts[1]);
  const Path p2 = path_between(tree_.hosts[2], tree_.hosts[3]);
  view_.add_flow(1, p1, 8e6, 2e6);

  view_.begin_tentative();
  EXPECT_TRUE(view_.tentative_active());
  view_.set_flow_bps(1, 9e6);        // mutate an existing flow
  view_.set_flow_bps(1, 1e6);        // twice: undo must keep FIRST-touch state
  view_.add_flow(2, p2, 4e6, 1e6);  // and add a new one
  view_.rollback_tentative();

  EXPECT_FALSE(view_.tentative_active());
  EXPECT_DOUBLE_EQ(view_.find(1)->bw_bps, 2e6);
  EXPECT_EQ(view_.find(2), nullptr);
  EXPECT_TRUE(keys_on_path(p2).empty());
}

TEST_F(NetworkViewTest, ScopeRefusesMutationsItCannotUndo) {
  view_.set_shard_map(ShardMap::by_edge_switch(tree_.topo));
  view_.add_flow(1, path_between(tree_.hosts[0], tree_.hosts[1]), 8e6, 2e6);
  view_.begin_tentative();
  EXPECT_DEATH(view_.drop_flow(1), "assertion failed");
  EXPECT_DEATH(view_.resize_flow(1, 1e6), "assertion failed");
  EXPECT_DEATH(view_.begin_sync(0), "assertion failed");
  view_.rollback_tentative();
  EXPECT_NE(view_.find(1), nullptr);
}

TEST_F(NetworkViewTest, SyncTouchesOnlyThatShardsFlows) {
  view_.set_shard_map(ShardMap::by_edge_switch(tree_.topo));
  ASSERT_GT(view_.shard_count(), 1u);
  // Two intra-rack flows in rack 0, one in rack 1, one cross-rack FROM
  // rack 0 (sharded by its source edge, rack 0).
  const Path rack0 = path_between(tree_.hosts[0], tree_.hosts[1]);
  const Path rack0b = path_between(tree_.hosts[1], tree_.hosts[2]);
  const Path rack1 = path_between(tree_.hosts[4], tree_.hosts[5]);
  const Path cross = path_between(tree_.hosts[0], tree_.hosts[4]);
  view_.add_flow(1, rack0, 8e6, 2e6);
  view_.add_flow(2, rack1, 8e6, 2e6);
  view_.add_flow(3, cross, 8e6, 2e6);
  view_.add_flow(4, rack0b, 8e6, 2e6);
  const std::uint32_t shard0 =
      view_.shard_map().shard_of_node(tree_.hosts[0]);
  ASSERT_EQ(view_.shard_flow_count(shard0), 3u);

  // The source now holds 1 (updated), 5 (new) and no longer 3 or 4.
  view_.begin_sync(shard0);
  view_.sync_flow(1, rack0, 8e6, 6e6, 3e6);
  view_.sync_flow(5, cross, 4e6, 4e6, 1e6);
  view_.end_sync();

  const NetworkView::Flow* updated = view_.find(1);
  ASSERT_NE(updated, nullptr);
  EXPECT_DOUBLE_EQ(updated->size_bytes, 8e6);
  EXPECT_DOUBLE_EQ(updated->remaining_bytes, 6e6);
  EXPECT_DOUBLE_EQ(updated->bw_bps, 3e6);
  EXPECT_EQ(view_.find(3), nullptr);
  EXPECT_EQ(view_.find(4), nullptr);
  ASSERT_NE(view_.find(5), nullptr);
  EXPECT_EQ(view_.shard_flow_count(shard0), 2u);
  // Another shard's flow is untouched, and the link lists follow the sync.
  ASSERT_NE(view_.find(2), nullptr);
  EXPECT_DOUBLE_EQ(view_.find(2)->bw_bps, 2e6);
  EXPECT_EQ(keys_on_path(rack0), (std::vector<std::uint64_t>{1, 5}));
  EXPECT_TRUE(keys_on_path(rack0b).empty());  // 4 left with its links
  EXPECT_EQ(keys_on_path(rack1), (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(view_.flow_count(), 3u);
}

TEST_F(NetworkViewTest, SyncReloadsAKeyWhosePathChanged) {
  view_.set_shard_map(ShardMap::by_edge_switch(tree_.topo));
  const Path before = path_between(tree_.hosts[0], tree_.hosts[1]);
  const Path after = path_between(tree_.hosts[0], tree_.hosts[2]);
  view_.add_flow(1, before, 8e6, 2e6);
  view_.add_flow(2, before, 8e6, 2e6);
  const std::uint32_t s = view_.shard_map().shard_of_node(tree_.hosts[0]);
  view_.begin_sync(s);
  view_.sync_flow(1, after, 8e6, 8e6, 2e6);  // dropped, re-added elsewhere
  view_.sync_flow(2, before, 8e6, 8e6, 2e6);
  view_.end_sync();
  ASSERT_NE(view_.find(1), nullptr);
  EXPECT_EQ(view_.find(1)->path.nodes, after.nodes);
  std::vector<const NetworkView::Flow*> on_old;
  view_.append_flows_on_link(before.links.back(), on_old);
  ASSERT_EQ(on_old.size(), 1u);
  EXPECT_EQ(on_old[0]->key, 2u);
  EXPECT_EQ(keys_on_path(after), (std::vector<std::uint64_t>{1, 2}));
}

TEST_F(NetworkViewTest, SyncRefusesAFlowOfAnotherShard) {
  view_.set_shard_map(ShardMap::by_edge_switch(tree_.topo));
  const std::uint32_t s = view_.shard_map().shard_of_node(tree_.hosts[0]);
  view_.begin_sync(s);
  EXPECT_DEATH(view_.sync_flow(1, path_between(tree_.hosts[4], tree_.hosts[5]),
                               8e6, 8e6, 2e6),
               "assertion failed");
  EXPECT_DEATH(view_.begin_sync(s), "assertion failed");  // no nesting
  view_.end_sync();
}

TEST_F(NetworkViewTest, ShardStampsRoundTrip) {
  view_.set_shard_map(ShardMap::by_edge_switch(tree_.topo));
  EXPECT_EQ(view_.shard_stamp(2), 0u);  // unstamped: never built
  view_.stamp_shard(2, 17);
  view_.stamp_shard(5, 3);
  EXPECT_EQ(view_.shard_stamp(2), 17u);
  EXPECT_EQ(view_.shard_stamp(5), 3u);
  EXPECT_EQ(view_.shard_stamp(1), 0u);
}

TEST_F(NetworkViewTest, RefreshLinkStateKeepsBelievedFlows) {
  const Path p = path_between(tree_.hosts[0], tree_.hosts[1]);
  view_.add_flow(1, p, 8e6, 2e6);
  view_.mark_link_down(p.links[0]);
  view_.set_tx_rate(p.links[0], 5e6);
  view_.refresh_link_state(tree_.topo);
  // Link sections are re-initialized (all up, configured capacity, no
  // rates)...
  EXPECT_TRUE(view_.link_up(p.links[0]));
  EXPECT_DOUBLE_EQ(view_.tx_rate_bps(p.links[0]), 0.0);
  // ...while the believed-flow section survives untouched.
  ASSERT_NE(view_.find(1), nullptr);
  EXPECT_EQ(keys_on_path(p).size(), 1u);
}

TEST_F(NetworkViewTest, RollbackRestoresShardTrackedFlow) {
  // The undo path must maintain the per-shard key lists it removes from.
  view_.set_shard_map(ShardMap::by_edge_switch(tree_.topo));
  const Path p = path_between(tree_.hosts[0], tree_.hosts[1]);
  const Path q = path_between(tree_.hosts[0], tree_.hosts[2]);
  view_.add_flow(1, p, 8e6, 2e6);
  view_.add_flow(3, q, 8e6, 2e6);
  view_.begin_tentative();
  view_.add_flow(2, p, 4e6, 1e6);
  view_.set_flow_bps(1, 1e6);
  view_.rollback_tentative();
  ASSERT_NE(view_.find(1), nullptr);
  EXPECT_DOUBLE_EQ(view_.find(1)->bw_bps, 2e6);
  EXPECT_EQ(view_.find(2), nullptr);
  EXPECT_EQ(keys_on_path(p), (std::vector<std::uint64_t>{1, 3}));
  // Shard bookkeeping stayed consistent: syncing the shard empty must
  // remove exactly the pre-scope flows without tripping the list asserts.
  const std::uint32_t s = view_.shard_map().shard_of_node(tree_.hosts[0]);
  EXPECT_EQ(view_.shard_flow_count(s), 2u);
  view_.begin_sync(s);
  view_.end_sync();
  EXPECT_EQ(view_.find(1), nullptr);
  EXPECT_EQ(view_.find(3), nullptr);
  EXPECT_EQ(view_.flow_count(), 0u);
}

}  // namespace
}  // namespace mayflower::net
