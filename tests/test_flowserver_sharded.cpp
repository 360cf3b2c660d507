// The sharded state plane's contract, end to end through the Flowserver:
//  * decisions are byte-identical to the legacy single-shard layout;
//  * churn reloads only the shard it touched;
//  * a switch crash stales exactly the crashed edge's shard.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "flowserver/flowserver.hpp"
#include "net/paths.hpp"
#include "net/tree.hpp"

namespace mayflower::flowserver {
namespace {

class ShardedFlowserverTest : public ::testing::Test {
 protected:
  ShardedFlowserverTest()
      : tree_(net::build_three_tier(net::ThreeTierConfig{})),
        fabric_(events_, tree_.topo) {}

  FlowserverConfig sharded_config() {
    FlowserverConfig cfg;
    cfg.shard_by_edge = true;
    cfg.seed = 7;
    return cfg;
  }

  // Preloads `n` intra-pod flows (same draw for every server under test).
  void preload(Flowserver& server, std::size_t n) {
    Rng rng(42);
    net::PathCache cache(tree_.topo);
    const std::size_t hosts_per_pod =
        tree_.hosts.size() / tree_.config.pods;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t pod = rng.next_below(tree_.config.pods);
      const net::NodeId src =
          tree_.hosts[pod * hosts_per_pod + rng.next_below(hosts_per_pod)];
      net::NodeId dst = src;
      while (dst == src) {
        dst = tree_.hosts[pod * hosts_per_pod +
                          rng.next_below(hosts_per_pod)];
      }
      const auto& paths = cache.get(src, dst);
      server.table().add(static_cast<sdn::Cookie>(1000000 + i),
                         paths[rng.next_below(paths.size())], 256e6,
                         rng.uniform(1e6, 125e6), sim::SimTime{});
    }
  }

  sim::EventQueue events_;
  net::ThreeTier tree_;
  sdn::SdnFabric fabric_;
};

TEST_F(ShardedFlowserverTest, DecisionsMatchLegacyByteForByte) {
  // Same fabric, same preload, same churny request stream: the sharded
  // layout must emit the exact decision sequence the legacy layout does.
  FlowserverConfig legacy_cfg;
  legacy_cfg.seed = 7;
  Flowserver legacy(fabric_, legacy_cfg);
  Flowserver sharded(fabric_, sharded_config());
  ASSERT_GT(sharded.state_shards(), 1u);
  ASSERT_EQ(legacy.state_shards(), 1u);
  preload(legacy, 256);
  preload(sharded, 256);

  Rng req(9);
  Rng churn(11);
  for (int i = 0; i < 32; ++i) {
    // Background churn between decisions: stales one shard vs the table.
    const auto victim = static_cast<sdn::Cookie>(
        1000000 + churn.next_below(256));
    const double bw = churn.uniform(1e6, 125e6);
    legacy.table().setbw(victim, bw, sim::SimTime{});
    sharded.table().setbw(victim, bw, sim::SimTime{});

    const net::NodeId client = tree_.hosts[req.next_below(tree_.hosts.size())];
    std::vector<net::NodeId> reps;
    while (reps.size() < 3) {
      const net::NodeId r = tree_.hosts[req.next_below(tree_.hosts.size())];
      bool dup = r == client;
      for (const net::NodeId seen : reps) dup |= (seen == r);
      if (!dup) reps.push_back(r);
    }
    const auto a = legacy.select_for_read(client, reps, 64e6);
    const auto b = sharded.select_for_read(client, reps, 64e6);
    ASSERT_EQ(a.size(), b.size()) << "request " << i;
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].replica, b[j].replica) << "request " << i;
      EXPECT_EQ(a[j].path.nodes, b[j].path.nodes) << "request " << i;
      EXPECT_EQ(a[j].bytes, b[j].bytes) << "request " << i;
      EXPECT_EQ(a[j].est_bw_bps, b[j].est_bw_bps) << "request " << i;
    }
    // Keep the two tables in lockstep (cookies differ across servers, so
    // drop both plans rather than letting the flows linger).
    for (const auto& x : a) legacy.flow_dropped(x.cookie);
    for (const auto& x : b) sharded.flow_dropped(x.cookie);
  }
}

TEST_F(ShardedFlowserverTest, ChurnReloadsOnlyTheTouchedShard) {
  Flowserver server(fabric_, sharded_config());
  preload(server, 64);
  const auto plan =
      server.select_for_read(tree_.hosts[0], {tree_.hosts[20]}, 64e6);
  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(server.full_view_rebuilds(), 1u);
  const std::uint64_t reloads_before = server.shard_reloads();

  // SETBW on one background flow: exactly one shard goes stale.
  server.table().setbw(1000000, 9e6, sim::SimTime{});
  const auto plan2 =
      server.select_for_read(tree_.hosts[0], {tree_.hosts[20]}, 64e6);
  ASSERT_FALSE(plan2.empty());
  EXPECT_EQ(server.full_view_rebuilds(), 1u);  // no full rebuild
  EXPECT_EQ(server.shard_reloads(), reloads_before + 1);
}

TEST_F(ShardedFlowserverTest, SwitchCrashStalesExactlyOneShard) {
  Flowserver server(fabric_, sharded_config());

  // One fabric-started intra-rack flow per rack 0 and rack 1: the crash
  // below must kill (and so stale) rack 0's only, leaving rack 1 loaded.
  net::PathCache cache(tree_.topo);
  const auto start = [&](net::NodeId src, net::NodeId dst) {
    const net::Path path = cache.get(src, dst)[0];
    const sdn::Cookie c = fabric_.new_cookie();
    fabric_.install_path(c, path);
    fabric_.start_flow(c, path, 1e9);
    server.table().add(c, path, 1e9, 60e6, sim::SimTime{});
    return c;
  };
  const sdn::Cookie rack0_flow = start(tree_.hosts[0], tree_.hosts[1]);
  const sdn::Cookie rack1_flow = start(tree_.hosts[4], tree_.hosts[5]);

  const auto plan =
      server.select_for_read(tree_.hosts[8], {tree_.hosts[12]}, 64e6);
  ASSERT_FALSE(plan.empty());
  for (const auto& a : plan) server.flow_dropped(a.cookie);
  server.view();  // absorb the drop before the fault
  const std::uint64_t full_before = server.full_view_rebuilds();
  const std::uint64_t reloads_before = server.shard_reloads();
  const std::uint64_t links_before = server.link_refreshes();

  // Crash rack 0's edge switch: the failure listener drops rack0_flow from
  // the table, staling rack 0's shard — and no other.
  fabric_.fail_switch(tree_.edge_switches[0]);
  EXPECT_EQ(server.table().find(rack0_flow), nullptr);
  ASSERT_NE(server.table().find(rack1_flow), nullptr);

  const net::NetworkView& view = server.view();
  EXPECT_EQ(server.full_view_rebuilds(), full_before);
  EXPECT_EQ(server.shard_reloads(), reloads_before + 1);  // exactly one
  EXPECT_EQ(server.link_refreshes(), links_before + 1);   // fault epoch moved
  EXPECT_EQ(view.find(rack0_flow), nullptr);
  EXPECT_NE(view.find(rack1_flow), nullptr);
  EXPECT_FALSE(view.link_up(
      tree_.topo.find_link(tree_.hosts[0], tree_.edge_switches[0])));
}

}  // namespace
}  // namespace mayflower::flowserver
