#include "net/shard_map.hpp"

#include <gtest/gtest.h>

#include <set>

#include "net/fat_tree.hpp"
#include "net/paths.hpp"
#include "net/tree.hpp"

namespace mayflower::net {
namespace {

TEST(ShardMap, DefaultIsSingleShard) {
  const ShardMap map;
  EXPECT_EQ(map.shard_count(), 1u);
  EXPECT_EQ(map.shard_of_node(0), 0u);
  EXPECT_EQ(map.shard_of_node(12345), 0u);  // out of range -> catch-all
}

TEST(ShardMap, ByEdgeSwitchCoversThreeTier) {
  const ThreeTier t = build_three_tier(ThreeTierConfig{});
  const ShardMap map = ShardMap::by_edge_switch(t.topo);
  ASSERT_GT(map.shard_count(), 1u);
  // One shard per edge switch plus the catch-all shard 0.
  EXPECT_EQ(map.shard_count(), t.edge_switches.size() + 1);

  // Edge switches own distinct non-zero shards.
  std::set<std::uint32_t> edge_shards;
  for (const NodeId e : t.edge_switches) {
    const std::uint32_t s = map.shard_of_node(e);
    EXPECT_NE(s, 0u);
    edge_shards.insert(s);
  }
  EXPECT_EQ(edge_shards.size(), t.edge_switches.size());

  // Every host lands in its own edge switch's shard.
  for (const NodeId h : t.hosts) {
    EXPECT_EQ(map.shard_of_node(h), map.shard_of_node(t.edge_of_host(h)));
  }

  // Agg and core switches fall through to the catch-all.
  for (const auto& pod : t.agg_switches) {
    for (const NodeId a : pod) EXPECT_EQ(map.shard_of_node(a), 0u);
  }
  for (const NodeId c : t.core_switches) {
    EXPECT_EQ(map.shard_of_node(c), 0u);
  }
}

TEST(ShardMap, ByEdgeSwitchCoversFatTree) {
  const ThreeTier t = three_tier_from_fat_tree(FatTreeConfig{.k = 8});
  const ShardMap map = ShardMap::by_edge_switch(t.topo);
  EXPECT_EQ(map.shard_count(), 33u);  // 32 edge switches + catch-all
  for (const NodeId h : t.hosts) {
    EXPECT_EQ(map.shard_of_node(h), map.shard_of_node(t.edge_of_host(h)));
  }
}

TEST(ShardMap, ShardOfPathUsesSourceEndpoint) {
  const ThreeTier t = build_three_tier(ThreeTierConfig{});
  const ShardMap map = ShardMap::by_edge_switch(t.topo);
  // A cross-rack path is sharded by where it STARTS — the source's edge
  // switch — no matter which racks it crosses.
  const auto paths = shortest_paths(t.topo, t.hosts[0], t.hosts.back());
  ASSERT_FALSE(paths.empty());
  for (const Path& p : paths) {
    EXPECT_EQ(map.shard_of_path(p), map.shard_of_node(t.hosts[0]));
  }
  const auto reverse = shortest_paths(t.topo, t.hosts.back(), t.hosts[0]);
  for (const Path& p : reverse) {
    EXPECT_EQ(map.shard_of_path(p), map.shard_of_node(t.hosts.back()));
  }
}

TEST(ShardMap, UnshardedMapToleratesSyntheticPaths) {
  // Unit tests elsewhere build Path objects with empty node lists; the
  // default (one-shard) map must accept them without asserting.
  const ShardMap map;
  EXPECT_EQ(map.shard_of_path(Path{}), 0u);
}

}  // namespace
}  // namespace mayflower::net
