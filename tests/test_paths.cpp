#include "net/paths.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <set>

#include "figure2_fixture.hpp"
#include "net/ecmp.hpp"
#include "net/fat_tree.hpp"
#include "net/tree.hpp"

namespace mayflower::net {
namespace {

// The enumeration shortest_paths() replaced, kept as its oracle: BFS
// distance labels, then a DFS along every distance-increasing link from
// src, into every dead end inside dist(dst).
void unpruned_extend(const Topology& topo, const std::vector<int>& dist,
                     NodeId dst, Path& partial, std::vector<Path>& out) {
  const NodeId u = partial.nodes.back();
  if (u == dst) {
    out.push_back(partial);
    return;
  }
  for (const LinkId l : topo.out_links(u)) {
    const NodeId v = topo.link(l).to;
    if (dist[v] != dist[u] + 1) continue;
    partial.links.push_back(l);
    partial.nodes.push_back(v);
    unpruned_extend(topo, dist, dst, partial, out);
    partial.links.pop_back();
    partial.nodes.pop_back();
  }
}

std::vector<Path> unpruned_shortest_paths(const Topology& topo, NodeId src,
                                          NodeId dst) {
  std::vector<Path> out;
  if (src == dst) {
    Path p;
    p.nodes.push_back(src);
    out.push_back(std::move(p));
    return out;
  }
  std::vector<int> dist(topo.node_count(), -1);
  dist[src] = 0;
  std::deque<NodeId> queue{src};
  int limit = -1;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    if (limit >= 0 && dist[u] >= limit) break;
    for (const LinkId l : topo.out_links(u)) {
      const NodeId v = topo.link(l).to;
      if (dist[v] >= 0) continue;
      dist[v] = dist[u] + 1;
      if (v == dst) limit = dist[v];
      queue.push_back(v);
    }
  }
  if (dist[dst] < 0) return out;
  Path partial;
  partial.nodes.push_back(src);
  unpruned_extend(topo, dist, dst, partial, out);
  return out;
}

// What a topology's ordered pairs exercised.
struct PairCoverage {
  std::size_t unreachable = 0;
  std::size_t multipath = 0;  // pairs with more than one shortest path
};

// shortest_paths() against the oracle for every ordered pair of nodes,
// hosts and switches alike: the same paths in the same order.
PairCoverage expect_matches_oracle(const Topology& topo) {
  PairCoverage cov;
  for (NodeId src = 0; src < topo.node_count(); ++src) {
    for (NodeId dst = 0; dst < topo.node_count(); ++dst) {
      const std::vector<Path> oracle = unpruned_shortest_paths(topo, src, dst);
      const std::vector<Path> paths = shortest_paths(topo, src, dst);
      EXPECT_EQ(paths.size(), oracle.size()) << src << " -> " << dst;
      if (paths.size() != oracle.size()) return cov;
      for (std::size_t i = 0; i < paths.size(); ++i) {
        EXPECT_EQ(paths[i].links, oracle[i].links) << src << " -> " << dst;
        EXPECT_EQ(paths[i].nodes, oracle[i].nodes) << src << " -> " << dst;
      }
      if (oracle.empty()) ++cov.unreachable;
      if (oracle.size() > 1) ++cov.multipath;
    }
  }
  return cov;
}

class TreePaths : public ::testing::Test {
 protected:
  TreePaths() : tree_(build_three_tier(ThreeTierConfig{})) {}
  ThreeTier tree_;
};

TEST_F(TreePaths, SameRackHasOneTwoLinkPath) {
  const auto paths =
      shortest_paths(tree_.topo, tree_.hosts[0], tree_.hosts[1]);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].length(), 2u);
  EXPECT_EQ(paths[0].nodes.front(), tree_.hosts[0]);
  EXPECT_EQ(paths[0].nodes.back(), tree_.hosts[1]);
}

TEST_F(TreePaths, SamePodHasTwoFourLinkPaths) {
  const auto paths =
      shortest_paths(tree_.topo, tree_.hosts[0], tree_.hosts[4]);
  ASSERT_EQ(paths.size(), 2u);  // one per aggregation switch
  for (const Path& p : paths) {
    EXPECT_EQ(p.length(), 4u);
  }
}

TEST_F(TreePaths, CrossPodHasEightSixLinkPaths) {
  // 2 src aggs x 2 cores x 2 dst aggs = 8 distinct shortest paths.
  const auto paths =
      shortest_paths(tree_.topo, tree_.hosts[0], tree_.hosts[16]);
  ASSERT_EQ(paths.size(), 8u);
  std::set<std::vector<LinkId>> distinct;
  for (const Path& p : paths) {
    EXPECT_EQ(p.length(), 6u);
    distinct.insert(p.links);
  }
  EXPECT_EQ(distinct.size(), 8u);
}

TEST_F(TreePaths, PathLinksAreConsistentWithNodes) {
  const auto paths =
      shortest_paths(tree_.topo, tree_.hosts[0], tree_.hosts[16]);
  for (const Path& p : paths) {
    ASSERT_EQ(p.nodes.size(), p.links.size() + 1);
    for (std::size_t i = 0; i < p.links.size(); ++i) {
      EXPECT_EQ(tree_.topo.link(p.links[i]).from, p.nodes[i]);
      EXPECT_EQ(tree_.topo.link(p.links[i]).to, p.nodes[i + 1]);
    }
  }
}

TEST_F(TreePaths, SelfPathIsZeroLength) {
  const auto paths =
      shortest_paths(tree_.topo, tree_.hosts[0], tree_.hosts[0]);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].length(), 0u);
}

TEST(Paths, UnreachableReturnsEmpty) {
  Topology t;
  const NodeId a = t.add_node(NodeKind::kHost, "a");
  const NodeId b = t.add_node(NodeKind::kHost, "b");
  const NodeId s = t.add_node(NodeKind::kEdgeSwitch, "s");
  t.add_link(a, s, 1.0);
  t.add_link(s, b, 1.0);
  EXPECT_EQ(shortest_paths(t, a, b).size(), 1u);
  EXPECT_TRUE(shortest_paths(t, b, a).empty());  // directed: no way back
}

TEST(Paths, OnlyShortestLengthIsEnumerated) {
  // Diamond with an extra longer detour: a->s1->b (2 links) and
  // a->s2->s3->b (3 links). Only the 2-link path must be returned.
  Topology t;
  const NodeId a = t.add_node(NodeKind::kHost, "a");
  const NodeId b = t.add_node(NodeKind::kHost, "b");
  const NodeId s1 = t.add_node(NodeKind::kEdgeSwitch, "s1");
  const NodeId s2 = t.add_node(NodeKind::kEdgeSwitch, "s2");
  const NodeId s3 = t.add_node(NodeKind::kEdgeSwitch, "s3");
  t.add_link(a, s1, 1.0);
  t.add_link(s1, b, 1.0);
  t.add_link(a, s2, 1.0);
  t.add_link(s2, s3, 1.0);
  t.add_link(s3, b, 1.0);
  const auto paths = shortest_paths(t, a, b);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].length(), 2u);
}

TEST(Paths, ContainsLink) {
  Topology t;
  const NodeId a = t.add_node(NodeKind::kHost, "a");
  const NodeId s = t.add_node(NodeKind::kEdgeSwitch, "s");
  const NodeId b = t.add_node(NodeKind::kHost, "b");
  const LinkId l1 = t.add_link(a, s, 1.0);
  const LinkId l2 = t.add_link(s, b, 1.0);
  const auto paths = shortest_paths(t, a, b);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_TRUE(paths[0].contains_link(l1));
  EXPECT_TRUE(paths[0].contains_link(l2));
  EXPECT_FALSE(paths[0].contains_link(kInvalidLink));
}

TEST(PathsOracle, PaperTreeMatchesUnprunedEnumeration) {
  const ThreeTier tree = build_three_tier(ThreeTierConfig{});
  EXPECT_GT(expect_matches_oracle(tree.topo).multipath, 0u);
}

TEST(PathsOracle, WiderTreeMatchesUnprunedEnumeration) {
  ThreeTierConfig cfg;
  cfg.aggs_per_pod = 3;
  cfg.cores = 4;
  const ThreeTier tree = build_three_tier(cfg);
  EXPECT_GT(expect_matches_oracle(tree.topo).multipath, 0u);
}

TEST(PathsOracle, FatTreesMatchUnprunedEnumeration) {
  for (const std::uint32_t k : {4u, 8u}) {
    const ThreeTier tree = three_tier_from_fat_tree(FatTreeConfig{k, 125e6});
    EXPECT_GT(expect_matches_oracle(tree.topo).multipath, 0u) << "k=" << k;
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(PathsOracle, Figure2MatchesUnprunedEnumeration) {
  const flowserver::testing::Figure2 fig;
  EXPECT_GT(expect_matches_oracle(fig.topo).multipath, 0u);
}

TEST(PathsOracle, DirectedGraphMatchesUnprunedEnumeration) {
  // Duplex a-b, b-c, c-d, a-e, e-d and b-f, plus one-way a->c and c->g:
  // a reaches c in one hop but c needs two back, a->d has two paths, b's
  // spur to f is a dead end inside dist(d) from a, and g reaches nothing.
  Topology t;
  const NodeId a = t.add_node(NodeKind::kHost, "a");
  const NodeId b = t.add_node(NodeKind::kEdgeSwitch, "b");
  const NodeId c = t.add_node(NodeKind::kEdgeSwitch, "c");
  const NodeId d = t.add_node(NodeKind::kHost, "d");
  const NodeId e = t.add_node(NodeKind::kEdgeSwitch, "e");
  const NodeId f = t.add_node(NodeKind::kHost, "f");
  const NodeId g = t.add_node(NodeKind::kHost, "g");
  t.add_duplex(a, b, 1.0);
  t.add_duplex(b, c, 1.0);
  t.add_duplex(c, d, 1.0);
  t.add_duplex(a, e, 1.0);
  t.add_duplex(e, d, 1.0);
  t.add_duplex(b, f, 1.0);
  t.add_link(a, c, 1.0);
  t.add_link(c, g, 1.0);
  const PairCoverage cov = expect_matches_oracle(t);
  EXPECT_GT(cov.unreachable, 0u);
  EXPECT_GT(cov.multipath, 0u);
  EXPECT_EQ(shortest_paths(t, a, c).front().length(), 1u);
  EXPECT_EQ(shortest_paths(t, c, a).front().length(), 2u);
  EXPECT_EQ(shortest_paths(t, a, d).size(), 2u);
  EXPECT_TRUE(shortest_paths(t, g, a).empty());
}

TEST_F(TreePaths, CacheReturnsSameResults) {
  PathCache cache(tree_.topo);
  const auto& first = cache.get(tree_.hosts[0], tree_.hosts[16]);
  const auto& second = cache.get(tree_.hosts[0], tree_.hosts[16]);
  EXPECT_EQ(&first, &second);  // memoized
  EXPECT_EQ(first.size(), 8u);
}

TEST_F(TreePaths, EcmpIsDeterministicPerNonce) {
  PathCache cache(tree_.topo);
  const auto& paths = cache.get(tree_.hosts[0], tree_.hosts[16]);
  const EcmpHasher ecmp(0);
  const std::size_t i1 =
      ecmp.choose_index(paths.size(), tree_.hosts[0], tree_.hosts[16], 77);
  const std::size_t i2 =
      ecmp.choose_index(paths.size(), tree_.hosts[0], tree_.hosts[16], 77);
  EXPECT_EQ(i1, i2);
}

TEST_F(TreePaths, EcmpSpreadsAcrossPaths) {
  PathCache cache(tree_.topo);
  const auto& paths = cache.get(tree_.hosts[0], tree_.hosts[16]);
  const EcmpHasher ecmp(0);
  std::vector<int> counts(paths.size(), 0);
  constexpr int kFlows = 8000;
  for (int nonce = 0; nonce < kFlows; ++nonce) {
    ++counts[ecmp.choose_index(paths.size(), tree_.hosts[0], tree_.hosts[16],
                               static_cast<std::uint64_t>(nonce))];
  }
  const double expected = kFlows / static_cast<double>(paths.size());
  for (const int c : counts) {
    EXPECT_NEAR(c, expected, expected * 0.15);
  }
}

}  // namespace
}  // namespace mayflower::net
