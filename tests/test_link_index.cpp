// The decision view's per-link flow lists (NetworkView::append_flows_on_link):
// which believed flows cross each link, in ascending key whatever the order
// they arrived in. The view keeps these lists itself, as (key, slot) entries.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/network_view.hpp"
#include "net/topology.hpp"

namespace mayflower::net {
namespace {

using Keys = std::vector<std::uint64_t>;

// Adds believed flow `key` over `links` (a synthetic path; the default
// one-shard map routes it without looking at nodes).
void add(NetworkView& view, std::uint64_t key, std::vector<LinkId> links) {
  Path p;
  p.links = std::move(links);
  view.add_flow(key, p, 1e6, 1e6);
}

Keys on_link(const NetworkView& view, LinkId link) {
  std::vector<const NetworkView::Flow*> flows;
  view.append_flows_on_link(link, flows);
  Keys keys;
  for (const NetworkView::Flow* f : flows) keys.push_back(f->key);
  return keys;
}

TEST(LinkIndex, AddMakesKeysVisibleOnEveryLink) {
  NetworkView view;
  add(view, 7, {0, 2});
  EXPECT_EQ(on_link(view, 0), (Keys{7}));
  EXPECT_EQ(on_link(view, 1), Keys{});
  EXPECT_EQ(on_link(view, 2), (Keys{7}));
}

TEST(LinkIndex, KeysStayAscendingRegardlessOfInsertOrder) {
  NetworkView view;
  add(view, 9, {0});
  add(view, 3, {0});
  add(view, 6, {0});
  EXPECT_EQ(on_link(view, 0), (Keys{3, 6, 9}));
}

TEST(LinkIndex, RemoveErasesOnlyTheGivenKey) {
  NetworkView view;
  add(view, 1, {0, 1});
  add(view, 2, {0});
  view.drop_flow(1);
  EXPECT_EQ(on_link(view, 0), (Keys{2}));
  EXPECT_EQ(on_link(view, 1), Keys{});
}

TEST(LinkIndex, UnseenLinksAreEmptyAndIndexGrowsOnDemand) {
  NetworkView view;  // never given a topology
  EXPECT_EQ(on_link(view, 42), Keys{});
  add(view, 1, {42});
  EXPECT_EQ(on_link(view, 42), (Keys{1}));
  EXPECT_EQ(on_link(view, 41), Keys{});
}

TEST(LinkIndex, ClearEmptiesEveryLink) {
  Topology topo;
  const NodeId a = topo.add_node(NodeKind::kHost, "a");
  const NodeId b = topo.add_node(NodeKind::kHost, "b");
  topo.add_duplex(a, b, 1e9);
  NetworkView view;
  view.reset_links(topo);
  add(view, 1, {0, 1});
  view.reset_links(topo);
  EXPECT_EQ(on_link(view, 0), Keys{});
  EXPECT_EQ(on_link(view, 1), Keys{});
  EXPECT_EQ(view.flow_count(), 0u);
}

TEST(LinkIndex, AddRemoveChurnKeepsOrder) {
  NetworkView view;
  for (std::uint64_t k = 1; k <= 50; ++k) add(view, k, {0});
  for (std::uint64_t k = 2; k <= 50; k += 2) view.drop_flow(k);
  // Freed slots are reused: the list still reads in key order.
  for (std::uint64_t k = 100; k > 50; k -= 10) add(view, k, {0});
  const Keys got = on_link(view, 0);
  ASSERT_EQ(got.size(), 30u);
  for (std::size_t i = 0; i < 25; ++i) EXPECT_EQ(got[i], 2 * i + 1);
  EXPECT_EQ(Keys(got.begin() + 25, got.end()), (Keys{60, 70, 80, 90, 100}));
}

}  // namespace
}  // namespace mayflower::net
