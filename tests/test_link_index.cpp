#include "net/link_index.hpp"

#include <gtest/gtest.h>

namespace mayflower::net {
namespace {

using Keys = std::vector<LinkIndex::Key>;

TEST(LinkIndex, AddMakesKeysVisibleOnEveryLink) {
  LinkIndex idx(4);
  idx.add(7, {0, 2});
  EXPECT_EQ(idx.on_link(0), (Keys{7}));
  EXPECT_EQ(idx.on_link(1), Keys{});
  EXPECT_EQ(idx.on_link(2), (Keys{7}));
  EXPECT_EQ(idx.count_on(0), 1u);
}

TEST(LinkIndex, KeysStayAscendingRegardlessOfInsertOrder) {
  LinkIndex idx(2);
  idx.add(9, {0});
  idx.add(3, {0});
  idx.add(6, {0});
  EXPECT_EQ(idx.on_link(0), (Keys{3, 6, 9}));
}

TEST(LinkIndex, RemoveErasesOnlyTheGivenKey) {
  LinkIndex idx(2);
  idx.add(1, {0, 1});
  idx.add(2, {0});
  idx.remove(1, {0, 1});
  EXPECT_EQ(idx.on_link(0), (Keys{2}));
  EXPECT_EQ(idx.on_link(1), Keys{});
}

TEST(LinkIndex, OnLinksUnionsAndDeduplicates) {
  LinkIndex idx(3);
  idx.add(5, {0, 1});  // crosses both query links
  idx.add(2, {1});
  idx.add(8, {2});     // not in the query
  Keys out{99};        // stale contents are replaced, not appended to
  idx.on_links({0, 1}, out);
  EXPECT_EQ(out, (Keys{2, 5}));
  idx.on_links({}, out);
  EXPECT_EQ(out, Keys{});
}

TEST(LinkIndex, UnseenLinksAreEmptyAndIndexGrowsOnDemand) {
  LinkIndex idx;
  EXPECT_EQ(idx.on_link(42), Keys{});
  idx.add(1, {42});
  EXPECT_EQ(idx.on_link(42), (Keys{1}));
  EXPECT_EQ(idx.on_link(41), Keys{});
}

TEST(LinkIndex, ClearEmptiesEveryLink) {
  LinkIndex idx(2);
  idx.add(1, {0, 1});
  idx.clear();
  EXPECT_EQ(idx.on_link(0), Keys{});
  EXPECT_EQ(idx.on_link(1), Keys{});
}

TEST(LinkIndex, AddRemoveChurnKeepsOrder) {
  LinkIndex idx(1);
  for (LinkIndex::Key k = 1; k <= 50; ++k) idx.add(k, {0});
  for (LinkIndex::Key k = 2; k <= 50; k += 2) idx.remove(k, {0});
  const Keys& got = idx.on_link(0);
  ASSERT_EQ(got.size(), 25u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], 2 * i + 1);
  }
}

}  // namespace
}  // namespace mayflower::net
