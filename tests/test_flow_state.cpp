#include "flowserver/flow_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
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

TEST(FlowStateTable, HugePlanSaturatesTheFreezeHorizon) {
  // A plan whose expected completion does not fit the clock stays frozen
  // "forever" rather than wrapping to a horizon in the past.
  const sim::SimTime max = sim::SimTime::max();
  FlowStateTable t;
  t.add(1, one_link_path(0), 1e30, 62.5e6, sec(1.0));
  EXPECT_EQ(t.find(1)->freeze_until, max);
  EXPECT_EQ(t.frozen_count(sec(2.0)), 1u);
  t.update_from_stats(1, 5e6, sec(2.0));  // the poll cannot clobber it
  EXPECT_DOUBLE_EQ(t.find(1)->bw_bps, 62.5e6);
  t.setbw(1, 1e-3, sec(3.0));
  EXPECT_EQ(t.find(1)->freeze_until, max);
  t.resize(1, 1e300, sec(4.0));
  EXPECT_EQ(t.find(1)->freeze_until, max);

  // Near the end of the clock: a span that fits the conversion but not the
  // sum saturates too, and one that fits both is kept to the nanosecond.
  const sim::SimTime late =
      sim::SimTime::from_nanos(max.nanos() - 3'000'000'000);
  t.add(2, one_link_path(0), 4.0, 1.0, late);
  EXPECT_EQ(t.find(2)->freeze_until, max);
  t.add(3, one_link_path(0), 2.0, 1.0, late);
  EXPECT_EQ(t.find(3)->freeze_until,
            sim::SimTime::from_nanos(max.nanos() - 1'000'000'000));
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

TEST_F(ShardedFlowStateTest, SyncShardUpdatesDropsAndAddsOneShard) {
  const net::Path rack0 = path_between(tree_.hosts[0], tree_.hosts[1]);
  const net::Path rack0b = path_between(tree_.hosts[1], tree_.hosts[2]);
  const net::Path rack1 = path_between(tree_.hosts[4], tree_.hosts[5]);
  table_.add(1, rack0, 100.0, 10.0, sec(0));
  table_.add(2, rack1, 100.0, 10.0, sec(0));
  table_.add(3, rack0b, 100.0, 10.0, sec(0));
  net::NetworkView view;
  view.reset_links(tree_.topo);
  view.set_shard_map(table_.shard_map());
  const std::uint32_t s0 = shard_of_host(tree_.hosts[0]);
  const std::uint32_t s1 = shard_of_host(tree_.hosts[4]);

  // The first sync of a shard is its build.
  table_.sync_shard_into(view, s0);
  EXPECT_NE(view.find(1), nullptr);
  EXPECT_NE(view.find(3), nullptr);
  EXPECT_EQ(view.find(2), nullptr);
  table_.sync_shard_into(view, s1);
  ASSERT_NE(view.find(2), nullptr);
  EXPECT_EQ(view.flow_count(), 3u);

  // Shard 0 gets an updated (1), a dropped (3) and a new (4) key; shard 1
  // moves too but is not synced.
  table_.update_from_stats(1, 40.0, sec(20.0));  // past the freeze: 2 B/s
  table_.drop(3);
  table_.add(4, rack0b, 50.0, 5.0, sec(20.0));
  table_.setbw(2, 7.0, sec(20.0));
  table_.sync_shard_into(view, s0);
  const net::NetworkView::Flow* updated = view.find(1);
  ASSERT_NE(updated, nullptr);
  EXPECT_DOUBLE_EQ(updated->size_bytes, 100.0);
  EXPECT_DOUBLE_EQ(updated->remaining_bytes, 60.0);
  EXPECT_DOUBLE_EQ(updated->bw_bps, 2.0);
  EXPECT_EQ(view.find(3), nullptr);
  const net::NetworkView::Flow* added = view.find(4);
  ASSERT_NE(added, nullptr);
  EXPECT_DOUBLE_EQ(added->remaining_bytes, 50.0);
  EXPECT_DOUBLE_EQ(added->bw_bps, 5.0);
  EXPECT_DOUBLE_EQ(view.find(2)->bw_bps, 10.0);  // shard 1 still stale
  EXPECT_EQ(view.shard_flow_count(s0), 2u);
  table_.sync_shard_into(view, s1);
  EXPECT_DOUBLE_EQ(view.find(2)->bw_bps, 7.0);
  EXPECT_EQ(view.flow_count(), 3u);
}

// --- the slot-backed view and its sync against a reference model ---------

// What a view should hold for one believed flow.
struct RefFlow {
  net::Path path;
  double size_bytes = 0.0;
  double remaining_bytes = 0.0;
  double bw_bps = 0.0;
};
using RefView = std::map<std::uint64_t, RefFlow>;

// The first difference between `view` and the model `want`, or "": the
// flow count, each flow's fields, each shard's flow count, and per link the
// keys in ascending order, each entry pointing at its key's flow.
std::string difference(const net::NetworkView& view, const RefView& want,
                       std::size_t link_count) {
  if (view.flow_count() != want.size()) {
    return strfmt("%zu flows, model has %zu", view.flow_count(), want.size());
  }
  std::vector<std::size_t> per_shard(view.shard_count(), 0);
  for (const auto& [key, r] : want) {
    const net::NetworkView::Flow* f = view.find(key);
    if (f == nullptr) {
      return strfmt("flow %llu missing", static_cast<unsigned long long>(key));
    }
    if (f->key != key || f->path.links != r.path.links ||
        f->path.nodes != r.path.nodes || f->size_bytes != r.size_bytes ||
        f->remaining_bytes != r.remaining_bytes || f->bw_bps != r.bw_bps) {
      return strfmt("flow %llu fields", static_cast<unsigned long long>(key));
    }
    ++per_shard[view.shard_map().shard_of_path(r.path)];
  }
  for (std::uint32_t s = 0; s < view.shard_count(); ++s) {
    if (view.shard_flow_count(s) != per_shard[s]) {
      return strfmt("shard %u holds %zu flows, model %zu", s,
                    view.shard_flow_count(s), per_shard[s]);
    }
  }
  std::vector<std::vector<std::uint64_t>> expect(link_count);
  for (const auto& [key, r] : want) {
    for (const net::LinkId l : r.path.links) expect[l].push_back(key);
  }
  std::vector<const net::NetworkView::Flow*> got;
  std::vector<std::uint64_t> keys;
  for (net::LinkId l = 0; l < link_count; ++l) {
    got.clear();
    keys.clear();
    view.append_flows_on_link(l, got);
    for (const net::NetworkView::Flow* f : got) {
      if (f != view.find(f->key)) return strfmt("link %u stale entry", l);
      keys.push_back(f->key);
    }
    if (keys != expect[l]) return strfmt("link %u keys", l);
  }
  return "";
}

// A seeded run of every mutation the view takes, against a FlowStateTable
// (the authority its shards sync from) and a std::map model of what the
// view must hold: write-through commits, table-only changes a sync must
// pick up (adds, drops, polls, SETBW, resizes, a cookie re-added on another
// path), view-only drops and share changes, tentative scopes rolled back
// (often into a slot a drop just freed), syncs of single shards, and copies
// of the view that must keep answering as before while their source moves.
class SyncDifferential {
 public:
  SyncDifferential(bool sharded, std::uint64_t seed)
      : tree_(net::build_three_tier(net::ThreeTierConfig{})),
        paths_(tree_.topo),
        rng_(seed) {
    if (sharded) {
      table_.set_shard_map(net::ShardMap::by_edge_switch(tree_.topo));
    }
    view_.reset_links(tree_.topo);
    view_.set_shard_map(table_.shard_map());
  }

  // One random step, then the view against the model.
  std::string step() {
    const std::uint64_t roll = rng_.next_below(24);
    if (roll < 17) {
      mutate(roll);
    } else if (roll < 21) {
      sync(static_cast<std::uint32_t>(rng_.next_below(table_.shard_count())));
    } else if (roll < 23) {
      if (std::string d = tentative(); !d.empty()) return "tentative: " + d;
    } else {
      // A copy answers as its source did while the source moves on.
      const net::NetworkView copy = view_;
      const RefView want = ref_;
      for (int i = 0; i < 4; ++i) mutate(rng_.next_below(17));
      if (std::string d = difference(copy, want, link_count()); !d.empty()) {
        return "copy: " + d;
      }
    }
    return difference(view_, ref_, link_count());
  }

  // Syncs every shard: the view must then hold exactly the table.
  std::string sync_all() {
    for (std::uint32_t s = 0; s < table_.shard_count(); ++s) sync(s);
    RefView table;
    for (const sdn::Cookie c : tracked_) table[c] = ref_of(*table_.find(c));
    if (table.size() != ref_.size()) return "model out of step with table";
    return difference(view_, table, link_count());
  }

  std::size_t flow_count() const { return view_.flow_count(); }

 private:
  std::size_t link_count() const { return tree_.topo.link_count(); }

  static RefFlow ref_of(const TrackedFlow& f) {
    return {f.path, f.size_bytes, f.remaining_bytes, f.bw_bps};
  }

  net::Path random_path() {
    const std::vector<net::NodeId>& hosts = tree_.hosts;
    const net::NodeId src = hosts[rng_.next_below(hosts.size())];
    net::NodeId dst = src;
    while (dst == src) dst = hosts[rng_.next_below(hosts.size())];
    const std::vector<net::Path>& ps = paths_.get(src, dst);
    return ps[rng_.next_below(ps.size())];
  }

  double bytes() { return rng_.uniform(1e6, 1e8); }

  // A uniformly drawn cookie the table tracks / key the view must hold.
  sdn::Cookie pick_tracked() {
    return *std::next(tracked_.begin(), draw(tracked_.size()));
  }
  std::uint64_t pick_believed() {
    return std::next(ref_.begin(), draw(ref_.size()))->first;
  }
  std::ptrdiff_t draw(std::size_t n) {
    return static_cast<std::ptrdiff_t>(rng_.next_below(n));
  }

  void mutate(std::uint64_t roll) {
    now_ = now_ + sec(rng_.uniform(0.0, 0.5));
    if (roll < 4) {  // a committed decision: table and view
      const sdn::Cookie c = next_cookie_++;
      const net::Path p = random_path();
      const double size = bytes();
      const double bw = bytes();
      table_.add(c, p, size, bw, now_);
      tracked_.insert(c);
      view_.add_flow(c, p, size, bw);
      ref_[c] = {p, size, size, bw};
    } else if (roll < 6) {  // a flow the view hears of at the next sync
      const sdn::Cookie c = next_cookie_++;
      table_.add(c, random_path(), bytes(), bytes(), now_);
      tracked_.insert(c);
    } else if (roll < 9) {
      if (tracked_.empty()) return;
      const sdn::Cookie c = pick_tracked();
      table_.drop(c);
      tracked_.erase(c);
    } else if (roll < 12) {  // a poll sample, SETBW or resize
      if (tracked_.empty()) return;
      const sdn::Cookie c = pick_tracked();
      const TrackedFlow& f = *table_.find(c);
      switch (rng_.next_below(3)) {
        case 0:
          table_.update_from_stats(c, rng_.uniform(0.0, 1.2 * f.size_bytes),
                                   now_);
          break;
        case 1:
          table_.setbw(c, bytes(), now_);
          break;
        default:
          table_.resize(c, bytes(), now_);
      }
    } else if (roll < 13) {  // dropped and re-added on another path
      if (tracked_.empty()) return;
      const sdn::Cookie c = pick_tracked();
      net::Path p = random_path();
      while (p.nodes == table_.find(c)->path.nodes) p = random_path();
      table_.drop(c);
      table_.add(c, p, bytes(), bytes(), now_);
    } else if (roll < 14) {
      if (ref_.empty()) return;
      const std::uint64_t key = pick_believed();
      view_.drop_flow(key);
      ref_.erase(key);
    } else {
      if (ref_.empty()) return;
      const std::uint64_t key = pick_believed();
      if (roll < 16) {
        const double bw = bytes();
        view_.set_flow_bps(key, bw);
        ref_[key].bw_bps = bw;
      } else {
        const double size = bytes();
        view_.resize_flow(key, size);
        ref_[key].size_bytes = ref_[key].remaining_bytes = size;
      }
    }
  }

  void sync(std::uint32_t s) {
    table_.sync_shard_into(view_, s);
    const net::ShardMap& map = table_.shard_map();
    for (auto it = ref_.begin(); it != ref_.end();) {
      it = map.shard_of_path(it->second.path) == s ? ref_.erase(it)
                                                   : std::next(it);
    }
    for (const sdn::Cookie c : tracked_) {
      const TrackedFlow& f = *table_.find(c);
      if (map.shard_of_path(f.path) == s) ref_[c] = ref_of(f);
    }
  }

  // A scope of adds and share changes, checked open, then rolled back.
  std::string tentative() {
    if (!ref_.empty() && rng_.bernoulli(0.5)) {  // free a slot to reuse
      const std::uint64_t key = pick_believed();
      view_.drop_flow(key);
      ref_.erase(key);
    }
    const RefView before = ref_;
    view_.begin_tentative();
    for (std::uint64_t i = 1 + rng_.next_below(3); i > 0; --i) {
      if (ref_.empty() || rng_.bernoulli(0.5)) {
        const std::uint64_t key = next_cookie_++;
        const net::Path p = random_path();
        const double size = bytes();
        const double bw = bytes();
        view_.add_flow(key, p, size, bw);
        ref_[key] = {p, size, size, bw};
      } else {
        const std::uint64_t key = pick_believed();
        const double bw = bytes();
        view_.set_flow_bps(key, bw);
        ref_[key].bw_bps = bw;
      }
    }
    if (std::string d = difference(view_, ref_, link_count()); !d.empty()) {
      return "open scope: " + d;
    }
    view_.rollback_tentative();
    ref_ = before;
    return "";
  }

  net::ThreeTier tree_;
  net::PathCache paths_;
  Rng rng_;
  FlowStateTable table_;
  net::NetworkView view_;
  std::set<sdn::Cookie> tracked_;  // the table's cookies
  RefView ref_;                    // what view_ must hold
  sdn::Cookie next_cookie_ = 1;
  sim::SimTime now_;
};

void run_differential(bool sharded, std::uint64_t seed) {
  SyncDifferential run(sharded, seed);
  std::size_t most = 0;
  for (int i = 0; i < 1500; ++i) {
    const std::string d = run.step();
    ASSERT_EQ(d, "") << "seed " << seed << " step " << i;
    most = std::max(most, run.flow_count());
  }
  EXPECT_EQ(run.sync_all(), "") << "seed " << seed;
  EXPECT_GT(most, 40u);  // the run reached a populated view
}

TEST(ViewSyncDifferential, OneShardMatchesTheModel) {
  for (const std::uint64_t seed : {1u, 2u}) run_differential(false, seed);
}

TEST(ViewSyncDifferential, EdgeShardsMatchTheModel) {
  for (const std::uint64_t seed : {3u, 4u}) run_differential(true, seed);
}

}  // namespace
}  // namespace mayflower::flowserver
