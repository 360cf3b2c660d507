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

TEST(FlowStateTable, ChangeLogHoldsEachChangedCookieOnce) {
  FlowStateTable t;
  t.add(1, one_link_path(0), 100.0, 10.0, sec(0));
  t.add(2, one_link_path(1), 100.0, 10.0, sec(0));
  t.add(3, one_link_path(1), 100.0, 10.0, sec(0));
  EXPECT_EQ(t.changes(), (std::vector<sdn::Cookie>{1, 2, 3}));
  t.clear_changes();
  EXPECT_TRUE(t.changes().empty());
  // Several polls, a SETBW and a resize of one flow log it once; changes to
  // cookies the table does not track log nothing.
  t.update_from_stats(2, 10.0, sec(1.0));
  t.update_from_stats(2, 20.0, sec(2.0));
  t.setbw(2, 5.0, sec(2.0));
  t.update_from_stats(404, 10.0, sec(2.0));
  t.drop(404);
  t.resize(1, 50.0, sec(2.0));
  t.resize(1, 40.0, sec(2.0));
  t.update_from_stats(2, 30.0, sec(3.0));
  EXPECT_EQ(t.changes(), (std::vector<sdn::Cookie>{2, 1}));
  // A drop of a logged flow adds nothing; of an unlogged one, its cookie.
  t.drop(2);
  t.drop(3);
  EXPECT_EQ(t.changes(), (std::vector<sdn::Cookie>{2, 1, 3}));
}

// --- the slot-backed view and its log sync against a reference model -----

// What a view should hold for one believed flow.
struct RefFlow {
  net::Path path;
  double size_bytes = 0.0;
  double remaining_bytes = 0.0;
  double bw_bps = 0.0;
};
using RefView = std::map<std::uint64_t, RefFlow>;

// The first difference between `view` and the model `want`, or "": the
// flow count, each flow's fields, and per link the keys in ascending order,
// each entry pointing at its key's flow.
std::string difference(const net::NetworkView& view, const RefView& want,
                       std::size_t link_count) {
  if (view.flow_count() != want.size()) {
    return strfmt("%zu flows, model has %zu", view.flow_count(), want.size());
  }
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

// A seeded run of every mutation the table and its view take, against two
// models: a std::map of what the view must hold (what it held at the last
// sync plus the write-through commits since), and the exact change log the
// table must keep. Steps: table-only changes a sync must pick up (adds,
// drops, polls, SETBW, resizes, a cookie re-added on another path, a cookie
// added and dropped between two syncs, one flow polled several times),
// drains (a sync, write-through commits, then a cleared log), syncs, full
// rebuilds after an invalidate with a non-empty log, tentative scopes
// rolled back (often into a slot a drop just freed), and copies of the view
// that must keep answering as before while their source moves.
class SyncDifferential {
 public:
  explicit SyncDifferential(std::uint64_t seed)
      : tree_(net::build_three_tier(net::ThreeTierConfig{})),
        paths_(tree_.topo),
        rng_(seed) {
    view_.reset_links(tree_.topo);
  }

  // One random step, then the view and the log against their models.
  std::string step() {
    const std::uint64_t roll = rng_.next_below(24);
    if (roll < 12) {
      mutate(roll);
    } else if (roll < 15) {
      drain();
    } else if (roll < 18) {
      if (std::string d = sync(); !d.empty()) return "sync: " + d;
    } else if (roll < 19) {
      if (std::string d = rebuild(); !d.empty()) return "rebuild: " + d;
    } else if (roll < 22) {
      if (std::string d = tentative(); !d.empty()) return "tentative: " + d;
    } else {
      // A copy answers as its source did while the source moves on.
      const net::NetworkView copy = view_;
      const RefView want = ref_;
      for (int i = 0; i < 4; ++i) mutate(rng_.next_below(12));
      drain();
      if (std::string d = difference(copy, want, link_count()); !d.empty()) {
        return "copy: " + d;
      }
    }
    if (table_.changes() != log_) return "change log";
    return difference(view_, ref_, link_count());
  }

  // Syncs the log: the view must then hold exactly the table.
  std::string sync() {
    table_.sync_changes_into(view_);
    clear_log();
    ref_ = table_model();
    return difference(view_, ref_, link_count());
  }

  std::size_t flow_count() const { return view_.flow_count(); }

 private:
  std::size_t link_count() const { return tree_.topo.link_count(); }

  RefView table_model() const {
    RefView table;
    for (const sdn::Cookie c : tracked_) {
      const TrackedFlow& f = *table_.find(c);
      table[c] = {f.path, f.size_bytes, f.remaining_bytes, f.bw_bps};
    }
    return table;
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

  // A uniformly drawn cookie the table tracks.
  sdn::Cookie pick_tracked() {
    return *std::next(tracked_.begin(),
                      static_cast<std::ptrdiff_t>(
                          rng_.next_below(tracked_.size())));
  }

  // The log model: a change appends a cookie whose flow is not flagged and
  // flags it; a drop's flag dies with the flow, so a re-added cookie is
  // logged again.
  void logged(sdn::Cookie c) {
    if (flagged_.insert(c).second) log_.push_back(c);
  }
  void clear_log() {
    log_.clear();
    flagged_.clear();
  }

  void add(sdn::Cookie c, const net::Path& p, double size, double bw) {
    table_.add(c, p, size, bw, now_);
    tracked_.insert(c);
    logged(c);
  }
  void drop(sdn::Cookie c) {
    table_.drop(c);
    tracked_.erase(c);
    logged(c);
    flagged_.erase(c);
  }

  // A change to the table alone: the view hears of it at the next sync.
  void mutate(std::uint64_t roll) {
    now_ = now_ + sec(rng_.uniform(0.0, 0.5));
    if (roll < 3) {
      add(next_cookie_++, random_path(), bytes(), bytes());
    } else if (roll < 5) {
      if (tracked_.empty()) return;
      drop(pick_tracked());
    } else if (roll < 8) {  // a poll sample, SETBW or resize
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
      logged(c);
    } else if (roll < 9) {  // one flow polled several times: logged once
      if (tracked_.empty()) return;
      const sdn::Cookie c = pick_tracked();
      for (std::uint64_t i = 2 + rng_.next_below(3); i > 0; --i) {
        now_ = now_ + sec(rng_.uniform(0.0, 0.5));
        table_.update_from_stats(
            c, rng_.uniform(0.0, 1.2 * table_.find(c)->size_bytes), now_);
        logged(c);
      }
    } else if (roll < 10) {  // dropped and re-added on another path
      if (tracked_.empty()) return;
      const sdn::Cookie c = pick_tracked();
      net::Path p = random_path();
      while (p.nodes == table_.find(c)->path.nodes) p = random_path();
      drop(c);
      add(c, p, bytes(), bytes());
    } else {  // added and dropped between two syncs
      const sdn::Cookie c = next_cookie_++;
      add(c, random_path(), bytes(), bytes());
      drop(c);
    }
  }

  // A decision batch as the Flowserver drains one: sync, write-through
  // commits (a new flow with its bumped shares, a split's SETBW and
  // resize), then a cleared log, since the view already holds them.
  void drain() {
    table_.sync_changes_into(view_);
    ref_ = table_model();
    for (std::uint64_t i = 1 + rng_.next_below(3); i > 0; --i) {
      now_ = now_ + sec(rng_.uniform(0.0, 0.5));
      if (!tracked_.empty() && rng_.bernoulli(0.3)) {
        const sdn::Cookie c = pick_tracked();
        const double size = bytes();
        table_.resize(c, size, now_);
        view_.resize_flow(c, size);
        ref_[c].size_bytes = ref_[c].remaining_bytes = size;
        continue;
      }
      for (std::uint64_t b = rng_.next_below(3); b > 0 && !tracked_.empty();
           --b) {
        const sdn::Cookie c = pick_tracked();
        const double bw = bytes();
        table_.setbw(c, bw, now_);
        view_.set_flow_bps(c, bw);
        ref_[c].bw_bps = bw;
      }
      const sdn::Cookie c = next_cookie_++;
      const net::Path p = random_path();
      const double size = bytes();
      const double bw = bytes();
      table_.add(c, p, size, bw, now_);
      tracked_.insert(c);
      view_.add_flow(c, p, size, bw);
      ref_[c] = {p, size, size, bw};
    }
    table_.clear_changes();
    clear_log();
  }

  // An invalidate with changes still logged: the view is emptied and
  // reloaded from the table, and the log cleared.
  std::string rebuild() {
    view_.reset_links(tree_.topo);
    table_.snapshot_into(view_);
    table_.clear_changes();
    clear_log();
    ref_ = table_model();
    return difference(view_, ref_, link_count());
  }

  // A scope of adds and share changes, checked open, then rolled back.
  std::string tentative() {
    if (!tracked_.empty() && rng_.bernoulli(0.5)) {  // free a slot to reuse
      drop(pick_tracked());
      if (std::string d = sync(); !d.empty()) return d;
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
        const std::uint64_t key =
            std::next(ref_.begin(), static_cast<std::ptrdiff_t>(
                                        rng_.next_below(ref_.size())))
                ->first;
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
  std::vector<sdn::Cookie> log_;   // the change log the table must keep
  std::set<sdn::Cookie> flagged_;  // tracked cookies in log_
  sdn::Cookie next_cookie_ = 1;
  sim::SimTime now_;
};

TEST(ViewSyncDifferential, LogSyncMatchesTheModel) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SyncDifferential run(seed);
    std::size_t most = 0;
    for (int i = 0; i < 1500; ++i) {
      const std::string d = run.step();
      ASSERT_EQ(d, "") << "seed " << seed << " step " << i;
      most = std::max(most, run.flow_count());
    }
    EXPECT_EQ(run.sync(), "") << "seed " << seed;
    EXPECT_GT(most, 40u);  // the run reached a populated view
  }
}

}  // namespace
}  // namespace mayflower::flowserver
