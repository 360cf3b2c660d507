#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/tree.hpp"
#include "sdn/fabric.hpp"
#include "sdn/link_rate_monitor.hpp"
#include "sdn/stats_poller.hpp"

namespace mayflower::sdn {
namespace {

using net::NodeId;
using net::Path;

class FabricTest : public ::testing::Test {
 protected:
  FabricTest()
      : tree_(net::build_three_tier(net::ThreeTierConfig{})),
        fabric_(events_, tree_.topo) {}

  Path first_path(NodeId from, NodeId to) {
    return net::shortest_paths(tree_.topo, from, to).at(0);
  }

  sim::EventQueue events_;
  net::ThreeTier tree_;
  SdnFabric fabric_;
};

TEST_F(FabricTest, CookiesAreUnique) {
  const Cookie a = fabric_.new_cookie();
  const Cookie b = fabric_.new_cookie();
  EXPECT_NE(a, b);
}

TEST_F(FabricTest, InstallWritesEveryIntermediateSwitch) {
  const Path p = first_path(tree_.hosts[0], tree_.hosts[16]);  // 6 links
  const Cookie c = fabric_.new_cookie();
  fabric_.install_path(c, p);
  // Switches are nodes[1..n-2]; each must forward onto the next link.
  for (std::size_t i = 1; i + 1 < p.nodes.size(); ++i) {
    const auto out = fabric_.switch_at(p.nodes[i]).lookup(c);
    ASSERT_TRUE(out.has_value()) << "switch " << i;
    EXPECT_EQ(*out, p.links[i]);
  }
}

TEST_F(FabricTest, RemoveClearsEntries) {
  const Path p = first_path(tree_.hosts[0], tree_.hosts[16]);
  const Cookie c = fabric_.new_cookie();
  fabric_.install_path(c, p);
  fabric_.remove_path(c);
  for (std::size_t i = 1; i + 1 < p.nodes.size(); ++i) {
    EXPECT_FALSE(fabric_.switch_at(p.nodes[i]).lookup(c).has_value());
  }
}

TEST_F(FabricTest, FlowRunsAndReportsCompletion) {
  const Path p = first_path(tree_.hosts[0], tree_.hosts[1]);  // same rack
  const Cookie c = fabric_.new_cookie();
  fabric_.install_path(c, p);
  bool done = false;
  fabric_.start_flow(c, p, 125e6, [&](Cookie cookie, sim::SimTime start) {
    EXPECT_EQ(cookie, c);
    EXPECT_EQ(start, sim::SimTime::from_seconds(0));
    done = true;
  });
  EXPECT_TRUE(fabric_.flow_active(c));
  events_.run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(fabric_.flow_active(c));
  // 125 MB over a 125 MB/s edge link: 1 second.
  EXPECT_EQ(events_.now(), sim::SimTime::from_seconds(1.0));
}

TEST_F(FabricTest, CompletionTearsDownFlowTableEntries) {
  const Path p = first_path(tree_.hosts[0], tree_.hosts[4]);
  const Cookie c = fabric_.new_cookie();
  fabric_.install_path(c, p);
  fabric_.start_flow(c, p, 1e6);
  events_.run();
  for (std::size_t i = 1; i + 1 < p.nodes.size(); ++i) {
    EXPECT_FALSE(fabric_.switch_at(p.nodes[i]).lookup(c).has_value());
  }
}

// remove_path visits only the switches an install wrote. Whatever retires a
// cookie — completion, cancel, reroute, handing back a planned hop that
// never started, or a crash that wiped some of its entries — must leave it
// in no switch table anywhere in the fabric.
TEST_F(FabricTest, RetiredCookiesLeaveNoEntryInAnySwitch) {
  const auto held_anywhere = [&](Cookie c) {
    for (NodeId n = 0; n < tree_.topo.node_count(); ++n) {
      if (tree_.topo.node(n).kind == net::NodeKind::kHost) continue;
      if (fabric_.switch_at(n).lookup(c).has_value()) return true;
    }
    return false;
  };
  const auto paths =
      net::shortest_paths(tree_.topo, tree_.hosts[0], tree_.hosts[16]);
  ASSERT_GE(paths.size(), 2u);
  const Path& a = paths[0];
  const Path& b = paths[1];

  const Cookie completed = fabric_.new_cookie();
  fabric_.install_path(completed, a);
  fabric_.start_flow(completed, a, 1e6);

  const Cookie cancelled = fabric_.new_cookie();
  fabric_.install_path(cancelled, a);
  fabric_.start_flow(cancelled, a, 1e9);

  // Rerouted mid-flight, then completes on the new path.
  const Cookie rerouted = fabric_.new_cookie();
  fabric_.install_path(rerouted, a);
  fabric_.start_flow(rerouted, a, 1e7);
  ASSERT_TRUE(fabric_.reroute_flow(rerouted, b));
  for (std::size_t i = 1; i + 1 < a.nodes.size(); ++i) {  // a's switches
    const bool on_b = std::find(b.nodes.begin(), b.nodes.end(),
                                a.nodes[i]) != b.nodes.end();
    EXPECT_EQ(fabric_.switch_at(a.nodes[i]).lookup(rerouted).has_value(),
              on_b)
        << "switch " << i;
  }

  // A batch plans two relay hops; the client hands both back unstarted.
  const Cookie hop1 = fabric_.new_cookie();
  const Cookie hop2 = fabric_.new_cookie();
  fabric_.install_paths({{hop1, &a}, {hop2, &b}});
  EXPECT_TRUE(held_anywhere(hop1));
  EXPECT_TRUE(held_anywhere(hop2));
  fabric_.remove_path(hop1);
  fabric_.remove_path(hop2);

  EXPECT_TRUE(fabric_.cancel_flow(cancelled));
  events_.run();

  // A crash wipes one of the entries; removing the rest still works.
  const Cookie crashed = fabric_.new_cookie();
  fabric_.install_path(crashed, b);
  fabric_.fail_switch(b.nodes[3]);  // the core switch
  fabric_.restore_switch(b.nodes[3]);
  EXPECT_TRUE(held_anywhere(crashed));
  fabric_.remove_path(crashed);
  for (const Cookie c : {completed, cancelled, rerouted, hop1, hop2, crashed}) {
    EXPECT_FALSE(held_anywhere(c)) << "cookie " << c;
  }
}

TEST_F(FabricTest, StartOverACrashedSwitchFailsLikeAStillbornFlow) {
  // The crash wiped the path's entries along with its links. Liveness is
  // checked before installation, so the start fails through on_fail
  // instead of asserting on the missing entries.
  const Path p = first_path(tree_.hosts[0], tree_.hosts[16]);  // 6 links
  const Cookie c = fabric_.new_cookie();
  fabric_.install_path(c, p);
  fabric_.fail_switch(p.nodes[3]);  // the core switch
  bool failed = false;
  fabric_.start_flow(c, p, 1e6, nullptr,
                     [&](Cookie cookie, const net::FlowRecord&) {
                       EXPECT_EQ(cookie, c);
                       failed = true;
                     });
  events_.run();
  EXPECT_TRUE(failed);
  EXPECT_FALSE(fabric_.flow_active(c));
}

TEST_F(FabricTest, CancelStopsTheTransfer) {
  const Path p = first_path(tree_.hosts[0], tree_.hosts[1]);
  const Cookie c = fabric_.new_cookie();
  fabric_.install_path(c, p);
  bool done = false;
  fabric_.start_flow(c, p, 125e6,
                     [&](Cookie, sim::SimTime) { done = true; });
  events_.schedule_at(sim::SimTime::from_seconds(0.5),
                      [&] { EXPECT_TRUE(fabric_.cancel_flow(c)); });
  events_.run();
  EXPECT_FALSE(done);
}

TEST_F(FabricTest, EdgeFlowStatsTrackSourceSideFlows) {
  const NodeId src = tree_.hosts[0];
  const NodeId dst = tree_.hosts[16];
  const Path p = first_path(src, dst);
  const Cookie c = fabric_.new_cookie();
  fabric_.install_path(c, p);
  fabric_.start_flow(c, p, 1e9);

  events_.schedule_at(sim::SimTime::from_seconds(1.0), [&] {
    // Poll the *source* edge: must include the flow with partial bytes.
    const auto stats = fabric_.poll_edge_flow_stats(tree_.edge_of_host(src));
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].cookie, c);
    EXPECT_TRUE(stats[0].active);
    EXPECT_GT(stats[0].bytes, 0.0);
    EXPECT_LT(stats[0].bytes, 1e9);
    // The destination edge reports nothing (paper polls the source side).
    EXPECT_TRUE(
        fabric_.poll_edge_flow_stats(tree_.edge_of_host(dst)).empty());
  });
  events_.run();
}

TEST_F(FabricTest, FinalCounterDeliveredOncePostCompletion) {
  const NodeId src = tree_.hosts[0];
  const Path p = first_path(src, tree_.hosts[1]);
  const Cookie c = fabric_.new_cookie();
  fabric_.install_path(c, p);
  fabric_.start_flow(c, p, 1e6);
  events_.run();
  auto stats = fabric_.poll_edge_flow_stats(tree_.edge_of_host(src));
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_FALSE(stats[0].active);
  EXPECT_DOUBLE_EQ(stats[0].bytes, 1e6);
  // Consumed by the poll: a second poll is empty.
  EXPECT_TRUE(fabric_.poll_edge_flow_stats(tree_.edge_of_host(src)).empty());
}

TEST_F(FabricTest, PortStatsCoverAllOutLinks) {
  const NodeId edge = tree_.edge_switches[0];
  const auto stats = fabric_.poll_port_stats(edge);
  EXPECT_EQ(stats.size(), tree_.topo.out_links(edge).size());
  for (const auto& s : stats) {
    EXPECT_DOUBLE_EQ(s.bytes, 0.0);
    EXPECT_GT(s.capacity_bps, 0.0);
  }
}

TEST_F(FabricTest, PortBytesAdvanceWithTraffic) {
  const NodeId src = tree_.hosts[0];
  const Path p = first_path(src, tree_.hosts[1]);
  const Cookie c = fabric_.new_cookie();
  fabric_.install_path(c, p);
  fabric_.start_flow(c, p, 125e6);
  events_.schedule_at(sim::SimTime::from_seconds(0.5), [&] {
    EXPECT_NEAR(fabric_.port_bytes(tree_.host_uplink(src)), 62.5e6, 1e3);
  });
  events_.run();
}

TEST(StatsPoller, TicksAtInterval) {
  sim::EventQueue events;
  int ticks = 0;
  StatsPoller poller(events, sim::SimTime::from_seconds(1.0),
                     [&] { ++ticks; });
  poller.start();
  events.run_until(sim::SimTime::from_seconds(5.5));
  EXPECT_EQ(ticks, 5);
  poller.stop();
  events.run_until(sim::SimTime::from_seconds(10.0));
  EXPECT_EQ(ticks, 5);
}

TEST(StatsPoller, StartIsIdempotent) {
  sim::EventQueue events;
  int ticks = 0;
  StatsPoller poller(events, sim::SimTime::from_seconds(1.0),
                     [&] { ++ticks; });
  poller.start();
  poller.start();
  events.run_until(sim::SimTime::from_seconds(3.5));
  EXPECT_EQ(ticks, 3);  // not doubled
}

// Regression: arm() used to re-arm unconditionally after the tick callback,
// so stop() issued from *within* a tick was silently undone — the stale
// chain kept firing, and a later start() double-ticked forever.
TEST(StatsPoller, StopFromWithinTickSticksAndRestartDoesNotDoubleTick) {
  sim::EventQueue events;
  int ticks = 0;
  StatsPoller* self = nullptr;
  StatsPoller poller(events, sim::SimTime::from_seconds(1.0), [&] {
    ++ticks;
    if (ticks == 1) self->stop();  // controller pauses collection mid-cycle
  });
  self = &poller;

  poller.start();
  events.run_until(sim::SimTime::from_seconds(1.5));
  EXPECT_EQ(ticks, 1);
  EXPECT_FALSE(poller.running());

  // Nothing may fire while stopped.
  events.run_until(sim::SimTime::from_seconds(2.2));
  EXPECT_EQ(ticks, 1);

  // Restart at t=2.2: ticks at 3.2 and 4.2 only — a resurrected stale chain
  // would add extras at 2.5/3.5/4.5 (7 ticks by t=4.6 pre-fix).
  poller.start();
  events.run_until(sim::SimTime::from_seconds(4.6));
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(poller.ticks(), 3u);
}

// Regression: ticks() (and sdn.poller.ticks) count staggered SUB-ticks, so
// with groups > 1 they run groups x faster than collection cycles — the old
// docs claimed cycles and work-per-cycle accounting was off by that factor.
// cycles() has the cycle semantics regardless of grouping.
TEST(StatsPoller, CyclesCountSweepsNotSubTicks) {
  sim::EventQueue events;
  int ticks = 0;
  StatsPoller poller(events, sim::SimTime::from_seconds(1.0),
                     [&] { ++ticks; });
  poller.set_groups(4);
  poller.start();
  // Sub-ticks fire at 0.25, 0.5, ... — by t=2.6, 10 sub-ticks = 2 complete
  // sweeps of all four groups (the 9th/10th sub-ticks open cycle 3).
  events.run_until(sim::SimTime::from_seconds(2.6));
  EXPECT_EQ(poller.ticks(), 10u);
  EXPECT_EQ(poller.cycles(), 2u);
  poller.stop();
}

TEST(StatsPoller, UngroupedCyclesEqualTicks) {
  sim::EventQueue events;
  StatsPoller poller(events, sim::SimTime::from_seconds(1.0), [] {});
  poller.start();
  events.run_until(sim::SimTime::from_seconds(3.5));
  EXPECT_EQ(poller.ticks(), 3u);
  EXPECT_EQ(poller.cycles(), 3u);
}

TEST_F(FabricTest, LinkRateMonitorIndexedLookupMatchesSampledRates) {
  // Monitor every host uplink; drive one known flow and check the indexed
  // lookup returns the right rate for the busy link and zero elsewhere.
  std::vector<net::LinkId> links;
  links.reserve(tree_.hosts.size());
  for (const NodeId h : tree_.hosts) links.push_back(tree_.host_uplink(h));
  LinkRateMonitor monitor(fabric_, links, sim::SimTime::from_seconds(1.0));

  const Path p = first_path(tree_.hosts[0], tree_.hosts[1]);
  const Cookie c = fabric_.new_cookie();
  fabric_.install_path(c, p);
  fabric_.start_flow(c, p, 1e9);
  events_.run_until(sim::SimTime::from_seconds(2.5));

  EXPECT_NEAR(monitor.tx_rate_bps(tree_.host_uplink(tree_.hosts[0])), 125e6,
              1e3);
  for (std::size_t i = 1; i < tree_.hosts.size(); ++i) {
    EXPECT_EQ(monitor.tx_rate_bps(tree_.host_uplink(tree_.hosts[i])), 0.0);
  }
}

// Regression: start() after a stop() used to resume with the stale
// last-sample baseline, so the first post-restart sample divided ALL bytes
// sent during the stopped interval by the sample gap — here reporting a
// phantom ~375 MB/s on an idle link (3 s of stopped traffic / 1 s window).
TEST_F(FabricTest, LinkRateMonitorRestartDoesNotSmearStoppedInterval) {
  const net::LinkId uplink = tree_.host_uplink(tree_.hosts[0]);
  LinkRateMonitor monitor(fabric_, {uplink}, sim::SimTime::from_seconds(1.0));

  const Path p = first_path(tree_.hosts[0], tree_.hosts[1]);
  const Cookie c = fabric_.new_cookie();
  fabric_.install_path(c, p);
  fabric_.start_flow(c, p, 125e6 * 4.5);  // 125 MB/s until t=4.5
  events_.run_until(sim::SimTime::from_seconds(1.5));
  EXPECT_NEAR(monitor.tx_rate_bps(uplink), 125e6, 1e3);

  monitor.stop();
  // Traffic keeps flowing while the monitor is down (t=1.5 .. 4.5).
  events_.run_until(sim::SimTime::from_seconds(4.6));
  events_.schedule_at(sim::SimTime::from_seconds(4.7),
                      [&] { monitor.start(); });
  // First post-restart sample at t=5.7 covers only the idle 4.7..5.7 window.
  events_.run_until(sim::SimTime::from_seconds(5.8));
  EXPECT_EQ(monitor.tx_rate_bps(uplink), 0.0);
}

TEST_F(FabricTest, LinkRateMonitorStartWhileRunningIsIdempotent) {
  const net::LinkId uplink = tree_.host_uplink(tree_.hosts[0]);
  LinkRateMonitor monitor(fabric_, {uplink}, sim::SimTime::from_seconds(1.0));
  const Path p = first_path(tree_.hosts[0], tree_.hosts[1]);
  const Cookie c = fabric_.new_cookie();
  fabric_.install_path(c, p);
  fabric_.start_flow(c, p, 1e9);
  events_.schedule_at(sim::SimTime::from_seconds(1.5), [&] {
    monitor.start();  // must NOT re-baseline a running monitor
  });
  events_.run_until(sim::SimTime::from_seconds(2.5));
  EXPECT_NEAR(monitor.tx_rate_bps(uplink), 125e6, 1e3);
}

}  // namespace
}  // namespace mayflower::sdn
