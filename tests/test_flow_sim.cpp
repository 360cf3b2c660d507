#include "net/flow_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/fat_tree.hpp"
#include "net/tree.hpp"

namespace mayflower::net {
namespace {

// Minimal dumbbell: a -- s1 -- s2 -- b, all 10 units/s.
struct Dumbbell {
  Topology topo;
  NodeId a, b, c, s1, s2;

  Dumbbell() {
    a = topo.add_node(NodeKind::kHost, "a");
    b = topo.add_node(NodeKind::kHost, "b");
    c = topo.add_node(NodeKind::kHost, "c");
    s1 = topo.add_node(NodeKind::kEdgeSwitch, "s1");
    s2 = topo.add_node(NodeKind::kEdgeSwitch, "s2");
    topo.add_duplex(a, s1, 10.0);
    topo.add_duplex(b, s2, 10.0);
    topo.add_duplex(c, s1, 10.0);
    topo.add_duplex(s1, s2, 10.0);
  }

  Path path(NodeId from, NodeId to) const {
    const auto ps = shortest_paths(topo, from, to);
    return ps.at(0);
  }
};

TEST(FlowSim, SingleFlowFinishesAtSizeOverCapacity) {
  Dumbbell d;
  sim::EventQueue events;
  FlowSim fs(events, d.topo);
  double completed_at = -1.0;
  fs.start_flow(d.path(d.a, d.b), 50.0, [&](const FlowRecord& f) {
    completed_at = events.now().seconds();
    EXPECT_DOUBLE_EQ(f.remaining_bytes, 0.0);
  });
  events.run();
  EXPECT_NEAR(completed_at, 5.0, 1e-6);
  EXPECT_EQ(fs.active_flow_count(), 0u);
}

TEST(FlowSim, TwoFlowsShareTheBottleneck) {
  Dumbbell d;
  sim::EventQueue events;
  FlowSim fs(events, d.topo);
  double t_ab = -1.0, t_cb = -1.0;
  // Both flows cross s1->s2: each gets 5/s. Equal sizes finish together at 10s.
  fs.start_flow(d.path(d.a, d.b), 50.0,
                [&](const FlowRecord&) { t_ab = events.now().seconds(); });
  fs.start_flow(d.path(d.c, d.b), 50.0,
                [&](const FlowRecord&) { t_cb = events.now().seconds(); });
  events.run();
  EXPECT_NEAR(t_ab, 10.0, 1e-6);
  EXPECT_NEAR(t_cb, 10.0, 1e-6);
}

TEST(FlowSim, RatesRiseWhenACompetitorFinishes) {
  Dumbbell d;
  sim::EventQueue events;
  FlowSim fs(events, d.topo);
  double t_small = -1.0, t_big = -1.0;
  // Shared bottleneck at 10/s. Small flow: 10 bytes; big: 60 bytes.
  // Phase 1 (both active, 5/s each): small done at t=2 (10/5).
  // Phase 2: big has 50 left at 10/s -> +5s. Total 7s.
  fs.start_flow(d.path(d.a, d.b), 60.0,
                [&](const FlowRecord&) { t_big = events.now().seconds(); });
  fs.start_flow(d.path(d.c, d.b), 10.0,
                [&](const FlowRecord&) { t_small = events.now().seconds(); });
  events.run();
  EXPECT_NEAR(t_small, 2.0, 1e-6);
  EXPECT_NEAR(t_big, 7.0, 1e-6);
}

TEST(FlowSim, NewArrivalSlowsExistingFlow) {
  Dumbbell d;
  sim::EventQueue events;
  FlowSim fs(events, d.topo);
  double t_first = -1.0;
  fs.start_flow(d.path(d.a, d.b), 100.0,
                [&](const FlowRecord&) { t_first = events.now().seconds(); });
  // At t=5 the first flow has 50 left. A competitor arrives; both run at 5/s.
  events.schedule_at(sim::SimTime::from_seconds(5.0), [&] {
    fs.start_flow(d.path(d.c, d.b), 1000.0, nullptr);
  });
  events.run_until(sim::SimTime::from_seconds(16.0));
  // First flow: 50 remaining at 5/s -> finishes at t = 15.
  EXPECT_NEAR(t_first, 15.0, 1e-6);
}

TEST(FlowSim, CancelRemovesFlowWithoutCallback) {
  Dumbbell d;
  sim::EventQueue events;
  FlowSim fs(events, d.topo);
  bool fired = false;
  const FlowId id = fs.start_flow(d.path(d.a, d.b), 50.0,
                                  [&](const FlowRecord&) { fired = true; });
  events.schedule_at(sim::SimTime::from_seconds(1.0),
                     [&] { EXPECT_TRUE(fs.cancel(id)); });
  events.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(fs.active_flow_count(), 0u);
  EXPECT_FALSE(fs.cancel(id));  // second cancel reports failure
}

TEST(FlowSim, LinkByteCountersAccumulate) {
  Dumbbell d;
  sim::EventQueue events;
  FlowSim fs(events, d.topo);
  const Path p = d.path(d.a, d.b);
  fs.start_flow(p, 50.0, nullptr);
  events.run();
  fs.sync();
  for (const LinkId l : p.links) {
    EXPECT_NEAR(fs.link_tx_bytes(l), 50.0, 1e-6);
  }
  // Reverse-direction links carried nothing.
  EXPECT_DOUBLE_EQ(fs.link_tx_bytes(d.topo.find_link(d.s1, d.a)), 0.0);
}

TEST(FlowSim, PartialProgressVisibleMidTransfer) {
  Dumbbell d;
  sim::EventQueue events;
  FlowSim fs(events, d.topo);
  const FlowId id = fs.start_flow(d.path(d.a, d.b), 50.0, nullptr);
  events.schedule_at(sim::SimTime::from_seconds(2.0), [&] {
    fs.sync();
    const FlowRecord* f = fs.find(id);
    ASSERT_NE(f, nullptr);
    EXPECT_NEAR(f->bytes_sent(), 20.0, 1e-6);
    EXPECT_NEAR(f->rate_bps, 10.0, 1e-9);
  });
  events.run();
}

TEST(FlowSim, ZeroHopFlowUsesLocalRate) {
  Dumbbell d;
  sim::EventQueue events;
  FlowSim::Config cfg;
  cfg.zero_hop_bps = 100.0;
  FlowSim fs(events, d.topo, cfg);
  Path local;
  local.nodes = {d.a};
  double done = -1.0;
  fs.start_flow(local, 500.0,
                [&](const FlowRecord&) { done = events.now().seconds(); });
  events.run();
  EXPECT_NEAR(done, 5.0, 1e-6);
}

TEST(FlowSim, DemandLimitedFlowLeavesHeadroom) {
  Dumbbell d;
  sim::EventQueue events;
  FlowSim fs(events, d.topo);
  fs.start_flow(d.path(d.a, d.b), 100.0, nullptr, 0, /*demand=*/2.0);
  const LinkId bottleneck = d.topo.find_link(d.s1, d.s2);
  events.schedule_at(sim::SimTime::from_seconds(1.0), [&] {
    EXPECT_NEAR(fs.link_utilization(bottleneck), 0.2, 1e-9);
  });
  events.run_until(sim::SimTime::from_seconds(2.0));
}

TEST(FlowSim, ManyFlowsDeterministicCompletionOrder) {
  Dumbbell d;
  sim::EventQueue events;
  FlowSim fs(events, d.topo);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    // Staggered sizes: 10, 20, ... bytes, all a->b.
    fs.start_flow(d.path(d.a, d.b), 10.0 * (i + 1),
                  [&, i](const FlowRecord&) { order.push_back(i); });
  }
  events.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(FlowSim, CompletionCallbackCanStartNextFlow) {
  Dumbbell d;
  sim::EventQueue events;
  FlowSim fs(events, d.topo);
  double second_done = -1.0;
  fs.start_flow(d.path(d.a, d.b), 50.0, [&](const FlowRecord&) {
    fs.start_flow(d.path(d.a, d.b), 50.0, [&](const FlowRecord&) {
      second_done = events.now().seconds();
    });
  });
  events.run();
  EXPECT_NEAR(second_done, 10.0, 1e-6);
}


TEST(FlowSim, ReroutePreservesByteProgress) {
  Dumbbell d;
  sim::EventQueue events;
  FlowSim fs(events, d.topo);
  // a->b via s1/s2; at t=2 (20 bytes sent) move it to the equal-cost... the
  // dumbbell has only one route, so reroute onto the same links re-indexes
  // the flow; progress and rate must survive the remove/add cycle.
  const FlowId id = fs.start_flow(d.path(d.a, d.b), 50.0, nullptr);
  events.schedule_at(sim::SimTime::from_seconds(2.0), [&] {
    fs.sync();
    EXPECT_NEAR(fs.find(id)->bytes_sent(), 20.0, 1e-6);
    EXPECT_TRUE(fs.reroute(id, d.path(d.a, d.b)));
    const FlowRecord* f = fs.find(id);
    ASSERT_NE(f, nullptr);
    EXPECT_NEAR(f->bytes_sent(), 20.0, 1e-6);
    EXPECT_NEAR(f->rate_bps, 10.0, 1e-9);
    // The index followed the move: the flow is still on its (new) links.
    for (const LinkId l : f->path.links) {
      EXPECT_EQ(fs.flows_on_link(l).size(), 1u);
    }
  });
  events.schedule_at(sim::SimTime::from_seconds(2.5), [&] {
    // Progress keeps accruing on the new placement: 25 bytes left at 10/s.
    fs.sync();
    EXPECT_NEAR(fs.find(id)->remaining_bytes, 25.0, 1e-6);
  });
  events.run();
  EXPECT_EQ(fs.active_flow_count(), 0u);
}

TEST(FlowSim, CancelLiftsSharersThroughDirtySet) {
  Dumbbell d;
  sim::EventQueue events;
  FlowSim fs(events, d.topo);
  // Two flows share only the a->s1 access link (10/s): 5/s each.
  const FlowId f1 = fs.start_flow(d.path(d.a, d.b), 1000.0, nullptr);
  const FlowId f2 = fs.start_flow(d.path(d.a, d.c), 1000.0, nullptr);
  events.schedule_at(sim::SimTime::from_seconds(1.0), [&] {
    fs.sync();
    EXPECT_NEAR(fs.find(f1)->rate_bps, 5.0, 1e-9);
    EXPECT_NEAR(fs.find(f2)->rate_bps, 5.0, 1e-9);
    EXPECT_NEAR(fs.find(f1)->bytes_sent(), 5.0, 1e-6);
    // Cancel f2: f1's dirty-set recompute must lift it to the full 10/s.
    EXPECT_TRUE(fs.cancel(f2));
    EXPECT_NEAR(fs.find(f1)->rate_bps, 10.0, 1e-9);
    EXPECT_TRUE(fs.rates_match_full_solve());
  });
  events.run_until(sim::SimTime::from_seconds(2.0));
}

TEST(FlowSim, FlowsOnLinkReturnsIdOrderViaIndex) {
  Dumbbell d;
  sim::EventQueue events;
  FlowSim fs(events, d.topo);
  const LinkId shared = d.topo.find_link(d.s1, d.s2);
  const FlowId f1 = fs.start_flow(d.path(d.a, d.b), 100.0, nullptr);
  const FlowId f2 = fs.start_flow(d.path(d.c, d.b), 100.0, nullptr);
  const auto on = fs.flows_on_link(shared);
  ASSERT_EQ(on.size(), 2u);
  EXPECT_EQ(on[0]->id, f1);
  EXPECT_EQ(on[1]->id, f2);
  EXPECT_LT(on[0]->id, on[1]->id);
  EXPECT_TRUE(fs.flows_on_link(d.topo.find_link(d.s2, d.s1)).empty());
}

// Twin simulators, one incremental and one full-solve, driven through an
// identical random start/cancel/complete schedule on the 3-tier fabric:
// allocations must agree at every step and both must match a from-scratch
// progressive-filling solve.
TEST(FlowSim, IncrementalMatchesFullUnderRandomChurn) {
  const ThreeTier tree = build_three_tier(ThreeTierConfig{});
  Rng rng(1234);

  sim::EventQueue ev_inc, ev_full;
  FlowSim::Config inc_cfg, full_cfg;
  inc_cfg.incremental = true;
  full_cfg.incremental = false;
  FlowSim inc(ev_inc, tree.topo, inc_cfg);
  FlowSim full(ev_full, tree.topo, full_cfg);

  std::vector<std::pair<FlowId, FlowId>> live;  // (incremental id, full id)
  for (int step = 0; step < 300; ++step) {
    const bool do_cancel = !live.empty() && rng.bernoulli(0.4);
    if (do_cancel) {
      const std::size_t i = rng.next_below(live.size());
      EXPECT_TRUE(inc.cancel(live[i].first));
      EXPECT_TRUE(full.cancel(live[i].second));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      const NodeId src = tree.hosts[rng.next_below(tree.hosts.size())];
      NodeId dst = src;
      while (dst == src) dst = tree.hosts[rng.next_below(tree.hosts.size())];
      const auto paths = shortest_paths(tree.topo, src, dst);
      const Path& p = paths[rng.next_below(paths.size())];
      live.emplace_back(inc.start_flow(p, 1e9, nullptr),
                        full.start_flow(p, 1e9, nullptr));
    }
    ASSERT_TRUE(inc.rates_match_full_solve()) << "step " << step;
    for (const auto& [ii, fi] : live) {
      const FlowRecord* a = inc.find(ii);
      const FlowRecord* b = full.find(fi);
      ASSERT_NE(a, nullptr);
      ASSERT_NE(b, nullptr);
      ASSERT_NEAR(a->rate_bps, b->rate_bps, 1e-6 * (1.0 + b->rate_bps))
          << "step " << step;
    }
  }
}

// Same twin-simulator setup, with link faults mixed into the churn: random
// link-down (killing crossing flows on both sims), link-up, and capacity
// degradation. The incremental allocation must track the full solve through
// every transition, and both sims must kill exactly the same flows.
TEST(FlowSim, IncrementalMatchesFullUnderLinkFaultChurn) {
  const ThreeTier tree = build_three_tier(ThreeTierConfig{});
  Rng rng(4321);

  sim::EventQueue ev_inc, ev_full;
  FlowSim::Config inc_cfg, full_cfg;
  inc_cfg.incremental = true;
  full_cfg.incremental = false;
  FlowSim inc(ev_inc, tree.topo, inc_cfg);
  FlowSim full(ev_full, tree.topo, full_cfg);

  std::set<FlowId> killed_inc, killed_full;
  inc.set_kill_handler([&](const FlowRecord& r) { killed_inc.insert(r.id); });
  full.set_kill_handler([&](const FlowRecord& r) { killed_full.insert(r.id); });

  // Faultable links: switch-switch only, so host uplinks never strand a host.
  std::vector<LinkId> faultable;
  for (LinkId l = 0; l < tree.topo.link_count(); ++l) {
    const Link& link = tree.topo.link(l);
    if (tree.topo.node(link.from).kind != NodeKind::kHost &&
        tree.topo.node(link.to).kind != NodeKind::kHost) {
      faultable.push_back(l);
    }
  }
  std::vector<LinkId> down;

  std::vector<std::pair<FlowId, FlowId>> live;  // (incremental id, full id)
  for (int step = 0; step < 400; ++step) {
    const double dice = rng.next_double();
    if (dice < 0.12) {  // fail a random up link
      const LinkId l = faultable[rng.next_below(faultable.size())];
      if (inc.link_up(l)) {
        EXPECT_TRUE(inc.fail_link(l));
        EXPECT_TRUE(full.fail_link(l));
        down.push_back(l);
      }
    } else if (dice < 0.24 && !down.empty()) {  // repair one
      const std::size_t i = rng.next_below(down.size());
      EXPECT_TRUE(inc.restore_link(down[i]));
      EXPECT_TRUE(full.restore_link(down[i]));
      down.erase(down.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (dice < 0.32) {  // degrade or restore capacity on an up link
      const LinkId l = faultable[rng.next_below(faultable.size())];
      if (inc.link_up(l)) {
        const double factor = rng.bernoulli(0.5) ? 0.5 : 1.0;
        inc.set_link_capacity_factor(l, factor);
        full.set_link_capacity_factor(l, factor);
      }
    } else if (!live.empty() && rng.bernoulli(0.35)) {  // cancel
      const std::size_t i = rng.next_below(live.size());
      EXPECT_TRUE(inc.cancel(live[i].first));
      EXPECT_TRUE(full.cancel(live[i].second));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else {  // start a flow over a currently-alive path, if any
      const NodeId src = tree.hosts[rng.next_below(tree.hosts.size())];
      NodeId dst = src;
      while (dst == src) dst = tree.hosts[rng.next_below(tree.hosts.size())];
      const auto paths = shortest_paths(tree.topo, src, dst);
      std::vector<const Path*> alive;
      for (const Path& p : paths) {
        if (inc.path_alive(p)) alive.push_back(&p);
      }
      if (!alive.empty()) {
        const Path& p = *alive[rng.next_below(alive.size())];
        live.emplace_back(inc.start_flow(p, 1e9, nullptr),
                          full.start_flow(p, 1e9, nullptr));
      }
    }

    // Purge pairs where a fault killed the flow — on both sims, identically.
    std::erase_if(live, [&](const std::pair<FlowId, FlowId>& pair) {
      const bool ki = killed_inc.count(pair.first) > 0;
      const bool kf = killed_full.count(pair.second) > 0;
      EXPECT_EQ(ki, kf) << "twin sims disagree on which flows a fault kills";
      return ki || kf;
    });

    ASSERT_TRUE(inc.rates_match_full_solve()) << "step " << step;
    for (const auto& [ii, fi] : live) {
      const FlowRecord* a = inc.find(ii);
      const FlowRecord* b = full.find(fi);
      ASSERT_NE(a, nullptr);
      ASSERT_NE(b, nullptr);
      ASSERT_NEAR(a->rate_bps, b->rate_bps, 1e-6 * (1.0 + b->rate_bps))
          << "step " << step;
    }
  }
  EXPECT_FALSE(killed_inc.empty()) << "churn never exercised a fault kill";
}

// A freed slot is reused by the next start: the new flow must start clean,
// the old id must stay dead, and per-link lists must stay in id order even
// when a reroute moves an older flow onto links newer flows already hold.
TEST(FlowSim, ReusedSlotStartsCleanAndRerouteKeepsLinkListsInIdOrder) {
  const ThreeTier tree = build_three_tier(ThreeTierConfig{});
  sim::EventQueue events;
  FlowSim fs(events, tree.topo);
  // Hosts in different pods: several equal-cost paths through the core.
  const NodeId src = tree.hosts.front();
  const NodeId dst = tree.hosts.back();
  const auto paths = shortest_paths(tree.topo, src, dst);
  ASSERT_GE(paths.size(), 2u);
  const Path& old_path = paths[0];
  const Path& new_path = paths[1];

  const FlowId victim = fs.start_flow(old_path, 5e8, nullptr, 11);
  const FlowId oldest = fs.start_flow(old_path, 5e8, nullptr, 22);
  ASSERT_TRUE(fs.cancel(victim));
  EXPECT_EQ(fs.find(victim), nullptr);

  // The next start takes the cancelled flow's slot.
  const FlowId reused = fs.start_flow(new_path, 7e8, nullptr, 33, 4e6);
  EXPECT_EQ(fs.find(victim), nullptr);
  const FlowRecord* r = fs.find(reused);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->id, reused);
  EXPECT_EQ(r->tag, 33u);
  EXPECT_EQ(r->size_bytes, 7e8);
  EXPECT_EQ(r->remaining_bytes, 7e8);
  EXPECT_EQ(r->demand_bps, 4e6);
  EXPECT_EQ(r->path.links, new_path.links);
  EXPECT_EQ(fs.active_flow_count(), 2u);
  const FlowId newest = fs.start_flow(new_path, 5e8, nullptr, 44);

  // Reroute the oldest flow onto the path the two newer flows share: it
  // lands at the front of every list there.
  ASSERT_TRUE(fs.reroute(oldest, new_path));
  for (const LinkId l : new_path.links) {
    const auto on = fs.flows_on_link(l);
    ASSERT_EQ(on.size(), 3u) << tree.topo.link(l).name;
    EXPECT_EQ(on[0]->id, oldest);
    EXPECT_EQ(on[1]->id, reused);
    EXPECT_EQ(on[2]->id, newest);
  }
  for (const LinkId l : old_path.links) {
    if (new_path.contains_link(l)) continue;
    EXPECT_TRUE(fs.flows_on_link(l).empty()) << tree.topo.link(l).name;
  }
  EXPECT_TRUE(fs.rates_match_full_solve());

  // Back onto the old path, then cut it: the flows die in id order and
  // every list drains.
  for (const FlowId id : {newest, reused, oldest}) {
    ASSERT_TRUE(fs.reroute(id, old_path));
  }
  std::vector<FlowId> killed;
  fs.set_kill_handler([&](const FlowRecord& f) { killed.push_back(f.id); });
  ASSERT_TRUE(fs.fail_link(old_path.links[2]));
  EXPECT_EQ(killed, (std::vector<FlowId>{oldest, reused, newest}));
  EXPECT_EQ(fs.active_flow_count(), 0u);
  for (const FlowId id : {victim, oldest, reused, newest}) {
    EXPECT_EQ(fs.find(id), nullptr);
  }
  for (LinkId l = 0; l < tree.topo.link_count(); ++l) {
    EXPECT_TRUE(fs.flows_on_link(l).empty());
  }
}

// Differential test on random fabrics: twin simulators, one incremental and
// one full-solve, driven through one seeded schedule of starts (finite and
// infinite demands, zero-hop flows), cancels, reroutes onto another live
// equal-cost path, link failures and restores, capacity factors, and time
// advancing so that flows complete. After every step the twins must hold
// the same live flows at rates within 1e-6 relative of each other and of a
// from-scratch solve, every link's flow list must equal a brute-force scan
// of the live flows in id order, and both must have fired the same
// completions and kills, in the same order, at the same simulated times.
struct Fabric {
  Topology topo;
  std::vector<NodeId> hosts;
};

Fabric make_fabric(const std::string& name) {
  if (name == "three_tier") {
    ThreeTier tree = build_three_tier(ThreeTierConfig{});
    return {std::move(tree.topo), std::move(tree.hosts)};
  }
  FatTreeConfig cfg;
  cfg.k = name == "fat_tree_k4" ? 4 : 8;
  FatTree ft = build_fat_tree(cfg);
  return {std::move(ft.topo), std::move(ft.hosts)};
}

class FlowSimDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(FlowSimDifferential, TwinsAgreeUnderFaultAndRerouteChurn) {
  const Fabric fabric = make_fabric(GetParam());
  const Topology& topo = fabric.topo;
  PathCache paths(topo);
  Rng rng(20261017);

  sim::EventQueue ev_inc, ev_full;
  FlowSim::Config full_cfg;
  full_cfg.incremental = false;
  FlowSim inc(ev_inc, topo);
  FlowSim full(ev_full, topo, full_cfg);
  obs::MetricsRegistry solves;  // the bursts must reach the full-solve handoff
  inc.set_metrics(&solves);

  // ('c'ompleted | 'k'illed, flow id, simulated ns), in firing order.
  using Fired = std::tuple<char, FlowId, std::int64_t>;
  std::vector<Fired> fired_inc, fired_full;
  inc.set_kill_handler([&](const FlowRecord& r) {
    fired_inc.emplace_back('k', r.id, ev_inc.now().nanos());
  });
  full.set_kill_handler([&](const FlowRecord& r) {
    fired_full.emplace_back('k', r.id, ev_full.now().nanos());
  });

  // Faultable links: switch-switch only, so no host is ever stranded.
  std::vector<LinkId> faultable;
  for (LinkId l = 0; l < topo.link_count(); ++l) {
    if (topo.node(topo.link(l).from).kind != NodeKind::kHost &&
        topo.node(topo.link(l).to).kind != NodeKind::kHost) {
      faultable.push_back(l);
    }
  }
  std::vector<LinkId> down;
  std::set<FlowId> live;
  std::size_t seen = 0;  // fired entries already retired from `live`
  int reroutes = 0, zero_hop = 0, finite = 0;
  // Brute-force per-link scans, rebuilt after every step.
  std::vector<std::vector<FlowId>> expected(topo.link_count());
  std::vector<FlowId> got;

  const auto random_live = [&] {
    return *std::next(live.begin(),
                      static_cast<std::ptrdiff_t>(rng.next_below(live.size())));
  };
  const auto random_host = [&] {
    return fabric.hosts[rng.next_below(fabric.hosts.size())];
  };
  // A random path from `src` to `dst` that is alive now, or nullptr.
  const auto random_alive_path = [&](NodeId src, NodeId dst) -> const Path* {
    std::vector<const Path*> alive;
    for (const Path& p : paths.get(src, dst)) {
      if (inc.path_alive(p)) alive.push_back(&p);
    }
    return alive.empty() ? nullptr : alive[rng.next_below(alive.size())];
  };
  const auto start = [&](const Path& p, double bytes, double demand) {
    const FlowId a = inc.start_flow(
        p, bytes,
        [&](const FlowRecord& r) {
          fired_inc.emplace_back('c', r.id, ev_inc.now().nanos());
        },
        0, demand);
    const FlowId b = full.start_flow(
        p, bytes,
        [&](const FlowRecord& r) {
          fired_full.emplace_back('c', r.id, ev_full.now().nanos());
        },
        0, demand);
    EXPECT_EQ(a, b);
    live.insert(a);
  };

  for (int step = 0; step < 600; ++step) {
    const double dice = rng.next_double();
    if (step % 200 == 100) {  // burst: couples more flows than a local solve
      const NodeId dst = random_host();
      for (int i = 0; i < 72; ++i) {
        const NodeId src = random_host();
        if (src == dst) continue;
        if (const Path* p = random_alive_path(src, dst)) {
          start(*p, rng.uniform(1e6, 2e7), kInfiniteDemand);
        }
      }
    } else if (dice < 0.08) {  // fail an up link, often one a live flow crosses
      LinkId l = faultable[rng.next_below(faultable.size())];
      if (!live.empty() && rng.bernoulli(0.5)) {
        const std::vector<LinkId>& on = inc.find(random_live())->path.links;
        if (on.size() > 2) l = on[1 + rng.next_below(on.size() - 2)];
      }
      if (inc.link_up(l)) {
        EXPECT_TRUE(inc.fail_link(l));
        EXPECT_TRUE(full.fail_link(l));
        down.push_back(l);
      }
    } else if (dice < 0.14) {  // restore a down link
      if (!down.empty()) {
        const std::size_t i = rng.next_below(down.size());
        EXPECT_TRUE(inc.restore_link(down[i]));
        EXPECT_TRUE(full.restore_link(down[i]));
        down.erase(down.begin() + static_cast<std::ptrdiff_t>(i));
      }
    } else if (dice < 0.20) {  // degrade or restore capacity
      const LinkId l = faultable[rng.next_below(faultable.size())];
      const double factors[] = {0.25, 0.5, 1.0};
      const double factor = factors[rng.next_below(3)];
      inc.set_link_capacity_factor(l, factor);
      full.set_link_capacity_factor(l, factor);
    } else if (dice < 0.30) {  // cancel
      if (!live.empty()) {
        const FlowId id = random_live();
        EXPECT_TRUE(inc.cancel(id));
        EXPECT_TRUE(full.cancel(id));
        live.erase(id);
        EXPECT_EQ(inc.find(id), nullptr);
        EXPECT_EQ(full.find(id), nullptr);
      }
    } else if (dice < 0.40) {  // reroute onto another live equal-cost path
      if (!live.empty()) {
        const FlowId id = random_live();
        const Path current = inc.find(id)->path;
        if (!current.links.empty()) {
          std::vector<const Path*> options;
          for (const Path& p :
               paths.get(current.nodes.front(), current.nodes.back())) {
            if (p.links != current.links && inc.path_alive(p)) {
              options.push_back(&p);
            }
          }
          if (!options.empty()) {
            const Path& p = *options[rng.next_below(options.size())];
            EXPECT_TRUE(inc.reroute(id, p));
            EXPECT_TRUE(full.reroute(id, p));
            ++reroutes;
          }
        }
      }
    } else if (dice < 0.55) {  // advance time; flows complete on the way
      const sim::SimTime until =
          ev_inc.now() + sim::SimTime::from_seconds(rng.uniform(0.0, 0.15));
      for (sim::EventQueue* ev : {&ev_inc, &ev_full}) {
        ev->schedule_at(until, [] {});  // pins now() at `until`
        ev->run_until(until);
      }
    } else {  // start: zero-hop or over a live path, finite or elastic
      const NodeId src = random_host();
      const double bytes = rng.uniform(1e6, 2e8);
      const double demand =
          rng.bernoulli(0.5) ? kInfiniteDemand : rng.uniform(5e6, 1e8);
      finite += std::isfinite(demand) ? 1 : 0;
      if (rng.bernoulli(0.1)) {
        Path local;
        local.nodes = {src};
        start(local, bytes, demand);
        ++zero_hop;
      } else {
        NodeId dst = src;
        while (dst == src) dst = random_host();
        if (const Path* p = random_alive_path(src, dst)) {
          start(*p, bytes, demand);
        }
      }
    }

    ASSERT_EQ(fired_inc, fired_full) << "step " << step;
    for (; seen < fired_inc.size(); ++seen) {
      const FlowId id = std::get<1>(fired_inc[seen]);
      EXPECT_EQ(live.erase(id), 1u) << "step " << step;
      EXPECT_EQ(inc.find(id), nullptr);
      EXPECT_EQ(full.find(id), nullptr);
    }
    ASSERT_EQ(inc.active_flow_count(), live.size()) << "step " << step;
    ASSERT_EQ(full.active_flow_count(), live.size()) << "step " << step;
    ASSERT_TRUE(inc.rates_match_full_solve()) << "step " << step;
    for (const FlowId id : live) {
      const FlowRecord* a = inc.find(id);
      const FlowRecord* b = full.find(id);
      ASSERT_NE(a, nullptr) << "step " << step;
      ASSERT_NE(b, nullptr) << "step " << step;
      ASSERT_NEAR(a->rate_bps, b->rate_bps, 1e-6 * (1.0 + b->rate_bps))
          << "step " << step;
    }
    for (const FlowSim* sim : {&inc, &full}) {
      for (std::vector<FlowId>& ids : expected) ids.clear();
      for (const FlowId id : live) {  // ascending
        for (const LinkId l : sim->find(id)->path.links) {
          expected[l].push_back(id);
        }
      }
      for (LinkId l = 0; l < topo.link_count(); ++l) {
        got.clear();
        for (const FlowRecord* f : sim->flows_on_link(l)) got.push_back(f->id);
        ASSERT_EQ(got, expected[l]) << "step " << step << " link " << l;
      }
    }
  }

  // Drain: every flow is finite, so both twins empty out identically.
  ev_inc.run();
  ev_full.run();
  EXPECT_EQ(fired_inc, fired_full);
  EXPECT_EQ(inc.active_flow_count(), 0u);
  EXPECT_EQ(full.active_flow_count(), 0u);

  // The schedule reached every kind of change it mixes.
  const auto count = [&](char kind) {
    return std::count_if(fired_inc.begin(), fired_inc.end(),
                         [&](const Fired& f) { return std::get<0>(f) == kind; });
  };
  EXPECT_GT(count('c'), 0);
  EXPECT_GT(count('k'), 0);
  EXPECT_GT(reroutes, 0);
  EXPECT_GT(zero_hop, 0);
  EXPECT_GT(finite, 0);
  EXPECT_GT(solves.counter_value("net.flowsim.handoff_solves"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Fabrics, FlowSimDifferential,
                         ::testing::Values("three_tier", "fat_tree_k4",
                                           "fat_tree_k8"),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           return p.param;
                         });

// Satellite guardrails: interrogating the utilization or capacity of a link
// id that does not exist must abort loudly instead of reading garbage.
TEST(FlowSimDeathTest, UnknownLinkLookupsAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const ThreeTier tree = build_three_tier(ThreeTierConfig{});
  sim::EventQueue events;
  FlowSim fs(events, tree.topo);
  const LinkId bogus = tree.topo.link_count() + 7;
  EXPECT_DEATH((void)fs.link_utilization(bogus), "assertion failed");
  EXPECT_DEATH((void)fs.link_capacity(bogus), "assertion failed");
  EXPECT_DEATH(fs.set_link_capacity_factor(0, 0.0), "assertion failed");
}

// Property sweep on the real 3-tier fabric: random flows between random
// hosts; every flow must deliver exactly its size, per-link counters must
// equal the sum of sizes of flows crossing that link, and completion times
// must be bounded below by size / bottleneck-capacity.
class FlowSimConservation : public ::testing::TestWithParam<int> {};

TEST_P(FlowSimConservation, BytesAreConserved) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const ThreeTier tree = build_three_tier(ThreeTierConfig{});
  sim::EventQueue events;
  FlowSim fs(events, tree.topo);

  struct Planned {
    Path path;
    double bytes;
    double start;
    double completed = -1.0;
  };
  std::vector<Planned> plan;
  const std::size_t n_flows = 5 + rng.next_below(20);
  for (std::size_t i = 0; i < n_flows; ++i) {
    const NodeId src = tree.hosts[rng.next_below(tree.hosts.size())];
    NodeId dst = src;
    while (dst == src) dst = tree.hosts[rng.next_below(tree.hosts.size())];
    const auto paths = shortest_paths(tree.topo, src, dst);
    Planned p;
    p.path = paths[rng.next_below(paths.size())];
    p.bytes = rng.uniform(1e6, 3e8);
    p.start = rng.uniform(0.0, 5.0);
    plan.push_back(std::move(p));
  }

  for (std::size_t i = 0; i < plan.size(); ++i) {
    events.schedule_at(sim::SimTime::from_seconds(plan[i].start), [&, i] {
      fs.start_flow(plan[i].path, plan[i].bytes,
                    [&, i](const FlowRecord& f) {
                      EXPECT_NEAR(f.bytes_sent(), plan[i].bytes, 1e-2);
                      plan[i].completed = events.now().seconds();
                    });
    });
  }
  events.run();
  fs.sync();

  // Every flow finished, never faster than its bottleneck allows.
  std::vector<double> link_expected(tree.topo.link_count(), 0.0);
  for (const Planned& p : plan) {
    ASSERT_GE(p.completed, 0.0);
    double bottleneck = kInfiniteDemand;
    for (const LinkId l : p.path.links) {
      bottleneck = std::min(bottleneck, tree.topo.link(l).capacity_bps);
      link_expected[l] += p.bytes;
    }
    EXPECT_GE(p.completed - p.start, p.bytes / bottleneck - 1e-6);
  }
  // Link counters: cumulative bytes == sum of crossing flows' sizes.
  for (LinkId l = 0; l < tree.topo.link_count(); ++l) {
    EXPECT_NEAR(fs.link_tx_bytes(l), link_expected[l],
                1e-3 * (1.0 + link_expected[l]))
        << tree.topo.link(l).name;
  }
  EXPECT_EQ(fs.active_flow_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Random, FlowSimConservation, ::testing::Range(0, 20));

}  // namespace
}  // namespace mayflower::net
