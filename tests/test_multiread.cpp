// Multi-read (§4.3) through the Flowserver's decision pipeline: the planner
// tries the split on the batch view, then the accepted plan is committed to
// the table. Plans report each subflow's candidate share; the share a split
// sizing assumed is what the commit wrote into the table.
#include "flowserver/multiread.hpp"

#include <gtest/gtest.h>

#include "figure2_fixture.hpp"
#include "flowserver/flowserver.hpp"
#include "obs/observability.hpp"

namespace mayflower::flowserver {
namespace {

using testing::Figure2;

FlowserverConfig with_obs(obs::Observability* hub) {
  FlowserverConfig cfg;
  cfg.obs = hub;
  return cfg;
}

// A Flowserver over `topo` with the default config.
struct Rig {
  explicit Rig(const net::Topology& topo, obs::Observability* hub = nullptr)
      : fabric(events, topo), server(fabric, with_obs(hub)) {}

  // The committed share of one planned subflow.
  double table_bps(const ReadAssignment& a) {
    return server.table().find(a.cookie)->bw_bps;
  }
  double table_bytes(const ReadAssignment& a) {
    return server.table().find(a.cookie)->size_bytes;
  }

  sim::EventQueue events;
  sdn::SdnFabric fabric;
  Flowserver server;
};

// Copies the fixture's background flows (numbered from 100) into the
// Flowserver's table.
void preload(const Figure2& fig, Flowserver& server) {
  for (sdn::Cookie c = 100; c < fig.next_cookie; ++c) {
    const TrackedFlow* f = fig.table.find(c);
    server.table().add(c, f->path, f->size_bytes, f->bw_bps, sim::SimTime{});
  }
}

// Two replicas behind the same edge switch, and the client's access link
// is the bottleneck: splitting cannot beat a single flow.
struct SharedBottleneck {
  SharedBottleneck() {
    s1 = topo.add_node(net::NodeKind::kHost, "s1");
    s2 = topo.add_node(net::NodeKind::kHost, "s2");
    d = topo.add_node(net::NodeKind::kHost, "d");
    es = topo.add_node(net::NodeKind::kEdgeSwitch, "es");
    ed = topo.add_node(net::NodeKind::kEdgeSwitch, "ed");
    topo.add_duplex(s1, es, 10.0);
    topo.add_duplex(s2, es, 10.0);
    topo.add_duplex(es, ed, 10.0);
    topo.add_duplex(ed, d, 3.0);  // client bottleneck
  }
  net::Topology topo;
  net::NodeId s1, s2, d, es, ed;
};

TEST(MultiRead, SingleReplicaNeverSplits) {
  Figure2 fig;
  Rig rig(fig.topo);
  preload(fig, rig.server);
  const auto plan = rig.server.select_for_read(fig.D, {fig.S}, 9.0);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_DOUBLE_EQ(plan[0].bytes, 9.0);
  EXPECT_NE(rig.server.table().find(plan[0].cookie), nullptr);
  EXPECT_EQ(rig.server.table().size(), 9u);  // 8 background + 1
  EXPECT_EQ(rig.server.split_reads(), 0u);
}

TEST(MultiRead, SplitsWhenReplicasAvoidSharedBottleneck) {
  // Replica S behind Es (best share 3, as in Figure 2) and replica S2
  // behind Ed with a 6-unit uplink. Together: subflow1 = 6 via S2,
  // subflow2 = 3 via S => combined 9 > 6. Split expected, sized so both
  // subflows finish together.
  Figure2 fig;
  const net::NodeId s2 = fig.topo.add_node(net::NodeKind::kHost, "S2");
  fig.topo.add_duplex(s2, fig.Ed, 6.0);
  Rig rig(fig.topo);
  preload(fig, rig.server);

  const auto plan = rig.server.select_for_read(fig.D, {fig.S, s2}, 9.0);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_NE(plan[0].replica, plan[1].replica);
  EXPECT_EQ(rig.server.split_reads(), 1u);

  // Greedy first pick: S2 at share 6; second subflow from S at share 3.
  EXPECT_EQ(plan[0].replica, s2);
  EXPECT_NEAR(rig.table_bps(plan[0]), 6.0, 1e-9);
  EXPECT_EQ(plan[1].replica, fig.S);
  EXPECT_NEAR(rig.table_bps(plan[1]), 3.0, 1e-9);

  // Sizes proportional to shares: 9 * 6/9 = 6 and 9 * 3/9 = 3.
  EXPECT_NEAR(plan[0].bytes, 6.0, 1e-9);
  EXPECT_NEAR(plan[1].bytes, 3.0, 1e-9);
  EXPECT_NEAR(plan[0].bytes + plan[1].bytes, 9.0, 1e-12);

  // Equal estimated finish times.
  EXPECT_NEAR(plan[0].bytes / rig.table_bps(plan[0]),
              plan[1].bytes / rig.table_bps(plan[1]), 1e-9);

  // Both flows registered with their split sizes.
  EXPECT_NEAR(rig.table_bytes(plan[0]), 6.0, 1e-9);
  EXPECT_NEAR(rig.table_bytes(plan[1]), 3.0, 1e-9);
}

TEST(MultiRead, RejectsSplitSharingTheBottleneck) {
  SharedBottleneck net;
  Rig rig(net.topo);
  const auto plan = rig.server.select_for_read(net.d, {net.s1, net.s2}, 9.0);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_DOUBLE_EQ(plan[0].bytes, 9.0);
  EXPECT_NEAR(plan[0].est_bw_bps, 3.0, 1e-9);
  EXPECT_EQ(rig.server.split_reads(), 0u);
  // The rejected subflow left no residue in the table or the view, and the
  // kept subflow holds its unsplit share.
  EXPECT_EQ(rig.server.table().size(), 1u);
  EXPECT_EQ(rig.server.view().flow_count(), 1u);
  EXPECT_NEAR(rig.table_bps(plan[0]), 3.0, 1e-9);
  EXPECT_NEAR(rig.table_bytes(plan[0]), 9.0, 1e-9);
}

TEST(MultiRead, RejectedSplitNeverReachesTheTracer) {
  // A started background transfer s2 -> s1 shares only s2's uplink with
  // the rejected subflow 2. Trying the split bumps it and halves subflow 1's
  // share on the client link; neither may leak into the flow traces.
  SharedBottleneck net;
  obs::Observability hub;
  Rig rig(net.topo, &hub);
  rig.fabric.set_obs(&hub);
  const auto bg = rig.server.select_for_read(net.s1, {net.s2}, 1e3);
  ASSERT_EQ(bg.size(), 1u);
  rig.fabric.start_flow(bg[0].cookie, bg[0].path, bg[0].bytes, nullptr);
  const obs::FlowTraceRecord* bg_trace = hub.trace.find_active(bg[0].cookie);
  ASSERT_NE(bg_trace, nullptr);
  ASSERT_TRUE(bg_trace->started);
  const std::uint32_t bumps = bg_trace->setbw_bumps;

  const auto plan = rig.server.select_for_read(net.d, {net.s1, net.s2}, 9.0);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].replica, net.s1);
  const obs::FlowTraceRecord* trace = hub.trace.find_active(plan[0].cookie);
  ASSERT_NE(trace, nullptr);
  EXPECT_DOUBLE_EQ(trace->planned_bw_bps, plan[0].est_bw_bps);
  EXPECT_DOUBLE_EQ(trace->planned_bw_bps, rig.table_bps(plan[0]));
  EXPECT_EQ(hub.trace.find_active(bg[0].cookie)->setbw_bumps, bumps);
}

TEST(MultiRead, SplitsAcrossFigure2sTwoAggPaths) {
  // Both replicas behind Es: paths via A and via B have *independent*
  // 3-share bottlenecks, so reading both in parallel doubles throughput.
  Figure2 fig;
  const net::NodeId s2 = fig.topo.add_node(net::NodeKind::kHost, "S2");
  fig.topo.add_duplex(s2, fig.Es, 10.0);
  Rig rig(fig.topo);
  preload(fig, rig.server);
  const auto plan = rig.server.select_for_read(fig.D, {fig.S, s2}, 9.0);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_NEAR(rig.table_bps(plan[0]) + rig.table_bps(plan[1]), 6.0, 1e-9);
  // 3:3 shares => even split.
  EXPECT_NEAR(plan[0].bytes, 4.5, 1e-9);
  EXPECT_NEAR(plan[1].bytes, 4.5, 1e-9);
}

TEST(MultiRead, SplitSizingIsConsistentWhenSubflowsShareTwoLinks) {
  // Both subflows funnel through the SAME two links (M->Ed and Ed->D), so
  // subflow 2's candidate computes subflow 1's reduced share across more
  // than one shared link. The bumped list must still carry exactly one
  // entry for subflow 1 (the path's flow union is deduplicated; the
  // reduced share mins over all shared links) — the planner asserts that
  // invariant, and the split must tile the request and finish both legs
  // together.
  //
  //   S1 --8--> M --10--> Ed --10--> D
  //   S2 --6--> M
  net::Topology topo;
  const auto s1 = topo.add_node(net::NodeKind::kHost, "S1");
  const auto s2 = topo.add_node(net::NodeKind::kHost, "S2");
  const auto d = topo.add_node(net::NodeKind::kHost, "D");
  const auto m = topo.add_node(net::NodeKind::kEdgeSwitch, "M");
  const auto ed = topo.add_node(net::NodeKind::kEdgeSwitch, "Ed");
  topo.add_duplex(s1, m, 8.0);
  topo.add_duplex(s2, m, 6.0);
  topo.add_duplex(m, ed, 10.0);
  topo.add_duplex(ed, d, 10.0);
  Rig rig(topo);

  const double request = 10.0;
  const auto plan = rig.server.select_for_read(d, {s1, s2}, request);
  ASSERT_EQ(plan.size(), 2u);

  // Greedy pick: S1 at min(8,10,10) = 8. Subflow 2 from S2: max-min on the
  // shared 10-links gives each flow 5, access 6 => b2 = 5 and subflow 1 is
  // bumped 8 -> 5 (the same value on both shared links).
  EXPECT_EQ(plan[0].replica, s1);
  EXPECT_EQ(plan[1].replica, s2);
  EXPECT_NEAR(plan[0].est_bw_bps, 8.0, 1e-9);  // subflow 1 before the split
  EXPECT_NEAR(rig.table_bps(plan[0]), 5.0, 1e-9);
  EXPECT_NEAR(rig.table_bps(plan[1]), 5.0, 1e-9);

  // s1 + s2 tiles the request exactly...
  EXPECT_NEAR(plan[0].bytes + plan[1].bytes, request, 1e-12);
  EXPECT_NEAR(plan[0].bytes, 5.0, 1e-9);
  EXPECT_NEAR(plan[1].bytes, 5.0, 1e-9);
  // ...and both subflows finish together at their planned shares.
  EXPECT_NEAR(plan[0].bytes / rig.table_bps(plan[0]),
              plan[1].bytes / rig.table_bps(plan[1]), 1e-9);

  // The committed table agrees with the plan.
  EXPECT_NEAR(rig.table_bytes(plan[0]), 5.0, 1e-9);
  EXPECT_NEAR(rig.table_bytes(plan[1]), 5.0, 1e-9);
}

}  // namespace
}  // namespace mayflower::flowserver
