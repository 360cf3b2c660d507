// Golden tests: the replica–path selector must reproduce the paper's
// Figure 2 cost arithmetic exactly (C1 = 4.257, C2 = 3.607, second path
// selected; with a 20 Mbps Es->A link, C1 = 2.4 and the first path wins).
#include "flowserver/selector.hpp"

#include <gtest/gtest.h>

#include "figure2_fixture.hpp"

namespace mayflower::flowserver {
namespace {

using testing::Figure2;

class SelectorFigure2 : public ::testing::Test {
 protected:
  static constexpr double kRequest = 9.0;  // Mb
};

TEST_F(SelectorFigure2, FirstPathCostIs4point25) {
  Figure2 fig;
  BandwidthModel model;
  const Candidate c = evaluate_path(model, fig.view(), fig.S,
                                    fig.path_via(fig.A), kRequest);
  EXPECT_NEAR(c.est_bw_bps, 3.0, 1e-9);
  EXPECT_NEAR(c.cost.own_time, 3.0, 1e-9);
  // (6/3 - 6/6) + (6/7 - 6/10) = 1 + 0.2571...
  EXPECT_NEAR(c.cost.impact, 1.0 + 6.0 / 7.0 - 0.6, 1e-9);
  EXPECT_NEAR(c.cost.total, 4.2571428571, 1e-6);  // paper rounds to 4.25
}

TEST_F(SelectorFigure2, SecondPathCostIs3point6) {
  Figure2 fig;
  BandwidthModel model;
  const Candidate c = evaluate_path(model, fig.view(), fig.S,
                                    fig.path_via(fig.B), kRequest);
  EXPECT_NEAR(c.est_bw_bps, 3.0, 1e-9);
  // (6/3 - 6/4) + (6/7 - 6/8) = 0.5 + 0.107...
  EXPECT_NEAR(c.cost.total, 3.6071428571, 1e-6);  // paper rounds to 3.6
}

TEST_F(SelectorFigure2, SelectorPicksTheSecondPath) {
  Figure2 fig;
  net::PathCache cache(fig.topo);
  ReplicaPathSelector selector(fig.topo, cache, fig.table);
  const auto best = selector.select(fig.view(), fig.D, {fig.S}, kRequest);
  ASSERT_TRUE(best.has_value());
  // Winning path goes via aggregation switch B.
  bool via_b = false;
  for (const net::NodeId n : best->path.nodes) via_b |= (n == fig.B);
  EXPECT_TRUE(via_b);
  EXPECT_NEAR(best->cost.total, 3.6071428571, 1e-6);
}

TEST_F(SelectorFigure2, WiderFirstLinkFlipsTheDecision) {
  // "if we assume that the second link in the first path has 20Mbps
  //  capacity, then the cost of the first path will become 2.4" (§4.2).
  Figure2 fig(/*cap_es_a=*/20.0);
  net::PathCache cache(fig.topo);
  ReplicaPathSelector selector(fig.topo, cache, fig.table);
  const auto best = selector.select(fig.view(), fig.D, {fig.S}, kRequest);
  ASSERT_TRUE(best.has_value());
  bool via_a = false;
  for (const net::NodeId n : best->path.nodes) via_a |= (n == fig.A);
  EXPECT_TRUE(via_a);
  EXPECT_NEAR(best->est_bw_bps, 5.0, 1e-9);
  EXPECT_NEAR(best->cost.total, 2.4, 1e-6);
}

TEST_F(SelectorFigure2, BumpedListNamesOnlySlowedFlows) {
  Figure2 fig;
  BandwidthModel model;
  const Candidate c = evaluate_path(model, fig.view(), fig.S,
                                    fig.path_via(fig.A), kRequest);
  // Only the 6-share and 10-share flows are slowed; the 2-share flows keep
  // their demand.
  ASSERT_EQ(c.bumped.size(), 2u);
  for (const auto& [cookie, bw] : c.bumped) {
    EXPECT_TRUE(cookie == fig.flow6 || cookie == fig.flow10);
    if (cookie == fig.flow6) EXPECT_NEAR(bw, 3.0, 1e-9);
    if (cookie == fig.flow10) EXPECT_NEAR(bw, 7.0, 1e-9);
  }
}

TEST_F(SelectorFigure2, CommitAppliesSetBwAndRegistersFlow) {
  Figure2 fig;
  net::PathCache cache(fig.topo);
  ReplicaPathSelector selector(fig.topo, cache, fig.table);
  net::NetworkView view = fig.view();
  const auto best = selector.select(view, fig.D, {fig.S}, kRequest);
  ASSERT_TRUE(best.has_value());
  const sim::SimTime now = sim::SimTime::from_seconds(1.0);
  selector.commit(view, *best, /*cookie=*/999, kRequest, now);

  // New flow registered, frozen, with its estimate.
  const TrackedFlow* nf = fig.table.find(999);
  ASSERT_NE(nf, nullptr);
  EXPECT_NEAR(nf->bw_bps, 3.0, 1e-9);
  EXPECT_TRUE(nf->frozen);
  EXPECT_DOUBLE_EQ(nf->remaining_bytes, kRequest);

  // Second path chosen: flow4 (share 4 -> 3) and flow8 (8 -> 7) were SETBW'd
  // and frozen; first-path flows untouched.
  EXPECT_NEAR(fig.table.find(fig.flow4)->bw_bps, 3.0, 1e-9);
  EXPECT_TRUE(fig.table.find(fig.flow4)->frozen);
  EXPECT_NEAR(fig.table.find(fig.flow8)->bw_bps, 7.0, 1e-9);
  EXPECT_NEAR(fig.table.find(fig.flow6)->bw_bps, 6.0, 1e-9);
  EXPECT_NEAR(fig.table.find(fig.flow10)->bw_bps, 10.0, 1e-9);

  // Write-through: the batch's view mirrors every commit, so later
  // decisions in the same batch see identical state.
  ASSERT_NE(view.find(999), nullptr);
  EXPECT_NEAR(view.find(999)->bw_bps, 3.0, 1e-9);
  EXPECT_NEAR(view.find(fig.flow4)->bw_bps, 3.0, 1e-9);
  EXPECT_NEAR(view.find(fig.flow8)->bw_bps, 7.0, 1e-9);
  EXPECT_NEAR(view.find(fig.flow6)->bw_bps, 6.0, 1e-9);
}

TEST_F(SelectorFigure2, GreedyModeIgnoresImpact) {
  // With impact accounting off both paths cost 3.0; the selector takes the
  // first one it evaluates. Verify the cost reduction is reflected.
  Figure2 fig;
  net::PathCache cache(fig.topo);
  ReplicaPathSelector selector(fig.topo, cache, fig.table);
  selector.set_impact_aware(false);
  const auto best = selector.select(fig.view(), fig.D, {fig.S}, kRequest);
  ASSERT_TRUE(best.has_value());
  EXPECT_NEAR(best->cost.total, 3.0, 1e-9);
}

// Regression: commit() used to apply the bumped shares computed at select()
// time verbatim. If a stats poll (or another selection's commit) lowered a
// flow's share in between, the stale SETBW *raised* the flow back above what
// the fabric actually gives it — and froze the over-estimate. commit() must
// clamp to the fresher table value.
TEST_F(SelectorFigure2, CommitNeverRaisesAFlowAboveItsCurrentShare) {
  Figure2 fig;
  net::PathCache cache(fig.topo);
  ReplicaPathSelector selector(fig.topo, cache, fig.table);

  // The selection reads a snapshot taken BEFORE the interleaving below: the
  // view is about to go stale, which is exactly the hazard the commit-time
  // clamp guards against.
  net::NetworkView view = fig.view();
  fig.table.clear_changes();  // the snapshot holds every change so far

  // Selection sees flow4 at share 4 and plans to bump it to 3 (path via B).
  const auto best = selector.select(view, fig.D, {fig.S}, kRequest);
  ASSERT_TRUE(best.has_value());
  double planned_flow4 = -1.0;
  for (const auto& [cookie, bw] : best->bumped) {
    if (cookie == fig.flow4) planned_flow4 = bw;
  }
  ASSERT_NEAR(planned_flow4, 3.0, 1e-9);

  // Before commit, an interleaved poll measured flow4 at only 2. The table
  // logs the change — this is the signal the Flowserver uses to sync its
  // cached view before the NEXT batch; the in-flight decision still holds
  // the old snapshot.
  fig.table.setbw(fig.flow4, 2.0, sim::SimTime{});
  EXPECT_EQ(fig.table.changes(), std::vector<sdn::Cookie>{fig.flow4});
  EXPECT_NEAR(view.find(fig.flow4)->bw_bps, 4.0, 1e-9);  // snapshot unmoved

  selector.commit(view, *best, fig.next_cookie, kRequest, sim::SimTime{});

  // The stale estimate (3) must not override the fresher, lower share (2):
  // commit clamps to min(current, planned) against the authoritative table.
  EXPECT_NEAR(fig.table.find(fig.flow4)->bw_bps, 2.0, 1e-9);
  // The write-through mirrors the CLAMPED value, not the stale plan.
  EXPECT_NEAR(view.find(fig.flow4)->bw_bps, 2.0, 1e-9);
  // Flows whose planned share is still below their current one drop as
  // planned.
  EXPECT_NEAR(fig.table.find(fig.flow8)->bw_bps, 7.0, 1e-9);
  EXPECT_NEAR(view.find(fig.flow8)->bw_bps, 7.0, 1e-9);
}

TEST_F(SelectorFigure2, MultipleReplicasWidenTheSearch) {
  // Add a second replica co-located on the destination edge: its 2-link
  // path is idle, so it must win over both 4-link paths.
  Figure2 fig;
  const net::NodeId s2 = fig.topo.add_node(net::NodeKind::kHost, "S2");
  fig.topo.add_duplex(s2, fig.Ed, 10.0);
  net::PathCache cache(fig.topo);
  ReplicaPathSelector selector(fig.topo, cache, fig.table);
  const auto best = selector.select(fig.view(), fig.D, {fig.S, s2}, kRequest);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->replica, s2);
  EXPECT_NEAR(best->est_bw_bps, 10.0, 1e-9);
  EXPECT_NEAR(best->cost.total, 0.9, 1e-9);
}

}  // namespace
}  // namespace mayflower::flowserver
