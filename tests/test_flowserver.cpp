// Integration tests of the Flowserver service against the SDN fabric.
#include "flowserver/flowserver.hpp"

#include <gtest/gtest.h>

#include "net/tree.hpp"

namespace mayflower::flowserver {
namespace {

class FlowserverTest : public ::testing::Test {
 protected:
  FlowserverTest()
      : tree_(net::build_three_tier(net::ThreeTierConfig{})),
        fabric_(events_, tree_.topo) {}

  FlowserverConfig default_config() {
    FlowserverConfig cfg;
    cfg.poll_interval = sim::SimTime::from_seconds(1.0);
    return cfg;
  }

  // A read with the replica fixed: only the network path is chosen.
  ReadAssignment read_from_replica(Flowserver& server, net::NodeId client,
                                   net::NodeId replica, double bytes) {
    const std::vector<ReadAssignment> plan =
        server.select_for_read(client, {replica}, bytes);
    EXPECT_EQ(plan.size(), 1u);
    return plan.empty() ? ReadAssignment{} : plan[0];
  }

  // Runs assignments to completion, reporting drops like a real client.
  void execute(Flowserver& server,
               const std::vector<ReadAssignment>& assignments,
               double* finished_at = nullptr) {
    for (const auto& a : assignments) {
      fabric_.start_flow(a.cookie, a.path, a.bytes,
                         [&server, finished_at, this](sdn::Cookie cookie,
                                                      sim::SimTime) {
                           server.flow_dropped(cookie);
                           if (finished_at != nullptr) {
                             *finished_at = events_.now().seconds();
                           }
                         });
    }
  }

  sim::EventQueue events_;
  net::ThreeTier tree_;
  sdn::SdnFabric fabric_;
};

TEST_F(FlowserverTest, SelectInstallsPathsAndRegistersFlows) {
  Flowserver server(fabric_, default_config());
  const auto& file_replicas = std::vector<net::NodeId>{
      tree_.hosts[5], tree_.hosts[20], tree_.hosts[40]};
  const auto assignments =
      server.select_for_read(tree_.hosts[0], file_replicas, 256e6);
  ASSERT_FALSE(assignments.empty());
  for (const auto& a : assignments) {
    EXPECT_TRUE(a.cookie != 0);
    EXPECT_GT(a.bytes, 0.0);
    EXPECT_GT(a.est_bw_bps, 0.0);
    EXPECT_NE(a.replica, net::kInvalidNode);
    EXPECT_NE(server.table().find(a.cookie), nullptr);
    // Installed: starting must not trip the hop-by-hop verification.
    fabric_.start_flow(a.cookie, a.path, a.bytes, nullptr);
  }
  events_.run_until(sim::SimTime::from_seconds(0.5));
}

TEST_F(FlowserverTest, IdleFabricSelectionUsesFullEdgeBandwidth) {
  Flowserver server(fabric_, default_config());
  const auto assignments = server.select_for_read(
      tree_.hosts[0], {tree_.hosts[1]}, 125e6);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_NEAR(assignments[0].est_bw_bps, 125e6, 1.0);  // idle 1 Gbps edge
  double done = -1.0;
  execute(server, assignments, &done);
  events_.run();
  EXPECT_NEAR(done, 1.0, 1e-6);
  EXPECT_EQ(server.table().size(), 0u);  // drop removed it
}

TEST_F(FlowserverTest, SplitReadCompletesAndCountsAsOne) {
  Flowserver server(fabric_, default_config());
  // Two replicas in different pods: paths are disjoint until the client's
  // access link, which at 1 Gbps is wide enough that splitting wins when
  // the cross-pod core links (0.5 Gbps equivalent) are the per-flow caps.
  const auto assignments = server.select_for_read(
      tree_.hosts[0], {tree_.hosts[16], tree_.hosts[32]}, 256e6);
  // Whether a split happens is a modelled decision; both outcomes are
  // valid, but the counters must agree with it.
  EXPECT_EQ(server.split_reads(), assignments.size() == 2 ? 1u : 0u);
  EXPECT_EQ(server.selections(), 1u);
  double total = 0.0;
  for (const auto& a : assignments) total += a.bytes;
  EXPECT_NEAR(total, 256e6, 1e-3);
  execute(server, assignments);
  events_.run_until(sim::SimTime::from_seconds(60.0));
  EXPECT_EQ(server.table().size(), 0u);
}

TEST_F(FlowserverTest, PathOnlySelectionRespectsReplica) {
  Flowserver server(fabric_, default_config());
  const net::NodeId replica = tree_.hosts[16];
  const auto a = read_from_replica(server, tree_.hosts[0], replica, 64e6);
  EXPECT_EQ(a.replica, replica);
  EXPECT_EQ(a.path.nodes.front(), replica);
  EXPECT_EQ(a.path.nodes.back(), tree_.hosts[0]);
  EXPECT_DOUBLE_EQ(a.bytes, 64e6);
}

TEST_F(FlowserverTest, PathSchedulerSpreadsLoadAcrossCorePaths) {
  // Repeated cross-pod reads from the same replica: the thin agg->core
  // links (62.5 MB/s at 8:1) are the bottleneck, so the cost term must
  // route consecutive flows over disjoint core paths instead of stacking
  // one (this is what "Mayflower path selection" buys over ECMP's luck).
  Flowserver server(fabric_, default_config());
  const net::NodeId replica = tree_.hosts[16];  // pod 1
  const net::NodeId client = tree_.hosts[0];    // pod 0
  std::set<std::vector<net::LinkId>> distinct_paths;
  std::vector<ReadAssignment> all;
  for (int i = 0; i < 4; ++i) {
    const auto a = read_from_replica(server, client, replica, 256e6);
    distinct_paths.insert(a.path.links);
    all.push_back(a);
    fabric_.start_flow(a.cookie, a.path, a.bytes, nullptr);
  }
  // 4 pairwise core-link-disjoint choices exist. The first three flows see
  // strictly cheaper costs on fresh core links; the fourth ties (the shared
  // replica uplink dominates) and may reuse one, so we require >= 3.
  EXPECT_GE(distinct_paths.size(), 3u);
  // The first two flows see a full thin-link share each (disjoint paths);
  // afterwards the shared replica uplink becomes the limit.
  EXPECT_NEAR(all[0].est_bw_bps, 62.5e6, 1e3);
  EXPECT_NEAR(all[1].est_bw_bps, 62.5e6, 1e3);
  EXPECT_LT(all[3].est_bw_bps, 62.5e6);
}

TEST_F(FlowserverTest, StatsPollRefreshesUnfrozenEstimates) {
  FlowserverConfig cfg = default_config();
  cfg.freeze_enabled = false;  // accept every sample
  Flowserver server(fabric_, cfg);
  server.start();

  const auto assignments = server.select_for_read(
      tree_.hosts[0], {tree_.hosts[1]}, 250e6);
  ASSERT_EQ(assignments.size(), 1u);
  const sdn::Cookie cookie = assignments[0].cookie;
  execute(server, assignments);

  // Competing flow on the same edge link halves the real rate to 62.5e6.
  const auto competing =
      read_from_replica(server, tree_.hosts[2], tree_.hosts[1], 500e6);
  fabric_.start_flow(competing.cookie, competing.path, competing.bytes,
                     nullptr);

  events_.run_until(sim::SimTime::from_seconds(1.5));
  const TrackedFlow* f = server.table().find(cookie);
  ASSERT_NE(f, nullptr);
  EXPECT_GT(server.polls(), 0u);
  EXPECT_NEAR(f->bw_bps, 62.5e6, 1e6);
  server.stop();
}

TEST_F(FlowserverTest, FrozenEstimateSurvivesFirstPoll) {
  FlowserverConfig cfg = default_config();
  cfg.freeze_enabled = true;
  Flowserver server(fabric_, cfg);
  server.start();
  const auto assignments = server.select_for_read(
      tree_.hosts[0], {tree_.hosts[1]}, 250e6);
  const sdn::Cookie cookie = assignments[0].cookie;
  const double estimate = assignments[0].est_bw_bps;
  execute(server, assignments);
  // Competing flow makes the measured rate diverge from the estimate...
  const auto competing =
      read_from_replica(server, tree_.hosts[2], tree_.hosts[1], 500e6);
  fabric_.start_flow(competing.cookie, competing.path, competing.bytes,
                     nullptr);
  events_.run_until(sim::SimTime::from_seconds(1.5));
  // ...but the flow is inside its freeze window, so the estimate holds.
  const TrackedFlow* f = server.table().find(cookie);
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->bw_bps, estimate);  // SETBW from the competing selection...
  EXPECT_TRUE(f->frozen);
  server.stop();
}

TEST_F(FlowserverTest, HugePlanIsBornFrozen) {
  // A finite size the RPC service accepts, whose expected completion does
  // not fit the clock: the planned flow's freeze saturates instead of
  // wrapping into the past and leaving the estimate to the next poll.
  FlowserverConfig cfg = default_config();
  cfg.freeze_enabled = true;
  Flowserver server(fabric_, cfg);
  const auto plan =
      server.select_for_read(tree_.hosts[0], {tree_.hosts[20]}, 1e30);
  ASSERT_EQ(plan.size(), 1u);
  const TrackedFlow* f = server.table().find(plan[0].cookie);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->freeze_until, sim::SimTime::max());
  EXPECT_EQ(server.table().frozen_count(events_.now()), 1u);
}

TEST_F(FlowserverTest, DropIsIdempotentAndPollsSkipGone) {
  Flowserver server(fabric_, default_config());
  server.start();
  const auto assignments = server.select_for_read(
      tree_.hosts[0], {tree_.hosts[1]}, 1e6);
  execute(server, assignments);
  events_.run_until(sim::SimTime::from_seconds(3.0));
  EXPECT_EQ(server.table().size(), 0u);
  server.flow_dropped(assignments[0].cookie);  // late duplicate drop
  EXPECT_EQ(server.table().size(), 0u);
  server.stop();
}


TEST_F(FlowserverTest, BestWriteTargetPrefersUncontendedHost) {
  Flowserver server(fabric_, default_config());
  // All in one pod so the access links (not the oversubscribed core)
  // differentiate the candidates.
  const net::NodeId writer = tree_.hosts[16];
  const net::NodeId busy = tree_.hosts[20];
  const net::NodeId quiet = tree_.hosts[24];

  // Saturate `busy`'s downlink with a tracked flow (a read INTO it).
  const auto a = read_from_replica(server, busy, tree_.hosts[21], 1e9);
  fabric_.start_flow(a.cookie, a.path, a.bytes, nullptr);

  EXPECT_EQ(server.best_write_target(writer, {busy, quiet}), quiet);
}

TEST_F(FlowserverTest, BestWriteTargetPrefersWriterLocalHost) {
  Flowserver server(fabric_, default_config());
  const net::NodeId writer = tree_.hosts[0];
  // Zero network hops beats any network path.
  EXPECT_EQ(server.best_write_target(writer, {tree_.hosts[5], writer}),
            writer);
}

TEST_F(FlowserverTest, EstimatesAgreeWithGroundTruthAfterPoll) {
  // Cross-validation: once a stats poll lands after the freeze expires, the
  // Flowserver's tracked bandwidth must match the fluid simulator's actual
  // max-min rate for a steady flow.
  FlowserverConfig cfg = default_config();
  cfg.freeze_enabled = false;
  Flowserver server(fabric_, cfg);
  server.start();

  // Two long flows sharing host[1]'s uplink: true rate 62.5 MB/s each.
  std::vector<sdn::Cookie> cookies;
  for (const net::NodeId dst : {tree_.hosts[0], tree_.hosts[2]}) {
    const auto a = read_from_replica(server, dst, tree_.hosts[1], 1e9);
    fabric_.start_flow(a.cookie, a.path, a.bytes, nullptr);
    cookies.push_back(a.cookie);
  }
  events_.run_until(sim::SimTime::from_seconds(2.5));
  for (const sdn::Cookie c : cookies) {
    const TrackedFlow* f = server.table().find(c);
    ASSERT_NE(f, nullptr);
    EXPECT_NEAR(f->bw_bps, 62.5e6, 1e5);
    // Remaining size tracked through byte counters, not guesses.
    const net::FlowRecord* actual = fabric_.flow_sim().find(
        [&]() -> net::FlowId {
          // The fabric flow carries the cookie as its tag; scan for it.
          for (net::FlowId id = 1; id < 100; ++id) {
            const auto* rec = fabric_.flow_sim().find(id);
            if (rec != nullptr && rec->tag == c) return id;
          }
          return net::kInvalidFlow;
        }());
    ASSERT_NE(actual, nullptr);
    EXPECT_NEAR(f->remaining_bytes, actual->remaining_bytes, 2e6);
  }
  server.stop();
}

// --- decision snapshot staleness ------------------------------------------

TEST_F(FlowserverTest, ViewReuseAcrossDecisionsWhenNothingMoved) {
  Flowserver server(fabric_, default_config());
  (void)server.view();
  const std::uint64_t builds = server.view_rebuilds();
  // Nothing moved between these calls: same snapshot, same epoch.
  const std::uint64_t epoch = server.view().epoch();
  EXPECT_EQ(server.view_rebuilds(), builds);
  EXPECT_EQ(server.view().epoch(), epoch);
}

TEST_F(FlowserverTest, PollStalesTheViewViaTableVersion) {
  FlowserverConfig cfg = default_config();
  cfg.freeze_enabled = false;
  Flowserver server(fabric_, cfg);
  const auto assignments = server.select_for_read(
      tree_.hosts[0], {tree_.hosts[1]}, 250e6);
  execute(server, assignments);
  const std::uint64_t builds = server.view_rebuilds();
  // A stats poll rewrites bandwidth estimates -> table version moves -> the
  // snapshot taken before the poll is rejected and rebuilt.
  server.collect_stats();
  (void)server.view();
  EXPECT_GT(server.view_rebuilds(), builds);
}

TEST_F(FlowserverTest, FaultStalesTheViewViaFabricEpoch) {
  Flowserver server(fabric_, default_config());
  (void)server.view();
  const std::uint64_t builds = server.view_rebuilds();
  const std::uint64_t old_epoch = server.view().epoch();
  fabric_.fail_link(tree_.host_uplink(tree_.hosts[16]));
  // The pre-fault snapshot is stale: the next decision rebuilds and sees
  // the link down.
  const net::NetworkView& v = server.view();
  EXPECT_GT(server.view_rebuilds(), builds);
  EXPECT_GT(v.epoch(), old_epoch);
  EXPECT_FALSE(v.link_up(tree_.host_uplink(tree_.hosts[16])));
}

TEST_F(FlowserverTest, DecisionsAfterFaultAvoidTheDeadReplica) {
  Flowserver server(fabric_, default_config());
  (void)server.view();  // snapshot taken BEFORE the fault
  fabric_.fail_link(tree_.host_uplink(tree_.hosts[16]));
  fabric_.fail_link(tree_.host_downlink(tree_.hosts[16]));
  // Batch-of-one admission rebuilds at decision time, so the unreachable
  // replica is filtered rather than planned over a dead path.
  const auto plan = server.select_for_read(
      tree_.hosts[0], {tree_.hosts[16], tree_.hosts[32]}, 64e6);
  ASSERT_FALSE(plan.empty());
  for (const auto& a : plan) EXPECT_EQ(a.replica, tree_.hosts[32]);
  EXPECT_TRUE(
      server.select_for_read(tree_.hosts[0], {tree_.hosts[16]}, 64e6)
          .empty());
}

TEST_F(FlowserverTest, OwnCommitsDoNotStaleTheView) {
  Flowserver server(fabric_, default_config());
  (void)server.select_for_read(tree_.hosts[0], {tree_.hosts[16]}, 64e6);
  const std::uint64_t builds = server.view_rebuilds();
  // The commit moved the table version, but the drain wrote through to the
  // view and absorbed the delta: the next decision reuses the snapshot.
  (void)server.select_for_read(tree_.hosts[2], {tree_.hosts[20]}, 64e6);
  EXPECT_EQ(server.view_rebuilds(), builds);
}

// --- batched admission ------------------------------------------------------

TEST_F(FlowserverTest, BatchDrainsWhenSizeThresholdReached) {
  FlowserverConfig cfg = default_config();
  cfg.batch_size = 3;
  Flowserver server(fabric_, cfg);
  std::size_t delivered = 0;
  const auto done = [&delivered](std::vector<ReadAssignment> plan) {
    EXPECT_FALSE(plan.empty());
    ++delivered;
  };
  server.enqueue({.client = tree_.hosts[0],
                  .replicas = {tree_.hosts[16]},
                  .bytes = 64e6,
                  .done = done});
  server.enqueue({.client = tree_.hosts[1],
                  .replicas = {tree_.hosts[20]},
                  .bytes = 64e6,
                  .done = done});
  EXPECT_EQ(server.queued(), 2u);
  EXPECT_EQ(delivered, 0u);
  // The third enqueue trips the size trigger: the whole batch decides now.
  server.enqueue({.client = tree_.hosts[2],
                  .replicas = {tree_.hosts[24]},
                  .bytes = 64e6,
                  .done = done});
  EXPECT_EQ(server.queued(), 0u);
  EXPECT_EQ(delivered, 3u);
  EXPECT_EQ(server.selections(), 3u);
}

TEST_F(FlowserverTest, BatchWindowFlushesAPartialBatch) {
  FlowserverConfig cfg = default_config();
  cfg.batch_size = 16;
  Flowserver server(fabric_, cfg);
  std::size_t delivered = 0;
  server.enqueue({.client = tree_.hosts[0],
                  .replicas = {tree_.hosts[16]},
                  .bytes = 64e6,
                  .done = [&delivered](std::vector<ReadAssignment> plan) {
                    EXPECT_FALSE(plan.empty());
                    ++delivered;
                  }});
  EXPECT_EQ(server.queued(), 1u);
  events_.run_until(kBatchWindow + kBatchWindow);
  EXPECT_EQ(server.queued(), 0u);
  EXPECT_EQ(delivered, 1u);
}

TEST_F(FlowserverTest, BatchDecidesAgainstOneSnapshotAndInstallsInBulk) {
  FlowserverConfig cfg = default_config();
  cfg.batch_size = 4;
  Flowserver server(fabric_, cfg);
  (void)server.view();
  const std::uint64_t builds = server.view_rebuilds();
  std::vector<ReadAssignment> all;
  const auto keep = [&all](std::vector<ReadAssignment> plan) {
    for (auto& a : plan) all.push_back(std::move(a));
  };
  for (std::size_t i = 0; i < 4; ++i) {
    server.enqueue({.client = tree_.hosts[i],
                    .replicas = {tree_.hosts[16 + 4 * i]},
                    .bytes = 64e6,
                    .done = keep});
  }
  // One batch, one view: no rebuild happened mid-batch, and every chosen
  // path was installed (starting the flow trips the strict fabric check
  // if it was not).
  EXPECT_EQ(server.view_rebuilds(), builds);
  ASSERT_EQ(all.size(), 4u);
  for (const auto& a : all) {
    fabric_.start_flow(a.cookie, a.path, a.bytes, nullptr);
  }
  events_.run_until(sim::SimTime::from_seconds(0.1));
}

TEST_F(FlowserverTest, EnqueueWithChooserFixesTheReplica) {
  FlowserverConfig cfg = default_config();
  cfg.batch_size = 2;
  Flowserver server(fabric_, cfg);
  std::vector<ReadAssignment> all;
  const auto keep = [&all](std::vector<ReadAssignment> plan) {
    for (auto& a : plan) all.push_back(std::move(a));
  };
  // The chooser sees only replicas with a live path and the batch's view.
  const auto pick_last = [](net::NodeId, const std::vector<net::NodeId>& live,
                            const net::NetworkView& view) {
    EXPECT_GT(view.link_count(), 0u);
    return live.back();
  };
  server.enqueue({.client = tree_.hosts[0],
                  .replicas = {tree_.hosts[16], tree_.hosts[32]},
                  .bytes = 64e6,
                  .chooser = pick_last,
                  .done = keep});
  server.enqueue({.client = tree_.hosts[1],
                  .replicas = {tree_.hosts[20], tree_.hosts[36]},
                  .bytes = 64e6,
                  .chooser = pick_last,
                  .done = keep});
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].replica, tree_.hosts[32]);
  EXPECT_EQ(all[1].replica, tree_.hosts[36]);
  // Chooser-fixed decisions are path-only: no split happens.
  EXPECT_EQ(server.split_reads(), 0u);
}

TEST_F(FlowserverTest, ExplicitDrainFlushesWithoutWaiting) {
  FlowserverConfig cfg = default_config();
  cfg.batch_size = 16;
  Flowserver server(fabric_, cfg);
  std::size_t delivered = 0;
  server.enqueue({.client = tree_.hosts[0],
                  .replicas = {tree_.hosts[16]},
                  .bytes = 64e6,
                  .done = [&delivered](std::vector<ReadAssignment>) {
                    ++delivered;
                  }});
  EXPECT_EQ(server.drain(), 1u);
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(server.drain(), 0u);  // empty queue: no-op
}

}  // namespace
}  // namespace mayflower::flowserver
