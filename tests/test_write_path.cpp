// The write path as a first-class citizen of the decision pipeline:
// kPlanWrite chains (jointly-scheduled pipelined replication), write
// placement policies (model vs measured), batched write decisions pinned
// to committed transcripts, and the chain-failure semantics — a failure at hop k
// degrades exactly the suffix, the client ack never hangs, and nameserver
// re-replication repairs the short replica afterwards.
#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "flowserver/flowserver.hpp"
#include "flowserver/writechain.hpp"
#include "fs/cluster.hpp"
#include "net/fat_tree.hpp"
#include "net/tree.hpp"
#include "obs/observability.hpp"
#include "policy/write_placement.hpp"

namespace mayflower {
namespace {

// --- Flowserver-level chain planning ---------------------------------------

struct ChainRig {
  sim::EventQueue events;
  net::ThreeTier tree;
  sdn::SdnFabric fabric;
  flowserver::Flowserver server;

  explicit ChainRig(flowserver::FlowserverConfig cfg = {})
      : tree(net::build_three_tier(net::ThreeTierConfig{})),
        fabric(events, tree.topo),
        server(fabric, cfg) {}
};

TEST(WriteChain, PlanRoutesEveryHopAtTheChainBottleneck) {
  ChainRig rig;
  const std::vector<net::NodeId> chain = {
      rig.tree.hosts[0], rig.tree.hosts[17], rig.tree.hosts[33],
      rig.tree.hosts[49]};
  const auto plan = rig.server.plan_write(chain, 256e6);
  ASSERT_EQ(plan.size(), 3u);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    // Hop i runs chain[i] -> chain[i+1].
    EXPECT_EQ(plan[i].replica, chain[i]);
    ASSERT_FALSE(plan[i].path.nodes.empty());
    EXPECT_EQ(plan[i].path.nodes.front(), chain[i]);
    EXPECT_EQ(plan[i].path.nodes.back(), chain[i + 1]);
    EXPECT_EQ(plan[i].bytes, 256e6);
    // Every hop is pinned to the joint bottleneck, so the chain finishes
    // together (the write-side mirror of §4.3 split sizing).
    EXPECT_EQ(plan[i].est_bw_bps, plan[0].est_bw_bps);
    EXPECT_GT(plan[i].est_bw_bps, 0.0);
  }
  EXPECT_EQ(rig.server.write_chains(), 1u);
  EXPECT_EQ(rig.server.write_hops(), 3u);
  EXPECT_EQ(rig.server.write_truncated(), 0u);
  // Hop flows live in the believed-state table like any planned flow.
  EXPECT_EQ(rig.server.table().size(), 3u);
}

TEST(WriteChain, TruncatesAtTheFirstUnreachableHop) {
  ChainRig rig;
  const net::NodeId cut = rig.tree.hosts[33];
  rig.fabric.fail_switch(rig.tree.edge_of_host(cut));
  const std::vector<net::NodeId> chain = {
      rig.tree.hosts[0], rig.tree.hosts[17], cut, rig.tree.hosts[49]};
  const auto plan = rig.server.plan_write(chain, 64e6);
  // Hop 0 routes; hop 1 (into the dead edge) does not, and planning stops
  // there even though hop 2's endpoints are both alive.
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].replica, chain[0]);
  EXPECT_EQ(rig.server.write_truncated(), 1u);
}

TEST(WriteChain, WholeChainUnroutableReturnsEmpty) {
  ChainRig rig;
  const net::NodeId cut = rig.tree.hosts[17];
  rig.fabric.fail_switch(rig.tree.edge_of_host(cut));
  const auto plan =
      rig.server.plan_write({rig.tree.hosts[0], cut, rig.tree.hosts[49]},
                            64e6);
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(rig.server.write_chains(), 0u);
}

// --- batched decisions pinned to committed transcripts --------------------

// A mixed read+write admission workload; the transcript captures every
// decision bit-exactly (hexfloat doubles, cookies, full paths). With
// `sync_wrappers` (batches of one only) each request goes through
// select_for_read()/plan_write() instead of enqueue().
std::string run_mixed_workload(std::size_t group, std::uint64_t seed,
                               bool sync_wrappers = false) {
  constexpr int kRequests = 48;
  ChainRig rig([&] {
    flowserver::FlowserverConfig cfg;
    cfg.batch_size = group;
    return cfg;
  }());

  const std::size_t hosts = rig.tree.hosts.size();
  Rng rng(seed);
  std::vector<std::vector<flowserver::ReadAssignment>> plans(kRequests);
  int posted = 0;
  while (posted < kRequests) {
    const int n = static_cast<int>(std::min<std::size_t>(
        group, static_cast<std::size_t>(kRequests - posted)));
    for (int k = 0; k < n; ++k) {
      const int idx = posted + k;
      std::vector<net::NodeId> nodes;
      while (nodes.size() < 4) {
        const net::NodeId h = rig.tree.hosts[rng.next_below(hosts)];
        if (std::find(nodes.begin(), nodes.end(), h) == nodes.end()) {
          nodes.push_back(h);
        }
      }
      const double bytes = rng.uniform(64e6, 512e6);
      auto sink = [&plans, idx](std::vector<flowserver::ReadAssignment> p) {
        plans[static_cast<std::size_t>(idx)] = std::move(p);
      };
      if (sync_wrappers) {
        EXPECT_EQ(group, 1u);
        plans[static_cast<std::size_t>(idx)] =
            idx % 3 == 0 ? rig.server.plan_write(nodes, bytes)
                         : rig.server.select_for_read(
                               nodes[0], {nodes[1], nodes[2], nodes[3]},
                               bytes);
      } else if (idx % 3 == 0) {  // every third request is a write chain
        rig.server.enqueue(
            {.replicas = nodes, .bytes = bytes, .write = true, .done = sink});
      } else {
        rig.server.enqueue({.client = nodes[0],
                            .replicas = {nodes[1], nodes[2], nodes[3]},
                            .bytes = bytes,
                            .done = sink});
      }
    }
    rig.server.drain();
    for (int k = posted; k < posted + n; ++k) {
      for (const auto& a : plans[static_cast<std::size_t>(k)]) {
        rig.fabric.start_flow(a.cookie, a.path, a.bytes, nullptr);
      }
    }
    posted += n;
    rig.server.collect_stats();
  }

  std::ostringstream out;
  out << std::hexfloat;
  for (int i = 0; i < kRequests; ++i) {
    out << "req " << i << "\n";
    for (const auto& a : plans[static_cast<std::size_t>(i)]) {
      out << "  cookie=" << a.cookie << " replica=" << a.replica
          << " bytes=" << a.bytes << " est=" << a.est_bw_bps << " path=";
      for (const net::NodeId node : a.path.nodes) out << node << ",";
      out << "\n";
    }
  }
  out << "chains=" << rig.server.write_chains()
      << " hops=" << rig.server.write_hops()
      << " truncated=" << rig.server.write_truncated()
      << " selections=" << rig.server.selections()
      << " table=" << rig.server.table().size() << "\n";
  return out.str();
}

// Batches of 8 pin the batch pipeline: the pre-drawn multiread and write
// cookies, the per-slot tentative-scope rollback and the in-order commit
// replay. The CRCs are the transcripts that 1, 2 and 8 decision workers all
// produced before the worker pool was deleted, so the one decision thread
// stays byte-identical to every former thread count. A change meant to move
// decisions re-captures them with the reason.
TEST(WriteChain, DecisionsByteIdenticalAcrossThreadCounts) {
  struct Pin {
    std::uint64_t seed;
    std::uint32_t crc;
  };
  for (const Pin& pin :
       {Pin{0xbeefULL, 0xf2ac5414U}, Pin{0x5ca1eULL, 0xd076bd96U}}) {
    const std::string transcript = run_mixed_workload(8, pin.seed);
    EXPECT_NE(transcript.find("chains="), std::string::npos);
    EXPECT_EQ(crc32(transcript), pin.crc) << "seed=" << std::hex << pin.seed;
  }
}

// A batch of one through enqueue() decides exactly like the synchronous
// wrappers (select_for_read/plan_write, the serial pipeline's interface),
// and both match the batch-of-one transcript pinned like the batches of 8
// above.
TEST(WriteChain, BatchOfOneMatchesLegacySerialPipeline) {
  const std::string enqueued = run_mixed_workload(1, 0xbeefULL);
  EXPECT_NE(enqueued.find("chains="), std::string::npos);
  EXPECT_EQ(crc32(enqueued), 0x5eea7ba7U);
  EXPECT_EQ(run_mixed_workload(1, 0xbeefULL, /*sync_wrappers=*/true),
            enqueued);
}

// --- placement policies -----------------------------------------------------

TEST(WritePlacement, FlagParsingRoundTrips) {
  using policy::WritePlacementKind;
  EXPECT_EQ(policy::parse_write_placement("model"),
            WritePlacementKind::kModel);
  EXPECT_EQ(policy::parse_write_placement("measured"),
            WritePlacementKind::kMeasured);
  EXPECT_EQ(policy::parse_write_placement("static"),
            WritePlacementKind::kStatic);
  EXPECT_FALSE(policy::parse_write_placement("bogus").has_value());
  EXPECT_STREQ(policy::to_string(WritePlacementKind::kMeasured), "measured");
}

TEST(WritePlacement, LegacyBestWriteTargetDrawsFromTheModelTiedBand) {
  ChainRig rig;
  const net::NodeId writer = rig.tree.hosts[0];
  std::vector<net::NodeId> pool = {rig.tree.hosts[5], rig.tree.hosts[21],
                                   rig.tree.hosts[37], rig.tree.hosts[53]};
  // An idle symmetric fabric: the model ties every remote candidate, and
  // best_write_target must pick within that band (seeded tie-break).
  const net::NodeId pick = rig.server.best_write_target(writer, pool);
  EXPECT_NE(std::find(pool.begin(), pool.end(), pick), pool.end());
}

TEST(WritePlacement, MeasuredRanksByResidualHeadroom) {
  net::ThreeTier tree = net::build_three_tier(net::ThreeTierConfig{});
  net::NetworkView view;
  view.reset_links(tree.topo);

  const net::NodeId writer = tree.hosts[0];
  const net::NodeId busy = tree.hosts[17];
  const net::NodeId idle = tree.hosts[33];
  // Saturate the busy candidate's access downlink: every path into it loses
  // its headroom, so measured ranking must prefer the idle host.
  view.set_tx_rate(tree.host_downlink(busy),
                   0.95 * view.capacity_bps(tree.host_downlink(busy)));

  net::PathCache paths(tree.topo);
  policy::MeasuredWritePlacement measured(paths);
  EXPECT_GT(measured.headroom(writer, idle, view),
            measured.headroom(writer, busy, view));
  const auto ranked = measured.rank(writer, {busy, idle}, view);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0], idle);

  // The writer itself always wins: a local replica needs no fabric at all.
  const auto local = measured.rank(writer, {busy, idle, writer}, view);
  ASSERT_EQ(local.size(), 1u);
  EXPECT_EQ(local[0], writer);
}

TEST(WritePlacement, ModelSkipsPathsTheWriterCannotUse) {
  net::ThreeTier tree = net::build_three_tier(net::ThreeTierConfig{});
  net::NetworkView view;
  view.reset_links(tree.topo);

  const net::NodeId writer = tree.hosts[0];
  const net::NodeId cut = tree.hosts[17];
  const net::NodeId healthy = tree.hosts[33];
  // Every path into the cut host ends on its dead access downlink. On an
  // idle view both hosts would otherwise tie on the model's share.
  view.mark_link_down(tree.host_downlink(cut));

  net::PathCache paths(tree.topo);
  flowserver::BandwidthModel model;
  policy::MeasuredWritePlacement measured(paths);
  const std::vector<net::NodeId> want{healthy};
  EXPECT_EQ(measured.rank(writer, {cut, healthy}, view), want);
  EXPECT_EQ(flowserver::rank_write_targets_by_model(model, paths, writer,
                                                    {cut, healthy}, view),
            want);
  EXPECT_EQ(flowserver::rank_write_targets_by_model(model, paths, writer,
                                                    {healthy, cut}, view),
            want);
}

// --- one sweep against the per-path oracle ---------------------------------

// The model ranking's per-path definition: the max over live shortest paths
// of BandwidthModel::new_flow_share, the zero-hop rate at the writer.
units::Bps model_oracle(const flowserver::BandwidthModel& model,
                        net::PathCache& paths, net::NodeId writer,
                        net::NodeId target, const net::NetworkView& view) {
  if (target == writer) return units::Bps{model.zero_hop_bps()};
  double best = 0.0;
  for (const net::Path& p : paths.get(writer, target)) {
    if (!view.path_alive(p)) continue;
    best = std::max(best, model.new_flow_share(view, p));
  }
  return units::Bps{best};
}

// A seeded view over `topo`: about 10% of links down, tx rates drawn from a
// few fractions of capacity (exact ties, and rates at and above capacity
// that clamp the headroom to 0), and believed flows between random hosts at
// a few shares (ties in the model's water levels).
net::NetworkView random_view(const net::Topology& topo,
                             const std::vector<net::NodeId>& hosts,
                             net::PathCache& paths, Rng& rng) {
  static constexpr double kTxFractions[] = {0.0,  0.0, 0.25, 0.25, 0.5,
                                            0.5,  0.5, 0.75, 1.0,  1.5};
  static constexpr double kShares[] = {5e6, 12.5e6, 31.25e6, 62.5e6};
  net::NetworkView view;
  view.reset_links(topo);
  for (net::LinkId l = 0; l < topo.link_count(); ++l) {
    view.set_tx_rate(l,
                     view.capacity_bps(l) * kTxFractions[rng.next_below(10)]);
    if (rng.bernoulli(0.1)) view.mark_link_down(l);
  }
  for (std::uint64_t key = 1; key <= hosts.size(); ++key) {
    const net::NodeId src = hosts[rng.next_below(hosts.size())];
    const net::NodeId dst = hosts[rng.next_below(hosts.size())];
    if (src == dst) continue;
    const std::vector<net::Path>& ps = paths.get(src, dst);
    const net::Path& path = ps[rng.next_below(ps.size())];
    view.add_flow(key, path, 1e8, kShares[rng.next_below(4)]);
  }
  return view;
}

// Every node's sweep score, measured and model, must equal the per-path
// oracle bit for bit (switches too: only their scores show a relaxation
// over a link off every shortest path), and each ranking's tied band over
// a random host pool must equal tied_best_targets over the oracle scores.
void expect_sweep_matches_oracle(const net::Topology& topo,
                                 const std::vector<net::NodeId>& hosts,
                                 std::uint64_t seed) {
  net::PathCache paths(topo);
  policy::MeasuredWritePlacement measured(paths);
  flowserver::BandwidthModel model;
  Rng rng(seed);
  for (int round = 0; round < 2; ++round) {
    const net::NetworkView view = random_view(topo, hosts, paths, rng);
    for (int w = 0; w < 12; ++w) {
      const net::NodeId writer = hosts[rng.next_below(hosts.size())];
      const std::vector<units::Bps> got_measured =
          measured.scores(writer, view);
      const std::vector<units::Bps> got_model =
          flowserver::model_write_scores(model, paths, writer, view);
      ASSERT_EQ(got_measured.size(), topo.node_count());
      ASSERT_EQ(got_model.size(), topo.node_count());
      std::vector<units::Bps> want_measured(topo.node_count());
      std::vector<units::Bps> want_model(topo.node_count());
      for (net::NodeId c = 0; c < topo.node_count(); ++c) {
        want_measured[c] = measured.headroom(writer, c, view);
        want_model[c] = model_oracle(model, paths, writer, c, view);
        EXPECT_EQ(got_measured[c].value(), want_measured[c].value())
            << "measured writer=" << writer << " candidate=" << c;
        EXPECT_EQ(got_model[c].value(), want_model[c].value())
            << "model writer=" << writer << " candidate=" << c;
      }
      std::vector<net::NodeId> pool = hosts;
      rng.shuffle(pool);
      pool.resize(1 + rng.next_below(pool.size()));
      EXPECT_EQ(measured.rank(writer, pool, view),
                flowserver::tied_best_targets(pool, want_measured))
          << "writer=" << writer;
      EXPECT_EQ(
          flowserver::rank_write_targets_by_model(model, paths, writer, pool,
                                                  view),
          flowserver::tied_best_targets(pool, want_model))
          << "writer=" << writer;
      ASSERT_FALSE(::testing::Test::HasFailure()) << "seed=" << seed;
    }
  }
}

TEST(WritePlacement, SweepMatchesPerPathOracleOnThePaperTree) {
  const net::ThreeTier tree = net::build_three_tier(net::ThreeTierConfig{});
  expect_sweep_matches_oracle(tree.topo, tree.hosts, 0x5eed1);
}

TEST(WritePlacement, SweepMatchesPerPathOracleWithMoreCores) {
  const net::ThreeTier tree = net::build_three_tier(
      net::ThreeTierConfig{.aggs_per_pod = 3, .cores = 4});
  expect_sweep_matches_oracle(tree.topo, tree.hosts, 0x5eed2);
}

TEST(WritePlacement, SweepMatchesPerPathOracleOnFatTrees) {
  for (const std::uint32_t k : {4u, 8u}) {
    const net::FatTree tree = net::build_fat_tree(net::FatTreeConfig{.k = k});
    expect_sweep_matches_oracle(tree.topo, tree.hosts, 0x5eed3 + k);
  }
}

// --- cluster end-to-end ------------------------------------------------------

fs::ClusterConfig pipeline_config() {
  fs::ClusterConfig cfg;
  cfg.nameserver.chunk_size = 1000;
  cfg.client.replication = 3;
  cfg.seed = 5;
  cfg.write_pipeline = true;
  return cfg;
}

void run_until_done(fs::Cluster& cluster, const bool& flag,
                    double timeout_sec = 300.0) {
  while (!flag && !cluster.events().empty() &&
         cluster.events().now() < sim::SimTime::from_seconds(timeout_sec)) {
    cluster.events().step();
  }
  ASSERT_TRUE(flag) << "operation did not complete";
}

TEST(ClusterWritePath, PipelinedAppendReplicatesEverywhere) {
  obs::Observability hub;
  fs::ClusterConfig cfg = pipeline_config();
  cfg.obs = &hub;
  fs::Cluster cluster(cfg);
  fs::Client& client = cluster.client_at(cluster.tree().hosts[7]);
  bool done = false;
  fs::FileInfo created;
  client.create("chained", [&](fs::Status s, const fs::FileInfo& info) {
    ASSERT_EQ(s, fs::Status::kOk);
    created = info;
    client.append("chained", fs::ExtentList(fs::Extent::pattern(3, 2500)),
                  [&](fs::Status as, const fs::AppendResp& resp) {
                    EXPECT_EQ(as, fs::Status::kOk);
                    EXPECT_EQ(resp.new_size, 2500u);
                    done = true;
                  });
  });
  run_until_done(cluster, done);
  for (const net::NodeId rep : created.replicas) {
    const fs::Dataserver& ds = cluster.dataserver_at(rep);
    EXPECT_EQ(ds.file_size(created.uuid), 2500u);
  }
  // The relay really went down the chain path, and the Flowserver planned
  // it: both ends of the co-design observed the write.
  EXPECT_GE(cluster.dataserver_at(created.primary()).chain_appends(), 1u);
  EXPECT_GE(cluster.flow_server()->write_chains(), 1u);
  EXPECT_EQ(cluster.dataserver_at(created.primary()).relay_failures(), 0u);
  const std::string json = hub.to_json();
  EXPECT_NE(json.find("flowserver.write.chains"), std::string::npos);
  EXPECT_NE(json.find("fs.ds.chain_appends"), std::string::npos);
}

TEST(ClusterWritePath, WriterLocalPrimarySkipsTheUploadHop) {
  fs::ClusterConfig cfg = pipeline_config();
  fs::Cluster cluster(cfg);
  fs::Client& creator = cluster.client_at(cluster.tree().hosts[4]);
  bool created_ok = false;
  fs::FileInfo created;
  creator.create("home", [&](fs::Status s, const fs::FileInfo& info) {
    ASSERT_EQ(s, fs::Status::kOk);
    created = info;
    created_ok = true;
  });
  run_until_done(cluster, created_ok);

  // Append FROM the primary host: the chain starts at the primary, so the
  // plan carries relay hops only and no upload flow runs.
  fs::Client& local = cluster.client_at(created.primary());
  bool done = false;
  local.append("home", fs::ExtentList(fs::Extent::pattern(2, 1200)),
               [&](fs::Status as, const fs::AppendResp& resp) {
                 EXPECT_EQ(as, fs::Status::kOk);
                 EXPECT_EQ(resp.new_size, 1200u);
                 done = true;
               });
  run_until_done(cluster, done);
  for (const net::NodeId rep : created.replicas) {
    EXPECT_EQ(cluster.dataserver_at(rep).file_size(created.uuid), 1200u);
  }
  EXPECT_GE(cluster.dataserver_at(created.primary()).chain_appends(), 1u);
}

TEST(ClusterWritePath, HopFailureDegradesTheSuffixAndStillAcksTheClient) {
  fs::ClusterConfig cfg = pipeline_config();
  fs::Cluster cluster(cfg);
  fs::Client& client = cluster.client_at(cluster.tree().hosts[9]);
  bool created_ok = false;
  fs::FileInfo created;
  client.create("fragile", [&](fs::Status s, const fs::FileInfo& info) {
    ASSERT_EQ(s, fs::Status::kOk);
    created = info;
    created_ok = true;
  });
  run_until_done(cluster, created_ok);
  ASSERT_EQ(created.replicas.size(), 3u);

  // First relay target goes silent (reachable fabric, dead RPC server):
  // relay 0's ack fails, and the in-order gate must degrade relay 1 as well
  // — a settled chain is always a PREFIX of the replica list.
  cluster.dataserver_at(created.replicas[1]).detach();
  bool done = false;
  client.append("fragile", fs::ExtentList(fs::Extent::pattern(6, 2000)),
                [&](fs::Status as, const fs::AppendResp& resp) {
                  EXPECT_EQ(as, fs::Status::kOk) << "client ack must not hang";
                  EXPECT_EQ(resp.new_size, 2000u);
                  done = true;
                });
  run_until_done(cluster, done);

  const fs::Dataserver& primary = cluster.dataserver_at(created.primary());
  EXPECT_EQ(primary.file_size(created.uuid), 2000u);
  EXPECT_GE(primary.relay_failures(), 2u);  // both relays settled degraded
  cluster.dataserver_at(created.replicas[1]).attach();
  EXPECT_EQ(cluster.dataserver_at(created.replicas[1])
                .file_size(created.uuid),
            0u);
  EXPECT_EQ(cluster.dataserver_at(created.replicas[2])
                .file_size(created.uuid),
            0u);
}

TEST(ClusterWritePath, RereplicationRepairsAChainShortReplica) {
  fs::ClusterConfig cfg = pipeline_config();
  cfg.heartbeat_interval = sim::SimTime::from_seconds(1.0);
  fs::Cluster cluster(cfg);
  fs::Client& client = cluster.client_at(cluster.tree().hosts[10]);
  bool created_ok = false;
  fs::FileInfo created;
  client.create("healing", [&](fs::Status s, const fs::FileInfo& info) {
    ASSERT_EQ(s, fs::Status::kOk);
    created = info;
    created_ok = true;
  });
  run_until_done(cluster, created_ok);
  ASSERT_EQ(created.replicas.size(), 3u);
  const net::NodeId victim = created.replicas[1];

  fault::FaultPlan plan;
  plan.events.push_back(
      {cluster.events().now() + sim::SimTime::from_millis(100.0),
       fault::FaultKind::kDataserverCrash, net::kInvalidLink, victim});
  cluster.fault_injector().arm(plan);
  cluster.run_until(cluster.events().now() + sim::SimTime::from_millis(200.0));

  // Append into the degraded replica set: the chain truncates or degrades
  // at the dead hop, the ack still lands.
  bool wrote = false;
  client.append("healing", fs::ExtentList(fs::Extent::pattern(4, 3000)),
                [&](fs::Status as, const fs::AppendResp&) {
                  EXPECT_EQ(as, fs::Status::kOk);
                  wrote = true;
                });
  while (!wrote && !cluster.events().empty()) cluster.events().step();
  ASSERT_TRUE(wrote);

  // The monitor notices the dead server and re-replicates to full strength;
  // every *current* replica ends up with the complete bytes.
  cluster.run_until(cluster.events().now() + sim::SimTime::from_seconds(30.0));
  EXPECT_GE(cluster.nameserver().rereplications(), 1u);
  const auto after = cluster.nameserver().lookup("healing");
  ASSERT_TRUE(after.has_value());
  ASSERT_EQ(after->replicas.size(), 3u);
  EXPECT_EQ(std::find(after->replicas.begin(), after->replicas.end(), victim),
            after->replicas.end());
  for (const net::NodeId rep : after->replicas) {
    EXPECT_EQ(cluster.dataserver_at(rep).file_size(created.uuid), 3000u)
        << "replica on host " << rep;
  }
}

TEST(ClusterWritePath, StillbornFanoutRelayIsCountedNotSilent) {
  obs::Observability hub;
  fs::ClusterConfig cfg;
  cfg.nameserver.chunk_size = 1000;
  cfg.client.replication = 3;
  cfg.seed = 5;
  cfg.obs = &hub;
  fs::Cluster cluster(cfg);
  fs::Client& client = cluster.client_at(cluster.tree().hosts[3]);
  bool created_ok = false;
  fs::FileInfo created;
  client.create("stillborn", [&](fs::Status s, const fs::FileInfo& info) {
    ASSERT_EQ(s, fs::Status::kOk);
    created = info;
    created_ok = true;
  });
  run_until_done(cluster, created_ok);

  // Crash a secondary (downs its access links too): the ECMP relay to it is
  // stillborn in the fabric — it must be counted, and the ack must still
  // reach the client.
  fault::FaultPlan plan;
  plan.events.push_back(
      {cluster.events().now() + sim::SimTime::from_millis(50.0),
       fault::FaultKind::kDataserverCrash, net::kInvalidLink,
       created.replicas[1]});
  cluster.fault_injector().arm(plan);
  cluster.run_until(cluster.events().now() + sim::SimTime::from_millis(100.0));

  bool done = false;
  client.append("stillborn", fs::ExtentList(fs::Extent::pattern(5, 1800)),
                [&](fs::Status as, const fs::AppendResp&) {
                  EXPECT_EQ(as, fs::Status::kOk);
                  done = true;
                });
  while (!done && !cluster.events().empty()) cluster.events().step();
  ASSERT_TRUE(done);
  EXPECT_GE(cluster.dataserver_at(created.primary()).relay_failures(), 1u);
  EXPECT_NE(hub.to_json().find("fs.ds.relay_failed"), std::string::npos);
}

// --- failed appends: the client always answers, the plan is handed back ----

std::size_t switch_entries(fs::Cluster& cluster) {
  const net::Topology& topo = cluster.tree().topo;
  std::size_t entries = 0;
  for (net::NodeId n = 0; n < topo.node_count(); ++n) {
    if (topo.node(n).kind == net::NodeKind::kHost) continue;
    entries += cluster.fabric().switch_at(n).table_size();
  }
  return entries;
}

// Creates a file, then appends 50 MB to it from a host holding no replica
// and takes that writer's uplink down 5 ms in, killing the upload. The
// retry's upload is stillborn on the dead uplink, so the append must answer
// kUnavailable, and nothing it planned or installed may outlive it.
void run_dead_upload(bool pipelined) {
  fs::ClusterConfig cfg = pipeline_config();
  cfg.write_pipeline = pipelined;
  fs::Cluster cluster(cfg);
  const net::ThreeTier& tree = cluster.tree();
  fs::Client& creator = cluster.client_at(tree.hosts[6]);
  bool created_ok = false;
  fs::FileInfo created;
  creator.create("doomed", [&](fs::Status s, const fs::FileInfo& info) {
    ASSERT_EQ(s, fs::Status::kOk);
    created = info;
    created_ok = true;
  });
  run_until_done(cluster, created_ok);
  net::NodeId writer = net::kInvalidNode;
  for (const net::NodeId h : tree.hosts) {
    if (std::find(created.replicas.begin(), created.replicas.end(), h) ==
        created.replicas.end()) {
      writer = h;
      break;
    }
  }
  ASSERT_NE(writer, net::kInvalidNode);

  bool done = false;
  cluster.client_at(writer).append(
      "doomed", fs::ExtentList(fs::Extent::pattern(9, 50'000'000)),
      [&](fs::Status as, const fs::AppendResp&) {
        EXPECT_EQ(as, fs::Status::kUnavailable);
        done = true;
      });
  cluster.events().schedule_in(sim::SimTime::from_millis(5.0), [&] {
    cluster.fabric().fail_link(tree.host_uplink(writer));
  });
  run_until_done(cluster, done, /*timeout_sec=*/120.0);
  // Let the fire-and-forget drop notifications land.
  cluster.run_until(cluster.events().now() + sim::SimTime::from_seconds(1.0));
  if (pipelined) {
    EXPECT_GE(cluster.flow_server()->write_chains(), 1u);
  }
  EXPECT_EQ(cluster.flow_server()->table().size(), 0u);
  EXPECT_EQ(switch_entries(cluster), 0u);
}

TEST(ClusterWritePath, DeadEcmpUploadAnswersUnavailable) {
  run_dead_upload(/*pipelined=*/false);
}

TEST(ClusterWritePath, DeadChainUploadAnswersAndHandsTheRelayHopsBack) {
  run_dead_upload(/*pipelined=*/true);
}

TEST(ClusterWritePath, RejectedChainAppendHandsTheRelayHopsBack) {
  fs::Cluster cluster(pipeline_config());
  const net::ThreeTier& tree = cluster.tree();
  fs::Client& client = cluster.client_at(tree.hosts[11]);
  bool created_ok = false;
  fs::FileInfo created;
  client.create("refused", [&](fs::Status s, const fs::FileInfo& info) {
    ASSERT_EQ(s, fs::Status::kOk);
    created = info;
    created_ok = true;
  });
  run_until_done(cluster, created_ok);

  // The primary's RPC server is gone but its links are up: both attempts
  // plan a chain and ship the bytes, then the append RPC answers
  // kUnavailable, and each attempt's relay hops must go back.
  cluster.dataserver_at(created.primary()).detach();
  bool done = false;
  client.append("refused", fs::ExtentList(fs::Extent::pattern(4, 4000)),
                [&](fs::Status as, const fs::AppendResp&) {
                  EXPECT_EQ(as, fs::Status::kUnavailable);
                  done = true;
                });
  run_until_done(cluster, done);
  cluster.run_until(cluster.events().now() + sim::SimTime::from_seconds(1.0));
  EXPECT_GE(cluster.flow_server()->write_chains(), 2u);
  EXPECT_EQ(cluster.flow_server()->table().size(), 0u);
  EXPECT_EQ(switch_entries(cluster), 0u);
}

// --- relay hops the primary cannot start are cut and handed back -----------

// Creates a three-replica file and returns its metadata.
fs::FileInfo create_file(fs::Cluster& cluster, net::NodeId creator,
                         const std::string& name) {
  bool created_ok = false;
  fs::FileInfo created;
  cluster.client_at(creator).create(
      name, [&](fs::Status s, const fs::FileInfo& info) {
        ASSERT_EQ(s, fs::Status::kOk);
        created = info;
        created_ok = true;
      });
  run_until_done(cluster, created_ok);
  return created;
}

// Crashes the last secondary's edge switch 50 ms into a 50 MB upload and,
// with `restore`, brings it back 50 ms later. Either way the crash wiped the
// last relay hop's entries before the primary could start it: the primary
// cuts the chain there, the append still answers, and the client hands the
// cut hop back.
void run_switch_crash_during_upload(bool restore) {
  fs::Cluster cluster(pipeline_config());
  const net::ThreeTier& tree = cluster.tree();
  const fs::FileInfo created = create_file(cluster, tree.hosts[6], "cut");
  ASSERT_EQ(created.replicas.size(), 3u);
  const net::NodeId last_edge = tree.edge_of_host(created.replicas.back());
  ASSERT_NE(tree.edge_of_host(created.primary()), last_edge);
  // The writer's upload to the primary must not cross the crashed switch.
  net::NodeId writer = net::kInvalidNode;
  for (const net::NodeId h : tree.hosts) {
    if (tree.edge_of_host(h) != last_edge &&
        std::find(created.replicas.begin(), created.replicas.end(), h) ==
            created.replicas.end()) {
      writer = h;
      break;
    }
  }
  ASSERT_NE(writer, net::kInvalidNode);

  bool done = false;
  cluster.client_at(writer).append(
      "cut", fs::ExtentList(fs::Extent::pattern(9, 50'000'000)),
      [&](fs::Status as, const fs::AppendResp& resp) {
        EXPECT_EQ(as, fs::Status::kOk);
        EXPECT_LT(resp.hops_started, 2u);
        done = true;
      });
  cluster.events().schedule_in(sim::SimTime::from_millis(50.0), [&] {
    cluster.fabric().fail_switch(last_edge);
  });
  if (restore) {
    cluster.events().schedule_in(sim::SimTime::from_millis(100.0), [&] {
      cluster.fabric().restore_switch(last_edge);
    });
  }
  run_until_done(cluster, done, /*timeout_sec=*/120.0);
  cluster.run_until(cluster.events().now() + sim::SimTime::from_seconds(2.0));
  EXPECT_EQ(cluster.dataserver_at(created.primary()).file_size(created.uuid),
            50'000'000u);
  EXPECT_EQ(cluster.dataserver_at(created.replicas.back())
                .file_size(created.uuid),
            0u);
  EXPECT_GE(cluster.dataserver_at(created.primary()).relay_failures(), 1u);
  EXPECT_EQ(cluster.flow_server()->table().size(), 0u);
  EXPECT_EQ(switch_entries(cluster), 0u);
}

TEST(ClusterWritePath, SwitchCrashDuringUploadCutsTheChain) {
  run_switch_crash_during_upload(/*restore=*/false);
}

TEST(ClusterWritePath, SwitchCrashAndRestoreDuringUploadCutsTheChain) {
  run_switch_crash_during_upload(/*restore=*/true);
}

TEST(ClusterWritePath, StalePlanHandsTheSkippedHopBack) {
  fs::Cluster cluster(pipeline_config());
  const net::ThreeTier& tree = cluster.tree();
  const fs::FileInfo created = create_file(cluster, tree.hosts[11], "moved");
  ASSERT_EQ(created.replicas.size(), 3u);

  // The last replica moved to another host (as re-replication would move
  // it) and the primary heard, but the writer's cached mapping still names
  // the old host: its chain plans a last hop the primary no longer relays.
  net::NodeId moved_to = net::kInvalidNode;
  for (const net::NodeId h : tree.hosts) {
    if (std::find(created.replicas.begin(), created.replicas.end(), h) ==
        created.replicas.end()) {
      moved_to = h;
      break;
    }
  }
  ASSERT_NE(moved_to, net::kInvalidNode);
  fs::UpdateReplicasReq update;
  update.file = created.uuid;
  update.replicas = {created.replicas[0], created.replicas[1], moved_to};
  bool updated = false;
  cluster.transport().call(tree.hosts[0], created.primary(),
                           fs::Method::kUpdateReplicas, encode(update),
                           [&](fs::Status s, fs::Bytes) {
                             EXPECT_EQ(s, fs::Status::kOk);
                             updated = true;
                           });
  run_until_done(cluster, updated);

  bool done = false;
  cluster.client_at(tree.hosts[11]).append(
      "moved", fs::ExtentList(fs::Extent::pattern(3, 3000)),
      [&](fs::Status as, const fs::AppendResp& resp) {
        EXPECT_EQ(as, fs::Status::kOk);
        EXPECT_EQ(resp.hops_started, 1u);
        done = true;
      });
  run_until_done(cluster, done);
  // Let the drop notifications and the next stats poll land.
  cluster.run_until(cluster.events().now() + sim::SimTime::from_seconds(2.0));
  EXPECT_EQ(cluster.dataserver_at(created.replicas[1]).file_size(created.uuid),
            3000u);
  EXPECT_EQ(cluster.dataserver_at(created.primary()).relay_failures(), 1u);
  EXPECT_EQ(cluster.flow_server()->table().size(), 0u);
  EXPECT_EQ(switch_entries(cluster), 0u);
}

}  // namespace
}  // namespace mayflower
