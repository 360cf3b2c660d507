// Focused server tests: dataserver append/read semantics and disk
// persistence, nameserver RPC handling — below the full-cluster level.
#include <gtest/gtest.h>
#include <unistd.h>

#include <functional>
#include <limits>
#include <memory>

#include "common/strings.hpp"
#include "fs/cluster.hpp"
#include "fs/dataserver.hpp"
#include "fs/nameserver.hpp"

namespace mayflower::fs {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  ServerTest()
      : tree_(net::build_three_tier(net::ThreeTierConfig{})),
        fabric_(events_, tree_.topo),
        transport_(events_, sim::SimTime::from_micros(100)) {}

  FileInfo make_info(const std::string& name, std::uint64_t chunk_size,
                     std::vector<net::NodeId> replicas) {
    FileInfo info;
    info.uuid = Uuid::generate(rng_);
    info.name = name;
    info.chunk_size = chunk_size;
    info.replicas = std::move(replicas);
    return info;
  }

  void provision(const FileInfo& info) {
    for (const net::NodeId rep : info.replicas) {
      bool acked = false;
      transport_.call(0, rep, Method::kCreateReplica,
                      CreateReplicaReq{info}.encode(),
                      [&](Status s, Bytes) {
                        EXPECT_EQ(s, Status::kOk);
                        acked = true;
                      });
      events_.run();
      EXPECT_TRUE(acked);
    }
  }

  AppendResp append_to_primary(const FileInfo& info, const ExtentList& data,
                               std::vector<ReadAssignment> chain = {}) {
    AppendReq req;
    req.file = info.uuid;
    req.data = data;
    req.chain = std::move(chain);
    AppendResp out;
    bool done = false;
    transport_.call(1, info.primary(), Method::kAppend, req.encode(),
                    [&](Status s, Bytes payload) {
                      EXPECT_EQ(s, Status::kOk);
                      Reader r(payload);
                      out = AppendResp::decode(r);
                      done = true;
                    });
    events_.run();
    EXPECT_TRUE(done);
    return out;
  }

  // The relay hops kPlanWrite would hand a client for `info`'s chain
  // (primary -> replicas[1] -> replicas[2] ...), installed in the fabric.
  std::vector<ReadAssignment> planned_relay(const FileInfo& info,
                                            double bytes) {
    std::vector<ReadAssignment> hops;
    for (std::size_t i = 0; i + 1 < info.replicas.size(); ++i) {
      ReadAssignment hop;
      hop.cookie = fabric_.new_cookie();
      hop.replica = info.replicas[i];
      hop.path = net::shortest_paths(tree_.topo, info.replicas[i],
                                     info.replicas[i + 1])
                     .front();
      hop.bytes = bytes;
      fabric_.install_path(hop.cookie, hop.path);
      hops.push_back(std::move(hop));
    }
    return hops;
  }

  // Appends over a three-replica relay chain whose hop `bad` (if any: 2
  // names none) was damaged by `corrupt`. The primary must answer, start
  // only the hops before `bad`, and settle every secondary from `bad` on
  // degraded.
  void expect_chain_cut_at(std::size_t bad,
                           const std::function<void(ReadAssignment&)>& corrupt) {
    Dataserver primary(transport_, fabric_, tree_.hosts[0], {}, 1);
    Dataserver middle(transport_, fabric_, tree_.hosts[20], {}, 2);
    Dataserver last(transport_, fabric_, tree_.hosts[40], {}, 3);
    const FileInfo info = make_info(
        "chain", 1000, {tree_.hosts[0], tree_.hosts[20], tree_.hosts[40]});
    provision(info);
    std::vector<ReadAssignment> relay = planned_relay(info, 1500.0);
    if (bad < relay.size()) corrupt(relay[bad]);
    const AppendResp resp = append_to_primary(
        info, ExtentList(Extent::pattern(1, 1500)), std::move(relay));
    EXPECT_EQ(resp.new_size, 1500u);
    EXPECT_EQ(resp.hops_started, bad);
    EXPECT_EQ(primary.file_size(info.uuid), 1500u);
    EXPECT_EQ(middle.file_size(info.uuid), bad > 0 ? 1500u : 0u);
    EXPECT_EQ(last.file_size(info.uuid), bad > 1 ? 1500u : 0u);
    EXPECT_EQ(primary.relay_failures(), 2 - bad);
  }

  sim::EventQueue events_;
  net::ThreeTier tree_;
  sdn::SdnFabric fabric_;
  SimTransport transport_;
  Rng rng_{77};
};

TEST_F(ServerTest, AppendAppliesLocallyAndRelays) {
  Dataserver primary(transport_, fabric_, tree_.hosts[0], {}, 1);
  Dataserver secondary(transport_, fabric_, tree_.hosts[20], {}, 2);
  const FileInfo info =
      make_info("f", 1000, {tree_.hosts[0], tree_.hosts[20]});
  provision(info);

  const AppendResp resp =
      append_to_primary(info, ExtentList(Extent::pattern(1, 1500)));
  EXPECT_EQ(resp.offset, 0u);
  EXPECT_EQ(resp.new_size, 1500u);
  EXPECT_EQ(primary.file_size(info.uuid), 1500u);
  EXPECT_EQ(secondary.file_size(info.uuid), 1500u);
  EXPECT_EQ(primary.appends_served(), 1u);
}

TEST_F(ServerTest, PlannedRelayRunsEveryValidHop) {
  expect_chain_cut_at(2, [](ReadAssignment&) {});
}

// --- a relay hop the primary cannot run cuts the chain, never aborts -------

TEST_F(ServerTest, RelayHopWithALinkOutsideTheTopologyIsCut) {
  const std::size_t links = tree_.topo.link_count();
  expect_chain_cut_at(1, [links](ReadAssignment& hop) {
    hop.path.links[1] = static_cast<net::LinkId>(links + 7);
  });
}

TEST_F(ServerTest, RelayHopWhoseLinksDoNotJoinItsNodesIsCut) {
  expect_chain_cut_at(0, [](ReadAssignment& hop) {
    hop.path.links[1] = hop.path.links[0];
  });
}

TEST_F(ServerTest, RelayHopWithTooFewNodesIsCut) {
  expect_chain_cut_at(1, [](ReadAssignment& hop) {
    hop.path.nodes.erase(hop.path.nodes.begin() + 1);
  });
}

TEST_F(ServerTest, RelayHopWithZeroOrNanBytesIsCut) {
  expect_chain_cut_at(1, [](ReadAssignment& hop) { hop.bytes = 0.0; });
  expect_chain_cut_at(0, [](ReadAssignment& hop) {
    hop.bytes = std::numeric_limits<double>::quiet_NaN();
  });
}

TEST_F(ServerTest, RelayHopWithAnUninstalledCookieIsCut) {
  sdn::SdnFabric& fabric = fabric_;
  expect_chain_cut_at(1, [&fabric](ReadAssignment& hop) {
    hop.cookie = fabric.new_cookie();
  });
}

TEST_F(ServerTest, RelayHopWhoseCookieAlreadyCarriesAFlowIsCut) {
  sdn::SdnFabric& fabric = fabric_;
  expect_chain_cut_at(1, [&fabric](ReadAssignment& hop) {
    fabric.start_flow(hop.cookie, hop.path, 1e6);
  });
}

TEST_F(ServerTest, AppendToNonPrimaryRejected) {
  Dataserver primary(transport_, fabric_, tree_.hosts[0], {}, 1);
  Dataserver secondary(transport_, fabric_, tree_.hosts[20], {}, 2);
  const FileInfo info =
      make_info("f", 1000, {tree_.hosts[0], tree_.hosts[20]});
  provision(info);

  AppendReq req;
  req.file = info.uuid;
  req.data = ExtentList(Extent::pattern(1, 10));
  Status seen = Status::kOk;
  transport_.call(1, tree_.hosts[20], Method::kAppend, req.encode(),
                  [&](Status s, Bytes) { seen = s; });
  events_.run();
  EXPECT_EQ(seen, Status::kNotPrimary);
}

TEST_F(ServerTest, DuplicateRelayIsIdempotent) {
  Dataserver secondary(transport_, fabric_, tree_.hosts[20], {}, 2);
  const FileInfo info = make_info("f", 1000, {tree_.hosts[0], tree_.hosts[20]});
  bool acked = false;
  transport_.call(0, tree_.hosts[20], Method::kCreateReplica,
                  CreateReplicaReq{info}.encode(),
                  [&](Status, Bytes) { acked = true; });
  events_.run();
  ASSERT_TRUE(acked);

  AppendRelayReq relay;
  relay.file = info.uuid;
  relay.offset = 0;
  relay.data = ExtentList(Extent::pattern(1, 100));
  for (int i = 0; i < 2; ++i) {
    Status seen = Status::kBadRequest;
    transport_.call(0, tree_.hosts[20], Method::kAppendRelay, relay.encode(),
                    [&](Status s, Bytes) { seen = s; });
    events_.run();
    EXPECT_EQ(seen, Status::kOk) << "delivery " << i;
  }
  EXPECT_EQ(secondary.file_size(info.uuid), 100u);
}

TEST_F(ServerTest, RelayWithGapRejected) {
  Dataserver secondary(transport_, fabric_, tree_.hosts[20], {}, 2);
  const FileInfo info = make_info("f", 1000, {tree_.hosts[0], tree_.hosts[20]});
  transport_.call(0, tree_.hosts[20], Method::kCreateReplica,
                  CreateReplicaReq{info}.encode(), nullptr);
  events_.run();

  AppendRelayReq relay;
  relay.file = info.uuid;
  relay.offset = 500;  // hole: nothing before it
  relay.data = ExtentList(Extent::pattern(1, 100));
  Status seen = Status::kOk;
  transport_.call(0, tree_.hosts[20], Method::kAppendRelay, relay.encode(),
                  [&](Status s, Bytes) { seen = s; });
  events_.run();
  EXPECT_EQ(seen, Status::kBadRequest);
}

TEST_F(ServerTest, QueuedAppendsServiceOneAtATime) {
  Dataserver primary(transport_, fabric_, tree_.hosts[0], {}, 1);
  Dataserver secondary(transport_, fabric_, tree_.hosts[20], {}, 2);
  const FileInfo info = make_info("f", 1000, {tree_.hosts[0], tree_.hosts[20]});
  provision(info);

  // Fire three appends back to back without waiting.
  std::vector<std::uint64_t> offsets;
  for (int i = 0; i < 3; ++i) {
    AppendReq req;
    req.file = info.uuid;
    req.data = ExtentList(Extent::pattern(static_cast<std::uint64_t>(i), 200));
    transport_.call(1, info.primary(), Method::kAppend, req.encode(),
                    [&](Status s, Bytes payload) {
                      ASSERT_EQ(s, Status::kOk);
                      Reader r(payload);
                      offsets.push_back(AppendResp::decode(r).offset);
                    });
  }
  events_.run();
  ASSERT_EQ(offsets.size(), 3u);
  // FIFO atomic appends: offsets are 0, 200, 400 in submission order.
  EXPECT_EQ(offsets, (std::vector<std::uint64_t>{0, 200, 400}));
  EXPECT_EQ(secondary.file_size(info.uuid), 600u);
}

TEST_F(ServerTest, ReadReturnsSliceAndFileSize) {
  Dataserver primary(transport_, fabric_, tree_.hosts[0], {}, 1);
  const FileInfo info = make_info("f", 1000, {tree_.hosts[0]});
  provision(info);
  append_to_primary(info, ExtentList(Extent::pattern(5, 2000)));

  ReadReq req;
  req.file = info.uuid;
  req.offset = 500;
  req.length = 300;
  bool done = false;
  transport_.call(1, tree_.hosts[0], Method::kReadFile, req.encode(),
                  [&](Status s, Bytes payload) {
                    ASSERT_EQ(s, Status::kOk);
                    Reader r(payload);
                    const ReadResp resp = ReadResp::decode(r);
                    EXPECT_EQ(resp.file_size, 2000u);
                    EXPECT_EQ(resp.data.size(), 300u);
                    EXPECT_TRUE(resp.data.content_equals(
                        ExtentList(Extent::pattern(5, 2000)).slice(500, 300)));
                    done = true;
                  });
  events_.run();
  EXPECT_TRUE(done);
}

TEST_F(ServerTest, DiskPersistenceSurvivesRestart) {
  const auto root = std::filesystem::temp_directory_path() /
                    strfmt("mayflower-ds-test-%d", static_cast<int>(::getpid()));
  std::filesystem::remove_all(root);

  DataserverConfig cfg;
  cfg.disk_root = root;
  Dataserver primary(transport_, fabric_, tree_.hosts[0], cfg, 1);
  const FileInfo info = make_info("persist-me", 1000, {tree_.hosts[0]});
  provision(info);
  const ExtentList payload(Extent::pattern(9, 2750));  // 3 chunk files
  append_to_primary(info, payload);

  // Crash + restart: reload from the UUID-named directory layout.
  primary.restart();
  EXPECT_EQ(primary.file_size(info.uuid), 2750u);
  const ExtentList* data = primary.file_data(info.uuid);
  ASSERT_NE(data, nullptr);
  EXPECT_TRUE(data->content_equals(payload));

  // Layout matches §3.3.2: a directory named by UUID, numbered chunk files.
  const auto dir = root / info.uuid.to_string();
  EXPECT_TRUE(std::filesystem::exists(dir / "meta"));
  EXPECT_TRUE(std::filesystem::exists(dir / "1"));
  EXPECT_TRUE(std::filesystem::exists(dir / "2"));
  EXPECT_TRUE(std::filesystem::exists(dir / "3"));
  std::filesystem::remove_all(root);
}

TEST_F(ServerTest, InMemoryRestartLosesState) {
  Dataserver primary(transport_, fabric_, tree_.hosts[0], {}, 1);
  const FileInfo info = make_info("volatile", 1000, {tree_.hosts[0]});
  provision(info);
  append_to_primary(info, ExtentList(Extent::pattern(1, 100)));
  primary.restart();
  EXPECT_EQ(primary.file_data(info.uuid), nullptr);
}

TEST_F(ServerTest, ScanFilesListsLocalReplicas) {
  Dataserver ds(transport_, fabric_, tree_.hosts[0], {}, 1);
  for (int i = 0; i < 3; ++i) {
    const FileInfo info =
        make_info(strfmt("file%d", i), 1000, {tree_.hosts[0]});
    provision(info);
  }
  bool done = false;
  transport_.call(9, tree_.hosts[0], Method::kScanFiles, Bytes{},
                  [&](Status s, Bytes payload) {
                    ASSERT_EQ(s, Status::kOk);
                    Reader r(payload);
                    const ScanFilesResp resp = ScanFilesResp::decode(r);
                    EXPECT_EQ(resp.files.size(), 3u);
                    done = true;
                  });
  events_.run();
  EXPECT_TRUE(done);
}


TEST_F(ServerTest, NameserverGracefulRestartKeepsMappings) {
  const auto kv_dir =
      std::filesystem::temp_directory_path() /
      strfmt("mayflower-ns-restart-%d", static_cast<int>(::getpid()));
  std::filesystem::remove_all(kv_dir);

  // Dataservers everywhere except the nameserver's own host so any random
  // placement can be provisioned.
  const net::NodeId ns = tree_.hosts[1];
  std::vector<std::unique_ptr<Dataserver>> servers;
  for (const net::NodeId h : tree_.hosts) {
    if (h == ns) continue;
    servers.push_back(
        std::make_unique<Dataserver>(transport_, fabric_, h, DataserverConfig{}, h));
  }
  NameserverConfig cfg;
  cfg.kv_dir = kv_dir;
  cfg.chunk_size = 1000;
  {
    Nameserver nameserver(transport_, ns, tree_, cfg, 42);
    CreateFileReq req;
    req.name = "durable";
    req.replication = 1;
    bool done = false;
    transport_.call(tree_.hosts[2], ns, Method::kCreateFile, req.encode(),
                    [&](Status s, Bytes) {
                      EXPECT_EQ(s, Status::kOk);
                      done = true;
                    });
    events_.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(nameserver.file_count(), 1u);
  }  // graceful shutdown: WAL flushed, handler unbound

  Nameserver reborn(transport_, ns, tree_, cfg, 43);
  EXPECT_EQ(reborn.file_count(), 1u);
  const auto info = reborn.lookup("durable");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->name, "durable");
  EXPECT_EQ(info->replicas.size(), 1u);
  std::filesystem::remove_all(kv_dir);
}

TEST_F(ServerTest, NameserverListAndStatRpcs) {
  const net::NodeId ns_host = tree_.hosts[1];
  std::vector<std::unique_ptr<Dataserver>> servers;
  for (const net::NodeId h : tree_.hosts) {
    if (h == ns_host) continue;
    servers.push_back(
        std::make_unique<Dataserver>(transport_, fabric_, h, DataserverConfig{}, h));
  }
  const auto kv_dir =
      std::filesystem::temp_directory_path() /
      strfmt("mayflower-ns-list-%d", static_cast<int>(::getpid()));
  std::filesystem::remove_all(kv_dir);
  NameserverConfig cfg;
  cfg.kv_dir = kv_dir;
  Nameserver nameserver(transport_, tree_.hosts[1], tree_, cfg, 7);

  for (const char* name : {"b-file", "a-file", "c-file"}) {
    CreateFileReq req;
    req.name = name;
    req.replication = 1;
    transport_.call(tree_.hosts[2], tree_.hosts[1], Method::kCreateFile,
                    req.encode(), nullptr);
  }
  events_.run();

  bool listed = false;
  transport_.call(tree_.hosts[2], tree_.hosts[1], Method::kListFiles, Bytes{},
                  [&](Status s, Bytes payload) {
                    ASSERT_EQ(s, Status::kOk);
                    Reader r(payload);
                    const ListFilesResp resp = ListFilesResp::decode(r);
                    ASSERT_EQ(resp.names.size(), 3u);
                    // Key order: lexicographic.
                    EXPECT_EQ(resp.names[0], "a-file");
                    EXPECT_EQ(resp.names[2], "c-file");
                    listed = true;
                  });
  events_.run();
  EXPECT_TRUE(listed);
  std::filesystem::remove_all(kv_dir);
}

// --- batched Flowserver RPC -------------------------------------------------

TEST_F(ServerTest, SelectReplicasBatchPlansEveryReadInOneRpc) {
  flowserver::Flowserver server(fabric_, {});
  const net::NodeId controller = tree_.hosts[47];
  FlowserverService service(transport_, controller, server);
  RpcPlanner planner(transport_, controller);

  std::vector<SelectReplicasReq> reads;
  for (std::size_t i = 0; i < 3; ++i) {
    SelectReplicasReq one;
    one.client = tree_.hosts[i];
    one.replicas = {tree_.hosts[16 + 4 * i]};
    one.bytes = 64e6;
    reads.push_back(one);
  }
  bool done = false;
  planner.plan_batch(
      tree_.hosts[0], reads,
      [&](Status s, std::vector<std::vector<policy::ReadAssignment>> plans) {
        ASSERT_EQ(s, Status::kOk);
        ASSERT_EQ(plans.size(), 3u);
        for (std::size_t i = 0; i < plans.size(); ++i) {
          ASSERT_FALSE(plans[i].empty());
          // plans[i] answers reads[i]: the right replica, a path ending at
          // the right client, and an installed cookie.
          for (const auto& a : plans[i]) {
            EXPECT_EQ(a.replica, reads[i].replicas[0]);
            EXPECT_EQ(a.path.nodes.back(), reads[i].client);
            fabric_.start_flow(a.cookie, a.path, a.bytes, nullptr);
          }
        }
        done = true;
      });
  events_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(service.requests_served(), 3u);
}

TEST_F(ServerTest, SelectReplicasBatchMarksUnreachableReadsEmpty) {
  flowserver::Flowserver server(fabric_, {});
  const net::NodeId controller = tree_.hosts[47];
  FlowserverService service(transport_, controller, server);
  RpcPlanner planner(transport_, controller);

  // Cut off the first read's only replica; the second must still plan.
  const net::NodeId dead = tree_.hosts[16];
  fabric_.fail_link(tree_.host_uplink(dead));
  fabric_.fail_link(tree_.host_downlink(dead));

  std::vector<SelectReplicasReq> reads(2);
  reads[0].client = tree_.hosts[0];
  reads[0].replicas = {dead};
  reads[0].bytes = 1e6;
  reads[1].client = tree_.hosts[1];
  reads[1].replicas = {tree_.hosts[32]};
  reads[1].bytes = 1e6;

  bool done = false;
  planner.plan_batch(
      tree_.hosts[0], reads,
      [&](Status s, std::vector<std::vector<policy::ReadAssignment>> plans) {
        ASSERT_EQ(s, Status::kOk);  // the batch succeeds as a whole
        ASSERT_EQ(plans.size(), 2u);
        EXPECT_TRUE(plans[0].empty());  // per-read kUnavailable
        ASSERT_FALSE(plans[1].empty());
        EXPECT_EQ(plans[1][0].replica, tree_.hosts[32]);
        done = true;
      });
  events_.run();
  EXPECT_TRUE(done);
}

TEST_F(ServerTest, SelectReplicasBatchRejectsMalformedReads) {
  flowserver::Flowserver server(fabric_, {});
  const net::NodeId controller = tree_.hosts[47];
  FlowserverService service(transport_, controller, server);
  RpcPlanner planner(transport_, controller);

  // An empty batch and a batch containing a zero-byte read both bounce.
  for (const bool with_bad_read : {false, true}) {
    std::vector<SelectReplicasReq> reads;
    if (with_bad_read) {
      SelectReplicasReq bad;
      bad.client = tree_.hosts[0];
      bad.replicas = {tree_.hosts[16]};
      bad.bytes = 0.0;
      reads.push_back(bad);
    }
    Status seen = Status::kOk;
    planner.plan_batch(
        tree_.hosts[0], reads,
        [&](Status s, std::vector<std::vector<policy::ReadAssignment>>) {
          seen = s;
        });
    events_.run();
    EXPECT_EQ(seen, Status::kBadRequest);
  }
}

TEST_F(ServerTest, PlanRpcsRejectMalformedRequests) {
  flowserver::Flowserver server(fabric_, {});
  const net::NodeId controller = tree_.hosts[47];
  FlowserverService service(transport_, controller, server);
  RpcPlanner planner(transport_, controller);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const net::NodeId client = tree_.hosts[0];
  const net::NodeId replica = tree_.hosts[16];
  const auto beyond = static_cast<net::NodeId>(tree_.topo.node_count());
  std::vector<Status> seen;
  auto record = [&seen](Status s, auto) { seen.push_back(s); };

  // kSelectReplicas: a NaN or infinite size, an out-of-range client or
  // replica.
  planner.plan(client, {replica}, nan, record);
  planner.plan(client, {replica}, inf, record);
  planner.plan(beyond, {replica}, 1e6, record);
  planner.plan(client, {replica, beyond}, 1e6, record);
  // kSelectReplicasBatch: one bad read after a good one spoils the batch.
  SelectReplicasReq good;
  good.client = client;
  good.replicas = {replica};
  good.bytes = 1e6;
  SelectReplicasReq nan_read = good;
  nan_read.bytes = nan;
  SelectReplicasReq far_read = good;
  far_read.replicas = {beyond};
  planner.plan_batch(client, {good, nan_read}, record);
  planner.plan_batch(client, {good, far_read}, record);
  // kPlanWrite: a NaN or infinite size, an out-of-range chain host.
  planner.plan_write(client, {client, replica}, nan, record);
  planner.plan_write(client, {client, replica}, inf, record);
  planner.plan_write(client, {client, beyond}, 1e6, record);
  events_.run();

  ASSERT_EQ(seen.size(), 9u);
  for (const Status s : seen) EXPECT_EQ(s, Status::kBadRequest);
  EXPECT_EQ(server.table().size(), 0u);
}

}  // namespace
}  // namespace mayflower::fs
