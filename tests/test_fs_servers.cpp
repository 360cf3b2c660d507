// Focused server tests: dataserver append/read semantics and disk
// persistence, nameserver RPC handling — below the full-cluster level.
#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
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
                      encode(CreateReplicaReq{info}),
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
    transport_.call(1, info.primary(), Method::kAppend, encode(req),
                    [&](Status s, Bytes payload) {
                      EXPECT_EQ(s, Status::kOk);
                      out = decode<AppendResp>(payload).value();
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

  // Sends one request and runs the queue; returns the reply's status.
  Status status_of(net::NodeId to, Method method, const Bytes& request) {
    std::vector<Status> seen;
    transport_.call(1, to, method, request,
                    [&seen](Status s, Bytes) { seen.push_back(s); });
    events_.run();
    EXPECT_EQ(seen.size(), 1u);
    return seen.empty() ? Status::kUnavailable : seen.front();
  }

  Status append_status(const FileInfo& info) {
    AppendReq req;
    req.file = info.uuid;
    req.data = ExtentList(Extent::pattern(1, 100));
    return status_of(info.primary(), Method::kAppend, encode(req));
  }

  // A fresh directory under the system temp dir, unique to this process.
  static std::filesystem::path scratch_dir(const char* tag) {
    const auto dir =
        std::filesystem::temp_directory_path() /
        strfmt("mayflower-%s-%d", tag, static_cast<int>(::getpid()));
    std::filesystem::remove_all(dir);
    return dir;
  }

  // Dataservers on every host of `tree`, so any placement can be
  // provisioned.
  std::vector<std::unique_ptr<Dataserver>> dataservers_on(
      const net::ThreeTier& tree, sdn::SdnFabric& fabric) {
    std::vector<std::unique_ptr<Dataserver>> servers;
    for (const net::NodeId h : tree.hosts) {
      servers.push_back(std::make_unique<Dataserver>(
          transport_, fabric, h, DataserverConfig{}, h));
    }
    return servers;
  }

  // On a tree with one rack per pod, a second replica, which must sit in
  // another rack of the primary's pod, cannot be placed; a single one can.
  void expect_one_rack_per_pod_refuses_a_second_replica(
      const NameserverConfig& cfg) {
    net::ThreeTierConfig one_rack;
    one_rack.racks_per_pod = 1;
    const net::ThreeTier tree = net::build_three_tier(one_rack);
    sdn::SdnFabric fabric(events_, tree.topo);
    const auto servers = dataservers_on(tree, fabric);
    const auto ns = static_cast<net::NodeId>(tree.topo.node_count());
    {
      Nameserver nameserver(transport_, ns, tree, cfg, 5);
      EXPECT_EQ(create_status(ns, "pair", 2, tree.hosts[2]),
                Status::kBadRequest);
      EXPECT_EQ(create_status(ns, "single", 1, tree.hosts[2]), Status::kOk);
      EXPECT_EQ(nameserver.file_count(), 1u);
    }
    std::filesystem::remove_all(cfg.kv_dir);
  }

  Status create_status(net::NodeId nameserver, const std::string& name,
                       std::uint32_t replication, net::NodeId client) {
    CreateFileReq req;
    req.name = name;
    req.replication = replication;
    req.client = client;
    return status_of(nameserver, Method::kCreateFile, encode(req));
  }

  // A node id outside the topology, and one no topology here reaches.
  net::NodeId beyond_topology() const {
    return static_cast<net::NodeId>(tree_.topo.node_count());
  }
  static constexpr net::NodeId kFarNode = 1000000;

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
  transport_.call(1, tree_.hosts[20], Method::kAppend, encode(req),
                  [&](Status s, Bytes) { seen = s; });
  events_.run();
  EXPECT_EQ(seen, Status::kNotPrimary);
}

TEST_F(ServerTest, DuplicateRelayIsIdempotent) {
  Dataserver secondary(transport_, fabric_, tree_.hosts[20], {}, 2);
  const FileInfo info = make_info("f", 1000, {tree_.hosts[0], tree_.hosts[20]});
  bool acked = false;
  transport_.call(0, tree_.hosts[20], Method::kCreateReplica,
                  encode(CreateReplicaReq{info}),
                  [&](Status, Bytes) { acked = true; });
  events_.run();
  ASSERT_TRUE(acked);

  AppendRelayReq relay;
  relay.file = info.uuid;
  relay.offset = 0;
  relay.data = ExtentList(Extent::pattern(1, 100));
  for (int i = 0; i < 2; ++i) {
    Status seen = Status::kBadRequest;
    transport_.call(0, tree_.hosts[20], Method::kAppendRelay, encode(relay),
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
                  encode(CreateReplicaReq{info}), nullptr);
  events_.run();

  AppendRelayReq relay;
  relay.file = info.uuid;
  relay.offset = 500;  // hole: nothing before it
  relay.data = ExtentList(Extent::pattern(1, 100));
  Status seen = Status::kOk;
  transport_.call(0, tree_.hosts[20], Method::kAppendRelay, encode(relay),
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
    transport_.call(1, info.primary(), Method::kAppend, encode(req),
                    [&](Status s, Bytes payload) {
                      ASSERT_EQ(s, Status::kOk);
                      offsets.push_back(
                          decode<AppendResp>(payload).value().offset);
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
  transport_.call(1, tree_.hosts[0], Method::kReadFile, encode(req),
                  [&](Status s, Bytes payload) {
                    ASSERT_EQ(s, Status::kOk);
                    const ReadResp resp = decode<ReadResp>(payload).value();
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
                    const ScanFilesResp resp =
                        decode<ScanFilesResp>(payload).value();
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
    transport_.call(tree_.hosts[2], ns, Method::kCreateFile, encode(req),
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
                    encode(req), nullptr);
  }
  events_.run();

  bool listed = false;
  transport_.call(tree_.hosts[2], tree_.hosts[1], Method::kListFiles, Bytes{},
                  [&](Status s, Bytes payload) {
                    ASSERT_EQ(s, Status::kOk);
                    const ListFilesResp resp =
                        decode<ListFilesResp>(payload).value();
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
  // kPlanWrite: a NaN or infinite size, an out-of-range chain host.
  planner.plan_write(client, {client, replica}, nan, record);
  planner.plan_write(client, {client, replica}, inf, record);
  planner.plan_write(client, {client, beyond}, 1e6, record);
  events_.run();

  ASSERT_EQ(seen.size(), 7u);
  for (const Status s : seen) EXPECT_EQ(s, Status::kBadRequest);
  EXPECT_EQ(server.table().size(), 0u);
}

TEST_F(ServerTest, TruncatedFlowDroppedIsABadRequest) {
  flowserver::Flowserver server(fabric_, {});
  const net::NodeId controller = tree_.hosts[47];
  FlowserverService service(transport_, controller, server);
  RpcPlanner planner(transport_, controller);
  std::vector<ReadAssignment> plan;
  planner.plan(tree_.hosts[0], {tree_.hosts[16]}, 1e6,
               [&plan](Status s, std::vector<ReadAssignment> p) {
                 EXPECT_EQ(s, Status::kOk);
                 plan = std::move(p);
               });
  events_.run();
  ASSERT_FALSE(plan.empty());
  const std::size_t believed = server.table().size();
  ASSERT_GT(believed, 0u);

  Bytes truncated = encode(FlowDroppedReq{plan.front().cookie});
  truncated.pop_back();
  std::vector<Status> seen;
  transport_.call(tree_.hosts[0], controller, Method::kFlowDropped,
                  truncated, [&seen](Status s, Bytes) { seen.push_back(s); });
  events_.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], Status::kBadRequest);
  EXPECT_EQ(server.table().size(), believed);
}

// --- node ids and sizes the nameserver sends are checked too ---------------

TEST_F(ServerTest, NameserverRejectsStaticReplicationBeyondTheRackCount) {
  const auto servers = dataservers_on(tree_, fabric_);
  NameserverConfig cfg;
  cfg.kv_dir = scratch_dir("ns-static");
  const net::NodeId ns = beyond_topology();
  {
    Nameserver nameserver(transport_, ns, tree_, cfg, 5);
    // One replica per rack: 16 racks fit 16 replicas, and placing a 17th
    // would abort.
    EXPECT_EQ(create_status(ns, "wide", 16, tree_.hosts[2]), Status::kOk);
    EXPECT_EQ(create_status(ns, "wider", 17, tree_.hosts[2]),
              Status::kBadRequest);
    EXPECT_EQ(nameserver.file_count(), 1u);
  }
  std::filesystem::remove_all(cfg.kv_dir);
}

TEST_F(ServerTest,
       NameserverRejectsCollaborativeReplicationBeyondTheRackCount) {
  const auto servers = dataservers_on(tree_, fabric_);
  NameserverConfig cfg;
  cfg.kv_dir = scratch_dir("ns-collab");
  cfg.placement_advisor = [](net::NodeId,
                              const std::vector<net::NodeId>& pool) {
    return pool.front();
  };
  const net::NodeId ns = beyond_topology();
  {
    Nameserver nameserver(transport_, ns, tree_, cfg, 5);
    EXPECT_EQ(create_status(ns, "wide", 16, tree_.hosts[2]), Status::kOk);
    EXPECT_EQ(create_status(ns, "wider", 17, tree_.hosts[2]),
              Status::kBadRequest);
    EXPECT_EQ(nameserver.file_count(), 1u);
  }
  std::filesystem::remove_all(cfg.kv_dir);
}

TEST_F(ServerTest, NameserverRejectsAStaticSecondReplicaWithOneRackPerPod) {
  NameserverConfig cfg;
  cfg.kv_dir = scratch_dir("ns-static-one-rack");
  expect_one_rack_per_pod_refuses_a_second_replica(cfg);
}

TEST_F(ServerTest,
       NameserverRejectsACollaborativeSecondReplicaWithOneRackPerPod) {
  NameserverConfig cfg;
  cfg.kv_dir = scratch_dir("ns-collab-one-rack");
  cfg.placement_advisor = [](net::NodeId,
                              const std::vector<net::NodeId>& pool) {
    return pool.front();
  };
  expect_one_rack_per_pod_refuses_a_second_replica(cfg);
}

TEST_F(ServerTest, NameserverRejectsACreatingClientThatIsNotAHost) {
  const auto servers = dataservers_on(tree_, fabric_);
  flowserver::Flowserver server(fabric_, {});
  NameserverConfig cfg;
  cfg.kv_dir = scratch_dir("ns-client");
  cfg.placement_advisor = [&server](net::NodeId writer,
                                    const std::vector<net::NodeId>& pool) {
    return server.best_write_target(writer, pool);
  };
  const net::NodeId ns = beyond_topology();
  {
    Nameserver nameserver(transport_, ns, tree_, cfg, 5);
    // The advisor ranks from the client's host: ranking from an id outside
    // the topology would abort path enumeration, and a switch writes no
    // file.
    EXPECT_EQ(create_status(ns, "far", 3, kFarNode), Status::kBadRequest);
    EXPECT_EQ(create_status(ns, "edge", 3, tree_.edge_switches[0]),
              Status::kBadRequest);
    EXPECT_EQ(create_status(ns, "near", 3, tree_.hosts[2]), Status::kOk);
    EXPECT_EQ(create_status(ns, "anon", 3, net::kInvalidNode), Status::kOk);
    EXPECT_EQ(nameserver.file_count(), 2u);
  }
  std::filesystem::remove_all(cfg.kv_dir);
}

TEST_F(ServerTest, CreateReplicaRejectsUnknownHostsAndZeroChunks) {
  DataserverConfig cfg;
  cfg.disk_root = scratch_dir("ds-create");
  Dataserver primary(transport_, fabric_, tree_.hosts[0], cfg, 1);
  auto create = [&](const FileInfo& info) {
    return status_of(tree_.hosts[0], Method::kCreateReplica,
                     encode(CreateReplicaReq{info}));
  };
  // A secondary outside the topology: relaying the next append to it would
  // abort path enumeration.
  const FileInfo far = make_info("far", 1000, {tree_.hosts[0], kFarNode});
  EXPECT_EQ(create(far), Status::kBadRequest);
  EXPECT_EQ(append_status(far), Status::kNotFound);
  EXPECT_EQ(create(make_info("edge", 1000,
                             {tree_.hosts[0], tree_.edge_switches[3]})),
            Status::kBadRequest);
  EXPECT_EQ(create(make_info("none", 1000, {})), Status::kBadRequest);
  // Chunk size 0: persisting the next append would divide by zero.
  const FileInfo zero = make_info("zero", 0, {tree_.hosts[0]});
  EXPECT_EQ(create(zero), Status::kBadRequest);
  EXPECT_EQ(append_status(zero), Status::kNotFound);
  EXPECT_EQ(primary.file_count(), 0u);
  std::filesystem::remove_all(cfg.disk_root);
}

TEST_F(ServerTest, InstallReplicaRejectsUnknownHostsAndZeroChunks) {
  DataserverConfig cfg;
  cfg.disk_root = scratch_dir("ds-install");
  Dataserver target(transport_, fabric_, tree_.hosts[0], cfg, 1);
  auto install = [&](const FileInfo& info, ExtentList data) {
    return status_of(tree_.hosts[0], Method::kInstallReplica,
                     encode(InstallReplicaReq{info, std::move(data)}));
  };
  const FileInfo far = make_info("far", 1000, {tree_.hosts[0], kFarNode});
  EXPECT_EQ(install(far, ExtentList{}), Status::kBadRequest);
  EXPECT_EQ(append_status(far), Status::kNotFound);
  // Installing 100 bytes at chunk size 0 would divide by zero on disk.
  FileInfo zero = make_info("zero", 0, {tree_.hosts[0]});
  zero.size = 100;
  EXPECT_EQ(install(zero, ExtentList(Extent::pattern(2, 100))),
            Status::kBadRequest);
  EXPECT_EQ(target.file_count(), 0u);
  std::filesystem::remove_all(cfg.disk_root);
}

TEST_F(ServerTest, UpdateReplicasRejectsUnknownHosts) {
  Dataserver primary(transport_, fabric_, tree_.hosts[0], {}, 1);
  const FileInfo info = make_info("f", 1000, {tree_.hosts[0]});
  provision(info);
  EXPECT_EQ(status_of(tree_.hosts[0], Method::kUpdateReplicas,
                      encode(UpdateReplicasReq{info.uuid,
                                               {tree_.hosts[0], kFarNode}})),
            Status::kBadRequest);
  // The replica list is unchanged, so the append relays nowhere; a relay to
  // the far node would abort.
  EXPECT_EQ(append_status(info), Status::kOk);
  EXPECT_EQ(primary.file_size(info.uuid), 100u);
  EXPECT_EQ(primary.relay_failures(), 0u);
}

TEST_F(ServerTest, ReplicateToRejectsUnknownTargetsAndReplicas) {
  Dataserver source(transport_, fabric_, tree_.hosts[0], {}, 1);
  Dataserver spare(transport_, fabric_, tree_.hosts[20], {}, 2);
  const FileInfo info = make_info("f", 1000, {tree_.hosts[0]});
  provision(info);
  append_to_primary(info, ExtentList(Extent::pattern(3, 100)));
  auto replicate = [&](net::NodeId to, std::vector<net::NodeId> replicas) {
    return status_of(
        tree_.hosts[0], Method::kReplicateTo,
        encode(ReplicateToReq{info.uuid, to, std::move(replicas)}));
  };
  // A copy to the far node would abort path enumeration.
  EXPECT_EQ(replicate(kFarNode, {tree_.hosts[0], kFarNode}),
            Status::kBadRequest);
  EXPECT_EQ(replicate(tree_.edge_switches[5],
                      {tree_.hosts[0], tree_.edge_switches[5]}),
            Status::kBadRequest);
  EXPECT_EQ(replicate(tree_.hosts[20], {tree_.hosts[0], kFarNode}),
            Status::kBadRequest);
  EXPECT_EQ(spare.file_size(info.uuid), 0u);
  EXPECT_EQ(replicate(tree_.hosts[20], {tree_.hosts[0], tree_.hosts[20]}),
            Status::kOk);
  EXPECT_EQ(spare.file_size(info.uuid), 100u);
}

TEST_F(ServerTest, RestartSkipsAReplicaWithChunkSizeZero) {
  DataserverConfig cfg;
  cfg.disk_root = scratch_dir("ds-zero-chunk");
  Dataserver primary(transport_, fabric_, tree_.hosts[0], cfg, 1);
  const FileInfo info = make_info("f", 1000, {tree_.hosts[0]});
  provision(info);
  append_to_primary(info, ExtentList(Extent::pattern(4, 100)));
  // Damage the meta file: loading it would divide by its chunk size.
  FileInfo damaged = info;
  damaged.size = 100;
  damaged.chunk_size = 0;
  const Bytes meta = encode(damaged);
  std::ofstream(cfg.disk_root / info.uuid.to_string() / "meta",
                std::ios::binary | std::ios::trunc)
      .write(meta.data(), static_cast<std::streamsize>(meta.size()));
  primary.restart();
  EXPECT_EQ(primary.file_data(info.uuid), nullptr);
  std::filesystem::remove_all(cfg.disk_root);
}

}  // namespace
}  // namespace mayflower::fs
